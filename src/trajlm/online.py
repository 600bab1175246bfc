"""Incremental trajectory scoring with per-layer key/value caches.

A session is opened from one or more ids, which fill its cache and are not
scored. Opened on a record's ids[:1], the one id batch scoring leaves
unscored, it then consumes the rest one token at a time. Each push scores the
token against the logits of the previous position; the token's own forward
row runs the batch kernel, model.forward_batch, against the session's cached
keys and values, so only one attention query row is computed per layer and
scoring a whole stream costs O(n^2 d) instead of the O(n^3 d) of re-running a
full forward pass per prefix. A session takes max_seq_len + 1 ids, as batch
scoring does: the id at position max_seq_len is only ever a target, so it is
scored and never fed. The only difference from batch scoring is BLAS
summation order, so per-token results match the batch scorer to 1e-9
relative. partial_verdict judges the running perplexity through
scoring.classify, the one verdict rule of batch scoring.

The sessions of one model share a pool, and each session is a slot in it. A
push, and each id of an open, queues its forward row instead of running it. A
session's next push needs the log-probabilities of its queued row, so it
first runs every queued row of the pool in one forward_batch call, each row at
its own position and cache slot, and takes log_softmax of the flush's stacked
logits in one call; a push then only reads its token's entry. So sessions
pushed one id each in turn share one call per round, as in
evaluate.prefix_perplexity, and an open on k ids makes k - 1 flushes. A row
attends over its cache's first model._key_width(pos) keys, pos + 1 rounded up
to a multiple of model.KEY_CLASS, with the keys past pos masked, so a flush
runs attention once per width class and every row is bit-identical to the
same row flushed alone: a lone session is a one-row flush. The masked rows
must be finite: a slot's buffers start zeroed, and a reused slot holds an
earlier session's rows. Padding the keys changes only the BLAS summation
order, so results stay within 1e-9 of batch scoring. The push that flushes
carries the latency of the whole batch. A dropped session frees its slot, and
its queued row is never computed. A pool is not thread-safe, so the sessions
of one model must not be pushed from different threads, and the model must
not change while sessions are open.
"""

from __future__ import annotations

import math
import weakref

import numpy as np

from .errors import DomainError, SessionFullError
from .model import DTYPE, Model, forward_batch, log_softmax
from .scoring import ScoreReport, ThresholdTable, classify


class _Pool:
    """The key/value cache slots of one model's sessions, and the rows queued for them.

    A slot holds, per layer, a (1, max_seq_len, 2 * d_model) buffer of key and
    value rows, the cache of one row of a cached forward_batch call, and the
    log-probabilities of the next token after the last position computed. The
    queue maps a slot to the (token id, position) of its one pending row. A
    released slot keeps its buffers for the next session, and the pool lives as
    long as its model, so it holds as many slots as sessions of the model were
    ever open at once. A cached call reads masked cache rows past its
    position, which must be finite: buffers start zeroed, and a reused slot
    holds an earlier session's rows. The pool refers to its model weakly, so
    that it does not keep the model alive.
    """

    def __init__(self, model: Model):
        self.model = weakref.proxy(model)
        self.caches: list[list[np.ndarray]] = []
        self.logp: list[np.ndarray | None] = []
        self.queue: dict[int, tuple[int, int]] = {}
        self._free: list[int] = []

    def acquire(self) -> int:
        if self._free:
            return self._free.pop()
        cfg = self.model.config
        shape = (1, cfg.max_seq_len, 2 * cfg.d_model)
        self.caches.append([np.zeros(shape, dtype=DTYPE) for _ in range(cfg.n_layers)])
        self.logp.append(None)
        return len(self.caches) - 1

    def release(self, slot: int) -> None:
        self.queue.pop(slot, None)
        self.logp[slot] = None
        self._free.append(slot)

    def ready(self, slot: int) -> None:
        """Before slot's session reads its log-probabilities, compute its queued row,
        if it has one, with every other queued row of the pool in one forward_batch
        call and one log_softmax call."""
        if slot not in self.queue:
            return
        # A copy: the garbage collector can drop a session, and its row, while the flush runs.
        rows = self.queue.copy()
        ids, pos = np.array(list(rows.values())).T
        logits, _ = forward_batch(self.model, ids[:, None], kv=[self.caches[s] for s in rows], pos=pos)
        for s, row in zip(rows, log_softmax(logits[:, -1])):
            self.logp[s] = row
        self.queue.clear()


# One pool per live model object, dropped when the model is collected, before its id can be
# reused. Kept between sessions, a pool's slots skip allocating and zeroing their buffers again:
# that took about 5 % of a round of 64 interleaved porto-shaped sessions.
_POOLS: dict[int, _Pool] = {}


def _pool_of(model: Model) -> _Pool:
    pool = _POOLS.get(id(model))
    if pool is None:
        pool = _POOLS[id(model)] = _Pool(model)
        weakref.finalize(model, _POOLS.pop, id(model), None)
    return pool


class Session:
    """Single-owner incremental scorer over one immutable model.

    The constructor checks every conditioning token, then feeds them one
    queued row at a time, so a rejected open holds no slot. The session is a
    slot in its model's pool, whose caches hold the post-projection key and
    value rows of every token fed; pushes append one row per layer and never
    touch earlier rows. len() counts the tokens taken, at most
    max_seq_len + 1.
    """

    def __init__(self, model: Model, conditioning_ids: list[int]):
        ids = [int(t) for t in conditioning_ids]
        max_seq_len = model.config.max_seq_len
        if not 1 <= len(ids) <= max_seq_len:
            raise DomainError(f"conditioning must hold 1 to max_seq_len = {max_seq_len} tokens, got {len(ids)}")
        for token_id in ids:
            _check_id(model, token_id)
        self.model = model
        self._pool = _pool_of(model)
        self._slot = self._pool.acquire()
        weakref.finalize(self, self._pool.release, self._slot)
        for pos, token_id in enumerate(ids):  # each id's row is queued once the one before it is computed
            self._pool.ready(self._slot)
            self._pool.queue[self._slot] = (token_id, pos)
        self._n_tokens = len(ids)
        self.surprisal_sum = 0.0
        self.scored_count = 0

    def __len__(self) -> int:
        return self._n_tokens

    @property
    def full(self) -> bool:
        """True once the session holds max_seq_len + 1 ids and takes no more."""
        return self._n_tokens > self.model.config.max_seq_len

    @property
    def running_perplexity(self) -> float:
        if self.scored_count == 0:
            raise DomainError("no scored positions yet")
        return math.exp(self.surprisal_sum / self.scored_count)

    def push(self, token_id: int) -> tuple[float, float]:
        """Score one arriving token; returns (its surprisal, running perplexity).

        The surprisal comes from the logits of the previous position, i.e.
        -log P(token | every token fed so far). The token at position
        max_seq_len is scored without being fed. Raises SessionFullError, or
        DomainError for an unknown id, with the session and the pool's queue
        unchanged.
        """
        max_seq_len = self.model.config.max_seq_len
        if self.full:
            raise SessionFullError(f"session already holds max_seq_len + 1 = {max_seq_len + 1} tokens")
        _check_id(self.model, token_id)
        self._pool.ready(self._slot)
        s = float(-self._pool.logp[self._slot][token_id])
        if self._n_tokens < max_seq_len:
            self._pool.queue[self._slot] = (int(token_id), self._n_tokens)
        self._n_tokens += 1
        self.surprisal_sum += s
        self.scored_count += 1
        return s, self.running_perplexity


def _check_id(model: Model, token_id: int) -> None:
    if not 0 <= token_id < model.config.vocab_size:
        raise DomainError(f"token id {token_id} out of range [0, {model.config.vocab_size})")


def open_session(model: Model, conditioning_ids: list[int]) -> Session:
    """A session whose caches hold conditioning_ids, unscored; opened on a record's
    ids[:1], pushing the rest scores them as batch scoring does."""
    return Session(model, conditioning_ids)


def partial_verdict(
    session: Session,
    table: ThresholdTable,
    scope: str = "global",
    agent: str | None = None,
) -> ScoreReport:
    """Classify the running perplexity of a partially observed trajectory;
    before the first push, running_perplexity raises DomainError."""
    return classify(None, session.running_perplexity, table, scope=scope, agent=agent)
