"""Incremental trajectory scoring with per-layer key/value caches.

A session is opened from one or more ids, which fill the caches in one cached
call and are not scored. Opened on a record's ids[:1], the one id batch scoring
leaves unscored, it then consumes the rest one token at a time. Each push
scores the token against the logits of the previous position, then runs the
batch kernel, model.forward_batch, on the one new row with the session's
key/value cache, so only one attention query row is computed per layer against
the cached keys and values of the prefix; scoring a whole stream costs
O(n^2 d) instead of the O(n^3 d) of re-running a full forward pass per prefix.
A session takes max_seq_len + 1 ids, as batch scoring does: the id at position
max_seq_len is only ever a target, so it is scored and never fed. The only
difference from batch scoring is BLAS summation order, so per-token results
match the batch scorer to 1e-9 relative. partial_verdict judges the running
perplexity through scoring.classify, the one verdict rule of batch scoring.
Session.fork copies a session's state, so prefixes that continue differently
share the work of their common part: the fork and the original then score as
two sessions that were each fed the whole prefix, bit for bit.
"""

from __future__ import annotations

import copy
import math

import numpy as np

from .errors import DomainError, SessionFullError
from .model import DTYPE, Model, forward_batch, log_softmax
from .scoring import ScoreReport, ThresholdTable, classify


class Session:
    """Single-owner incremental scorer over one immutable model.

    The constructor feeds the conditioning tokens. The caches hold the
    post-projection key and value rows of every token fed, one
    (1, max_seq_len, d_model) buffer each per layer; pushes append one row per
    layer and never touch earlier rows. len() counts the tokens taken, at most
    max_seq_len + 1.
    """

    def __init__(self, model: Model, conditioning_ids: list[int]):
        if len(conditioning_ids) == 0:
            raise DomainError("conditioning must contain at least one token")
        cfg = model.config
        shape = (1, cfg.max_seq_len, cfg.d_model)
        self.model = model
        self._kv = [(np.zeros(shape, dtype=DTYPE), np.zeros(shape, dtype=DTYPE))
                    for _ in range(cfg.n_layers)]
        self._n_tokens = 0
        self.surprisal_sum = 0.0
        self.scored_count = 0
        self._advance([int(t) for t in conditioning_ids])

    def __len__(self) -> int:
        return self._n_tokens

    @property
    def full(self) -> bool:
        """True once the session holds max_seq_len + 1 ids and takes no more."""
        return self._n_tokens > self.model.config.max_seq_len

    def cached_kv(self, layer: int) -> tuple[np.ndarray, np.ndarray]:
        """Views of the key/value rows cached so far for one layer."""
        k, v = self._kv[layer]
        return k[0, :self._n_tokens], v[0, :self._n_tokens]

    @property
    def running_perplexity(self) -> float:
        if self.scored_count == 0:
            raise DomainError("no scored positions yet")
        return math.exp(self.surprisal_sum / self.scored_count)

    def fork(self) -> Session:
        """An independent session in this one's state: copies of the cache rows
        filled so far, the surprisal sum and count and the last logits. A push
        to either session leaves the other unchanged."""
        n = self._n_tokens
        twin = copy.copy(self)
        twin._kv = [(np.zeros_like(k), np.zeros_like(v)) for k, v in self._kv]
        for (k, v), (k2, v2) in zip(self._kv, twin._kv):
            k2[:, :n], v2[:, :n] = k[:, :n], v[:, :n]
        twin._last_logits = self._last_logits.copy()
        return twin

    def _advance(self, token_ids: list[int]) -> None:
        """Feed tokens through the network in one cached call, extending each layer's cache.

        forward_batch validates the ids and the length before it writes a cache
        row, so a rejected call leaves the session unchanged.
        """
        logits, _ = forward_batch(self.model, [token_ids], kv=self._kv, pos=self._n_tokens)
        self._last_logits = logits[0, -1]
        self._n_tokens += len(token_ids)

    def push(self, token_id: int) -> tuple[float, float]:
        """Score one arriving token; returns (its surprisal, running perplexity).

        The surprisal comes from the logits of the previous position, i.e.
        -log P(token | every token fed so far). The token at position
        max_seq_len is scored without being fed. Raises SessionFullError with
        the session unchanged once it holds max_seq_len + 1 tokens.
        """
        max_seq_len = self.model.config.max_seq_len
        if self.full:
            raise SessionFullError(f"session already holds max_seq_len + 1 = {max_seq_len + 1} tokens")
        logp = log_softmax(self._last_logits)
        if not 0 <= token_id < self.model.config.vocab_size:
            raise DomainError(f"token id {token_id} out of range [0, {self.model.config.vocab_size})")
        s = float(-logp[token_id])
        if self._n_tokens < max_seq_len:
            self._advance([token_id])
        else:
            self._n_tokens += 1
        self.surprisal_sum += s
        self.scored_count += 1
        return s, self.running_perplexity


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
