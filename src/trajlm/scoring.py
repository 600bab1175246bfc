"""Anomaly scores from model probabilities.

A trajectory of ids [h, x1, ..., xn] is scored on every transition after the
head: entry i of the log-prob vector is log P(ids[i+1] | ids[0..i]). The head
token (the agent id, else the weekday, else SOT) only conditions and is never
itself a prediction target. Perplexity is exp of the mean surprisal over those scored positions,
so a perfectly predicted trajectory scores exactly 1.

`token_log_probs` is the one scoring kernel: one forward call over a batch of
equal-length id rows. `score_corpus` is the batch entry point. It computes a
repeated trajectory (the same head length and ids, as `first_copies` decides)
once, groups the distinct ones by length and makes one forward call per
exact-length chunk of at most CHUNK_TOKENS positions; `surprisal` calls the
same kernel with one row. No row is padded, so a trajectory's trace is the same
bits in any chunk, and a `surprisal(...).perplexity` equals `score_corpus`'s
bit for bit through the one formula, `SurprisalTrace.perplexity`. One trace per
trajectory gives its perplexity, threshold fit, verdict and localization; a
repeat takes its first copy's trace, and threshold fits still count every
trajectory.

A threshold table stores only its fits, from which `threshold_for` computes
each cutoff; a report's verdict is likewise computed from its perplexity and
threshold.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .model import Model, check_lengths, forward_batch, log_softmax
from .vocab import EncodedTrajectory

# Forward positions per score_corpus chunk. It bounds a chunk's activations: a
# larger cap makes fewer calls but grows peak memory and runs no faster.
CHUNK_TOKENS = 256


@dataclass
class SurprisalTrace:
    """Per-position surprisal in nats, aligned to the tokens it scores.

    values[i] is the surprisal of the token at sequence position
    target_positions[i] = i + 1 (an index into the trajectory's ids).
    """

    values: np.ndarray

    @property
    def target_positions(self) -> list[int]:
        return list(range(1, len(self.values) + 1))

    @property
    def perplexity(self) -> float:
        """exp(mean surprisal)."""
        return float(np.exp(np.mean(self.values)))


@dataclass
class ScoreReport:
    traj_id: str | None
    perplexity: float
    threshold: float
    agent: str | None = None
    surprisal: SurprisalTrace | None = None

    @property
    def verdict(self) -> str:
        """anomalous iff the perplexity strictly exceeds the threshold, else normal."""
        return "anomalous" if self.perplexity > self.threshold else "normal"


@dataclass
class ThresholdTable:
    """mean + population-std cutoffs fitted on training perplexities.

    fits holds each fit's (mean, std, count): keyed by agent for the per-agent
    entries and by None for the global one, which no agent name equals.
    """

    fits: dict[str | None, tuple[float, float, int]] = field(default_factory=dict)

    def threshold_for(self, scope: str, agent: str | None = None) -> float:
        """Mean plus std of the fit that scope and agent select."""
        if scope == "global":
            agent = None
            if None not in self.fits:
                raise DomainError("no global threshold available (fewer than 2 training samples)")
        elif scope == "per_agent":
            if agent is None:
                raise DomainError("per_agent scope requires an agent")
            if agent not in self.fits:
                raise DomainError(
                    f"agent {agent!r} has no per-agent threshold; score with scope='global' instead"
                )
        else:
            raise DomainError(f"scope must be 'global' or 'per_agent', got {scope!r}")
        mean, std, _ = self.fits[agent]
        return mean + std


def token_log_probs(model: Model, ids) -> np.ndarray:
    """log P(ids[r, i+1] | ids[r, ..i]) in nats (all <= 0) for an (n, t) batch of
    equal-length id rows, t >= 2; returns (n, t - 1), one forward call for all rows."""
    ids = np.asarray(ids, dtype=np.int64)
    if ids.ndim != 2 or ids.shape[1] < 2:
        raise DomainError(f"expected (n, t >= 2) id rows with a scored transition, got shape {ids.shape}")
    logits, _ = forward_batch(model, ids[:, :-1])
    return np.take_along_axis(log_softmax(logits), ids[:, 1:, None], axis=-1)[..., 0]


def surprisal(model: Model, traj: EncodedTrajectory) -> SurprisalTrace:
    """Negated log-probabilities with the sequence position of each scored token."""
    return SurprisalTrace(-token_log_probs(model, [traj.ids])[0])


def compute_thresholds(
    ppls: "list[float] | np.ndarray",
    agents: "list[str | None] | None" = None,
) -> ThresholdTable:
    """Fit (mean, population std, count) of training perplexities.

    The global fit uses all samples; given agents, one per perplexity, each
    agent's fit uses only that agent's samples, in corpus order, gathered in
    one pass over agents. A fit with fewer than 2 samples is omitted with a
    warning rather than made from a degenerate estimate.
    """
    ppls = np.asarray(ppls, dtype=np.float64)
    if agents is not None and len(agents) != len(ppls):
        raise DomainError("agents must give one agent per perplexity")
    indices: dict[str, list[int]] = {}
    for i, a in enumerate(agents or ()):
        if a is not None:
            indices.setdefault(a, []).append(i)
    table = ThresholdTable()
    for key in [None, *sorted(indices)]:
        values = ppls if key is None else ppls[indices[key]]
        if len(values) < 2:
            name = "global" if key is None else key
            warnings.warn(f"threshold entry {name!r} omitted: only {len(values)} sample(s)")
        else:  # population std, no Bessel correction
            table.fits[key] = (float(np.mean(values)), float(np.std(values)), len(values))
    return table


def classify(
    traj_id: str | None,
    ppl: float,
    table: ThresholdTable,
    scope: str = "global",
    agent: str | None = None,
    trace: SurprisalTrace | None = None,
) -> ScoreReport:
    """The report of ppl against table.threshold_for(scope, agent); its verdict
    is anomalous iff the perplexity strictly exceeds that threshold."""
    return ScoreReport(traj_id, ppl, table.threshold_for(scope, agent), agent=agent, surprisal=trace)


def first_copies(corpus: list[EncodedTrajectory]) -> list[int]:
    """For each trajectory, the index of its first copy in corpus: the first
    trajectory with the same head length and ids. A trajectory is its own first
    copy when no earlier one repeats it; agent and traj_id play no part."""
    first: dict[tuple, int] = {}
    return [first.setdefault((t.prefix_len, *t.ids), i) for i, t in enumerate(corpus)]


def score_corpus(model: Model, corpus: list[EncodedTrajectory], scope: str = "global",
                 table: ThresholdTable | None = None) -> tuple[list[ScoreReport], ThresholdTable]:
    """Score every trajectory from one surprisal trace each; returns (reports, table).

    Only first copies (first_copies) are computed: they are grouped by length
    and each group is scored in chunks of CHUNK_TOKENS // (length - 1) rows (at
    least one), one token_log_probs call per chunk. A repeat shares its first
    copy's trace and perplexity, and reports come back in corpus order, each
    with its own id and agent. check_lengths runs on the whole corpus before
    the first forward call. With table None, thresholds are fitted on one
    perplexity per trajectory, repeats included, with per-agent entries under
    scope 'per_agent' for the agents the corpus has. Every report carries its trace.
    """
    check_lengths(model, corpus)
    first = first_copies(corpus)
    by_length: dict[int, list[int]] = {}
    for i, t in enumerate(corpus):
        if first[i] == i:
            by_length.setdefault(len(t.ids), []).append(i)
    traces: dict[int, SurprisalTrace] = {}
    for length, members in by_length.items():
        rows = max(1, CHUNK_TOKENS // (length - 1))
        for start in range(0, len(members), rows):
            chunk = members[start:start + rows]
            log_probs = token_log_probs(model, [corpus[i].ids for i in chunk])
            for i, lp in zip(chunk, log_probs):
                traces[i] = SurprisalTrace(-lp)
    distinct_ppls = {i: trace.perplexity for i, trace in traces.items()}
    ppls = [distinct_ppls[f] for f in first]
    if table is None:
        table = compute_thresholds(ppls, [t.agent for t in corpus] if scope == "per_agent" else None)
    reports = [
        classify(t.traj_id, ppl, table, scope=scope, agent=t.agent, trace=traces[f])
        for t, ppl, f in zip(corpus, ppls, first)
    ]
    return reports, table
