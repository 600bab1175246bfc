"""Anomaly scores from model probabilities.

A trajectory of ids [h, x1, ..., xn] is scored on every transition after the
head: entry i of the log-prob vector is log P(ids[i+1] | ids[0..i]). The head
token (agent id or SOT) only conditions and is never itself a prediction
target. Perplexity is exp of the mean surprisal over those scored positions,
so a perfectly predicted trajectory scores exactly 1.

`token_log_probs` is the one scoring kernel: one forward call over a batch of
equal-length id rows. `score_corpus` is the batch entry point. It groups the
corpus by length and makes one forward call per exact-length chunk of at most
CHUNK_TOKENS positions; `surprisal` and `perplexity` call the same kernel with
one row. No row is padded, so a trajectory's trace is the same bits in any chunk,
and `perplexity` and `score_corpus` agree bit for bit through the one formula,
`SurprisalTrace.perplexity`. One trace per trajectory gives its perplexity,
threshold fit, verdict and localization.
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
    verdict: str
    agent: str | None = None
    surprisal: SurprisalTrace | None = None


@dataclass
class ThresholdTable:
    """mean + population-std cutoffs fitted on training perplexities.

    provenance holds each fit's (mean, std, count): keyed by agent for the
    per-agent entries and by None for the global one, which no agent name equals.
    """

    global_threshold: float | None
    per_agent: dict[str, float] = field(default_factory=dict)
    provenance: dict[str | None, tuple[float, float, int]] = field(default_factory=dict)

    def threshold_for(self, scope: str, agent: str | None = None) -> float:
        if scope == "global":
            if self.global_threshold is None:
                raise DomainError("no global threshold available (fewer than 2 training samples)")
            return self.global_threshold
        if scope == "per_agent":
            if agent is None:
                raise DomainError("per_agent scope requires an agent")
            if agent not in self.per_agent:
                raise DomainError(
                    f"agent {agent!r} has no per-agent threshold; score with scope='global' instead"
                )
            return self.per_agent[agent]
        raise DomainError(f"scope must be 'global' or 'per_agent', got {scope!r}")


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


def perplexity(model: Model, traj: EncodedTrajectory) -> float:
    """exp(mean surprisal) over the trajectory's scored transitions."""
    return surprisal(model, traj).perplexity


def compute_thresholds(
    ppls: "list[float] | np.ndarray",
    agents: "list[str | None] | None" = None,
    group_by_agent: bool = False,
) -> ThresholdTable:
    """Fit mean + population-std thresholds from training perplexities.

    The global entry uses all samples; with group_by_agent, each agent's entry
    uses only that agent's samples. Entries with fewer than 2 samples are
    omitted with a warning rather than fit from a degenerate estimate.
    """
    ppls = np.asarray(ppls, dtype=np.float64)
    if group_by_agent and (agents is None or len(agents) != len(ppls)):
        raise DomainError("group_by_agent requires one agent per perplexity")

    def fit(values: np.ndarray, name: str) -> tuple[float, tuple[float, float, int]] | None:
        if len(values) < 2:
            warnings.warn(f"threshold entry {name!r} omitted: only {len(values)} sample(s)")
            return None
        mean = float(np.mean(values))
        std = float(np.std(values))  # population std, no Bessel correction
        return mean + std, (mean, std, len(values))

    table = ThresholdTable(global_threshold=None)
    fitted = fit(ppls, "global")
    if fitted is not None:
        table.global_threshold, table.provenance[None] = fitted
    if group_by_agent:
        for agent in sorted({a for a in agents if a is not None}):
            vals = ppls[[i for i, a in enumerate(agents) if a == agent]]
            fitted = fit(vals, agent)
            if fitted is not None:
                table.per_agent[agent], table.provenance[agent] = fitted
    return table


def classify(
    traj_id: str | None,
    ppl: float,
    table: ThresholdTable,
    scope: str = "global",
    agent: str | None = None,
    trace: SurprisalTrace | None = None,
) -> ScoreReport:
    """Verdict is anomalous iff perplexity strictly exceeds the selected threshold."""
    threshold = table.threshold_for(scope, agent)
    verdict = "anomalous" if ppl > threshold else "normal"
    return ScoreReport(
        traj_id=traj_id,
        perplexity=ppl,
        threshold=threshold,
        verdict=verdict,
        agent=agent,
        surprisal=trace,
    )


def score_corpus(model: Model, corpus: list[EncodedTrajectory], scope: str = "global",
                 table: ThresholdTable | None = None) -> tuple[list[ScoreReport], ThresholdTable]:
    """Score every trajectory from one surprisal trace each; returns (reports, table).

    Trajectories are grouped by length and each group is scored in chunks of
    CHUNK_TOKENS // (length - 1) rows (at least one), one token_log_probs call
    per chunk; reports come back in corpus order. check_lengths runs on the
    whole corpus before the first forward call. With table None, thresholds
    are fitted on these same perplexities, with per-agent entries under scope
    'per_agent' for the agents the corpus has. Every report carries its trace.
    """
    check_lengths(model, corpus)
    by_length: dict[int, list[int]] = {}
    for i, t in enumerate(corpus):
        by_length.setdefault(len(t.ids), []).append(i)
    traces: list[SurprisalTrace | None] = [None] * len(corpus)
    for length, members in by_length.items():
        rows = max(1, CHUNK_TOKENS // (length - 1))
        for start in range(0, len(members), rows):
            chunk = members[start:start + rows]
            log_probs = token_log_probs(model, [corpus[i].ids for i in chunk])
            for i, lp in zip(chunk, log_probs):
                traces[i] = SurprisalTrace(-lp)
    ppls = [trace.perplexity for trace in traces]
    if table is None:
        table = compute_thresholds(ppls, [t.agent for t in corpus], group_by_agent=scope == "per_agent")
    reports = [
        classify(t.traj_id, ppl, table, scope=scope, agent=t.agent, trace=trace)
        for t, ppl, trace in zip(corpus, ppls, traces)
    ]
    return reports, table
