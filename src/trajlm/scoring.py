"""Anomaly scores from model probabilities.

A trajectory of ids [h, x1, ..., xn] is scored on every transition after the
head: entry i of the log-prob vector is log P(ids[i+1] | ids[0..i]). The head
token (agent id or SOT) only conditions and is never itself a prediction
target. Perplexity is exp of the mean surprisal over those scored positions,
so a perfectly predicted trajectory scores exactly 1.

`score_corpus` is the one batch entry point: one surprisal trace per trajectory
gives its perplexity, threshold fit, verdict and localization. `perplexity` and
`score_corpus` share one formula, `SurprisalTrace.perplexity`, so they agree bit for bit.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .model import Model, forward, log_softmax
from .vocab import EncodedTrajectory


@dataclass
class SurprisalTrace:
    """Per-position surprisal in nats, aligned to the tokens it scores.

    values[i] is the surprisal of the token at sequence position
    target_positions[i] (an index into the trajectory's ids).
    """

    values: np.ndarray
    target_positions: list[int]

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


def token_log_probs(model: Model, traj: EncodedTrajectory) -> np.ndarray:
    """log P(ids[i+1] | ids[..i]) for every scored transition, in nats (all <= 0)."""
    ids = np.asarray(traj.ids, dtype=np.int64)
    if len(ids) < 2:
        raise DomainError("trajectory has no scored transitions")
    logits = forward(model, ids[:-1])
    logp = log_softmax(logits)
    return logp[np.arange(len(ids) - 1), ids[1:]]


def surprisal(model: Model, traj: EncodedTrajectory) -> SurprisalTrace:
    """Negated log-probabilities with the sequence position of each scored token."""
    lp = token_log_probs(model, traj)
    return SurprisalTrace(values=-lp, target_positions=list(range(1, len(traj.ids))))


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

    With table None, thresholds are fitted on these same perplexities, with
    per-agent entries under scope 'per_agent' for the agents the corpus has.
    Every report carries its trace.
    """
    traces = [surprisal(model, t) for t in corpus]
    ppls = [trace.perplexity for trace in traces]
    if table is None:
        table = compute_thresholds(ppls, [t.agent for t in corpus], group_by_agent=scope == "per_agent")
    reports = [
        classify(t.traj_id, ppl, table, scope=scope, agent=t.agent, trace=trace)
        for t, ppl, trace in zip(corpus, ppls, traces)
    ]
    return reports, table
