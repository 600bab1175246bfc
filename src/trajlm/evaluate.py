"""Detection metrics: global and per-agent F1 and PR-AUC, and the completion-ratio protocol.

PR-AUC is computed as average precision (the step-wise sum over the
descending-score sweep), never by trapezoidal interpolation, with the
anomalous class as positive. F1 always scores the fixed mean+std threshold
verdicts rather than the best threshold in hindsight. The completion-ratio
protocol scores ratio 1.0 as batch scoring does and reads every partial cut of
the corpus from sessions pushed in lockstep, a window of trajectories at a
time, so each depth's rows run in one forward call. The location-configuration
ablation is `trajlm report --kind ablation`'s own loop over per_agent_eval.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError
from .model import Model, check_lengths
from .online import open_session
from .scoring import ScoreReport, ThresholdTable, classify, first_copies, score_corpus
from .vocab import EncodedTrajectory


@dataclass
class EvalReport:
    f1: float
    pr_auc: float
    tp: int
    fp: int
    fn: int
    tn: int


def _as_binary(values: Sequence, what: str) -> np.ndarray:
    arr = np.asarray(values)
    if arr.dtype.kind in "UO":  # allow "anomalous"/"normal" strings
        arr = np.asarray([v == "anomalous" for v in values])
    arr = arr.astype(np.int64)
    if not np.isin(arr, (0, 1)).all():
        raise DomainError(f"{what} must be binary")
    return arr


def confusion_counts(labels: Sequence, verdicts: Sequence) -> tuple[int, int, int, int]:
    y = _as_binary(labels, "labels")
    v = _as_binary(verdicts, "verdicts")
    if len(y) != len(v):
        raise DomainError(f"length mismatch: {len(y)} labels vs {len(v)} verdicts")
    tp = int(np.sum((y == 1) & (v == 1)))
    fp = int(np.sum((y == 0) & (v == 1)))
    fn = int(np.sum((y == 1) & (v == 0)))
    tn = int(np.sum((y == 0) & (v == 0)))
    return tp, fp, fn, tn


def f1(labels: Sequence, verdicts: Sequence) -> float:
    """2PR/(P+R) with anomalous as the positive class; 0 when degenerate."""
    tp, fp, fn, _ = confusion_counts(labels, verdicts)
    denom = 2 * tp + fp + fn
    return 2 * tp / denom if denom else 0.0


def pr_auc(labels: Sequence, scores: Sequence) -> float:
    """Average precision: sum of (R_k - R_{k-1}) * P_k over the descending sweep.

    Step k is the k-th distinct score tau from the highest down; everything
    scoring >= tau is predicted anomalous, so tied scores enter together. The
    terms are added left to right.
    """
    y = _as_binary(labels, "labels")
    s = np.asarray(scores, dtype=np.float64)
    if len(y) != len(s):
        raise DomainError(f"length mismatch: {len(y)} labels vs {len(s)} scores")
    n_pos = int(y.sum())
    if n_pos == 0:
        raise DomainError("precision-recall needs at least one positive label")
    order = np.argsort(-s, kind="stable")
    s_sorted = s[order]
    ends = np.flatnonzero(np.append(s_sorted[:-1] != s_sorted[1:], True))  # last index of each tie group
    tp = np.cumsum(y[order])[ends]
    precision = tp / (ends + 1)
    recall = tp / n_pos
    return float(np.cumsum(np.diff(recall, prepend=0.0) * precision)[-1])


def per_agent_eval(
    reports: list[ScoreReport], truth: dict[str, str]
) -> dict[str, EvalReport]:
    """Metrics within each agent's trajectory set only.

    Verdicts carry each agent's own threshold; perplexities are the PR-AUC
    scores. Agents whose trajectories contain no true anomaly are left out of
    the table, since anomaly detection is undefined for them.
    """
    by_agent: dict[str, list[ScoreReport]] = {}
    for r in reports:
        if r.agent is None:
            raise DomainError(f"report {r.traj_id!r} has no agent; per-agent evaluation impossible")
        if r.traj_id not in truth:
            raise DomainError(f"trajectory {r.traj_id!r} missing from ground truth")
        by_agent.setdefault(r.agent, []).append(r)
    return {
        agent: global_eval(rs, truth)
        for agent, rs in sorted(by_agent.items())
        if any(truth[r.traj_id] == "anomalous" for r in rs)
    }


def global_eval(reports: list[ScoreReport], truth: dict[str, str]) -> EvalReport:
    """Metrics over the whole report set, anomalous as positive."""
    for r in reports:
        if r.traj_id not in truth:
            raise DomainError(f"trajectory {r.traj_id!r} missing from ground truth")
    labels = [truth[r.traj_id] for r in reports]
    verdicts = [r.verdict for r in reports]
    scores = [r.perplexity for r in reports]
    tp, fp, fn, tn = confusion_counts(labels, verdicts)
    return EvalReport(
        f1=f1(labels, verdicts),
        pr_auc=pr_auc(labels, scores),
        tp=tp, fp=fp, fn=fn, tn=tn,
    )


# Trajectories whose sessions prefix_perplexity pushes together. A wider window
# makes fewer, larger forward calls but holds a cache slot per session: on the
# porto preset the report's peak RSS stayed at that of one session at a time
# with 16, and rose by about 9 MB with 64.
_WINDOW = 16


def prefix_perplexity(
    model: Model, corpus: list[EncodedTrajectory], ratios: Sequence[float]
) -> list[list[float]]:
    """Perplexity of each trajectory's first ceil(ratio * n_locations) locations,
    as one list per ratio in corpus order.

    The conditioning prefix is always kept, and the perplexity is a session's
    opened on ids[:1] and pushed the rest of the cut. A repeated trajectory
    takes its first copy's values (scoring.first_copies). The distinct ones
    are taken _WINDOW at a time, one session each, and the sessions move in
    lockstep: at each depth every live session is pushed its next id, so the
    model's session pool runs the depth's rows in one forward_batch call. A
    perplexity is read where its cut ends, and a session leaves once its
    longest cut is read. The distinct trajectories are taken in order of their
    longest cut, longest first and ties by index, so a window's sessions leave
    close together and its depths keep most of their rows. A pooled row is
    bit-identical to a lone session's, so every value equals that of a fresh
    session pushed its cut, bit for bit, in any order.
    """
    for ratio in ratios:
        if not 0.0 < ratio <= 1.0:
            raise DomainError(f"ratio must be in (0, 1], got {ratio}")
    reads: list[dict[int, list[int]]] = []  # per trajectory, the ratio indices read at each cut length
    for traj in corpus:
        n_loc = len(traj.ids) - traj.prefix_len
        reads.append({})
        for j, ratio in enumerate(ratios):
            reads[-1].setdefault(traj.prefix_len + math.ceil(ratio * n_loc), []).append(j)
    first = first_copies(corpus)
    distinct = sorted((i for i, f in enumerate(first) if f == i and reads[i]), key=lambda i: (-max(reads[i]), i))
    out = [[math.nan] * len(corpus) for _ in ratios]
    for start in range(0, len(distinct), _WINDOW):
        live = [(i, open_session(model, corpus[i].ids[:1])) for i in distinct[start:start + _WINDOW]]
        depth = 1
        while live:
            depth += 1
            for i, session in live:
                session.push(corpus[i].ids[depth - 1])
                for j in reads[i].get(depth, ()):
                    out[j][i] = session.running_perplexity
            live = [(i, session) for i, session in live if depth < max(reads[i])]
    return [[values[f] for f in first] for values in out]


def completion_ratio_eval(
    model: Model,
    corpus: list[EncodedTrajectory],
    truth: dict[str, str],
    ratios: Sequence[float],
    table: ThresholdTable,
) -> dict[float, tuple[float, float]]:
    """(F1, PR-AUC) per completion ratio, scoring only each trajectory's prefix
    against the global threshold.

    Ratio 1.0 is one score_corpus call, the same chunks `trajlm score` makes on
    this corpus, so it equals batch scoring bit for bit; every partial ratio
    comes from one prefix_perplexity call. check_lengths runs first, so an
    over-long trajectory is named before any session fills up.
    """
    check_lengths(model, corpus)
    partial = [ratio for ratio in ratios if ratio != 1.0]
    ppls = dict(zip(partial, prefix_perplexity(model, corpus, partial)))
    out: dict[float, tuple[float, float]] = {}
    for ratio in ratios:
        if ratio == 1.0:
            reports, _ = score_corpus(model, corpus, table=table)
        else:
            reports = [
                classify(traj.traj_id, ppl, table, agent=traj.agent)
                for traj, ppl in zip(corpus, ppls[ratio])
            ]
        rep = global_eval(reports, truth)
        out[float(ratio)] = (rep.f1, rep.pr_auc)
    return out
