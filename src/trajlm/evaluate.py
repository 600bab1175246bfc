"""Detection metrics: global and per-agent F1 and PR-AUC, and the completion-ratio protocol.

PR-AUC is computed as average precision (the step-wise sum over the
descending-score sweep), never by trapezoidal interpolation, with the
anomalous class as positive. F1 always scores the fixed mean+std threshold
verdicts rather than the best threshold in hindsight. The completion-ratio
protocol scores ratio 1.0 as batch scoring does and reads every partial cut of
the corpus from one walk of its prefix tree, in sessions that fork where
prefixes part, so each distinct prefix is pushed once. The location-configuration
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
from .scoring import ScoreReport, ThresholdTable, classify, score_corpus
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


def prefix_perplexity(
    model: Model, corpus: list[EncodedTrajectory], ratios: Sequence[float]
) -> list[list[float]]:
    """Perplexity of each trajectory's first ceil(ratio * n_locations) locations,
    as one list per ratio in corpus order.

    The conditioning prefix is always kept, and the perplexity is a session's
    opened on ids[:1] and pushed the rest of the cut. The cuts share their
    work: the corpus's prefixes up to each trajectory's longest cut form a
    tree, one root per first id, which one depth-first walk with an explicit
    stack visits once. Each root opens a session and each edge is one push, so
    every distinct prefix is pushed once. At a node with two or more children
    every child but the last takes a fork of the node's session, and the last
    continues it. A perplexity is read at the node where its cut ends, so it
    equals that of a fresh session pushed the cut, bit for bit.
    """
    for ratio in ratios:
        if not 0.0 < ratio <= 1.0:
            raise DomainError(f"ratio must be in (0, 1], got {ratio}")
    # node = (children by token id, the (ratio index, trajectory index) pairs read there);
    # the children of tree are the roots, one per first id
    tree: tuple[dict, list] = ({}, [])
    for i, traj in enumerate(corpus):
        n_loc = len(traj.ids) - traj.prefix_len
        reads: dict[int, list[int]] = {}
        for j, ratio in enumerate(ratios):
            reads.setdefault(traj.prefix_len + math.ceil(ratio * n_loc), []).append(j)
        node = tree
        for depth in range(1, max(reads, default=0) + 1):
            node = node[0].setdefault(traj.ids[depth - 1], ({}, []))
            node[1].extend((j, i) for j in reads.get(depth, ()))
    out = [[math.nan] * len(corpus) for _ in ratios]
    stack: list[tuple] = []  # (token id, node, the parent's session, whether to fork it)

    def expand(node, session) -> None:
        """Stack the children of node, the last bottom-most, so it takes session after the forks."""
        children = reversed(node[0].items())
        stack.extend((tok, child, session, k > 0) for k, (tok, child) in enumerate(children))

    for head, root in tree[0].items():
        expand(root, open_session(model, [head]))
        while stack:
            token_id, node, session, fork = stack.pop()
            if fork:
                session = session.fork()
            session.push(token_id)
            for j, i in node[1]:
                out[j][i] = session.running_perplexity
            expand(node, session)
    return out


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
