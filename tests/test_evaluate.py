import math
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trajlm import evaluate, online
from trajlm.errors import DomainError
from trajlm.evaluate import (
    _as_binary,
    completion_ratio_eval,
    f1,
    global_eval,
    per_agent_eval,
    pr_auc,
    prefix_perplexity,
)
from trajlm.model import ModelConfig, init_model
from trajlm.online import open_session
from trajlm.scoring import ScoreReport, classify, compute_thresholds, surprisal
from trajlm.vocab import EncodedTrajectory


def brute_force_pr(labels, scores):
    """Exhaustive threshold enumeration oracle for the descending sweep."""
    n_pos = sum(labels)
    points = []
    for tau in sorted(set(scores), reverse=True):
        preds = [s >= tau for s in scores]
        tp = sum(1 for p, l in zip(preds, labels) if p and l)
        pp = sum(preds)
        points.append((tau, tp / pp, tp / n_pos))
    ap = 0.0
    prev_r = 0.0
    for _tau, p, r in points:
        ap += (r - prev_r) * p
        prev_r = r
    return points, ap


# The PR-curve implementation pr_auc replaced, kept verbatim as a bit-for-bit reference.

@dataclass(frozen=True)
class PRPoint:
    threshold: float
    precision: float
    recall: float


def pr_curve(labels: Sequence, scores: Sequence) -> list[PRPoint]:
    """One point per distinct score, swept from the highest score down.

    At each threshold tau, everything scoring >= tau is predicted anomalous;
    tied scores enter together. Points come out ordered by increasing recall.
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
    y_sorted = y[order]
    tp_cum = np.cumsum(y_sorted)
    pred_cum = np.arange(1, len(s) + 1)
    last_of_group = np.ones(len(s), dtype=bool)
    last_of_group[:-1] = s_sorted[:-1] != s_sorted[1:]
    points = [
        PRPoint(
            threshold=float(s_sorted[i]),
            precision=float(tp_cum[i] / pred_cum[i]),
            recall=float(tp_cum[i] / n_pos),
        )
        for i in np.flatnonzero(last_of_group)
    ]
    return points


def reference_pr_auc(labels: Sequence, scores: Sequence) -> float:
    """Average precision: sum of (R_k - R_{k-1}) * P_k over the descending sweep."""
    points = pr_curve(labels, scores)
    auc = 0.0
    prev_recall = 0.0
    for pt in points:
        auc += (pt.recall - prev_recall) * pt.precision
        prev_recall = pt.recall
    return auc


# --- F1 ----------------------------------------------------------------------

def test_f1_perfect():
    assert f1([1, 0, 1], [1, 0, 1]) == 1.0


def test_f1_no_predicted_positives():
    assert f1([1, 1, 0], [0, 0, 0]) == 0.0


def test_f1_closed_form():
    labels = [1, 1, 1, 0, 0]
    verdicts = [1, 1, 0, 1, 0]  # TP=2 FP=1 FN=1
    assert math.isclose(f1(labels, verdicts), 2 / 3, rel_tol=1e-12)


def test_f1_accepts_string_labels():
    assert f1(["anomalous", "normal"], ["anomalous", "normal"]) == 1.0


def test_f1_length_mismatch():
    with pytest.raises(DomainError):
        f1([1, 0], [1])


# --- PR-AUC --------------------------------------------------------------------

def test_pr_auc_hand_case_frozen():
    labels, scores = [1, 0, 1, 0], [0.9, 0.8, 0.7, 0.1]
    # steps (tau, P, R): (0.9, 1, 1/2), (0.8, 1/2, 1/2), (0.7, 2/3, 1), (0.1, 1/2, 1)
    assert math.isclose(pr_auc(labels, scores), 1 / 2 * 1 + 1 / 2 * (2 / 3), rel_tol=1e-12)
    assert math.isclose(pr_auc(labels, scores), 5 / 6, rel_tol=1e-12)
    _, oracle_ap = brute_force_pr(labels, scores)
    assert math.isclose(pr_auc(labels, scores), oracle_ap, rel_tol=1e-12)


def test_pr_auc_equals_the_pr_curve_reference_bit_for_bit():
    rng = np.random.default_rng(2024)
    for _ in range(3000):
        n = int(rng.integers(1, 120))
        labels = rng.integers(0, 2, size=n)
        labels[int(rng.integers(0, n))] = 1
        # k distinct values for n scores: small k gives long runs of tied scores
        scores = rng.choice(rng.normal(size=int(rng.integers(1, n + 1))), size=n)
        assert pr_auc(labels.tolist(), scores.tolist()) == reference_pr_auc(labels.tolist(), scores.tolist())


def test_pr_auc_inverted_two_sample():
    assert math.isclose(pr_auc([1, 0], [0.1, 0.9]), 0.5, rel_tol=1e-12)


def test_pr_perfect_separation():
    labels = [1, 1, 0, 0]
    scores = [4.0, 3.0, 2.0, 1.0]
    assert pr_auc(labels, scores) == 1.0


def test_pr_all_scores_equal_single_point():
    # one tie group: a single step to recall 1 at precision 0.5, the prevalence
    assert pr_auc([1, 0, 0, 1], [2.0, 2.0, 2.0, 2.0]) == 0.5


def test_pr_needs_a_positive():
    with pytest.raises(DomainError):
        pr_auc([0, 0], [1.0, 2.0])


def test_pr_auc_matches_brute_force_random_instances():
    rng = np.random.default_rng(42)
    for _ in range(200):
        n = int(rng.integers(2, 13))
        labels = rng.integers(0, 2, size=n).tolist()
        if sum(labels) == 0:
            labels[int(rng.integers(0, n))] = 1
        scores = rng.choice([0.1, 0.25, 0.5, 0.75, 1.0], size=n).tolist()
        _, oracle = brute_force_pr(labels, scores)
        assert math.isclose(pr_auc(labels, scores), oracle, rel_tol=1e-12, abs_tol=1e-12)


@given(st.lists(st.tuples(st.integers(0, 1), st.floats(-5, 5, allow_nan=False)), min_size=2, max_size=20),
       st.integers(0, 2**32 - 1))
@settings(max_examples=60)
def test_metrics_invariant_under_permutation(pairs, shuffle_seed):
    labels = [l for l, _ in pairs]
    scores = [s for _, s in pairs]
    if sum(labels) == 0:
        labels[0] = 1
    order = np.random.default_rng(shuffle_seed).permutation(len(pairs))
    plabels = [labels[i] for i in order]
    pscores = [scores[i] for i in order]
    assert math.isclose(pr_auc(labels, scores), pr_auc(plabels, pscores), rel_tol=1e-12)
    assert f1(labels, [s > 0 for s in scores]) == f1(plabels, [s > 0 for s in pscores])


def test_pr_auc_invariant_under_monotone_transform():
    rng = np.random.default_rng(1)
    labels = [1, 0, 1, 0, 0, 1]
    scores = rng.normal(size=6).tolist()
    base = pr_auc(labels, scores)
    assert math.isclose(pr_auc(labels, [math.exp(s) for s in scores]), base, rel_tol=1e-12)
    assert math.isclose(pr_auc(labels, [3 * s + 7 for s in scores]), base, rel_tol=1e-12)


# --- per-agent evaluation -------------------------------------------------------

def report(tid, agent, ppl, threshold):
    return ScoreReport(traj_id=tid, agent=agent, perplexity=ppl, threshold=threshold)


def test_per_agent_eval_excludes_agents_without_anomalies():
    reports = [report("a1", "a", 5.0, 2.0), report("b1", "b", 1.0, 2.0)]
    truth = {"a1": "anomalous", "b1": "normal"}
    out = per_agent_eval(reports, truth)
    assert set(out) == {"a"}


def test_per_agent_eval_perfect_agent():
    reports = [report("a1", "a", 5.0, 2.0), report("a2", "a", 1.0, 2.0)]
    truth = {"a1": "anomalous", "a2": "normal"}
    out = per_agent_eval(reports, truth)
    assert out["a"].f1 == 1.0 and out["a"].pr_auc == 1.0
    assert (out["a"].tp, out["a"].fp, out["a"].fn, out["a"].tn) == (1, 0, 0, 1)


def test_per_agent_eval_isolates_agent_context():
    # identical perplexities, different ground truth per agent
    reports = [
        report("a1", "a", 5.0, 2.0), report("a2", "a", 1.0, 2.0),
        report("b1", "b", 5.0, 2.0), report("b2", "b", 1.0, 2.0),
    ]
    truth = {"a1": "anomalous", "a2": "normal", "b1": "normal", "b2": "anomalous"}
    out = per_agent_eval(reports, truth)
    assert out["a"].f1 == 1.0
    assert out["b"].f1 == 0.0
    assert out["a"].pr_auc != out["b"].pr_auc


def test_per_agent_eval_requires_agents_and_truth():
    with pytest.raises(DomainError):
        per_agent_eval([report("x", None, 1.0, 2.0)], {"x": "normal"})
    with pytest.raises(DomainError):
        per_agent_eval([report("x", "a", 1.0, 2.0)], {})


# --- completion-ratio protocol ---------------------------------------------------

@pytest.fixture(scope="module")
def ratio_setup():
    cfg = ModelConfig(vocab_size=20, d_model=16, n_heads=2, n_layers=2, d_ff=32, max_seq_len=24, seed=3)
    model = init_model(cfg)
    rng = np.random.default_rng(7)
    corpus = []
    truth = {}
    for i in range(12):
        n = int(rng.integers(6, 16))
        ids = [1] + [int(x) for x in rng.integers(3, 20, size=n)] + [2]
        corpus.append(EncodedTrajectory(ids=ids, prefix_len=1, traj_id=f"t{i}"))
        truth[f"t{i}"] = "anomalous" if i % 4 == 0 else "normal"
    table = compute_thresholds([surprisal(model, t).perplexity for t in corpus])
    return model, corpus, truth, table


def test_completion_ratio_one_reproduces_batch_bit_for_bit(ratio_setup):
    model, corpus, truth, table = ratio_setup
    result = completion_ratio_eval(model, corpus, truth, [1.0], table)
    labels = [truth[t.traj_id] for t in corpus]
    ppls = [surprisal(model, t).perplexity for t in corpus]
    verdicts = [classify(t.traj_id, p, table).verdict for t, p in zip(corpus, ppls)]
    assert result[1.0] == (f1(labels, verdicts), pr_auc(labels, ppls))
    [session_ppls] = prefix_perplexity(model, corpus, [1.0])  # the session path, to 1e-9
    for ppl, batch in zip(session_ppls, ppls):
        assert abs(ppl - batch) <= 1e-9 * batch


def test_completion_ratio_table_shape(ratio_setup):
    model, corpus, truth, table = ratio_setup
    ratios = [0.2, 0.5, 0.8, 1.0]
    result = completion_ratio_eval(model, corpus, truth, ratios, table)
    assert sorted(result) == ratios


def test_prefix_perplexity_uses_ceil(ratio_setup):
    model, corpus, _, _ = ratio_setup
    t = corpus[0]
    n_loc = len(t.ids) - t.prefix_len
    # smallest ratio still scores ceil(r * n_loc) >= 1 location
    [[ppl]] = prefix_perplexity(model, [t], [0.01])
    sub = EncodedTrajectory(ids=t.ids[: t.prefix_len + 1], prefix_len=t.prefix_len)
    assert abs(ppl - surprisal(model, sub).perplexity) / ppl < 1e-9
    with pytest.raises(DomainError):
        prefix_perplexity(model, [t], [0.0])


def fresh_prefix_perplexity(model, traj, ratio):
    """One fresh session per trajectory and ratio, opened on ids[:1] and pushed the cut."""
    cut = traj.prefix_len + math.ceil(ratio * (len(traj.ids) - traj.prefix_len))
    session = open_session(model, traj.ids[:1])
    for token_id in traj.ids[1:cut]:
        session.push(token_id)
    return session.running_perplexity


def test_prefix_perplexity_equals_a_fresh_session_per_cut_bit_for_bit(monkeypatch):
    """Routes that share prefixes, repeated routes, two heads (SOT, and an agent and
    weekday pair) and one-location cuts, in windows of 3 trajectories: every cut's
    perplexity is a fresh session's, bit for bit. Each distinct trajectory opens one
    session, longest cut first and ties in corpus order, and each window makes one
    forward_batch call per depth of its longest cut, computing each row a read
    needs once."""
    cfg = ModelConfig(vocab_size=12, d_model=16, n_heads=2, n_layers=2, d_ff=32, max_seq_len=24, seed=3)
    model = init_model(cfg)
    rng = np.random.default_rng(0)
    corpus = [EncodedTrajectory(ids=[1, 2], prefix_len=1, traj_id="only-eot")]
    for i in range(40):
        head = [1] if i % 2 else [9, 10]
        body = [int(x) for x in rng.integers(3, 6, size=int(rng.integers(1, 18)))]
        corpus.append(EncodedTrajectory(ids=head + body + [2], prefix_len=len(head), traj_id=f"t{i}"))
    corpus += corpus[1:6]  # repeated trajectories
    ratios = [0.01, 0.3, 0.5, 0.8, 1.0]
    opened, rows = [], []
    real_open, real_forward = open_session, online.forward_batch

    def counted_open(*args):
        opened.append(args[1])
        return real_open(*args)

    def counted_forward(model, ids, **kwargs):
        rows.append(len(ids))
        return real_forward(model, ids, **kwargs)

    window = 3
    monkeypatch.setattr(evaluate, "_WINDOW", window)
    monkeypatch.setattr(evaluate, "open_session", counted_open)
    monkeypatch.setattr(online, "forward_batch", counted_forward)
    got = prefix_perplexity(model, corpus, ratios)
    monkeypatch.undo()
    assert got == [[fresh_prefix_perplexity(model, t, r) for t in corpus] for r in ratios]
    distinct = []  # the first copy of each trajectory, by head and ids
    for t in corpus:
        if all((t.prefix_len, t.ids) != (u.prefix_len, u.ids) for u in distinct):
            distinct.append(t)
    assert len(distinct) < len(corpus)
    pushes = [t.prefix_len + math.ceil(max(ratios) * (len(t.ids) - t.prefix_len)) - 1 for t in distinct]
    order = sorted(range(len(distinct)), key=lambda k: -pushes[k])  # a stable sort: ties in corpus order
    assert opened == [distinct[k].ids[:1] for k in order]
    assert len(rows) == sum(pushes[k] for k in order[::window])  # each window's longest session
    assert sum(rows) == sum(pushes)  # the open's row and every push's but the last


def test_prefix_perplexity_takes_a_path_longer_than_the_recursion_limit():
    """Two routes of max_seq_len + 1 ids, more than Python's recursion limit, that
    part deep in the path: every cut scores as a fresh session's, bit for bit."""
    cfg = ModelConfig(vocab_size=6, d_model=4, n_heads=1, n_layers=1, d_ff=4, max_seq_len=1100, seed=1)
    model = init_model(cfg)
    shared = [1] + [3 + i % 3 for i in range(1050)]
    corpus = [EncodedTrajectory(ids=shared + [3] * 49 + [2], prefix_len=1, traj_id="a"),
              EncodedTrajectory(ids=shared + [4] * 49 + [2], prefix_len=1, traj_id="b")]
    assert len(corpus[0].ids) == cfg.max_seq_len + 1 > sys.getrecursionlimit()
    ratios = [0.5, 1.0]
    got = prefix_perplexity(model, corpus, ratios)
    assert got == [[fresh_prefix_perplexity(model, t, r) for t in corpus] for r in ratios]


@st.composite
def _prefix_cases(draw):
    """A tiny model and a corpus of up to 12 routes, drawn from up to 3 stems so that
    routes share prefixes, some of them repeated, with heads of 1 and 2 ids and up to
    max_seq_len + 1 ids."""
    n_heads = draw(st.sampled_from([1, 2]))
    cfg = ModelConfig(vocab_size=draw(st.integers(4, 10)), d_model=n_heads * draw(st.integers(2, 8 // n_heads)),
                      n_heads=n_heads, n_layers=draw(st.integers(1, 2)), d_ff=draw(st.integers(4, 16)),
                      max_seq_len=draw(st.integers(4, 20)), seed=draw(st.integers(0, 2**16)))
    token = st.integers(1, cfg.vocab_size - 1)  # any id but PAD
    stems = draw(st.lists(st.lists(token, min_size=2, max_size=cfg.max_seq_len + 1), min_size=1, max_size=3))
    corpus = []
    for i in range(draw(st.integers(1, 9))):
        stem = draw(st.sampled_from(stems))
        ids = (stem[:draw(st.integers(2, len(stem)))] + draw(st.lists(token, max_size=4)))[:cfg.max_seq_len + 1]
        head = draw(st.integers(1, min(2, len(ids) - 1)))
        corpus.append(EncodedTrajectory(ids=ids, prefix_len=head, traj_id=f"t{i}"))
    corpus += draw(st.lists(st.sampled_from(corpus), max_size=3))
    ratios = draw(st.lists(st.one_of(st.just(1.0), st.floats(0.0, 1.0, exclude_min=True)),
                           min_size=1, max_size=4, unique=True))
    return init_model(cfg), corpus, ratios


@settings(max_examples=100, deadline=None, derandomize=True)
@given(case=_prefix_cases(), window=st.integers(1, 4))
def test_prefix_perplexity_equals_fresh_sessions_on_drawn_corpora_bit_for_bit(case, window):
    model, corpus, ratios = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(evaluate, "_WINDOW", window)
        got = prefix_perplexity(model, corpus, ratios)
    assert got == [[fresh_prefix_perplexity(model, t, r) for t in corpus] for r in ratios]


# --- ablation -----------------------------------------------------------------------

ABLATION_TINY = """\
[run]
seed = 3

[world]
n_agents = 4
n_days = 8
n_anomalous_agents = 1
anomalous_days = 2
alt_prob = 0.35
configurations = staypoint

[model]
d_model = 16
n_heads = 2
n_layers = 1
d_ff = 32
max_seq_len = 16

[train]
epochs = 2
batch_size = 16
learning_rate = 0.003
"""


def test_ablation_identical_corpora_identical_metrics():
    """report --kind ablation trains, scores and evaluates each configuration's
    corpus the same way, so two configurations with identical corpora get
    identical per-agent tables: a difference between configurations comes from
    the tokenization alone."""
    from trajlm.cli import RunConfig, _train_score_eval, pol_corpora

    cfg = RunConfig(ABLATION_TINY)
    corpora, truth = pol_corpora(cfg, ["staypoint", "gps"])
    labels = {t.traj_id: t.label for t in truth["truth.csv"]}
    records = corpora["corpus_staypoint.jsonl"]
    x = _train_score_eval(cfg, records, labels)
    y = _train_score_eval(cfg, list(records), labels)
    assert x and x == y
    assert _train_score_eval(cfg, corpora["corpus_gps.jsonl"], labels).keys() == x.keys()


def test_global_eval_counts():
    reports = [report("a", None, 5.0, 2.0), report("b", None, 1.0, 2.0)]
    rep = global_eval(reports, {"a": "anomalous", "b": "normal"})
    assert rep.f1 == 1.0 and (rep.tp, rep.tn) == (1, 1)
