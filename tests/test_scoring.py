import dataclasses
import math
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trajlm import scoring
from trajlm.errors import DomainError
from trajlm.evaluate import completion_ratio_eval, global_eval
from trajlm.model import ModelConfig, init_model
from trajlm.scoring import (
    CHUNK_TOKENS,
    classify,
    compute_thresholds,
    score_corpus,
    surprisal,
    token_log_probs,
)
from trajlm.training import TrainConfig, train
from trajlm.vocab import EncodedTrajectory


def constant_logit_model(logits_row, max_seq_len=12):
    """Model whose logits are the given row at every position.

    With every other parameter zeroed, the residual stream is constant, so the
    final layer norm emits exactly final_ln.b and the output projection can be
    loaded with the wanted logits.
    """
    logits_row = np.asarray(logits_row, dtype=np.float64)
    cfg = ModelConfig(
        vocab_size=len(logits_row), d_model=4, n_heads=2, n_layers=1, d_ff=4,
        max_seq_len=max_seq_len, seed=0,
    )
    m = init_model(cfg)
    for k in m.params:
        m.params[k][:] = 0.0
    m.params["final_ln.b"][0] = 1.0
    m.params["w_out"][0, :] = logits_row
    return m


def uniform_model(vocab_size, max_seq_len=12):
    return constant_logit_model(np.zeros(vocab_size), max_seq_len)


def from_probs(probs):
    return constant_logit_model(np.log(np.asarray(probs, dtype=np.float64)))


def traj(ids, **kw):
    return EncodedTrajectory(ids=list(ids), prefix_len=1, **kw)


def test_log_probs_uniform_model():
    m = uniform_model(10)
    lp = token_log_probs(m, [[1, 3, 4, 5]])[0]
    assert np.allclose(lp, -math.log(10), atol=1e-12)


def test_log_probs_are_nonpositive_and_cover_all_transitions():
    m = uniform_model(8)
    t = traj([3, 4, 5, 6, 2])
    lp = token_log_probs(m, [t.ids])[0]
    assert len(lp) == len(t.ids) - 1  # head is context only; EOT is scored
    assert np.all(lp <= 0)


def test_log_probs_needs_a_transition():
    m = uniform_model(8)
    with pytest.raises(DomainError):
        token_log_probs(m, [[3]])  # unreachable through encode(); defensive check still fires


def test_surprisal_probability_one_and_one_over_e():
    peaked = constant_logit_model([0.0, 0.0, 0.0, 1e4])
    s = surprisal(peaked, traj([1, 3, 3]))
    assert np.allclose(s.values, 0.0, atol=1e-8)
    p = 1 / math.e
    rest = (1 - p) / 3
    m = from_probs([rest, rest, rest, p])
    s = surprisal(m, traj([1, 3]))
    assert np.allclose(s.values, [1.0], atol=1e-12)
    assert s.target_positions == [1]


def test_surprisal_alignment_metadata():
    m = uniform_model(6)
    t = traj([1, 3, 4, 2])
    s = surprisal(m, t)
    assert s.target_positions == [1, 2, 3]


def test_perplexity_probability_one_floor():
    peaked = constant_logit_model([0.0, 0.0, 1e4, 0.0])
    assert math.isclose(surprisal(peaked, traj([1, 2, 2, 2])).perplexity, 1.0, abs_tol=1e-6)


def test_perplexity_uniform_equals_vocab_size():
    m = uniform_model(16)
    assert math.isclose(surprisal(m, traj([1, 3, 7, 9, 11])).perplexity, 16.0, abs_tol=1e-6)


def test_perplexity_geometric_mean_identity():
    # transitions with probabilities 1/2 then 1/8: PPL = exp((ln2 + ln8)/2) = 4
    m = from_probs([0.25, 0.125, 0.5, 0.125])
    assert math.isclose(surprisal(m, traj([1, 2, 3])).perplexity, 4.0, rel_tol=1e-10)
    assert math.isclose(surprisal(m, traj([1, 2])).perplexity, 2.0, rel_tol=1e-10)
    assert math.isclose(surprisal(m, traj([1, 3])).perplexity, 8.0, rel_tol=1e-10)


def test_memorized_corpus_log_probs_near_zero():
    rng = np.random.default_rng(11)
    corpus = [
        EncodedTrajectory(ids=[3 + i] + [int(x) for x in rng.integers(9, 14, size=4)] + [2],
                          prefix_len=1, traj_id=f"t{i}")
        for i in range(6)
    ]
    cfg = ModelConfig(vocab_size=14, d_model=16, n_heads=2, n_layers=1, d_ff=32, max_seq_len=8, seed=0)
    m = init_model(cfg)
    train(m, corpus, TrainConfig(n_epochs=150, batch_size=6, learning_rate=3e-3, seed=1))
    for t in corpus:
        assert np.all(token_log_probs(m, [t.ids])[0] > -0.2)


def test_compute_thresholds_closed_forms():
    table = compute_thresholds([1.0, 1.0, 1.0])
    assert table.threshold_for("global") == 1.0
    table = compute_thresholds([2.0, 4.0])
    assert table.threshold_for("global") == 4.0  # mean 3 + population std 1
    assert table.fits == {None: (3.0, 1.0, 2)}


def test_compute_thresholds_population_std():
    vals = [1.0, 2.0, 3.0, 4.0]
    table = compute_thresholds(vals)
    assert math.isclose(table.threshold_for("global"), np.mean(vals) + np.std(vals), rel_tol=1e-12)


def test_compute_thresholds_small_group_omitted_with_warning():
    with pytest.warns(UserWarning):
        table = compute_thresholds([1.0, 2.0, 3.0], ["a", "a", "b"])
    assert "a" in table.fits and "b" not in table.fits
    with pytest.warns(UserWarning):
        table = compute_thresholds([1.0])
    assert table.fits == {}


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.floats(min_value=1e-3, max_value=1e6),
                          st.sampled_from([None, "global", "a", "b", "c,d", "e"])), max_size=40))
def test_per_agent_fits_equal_the_per_agent_definition(samples):
    """Each agent's fit is (mean, population std, count) of its own perplexities
    taken in corpus order, bit for bit; None is no agent, and an agent named
    global has its own fit."""
    ppls = [p for p, _ in samples]
    agents = [a for _, a in samples]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a fit of fewer than 2 samples is omitted with a warning
        table = compute_thresholds(ppls, agents)
    expected = {}
    for key in [None, *sorted({a for a in agents if a is not None})]:
        values = np.array([p for p, a in samples if key is None or a == key])
        if len(values) >= 2:
            expected[key] = (float(np.mean(values)), float(np.std(values)), len(values))
    assert list(table.fits.items()) == list(expected.items())


def test_two_scale_corpus_per_agent_vs_global():
    ppls = [0.9, 1.0, 1.1, 4.9, 5.0, 5.1]
    agents = ["a", "a", "a", "b", "b", "b"]
    table = compute_thresholds(ppls, agents)
    th_a, th_b = (table.threshold_for("per_agent", a) for a in ("a", "b"))
    assert th_a < table.threshold_for("global") < th_b
    # a trajectory of agent b scoring above its own threshold but below global
    ppl = (th_b + table.threshold_for("global")) / 2 + 0.2
    assert ppl > th_b
    per_agent = classify("x", ppl, table, scope="per_agent", agent="b")
    assert per_agent.verdict == "anomalous"


def test_classify_boundary_equality_is_normal():
    table = compute_thresholds([2.0, 4.0])
    report = classify("x", table.threshold_for("global"), table)
    assert report.verdict == "normal"
    assert classify("x", table.threshold_for("global") + 1e-12, table).verdict == "anomalous"


def test_classify_monotone_in_threshold():
    from trajlm.scoring import ThresholdTable

    for ppl in (0.5, 1.5, 3.0):
        verdicts = [
            classify("x", ppl, ThresholdTable({None: (th, 0.0, 2)})).verdict
            for th in (1.0, 2.0, 4.0)
        ]
        flips = [v == "anomalous" for v in verdicts]
        assert flips == sorted(flips, reverse=True)  # raising threshold never re-flags


def test_classify_missing_agent_directs_to_global():
    table = compute_thresholds([1.0, 2.0], ["a", "a"])
    with pytest.raises(DomainError) as exc:
        classify("x", 1.0, table, scope="per_agent", agent="ghost")
    assert "global" in str(exc.value)


def test_score_corpus_report_fields():
    m = uniform_model(8)
    table = compute_thresholds([7.0, 9.0])
    t = traj([1, 3, 4], traj_id="r1", agent=None)
    [report], returned = score_corpus(m, [t], table=table)
    assert returned is table
    assert report.traj_id == "r1"
    assert math.isclose(report.perplexity, 8.0, abs_tol=1e-6)
    assert report.threshold == table.threshold_for("global")
    assert report.surprisal is not None
    assert report.surprisal.target_positions == [1, 2]
    assert math.isclose(
        report.perplexity, math.exp(float(np.mean(report.surprisal.values))), rel_tol=1e-12
    )


def test_score_corpus_perplexity_is_bit_identical_to_perplexity():
    # math.exp and np.exp round differently in the last bit on a few percent of
    # inputs; every perplexity must come from the one np.exp formula
    cfg = ModelConfig(vocab_size=20, d_model=8, n_heads=2, n_layers=1, d_ff=16, max_seq_len=16, seed=4)
    m = init_model(cfg)
    rng = np.random.default_rng(17)
    corpus = [
        traj(rng.integers(1, 20, size=int(rng.integers(2, 17))), traj_id=f"t{i}")
        for i in range(500)
    ]
    reports, _ = score_corpus(m, corpus)
    for t, report in zip(corpus, reports):
        assert report.perplexity == surprisal(m, t).perplexity
        assert report.perplexity == np.exp(np.mean(report.surprisal.values))


def mixed_length_corpus():
    """Shuffled trajectories whose length groups span one chunk, several chunks,
    and rows longer than a whole chunk, with the model that scores them."""
    cfg = ModelConfig(vocab_size=20, d_model=8, n_heads=2, n_layers=1, d_ff=16, max_seq_len=300, seed=5)
    rng = np.random.default_rng(29)
    lengths = [2] * 3 + [9] * 70 + [33] * 20 + [40] * 7 + [301] * 2
    rng.shuffle(lengths)
    corpus = [traj(rng.integers(1, 20, size=n), traj_id=f"t{i}") for i, n in enumerate(lengths)]
    return init_model(cfg), corpus


def test_score_corpus_chunks_match_one_row_traces_in_input_order():
    m, corpus = mixed_length_corpus()
    assert 70 * 8 > CHUNK_TOKENS  # the length-9 group needs more than one chunk
    reports, _ = score_corpus(m, corpus)
    assert [r.traj_id for r in reports] == [t.traj_id for t in corpus]
    for t, report in zip(corpus, reports):
        alone = surprisal(m, t)
        assert np.array_equal(report.surprisal.values, alone.values)
        assert report.surprisal.target_positions == alone.target_positions
        assert report.perplexity == alone.perplexity


def test_score_corpus_makes_one_forward_call_per_exact_length_chunk(monkeypatch):
    """One worker runs the chunks in the order they are submitted: largest
    (rows x trajectory length) first."""
    m, corpus = mixed_length_corpus()
    shapes = []
    real = scoring.forward_batch

    def counting(model, ids, *args, **kwargs):
        shapes.append(np.shape(ids))
        return real(model, ids, *args, **kwargs)

    monkeypatch.setattr(scoring, "forward_batch", counting)
    monkeypatch.setattr(scoring, "_usable_cpus", lambda: 1)
    score_corpus(m, corpus)
    members = {n: sum(len(t.ids) == n for t in corpus) for n in {len(t.ids) for t in corpus}}
    rows = {n: max(1, CHUNK_TOKENS // (n - 1)) for n in members}
    assert len(shapes) == sum(math.ceil(members[n] / rows[n]) for n in members) == 1 + 3 + 3 + 2 + 2
    assert all(r * t <= CHUNK_TOKENS or r == 1 for r, t in shapes)
    sizes = [r * (t + 1) for r, t in shapes]
    assert sizes == sorted(sizes, reverse=True) and sizes[0] > sizes[-1]


def _score_with_workers(monkeypatch, workers, *args, **kwargs):
    """score_corpus(*args, **kwargs) on a pool of the given number of workers,
    with a short switch interval so that the workers interleave often."""
    monkeypatch.setattr(scoring, "_usable_cpus", lambda: workers)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        return score_corpus(*args, **kwargs)
    finally:
        sys.setswitchinterval(interval)


def test_score_corpus_is_the_same_bits_with_one_worker_or_four(monkeypatch):
    """Four workers, more than the CPUs the test may have, give the traces,
    perplexities, per-agent threshold fits and report order that one worker
    gives, bit for bit, on a mixed-length corpus with repeats."""
    m, corpus = mixed_length_corpus()
    corpus = [dataclasses.replace(t, agent="abc"[i % 3]) for i, t in enumerate(corpus)]
    corpus += [dataclasses.replace(t, traj_id=f"{t.traj_id}+", agent="c") for t in corpus[::4]]
    results = [_score_with_workers(monkeypatch, w, m, corpus, scope="per_agent") for w in (1, 4)]
    (one, one_table), (four, four_table) = results
    assert [r.traj_id for r in four] == [r.traj_id for r in one] == [t.traj_id for t in corpus]
    assert [r.agent for r in four] == [r.agent for r in one]
    assert [r.surprisal.values.tobytes() for r in four] == [r.surprisal.values.tobytes() for r in one]
    assert np.array([r.perplexity for r in four]).tobytes() == np.array([r.perplexity for r in one]).tobytes()
    assert four_table == one_table and set(one_table.fits) == {None, "a", "b", "c"}
    assert [r.threshold for r in four] == [r.threshold for r in one]


def test_score_corpus_raises_a_chunk_error_alike_with_one_worker_or_four(monkeypatch):
    """A chunk whose forward call raises makes score_corpus raise the same
    DomainError with one worker and with four, and no worker thread outlives
    the call."""
    m, corpus = mixed_length_corpus()
    corpus[5] = dataclasses.replace(corpus[5], ids=[corpus[5].ids[0], 20, *corpus[5].ids[2:]])  # past the vocab
    before = threading.active_count()
    messages = []
    for workers in (1, 4):
        with pytest.raises(DomainError) as info:
            _score_with_workers(monkeypatch, workers, m, corpus)
        messages.append(str(info.value))
        assert threading.active_count() == before
    assert messages == ["token ids must lie in [0, 20)"] * 2


def test_score_corpus_names_an_overlong_trajectory_before_any_forward_call(monkeypatch):
    m = uniform_model(8, max_seq_len=4)
    monkeypatch.setattr(scoring, "forward_batch", lambda *a, **k: pytest.fail("forward call made"))
    corpus = [traj([1, 3, 4, 5, 6], traj_id="fits"), traj([1, 3, 4, 5, 6, 7], traj_id="long")]
    with pytest.raises(DomainError, match="'long' has 6 tokens"):
        score_corpus(m, corpus)


def test_score_corpus_fits_thresholds_on_its_own_perplexities():
    m = from_probs([0.25, 0.125, 0.5, 0.125])
    corpus = [
        traj(ids, traj_id=f"t{i}", agent=agent)
        for i, (ids, agent) in enumerate([
            ([1, 2], "a"), ([1, 3], "a"), ([1, 2, 3], "b"), ([1, 2, 2], "b"), ([1, 3, 3], "b"),
        ])
    ]
    ppls = [surprisal(m, t).perplexity for t in corpus]
    agents = [t.agent for t in corpus]
    reports, table = score_corpus(m, corpus, scope="per_agent")
    assert table == compute_thresholds(ppls, agents)
    assert set(table.fits) == {None, "a", "b"}
    assert [r.threshold for r in reports] == [table.threshold_for("per_agent", a) for a in agents]
    reports, table = score_corpus(m, corpus, scope="global")
    assert set(table.fits) == {None}
    assert table == compute_thresholds(ppls)
    assert all(r.threshold == table.threshold_for("global") for r in reports)


def test_score_corpus_computes_each_distinct_trajectory_once(monkeypatch):
    """Repeats under one agent or under two share their first copy's forward rows,
    while the same ids under another head length are a distinct trajectory. Every
    report is a one-row surprisal's, bit for bit, and the threshold fits count
    every trajectory, repeats included."""
    cfg = ModelConfig(vocab_size=12, d_model=8, n_heads=2, n_layers=1, d_ff=16, max_seq_len=12, seed=6)
    m = init_model(cfg)
    distinct = [([1, 3, 4, 5, 2], 1), ([9, 10, 4, 4, 2], 2), ([9, 10, 4, 4, 2], 1), ([1, 6, 2], 1)]
    picks = [(0, "a"), (1, "a"), (0, "b"), (2, "b"), (0, "a"), (3, "b"), (1, "b"), (3, "a"), (2, "b")]
    corpus = [
        EncodedTrajectory(ids=list(distinct[k][0]), prefix_len=distinct[k][1], traj_id=f"t{i}", agent=agent)
        for i, (k, agent) in enumerate(picks)
    ]
    rows = []
    real = scoring.forward_batch

    def counting(model, ids, *args, **kwargs):
        rows.append(len(ids))
        return real(model, ids, *args, **kwargs)

    monkeypatch.setattr(scoring, "forward_batch", counting)
    reports, table = score_corpus(m, corpus, scope="per_agent")
    monkeypatch.undo()
    assert sum(rows) == len(distinct) < len(corpus)
    for t, report in zip(corpus, reports):
        alone = surprisal(m, t)
        assert (report.traj_id, report.agent) == (t.traj_id, t.agent)
        assert np.array_equal(report.surprisal.values, alone.values)
        assert report.perplexity == alone.perplexity
    ppls = [surprisal(m, t).perplexity for t in corpus]
    agents = [t.agent for t in corpus]
    assert table == compute_thresholds(ppls, agents)
    assert table.fits[None][2] == table.fits["a"][2] + table.fits["b"][2] == len(corpus)
    assert [r.threshold for r in reports] == [table.threshold_for("per_agent", a) for a in agents]
    _, table = score_corpus(m, corpus)
    assert table == compute_thresholds(ppls)
    assert table.fits[None][2] == len(corpus)


@st.composite
def _scoring_cases(draw):
    """A tiny model and a corpus of 2 to 12 trajectories drawn from up to 3 stems, so
    that trajectories share prefixes, some repeated under another id or agent, with
    heads of 1 and 2 ids and up to max_seq_len + 1 ids; and truth labels with at
    least one anomalous trajectory."""
    n_heads = draw(st.sampled_from([1, 2]))
    cfg = ModelConfig(vocab_size=draw(st.integers(4, 10)), d_model=n_heads * draw(st.integers(2, 8 // n_heads)),
                      n_heads=n_heads, n_layers=draw(st.integers(1, 2)), d_ff=draw(st.integers(4, 16)),
                      max_seq_len=draw(st.integers(4, 20)), seed=draw(st.integers(0, 2**16)))
    token = st.integers(1, cfg.vocab_size - 1)  # any id but PAD
    stems = draw(st.lists(st.lists(token, min_size=2, max_size=cfg.max_seq_len + 1), min_size=1, max_size=3))
    agent = st.sampled_from(["a", "b"])
    drawn = []
    for _ in range(draw(st.integers(2, 9))):
        stem = draw(st.sampled_from(stems))
        ids = (stem[:draw(st.integers(2, len(stem)))] + draw(st.lists(token, max_size=4)))[:cfg.max_seq_len + 1]
        drawn.append((ids, draw(st.integers(1, min(2, len(ids) - 1))), draw(agent)))
    drawn += [(ids, head, draw(agent)) for ids, head, _ in draw(st.lists(st.sampled_from(drawn), max_size=3))]
    corpus = [EncodedTrajectory(ids=list(ids), prefix_len=head, traj_id=f"t{i}", agent=a)
              for i, (ids, head, a) in enumerate(drawn)]
    labels = draw(st.lists(st.sampled_from(["normal", "anomalous"]), min_size=len(corpus), max_size=len(corpus)))
    labels[draw(st.integers(0, len(corpus) - 1))] = "anomalous"
    return init_model(cfg), corpus, {t.traj_id: label for t, label in zip(corpus, labels)}


@settings(max_examples=100, deadline=None, derandomize=True)
@given(case=_scoring_cases())
def test_score_corpus_equals_one_row_traces_and_ratio_one_completion_on_drawn_corpora(case):
    model, corpus, truth = case
    reports, table = score_corpus(model, corpus)
    for t, report in zip(corpus, reports):
        alone = surprisal(model, t)
        assert np.array_equal(report.surprisal.values, alone.values)
        assert report.perplexity == alone.perplexity
    rep = global_eval(reports, truth)
    assert completion_ratio_eval(model, corpus, truth, [1.0], table) == {1.0: (rep.f1, rep.pr_auc)}
