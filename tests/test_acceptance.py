"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`. The detection experiments
train real models on synthetic corpora, so this module takes several minutes
of CPU time; tolerances and thresholds are fixed here, not tuned at runtime.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from trajlm import dataio
from trajlm.checkpoint import load_checkpoint, save_checkpoint
from trajlm.cli import RunConfig, main, pol_records, porto_corpora
from trajlm.evaluate import completion_ratio_eval, f1, per_agent_eval, pr_auc
from trajlm.model import ModelConfig, backward, forward_batch, init_model, log_softmax, nll_loss
from trajlm.online import open_session
from trajlm.scoring import (
    classify,
    compute_thresholds,
    score_corpus,
    surprisal,
    token_log_probs,
)
from trajlm.synth import WorldConfig, gen_pol_corpus
from trajlm.training import TrainConfig, train
from trajlm.vocab import EncodedTrajectory, build_vocab


def report_line(criterion: int, name: str, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"[acceptance] C{criterion:02d} {name}: {status} ({detail})")


# ---------------------------------------------------------------------------
# Shared experiment fixtures
# ---------------------------------------------------------------------------

def _train_pol(records, d_model, d_ff, epochs, seed, max_seq_len=24):
    vocab = build_vocab([dataio.full_tokens(r) for r in records])
    encoded = [dataio.encode_record(r, vocab) for r in records]
    cfg = ModelConfig(vocab_size=len(vocab), d_model=d_model, n_heads=4, n_layers=2,
                      d_ff=d_ff, max_seq_len=max_seq_len, seed=seed)
    model = init_model(cfg, vocab.hash())
    train(model, encoded, TrainConfig(n_epochs=epochs, batch_size=100, learning_rate=3e-3, seed=seed + 1))
    return vocab, model, encoded


@pytest.fixture(scope="module")
def pol_run():
    """Agent-conditioned world: 50 agents x 100 days, 5 anomalous x 14 days,
    trained on all data including the anomalous days."""
    world = WorldConfig(n_agents=50, n_days=100, n_anomalous_agents=5, anomalous_days=14, seed=7,
                        alt_prob=0.35)
    corpus = gen_pol_corpus(world)
    records = pol_records(corpus, "staypoint")
    vocab, model, encoded = _train_pol(records, d_model=64, d_ff=128, epochs=30, seed=1)
    reports, table = score_corpus(model, encoded, scope="per_agent")
    truth = {t.traj_id: t.label for t in corpus.trajectories}
    return dict(corpus=corpus, records=records, vocab=vocab, model=model,
                encoded=encoded, table=table, reports=reports, truth=truth)


@pytest.fixture(scope="module")
def route_run():
    """configs/porto.ini: 20 OD pairs x 40 routes, 5% injected anomalies held out of training."""
    cfg = RunConfig.from_path(Path(__file__).resolve().parents[1] / "configs" / "porto.ini")
    corpora, truth = porto_corpora(cfg)
    vocab = build_vocab([r.tokens for records in corpora.values() for r in records])
    model = init_model(cfg.model_config(len(vocab)), vocab.hash())
    enc_train = [dataio.encode_record(r, vocab) for r in corpora["train.jsonl"]]
    train(model, enc_train, cfg.train_config())
    table = compute_thresholds([surprisal(model, t).perplexity for t in enc_train])
    kinds = ("random_shift", "detour")
    enc_eval = {kind: [dataio.encode_record(r, vocab) for r in corpora[f"eval_{kind}.jsonl"]] for kind in kinds}
    labels = {kind: {t.traj_id: t.label for t in truth[f"truth_{kind}.csv"]} for kind in kinds}
    return dict(model=model, vocab=vocab, table=table, enc_eval=enc_eval, truth=labels)


@pytest.fixture(scope="module")
def memorized_run():
    """Localization scenario: substitution-free routines memorized by the model, one
    planted off-routine staypoint per anomalous trajectory."""
    world = WorldConfig(n_agents=20, n_days=98, n_anomalous_agents=3, anomalous_days=14,
                        seed=21, alt_prob=0.0)
    corpus = gen_pol_corpus(world)
    records = pol_records(corpus, "staypoint")
    vocab, model, encoded = _train_pol(records, d_model=48, d_ff=96, epochs=60, seed=5, max_seq_len=16)
    return dict(corpus=corpus, model=model, encoded={t.traj_id: t for t in encoded})


# ---------------------------------------------------------------------------
# 1. Gradient correctness
# ---------------------------------------------------------------------------

def test_c01_gradient_correctness():
    t0 = time.time()
    cfg = ModelConfig(vocab_size=20, d_model=8, n_heads=2, n_layers=2, d_ff=16, max_seq_len=8, seed=27)
    model = init_model(cfg)
    ids = np.random.default_rng(127).integers(1, 20, size=(2, 6))
    ids[1, -1] = 0
    _, grads = backward(model, ids)

    def loss_at():
        logits, _ = forward_batch(model, ids[:, :-1])
        targets = ids[:, 1:]
        return nll_loss(log_softmax(logits), targets, targets != 0)

    h = 1e-5
    worst = 0.0
    checked = 0
    for name, p in model.params.items():
        it = np.nditer(p, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = p[idx]
            p[idx] = orig + h
            lp = loss_at()
            p[idx] = orig - h
            lm = loss_at()
            p[idx] = orig
            num = (lp - lm) / (2 * h)
            # relative error with a small floor so exactly-zero gradients compare cleanly
            worst = max(worst, abs(grads[name][idx] - num) / max(abs(grads[name][idx]), abs(num), 1e-6))
            checked += 1
    elapsed = time.time() - t0
    ok = worst < 1e-4 and elapsed < 60
    report_line(1, "gradient correctness", ok,
                f"{checked} params, worst rel err {worst:.2e}, {elapsed:.1f}s")
    assert worst < 1e-4
    assert elapsed < 60


# ---------------------------------------------------------------------------
# 2. Causality
# ---------------------------------------------------------------------------

def test_c02_causality_bit_exact():
    t0 = time.time()
    cfg = ModelConfig(vocab_size=30, d_model=32, n_heads=4, n_layers=2, d_ff=64, max_seq_len=16, seed=3)
    model = init_model(cfg)
    rng = np.random.default_rng(99)
    violations = 0
    for _ in range(1000):
        n = int(rng.integers(3, 13))
        ids = rng.integers(1, 30, size=(1, n))
        j = int(rng.integers(1, n))
        mutated = ids.copy()
        mutated[0, j] = 1 + (mutated[0, j] % 29)
        if mutated[0, j] == ids[0, j]:
            mutated[0, j] = 1 + (mutated[0, j] % 28) + 1
        a, _ = forward_batch(model, ids)
        b, _ = forward_batch(model, mutated)
        if not np.array_equal(a[0, :j], b[0, :j]):
            violations += 1
    elapsed = time.time() - t0
    report_line(2, "causality", violations == 0, f"1000 mutation trials, {violations} violations, {elapsed:.1f}s")
    assert violations == 0


# ---------------------------------------------------------------------------
# 3. Perplexity identities
# ---------------------------------------------------------------------------

def test_c03_perplexity_identities():
    t0 = time.time()
    # uniform logits: zeroed output path gives exactly uniform next-token probabilities
    cfg = ModelConfig(vocab_size=37, d_model=8, n_heads=2, n_layers=1, d_ff=8, max_seq_len=20, seed=0)
    uniform = init_model(cfg)
    for k in uniform.params:
        uniform.params[k][:] = 0.0
    uniform.params["final_ln.g"][:] = 1.0
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(25):
        n = int(rng.integers(2, 20))
        ids = [int(x) for x in rng.integers(1, 37, size=n)]
        worst = max(worst, abs(surprisal(uniform, EncodedTrajectory(ids=ids, prefix_len=1)).perplexity - 37.0))
    # memorized 20-trajectory corpus reaches the near-1 perplexity floor
    rng = np.random.default_rng(9)
    corpus = [
        EncodedTrajectory(ids=[3 + i] + [int(x) for x in rng.integers(23, 35, size=8)] + [2],
                          prefix_len=1, traj_id=f"t{i}")
        for i in range(20)
    ]
    mcfg = ModelConfig(vocab_size=35, d_model=32, n_heads=4, n_layers=2, d_ff=64, max_seq_len=12, seed=0)
    model = init_model(mcfg)
    train(model, corpus, TrainConfig(n_epochs=250, batch_size=20, learning_rate=3e-3, seed=1))
    ppl = np.mean([surprisal(model, t).perplexity for t in corpus])
    elapsed = time.time() - t0
    ok = worst < 1e-6 and ppl < 1.1 and elapsed < 120
    report_line(3, "perplexity identities", ok,
                f"uniform |V| err {worst:.1e}, memorized PPL {ppl:.4f}, {elapsed:.1f}s")
    assert worst < 1e-6
    assert ppl < 1.1
    assert elapsed < 120


# ---------------------------------------------------------------------------
# 4. Online/batch equivalence
# ---------------------------------------------------------------------------

def test_c04_online_batch_equivalence():
    cfg = ModelConfig(vocab_size=50, d_model=32, n_heads=4, n_layers=3, d_ff=64, max_seq_len=48, seed=17)
    model = init_model(cfg)
    rng = np.random.default_rng(23)
    worst_tok = 0.0
    worst_ppl = 0.0
    for _ in range(200):
        n = int(rng.integers(3, 44))
        ids = [int(x) for x in rng.integers(1, 50, size=n)]
        enc = EncodedTrajectory(ids=ids, prefix_len=1)
        batch_lp = token_log_probs(model, [ids])[0]
        session = open_session(model, ids[:1])
        inc = np.array([session.push(tok)[0] for tok in ids[1:]])
        worst_tok = max(worst_tok, float(np.max(np.abs(inc + batch_lp) / np.abs(batch_lp))))
        batch_ppl = surprisal(model, enc).perplexity
        worst_ppl = max(worst_ppl, abs(session.running_perplexity - batch_ppl) / batch_ppl)
    ok = worst_tok < 1e-9 and worst_ppl < 1e-9
    report_line(4, "online/batch equivalence", ok,
                f"200 trajectories, worst token rel {worst_tok:.1e}, worst PPL rel {worst_ppl:.1e}")
    assert worst_tok < 1e-9
    assert worst_ppl < 1e-9


# ---------------------------------------------------------------------------
# 5. Online performance
# ---------------------------------------------------------------------------

def test_c05_online_performance():
    cfg = ModelConfig(vocab_size=300, d_model=64, n_heads=4, n_layers=4, d_ff=256, max_seq_len=300, seed=0)
    model = init_model(cfg)
    ids = [int(x) for x in np.random.default_rng(3).integers(1, 300, size=257)]

    t0 = time.perf_counter()
    session = open_session(model, ids[:1])
    for tok in ids[1:]:
        session.push(tok)
    t_incremental = time.perf_counter() - t0

    t0 = time.perf_counter()
    for length in range(2, len(ids) + 1):
        forward_batch(model, np.asarray(ids[:length])[None, :])
    t_recompute = time.perf_counter() - t0
    speedup = t_recompute / t_incremental
    report_line(5, "online performance", speedup >= 5.0,
                f"incremental {t_incremental:.2f}s vs per-prefix {t_recompute:.2f}s = {speedup:.1f}x")
    assert speedup >= 5.0


# ---------------------------------------------------------------------------
# 6. PR-AUC oracle
# ---------------------------------------------------------------------------

def test_c06_pr_auc_oracle():
    def brute_force_ap(labels, scores):
        n_pos = sum(labels)
        ap = 0.0
        prev_r = 0.0
        for tau in sorted(set(scores), reverse=True):
            preds = [s >= tau for s in scores]
            tp = sum(1 for p, l in zip(preds, labels) if p and l)
            ap += (tp / n_pos - prev_r) * (tp / sum(preds))
            prev_r = tp / n_pos
        return ap

    rng = np.random.default_rng(1234)
    mismatches = 0
    for _ in range(1000):
        n = int(rng.integers(2, 13))
        labels = rng.integers(0, 2, size=n).tolist()
        if sum(labels) == 0:
            labels[int(rng.integers(0, n))] = 1
        scores = rng.choice([0.0, 0.2, 0.4, 0.6, 0.8, 1.0], size=n).tolist()
        if not math.isclose(pr_auc(labels, scores), brute_force_ap(labels, scores),
                            rel_tol=1e-12, abs_tol=1e-12):
            mismatches += 1
    f1_exact = (
        f1([1, 0, 1], [1, 0, 1]) == 1.0
        and f1([1, 1, 0], [0, 0, 0]) == 0.0
        and math.isclose(f1([1, 1, 1, 0, 0], [1, 1, 0, 1, 0]), 2 / 3, rel_tol=1e-12)
    )
    ok = mismatches == 0 and f1_exact
    report_line(6, "PR-AUC oracle", ok, f"1000 instances <= 12 samples, {mismatches} mismatches; F1 closed forms exact: {f1_exact}")
    assert mismatches == 0
    assert f1_exact


# ---------------------------------------------------------------------------
# 7. Per-agent anomaly detection
# ---------------------------------------------------------------------------

def test_c07_per_agent_detection(pol_run):
    t0 = time.time()
    per_agent = per_agent_eval(pol_run["reports"], pol_run["truth"])
    anomalous_agents = set(pol_run["corpus"].anomalous_agents)
    assert set(per_agent) == anomalous_agents
    passing = {a: (r.f1, r.pr_auc) for a, r in per_agent.items() if r.f1 >= 0.7 and r.pr_auc >= 0.6}
    detail = ", ".join(f"{a}: F1={r.f1:.2f}/AUC={r.pr_auc:.2f}" for a, r in sorted(per_agent.items()))
    ok = len(passing) >= 4
    report_line(7, "per-agent detection", ok, f"{len(passing)}/5 agents pass [{detail}]")
    assert len(passing) >= 4
    assert time.time() - t0 < 900


# ---------------------------------------------------------------------------
# 8. Global anomaly detection
# ---------------------------------------------------------------------------

def test_c08_global_detection(route_run):
    aucs = {}
    for kind, encoded in route_run["enc_eval"].items():
        labels = [route_run["truth"][kind][t.traj_id] for t in encoded]
        scores = [surprisal(route_run["model"], t).perplexity for t in encoded]
        aucs[kind] = pr_auc(labels, scores)
    ok = aucs["random_shift"] >= 0.9 and aucs["detour"] >= 0.8
    report_line(8, "global detection", ok,
                f"random_shift PR-AUC {aucs['random_shift']:.3f} (>=0.9), detour {aucs['detour']:.3f} (>=0.8)")
    assert aucs["random_shift"] >= 0.9
    assert aucs["detour"] >= 0.8


# ---------------------------------------------------------------------------
# 9. Surprisal localization
# ---------------------------------------------------------------------------

def test_c09_surprisal_localization(memorized_run):
    hits = 0
    total = 0
    for traj in memorized_run["corpus"].trajectories:
        if traj.label != "anomalous":
            continue
        enc = memorized_run["encoded"][traj.traj_id]
        trace = surprisal(memorized_run["model"], enc)
        planted_seq_pos = enc.prefix_len + traj.anomaly_pos
        # localization ranks the location tokens; the conditioning prefix is context
        loc_idx = [i for i, p in enumerate(trace.target_positions) if p >= enc.prefix_len]
        best = trace.target_positions[loc_idx[int(np.argmax(trace.values[loc_idx]))]]
        hits += best == planted_seq_pos
        total += 1
    rate = hits / total
    report_line(9, "surprisal localization", rate >= 0.9, f"argmax at planted slot {hits}/{total} = {rate:.1%}")
    assert rate >= 0.9


# ---------------------------------------------------------------------------
# 10. Completion-ratio trend
# ---------------------------------------------------------------------------

def test_c10_completion_ratio_trend(route_run):
    model = route_run["model"]
    encoded = route_run["enc_eval"]["random_shift"]
    truth = route_run["truth"]["random_shift"]
    table = route_run["table"]
    result = completion_ratio_eval(model, encoded, truth, [0.2, 1.0], table)
    # batch evaluation computed independently; ratio 1.0 must match bit for bit
    labels = [truth[t.traj_id] for t in encoded]
    ppls = [surprisal(model, t).perplexity for t in encoded]
    verdicts = [classify(t.traj_id, p, table).verdict for t, p in zip(encoded, ppls)]
    batch = (f1(labels, verdicts), pr_auc(labels, ppls))
    monotone = result[1.0][1] >= result[0.2][1]
    bit_exact = result[1.0] == batch
    report_line(10, "completion-ratio trend", monotone and bit_exact,
                f"PR-AUC 0.2 -> {result[0.2][1]:.3f}, 1.0 -> {result[1.0][1]:.3f}; ratio-1.0 == batch: {bit_exact}")
    assert monotone
    assert bit_exact


# ---------------------------------------------------------------------------
# 11. Location-configuration ablation
# ---------------------------------------------------------------------------

def test_c11_ablation():
    world = WorldConfig(n_agents=20, n_days=70, n_anomalous_agents=4, anomalous_days=10,
                        seed=33, alt_prob=0.35)
    corpus = gen_pol_corpus(world)

    def pipeline(records):
        vocab, model, encoded = _train_pol(records, d_model=48, d_ff=96, epochs=35, seed=5)
        reports, _ = score_corpus(model, encoded, scope="per_agent")
        return per_agent_eval(reports, {t.traj_id: t.label for t in corpus.trajectories})

    avg = {name: float(np.mean([r.f1 for r in pipeline(pol_records(corpus, name)).values()]))
           for name in ("staypoint", "gps", "duration")}
    ok = avg["staypoint"] >= avg["gps"] and avg["staypoint"] >= avg["duration"]
    report_line(11, "ablation", ok,
                ", ".join(f"{k} avg F1 {v:.3f}" for k, v in avg.items()))
    assert ok


# ---------------------------------------------------------------------------
# 12. Determinism & persistence
# ---------------------------------------------------------------------------

POL_TINY = """\
[run]
preset = pol
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
epochs = 3
batch_size = 16
learning_rate = 0.003
"""


def test_c12_determinism_and_persistence(tmp_path):
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text(POL_TINY)
    artifacts = []
    for run_dir in ("run1", "run2"):
        d = tmp_path / run_dir
        assert main(["gen-data", "--config", str(cfg_path), "--out-dir", str(d)]) == 0
        vocab = d / "vocab.tsv"
        ckpt = d / "model.ckpt"
        assert main(["build-vocab", "--inputs", str(d / "corpus_staypoint.jsonl"), "--out", str(vocab)]) == 0
        assert main(["train", "--config", str(cfg_path), "--corpus", str(d / "corpus_staypoint.jsonl"),
                     "--vocab", str(vocab), "--out", str(ckpt)]) == 0
        artifacts.append((
            (d / "corpus_staypoint.jsonl").read_bytes(),
            (d / "truth.csv").read_bytes(),
            vocab.read_bytes(),
            ckpt.read_bytes(),
        ))
    corpora_identical = artifacts[0][0] == artifacts[1][0] and artifacts[0][1] == artifacts[1][1]
    checkpoints_identical = artifacts[0][3] == artifacts[1][3]

    model = load_checkpoint(artifacts[0][3])
    reloaded = load_checkpoint(save_checkpoint(model))
    round_trip = all(np.array_equal(model.params[k], reloaded.params[k]) for k in model.params)
    ok = corpora_identical and checkpoints_identical and round_trip
    report_line(12, "determinism & persistence", ok,
                f"corpora identical: {corpora_identical}, checkpoints identical: {checkpoints_identical}, "
                f"round trip bit-exact: {round_trip}")
    assert corpora_identical
    assert checkpoints_identical
    assert round_trip
