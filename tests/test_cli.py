import configparser
import csv
import ctypes
import io
import json
from collections import Counter
import re
import resource
import shlex
import sys
from pathlib import Path

import numpy as np
import pytest

from trajlm import dataio
from trajlm.checkpoint import read_checkpoint
from trajlm.cli import RunConfig, build_parser, main, pol_corpora, porto_corpora
from trajlm.errors import ConfigError
from trajlm.model import init_model
from trajlm.scoring import ScoreReport, token_log_probs
from trajlm.training import train
from trajlm.vocab import Token, Vocab

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
README = CONFIGS.parent / "README.md"

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
epochs = 2
batch_size = 16
learning_rate = 0.003

[eval]
ratios = 0.5,1.0
"""

PORTO_TINY = """\
[run]
preset = porto
seed = 5

[grid]
n_cols = 16
n_rows = 16

[routes]
n_od_pairs = 2
routes_per_pair = 8
noise = 0.1

[anomaly]
fraction = 0.125
ratio = 0.3
dist = 2

[model]
d_model = 16
n_heads = 2
n_layers = 1
d_ff = 32
max_seq_len = 48

[train]
epochs = 2
batch_size = 8
learning_rate = 0.003

[eval]
ratios = 0.5,1.0
"""


@pytest.fixture
def pol_config(tmp_path):
    path = tmp_path / "pol.ini"
    path.write_text(POL_TINY)
    return path


@pytest.fixture
def porto_config(tmp_path):
    path = tmp_path / "porto.ini"
    path.write_text(PORTO_TINY)
    return path


def run(*argv):
    return main([str(a) for a in argv])


def read_rows(path):
    """The CSV rows of an artifact after its '#' provenance line, header first."""
    return list(csv.reader(l for l in path.read_text().splitlines() if not l.startswith("#")))


TRUTH, SCORES, THRESHOLDS = dataio.TRUTH_HEADER, dataio.SCORES_HEADER, dataio.THRESHOLDS_HEADER


def assert_one_csv_format(root, headers):
    """Every CSV under root has no '\\r' and starts with the provenance line; each file
    named in headers exists and, unless mapped to None, has that reader's header."""
    written = {path.name: path.read_bytes() for path in root.rglob("*.csv")}
    assert set(headers) <= set(written)
    for name, data in written.items():
        assert b"\r" not in data, name
        lines = data.decode().split("\n")
        assert lines[0].startswith("# config_hash="), name
        if headers.get(name) is not None:
            assert next(csv.reader([lines[1]])) == headers[name], name


def test_gen_data_pol_counts_and_determinism(pol_config, tmp_path):
    d1, d2 = tmp_path / "d1", tmp_path / "d2"
    assert run("gen-data", "--config", pol_config, "--out-dir", d1) == 0
    assert run("gen-data", "--config", pol_config, "--out-dir", d2) == 0
    records = dataio.read_corpus(d1 / "corpus_staypoint.jsonl")
    assert len(records) == 32
    assert (d1 / "corpus_staypoint.jsonl").read_bytes() == (d2 / "corpus_staypoint.jsonl").read_bytes()
    assert b'"label"' not in (d1 / "corpus_staypoint.jsonl").read_bytes()
    assert (d1 / "truth.csv").read_bytes() == (d2 / "truth.csv").read_bytes()
    truth = dataio.read_truth(d1 / "truth.csv")
    assert list(truth) == [r.traj_id for r in records]
    planted = [t for t in truth.values() if t.label == "anomalous"]
    assert len(planted) == 2 and all(t.kind == "skip_routine" and t.pos is not None for t in planted)


def test_gen_data_porto_layout(porto_config, tmp_path):
    out = tmp_path / "porto"
    assert run("gen-data", "--config", porto_config, "--out-dir", out) == 0
    train = dataio.read_corpus(out / "train.jsonl")
    assert len(train) == 14  # 16 routes - 2 held out
    for kind in ("random_shift", "detour"):
        ev = dataio.read_corpus(out / f"eval_{kind}.jsonl")
        assert len(ev) == 16
        assert b'"label"' not in (out / f"eval_{kind}.jsonl").read_bytes()
        truth = dataio.read_truth(out / f"truth_{kind}.csv")
        assert list(truth) == [r.traj_id for r in ev]
        anomalous = {t.traj_id for t in truth.values() if t.label == "anomalous"}
        assert len(anomalous) == 2
        assert not anomalous & {r.traj_id for r in train}  # held out of training


@pytest.mark.parametrize("text, build", [
    (POL_TINY, lambda cfg: pol_corpora(cfg, cfg.configurations())),
    (PORTO_TINY, porto_corpora),
], ids=["pol", "porto"])
def test_gen_data_writes_what_the_builder_returns(tmp_path, monkeypatch, text, build):
    monkeypatch.chdir(tmp_path)
    corpora, truth = build(RunConfig(text))
    assert build(RunConfig(text)) == (corpora, truth)
    assert not list(tmp_path.iterdir())  # the builder writes nothing
    (tmp_path / "run.ini").write_text(text)
    assert run("gen-data", "--config", "run.ini", "--out-dir", "out") == 0
    assert sorted(f.name for f in (tmp_path / "out").iterdir()) == sorted([*corpora, *truth])
    for name, records in corpora.items():
        assert dataio.read_corpus(tmp_path / "out" / name) == records
    for name, labels in truth.items():
        assert list(dataio.read_truth(tmp_path / "out" / name).values()) == labels


@pytest.fixture
def pol_pipeline(pol_config, tmp_path):
    """gen-data + build-vocab + train, shared by the downstream command tests."""
    d = tmp_path / "data"
    run("gen-data", "--config", pol_config, "--out-dir", d)
    corpus = d / "corpus_staypoint.jsonl"
    vocab = tmp_path / "vocab.tsv"
    ckpt = tmp_path / "model.ckpt"
    loss = tmp_path / "loss.csv"
    assert run("build-vocab", "--inputs", corpus, "--out", vocab) == 0
    assert run("train", "--config", pol_config, "--corpus", corpus, "--vocab", vocab,
               "--out", ckpt, "--loss-log", loss) == 0
    return dict(config=pol_config, data=d, corpus=corpus, vocab=vocab, ckpt=ckpt, loss=loss, tmp=tmp_path)


def test_train_outputs_and_reproducibility(pol_pipeline):
    p = pol_pipeline
    assert read_checkpoint(p["ckpt"]).vocab_hash == Vocab.load(p["vocab"]).hash()
    lines = [l for l in p["loss"].read_text().splitlines() if l and not l.startswith("#")]
    assert lines[0] == "epoch,loss" and len(lines) == 3  # header + 2 epochs
    ckpt2 = p["tmp"] / "model2.ckpt"
    assert run("train", "--config", p["config"], "--corpus", p["corpus"], "--vocab", p["vocab"],
               "--out", ckpt2) == 0
    assert p["ckpt"].read_bytes() == ckpt2.read_bytes()


def test_train_resume_continues_loss_log(pol_pipeline):
    p = pol_pipeline
    assert run("train", "--config", p["config"], "--corpus", p["corpus"], "--vocab", p["vocab"],
               "--out", p["ckpt"], "--loss-log", p["loss"], "--resume") == 0
    rows = [l for l in p["loss"].read_text().splitlines() if l and not l.startswith(("#", "epoch"))]
    assert len(rows) == 4
    assert [int(r.split(",")[0]) for r in rows] == [0, 1, 2, 3]


@pytest.mark.parametrize("row", ["garbage", "5,0.25", "2,lots"],
                         ids=["one-field", "epoch-gap", "loss-not-a-number"])
def test_train_resume_rejects_a_malformed_loss_log(pol_pipeline, capsys, row):
    """A resumed log is read as a CSV artifact: a row that is not the next epoch and
    its loss exits 2 naming its line, and leaves the log and the checkpoint as they were."""
    p = pol_pipeline
    p["loss"].write_text(p["loss"].read_text() + row + "\n")
    before, log = p["ckpt"].read_bytes(), p["loss"].read_bytes()
    capsys.readouterr()
    assert run("train", "--config", p["config"], "--corpus", p["corpus"], "--vocab", p["vocab"],
               "--out", p["ckpt"], "--loss-log", p["loss"], "--resume") == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {p['loss']}:5: ") and err.count("\n") == 1, err
    assert p["ckpt"].read_bytes() == before and p["loss"].read_bytes() == log


def test_train_resume_rejects_another_architecture(pol_pipeline, capsys):
    p = pol_pipeline
    wider = p["tmp"] / "wider.ini"
    wider.write_text(POL_TINY.replace("d_model = 16", "d_model = 32"))
    before, log = p["ckpt"].read_bytes(), p["loss"].read_bytes()
    capsys.readouterr()
    assert run("train", "--config", wider, "--corpus", p["corpus"], "--vocab", p["vocab"],
               "--out", p["ckpt"], "--loss-log", p["loss"], "--resume") == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and "d_model" in err
    assert p["ckpt"].read_bytes() == before and p["loss"].read_bytes() == log
    # the seed is not architecture: a resumed model keeps its loaded weights
    reseeded = p["tmp"] / "reseeded.ini"
    reseeded.write_text(POL_TINY.replace("seed = 3", "seed = 4"))
    assert run("train", "--config", reseeded, "--corpus", p["corpus"], "--vocab", p["vocab"],
               "--out", p["ckpt"], "--resume") == 0


def test_score_fit_thresholds_and_eval_composability(pol_pipeline):
    p = pol_pipeline
    scores = p["tmp"] / "scores.csv"
    thresholds = p["tmp"] / "thresholds.csv"
    per_pos = p["tmp"] / "surprisals.csv"
    assert run("score", "--config", p["config"], "--checkpoint", p["ckpt"], "--vocab", p["vocab"],
               "--corpus", p["corpus"], "--out", scores,
               "--fit-thresholds", "--thresholds-out", thresholds,
               "--per-position", per_pos, "--scope", "per_agent") == 0
    table = dataio.read_thresholds(thresholds)
    assert None in table.fits
    assert len(table.fits) == 5  # the global fit and one per agent
    reports = dataio.read_scores(scores)
    assert len(reports) == 32
    assert per_pos.read_text().count("\n") > 33  # at least one row per trajectory

    eval_a = p["tmp"] / "eval_a.csv"
    eval_b = p["tmp"] / "eval_b.csv"
    scores_b = p["tmp"] / "scores_b.csv"
    truth = p["data"] / "truth.csv"
    assert run("eval", "--scores", scores, "--truth", truth, "--out", eval_a, "--per-agent") == 0
    assert run("score", "--checkpoint", p["ckpt"], "--vocab", p["vocab"], "--corpus", p["corpus"],
               "--thresholds", thresholds, "--scope", "per_agent", "--out", scores_b) == 0
    assert run("eval", "--scores", scores_b, "--truth", truth, "--out", eval_b, "--per-agent") == 0
    strip = lambda path: [l for l in path.read_text().splitlines() if not l.startswith("#")]
    assert strip(eval_a) == strip(eval_b)
    rows = strip(eval_a)
    assert rows[0] == "agent,f1,pr_auc,tp,fp,fn,tn"
    assert len(rows) == 2  # only the one agent with true anomalies
    assert_one_csv_format(p["tmp"], {"truth.csv": TRUTH, "scores.csv": SCORES, "thresholds.csv": THRESHOLDS,
                                     "scores_b.csv": SCORES, "surprisals.csv": None, "eval_a.csv": None,
                                     "eval_b.csv": None, "loss.csv": None})


def test_score_prints_a_library_warning_as_one_line(pol_pipeline, capsys):
    """An agent with a single day gets no per-agent fit: stderr holds that warning as
    one line, with no source path or line, then the error its missing fit causes."""
    p = pol_pipeline
    records = dataio.read_corpus(p["corpus"])
    lone = records[-1]
    corpus = p["tmp"] / "lone.jsonl"
    dataio.write_corpus(corpus, [r for r in records if r.agent != lone.agent] + [lone])
    capsys.readouterr()
    assert run("score", "--checkpoint", p["ckpt"], "--vocab", p["vocab"], "--corpus", corpus,
               "--out", p["tmp"] / "scores.csv", "--fit-thresholds", "--scope", "per_agent") == 2
    assert capsys.readouterr().err.splitlines() == [
        f"warning: threshold entry {lone.agent!r} omitted: only 1 sample(s)",
        f"error: agent {lone.agent!r} has no per-agent threshold; score with scope='global' instead",
    ]


def test_eval_reads_only_a_scores_file(pol_pipeline, capsys):
    p = pol_pipeline
    scores, thresholds = p["tmp"] / "scores.csv", p["tmp"] / "thresholds.csv"
    assert run("score", "--config", p["config"], "--checkpoint", p["ckpt"], "--vocab", p["vocab"],
               "--corpus", p["corpus"], "--out", scores, "--fit-thresholds", "--thresholds-out", thresholds) == 0
    base = ["eval", "--truth", p["data"] / "truth.csv", "--out", p["tmp"] / "eval.csv"]
    end_to_end = ["--checkpoint", p["ckpt"], "--vocab", p["vocab"], "--corpus", p["corpus"],
                  "--thresholds", thresholds, "--scope", "per_agent"]
    assert run(*base, *end_to_end) == 1
    for i in range(0, len(end_to_end), 2):
        assert run(*base, "--scores", scores, *end_to_end[i:i + 2]) == 1, end_to_end[i]
    capsys.readouterr()
    assert run("eval", "--help") == 0
    flags = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
    assert flags == {"--help", "--truth", "--out", "--scores", "--config", "--per-agent"}


def csv_row(fields) -> str:
    """fields as one CSV row, quoted as the artifacts quote them, without its newline."""
    out = io.StringIO()
    csv.writer(out, lineterminator="").writerow(fields)
    return out.getvalue()


def assert_stream_matches_batch(p, thresholds, monkeypatch, capsys) -> list[str]:
    """Stream the first corpus record through `trajlm stream`, its agent and weekday
    fields as the CSV row --conditioning and its tokens on stdin, and return that head. Each id
    after the first gives one 5-field CSV row, whose pos and token are those of the
    record's surprisals.csv row and whose surprisal is the batch scorer's; the last
    running perplexity is the record's scores.csv perplexity."""
    scores, surprisals = p["tmp"] / "stream_scores.csv", p["tmp"] / "stream_surprisals.csv"
    assert run("score", "--checkpoint", p["ckpt"], "--vocab", p["vocab"], "--corpus", p["corpus"],
               "--thresholds", thresholds, "--out", scores, "--per-position", surprisals) == 0
    record = dataio.read_corpus(p["corpus"])[0]
    enc = dataio.encode_record(record, Vocab.load(p["vocab"]))
    batch = token_log_probs(read_checkpoint(p["ckpt"]), [enc.ids])[0]
    head = [f"{kind}:{value}" for kind, value in (("agent_id", record.agent), ("weekday", record.weekday))
            if value is not None]
    monkeypatch.setattr(sys, "stdin", io.StringIO("".join(f"{t}\n" for t in record.tokens)))
    capsys.readouterr()
    assert run("stream", "--checkpoint", p["ckpt"], "--vocab", p["vocab"], "--thresholds", thresholds,
               *(["--conditioning", csv_row(head)] if head else [])) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert all(len(row) == 5 for row in rows)
    assert [row[:2] for row in rows] == [row[1:3] for row in read_rows(surprisals)[1:] if row[0] == record.traj_id]
    assert len(rows) == len(batch) == len(enc.ids) - 1
    for row, lp in zip(rows, batch):
        assert abs(float(row[2]) + lp) <= 1e-9 * abs(lp)
    [ppl] = [float(row[2]) for row in read_rows(scores)[1:] if row[0] == record.traj_id]
    assert abs(float(rows[-1][3]) - ppl) <= 1e-9 * ppl
    assert rows[-1][4] in ("normal", "anomalous")
    return head


def test_stream_matches_batch_scorer(pol_pipeline, monkeypatch, capsys):
    p = pol_pipeline
    thresholds = p["tmp"] / "thr.csv"
    run("score", "--config", p["config"], "--checkpoint", p["ckpt"], "--vocab", p["vocab"],
        "--corpus", p["corpus"], "--out", p["tmp"] / "s.csv",
        "--fit-thresholds", "--thresholds-out", thresholds)
    head = assert_stream_matches_batch(p, thresholds, monkeypatch, capsys)
    assert [t.split(":")[0] for t in head] == ["agent_id", "weekday"]


def test_stream_takes_a_quoted_agent_holding_a_comma(pol_pipeline, monkeypatch, capsys):
    """--conditioning is one CSV row, so an agent named "a,b" is streamed as its
    corpus record is scored, from the quoted row '"agent_id:a,b",weekday:<day>'."""
    p = dict(pol_pipeline)
    records = dataio.read_corpus(p["corpus"])
    renamed = records[0].agent
    for rec in records:
        if rec.agent == renamed:
            rec.agent = "a,b"
    p["corpus"], p["vocab"], p["ckpt"] = p["tmp"] / "comma.jsonl", p["tmp"] / "comma.tsv", p["tmp"] / "comma.ckpt"
    dataio.write_corpus(p["corpus"], records)
    thresholds = p["tmp"] / "comma_thr.csv"
    assert run("build-vocab", "--inputs", p["corpus"], "--out", p["vocab"]) == 0
    assert run("train", "--config", p["config"], "--corpus", p["corpus"], "--vocab", p["vocab"],
               "--out", p["ckpt"]) == 0
    assert run("score", "--checkpoint", p["ckpt"], "--vocab", p["vocab"], "--corpus", p["corpus"],
               "--out", p["tmp"] / "s.csv", "--fit-thresholds", "--thresholds-out", thresholds) == 0
    head = assert_stream_matches_batch(p, thresholds, monkeypatch, capsys)
    assert head[0] == "agent_id:a,b" and csv_row(head).startswith('"agent_id:a,b",weekday:')


def test_stream_writes_porto_cell_as_one_field(porto_pipeline, monkeypatch, capsys):
    p = porto_pipeline
    assert assert_stream_matches_batch(p, p["thresholds"], monkeypatch, capsys) == []


@pytest.mark.parametrize("conditioning, stdin, message", [
    ("{agent}", "special:PAD\n", "<stdin>:1: tokens may not hold 'special:PAD'"),
    ("{agent}", "\nspecial:SOT\n", "<stdin>:2: tokens may not hold 'special:SOT'"),
    ("{agent}", "weekday:Monday\n", "<stdin>:1: tokens may not hold 'weekday:Monday'"),
    ("{agent}", "{agent}\n", "<stdin>:1: tokens may not hold 'agent_id:"),
    ("{agent}", "nokind:x\n", "<stdin>:1: unknown token kind 'nokind'"),
    ("weekday:Monday,{agent}", "", "--conditioning must be agent_id:<agent>, then weekday:<day>"),
    ("{agent},{agent}", "", "--conditioning must be agent_id:<agent>, then weekday:<day>"),
    ("special:SOT,{agent},staypoint:work", "", "--conditioning must be agent_id:<agent>, then weekday:<day>"),
    ('"{agent},weekday:Monday', "", "--conditioning must be one CSV row"),
    ('"{agent}"x,weekday:Monday', "", "--conditioning must be one CSV row"),
], ids=["pad-event", "sot-event", "weekday-event", "agent-event", "malformed-event", "reversed-head",
        "repeated-head", "sot-and-location-head", "unclosed-quote-head", "text-after-quote-head"])
def test_stream_reads_a_record_the_corpus_reader_would_take(pol_pipeline, monkeypatch, capsys,
                                                             conditioning, stdin, message):
    """A stdin token passes the rule of a corpus record's tokens, and --conditioning is
    a record's head as encode_record writes it; anything else exits 2 with one line."""
    p = pol_pipeline
    thresholds = p["tmp"] / "thr.csv"
    assert run("score", "--checkpoint", p["ckpt"], "--vocab", p["vocab"], "--corpus", p["corpus"],
               "--out", p["tmp"] / "s.csv", "--fit-thresholds", "--thresholds-out", thresholds) == 0
    agent = f"agent_id:{dataio.read_corpus(p['corpus'])[0].agent}"
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin.format(agent=agent)))
    capsys.readouterr()
    assert run("stream", "--checkpoint", p["ckpt"], "--vocab", p["vocab"], "--thresholds", thresholds,
               "--conditioning", conditioning.format(agent=agent)) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: {message}") and err.count("\n") == 1, err


@pytest.mark.parametrize("drop", ["agent token", "agent threshold"])
@pytest.mark.parametrize("stdin", ["", "one event"])
def test_stream_checks_its_threshold_before_reading_stdin(pol_pipeline, monkeypatch, capsys, drop, stdin):
    p = pol_pipeline
    fitted = p["tmp"] / "fitted.csv"
    assert run("score", "--config", p["config"], "--checkpoint", p["ckpt"], "--vocab", p["vocab"],
               "--corpus", p["corpus"], "--out", p["tmp"] / "s.csv", "--scope", "per_agent",
               "--fit-thresholds", "--thresholds-out", fitted) == 0
    vocab = Vocab.load(p["vocab"])
    agent_tok, weekday_tok, first, *_ = [vocab.token(i) for i in
                                         dataio.encode_record(dataio.read_corpus(p["corpus"])[0], vocab).ids]
    if drop == "agent token":
        thresholds, conditioning, message = fitted, str(weekday_tok), "per_agent scope requires an agent"
    else:
        thresholds = p["tmp"] / "thr.csv"
        conditioning, message = f"{agent_tok},{weekday_tok}", f"agent {agent_tok.value!r} has no per-agent threshold"
        lines = fitted.read_text().splitlines(keepends=True)
        thresholds.write_text("".join(l for l in lines if f",{agent_tok.value}," not in l))
    events = f"{first}\n" if stdin else ""
    monkeypatch.setattr(sys, "stdin", io.StringIO(events))
    capsys.readouterr()
    assert run("stream", "--checkpoint", p["ckpt"], "--vocab", p["vocab"], "--thresholds", thresholds,
               "--conditioning", conditioning, "--scope", "per_agent") == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: {message}") and err.count("\n") == 1
    assert sys.stdin.read() == events  # no event consumed


def test_report_ablation_row_count(pol_config, tmp_path):
    """The ablation compares staypoint, gps and duration even though the config's
    [world] configurations names only staypoint, the corpus gen-data writes."""
    assert RunConfig(POL_TINY).configurations() == ["staypoint"]
    out = tmp_path / "rep"
    assert run("report", "--kind", "ablation", "--config", pol_config, "--out-dir", out) == 0
    rows = read_rows(out / "ablation.csv")
    assert [row[0] for row in rows] == ["configuration", "staypoint", "gps", "duration"]
    for name, *average in rows[1:]:
        header, *agents, last = read_rows(out / f"ablation_{name}.csv")
        assert header == ["agent", "f1", "pr_auc"] and agents
        assert last == ["average", *average]  # the summary row is the file's average row
        means = [float(np.mean([float(row[col]) for row in agents])) for col in (1, 2)]
        assert [float(v) for v in average] == means  # the mean of its agent rows
    assert_one_csv_format(out, {"ablation.csv": None, "ablation_gps.csv": None})


@pytest.mark.parametrize("flag", ["--checkpoint", "--vocab", "--corpus", "--thresholds", "--truth"])
def test_report_ablation_rejects_an_input_flag(pol_config, tmp_path, capsys, flag):
    """The ablation generates its world: an input flag is a usage error, not ignored."""
    out = tmp_path / "rep"
    capsys.readouterr()
    assert run("report", "--kind", "ablation", "--config", pol_config, "--out-dir", out,
               flag, tmp_path / "nonexistent") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: the ablation report") and err.count("\n") == 1, err
    assert not out.exists()


def test_report_ablation_without_an_anomalous_agent_names_the_configuration(tmp_path, capsys):
    config, out = tmp_path / "none.ini", tmp_path / "rep"
    config.write_text(POL_TINY.replace("n_anomalous_agents = 1", "n_anomalous_agents = 0"))
    capsys.readouterr()
    assert run("report", "--kind", "ablation", "--config", config, "--out-dir", out) == 2
    assert capsys.readouterr().err == "error: configuration 'staypoint' produced no per-agent results\n"
    assert not out.exists()


@pytest.fixture
def porto_pipeline(porto_config, tmp_path):
    """gen-data + build-vocab + train, then global thresholds fitted on the training routes."""
    out = tmp_path / "porto"
    run("gen-data", "--config", porto_config, "--out-dir", out)
    vocab = tmp_path / "v.tsv"
    ckpt = tmp_path / "m.ckpt"
    run("build-vocab", "--inputs", out / "train.jsonl", out / "eval_random_shift.jsonl",
        out / "eval_detour.jsonl", "--out", vocab)
    run("train", "--config", porto_config, "--corpus", out / "train.jsonl", "--vocab", vocab, "--out", ckpt)
    thr = tmp_path / "thr.csv"
    run("score", "--config", porto_config, "--checkpoint", ckpt, "--vocab", vocab,
        "--corpus", out / "train.jsonl", "--out", tmp_path / "s.csv",
        "--fit-thresholds", "--thresholds-out", thr)
    return dict(config=porto_config, data=out, corpus=out / "train.jsonl", vocab=vocab, ckpt=ckpt,
                thresholds=thr, tmp=tmp_path)


def test_report_completion(porto_pipeline):
    p = porto_pipeline
    out, rep = p["data"], p["tmp"] / "rep"
    assert run("report", "--kind", "completion", "--config", p["config"], "--out-dir", rep,
               "--checkpoint", p["ckpt"], "--vocab", p["vocab"], "--corpus", out / "eval_random_shift.jsonl",
               "--thresholds", p["thresholds"], "--truth", out / "truth_random_shift.csv") == 0
    rows = [l for l in (rep / "completion.csv").read_text().splitlines() if not l.startswith("#")]
    assert rows[0] == "ratio,f1,pr_auc" and len(rows) == 3  # header + 2 ratios
    assert_one_csv_format(p["tmp"], {"truth_random_shift.csv": TRUTH, "truth_detour.csv": TRUTH,
                                     "thr.csv": THRESHOLDS, "s.csv": SCORES, "completion.csv": None})


def test_exit_codes(pol_config, tmp_path):
    assert run("train", "--config", pol_config, "--corpus", tmp_path / "missing.jsonl",
               "--vocab", tmp_path / "missing.tsv", "--out", tmp_path / "x.ckpt") == 2
    bad = tmp_path / "bad.ini"
    bad.write_text("[run]\npreset = nonsense\nseed = 1\n")
    assert run("gen-data", "--config", bad, "--out-dir", tmp_path / "o" / "p") == 1
    assert run("report", "--kind", "completion", "--config", pol_config, "--out-dir", tmp_path / "o" / "p") == 1
    assert not (tmp_path / "o").exists()  # a rejected command makes neither its --out-dir nor a parent
    assert run("no-such-command") == 1
    assert run("score") == 1  # missing required arguments


SCORES_HEAD = "id,agent,perplexity,threshold,verdict\n"
THRESHOLDS_HEAD = "scope,agent,threshold,mean,std,count\n"
GOOD_INPUTS = {
    "truth.csv": "id,label\nt1,anomalous\n",
    "scores.csv": SCORES_HEAD + "t1,,2.0,3.0,normal\n",
    "thresholds.csv": THRESHOLDS_HEAD + "global,,3.0,2.0,1.0,8\n",
    "run.ini": POL_TINY,
    "corpus.jsonl": '{"id": "t1", "tokens": ["cell:1,2"]}\n',
}

# The line a case's data error names, where it is not line 2: a repeated id is
# named on its second row.
ERROR_LINE = {"scores-duplicate-id": 3}


@pytest.mark.parametrize("command, name, text, code", [
    ("eval", "truth.csv", "id,label\nt1\n", 2),
    ("eval", "truth.csv", "id,label,kind,ratio\nt1,anomalous,shift,abc\n", 2),
    ("eval", "scores.csv", SCORES_HEAD + "t1,,notanumber,3.0,normal\n", 2),
    ("eval", "scores.csv", SCORES_HEAD + "t1,,2.0\n", 2),
    ("report", "thresholds.csv", THRESHOLDS_HEAD + "global,,notanumber,2.0,1.0,8\n", 2),
    ("report", "thresholds.csv", THRESHOLDS_HEAD + "global,,3.0\n", 2),
    ("report", "run.ini", POL_TINY.replace("ratios = 0.5,1.0", "ratios = 0.5,abc"), 1),
    ("eval", "truth.csv", b"id,label\nt1,\xffanomalous\n", 2),
    ("build-vocab", "corpus.jsonl", b'{"id": "t1", "tokens": ["cell:\xff"]}\n', 2),
    ("report", "run.ini", b"# \xff\n" + POL_TINY.encode(), 1),
    ("build-vocab", "corpus.jsonl", GOOD_INPUTS["corpus.jsonl"] + "5\n", 2),
    ("build-vocab", "corpus.jsonl", GOOD_INPUTS["corpus.jsonl"] + '{"id": "t2", "tokens": [5]}\n', 2),
    ("build-vocab", "corpus.jsonl", GOOD_INPUTS["corpus.jsonl"] + '{"id": "t2", "tokens": ["nokind:1"]}\n', 2),
    ("report", "thresholds.csv", THRESHOLDS_HEAD + "globl,,3.0,2.0,1.0,8\n", 2),
    ("report", "thresholds.csv", THRESHOLDS_HEAD + "per_agent,,3.0,2.0,1.0,8\n", 2),
    ("train", "run.ini", POL_TINY.replace("n_heads = 2", "n_heads = 0"), 1),
    ("train", "run.ini", POL_TINY.replace("n_heads = 2", "n_heads = -2"), 1),
    ("train", "run.ini", POL_TINY.replace("d_model = 16", "d_model = 0"), 1),
    ("train", "run.ini", POL_TINY.replace("d_model = 16", "d_model = -16"), 1),
    ("train", "run.ini", POL_TINY.replace("d_ff = 32", "d_ff = 0"), 1),
    ("train", "run.ini", POL_TINY.replace("n_layers = 1", "n_layers = 0"), 1),
    ("train", "run.ini", POL_TINY.replace("n_layers = 1", "n_layers = -3"), 1),
    ("report", "run.ini", POL_TINY.replace("ratios = 0.5,1.0", "ratios = 1.5"), 1),
    ("report", "run.ini", POL_TINY.replace("ratios = 0.5,1.0", "ratios = 0"), 1),
    ("report", "run.ini", POL_TINY.replace("ratios = 0.5,1.0", "ratios = ,"), 1),
    ("report", "run.ini", POL_TINY.replace("ratios = 0.5,1.0", "ratios = 0.5,0.5,1.0"), 1),
    ("gen-data", "run.ini", POL_TINY.replace("epochs = 2", "epochs = 2\nepoch = 1"), 1),
    ("gen-data", "run.ini", POL_TINY + "\n[training]\nepochs = 2\n", 1),
    ("train", "run.ini", POL_TINY.replace("max_seq_len = 16", "max_seq_len = 16\ndropout = 0.2"), 1),
    ("gen-data", "run.ini", PORTO_TINY.replace("dist = 2", "dist = 2\nkinds = skip_routine"), 1),
    ("gen-data", "run.ini", PORTO_TINY.replace("dist = 2", "dist = 2\nkinds = random_shift,"), 1),
    ("gen-data", "run.ini", PORTO_TINY.replace("fraction = 0.125", "fraction = 2"), 1),
    ("gen-data", "run.ini", PORTO_TINY.replace("fraction = 0.125", "fraction = -0.5"), 1),
    ("gen-data", "run.ini", PORTO_TINY.replace("ratio = 0.3", "ratio = 2"), 1),
    ("gen-data", "run.ini", PORTO_TINY.replace("dist = 2", "dist = 0"), 1),
    ("gen-data", "run.ini", PORTO_TINY.replace("routes_per_pair = 8", "routes_per_pair = 0"), 1),
    ("gen-data", "run.ini", POL_TINY.replace("n_anomalous_agents = 1", "n_anomalous_agents = -1"), 1),
    ("gen-data", "run.ini", POL_TINY.replace("anomalous_days = 2", "anomalous_days = -2"), 1),
    ("gen-data", "run.ini", POL_TINY.replace("alt_prob = 0.35", "alt_prob = 3"), 1),
    ("gen-data", "run.ini", POL_TINY.replace("configurations = staypoint", "configurations = bogus"), 1),
    ("gen-data", "run.ini", POL_TINY.replace("configurations = staypoint", "configurations = ,"), 1),
    ("eval", "truth.csv", "id,label\nt1,Anomalous\n", 2),
    ("eval", "scores.csv", SCORES_HEAD + "t1,,2.0,3.0,maybe\n", 2),
    ("build-vocab", "corpus.jsonl", GOOD_INPUTS["corpus.jsonl"] + '{"id": "t1", "tokens": ["cell:3,4"]}\n', 2),
    ("build-vocab", "corpus.jsonl", GOOD_INPUTS["corpus.jsonl"] + '{"id": "t2", "agent": 5, "tokens": ["cell:3,4"]}\n'
     '{"id": "t3", "agent": "x", "tokens": ["cell:3,4"]}\n', 2),
    ("build-vocab", "corpus.jsonl", GOOD_INPUTS["corpus.jsonl"] + '{"id": "t2", "agent": "x", "weekday": 1, "tokens": []}\n', 2),
    ("build-vocab", "corpus.jsonl", GOOD_INPUTS["corpus.jsonl"] + '{"id": null, "tokens": ["cell:3,4"]}\n', 2),
    ("build-vocab", "corpus.jsonl", GOOD_INPUTS["corpus.jsonl"] + '{"id": [1], "tokens": ["cell:3,4"]}\n', 2),
    ("build-vocab", "corpus.jsonl", GOOD_INPUTS["corpus.jsonl"] + '{"id": 5, "tokens": ["cell:3,4"]}\n', 2),
    ("eval", "scores.csv", SCORES_HEAD + "t1,,nan,3.0,normal\n", 2),
    ("eval", "scores.csv", SCORES_HEAD + "t1,,2.0,nan,normal\n", 2),
    ("eval", "scores.csv", SCORES_HEAD + "t1,,2.0,3.0,anomalous\n", 2),
    ("eval", "scores.csv", SCORES_HEAD + "t1,,3.0,3.0,anomalous\n", 2),
    ("eval", "scores.csv", SCORES_HEAD + "t1,,4.0,3.0,normal\n", 2),
    ("eval", "scores.csv", SCORES_HEAD + "t1,,5.0,3.0,anomalous\nt1,,2.0,3.0,normal\n", 2),
    ("score", "corpus.jsonl", GOOD_INPUTS["corpus.jsonl"] + '{"id": "t2", "tokens": ["cell:1,2", "special:EOT", "cell:1,2"]}\n', 2),
    ("score", "corpus.jsonl", GOOD_INPUTS["corpus.jsonl"] + '{"id": "t2", "tokens": ["special:PAD"]}\n', 2),
    ("score", "corpus.jsonl", GOOD_INPUTS["corpus.jsonl"] + '{"id": "t2", "agent": "x", "tokens": ["agent_id:x", "cell:1,2"]}\n', 2),
    ("build-vocab", "corpus.jsonl", GOOD_INPUTS["corpus.jsonl"] + '{"id": "t2", "tokens": ["special:SOT", "cell:1,2"]}\n', 2),
    ("build-vocab", "corpus.jsonl", GOOD_INPUTS["corpus.jsonl"] + '{"id": "t2", "tokens": ["weekday:Monday", "cell:1,2"]}\n', 2),
], ids=["truth-no-label", "truth-bad-ratio", "scores-bad-float", "scores-short-row",
        "thresholds-bad-float", "thresholds-short-row", "config-bad-ratio",
        "truth-not-utf8", "corpus-not-utf8", "config-not-utf8",
        "corpus-not-object", "corpus-token-not-string", "corpus-unknown-token-kind",
        "thresholds-unknown-scope", "thresholds-per-agent-no-agent",
        "config-zero-heads", "config-negative-heads", "config-zero-d-model", "config-negative-d-model",
        "config-zero-d-ff", "config-zero-layers", "config-negative-layers",
        "config-ratio-above-one", "config-ratio-zero", "config-no-ratios", "config-repeated-ratio",
        "config-unknown-key", "config-unknown-section", "config-removed-key",
        "config-porto-kind-not-injectable", "config-porto-kind-empty",
        "config-porto-fraction-above-one", "config-porto-fraction-negative",
        "config-porto-ratio-above-one", "config-porto-dist-zero", "config-porto-no-routes",
        "config-pol-negative-anomalous-agents", "config-pol-negative-anomalous-days",
        "config-pol-alt-prob-above-one", "config-pol-unknown-configuration",
        "config-pol-no-configuration",
        "truth-unknown-label", "scores-unknown-verdict",
        "corpus-duplicate-id", "corpus-agent-not-string", "corpus-weekday-not-string",
        "corpus-id-null", "corpus-id-list", "corpus-id-number",
        "scores-nan-perplexity", "scores-nan-threshold", "scores-anomalous-below-threshold",
        "scores-anomalous-at-threshold", "scores-normal-above-threshold", "scores-duplicate-id",
        "score-corpus-eot-inside-tokens", "score-corpus-pad-token", "score-corpus-agent-token",
        "corpus-sot-token", "corpus-weekday-token"])
def test_bad_input_exits_with_one_line_error(pol_pipeline, capsys, request, command, name, text, code):
    p = pol_pipeline
    for file, good in GOOD_INPUTS.items():
        content = text if file == name else good
        (p["tmp"] / file).write_bytes(content if isinstance(content, bytes) else content.encode())
    path = {file: p["tmp"] / file for file in GOOD_INPUTS}
    if command == "eval":
        argv = ["eval", "--truth", path["truth.csv"], "--scores", path["scores.csv"],
                "--out", p["tmp"] / "eval.csv"]
    elif command == "build-vocab":
        argv = ["build-vocab", "--inputs", path["corpus.jsonl"], "--out", p["tmp"] / "vocab_out.tsv"]
    elif command == "score":
        argv = ["score", "--checkpoint", p["ckpt"], "--vocab", p["vocab"], "--corpus", path["corpus.jsonl"],
                "--out", p["tmp"] / "score_out.csv", "--fit-thresholds"]
    elif command == "train":
        argv = ["train", "--config", path["run.ini"], "--corpus", p["corpus"], "--vocab", p["vocab"],
                "--out", p["tmp"] / "train_out.ckpt"]
    elif command == "gen-data":
        argv = ["gen-data", "--config", path["run.ini"], "--out-dir", p["tmp"] / "gen" / "sub"]
    else:
        argv = ["report", "--kind", "completion", "--config", path["run.ini"], "--out-dir", p["tmp"] / "rep" / "sub",
                "--checkpoint", p["ckpt"], "--vocab", p["vocab"], "--corpus", p["corpus"],
                "--thresholds", path["thresholds.csv"], "--truth", path["truth.csv"]]
    capsys.readouterr()
    assert run(*argv) == code
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    if isinstance(text, bytes):
        assert f"{name}: not UTF-8 text" in err
    elif code == 2:
        assert f"{name}:{ERROR_LINE.get(request.node.callspec.id, 2)}:" in err
    written = [p["tmp"] / out for out in ("eval.csv", "vocab_out.tsv", "train_out.ckpt", "score_out.csv")]
    assert not [f for f in written if f.exists()]
    assert not (p["tmp"] / "gen").exists() and not (p["tmp"] / "rep").exists()


@pytest.mark.parametrize("text, named", [
    (POL_TINY.replace("epochs = 2", "epochs = 2\nepoch = 1"), "[train] epoch"),
    (POL_TINY + "\n[training]\nepochs = 2\n", "[training]"),
    ("[DEFAULT]\nseed = 4\n" + POL_TINY, "[DEFAULT]"),
    (POL_TINY.replace("max_seq_len = 16", "max_seq_len = 16\nprecision = float32"), "[model] precision"),
], ids=["unknown-key", "unknown-section", "default-section", "removed-key"])
def test_config_names_the_section_or_key_nothing_reads(text, named):
    with pytest.raises(ConfigError, match=re.escape(named)):
        RunConfig(text)


def test_config_rejects_a_repeated_ratio():
    """completion.csv has one row per ratio: a ratio given twice, in any spelling, is a
    config error naming [eval] ratios, not a second row."""
    assert RunConfig(POL_TINY).ratios() == [0.5, 1.0]
    for ratios in ("0.5,0.5,1.0", "0.5,1.0,0.50"):
        with pytest.raises(ConfigError, match=re.escape("[eval] ratios must not repeat a value")):
            RunConfig(POL_TINY.replace("ratios = 0.5,1.0", f"ratios = {ratios}")).ratios()


def _preset_keys():
    for preset in ("pol", "porto"):
        parser = configparser.ConfigParser()
        parser.read(CONFIGS / f"{preset}.ini", encoding="utf-8")
        for section in parser.sections():
            for key in parser[section]:
                yield preset, section, key


# The command that reads each section; gen-data reads [run] first.
READER = {"run": "gen-data", "world": "gen-data", "grid": "gen-data", "routes": "gen-data",
          "anomaly": "gen-data", "model": "train", "train": "train", "eval": "report"}


@pytest.mark.parametrize("preset, section, key", list(_preset_keys()))
def test_a_shipped_preset_without_one_key_exits_1_naming_it(tmp_path, capsys, preset, section, key):
    """The code holds no fallback value: each key a shipped preset sets is
    required by the command that reads it, which names it and writes nothing."""
    parser = configparser.ConfigParser()
    parser.read(CONFIGS / f"{preset}.ini", encoding="utf-8")
    del parser[section][key]
    config = tmp_path / "run.ini"
    with open(config, "w", encoding="utf-8") as fh:
        parser.write(fh)
    corpus, vocab, out = tmp_path / "c.jsonl", tmp_path / "v.tsv", tmp_path / "out"
    dataio.write_corpus(corpus, [dataio.CorpusRecord("t1", [Token("cell", "1,2"), Token("cell", "1,3")])])
    assert run("build-vocab", "--inputs", corpus, "--out", vocab) == 0
    argv = {
        "gen-data": ["gen-data", "--out-dir", out],
        "train": ["train", "--corpus", corpus, "--vocab", vocab, "--out", out, "--loss-log", tmp_path / "loss.csv"],
        "report": ["report", "--kind", "completion", "--out-dir", out, "--checkpoint", tmp_path / "m.ckpt",
                   "--vocab", vocab, "--corpus", corpus, "--thresholds", tmp_path / "thr.csv",
                   "--truth", tmp_path / "truth.csv"],
    }[READER[section]]
    capsys.readouterr()
    assert run(*argv, "--config", config) == 1
    assert capsys.readouterr().err == f"error: config is missing [{section}] {key}\n"
    assert sorted(f.name for f in tmp_path.iterdir()) == ["c.jsonl", "run.ini", "v.tsv"]


def test_score_threshold_flags_are_checked_before_loading(tmp_path, capsys):
    missing = tmp_path / "missing"
    base = ["score", "--checkpoint", missing / "m.ckpt", "--vocab", missing / "v.tsv",
            "--corpus", missing / "c.jsonl", "--out", tmp_path / "s.csv"]
    for flags in ([], ["--thresholds", tmp_path / "thr.csv", "--thresholds-out", tmp_path / "out.csv"],
                  ["--fit-thresholds", "--thresholds", tmp_path / "thr.csv"]):
        capsys.readouterr()
        assert run(*base, *flags) == 1, flags
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("row, message", [
    ("global,,nan,1.0,2.0,-5", "a fit needs a finite mean"),
    ("global,,inf,inf,1.0,8", "a fit needs a finite mean"),
    ("per_agent,a,nan,2.0,nan,8", "a fit needs a finite mean"),
    ("global,,1.0,2.0,-1.0,8", "a finite std >= 0"),
    ("global,,2.0,2.0,0.0,1", "a count >= 2"),
    ("global,,3.5,2.0,1.0,8", "threshold 3.5 is not its fit's mean plus std"),
    ("global,,0.3,0.1,0.2,3", "threshold 0.3 is not its fit's mean plus std"),
    ("per_agent,a,inf,2.0,1.0,8", "threshold inf is not its fit's mean plus std"),
    ("global,a,3.0,2.0,1.0,8", "thresholds scope must be global with no agent"),
], ids=["nan-mean", "inf-mean", "nan-std", "negative-std", "count-below-two", "threshold-not-the-sum",
        "threshold-rounded", "threshold-inf", "global-names-an-agent"])
def test_score_rejects_a_thresholds_row_that_is_not_a_fit(pol_pipeline, capsys, row, message):
    """A thresholds row must be a fit compute_thresholds could make, with its
    threshold exactly mean + std: anything else exits 2 naming the file and line."""
    p = pol_pipeline
    bad, out = p["tmp"] / "bad_thresholds.csv", p["tmp"] / "s.csv"
    bad.write_text(THRESHOLDS_HEAD + row + "\n")
    capsys.readouterr()
    assert run("score", "--checkpoint", p["ckpt"], "--vocab", p["vocab"], "--corpus", p["corpus"],
               "--out", out, "--thresholds", bad) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}:2: ") and err.count("\n") == 1 and message in err, err
    assert not out.exists()


def assert_score_fails(p, corpus, code, message, capsys):
    """`score --fit-thresholds` on corpus exits with code and one `error:` line
    holding message, and writes none of its three outputs."""
    outs = [p["tmp"] / name for name in ("fail_scores.csv", "fail_thr.csv", "fail_pos.csv")]
    capsys.readouterr()
    assert run("score", "--config", p["config"], "--checkpoint", p["ckpt"], "--vocab", p["vocab"],
               "--corpus", corpus, "--out", outs[0], "--fit-thresholds", "--thresholds-out", outs[1],
               "--per-position", outs[2]) == code
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and message in err, err
    assert not [f for f in outs if f.exists()]


def test_score_names_the_trajectory_longer_than_the_model(pol_pipeline, capsys):
    p = pol_pipeline
    lines = p["corpus"].read_text().splitlines()
    record = json.loads(lines[-1])
    record["tokens"] *= 3
    lines[-1] = json.dumps(record)
    corpus = p["tmp"] / "long.jsonl"
    corpus.write_text("\n".join(lines) + "\n")
    n_ids = 1 + 1 + len(record["tokens"]) + 1  # agent, weekday, locations, EOT
    assert n_ids > 17  # max_seq_len 16 scores at most 17 ids
    assert_score_fails(p, corpus, 2, f"trajectory {record['id']!r} has {n_ids} tokens", capsys)


def test_score_rejects_a_corpus_with_a_duplicate_id(porto_pipeline, capsys):
    """Two routes of different lengths under one id: score names the second line
    holding it and writes none of its outputs."""
    p = porto_pipeline
    lines = (p["data"] / "eval_detour.jsonl").read_text().splitlines()
    first = json.loads(lines[1])
    short = dict(first, tokens=first["tokens"][:2])
    corpus = p["tmp"] / "dup.jsonl"
    corpus.write_text("\n".join([*lines, json.dumps(short)]) + "\n")
    assert_score_fails(p, corpus, 2, f"{corpus}:{len(lines) + 1}: duplicate id {first['id']!r}, first on line 2",
                       capsys)


def test_score_rejects_an_empty_corpus(pol_pipeline, capsys):
    p = pol_pipeline
    corpus = p["tmp"] / "empty.jsonl"
    corpus.write_text(p["corpus"].read_text().splitlines()[0] + "\n")  # the provenance line only
    assert dataio.read_corpus(corpus) == []
    assert_score_fails(p, corpus, 2, f"error: {corpus}: no trajectories to score", capsys)


@pytest.mark.parametrize("command", ["score", "train", "report"])
def test_an_unknown_corpus_token_names_the_file_and_trajectory(pol_pipeline, capsys, command):
    p = pol_pipeline
    corpus, out = p["tmp"] / "nowhere.jsonl", p["tmp"] / "out"
    corpus.write_text('{"id": "t1", "tokens": ["staypoint:nowhere"]}\n')
    thresholds = p["tmp"] / "thr.csv"
    assert run("score", "--checkpoint", p["ckpt"], "--vocab", p["vocab"], "--corpus", p["corpus"],
               "--out", p["tmp"] / "s.csv", "--fit-thresholds", "--thresholds-out", thresholds) == 0
    argv = {
        "score": ["score", "--checkpoint", p["ckpt"], "--out", out, "--fit-thresholds"],
        "train": ["train", "--config", p["config"], "--out", out, "--loss-log", p["tmp"] / "out_loss.csv"],
        "report": ["report", "--kind", "completion", "--config", p["config"], "--out-dir", out,
                   "--checkpoint", p["ckpt"], "--thresholds", thresholds, "--truth", p["data"] / "truth.csv"],
    }[command]
    capsys.readouterr()
    assert run(*argv, "--vocab", p["vocab"], "--corpus", corpus) == 2
    assert capsys.readouterr().err == (
        f"error: {corpus}: trajectory 't1': token 'staypoint:nowhere' is not in the vocabulary\n")
    assert not out.exists() and not (p["tmp"] / "out_loss.csv").exists()


def _corpus_with_last_tokens(p, source, name, tokens):
    """A copy of corpus source whose last record has the given location tokens."""
    lines = source.read_text().splitlines()
    record = json.loads(lines[-1])
    record["tokens"] = tokens
    lines[-1] = json.dumps(record)
    corpus = p["tmp"] / name
    corpus.write_text("\n".join(lines) + "\n")
    return corpus, record["id"]


def assert_train_fails(p, corpus, message, capsys):
    """`train` on corpus exits 2 with one `error:` line holding message and
    writes neither its checkpoint nor its loss log."""
    outs = [p["tmp"] / name for name in ("fail.ckpt", "fail_loss.csv")]
    capsys.readouterr()
    assert run("train", "--config", p["config"], "--corpus", corpus, "--vocab", p["vocab"],
               "--out", outs[0], "--loss-log", outs[1]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and message in err, err
    assert not [f for f in outs if f.exists()]


def test_train_takes_max_seq_len_plus_one_ids_and_names_a_longer_trajectory(pol_pipeline, capsys):
    p = pol_pipeline
    tokens = json.loads(p["corpus"].read_text().splitlines()[-1])["tokens"] * 16
    # agent, weekday, locations, EOT: 14 locations are 17 ids, max_seq_len 16 + 1
    fits, _ = _corpus_with_last_tokens(p, p["corpus"], "fits.jsonl", tokens[:14])
    assert run("train", "--config", p["config"], "--corpus", fits, "--vocab", p["vocab"],
               "--out", p["tmp"] / "fits.ckpt") == 0
    long, traj_id = _corpus_with_last_tokens(p, p["corpus"], "long.jsonl", tokens[:15])
    message = f"error: trajectory {traj_id!r} has 18 tokens; this model takes at most 17"
    assert_train_fails(p, long, message, capsys)


def test_train_rejects_an_empty_corpus(pol_pipeline, capsys):
    p = pol_pipeline
    corpus = p["tmp"] / "empty.jsonl"
    corpus.write_text(p["corpus"].read_text().splitlines()[0] + "\n")  # the provenance line only
    assert_train_fails(p, corpus, f"error: {corpus}: no trajectories to train on", capsys)


def test_report_completion_names_the_trajectory_longer_than_the_model(porto_pipeline, capsys):
    p = porto_pipeline
    source = p["data"] / "eval_random_shift.jsonl"
    # 100 locations: ratio 0.5, which runs first, already fills a max_seq_len 48 session
    tokens = (json.loads(source.read_text().splitlines()[-1])["tokens"] * 100)[:100]
    corpus, traj_id = _corpus_with_last_tokens(p, source, "long.jsonl", tokens)
    rep = p["tmp"] / "rep"
    capsys.readouterr()
    assert run("report", "--kind", "completion", "--config", p["config"], "--out-dir", rep,
               "--checkpoint", p["ckpt"], "--vocab", p["vocab"], "--corpus", corpus,
               "--thresholds", p["thresholds"], "--truth", p["data"] / "truth_random_shift.csv") == 2
    err = capsys.readouterr().err
    n_ids = len(tokens) + 2  # SOT, locations, EOT
    assert err == f"error: trajectory {traj_id!r} has {n_ids} tokens; this model takes at most 49 (max_seq_len 48)\n"
    assert not rep.exists()


def test_flag_prefixes_are_not_accepted(pol_pipeline, capsys):
    p = pol_pipeline
    argv = ["train", "--config", p["config"], "--corpus", p["corpus"], "--vocab", p["vocab"],
            "--out", p["tmp"] / "abbrev.ckpt"]
    capsys.readouterr()
    assert run(*argv, "--loss", p["tmp"] / "abbrev_loss.csv") == 1  # a prefix of --loss-log
    assert capsys.readouterr().err.startswith("usage: trajlm")
    assert not (p["tmp"] / "abbrev.ckpt").exists()
    assert run(*argv, "--loss-log", p["tmp"] / "abbrev_loss.csv") == 0


def test_vocab_hash_mismatch_is_a_model_error(pol_pipeline, tmp_path):
    p = pol_pipeline
    other = tmp_path / "other_vocab.tsv"
    other.write_text("special\tPAD\nspecial\tSOT\nspecial\tEOT\nstaypoint\tzzz\n")
    code = run("score", "--checkpoint", p["ckpt"], "--vocab", other, "--corpus", p["corpus"],
               "--out", tmp_path / "s.csv", "--fit-thresholds")
    assert code == 2


VOCAB_SPECIALS = "special\tPAD\nspecial\tSOT\nspecial\tEOT\n"


@pytest.mark.parametrize("text, where, message", [
    (VOCAB_SPECIALS + "bogus\tx\n", ":4", "unknown token kind 'bogus'"),
    (VOCAB_SPECIALS + "weekday\tFunday\n", ":4", "weekday must be one of"),
    (VOCAB_SPECIALS + "staypoint\tx\nstaypoint x\n", ":5", "expected 'kind<TAB>value'"),
    (VOCAB_SPECIALS + "staypoint\tx\nstaypoint\tx\n", "", "vocab contains duplicate tokens"),
    ("special\tSOT\nspecial\tPAD\nspecial\tEOT\n", "", "vocab must start with PAD, SOT, EOT"),
], ids=["unknown-kind", "bad-value", "no-tab", "duplicate-token", "specials-out-of-order"])
def test_score_names_the_vocab_file_it_cannot_load(pol_pipeline, capsys, text, where, message):
    p = pol_pipeline
    bad, out = p["tmp"] / "bad_vocab.tsv", p["tmp"] / "s.csv"
    bad.write_text(text)
    capsys.readouterr()
    assert run("score", "--checkpoint", p["ckpt"], "--vocab", bad, "--corpus", p["corpus"],
               "--out", out, "--fit-thresholds") == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}{where}: {message}") and err.count("\n") == 1, err
    assert not out.exists()


@pytest.mark.parametrize("conditioning, stdin, token", [
    ("agent_id:nobody", "", "agent_id:nobody"),
    ("weekday:Monday", "staypoint:nowhere\n", "staypoint:nowhere"),
], ids=["conditioning", "event"])
def test_stream_names_an_unknown_token_in_one_plain_line(pol_pipeline, monkeypatch, capsys, conditioning, stdin,
                                                          token):
    p = pol_pipeline
    thresholds = p["tmp"] / "thr.csv"
    assert run("score", "--checkpoint", p["ckpt"], "--vocab", p["vocab"], "--corpus", p["corpus"],
               "--out", p["tmp"] / "s.csv", "--fit-thresholds", "--thresholds-out", thresholds) == 0
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    capsys.readouterr()
    assert run("stream", "--checkpoint", p["ckpt"], "--vocab", p["vocab"], "--thresholds", thresholds,
               "--conditioning", conditioning) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: token {token!r} is not in the vocabulary\n"


def test_a_weekday_without_an_agent_heads_the_ids(tmp_path):
    """The record's fields give its head even without an agent: build-vocab puts the
    weekday in the vocabulary, and the encoder puts it first, with no SOT."""
    corpus, vocab_path = tmp_path / "c.jsonl", tmp_path / "v.tsv"
    corpus.write_text('{"id": "t1", "weekday": "Monday", "tokens": ["staypoint:work", "staypoint:home"]}\n')
    assert run("build-vocab", "--inputs", corpus, "--out", vocab_path) == 0
    vocab = Vocab.load(vocab_path)
    enc = dataio.encode_record(dataio.read_corpus(corpus)[0], vocab)
    assert [str(vocab.token(i)) for i in enc.ids] == [
        "weekday:Monday", "staypoint:work", "staypoint:home", "special:EOT"]
    assert enc.prefix_len == 1


def test_corrupt_checkpoint_exits_with_one_line_error(pol_pipeline, capsys):
    p = pol_pipeline
    data = p["ckpt"].read_bytes()
    vocab_hash = Vocab.load(p["vocab"]).hash().encode()
    mutations = {
        "config-not-a-number": data.replace(b"d_model=16", b"d_model=x6", 1),
        "config-not-utf8": data.replace(b"d_model=16", b"d_model=\xff6", 1),
        "vocab-hash-not-utf8": data.replace(vocab_hash, b"\xff" + vocab_hash[1:], 1),
        "param-name-not-utf8": data.replace(b"tok_emb", b"\xffok_emb", 1),
        "config-zero-heads": data.replace(b"n_heads=2", b"n_heads=0", 1),
        "config-zero-layers": data.replace(b"n_layers=1", b"n_layers=0", 1),
        "config-missing-key": data.replace(b"vocab_size=", b"#ocab_size=", 1),  # a comment line now
    }
    for what, mutated in mutations.items():
        assert mutated != data, what
        bad = p["tmp"] / f"{what}.ckpt"
        bad.write_bytes(mutated)
        capsys.readouterr()
        code = run("score", "--checkpoint", bad, "--vocab", p["vocab"], "--corpus", p["corpus"],
                   "--out", p["tmp"] / "s.csv", "--fit-thresholds")
        err = capsys.readouterr().err
        assert code == 2, what
        assert err.startswith("error:") and err.count("\n") == 1, (what, err)


def test_eval_per_agent_quotes_agent_with_comma(tmp_path):
    scores, truth, out = tmp_path / "scores.csv", tmp_path / "truth.csv", tmp_path / "eval.csv"
    dataio.write_scores(scores, [
        ScoreReport(traj_id="t1", agent="a,b", perplexity=5.0, threshold=3.0),
        ScoreReport(traj_id="t2", agent="a,b", perplexity=2.0, threshold=3.0),
    ])
    dataio.write_truth(truth, [dataio.TruthRecord("t1", "anomalous"), dataio.TruthRecord("t2", "normal")])
    assert run("eval", "--scores", scores, "--truth", truth, "--out", out, "--per-agent") == 0
    rows = list(csv.reader(l for l in out.read_text().splitlines() if not l.startswith("#")))
    assert rows[0] == ["agent", "f1", "pr_auc", "tp", "fp", "fn", "tn"]
    assert rows[1] == ["a,b", "1.0", "1.0", "1", "0", "0", "1"]


def test_shipped_pol_preset_counts(tmp_path):
    out = tmp_path / "data"
    assert run("gen-data", "--config", CONFIGS / "pol.ini", "--out-dir", out) == 0
    records = dataio.read_corpus(out / "corpus_staypoint.jsonl")
    assert len(records) == 50 * 100
    truth = dataio.read_truth(out / "truth.csv")
    assert list(truth) == [r.traj_id for r in records]
    assert sum(1 for t in truth.values() if t.label == "anomalous") == 5 * 14


def test_shipped_porto_preset_od_groups(tmp_path):
    out = tmp_path / "data"
    assert run("gen-data", "--config", CONFIGS / "porto.ini", "--out-dir", out) == 0
    for name in ("train.jsonl", "eval_random_shift.jsonl", "eval_detour.jsonl"):
        records = dataio.read_corpus(out / name)
        groups = Counter((r.tokens[0], r.tokens[-1]) for r in records)
        # every route sits in a surviving group: no endpoint group falls under 25
        assert sum(n for n in groups.values() if n >= 25) == len(records)


def test_artifacts_embed_config_hash(pol_pipeline):
    p = pol_pipeline
    corpus_first_line = p["corpus"].read_text().splitlines()[0]
    assert "_meta" in corpus_first_line and "tool_version" in corpus_first_line
    loss_head = p["loss"].read_text().splitlines()[0]
    assert loss_head.startswith("# config_hash=")
    assert b"config_hash" in p["ckpt"].read_bytes()


def readme_commands() -> list[list[str]]:
    """The argv of every `trajlm ...` command in README's sh blocks: backslash
    continuations are joined and any text before `trajlm` (a pipe) is dropped."""
    blocks = re.findall(r"^```sh\n(.*?)^```", README.read_text(encoding="utf-8"), flags=re.M | re.S)
    lines = [line for block in blocks for line in block.replace("\\\n", " ").splitlines()]
    return [shlex.split(line[line.index("trajlm "):])[1:] for line in lines if "trajlm " in line]


def test_readme_commands_parse(capsys):
    """Each README command parses, and spells every flag in full: argparse would
    also accept a prefix of a flag, which hides a rename."""
    commands = readme_commands()
    assert len(commands) == 10
    parser = build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: trajlm {shlex.join(argv)}")
        capsys.readouterr()
        assert run(argv[0], "--help") == 0
        flags = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
        assert {a for a in argv if a.startswith("--")} <= flags, argv


def _has_mallopt() -> bool:
    try:
        ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    return True


@pytest.mark.skipif(not (sys.platform.startswith("linux") and _has_mallopt()),
                    reason="needs glibc's mallopt on Linux")
def test_cli_keeps_freed_heap_pages_for_the_next_training_step(porto_config, tmp_path):
    """After `trajlm train` has run in a process, a porto-shaped training (16-row batches
    of 30-40 cells, d_model 64) reuses its freed heap pages instead of faulting them back in."""
    text = porto_config.read_text()
    for old, new in (("d_model = 16", "d_model = 64"), ("n_heads = 2", "n_heads = 4"),
                     ("d_ff = 32", "d_ff = 256"), ("n_layers = 1", "n_layers = 2"),
                     ("batch_size = 8", "batch_size = 16")):
        assert old in text
        text = text.replace(old, new)
    porto_config.write_text(text)
    rng = np.random.default_rng(0)
    records = []
    for i in range(64):
        col, row = rng.integers(0, 16, size=2)
        cells = []
        for _ in range(rng.integers(30, 41)):
            col, row = (col + rng.integers(-1, 2)) % 16, (row + rng.integers(-1, 2)) % 16
            cells.append(Token("cell", f"{col},{row}"))
        records.append(dataio.CorpusRecord(f"r{i}", cells))
    corpus, vocab_path = tmp_path / "routes.jsonl", tmp_path / "v.tsv"
    dataio.write_corpus(corpus, records)
    assert run("build-vocab", "--inputs", corpus, "--out", vocab_path) == 0
    assert run("train", "--config", porto_config, "--corpus", corpus, "--vocab", vocab_path,
               "--out", tmp_path / "m.ckpt") == 0
    cfg, vocab = RunConfig.from_path(porto_config), Vocab.load(vocab_path)
    encoded = [dataio.encode_record(r, vocab) for r in dataio.read_corpus(corpus)]
    model = init_model(cfg.model_config(len(vocab)))
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    train(model, encoded, cfg.train_config())
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 1000
