import csv
import io
import math
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trajlm import dataio
from trajlm.model import ModelConfig, init_model
from trajlm.scoring import ScoreReport, SurprisalTrace, ThresholdTable, classify, compute_thresholds, score_corpus
from trajlm.vocab import EOT, EOT_ID, PAD, SOT, SOT_ID, EncodedTrajectory, Token, Vocab

TRUTH = [
    dataio.TruthRecord("r1", "anomalous", "detour", 0.3, 3),
    dataio.TruthRecord("r2", "normal"),
    dataio.TruthRecord("a,1", "anomalous", "skip_routine", pos=4),
]
SCORES = [
    ScoreReport(traj_id="r1", agent=None, perplexity=12.5, threshold=9.75),
    ScoreReport(traj_id="r2", agent="a,1", perplexity=1 / 3, threshold=9.75),
]
TABLE = ThresholdTable({None: (8.0, 1.75, 30), "a,1": (4.0, 0.5, 10), "b": (0.1, 0.2, 3)})


def test_write_csv_layout(tmp_path):
    path = tmp_path / "t.csv"
    dataio.write_csv(path, ["a", "b", "c"], [["x,y", None, 0.1], [1, 'say "hi"', 2.5]], "abc")
    assert path.read_bytes() == (
        b"# config_hash=abc tool_version=" + dataio.TOOL_VERSION.encode() + b"\n"
        b"a,b,c\n"
        b'"x,y",,0.1\n'
        b'1,"say ""hi""",2.5\n'
    )


def _reference(header, rows, config_hash="h") -> bytes:
    """The bytes of a CSV artifact written row by row through csv.writer."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return (dataio.provenance_comment(config_hash) + buf.getvalue()).encode("utf-8")


def _assert_writes_reference(path, write, header, rows):
    """write(path) leaves the bytes of _reference(header, rows), or raises what writing them raises."""
    try:
        expected = _reference(header, rows)
    except csv.Error:  # the csv module of Python 3.10 cannot write a NUL
        with pytest.raises(csv.Error):
            write(path)
        return
    write(path)
    assert path.read_bytes() == expected


# Every kind of field a writer meets, the byte traps among them: csv.writer writes
# a lone empty field as '""' but an empty field among others as nothing, quotes a
# field holding '\r' only from Python 3.13, and writes -0.0, 0.0, 1, 1.0 and True
# differently though they compare equal.
FIELDS = [None, "", ",", '"', "a\nb", "a\rb", " lead", "#hash", "é日本", "plain", math.nan, math.inf,
          -math.inf, -0.0, 0.0, 5e-324, 0.1, 1e22, 1, 1.0, True, False, np.float64(0.1),
          np.float64(-0.0), np.int64(-3), Token("cell", "15,10")]
FIXED_ROWS = [[""], [None], ["", "x"], ["x", ""], ["", ""], [None, None], [], FIELDS, FIELDS[::-1],
              [" "], ["#"], ["\r"], [0.0, -0.0, 0.0], [-0.0], [1, 1.0, True]]
TEXTS = st.one_of(st.text(max_size=5), st.sampled_from(["", ",", '"', "a\nb", "a\rb", " lead", "#", "é"]))
NUMBERS = st.one_of(st.floats(), st.integers(), st.sampled_from([0.0, -0.0, 5e-324, 1.0, 1]))
FIELD = st.one_of(st.none(), TEXTS, NUMBERS, st.booleans(), st.sampled_from(FIELDS))


def test_write_csv_writes_the_bytes_of_csv_writer(tmp_path):
    for i, rows in enumerate([FIXED_ROWS, *([row] for row in FIXED_ROWS)]):
        _assert_writes_reference(tmp_path / f"{i}.csv", lambda p: dataio.write_csv(p, ["a", "b"], rows, "h"),
                                 ["a", "b"], rows)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.lists(TEXTS, min_size=1, max_size=3), st.lists(st.lists(FIELD, max_size=4), max_size=6))
def test_write_csv_writes_the_bytes_of_csv_writer_on_drawn_rows(header, rows):
    with tempfile.TemporaryDirectory() as tmp:
        _assert_writes_reference(Path(tmp) / "t.csv", lambda p: dataio.write_csv(p, header, rows, "h"),
                                 header, rows)


def _surprisal_rows(reports, vocab, encoded):
    return [[r.traj_id, pos, str(vocab.token(t.ids[pos])), value]
            for r, t in zip(reports, encoded)
            for pos, value in zip(r.surprisal.target_positions, r.surprisal.values.tolist())]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(st.tuples(TEXTS, st.none() | TEXTS, st.floats(), st.floats()), min_size=1, max_size=6))
def test_typed_writers_write_the_bytes_of_csv_writer(samples):
    """Each typed writer's file equals its rows written through csv.writer. The
    surprisal reports share traces as score_corpus shares them, and beyond it:
    each odd report takes the trace of the one before, whatever its ids."""
    truth = [dataio.TruthRecord(i, agent or "", i, p, len(i) or None, None) for i, agent, p, _ in samples]
    reports = [ScoreReport(i, p, t, agent) for i, agent, p, t in samples]
    table = ThresholdTable({agent: (p, t, n + 2) for n, (_, agent, p, t) in enumerate(samples)})
    scopes = [("global", None)] if None in table.fits else []
    scopes += [("per_agent", agent) for agent in sorted(a for a in table.fits if a is not None)]
    cells = sorted({Token("cell", text) for i, agent, _, _ in samples for text in (i, agent or i)})
    vocab = Vocab([PAD, SOT, EOT, *cells])
    encoded = [EncodedTrajectory([SOT_ID, vocab.id(Token("cell", i)), vocab.id(Token("cell", agent or i)), EOT_ID], 1,
                                 traj_id=i) for i, agent, _, _ in samples]
    traces = [SurprisalTrace(np.array([p, t, 0.5])) for _, _, p, t in samples]
    traced = [ScoreReport(i, p, t, agent, traces[n - n % 2]) for n, (i, agent, p, t) in enumerate(samples)]
    cases = [
        (lambda p: dataio.write_truth(p, truth, "h"), dataio.TRUTH_HEADER,
         [[r.traj_id, r.label, r.kind, r.ratio, r.dist, r.pos] for r in truth]),
        (lambda p: dataio.write_scores(p, reports, "h"), dataio.SCORES_HEADER,
         [[r.traj_id, r.agent, r.perplexity, r.threshold, r.verdict] for r in reports]),
        (lambda p: dataio.write_thresholds(p, table, "h"), dataio.THRESHOLDS_HEADER,
         [[scope, agent, table.threshold_for(scope, agent), *table.fits[agent]] for scope, agent in scopes]),
        (lambda p: dataio.write_surprisals(p, traced, vocab, encoded, "h"), ["id", "pos", "token", "surprisal"],
         _surprisal_rows(traced, vocab, encoded)),
    ]
    with tempfile.TemporaryDirectory() as tmp:
        for n, (write, header, rows) in enumerate(cases):
            _assert_writes_reference(Path(tmp) / f"{n}.csv", write, header, rows)


def test_a_repeat_writes_its_first_copys_rows_under_its_own_id(tmp_path):
    vocab = Vocab([PAD, SOT, EOT, Token("cell", "1,2"), Token("cell", "3")])
    ids = [[1, 3, 4, 2], [1, 4, 3, 3, 2], [1, 3, 4, 2], [1, 3, 4, 2]]
    encoded = [EncodedTrajectory(row, 1, traj_id=f"t{n}") for n, row in enumerate(ids)]
    model = init_model(ModelConfig(vocab_size=len(vocab), d_model=8, n_heads=2, n_layers=1, d_ff=8, max_seq_len=8, seed=0))
    reports, _ = score_corpus(model, encoded)
    assert reports[2].surprisal is reports[3].surprisal is reports[0].surprisal
    path = tmp_path / "surprisals.csv"
    dataio.write_surprisals(path, reports, vocab, encoded)
    by_id = {}
    for row in list(csv.reader(io.StringIO(path.read_text())))[2:]:
        by_id.setdefault(row[0], []).append(row[1:])
    assert by_id["t2"] == by_id["t3"] == by_id["t0"] != by_id["t1"]
    assert [row[1] for row in by_id["t0"]] == ["cell:1,2", "cell:3", "special:EOT"]
    assert path.read_bytes() == _reference(["id", "pos", "token", "surprisal"],
                                           _surprisal_rows(reports, vocab, encoded), "")


def test_trajectories_sharing_a_trace_each_write_their_own_tokens(tmp_path):
    vocab = Vocab([PAD, SOT, EOT, Token("cell", "1,2"), Token("cell", "3")])
    trace = SurprisalTrace(np.array([0.25, 1.5, 3.0]))
    encoded = [EncodedTrajectory(row, 1, traj_id=i) for i, row in
               [("a", [1, 3, 4, 2]), ("b", [1, 4, 3, 2]), ("a2", [1, 3, 4, 2]), ("b2", [1, 4, 3, 2])]]
    reports = [ScoreReport(t.traj_id, 5.0, 4.0, surprisal=trace) for t in encoded]
    path = tmp_path / "surprisals.csv"
    dataio.write_surprisals(path, reports, vocab, encoded)
    rows = list(csv.reader(io.StringIO(path.read_text())))[2:]
    assert [row[2] for row in rows] == ["cell:1,2", "cell:3", "special:EOT", "cell:3", "cell:1,2", "special:EOT"] * 2
    assert path.read_bytes() == _reference(["id", "pos", "token", "surprisal"],
                                           _surprisal_rows(reports, vocab, encoded), "")


def _crlf(path):
    """Rewrite path as earlier versions wrote it: a '\\n' comment line, then '\\r\\n' rows."""
    comment, rest = path.read_bytes().split(b"\n", 1)
    crlf = path.with_name("crlf_" + path.name)
    crlf.write_bytes(comment + b"\n" + rest.replace(b"\n", b"\r\n"))
    return crlf


@pytest.mark.parametrize("write, read, value", [
    (dataio.write_truth, dataio.read_truth, TRUTH),
    (dataio.write_scores, dataio.read_scores, SCORES),
    (dataio.write_thresholds, dataio.read_thresholds, TABLE),
], ids=["truth", "scores", "thresholds"])
def test_readers_accept_crlf_rows(tmp_path, write, read, value):
    path = tmp_path / "artifact.csv"
    write(path, value, "h")
    assert b"\r" not in path.read_bytes()
    got = read(path)
    assert (list(got.values()) if isinstance(got, dict) else got) == value
    crlf = _crlf(path)
    assert crlf.read_bytes().count(b"\r\n") == path.read_bytes().count(b"\n") - 1
    assert read(crlf) == read(path)


def test_read_corpus_ignores_a_label_key(tmp_path):
    """Corpora carry no ground truth; a line from an earlier version still holding
    "label" loads like any other, and writing it back drops the key."""
    path = tmp_path / "old.jsonl"
    path.write_text(
        '{"agent": "a", "id": "t1", "label": "anomalous", "tokens": ["staypoint:home"], "weekday": "Monday"}\n'
        '{"id": "t2", "label": "normal", "tokens": ["cell:1,2"]}\n'
    )
    records = dataio.read_corpus(path)
    assert records == [
        dataio.CorpusRecord("t1", [Token("staypoint", "home")], agent="a", weekday="Monday"),
        dataio.CorpusRecord("t2", [Token("cell", "1,2")]),
    ]
    again = tmp_path / "new.jsonl"
    dataio.write_corpus(again, records)
    assert dataio.read_corpus(again) == records and '"label"' not in again.read_text()


def test_agent_named_global_keeps_its_own_threshold_provenance(tmp_path):
    table = compute_thresholds([10.0, 12.0, 1.0, 2.0, 3.0], ["a", "a", "global", "global", "global"])
    assert table.fits[None] == (5.6, pytest.approx(4.498888752), 5)
    assert table.fits["global"] == (2.0, pytest.approx(0.816496581), 3)
    path = tmp_path / "thresholds.csv"
    dataio.write_thresholds(path, table, "h")
    assert dataio.read_thresholds(path) == table


@pytest.mark.parametrize("rows, where, message", [
    (["global,,3.0,2.0,1.0,8", "global,,9.0,5.0,4.0,8"], 3, "repeated global threshold"),
    (["per_agent,a,3.0,2.0,1.0,8", "global,,9.0,5.0,4.0,8", "per_agent,a,4.0,3.0,1.0,8"], 4,
     "repeated per_agent threshold ['per_agent', 'a'"),
], ids=["global", "per-agent"])
def test_read_thresholds_names_a_repeated_row(tmp_path, rows, where, message):
    path = tmp_path / "thresholds.csv"
    path.write_text("\n".join([",".join(dataio.THRESHOLDS_HEADER), *rows]) + "\n")
    with pytest.raises(dataio.DataError, match=re.escape(f"{path}:{where}: {message}")):
        dataio.read_thresholds(path)


AGENTS = st.one_of(st.sampled_from(["global", "a,b", 'say "hi"']), st.text(alphabet='ab,"', min_size=1, max_size=4))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.floats(min_value=1e-3, max_value=1e6), AGENTS), min_size=2, max_size=24))
def test_fitted_thresholds_and_their_verdicts_survive_the_files(samples):
    ppls, agents = (list(column) for column in zip(*samples))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # an agent with one sample gets no fit
        table = compute_thresholds(ppls, agents)
    scopes = [("global" if key is None else "per_agent", key) for key in table.fits]
    with tempfile.TemporaryDirectory() as tmp:
        thresholds, scores = Path(tmp) / "thresholds.csv", Path(tmp) / "scores.csv"
        dataio.write_thresholds(thresholds, table)
        back = dataio.read_thresholds(thresholds)
        assert back == table
        for scope, key in scopes:
            assert back.threshold_for(scope, key).hex() == table.threshold_for(scope, key).hex()
        reports = [classify(f"t{i}", ppl, back, *(("per_agent", a) if a in back.fits else ("global", a)))
                   for i, (ppl, a) in enumerate(samples)]
        reports += [classify(f"at{i}", back.threshold_for(scope, key), back, scope, key)
                    for i, (scope, key) in enumerate(scopes)]  # exactly at the threshold: normal
        assert {r.verdict for r in reports[len(samples):]} == {"normal"}
        dataio.write_scores(scores, reports)
        assert [r.verdict for r in dataio.read_scores(scores)] == [r.verdict for r in reports]


def test_read_truth_names_a_duplicate_id(tmp_path):
    path = tmp_path / "truth.csv"
    path.write_text("id,label\nt1,anomalous\nt2,normal\nt1,normal\n")
    with pytest.raises(dataio.DataError, match=f"{path}:4: duplicate id 't1'"):
        dataio.read_truth(path)
