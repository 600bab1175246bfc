import re
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trajlm import dataio
from trajlm.scoring import ScoreReport, ThresholdTable, classify, compute_thresholds
from trajlm.vocab import Token

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
