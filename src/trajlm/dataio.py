"""File formats shared across the pipeline.

Corpora are line-delimited JSON records
    {"id": str, "agent": str?, "weekday": str?, "tokens": [str]}
where each token string is "kind:value". A corpus is model input and holds no
ground truth, which lives only in the truth CSV. An optional first record
{"_meta": {...}} carries the config hash and tool version; readers skip it, and
ignore any other key, such as the answer key that earlier corpora carried. CSV
artifacts start with a '#' comment line carrying the same provenance;
`write_csv` writes all of them, the loss log included. Their fields are
rendered as csv.writer(fh, lineterminator="\\n") writes them, one distinct field
at a time: each distinct text is quoted once per file by the csv module itself,
so its quoting rules stay the running Python's, and a trace scored for several
trajectories has its per-position rows rendered once.

`encode_record` frames a record: its agent and weekday fields head the ids, or
SOT when it has neither, and EOT ends them; so `tokens` holds no special,
agent_id or weekday token.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import types
from dataclasses import dataclass
from functools import lru_cache

from .errors import DataError, DomainError, VocabError, decoding
from .scoring import ScoreReport, ThresholdTable
from .vocab import EOT, SOT, EncodedTrajectory, Token, Vocab, encode

TOOL_VERSION = "0.1.0"

TRUTH_HEADER = ["id", "label", "kind", "ratio", "dist", "pos"]
SCORES_HEADER = ["id", "agent", "perplexity", "threshold", "verdict"]
THRESHOLDS_HEADER = ["scope", "agent", "threshold", "mean", "std", "count"]
LOSS_HEADER = ["epoch", "loss"]
LABELS = ("normal", "anomalous")  # the truth labels, and the verdicts of a scores file


@dataclass
class CorpusRecord:
    traj_id: str
    tokens: list[Token]
    agent: str | None = None
    weekday: str | None = None


@dataclass
class TruthRecord:
    traj_id: str
    label: str
    kind: str = ""
    ratio: float | None = None
    dist: int | None = None
    pos: int | None = None  # planted slot index, for localization checks


# Token kinds a corpus record's tokens may not hold: encode_record adds the
# specials, and the record's agent and weekday fields give the conditioning.
FRAMING_KINDS = ("special", "agent_id", "weekday")


def _head(rec: CorpusRecord) -> list[Token]:
    """The conditioning tokens of a record: its agent, then its weekday, when given."""
    return list(_head_of(rec.agent, rec.weekday))


@lru_cache(maxsize=4096)
def _head_of(agent: str | None, weekday: str | None) -> tuple[Token, ...]:
    # Tokens are frozen, so a corpus's records share one checked head per (agent, weekday).
    fields = (("agent_id", agent), ("weekday", weekday))
    return tuple(Token(kind, value) for kind, value in fields if value is not None)


def full_tokens(rec: CorpusRecord) -> list[Token]:
    """Conditioning tokens plus locations, in model order (no specials)."""
    return _head(rec) + rec.tokens


def encode_record(rec: CorpusRecord, vocab: Vocab) -> EncodedTrajectory:
    """The one framing of a record: [agent, weekday, ..., EOT] with the fields it
    has, in that order, heading the ids; [SOT, ..., EOT] when it has neither.
    The head is the trajectory's prefix_len."""
    head = _head(rec) or [SOT]
    return encode([*head, *rec.tokens, EOT], vocab, len(head), traj_id=rec.traj_id, agent=rec.agent)


def record_tokens(texts, path, lineno: int, known: dict[str, Token] | None = None) -> list[Token]:
    """The tokens of 'kind:value' texts, as a record's `tokens` may hold them: none of
    FRAMING_KINDS. Any other text is a DataError naming path:lineno.

    known maps texts already accepted to their tokens, which are frozen and so
    shared; a text found there is not parsed again, and each new one accepted
    is added to it.
    """
    known = {} if known is None else known
    tokens = []
    for text in texts:
        token = known.get(text) if isinstance(text, str) else None
        if token is None:
            try:
                token = Token.parse(text)
            except DomainError as e:
                raise DataError(f"{path}:{lineno}: {e}") from e
            if token.kind in FRAMING_KINDS:
                raise DataError(f"{path}:{lineno}: tokens may not hold {str(token)!r}, "
                                "which the encoder or the agent and weekday fields supply")
            known[text] = token
        tokens.append(token)
    return tokens


def stream_record(conditioning: str) -> CorpusRecord:
    """The tokenless record `trajlm stream` scores, headed by conditioning: one CSV row of
    agent_id and weekday tokens, as encode_record orders them, so a token holding a comma
    is quoted as in scores.csv; any other row is a DataError."""
    try:
        row = next(csv.reader([conditioning], strict=True, skipinitialspace=True), [])
    except csv.Error as e:
        raise DataError(f"--conditioning must be one CSV row, got {conditioning!r}: {e}") from e
    head = [Token.parse(t.strip()) for t in row if t.strip()]
    fields = {t.kind: t.value for t in head}
    rec = CorpusRecord("<stdin>", [], fields.get("agent_id"), fields.get("weekday"))
    if _head(rec) != head:
        raise DataError(f"--conditioning must be agent_id:<agent>, then weekday:<day>, got {conditioning!r}")
    return rec


def provenance(config_hash: str = "") -> dict[str, str]:
    return {"config_hash": config_hash, "tool_version": TOOL_VERSION}


def write_corpus(path, records: list[CorpusRecord], config_hash: str = "") -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"_meta": provenance(config_hash)}, sort_keys=True) + "\n")
        for rec in records:
            obj: dict = {"id": rec.traj_id}
            if rec.agent is not None:
                obj["agent"] = rec.agent
            if rec.weekday is not None:
                obj["weekday"] = rec.weekday
            obj["tokens"] = [str(t) for t in rec.tokens]
            fh.write(json.dumps(obj, sort_keys=True) + "\n")


def read_corpus(path) -> list[CorpusRecord]:
    """The records of a corpus file: ids are unique strings, agent and weekday
    are strings when given, and tokens holds no FRAMING_KINDS token; any other
    line is a DataError naming it."""
    records = []
    first_line: dict[str, int] = {}
    known: dict[str, Token] = {}  # each distinct token text is parsed once
    with decoding(path), open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as e:
                raise DataError(f"{path}:{lineno}: invalid JSON: {e}") from e
            if not isinstance(obj, dict):
                raise DataError(
                    f"{path}:{lineno}: corpus record must be a JSON object, got {type(obj).__name__}"
                )
            if "_meta" in obj:
                continue
            try:
                rec = CorpusRecord(
                    traj_id=obj["id"],
                    tokens=record_tokens(obj["tokens"], path, lineno, known),
                    agent=obj.get("agent"),
                    weekday=obj.get("weekday"),
                )
            except (KeyError, TypeError) as e:
                raise DataError(f"{path}:{lineno}: bad corpus record: {e}") from e
            for key, value in (("id", rec.traj_id), ("agent", rec.agent), ("weekday", rec.weekday)):
                if not isinstance(value, str) and (key == "id" or value is not None):
                    raise DataError(f"{path}:{lineno}: corpus {key} must be a string, got {value!r}")
            if rec.traj_id in first_line:
                raise DataError(
                    f"{path}:{lineno}: duplicate id {rec.traj_id!r}, first on line {first_line[rec.traj_id]}"
                )
            first_line[rec.traj_id] = lineno
            records.append(rec)
    return records


def read_encoded(path, vocab: Vocab) -> list[EncodedTrajectory]:
    """The corpus at path, framed by encode_record; an unknown token is a DataError naming file and trajectory."""
    encoded = []
    for rec in read_corpus(path):
        try:
            encoded.append(encode_record(rec, vocab))
        except VocabError as e:
            raise DataError(f"{path}: trajectory {rec.traj_id!r}: {e}") from e
    return encoded


def provenance_comment(config_hash: str) -> str:
    """The '#' first line of every CSV artifact: config hash and tool version."""
    meta = provenance(config_hash)
    return f"# config_hash={meta['config_hash']} tool_version={meta['tool_version']}\n"


class _Fields:
    """Renders CSV fields as csv.writer(fh, lineterminator="\\n") writes them: None
    as an empty field, an int or float as its str, and any other field's text
    quoted by the csv module itself. Each distinct text is quoted once, and
    each distinct nonzero float rendered once."""

    def __init__(self):
        # writerow returns what its file's write returns, here the line itself. The line
        # terminator is the file's: the csv module quotes a field holding one of its characters.
        self._writerow = csv.writer(types.SimpleNamespace(write=str), lineterminator="\n").writerow
        # csv.writer writes a lone empty field as '""', but an empty field among others as nothing.
        self._quoted = {"": ""}
        self._floats: dict[float, str] = {}

    def text(self, value) -> str:
        """The field's text, as csv.writer writes it among other fields."""
        kind = type(value)
        if kind is float and value:  # 0.0 == -0.0, but their texts differ
            text = self._floats.get(value)
            if text is None:
                text = self._floats[value] = str(value)
            return text
        if kind is int or kind is float:  # the text of an int or float needs no quotes
            return str(value)
        if value is None:
            return ""
        text = value if isinstance(value, str) else str(value)
        quoted = self._quoted.get(text)
        if quoted is None:
            quoted = self._quoted[text] = self._writerow((text,))[:-1]
        return quoted

    def line(self, row) -> str:
        """One row's line, as csv.writer writes it."""
        fields = list(map(self.text, row))
        return ('""' if fields == [""] else ",".join(fields)) + "\n"


def write_csv(path, header: list[str], rows, config_hash: str = "") -> None:
    """Write a CSV artifact: the provenance comment, the header, then rows.

    Every line ends in a bare newline, and one _Fields renders the file's fields
    as csv.writer does: None is an empty field and a float is written as its
    repr. rows is an iterable of field sequences; a typed writer that renders
    its own lines passes a function instead, which is given the file's field
    renderer (the _Fields's text method) and returns the lines of the rows.
    """
    fields = _Fields()
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(provenance_comment(config_hash))
        fh.write(fields.line(header))
        fh.writelines(rows(fields.text) if callable(rows) else map(fields.line, rows))


def write_truth(path, records: list[TruthRecord], config_hash: str = "") -> None:
    rows = ([r.traj_id, r.label, r.kind, r.ratio, r.dist, r.pos] for r in records)
    write_csv(path, TRUTH_HEADER, rows, config_hash)


def _csv_rows(path, header: list[str], what: str, prefix: bool = False):
    """Yield (path:line, fields) for each data row of the CSV artifact at path, after its header.

    Every row has exactly the header's fields or, with prefix, at least them.
    '#' provenance lines and blank lines are skipped. Each line is parsed on its
    own: the artifacts never quote a line break, and line numbers stay exact.
    """
    with decoding(path), open(path, "r", encoding="utf-8", newline="") as fh:
        rows = (
            (f"{path}:{lineno}", next(csv.reader([line])))
            for lineno, line in enumerate(fh, start=1)
            if line.strip() and not line.startswith("#")
        )
        n = len(header)
        first = next(rows, (path, None))[1]
        if first is None or (first[:n] if prefix else first) != header:
            raise DataError(f"{path}: expected {what} CSV header {','.join(header)}, got {first}")
        for where, row in rows:
            if len(row) < n or (not prefix and len(row) > n):
                raise DataError(f"{where}: {what} row needs {n} fields, got {row}")
            yield where, row


def _label(where: str, value: str, what: str) -> str:
    if value not in LABELS:
        raise DataError(f"{where}: {what} must be one of {', '.join(LABELS)}, got {value!r}")
    return value


def read_truth(path) -> dict[str, TruthRecord]:
    """Truth rows by id; a repeated id is a DataError naming its line."""
    out: dict[str, TruthRecord] = {}
    for where, row in _csv_rows(path, TRUTH_HEADER[:2], "truth", prefix=True):
        if row[0] in out:
            raise DataError(f"{where}: duplicate id {row[0]!r}")
        _label(where, row[1], "truth label")
        try:
            rec = TruthRecord(
                traj_id=row[0],
                label=row[1],
                kind=row[2] if len(row) > 2 else "",
                ratio=float(row[3]) if len(row) > 3 and row[3] else None,
                dist=int(row[4]) if len(row) > 4 and row[4] else None,
                pos=int(row[5]) if len(row) > 5 and row[5] else None,
            )
        except ValueError as e:
            raise DataError(f"{where}: bad truth row {row}: {e}") from e
        out[rec.traj_id] = rec
    return out


def truth_labels(truth: dict[str, TruthRecord]) -> dict[str, str]:
    return {k: v.label for k, v in truth.items()}


def read_loss_log(path) -> list[tuple[int, float]]:
    """The (epoch, loss) rows of a loss log, epochs counting from 0; any other row is a DataError naming its line."""
    rows = []
    for where, (epoch, loss) in _csv_rows(path, LOSS_HEADER, "loss log"):
        if epoch != str(len(rows)):
            raise DataError(f"{where}: loss log epoch {epoch!r} should be {len(rows)}")
        try:
            rows.append((len(rows), float(loss)))
        except ValueError as e:
            raise DataError(f"{where}: bad loss {loss!r}: {e}") from e
    return rows


def write_scores(path, reports: list[ScoreReport], config_hash: str = "") -> None:
    def lines(field):
        return (f"{field(r.traj_id)},{field(r.agent)},{field(r.perplexity)},{field(r.threshold)},{field(r.verdict)}\n"
                for r in reports)

    write_csv(path, SCORES_HEADER, lines, config_hash)


def read_scores(path) -> list[ScoreReport]:
    """Score rows; a repeated id, a NaN perplexity or threshold, or a verdict other
    than the one ScoreReport computes from them, is a DataError naming its line."""
    out = []
    seen: set[str] = set()
    for where, row in _csv_rows(path, SCORES_HEADER, "score"):
        if row[0] in seen:
            raise DataError(f"{where}: duplicate id {row[0]!r}")
        seen.add(row[0])
        try:
            perplexity, threshold = float(row[2]), float(row[3])
        except ValueError as e:
            raise DataError(f"{where}: bad score row {row}: {e}") from e
        if math.isnan(perplexity) or math.isnan(threshold):
            raise DataError(f"{where}: score perplexity and threshold must be numbers, got {row}")
        report = ScoreReport(traj_id=row[0], agent=row[1] or None, perplexity=perplexity, threshold=threshold)
        if _label(where, row[4], "verdict") != report.verdict:
            raise DataError(f"{where}: verdict {row[4]!r} contradicts its perplexity and threshold, {row}")
        out.append(report)
    return out


def write_surprisals(path, reports: list[ScoreReport], vocab: Vocab,
                     encoded: list[EncodedTrajectory], config_hash: str = "") -> None:
    """Per-position dump: id,pos,token,surprisal (one row per scored token).

    reports[i] is the report of encoded[i], as score_corpus returns them. Each
    token's text is rendered once per vocab id, and the rows of each distinct
    (trace, ids) pair once: a repeat, which score_corpus gives its first copy's
    trace, writes those rows again under its own id.
    """
    def lines(field):
        names = [field(vocab.token(i)) for i in range(len(vocab))]
        rendered: dict[int, tuple] = {}  # id(trace) -> (ids, rows); reports keeps each trace alive
        for r, t in zip(reports, encoded, strict=True):
            trace = r.surprisal
            ids, rows = rendered.get(id(trace), (None, None))
            if ids != t.ids:  # a new trace, or one shared by trajectories with other ids
                rows = ["", *(f",{field(pos)},{names[t.ids[pos]]},{field(value)}\n"
                              for pos, value in zip(trace.target_positions, trace.values.tolist()))]
                rendered[id(trace)] = (t.ids, rows)
            yield field(r.traj_id).join(rows)  # the id field heads each row

    write_csv(path, ["id", "pos", "token", "surprisal"], lines, config_hash)


def write_thresholds(path, table: ThresholdTable, config_hash: str = "") -> None:
    scopes = [("global", None)] if None in table.fits else []
    scopes += [("per_agent", agent) for agent in sorted(a for a in table.fits if a is not None)]
    rows = ([scope, agent, table.threshold_for(scope, agent), *table.fits[agent]] for scope, agent in scopes)
    write_csv(path, THRESHOLDS_HEADER, rows, config_hash)


def read_thresholds(path) -> ThresholdTable:
    """The thresholds table. A row whose fit is not a finite mean, a finite std >= 0
    and a count >= 2, whose threshold is not threshold_for of that fit, or that
    repeats a scope or agent is a DataError naming its line."""
    table = ThresholdTable()
    for where, row in _csv_rows(path, THRESHOLDS_HEADER, "thresholds"):
        scope, agent, threshold, mean, std, count = row
        if scope not in ("global", "per_agent") or (scope == "per_agent") != bool(agent):
            raise DataError(
                f"{where}: thresholds scope must be global with no agent, or per_agent with an agent, got {row}"
            )
        if (agent or None) in table.fits:
            raise DataError(f"{where}: repeated {scope} threshold {row}")
        try:
            value, mean, std, count = float(threshold), float(mean), float(std), int(count)
        except ValueError as e:
            raise DataError(f"{where}: bad thresholds row {row}: {e}") from e
        if not (math.isfinite(mean) and math.isfinite(std) and std >= 0 and count >= 2):
            raise DataError(f"{where}: a fit needs a finite mean, a finite std >= 0 and a count >= 2, got {row}")
        table.fits[agent or None] = (mean, std, count)
        if value != table.threshold_for(scope, agent):
            raise DataError(f"{where}: threshold {threshold} is not its fit's mean plus std, {row}")
    return table


def config_hash_of(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]
