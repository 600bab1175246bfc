"""File formats shared across the pipeline.

Corpora are line-delimited JSON records
    {"id": str, "agent": str?, "weekday": str?, "tokens": [str], "label": str}
where each token string is "kind:value". An optional first record {"_meta":
{...}} carries the config hash and tool version; readers skip it. CSV
artifacts start with a '#' comment line carrying the same provenance.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass

from .errors import DataError, decoding
from .scoring import ScoreReport, ThresholdTable
from .vocab import EncodedTrajectory, Token, Vocab, encode

TOOL_VERSION = "0.1.0"


@dataclass
class CorpusRecord:
    traj_id: str
    tokens: list[Token]
    agent: str | None = None
    weekday: str | None = None
    label: str = "normal"


@dataclass
class TruthRecord:
    traj_id: str
    label: str
    kind: str = ""
    ratio: float | None = None
    dist: int | None = None
    pos: int | None = None  # planted slot index, for localization checks


def full_tokens(rec: CorpusRecord) -> list[Token]:
    """Conditioning tokens plus locations, in model order (no specials)."""
    prefix: list[Token] = []
    if rec.agent is not None:
        prefix.append(Token("agent_id", rec.agent))
    if rec.weekday is not None:
        prefix.append(Token("weekday", rec.weekday))
    return prefix + rec.tokens


def encode_record(rec: CorpusRecord, vocab: Vocab) -> EncodedTrajectory:
    """Agent-conditioned records use [agent, weekday, ...] with no SOT; bare
    location records get SOT framing. EOT is always appended."""
    if rec.agent is not None:
        return encode(
            full_tokens(rec), vocab, with_sot=False, with_eot=True,
            traj_id=rec.traj_id, agent=rec.agent, label=rec.label,
        )
    return encode(
        rec.tokens, vocab, with_sot=True, with_eot=True,
        traj_id=rec.traj_id, agent=None, label=rec.label,
    )


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
            obj["label"] = rec.label
            fh.write(json.dumps(obj, sort_keys=True) + "\n")


def read_corpus(path) -> list[CorpusRecord]:
    records = []
    with decoding(path), open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as e:
                raise DataError(f"{path}:{lineno}: invalid JSON: {e}") from e
            if "_meta" in obj:
                continue
            try:
                records.append(
                    CorpusRecord(
                        traj_id=str(obj["id"]),
                        tokens=[Token.parse(t) for t in obj["tokens"]],
                        agent=obj.get("agent"),
                        weekday=obj.get("weekday"),
                        label=obj.get("label", "normal"),
                    )
                )
            except (KeyError, TypeError) as e:
                raise DataError(f"{path}:{lineno}: bad corpus record: {e}") from e
    return records


def provenance_comment(config_hash: str) -> str:
    """The '#' first line of every CSV artifact: config hash and tool version."""
    meta = provenance(config_hash)
    return f"# config_hash={meta['config_hash']} tool_version={meta['tool_version']}\n"


def write_truth(path, records: list[TruthRecord], config_hash: str = "") -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(provenance_comment(config_hash))
        writer = csv.writer(fh)
        writer.writerow(["id", "label", "kind", "ratio", "dist", "pos"])
        for r in records:
            writer.writerow([
                r.traj_id, r.label, r.kind,
                "" if r.ratio is None else r.ratio,
                "" if r.dist is None else r.dist,
                "" if r.pos is None else r.pos,
            ])


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


def read_truth(path) -> dict[str, TruthRecord]:
    out: dict[str, TruthRecord] = {}
    for where, row in _csv_rows(path, ["id", "label"], "truth", prefix=True):
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


def write_scores(path, reports: list[ScoreReport], config_hash: str = "") -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(provenance_comment(config_hash))
        writer = csv.writer(fh)
        writer.writerow(["id", "agent", "perplexity", "threshold", "verdict"])
        for r in reports:
            writer.writerow([
                r.traj_id, r.agent or "", repr(r.perplexity), repr(r.threshold), r.verdict,
            ])


def read_scores(path) -> list[ScoreReport]:
    header = ["id", "agent", "perplexity", "threshold", "verdict"]
    out = []
    for where, row in _csv_rows(path, header, "score"):
        try:
            perplexity, threshold = float(row[2]), float(row[3])
        except ValueError as e:
            raise DataError(f"{where}: bad score row {row}: {e}") from e
        out.append(ScoreReport(
            traj_id=row[0], agent=row[1] or None, perplexity=perplexity,
            threshold=threshold, verdict=row[4],
        ))
    return out


def write_surprisals(path, reports: list[ScoreReport], vocab: Vocab,
                     encoded: dict[str, EncodedTrajectory], config_hash: str = "") -> None:
    """Per-position dump: id,pos,token,surprisal (one row per scored token)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(provenance_comment(config_hash))
        writer = csv.writer(fh)
        writer.writerow(["id", "pos", "token", "surprisal"])
        for r in reports:
            ids = encoded[r.traj_id].ids
            for value, pos in zip(r.surprisal.values, r.surprisal.target_positions):
                writer.writerow([r.traj_id, pos, str(vocab.token(ids[pos])), repr(float(value))])


def write_thresholds(path, table: ThresholdTable, config_hash: str = "") -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(provenance_comment(config_hash))
        writer = csv.writer(fh)
        writer.writerow(["scope", "agent", "threshold", "mean", "std", "count"])
        if table.global_threshold is not None:
            mean, std, n = table.provenance["global"]
            writer.writerow(["global", "", repr(table.global_threshold), repr(mean), repr(std), n])
        for agent in sorted(table.per_agent):
            mean, std, n = table.provenance[agent]
            writer.writerow(["per_agent", agent, repr(table.per_agent[agent]), repr(mean), repr(std), n])


def read_thresholds(path) -> ThresholdTable:
    header = ["scope", "agent", "threshold", "mean", "std", "count"]
    table = ThresholdTable(global_threshold=None)
    for where, row in _csv_rows(path, header, "thresholds"):
        scope, agent, threshold, mean, std, count = row
        try:
            value, prov = float(threshold), (float(mean), float(std), int(count))
        except ValueError as e:
            raise DataError(f"{where}: bad thresholds row {row}: {e}") from e
        if scope == "global":
            table.global_threshold = value
            table.provenance["global"] = prov
        else:
            table.per_agent[agent] = value
            table.provenance[agent] = prov
    return table


def config_hash_of(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]
