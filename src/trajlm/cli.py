"""Command-line pipeline: gen-data, build-vocab, train, score, stream, eval, report.

Every experiment is fully determined by (config file, root seed). The root
seed lives in the config's [run] section and each component draws from its own
stream derived as sha256(root_seed, component name); per-unit streams inside
the generators split further by XORing the unit index. gen-data builds every
file of a preset (pol_corpora, porto_corpora) before it creates the output
directory, so a rejected config leaves nothing behind. Run values come from
the config file alone (the code holds no fallback), and the threshold scope is
the --scope flag. Artifacts embed the config hash and tool version. Exit codes:
0 success, 1 usage/config error, 2 data or model error. A library warning is
printed as one `warning: <message>` line on stderr. On glibc, main first
asks the allocator to keep freed heap pages in one arena
(_keep_freed_heap_pages), so training steps reuse their memory and scoring's
worker threads add no arenas of their own.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import ctypes
import hashlib
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import dataio
from .checkpoint import read_checkpoint, write_checkpoint
from .errors import ConfigError, DataError, DomainError, TrajLMError, decoding
from .evaluate import completion_ratio_eval, global_eval, per_agent_eval
from .grid import GridSpec
from .model import ModelConfig, check_lengths, init_model
from .online import open_session, partial_verdict
from .scoring import score_corpus
from .synth import (
    LOCATION_CONFIGURATIONS,
    AnomalySpec,
    WorldConfig,
    gen_pol_corpus,
    gen_route_corpus,
    inject_detour,
    inject_random_shift,
    pol_location_tokens,
)
from .training import TrainConfig, train
from .vocab import Token, Vocab, build_vocab

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2

# The location configurations `report --kind ablation` compares, whatever the
# config's [world] configurations (which only chooses the corpora gen-data writes).
ABLATION_CONFIGURATIONS = ["staypoint", "gps", "duration"]

# glibc mallopt parameters: bytes kept at the heap top when free() trims it,
# and the most malloc arenas the process may have.
M_TOP_PAD = -2
HEAP_TOP_PAD = 64 << 20
M_ARENA_MAX = -8


def derive_seed(root: int, name: str) -> int:
    """Stable per-component seed: low 8 bytes of sha256("{root}:{name}")."""
    digest = hashlib.sha256(f"{root}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


# ---------------------------------------------------------------------------
# Config handling
# ---------------------------------------------------------------------------

class RunConfig:
    """Config file wrapper: typed getters plus the text hash embedded in artifacts.

    KEYS lists every section and key a getter reads; a config holding any
    other section or key is rejected, so a misspelt key is never silently
    ignored. Every key read is required: get has no fallback value.
    """

    KEYS = {
        "run": {"preset", "seed"},
        "world": {"n_agents", "n_days", "n_anomalous_agents", "anomalous_days", "alt_prob", "configurations"},
        "grid": {"n_cols", "n_rows"},
        "routes": {"n_od_pairs", "routes_per_pair", "noise"},
        "anomaly": {"fraction", "ratio", "dist"},
        "model": {"d_model", "n_heads", "n_layers", "d_ff", "max_seq_len"},
        "train": {"epochs", "batch_size", "learning_rate"},
        "eval": {"ratios"},
    }

    def __init__(self, text: str):
        self.text = text
        self.hash = dataio.config_hash_of(text)
        # No section name can be empty, so [DEFAULT] is an ordinary section
        # here and is rejected like any other unknown one.
        self.parser = configparser.ConfigParser(default_section="")
        try:
            self.parser.read_string(text)
        except configparser.Error as e:
            raise ConfigError(f"cannot parse config: {e}") from e
        for section in self.parser.sections():
            if section not in self.KEYS:
                raise ConfigError(f"config has unknown section [{section}]")
            unknown = sorted(set(self.parser.options(section)) - self.KEYS[section])
            if unknown:
                raise ConfigError(f"config has unknown key [{section}] {unknown[0]}")

    @classmethod
    def from_path(cls, path) -> "RunConfig":
        with decoding(path, ConfigError):
            return cls(Path(path).read_text(encoding="utf-8"))

    def get(self, section: str, key: str, cast=str):
        if not self.parser.has_option(section, key):
            raise ConfigError(f"config is missing [{section}] {key}")
        raw = self.parser.get(section, key)
        try:
            return cast(raw)
        except ValueError as e:
            raise ConfigError(f"config [{section}] {key}={raw!r}: {e}") from e

    @property
    def seed(self) -> int:
        return self.get("run", "seed", int)

    def model_config(self, vocab_size: int) -> ModelConfig:
        return ModelConfig(
            vocab_size=vocab_size,
            d_model=self.get("model", "d_model", int),
            n_heads=self.get("model", "n_heads", int),
            n_layers=self.get("model", "n_layers", int),
            d_ff=self.get("model", "d_ff", int),
            max_seq_len=self.get("model", "max_seq_len", int),
            seed=derive_seed(self.seed, "model-init"),
        )

    def train_config(self) -> TrainConfig:
        return TrainConfig(
            n_epochs=self.get("train", "epochs", int),
            batch_size=self.get("train", "batch_size", int),
            learning_rate=self.get("train", "learning_rate", float),
            seed=derive_seed(self.seed, "train"),
        )

    def world_config(self) -> WorldConfig:
        try:
            return WorldConfig(
                n_agents=self.get("world", "n_agents", int),
                n_days=self.get("world", "n_days", int),
                n_anomalous_agents=self.get("world", "n_anomalous_agents", int),
                anomalous_days=self.get("world", "anomalous_days", int),
                alt_prob=self.get("world", "alt_prob", float),
                seed=derive_seed(self.seed, "world"),
            )
        except DomainError as e:
            raise ConfigError(f"config [world]: {e}") from e

    def configurations(self) -> list[str]:
        """The location configurations gen-data writes a pol corpus for."""
        names = [c.strip() for c in self.get("world", "configurations").split(",") if c.strip()]
        if not names or not set(names) <= set(LOCATION_CONFIGURATIONS):
            raise ConfigError(
                f"[world] configurations must be one or more of {list(LOCATION_CONFIGURATIONS)}, got {names}"
            )
        return names

    def ratios(self) -> list[float]:
        ratios = self.get("eval", "ratios", lambda raw: [float(x) for x in raw.split(",") if x.strip()])
        if not ratios or not all(0.0 < r <= 1.0 for r in ratios):
            raise ConfigError(f"[eval] ratios must be one or more values in (0, 1], got {ratios}")
        if len(set(ratios)) < len(ratios):
            raise ConfigError(f"[eval] ratios must not repeat a value, got {ratios}")
        return ratios


# ---------------------------------------------------------------------------
# Data generation
# ---------------------------------------------------------------------------

Corpora = dict[str, list[dataio.CorpusRecord]]
Truth = dict[str, list[dataio.TruthRecord]]


def pol_records(corpus, configuration: str) -> list[dataio.CorpusRecord]:
    return [dataio.CorpusRecord(t.traj_id, pol_location_tokens(t, configuration), t.agent, t.weekday)
            for t in corpus.trajectories]


def pol_corpora(cfg: RunConfig, configurations: list[str]) -> tuple[Corpora, Truth]:
    """The pol world, keyed by file name: corpus_<configuration>.jsonl per
    configuration and truth.csv. Checks every config value; writes nothing."""
    corpus = gen_pol_corpus(cfg.world_config())
    truth = [
        dataio.TruthRecord(
            traj_id=t.traj_id,
            label=t.label,
            kind="skip_routine" if t.label == "anomalous" else "",
            pos=t.anomaly_pos,
        )
        for t in corpus.trajectories
    ]
    corpora = {f"corpus_{name}.jsonl": pol_records(corpus, name) for name in configurations}
    return corpora, {"truth.csv": truth}


def porto_corpora(cfg: RunConfig) -> tuple[Corpora, Truth]:
    """The porto routes, keyed by file name: train.jsonl holds the routes left
    normal; eval_<kind>.jsonl holds every route, the selected ones injected with
    kind, and truth_<kind>.csv labels them. Checks every config value; writes nothing."""
    root = cfg.seed
    per_pair = cfg.get("routes", "routes_per_pair", int)
    fraction = cfg.get("anomaly", "fraction", float)
    if not 0.0 <= fraction <= 1.0:
        raise ConfigError(f"[anomaly] fraction must be in [0, 1], got {fraction}")
    ratio = cfg.get("anomaly", "ratio", float)
    dist = cfg.get("anomaly", "dist", int)
    injectors = {"random_shift": inject_random_shift, "detour": inject_detour}  # one eval corpus each
    try:
        # routes are lattice indices: the cell size takes no part
        grid = GridSpec(1.0, cfg.get("grid", "n_cols", int), cfg.get("grid", "n_rows", int))
        routes = gen_route_corpus(
            grid,
            cfg.get("routes", "n_od_pairs", int),
            per_pair,
            cfg.get("routes", "noise", float),
            seed=derive_seed(root, "routes"),
        )
        spec = AnomalySpec(ratio, dist)
    except DomainError as e:
        raise ConfigError(f"config: {e}") from e
    ids = [f"od{r // per_pair:02d}_r{r % per_pair:03d}" for r in range(len(routes))]
    n_anom = round(fraction * len(routes))
    sel_rng = np.random.default_rng(derive_seed(root, "anomaly-select"))
    selected = set(int(i) for i in sel_rng.choice(len(routes), size=n_anom, replace=False))

    def record(i: int, cells) -> dataio.CorpusRecord:
        return dataio.CorpusRecord(ids[i], [Token("cell", f"{c.col},{c.row}") for c in cells])

    corpora = {"train.jsonl": [record(i, route) for i, route in enumerate(routes) if i not in selected]}
    truth = {}
    for kind, inject in injectors.items():
        records, labels = [], []
        for i, route in enumerate(routes):
            if i in selected:
                cells = inject(route, spec, grid, seed=derive_seed(root, f"inject-{kind}-{i}"))
                labels.append(dataio.TruthRecord(ids[i], "anomalous", kind, ratio, dist))
            else:
                cells = route
                labels.append(dataio.TruthRecord(ids[i], "normal"))
            records.append(record(i, cells))
        corpora[f"eval_{kind}.jsonl"] = records
        truth[f"truth_{kind}.csv"] = labels
    return corpora, truth


def cmd_gen_data(args) -> int:
    cfg = RunConfig.from_path(args.config)
    preset = cfg.get("run", "preset", str)
    if preset == "pol":
        corpora, truth = pol_corpora(cfg, cfg.configurations())
    elif preset == "porto":
        corpora, truth = porto_corpora(cfg)
    else:
        raise ConfigError(f"unknown preset {preset!r}; expected 'pol' or 'porto'")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, records in corpora.items():
        dataio.write_corpus(out_dir / name, records, cfg.hash)
        print(f"[gen-data] {name}: {len(records)} trajectories")
    for name, labels in truth.items():
        dataio.write_truth(out_dir / name, labels, cfg.hash)
        n_anom = sum(1 for t in labels if t.label == "anomalous")
        print(f"[gen-data] {name}: {len(labels)} labels, {n_anom} anomalous")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Vocab / training / scoring
# ---------------------------------------------------------------------------

def cmd_build_vocab(args) -> int:
    sequences = []
    for path in args.inputs:
        for rec in dataio.read_corpus(path):
            sequences.append(dataio.full_tokens(rec))
    vocab = build_vocab(sequences)
    vocab.save(args.out)
    print(f"[build-vocab] {len(vocab)} tokens ({vocab.hash()[:12]}) -> {args.out}")
    return EXIT_OK


def _load_model(checkpoint, vocab_path):
    """The vocabulary and the checkpoint, which must have been trained against it."""
    vocab = Vocab.load(vocab_path)
    return vocab, read_checkpoint(checkpoint, expected_vocab_hash=vocab.hash())


def cmd_train(args) -> int:
    cfg = RunConfig.from_path(args.config)
    vocab = Vocab.load(args.vocab)
    encoded = dataio.read_encoded(args.corpus, vocab)
    if not encoded:
        raise DataError(f"{args.corpus}: no trajectories to train on")
    rows = []  # the loss log's (epoch, loss) rows, a resumed log's first
    if args.resume:
        model = read_checkpoint(args.out, expected_vocab_hash=vocab.hash())
        wanted = cfg.model_config(len(vocab))
        for f in fields(ModelConfig):  # the seed only initialises weights, which are loaded
            ours, theirs = getattr(wanted, f.name), getattr(model.config, f.name)
            if f.name != "seed" and ours != theirs:
                raise ConfigError(f"--resume: config [model] {f.name} = {ours}, but the checkpoint has {theirs}")
        if args.loss_log and Path(args.loss_log).exists():
            rows = dataio.read_loss_log(args.loss_log)
    else:
        model = init_model(cfg.model_config(len(vocab)), vocab_hash=vocab.hash())
    check_lengths(model, encoded)  # before the loss log is written, so a rejected corpus writes nothing
    tc = cfg.train_config()

    def log_fn(epoch: int, loss: float) -> None:
        rows.append((len(rows), loss))
        dataio.write_csv(args.loss_log, dataio.LOSS_HEADER, rows, cfg.hash)

    if args.loss_log:
        dataio.write_csv(args.loss_log, dataio.LOSS_HEADER, rows, cfg.hash)
    losses = train(model, encoded, tc, log_fn=log_fn if args.loss_log else None)
    write_checkpoint(model, args.out, metadata=dataio.provenance(cfg.hash))
    final = losses[-1] if losses else float("nan")
    print(f"[train] {len(encoded)} trajectories, {tc.n_epochs} epochs, final loss {final:.4f} -> {args.out}")
    return EXIT_OK


def cmd_score(args) -> int:
    if not (args.fit_thresholds or args.thresholds):
        raise ConfigError("either --thresholds or --fit-thresholds is required")
    if args.fit_thresholds and args.thresholds:
        raise ConfigError("--thresholds is an input; write fitted thresholds with --thresholds-out")
    if args.thresholds_out and not args.fit_thresholds:
        raise ConfigError("--thresholds-out needs --fit-thresholds")
    config_hash = RunConfig.from_path(args.config).hash if args.config else "-"
    vocab, model = _load_model(args.checkpoint, args.vocab)
    encoded = dataio.read_encoded(args.corpus, vocab)
    if not encoded:
        raise DataError(f"{args.corpus}: no trajectories to score")
    table = None if args.fit_thresholds else dataio.read_thresholds(args.thresholds)
    reports, table = score_corpus(model, encoded, args.scope, table)
    if args.thresholds_out:
        dataio.write_thresholds(args.thresholds_out, table, config_hash)
        print(f"[score] fitted thresholds -> {args.thresholds_out}")
    dataio.write_scores(args.out, reports, config_hash)
    if args.per_position:
        dataio.write_surprisals(args.per_position, reports, vocab, encoded, config_hash)
    n_anom = sum(1 for r in reports if r.verdict == "anomalous")
    print(f"[score] {len(reports)} trajectories scored ({args.scope}); {n_anom} anomalous -> {args.out}")
    return EXIT_OK


def cmd_stream(args) -> int:
    """Score the record --conditioning heads, as batch scoring does, one stdin token at a time."""
    vocab, model = _load_model(args.checkpoint, args.vocab)
    table = dataio.read_thresholds(args.thresholds)
    record = dataio.stream_record(args.conditioning or "")
    table.threshold_for(args.scope, record.agent)  # a missing threshold fails before stdin is read
    ids = dataio.encode_record(record, vocab).ids
    session = open_session(model, ids[:1])
    writer = csv.writer(sys.stdout, lineterminator="\n")

    def push(token_id: int) -> None:
        s, ppl = session.push(token_id)
        verdict = partial_verdict(session, table, scope=args.scope, agent=record.agent).verdict
        writer.writerow([len(session) - 1, vocab.token(token_id), s, ppl, verdict])
        sys.stdout.flush()

    for token_id in ids[1:-1]:
        push(token_id)
    for lineno, line in enumerate(sys.stdin, start=1):
        if line.strip():
            push(vocab.id(dataio.record_tokens([line.strip()], "<stdin>", lineno)[0]))
    push(ids[-1])
    return EXIT_OK


def cmd_eval(args) -> int:
    config_hash = RunConfig.from_path(args.config).hash if args.config else "-"
    truth = dataio.truth_labels(dataio.read_truth(args.truth))
    reports = dataio.read_scores(args.scores)
    if args.per_agent:
        key, results = "agent", per_agent_eval(reports, truth).items()
    else:
        key, results = "scope", [("global", global_eval(reports, truth))]
    rows = ([name, rep.f1, rep.pr_auc, rep.tp, rep.fp, rep.fn, rep.tn] for name, rep in results)
    dataio.write_csv(args.out, [key, "f1", "pr_auc", "tp", "fp", "fn", "tn"], rows, config_hash)
    print(f"[eval] wrote {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Experiment reports (ablation, completion-ratio)
# ---------------------------------------------------------------------------

def _train_score_eval(cfg: RunConfig, records: list[dataio.CorpusRecord], truth: dict[str, str]):
    """Train a fresh model on one configuration's corpus, score it per agent and
    return the per-agent table of evaluate.per_agent_eval against truth."""
    vocab = build_vocab([dataio.full_tokens(r) for r in records])
    model = init_model(cfg.model_config(len(vocab)), vocab_hash=vocab.hash())
    encoded = [dataio.encode_record(r, vocab) for r in records]
    train(model, encoded, cfg.train_config())
    reports, _ = score_corpus(model, encoded, "per_agent")
    return per_agent_eval(reports, truth)


def cmd_report(args) -> int:
    """ablation: for each of ABLATION_CONFIGURATIONS, train, score and evaluate a
    fresh model on that tokenization of one pol world, then write ablation.csv
    (each configuration's mean per-agent F1 and PR-AUC) and one
    ablation_<configuration>.csv of per-agent rows ending in that mean; a
    configuration with no agent holding a true anomaly is a DomainError.
    completion: F1 and PR-AUC per [eval] ratio of a scored corpus's prefixes,
    written to completion.csv."""
    inputs = {"--checkpoint": args.checkpoint, "--vocab": args.vocab, "--corpus": args.corpus,
              "--thresholds": args.thresholds, "--truth": args.truth}
    if args.kind == "ablation" and any(inputs.values()):
        raise ConfigError(f"the ablation report generates its data and takes none of {'/'.join(inputs)}")
    if args.kind == "completion" and not all(inputs.values()):
        raise ConfigError(f"completion report needs {'/'.join(inputs)}")
    cfg = RunConfig.from_path(args.config)
    out_dir = Path(args.out_dir)  # made only once every input has been read and checked
    if args.kind == "ablation":
        corpora, truth = pol_corpora(cfg, ABLATION_CONFIGURATIONS)
        labels = {t.traj_id: t.label for t in truth["truth.csv"]}
        averages, tables = {}, {}
        for name in ABLATION_CONFIGURATIONS:
            per_agent = _train_score_eval(cfg, corpora[f"corpus_{name}.jsonl"], labels)
            if not per_agent:
                raise DomainError(f"configuration {name!r} produced no per-agent results")
            averages[name] = [float(np.mean([r.f1 for r in per_agent.values()])),
                              float(np.mean([r.pr_auc for r in per_agent.values()]))]
            tables[name] = [[agent, rep.f1, rep.pr_auc] for agent, rep in per_agent.items()]
        out_dir.mkdir(parents=True, exist_ok=True)
        summary = out_dir / "ablation.csv"
        rows = ([name, *average] for name, average in averages.items())
        dataio.write_csv(summary, ["configuration", "average_f1", "average_pr_auc"], rows, cfg.hash)
        for name, rows in tables.items():
            rows.append(["average", *averages[name]])
            dataio.write_csv(out_dir / f"ablation_{name}.csv", ["agent", "f1", "pr_auc"], rows, cfg.hash)
        best = max(averages, key=lambda name: averages[name][0])
        print(f"[report] ablation -> {summary} (best average F1: {best})")
    else:
        ratios = cfg.ratios()
        vocab, model = _load_model(args.checkpoint, args.vocab)
        encoded = dataio.read_encoded(args.corpus, vocab)
        table = dataio.read_thresholds(args.thresholds)
        truth = dataio.truth_labels(dataio.read_truth(args.truth))
        result = completion_ratio_eval(model, encoded, truth, ratios, table)
        out_dir.mkdir(parents=True, exist_ok=True)
        out = out_dir / "completion.csv"
        rows = ([ratio, *result[ratio]] for ratio in sorted(result))
        dataio.write_csv(out, ["ratio", "f1", "pr_auc"], rows, cfg.hash)
        print(f"[report] completion -> {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Every flag must be spelt in full: no prefix of a flag is accepted for it.
    build_parser's subparsers are of this class too."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):  # usage errors exit 1, not argparse's default 2
        self.print_usage(sys.stderr)
        raise SystemExit(EXIT_USAGE)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="trajlm", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate synthetic corpora and their ground-truth files")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(fn=cmd_gen_data)

    p = sub.add_parser("build-vocab", help="build a vocabulary from corpus files")
    p.add_argument("--inputs", nargs="+", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_build_vocab)

    p = sub.add_parser("train", help="train a model on an encoded corpus")
    p.add_argument("--config", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--loss-log")
    p.add_argument("--resume", action="store_true")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("score", help="perplexity + verdict per trajectory")
    p.add_argument("--config")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--scope", choices=["global", "per_agent"], default="global")
    p.add_argument("--thresholds")
    p.add_argument("--fit-thresholds", action="store_true")
    p.add_argument("--thresholds-out")
    p.add_argument("--per-position", help="also write per-position surprisals CSV")
    p.set_defaults(fn=cmd_score)

    p = sub.add_parser("stream", help="score tokens from stdin incrementally")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--thresholds", required=True)
    p.add_argument("--conditioning", help="the record's head, scored after its first token, as one "
                   "CSV row: agent_id:<agent>, then weekday:<day>, each optional; SOT when not given")
    p.add_argument("--scope", choices=["global", "per_agent"], default="global")
    p.set_defaults(fn=cmd_stream)

    p = sub.add_parser("eval", help="F1 and PR-AUC of a scores file against the ground truth")
    p.add_argument("--truth", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--scores", required=True, help="scores CSV written by score")
    p.add_argument("--config", help="config whose hash the output records")
    p.add_argument("--per-agent", action="store_true", help="one row per agent with a true anomaly")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("report", help="multi-run experiment tables")
    p.add_argument("--kind", choices=["ablation", "completion"], required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--checkpoint")
    p.add_argument("--vocab")
    p.add_argument("--corpus")
    p.add_argument("--thresholds")
    p.add_argument("--truth")
    p.set_defaults(fn=cmd_report)
    return parser


def _keep_freed_heap_pages() -> None:
    """Ask glibc to keep HEAP_TOP_PAD bytes at the heap top when free() trims it,
    in one malloc arena for all threads.

    A training step frees its activations at the end of the step; by default
    glibc hands that top of the heap back to the kernel, and the next step
    page-faults the same memory back in. Keeping it costs no resident memory
    the step did not already touch. score_corpus's worker threads would each
    get an arena of their own, each keeping its own top pad of freed pages, so
    peak memory would grow with the worker count; one arena keeps one pad. A
    no-op off Linux or without mallopt.
    """
    if not sys.platform.startswith("linux"):
        return
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(M_TOP_PAD, HEAP_TOP_PAD)
    mallopt(M_ARENA_MAX, 1)


def _print_warning(message, category, filename, lineno, file=None, line=None) -> None:
    """warnings.showwarning for the CLI: the message alone, with no source location."""
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    _keep_freed_heap_pages()
    parser = build_parser()
    with warnings.catch_warnings():
        warnings.showwarning = _print_warning
        try:
            args = parser.parse_args(argv)
            return args.fn(args)
        except SystemExit as e:
            return int(e.code or 0)
        except ConfigError as e:
            print(f"error: {e}", file=sys.stderr)
            return EXIT_USAGE
        except (TrajLMError, DataError, OSError) as e:
            print(f"error: {e}", file=sys.stderr)
            return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
