"""The benchmark's three workloads: pol-batch, porto-batch and stream.

Each workload derives its config from a preset in ``configs/`` (read, never
edited), sets ``[run] seed`` to the workload seed and writes the derived config
into the run's own directory. The batch workloads time CLI stages in-process
through ``trajlm.cli.main``, so a change inside any stage shows without an edit
here. The stream workload drives the public online API (``open_session``,
``Session.push``, ``partial_verdict``) as a closed-loop client.

The benchmark calls the program through module attributes (``online.push``,
never a name imported into this file), so the tracer's wrappers see the calls.
"""

from __future__ import annotations

import configparser
import contextlib
import csv
import hashlib
import math
import os
import statistics
from pathlib import Path
from time import perf_counter, perf_counter_ns

import numpy as np

import trajlm.cli
from trajlm import checkpoint, dataio, evaluate, online, scoring, vocab
from trajlm.errors import TrajLMError

from tracer import Tracer

# Sizes are chosen so one timed round takes a few seconds on one core and a
# --seconds 20 run holds several rounds; "tiny" is for the smoke test only.
OVERRIDES = {
    ("pol", "full"): {
        # 1200 day-trajectories of 7-9 tokens; 8 of 20 agents have anomalous days.
        "world": {"n_agents": 20, "n_days": 60, "n_anomalous_agents": 8, "anomalous_days": 10},
        "train": {"epochs": 2, "batch_size": 32},
    },
    ("pol", "tiny"): {
        "world": {"n_agents": 6, "n_days": 12, "n_anomalous_agents": 2, "anomalous_days": 3},
        "train": {"epochs": 1, "batch_size": 16},
    },
    ("porto", "full"): {
        # 180 routes of 13-47 cells over 45 OD pairs: many pairs keep the total
        # token count, and so the work per round, close across seeds.
        "routes": {"n_od_pairs": 45, "routes_per_pair": 4},
        "anomaly": {"fraction": 0.1},
        "train": {"epochs": 4, "batch_size": 16},
        "eval": {"ratios": "0.3,0.6,1.0"},
    },
    ("porto", "tiny"): {
        "routes": {"n_od_pairs": 6, "routes_per_pair": 3},
        "anomaly": {"fraction": 0.2},
        "train": {"epochs": 1, "batch_size": 16},
        "eval": {"ratios": "0.5,1.0"},
    },
}

# Concurrent sessions in the stream workload. At 64, the sessions' KV caches
# (4 layers x 2 x 96 x 64 float64 each, about 0.4 MB) total about 25 MB, far
# more than a core's L2 cache, so each push reads its prefix from a shared cache
# level or memory.
STREAM_SESSIONS = {"full": 64, "tiny": 4}

# Layers every workload reaches in its traced set-up and round; each workload
# lists the rest it expects. A listed layer with no calls fails trace coverage.
CORE_LAYERS = [
    "cli.gen-data", "cli.build-vocab", "cli.train", "cli.score",
    "synth.gen", "vocab.build_vocab", "vocab.encode", "dataio.read_corpus", "dataio.write",
    "checkpoint.read", "checkpoint.write", "model.forward_batch", "model.backward",
    "model.layernorm", "model.softmax", "model.log_softmax", "training.adam_step",
    "training.pad_batch", "scoring.token_log_probs", "scoring.compute_thresholds", "scoring.classify",
]

PPL_REL_TOL = 1e-12  # perplexity vs exp(mean) of the written surprisals
STREAM_REL_TOL = 1e-9  # online vs batch surprisal, the bound of acceptance check C04


class Bench:
    """State shared by one benchmark run: paths, op counts and the optional tracer."""

    def __init__(self, root: Path, run_dir: Path, seed: int, size: str):
        self.root = root
        self.dir = run_dir
        self.seed = seed
        self.size = size
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.tracer: Tracer | None = None
        self._devnull = open(os.devnull, "w", encoding="utf-8")

    def close(self) -> None:
        self._devnull.close()

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer is not None else contextlib.nullcontext()

    def fail(self, message: str, n: int = 1) -> None:
        self.failed += n
        self.problems.append(message)

    def cli(self, *argv) -> float:
        """Run one `trajlm` stage in-process with stdout discarded; returns its wall time."""
        argv = [str(a) for a in argv]
        with self.span(f"cli.{argv[0]}"), contextlib.redirect_stdout(self._devnull):
            t0 = perf_counter()
            rc = trajlm.cli.main(argv)
            elapsed = perf_counter() - t0
        self.attempted += 1
        if rc != 0:
            self.fail(f"trajlm {argv[0]} exited with {rc}")
        return elapsed

    def derive_config(self, preset: str) -> Path:
        """Preset from configs/ with the workload seed and sizes, written into the run dir."""
        cp = configparser.ConfigParser()
        with open(self.root / "configs" / f"{preset}.ini", encoding="utf-8") as fh:
            cp.read_file(fh)
        cp["run"]["seed"] = str(self.seed)
        for section, values in OVERRIDES[(preset, self.size)].items():
            for key, value in values.items():
                cp[section][key] = str(value)
        path = self.dir / f"{preset}.ini"
        with open(path, "w", encoding="utf-8") as fh:
            cp.write(fh)
        return path


def read_rows(path) -> list[dict[str, str]]:
    """Rows of one of the program's CSV outputs, skipping '#' provenance lines."""
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def final_loss(path) -> float:
    return float(read_rows(path)[-1]["loss"])


def digest(*paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(Path(p).read_bytes())
    return h.hexdigest()


def target_tokens(corpus_path, vocab_path) -> tuple[int, int]:
    """(trajectories, scored target tokens) of a corpus, as the model sees it."""
    v = vocab.Vocab.load(vocab_path)
    encoded = [dataio.encode_record(r, v) for r in dataio.read_corpus(corpus_path)]
    return len(encoded), sum(len(t.ids) - 1 for t in encoded)


class PolBatch:
    """gen-data, build-vocab | train, score --fit-thresholds --per-position, eval --per-agent."""

    name = "pol-batch"
    preset = "pol"
    setup_reps = 9
    expected = CORE_LAYERS + ["cli.eval", "evaluate.pr_auc", "evaluate.per_agent_eval"]

    def __init__(self, b: Bench):
        self.b = b
        self.cfg = b.derive_config(self.preset)
        self.data = b.dir / "data"
        self.out = b.dir / "out"
        self.out.mkdir(exist_ok=True)
        self.corpus = self.data / "corpus_staypoint.jsonl"
        self.vocab = self.data / "vocab.txt"
        self.epochs = int(OVERRIDES[(self.preset, b.size)]["train"]["epochs"])
        self.first_digest: str | None = None

    def setup(self) -> dict[str, float]:
        return {
            "gen-data": self.b.cli("gen-data", "--config", self.cfg, "--out-dir", self.data),
            "build-vocab": self.b.cli("build-vocab", "--inputs", self.corpus, "--out", self.vocab),
        }

    def prepare(self) -> None:
        self.n_trajs, self.train_tokens = target_tokens(self.corpus, self.vocab)
        self.n_scored = self.n_trajs

    def round(self) -> dict[str, float]:
        b, o = self.b, self.out
        t_train = b.cli("train", "--config", self.cfg, "--corpus", self.corpus, "--vocab", self.vocab,
                        "--out", o / "model.ckpt", "--loss-log", o / "loss.csv")
        t_score = b.cli("score", "--config", self.cfg, "--checkpoint", o / "model.ckpt",
                        "--vocab", self.vocab, "--corpus", self.corpus, "--out", o / "scores.csv",
                        "--fit-thresholds", "--thresholds-out", o / "thresholds.csv",
                        "--per-position", o / "surprisal.csv", "--scope", "per_agent")
        t_eval = b.cli("eval", "--truth", self.data / "truth.csv", "--scores", o / "scores.csv",
                       "--out", o / "eval.csv", "--per-agent")
        return {"pipeline": t_train + t_score + t_eval, "train": t_train, "score": t_score}

    def stage_seconds(self, setups: list[dict], timed: list[dict]) -> tuple[list[float], list[float]]:
        """Wall times of the train and score stages behind the throughput metrics."""
        return [r["train"] for r in timed], [r["score"] for r in timed]

    def check(self, result: dict) -> None:
        o = self.out
        by_id: dict[str, list[float]] = {}
        for row in read_rows(o / "surprisal.csv"):
            by_id.setdefault(row["id"], []).append(float(row["surprisal"]))
        bad = 0
        for row in read_rows(o / "scores.csv"):
            values = by_id.get(row["id"])
            want = math.exp(math.fsum(values) / len(values)) if values else math.nan
            if not abs(float(row["perplexity"]) - want) <= PPL_REL_TOL * want:
                bad += 1
        if bad:
            self.b.fail(f"score: {bad} perplexities differ from exp(mean surprisal)")
        self.check_repeatable(o / "loss.csv", o / "thresholds.csv", o / "scores.csv", o / "eval.csv")

    def check_repeatable(self, *paths) -> None:
        d = digest(*paths)
        if self.first_digest is None:
            self.first_digest = d
        elif d != self.first_digest:
            self.b.fail("round artifacts differ from the first round's")

    def quality(self) -> tuple[float, float]:
        """(final training loss, mean per-agent PR-AUC)."""
        aucs = [float(r["pr_auc"]) for r in read_rows(self.out / "eval.csv")]
        return final_loss(self.out / "loss.csv"), statistics.fmean(aucs)


class PortoBatch(PolBatch):
    """gen-data, build-vocab | train, score --fit-thresholds, score, eval, report --kind completion."""

    name = "porto-batch"
    preset = "porto"
    kind = "random_shift"
    expected = CORE_LAYERS + [
        "cli.eval", "cli.report", "grid.shift_cell", "online.open_session", "online.push",
        "evaluate.completion_ratio_eval", "evaluate.prefix_perplexity", "evaluate.pr_auc",
    ]

    def __init__(self, b: Bench):
        super().__init__(b)
        self.corpus = self.data / "train.jsonl"
        self.eval_corpus = self.data / f"eval_{self.kind}.jsonl"
        self.truth = self.data / f"truth_{self.kind}.csv"
        ratios = OVERRIDES[(self.preset, b.size)]["eval"]["ratios"]
        self.n_ratios = len(ratios.split(","))

    def setup(self) -> dict[str, float]:
        inputs = [self.data / f for f in ("train.jsonl", "eval_random_shift.jsonl", "eval_detour.jsonl")]
        return {
            "gen-data": self.b.cli("gen-data", "--config", self.cfg, "--out-dir", self.data),
            "build-vocab": self.b.cli("build-vocab", "--inputs", *inputs, "--out", self.vocab),
        }

    def prepare(self) -> None:
        self.n_trajs, self.train_tokens = target_tokens(self.corpus, self.vocab)
        self.n_eval = len(dataio.read_corpus(self.eval_corpus))
        self.n_scored = self.n_trajs + self.n_eval

    def round(self) -> dict[str, float]:
        b, o = self.b, self.out
        model = o / "model.ckpt"
        t_train = b.cli("train", "--config", self.cfg, "--corpus", self.corpus, "--vocab", self.vocab,
                        "--out", model, "--loss-log", o / "loss.csv")
        t_fit = b.cli("score", "--config", self.cfg, "--checkpoint", model, "--vocab", self.vocab,
                      "--corpus", self.corpus, "--out", o / "train_scores.csv",
                      "--fit-thresholds", "--thresholds-out", o / "thresholds.csv")
        t_score = b.cli("score", "--config", self.cfg, "--checkpoint", model, "--vocab", self.vocab,
                        "--corpus", self.eval_corpus, "--out", o / "scores.csv",
                        "--thresholds", o / "thresholds.csv")
        t_eval = b.cli("eval", "--truth", self.truth, "--scores", o / "scores.csv", "--out", o / "eval.csv")
        t_report = b.cli("report", "--kind", "completion", "--config", self.cfg, "--out-dir", o / "report",
                         "--checkpoint", model, "--vocab", self.vocab, "--corpus", self.eval_corpus,
                         "--thresholds", o / "thresholds.csv", "--truth", self.truth)
        return {
            "pipeline": t_train + t_fit + t_score + t_eval + t_report,
            "train": t_train,
            "score": t_fit + t_score,
            "report": t_report,
        }

    def check(self, result: dict) -> None:
        o = self.out
        batch = read_rows(o / "eval.csv")[0]
        full = [r for r in read_rows(o / "report" / "completion.csv") if float(r["ratio"]) == 1.0]
        if not full or (full[0]["f1"], full[0]["pr_auc"]) != (batch["f1"], batch["pr_auc"]):
            self.b.fail("report: ratio-1.0 F1/PR-AUC differ from batch eval")
        self.check_repeatable(o / "loss.csv", o / "thresholds.csv", o / "scores.csv",
                              o / "eval.csv", o / "report" / "completion.csv")

    def quality(self) -> tuple[float, float]:
        """(final training loss, global PR-AUC)."""
        return final_loss(self.out / "loss.csv"), float(read_rows(self.out / "eval.csv")[0]["pr_auc"])


class Stream(PortoBatch):
    """K porto-shaped sessions in one closed-loop client, one event at a time, round-robin.

    Set-up trains the model and fits global thresholds through the CLI. A timed
    round is one pass over the eval corpus: every route is opened with its SOT
    token when a slot frees, then each event is Session.push + partial_verdict.
    """

    name = "stream"
    setup_reps = 3
    expected = CORE_LAYERS + ["grid.shift_cell", "online.open_session", "online.push", "stream.pass"]

    def __init__(self, b: Bench):
        super().__init__(b)
        self.sessions = STREAM_SESSIONS[b.size]
        self.reference: list[np.ndarray] | None = None
        self.first_ppls: list[float] | None = None

    def setup(self) -> dict[str, float]:
        times = super().setup()
        o = self.out
        times["train"] = self.b.cli("train", "--config", self.cfg, "--corpus", self.corpus,
                                    "--vocab", self.vocab, "--out", o / "model.ckpt",
                                    "--loss-log", o / "loss.csv")
        times["score"] = self.b.cli("score", "--config", self.cfg, "--checkpoint", o / "model.ckpt",
                                    "--vocab", self.vocab, "--corpus", self.corpus,
                                    "--out", o / "train_scores.csv", "--fit-thresholds",
                                    "--thresholds-out", o / "thresholds.csv")
        v = vocab.Vocab.load(self.vocab)
        self.model = checkpoint.read_checkpoint(o / "model.ckpt", expected_vocab_hash=v.hash())
        self.table = dataio.read_thresholds(o / "thresholds.csv")
        self.encoded = [dataio.encode_record(r, v) for r in dataio.read_corpus(self.eval_corpus)]
        return times

    def prepare(self) -> None:
        super().prepare()
        self.n_scored = self.n_trajs
        truth = dataio.truth_labels(dataio.read_truth(self.truth))
        self.labels = [truth[t.traj_id] for t in self.encoded]

    def stage_seconds(self, setups: list[dict], timed: list[dict]) -> tuple[list[float], list[float]]:
        """Training and threshold fitting run only in set-up here."""
        return [s["train"] for s in setups], [s["score"] for s in setups]

    def round(self) -> dict:
        model, table, encoded = self.model, self.table, self.encoded
        pending = iter(range(len(encoded)))
        latencies: list[int] = []
        traces: dict[int, list[float]] = {}
        ppls: dict[int, float] = {}

        def admit():
            for i in pending:
                traces[i] = []
                return [i, online.open_session(model, encoded[i].ids[:1]), 1]
            return None

        with self.b.span("stream.pass"):
            t0 = perf_counter()
            slots = [s for s in (admit() for _ in range(self.sessions)) if s is not None]
            j = 0
            while slots:
                if j >= len(slots):
                    j = 0
                slot = slots[j]
                i, session, pos = slot
                ids = encoded[i].ids
                done = pos + 1 == len(ids)
                self.b.attempted += 1
                e0 = perf_counter_ns()
                try:
                    s, _ = session.push(ids[pos])
                    online.partial_verdict(session, table, scope="global")
                except TrajLMError as e:
                    self.b.fail(f"stream: route {encoded[i].traj_id} position {pos}: {e}")
                    done = True
                else:
                    latencies.append(perf_counter_ns() - e0)
                    traces[i].append(s)
                slot[2] = pos + 1
                if not done:
                    j += 1
                    continue
                ppls[i] = session.running_perplexity if session.scored_count else math.nan
                nxt = admit()
                if nxt is None:
                    slots.pop(j)
                else:
                    slots[j] = nxt
                    j += 1
            wall = perf_counter() - t0
        return {"pipeline": wall, "events": len(latencies), "latencies": latencies,
                "traces": traces, "ppls": ppls}

    def check(self, result: dict) -> None:
        if self.reference is None:
            self.reference = [scoring.surprisal(self.model, t).values for t in self.encoded]
        traces = result.pop("traces")
        bad = 0
        for i, ref in enumerate(self.reference):
            got = np.asarray(traces.get(i, []))
            if got.shape != ref.shape:
                bad += 1
            else:
                bad += int(np.sum(np.abs(got - ref) > STREAM_REL_TOL * np.abs(ref)))
        if bad:
            self.b.fail(f"stream: {bad} surprisals differ from batch scoring beyond {STREAM_REL_TOL}", bad)
        ppls = [result["ppls"].get(i, math.nan) for i in range(len(self.encoded))]
        if self.first_ppls is None:
            self.first_ppls = ppls
        elif ppls != self.first_ppls:
            self.b.fail("stream: final perplexities differ from the first pass's")

    def quality(self) -> tuple[float, float]:
        """(final set-up training loss, global PR-AUC of the streamed final perplexities)."""
        return final_loss(self.out / "loss.csv"), evaluate.pr_auc(self.labels, self.first_ppls)


WORKLOADS = {w.name: w for w in (PolBatch, PortoBatch, Stream)}


def timed_rounds(wl, seconds: float, min_rounds: int) -> list[dict]:
    """Rounds until the next would end past `seconds`; every round's output is checked."""
    rounds: list[dict] = []
    start = perf_counter()
    while True:
        result = wl.round()
        wl.check(result)
        rounds.append(result)
        elapsed = perf_counter() - start
        if len(rounds) >= min_rounds and elapsed + result["pipeline"] > seconds:
            return rounds
