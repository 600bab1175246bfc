"""trajlm benchmark: run one workload, check its outputs, print every metric.

    python3 bench/run.py --workload pol-batch|porto-batch|stream --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``. With
``--trace 0`` the last stdout line holds the end-to-end metrics, measured
untraced. With ``--trace 1`` the run measures untraced rounds for half the time,
then traces one set-up and one round by wrapping trajlm's public functions, and
the last line holds the per-layer metrics. The line before it is the machine and
provenance block. bench/README.md describes every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BLAS_THREADS = 1  # one BLAS thread: steadier timings on a shared machine, at most nproc

# (name, unit, better, bound): bound is the share of the parent's median by
# which a metric may worsen before a change counts as a regression.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("pipeline_s", "s", "lower", 0.25),
    ("train_tokens_per_s", "tokens/s", "higher", 0.25),
    ("score_trajs_per_s", "trajs/s", "higher", 0.25),
    ("final_loss", "nats", "lower", 0.1),
    ("peak_rss_mb", "MB", "lower", 0.2),
]

# Layers traced as calls, total seconds and self seconds.
LAYERS = [
    "cli.gen-data", "cli.build-vocab", "cli.train", "cli.score", "cli.eval", "cli.report",
    "synth.gen", "grid.shift_cell", "vocab.build_vocab", "vocab.encode",
    "dataio.read_corpus", "dataio.write", "checkpoint.read", "checkpoint.write",
    "model.forward_batch", "model.backward", "model.layernorm", "model.softmax", "model.log_softmax",
    "training.adam_step", "training.pad_batch",
    "scoring.token_log_probs", "scoring.compute_thresholds", "scoring.classify",
    "online.open_session", "online.push", "online.partial_verdict",
    "evaluate.completion_ratio_eval", "evaluate.prefix_perplexity", "evaluate.pr_auc",
    "evaluate.per_agent_eval",
    "stream.pass",
]

# (name, unit, better) of the per-layer metrics besides each layer's calls/total_s/self_s.
PER_LAYER_EXTRA = [
    ("model.forward_batch.tokens", "count", "lower"),
    ("model.forward_tokens_per_call", "tokens", "higher"),
    ("training.pad_waste", "ratio", "lower"),
    ("scoring.forward_per_traj", "ratio", "lower"),
    ("online.tokens_advanced", "count", "lower"),
    ("online.recompute_ratio", "ratio", "lower"),
    ("report_prefixes_per_s", "prefixes/s", "higher"),
    ("push_p50_us", "us", "lower"),
    ("push_p99_us", "us", "lower"),
    ("push_samples", "count", "higher"),
    ("stream_events_per_s", "events/s", "higher"),
    ("pr_auc", "ratio", "higher"),
    ("failed_ops_ratio", "ratio", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.coverage_missing", "count", "lower"),
]


def per_layer_spec() -> list[tuple[str, str, str]]:
    spec = []
    for layer in LAYERS:
        spec += [(f"{layer}.calls", "count", "lower"), (f"{layer}.total_s", "s", "lower"),
                 (f"{layer}.self_s", "s", "lower")]
    return spec + PER_LAYER_EXTRA


def git_commit(root: Path) -> str:
    """HEAD commit read from .git without running git; "unknown" outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(root: Path, args) -> dict:
    import numpy as np

    blas = {"name": "unknown", "version": "unknown"}
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": info.get("name", "unknown"), "version": info.get("version", "unknown")}
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "commit": git_commit(root),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "size": args.size,
        "trace": args.trace,
    }


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def rate(work: float, seconds: list[float]) -> float:
    """Work per second over all samples: total work divided by total time.

    Slow phases of a shared host last from seconds to minutes. A median over a
    run's rounds snaps to whichever phase covers most of the run, while this
    time-weighted rate moves in proportion to it, so it spreads less across runs.
    """
    return work * len(seconds) / sum(seconds)


def import_times(src: Path, reps: int = 5) -> list[float]:
    """Wall times of a fresh interpreter importing the CLI, the start-up each `trajlm` call pays."""
    env = dict(os.environ, PYTHONPATH=str(src))
    times = []
    for _ in range(reps):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "import trajlm.cli"], env=env, check=True)
        times.append(perf_counter() - t0)
    return times


def end_to_end(wl, import_s: float, setups: list[dict], rounds: list[dict]) -> dict[str, float]:
    timed = rounds[1:]  # the first round warms caches and lazy set-up
    train_s, score_s = wl.stage_seconds(setups, timed)
    return {
        "setup_s": import_s + median([s["wall"] for s in setups]),
        "pipeline_s": statistics.fmean([r["pipeline"] for r in timed]),
        "train_tokens_per_s": rate(wl.train_tokens * wl.epochs, train_s),
        "score_trajs_per_s": rate(wl.n_scored, score_s),
        "final_loss": wl.quality()[0],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(wl, b, rounds: list[dict], traced: dict, tracer) -> dict[str, float]:
    timed = rounds[1:]
    stats = tracer.layer_stats()
    out: dict[str, float] = {}
    for layer in LAYERS:
        calls, total, self_s = tracer.group_stats(stats, layer)
        out[f"{layer}.calls"] = calls
        out[f"{layer}.total_s"] = total
        out[f"{layer}.self_s"] = self_s
    c = tracer.counters
    fwd_calls = out["model.forward_batch.calls"]
    untraced = statistics.fmean([r["pipeline"] for r in timed])
    report_s = [r["report"] for r in timed if "report" in r]
    latencies = sorted(ns for r in timed for ns in r.get("latencies", ()))
    out.update({
        "model.forward_batch.tokens": c["model.forward_batch.tokens"],
        "model.forward_tokens_per_call": c["model.forward_batch.tokens"] / fwd_calls if fwd_calls else 0.0,
        "training.pad_waste": c["training.pad_positions"] / c["training.positions"] if c["training.positions"] else 0.0,
        "scoring.forward_per_traj": tracer.count_under("model.forward_batch", "cli.score") / wl.n_scored,
        "online.tokens_advanced": c["online.tokens_advanced"],
        "online.recompute_ratio": (c["online.tokens_advanced"] / tracer.distinct_prefixes
                                   if tracer.distinct_prefixes else 0.0),
        "report_prefixes_per_s": rate(wl.n_eval * wl.n_ratios, report_s) if report_s else 0.0,
        "push_p50_us": latencies[len(latencies) // 2] / 1e3 if latencies else 0.0,
        "push_p99_us": latencies[int(len(latencies) * 0.99)] / 1e3 if latencies else 0.0,
        "push_samples": len(latencies),
        "stream_events_per_s": (sum(r["events"] for r in timed) / sum(r["pipeline"] for r in timed)
                                if latencies else 0.0),
        "pr_auc": wl.quality()[1],
        "failed_ops_ratio": b.failed / b.attempted,
        "trace.overhead_s": traced["pipeline"] - untraced,
        "trace.overhead_ratio": (traced["pipeline"] - untraced) / untraced,
        "trace.spans": len(tracer.spans),
    })
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=["pol-batch", "porto-batch", "stream"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "tiny"], default="full",
                        help="input sizes; tiny is for the smoke test")
    args = parser.parse_args(argv)
    # Set before numpy is first imported (by trajlm below).
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)

    root = Path.cwd()
    src = root / "src"
    if not (src / "trajlm" / "__init__.py").is_file():
        print(f"error: {src / 'trajlm'} not found; run from the root of a trajlm checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import trajlm

    if Path(trajlm.__file__).resolve().parent != (src / "trajlm").resolve():
        print(f"error: imported trajlm from {trajlm.__file__}, not from {src}", file=sys.stderr)
        return 2
    from tracer import Tracer
    from workloads import WORKLOADS, Bench, timed_rounds

    run_dir = root / ".bench_runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    b = Bench(root, run_dir, args.seed, args.size)
    try:
        wl = WORKLOADS[args.workload](b)
        setups = []
        for _ in range(1 if args.trace else wl.setup_reps):
            t0 = perf_counter()
            times = wl.setup()
            times["wall"] = perf_counter() - t0
            setups.append(times)
        wl.prepare()
        rounds = timed_rounds(wl, args.seconds / 2 if args.trace else args.seconds, min_rounds=3)
        if args.trace:
            tracer = Tracer(trajlm)
            b.tracer = tracer
            tracer.install()
            try:
                t0 = perf_counter()
                wl.setup()
                traced = wl.round()
                traced_wall = perf_counter() - t0
            finally:
                tracer.uninstall()
                b.tracer = None
            wl.check(traced)
            tracer.dump(run_dir / "spans.jsonl")
            metrics = per_layer(wl, b, rounds, traced, tracer)
            spec = per_layer_spec()
            missing = [layer for layer in wl.expected if metrics[f"{layer}.calls"] == 0]
            metrics["trace.coverage_missing"] = len(missing)
            if missing:
                print(f"TRACE COVERAGE FAILURE: no calls recorded for {', '.join(missing)}", file=sys.stderr)
            roots = sum(end - start for _, start, end, parent in tracer.spans if parent < 0)
            detail = {"traced_wall_s": traced_wall, "root_spans_s": roots}
        else:
            imports = import_times(src)
            metrics = end_to_end(wl, median(imports), setups, rounds)
            spec = [m[:3] for m in END_TO_END]
            detail = {"round_s": [{k: v for k, v in r.items() if isinstance(v, float)} for r in rounds],
                      "setup_s": setups, "import_s": imports}
    finally:
        b.close()
    for problem in b.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {
        "correct": b.failed == 0,
        "attempted": b.attempted,
        "failed": b.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit, _ in spec},
    }
    prov = provenance(root, args)
    with open(run_dir / "result.json", "w", encoding="utf-8") as fh:
        json.dump({"provenance": prov, "detail": detail, "problems": b.problems, **result}, fh, indent=1)
    for sub in ("data", "out"):
        shutil.rmtree(run_dir / sub, ignore_errors=True)
    print(json.dumps({"provenance": prov}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
