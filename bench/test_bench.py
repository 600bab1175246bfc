"""Smoke test of the benchmark at tiny sizes.

Checks the result schema against BENCHMARK.json, trace coverage, and that the
traced stage spans account for the traced wall time. Run from the repo root:

    python3 -m pytest bench
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# Root spans (CLI stages and stream passes) must cover the traced wall time to
# within this share; what is left is the benchmark's own glue between stages.
STAGE_MARGIN = 0.05


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_result_schema(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    provenance = json.loads(lines[-2])["provenance"]
    assert {"nproc", "python", "numpy", "blas", "blas_threads", "commit", "seed"} <= provenance.keys()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
        if not trace:
            assert got["value"] > 0, m["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_trace_coverage_and_stage_sums(workload):
    proc = run_bench(ROOT, workload, 1)
    assert proc.returncode == 0, proc.stderr
    assert "COVERAGE FAILURE" not in proc.stderr
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    assert metrics["trace.coverage_missing"]["value"] == 0

    run_dir = ROOT / ".bench_runs" / f"{workload}-seed3-trace1"
    detail = json.loads((run_dir / "result.json").read_text())["detail"]
    assert detail["root_spans_s"] <= detail["traced_wall_s"]
    assert detail["root_spans_s"] >= (1 - STAGE_MARGIN) * detail["traced_wall_s"]

    spans = [json.loads(line) for line in (run_dir / "spans.jsonl").read_text().splitlines()]
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            child[s["parent"]] += s["end"] - s["start"]
    self_total = sum(s["end"] - s["start"] - c for s, c in zip(spans, child))
    roots = sum(s["end"] - s["start"] for s in spans if s["parent"] < 0)
    assert self_total == pytest.approx(roots, rel=1e-6)


def test_fails_without_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
