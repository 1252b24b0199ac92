"""Smoke run of the repository benchmark: every workload, and a traced
`adapt`, runs to completion at the shortest run length and prints its JSON
result line, holding every end-to-end metric (every per-layer metric, for
the traced run) that BENCHMARK.json declares.

It checks completion only: whether a workload's own checks pass (its
`correct` field) is the benchmark's business, so no seed is picked to make
them pass.
"""

import json
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKLOADS = ("pretrain", "pretrain-mixed", "adapt", "infer")
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args):
    cmd = [sys.executable, "perfbench/run.py", "--seed", "1", "--seconds", "1", *args]
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)


def _results(stdout):
    """The JSON result lines of a run's stdout, in workload order."""
    return [json.loads(line) for line in stdout.splitlines() if line.startswith("{")]


@pytest.mark.parametrize("args,workloads,kind", [
    (("--workload", "all"), WORKLOADS, "end_to_end"),
    (("--workload", "adapt", "--trace", "1"), ("adapt",), "per_layer"),
], ids=["all", "adapt-traced"])
def test_benchmark_runs_to_completion(args, workloads, kind):
    run = _run(*args)
    assert "check run_completed: FAIL" not in run.stdout, run.stdout[-4000:] + run.stderr[-4000:]
    results = _results(run.stdout)
    assert len(results) == len(workloads), run.stdout[-4000:] + run.stderr[-4000:]
    for name, result in zip(workloads, results):
        missing = [m["name"] for m in DECLARED[kind] if m["name"] not in result["metrics"]]
        assert not missing, f"{name}: no {missing} in {result}"
