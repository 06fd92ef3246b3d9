"""Smoke test of the end-to-end benchmark: every workload, traced and untraced.

Each workload runs at ``--smoke`` sizes (a few seconds) in a scratch
workdir.  The test checks that the run reports correct outputs and that
the last line carries every metric ``BENCHMARK.json`` declares for that
mode, with its unit, as a finite number.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    BENCH = json.load(_handle)


def _run(workload: str, trace: int, workdir: str):
    completed = subprocess.run(
        [
            sys.executable,
            os.path.join(HERE, "run.py"),
            "--workload", workload,
            "--seed", "3",
            "--seconds", "1",
            "--trace", str(trace),
            "--smoke",
            "--workdir", workdir,
        ],
        capture_output=True,
        text=True,
        timeout=120,
        cwd=ROOT,
    )
    return completed


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """``{(workload, trace): CompletedProcess}``; two workloads at a time."""
    workdir = str(tmp_path_factory.mktemp("e2e"))

    def both(workload):
        # Untraced first: the traced run then reuses the cached inputs.
        return [(workload, t, _run(workload, t, workdir)) for t in (0, 1)]

    with ThreadPoolExecutor(max_workers=2) as pool:
        results = [r for batch in pool.map(both, [w["name"] for w in BENCH["workloads"]]) for r in batch]
    return {(workload, trace): completed for workload, trace, completed in results}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_workload_reports_every_metric(runs, workload, trace):
    completed = runs[(workload, trace)]
    assert completed.returncode == 0, completed.stderr[-2000:]
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"]), name
    lines = completed.stdout.splitlines()
    for metric in declared:
        assert any(line.split()[:1] == [metric["name"]] and line.endswith(metric["unit"]) for line in lines)


def test_untraced_gate_metrics_are_positive(runs):
    for workload in (w["name"] for w in BENCH["workloads"]):
        result = json.loads(runs[(workload, 0)].stdout.strip().splitlines()[-1])
        assert all(m["value"] > 0 for m in result["metrics"].values()), workload


def test_without_the_package_exits_nonzero_and_prints_no_result(tmp_path):
    bench_dir = tmp_path / "benchmarks" / "e2e"
    bench_dir.mkdir(parents=True)
    for name in os.listdir(HERE):
        if name.endswith(".py"):
            shutil.copy(os.path.join(HERE, name), bench_dir / name)
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(BENCH))
    completed = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "topk-http",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=str(tmp_path),
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
