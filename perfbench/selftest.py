"""Self-tests of the benchmark (not part of the package's test suite).

    python3 -m pytest -q perfbench/selftest.py

They run every workload for a moment, so they take about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=180)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted_and_self_times_fit_the_wall(workload):
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        proc = bench("--workload", workload, "--seed", "3",
                     "--seconds", "0.01", "--trace", str(trace))
        assert proc.returncode == 0, proc.stderr
        details, result = map(json.loads, proc.stdout.splitlines()[-2:])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in SPEC[group]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == want
        assert all(isinstance(v["value"], (int, float))
                   for v in result["metrics"].values())
        if trace:
            spans = details["details"]["span_summary"].values()
            assert all(s["self_s"] >= -1e-9 for s in spans)
            assert sum(s["self_s"] for s in spans) \
                <= details["details"]["traced_wall_s"]


@pytest.mark.parametrize("workload", sorted(workloads.PLANS))
def test_same_seed_same_inputs(workload):
    build = workloads.PLANS[workload]
    assert build(7).inputs == build(7).inputs
    assert build(7).inputs != build(8).inputs


def test_fails_without_the_program():
    # a directory holding only BENCHMARK.json and the benchmark's files
    bare = ROOT / ".perfbench" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = bench("--workload", "cli", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout == ""
