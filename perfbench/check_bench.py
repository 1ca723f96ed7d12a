"""Tests of the benchmark itself, kept apart from the package's suite.

    python3 -m pytest perfbench/check_bench.py

Each test runs the command of BENCHMARK.json from the root of a checkout,
with --seconds 1 (one repetition per run).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def run(root: Path, workload: str, seed: int, trace: int):
    cmd = [*BENCHMARK["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace)]
    cmd[0] = sys.executable
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=180)


def results(proc):
    assert proc.returncode == 0, proc.stderr
    meta, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return meta, result


def copy_checkout(dest: Path, with_sources: bool) -> Path:
    ignore = shutil.ignore_patterns("__pycache__")
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    for path in BENCHMARK["paths"]:
        shutil.copytree(ROOT / path, dest / path, ignore=ignore)
    if with_sources:
        shutil.copytree(ROOT / "src", dest / "src", ignore=ignore)
    return dest


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace):
    meta, result = results(run(ROOT, workload, 0, trace))
    assert result["correct"] and result["failed"] == 0 and meta["failed_frac"] == 0
    assert result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_corrupted_expected_digest_fails_every_op(tmp_path):
    root = copy_checkout(tmp_path, with_sources=True)
    digests_path = root / "perfbench" / "expected_digests.json"
    digests = json.loads(digests_path.read_text())
    assert "0" in digests["words"], "seed 0 must be a committed default seed"
    digests["words"]["0"] = "0" * 16
    digests_path.write_text(json.dumps(digests))
    meta, result = results(run(root, "words", 0, 0))
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0
    assert meta["failed_frac"] == 1.0


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    root = copy_checkout(tmp_path, with_sources=False)
    proc = run(root, "words", 0, 0)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
