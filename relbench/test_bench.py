"""The benchmark's own checks.

    python3 -m pytest relbench/test_bench.py

Per-layer counts are the benchmark's steady anchor: two traced runs with the
same seed must report exactly the same counts on every workload, while
times drift with the machine.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
CONTRACT = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = HERE.parent) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / "relbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return proc.returncode, proc.stdout.strip().splitlines()


def result(*args: str) -> dict:
    code, lines = bench(*args)
    assert code == 0, lines
    out = json.loads(lines[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    return out


@pytest.mark.parametrize("workload", [w["name"] for w in CONTRACT["workloads"]])
def test_layer_counts_repeat_exactly(workload):
    args = ("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "1")
    first, second = result(*args), result(*args)
    assert set(first["metrics"]) == {m["name"] for m in CONTRACT["per_layer"]}
    counts = {k for k, m in first["metrics"].items() if m["unit"] == "count"}
    assert counts
    for name in counts:
        assert first["metrics"][name] == second["metrics"][name], name


def test_end_to_end_metrics_match_the_contract():
    out = result("--workload", "witness", "--seed", "5", "--seconds", "1", "--trace", "0")
    units = {m["name"]: m["unit"] for m in CONTRACT["end_to_end"]}
    assert {k: m["unit"] for k, m in out["metrics"].items()} == units
    assert all(m["value"] > 0 for m in out["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "relbench", ignore=shutil.ignore_patterns("__pycache__"))
    code, lines = bench("--workload", "core", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert code != 0
    assert not any(line.startswith("{") for line in lines)
