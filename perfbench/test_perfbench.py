"""Smoke test of the benchmark: every workload at the tiny size, both modes.

    python3 -m pytest perfbench

Checks the output contract and the correctness checks, never timing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=180)


def tiny_run(workload: str, trace: int) -> tuple[dict, dict]:
    proc = bench("--workload", workload, "--seed", "7", "--seconds", "1",
                 "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    info_line, result_line = proc.stdout.splitlines()[-2:]
    assert info_line.startswith("# perfbench ")
    return json.loads(info_line.removeprefix("# perfbench ")), \
        json.loads(result_line)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_meets_the_output_contract(workload, trace):
    info, result = tiny_run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        value = result["metrics"][m["name"]]
        assert set(value) == {"value", "unit"}
        assert value["unit"] == m["unit"]
        assert isinstance(value["value"], (int, float))
    for key in ("python", "nproc", "git_sha", "why"):
        assert info[key]
    if trace:
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        assert metrics["fail_frac"] == 0
        assert info["coverage_guard"] == "pass"
        stall = sum(metrics[f"pipeline.stall.{c}"] for c in
                    ("flush", "mul", "load_use", "fill", "other"))
        assert metrics["pipeline.cycles"] == metrics["pipeline.retired"] + stall
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_simulated_counts_repeat_exactly():
    counts = ["pipeline.cycles", "pipeline.retired", "pipeline.stall.flush",
              "pipeline.stall.mul", "pipeline.stall.load_use",
              "pipeline.stall.fill", "pipeline.stall.other"]
    first, second = (tiny_run("corpus", 1)[1]["metrics"] for _ in range(2))
    assert [first[c] for c in counts] == [second[c] for c in counts]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
