"""Tests of the benchmark itself: its gate can fail, its counts repeat, and it
refuses to run without the library sources.

    python3 -m pytest perfbench/test_benchmark.py -q
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
WORKLOADS = ("paper-cli", "fuzz-battery", "large-chains")
EXACT_SUFFIXES = (".calls", ".calls.library", ".calls.oracle", ".svd_calls",
                  ".draws_per_instance", ".constructions", ".work", ".load_tensor.bytes")


def run(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )
    return proc


def result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_negative_control_makes_failures_nonzero(workload):
    out = result(run("--workload", workload, "--seed", "3", "--seconds", "0.5",
                     "--negative-control"))
    assert out["failed"] >= 1
    assert out["correct"] is False


@pytest.mark.parametrize("workload", ("paper-cli", "fuzz-battery"))
def test_exact_counters_repeat_for_a_seed(workload):
    args = ("--workload", workload, "--seed", "5", "--seconds", "1", "--trace", "1")
    first, second = result(run(*args)), result(run(*args))
    exact = [n for n in first["metrics"] if n.endswith(EXACT_SUFFIXES)]
    assert "pinv.svd.calls" in exact and "oracle.gen.draws_per_instance" in exact
    for name in exact:
        assert first["metrics"][name] == second["metrics"][name], name


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run("--workload", "paper-cli", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
