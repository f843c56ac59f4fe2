"""Tiny-size runs of every workload, and a run without the program."""

import json
import shutil
import subprocess
import sys

import pytest

from conftest import PERFBENCH

ROOT = PERFBENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds",
                "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stdout
    assert result["attempted"] >= 1 and result["failed"] == 0
    wanted = {m["name"]: m["unit"]
              for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert set(result["metrics"]) == set(wanted)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == wanted[name]
        if not trace:
            assert metric["value"] > 0, name


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(PERFBENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "paper_cold", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert "{" not in proc.stdout
