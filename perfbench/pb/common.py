"""Paths, environment, statistics and the result line shared by every workload."""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path

#: Root of the checkout the benchmark runs in (``perfbench/..``).
ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
#: Everything the benchmark writes lives under here (ignored by git).
STATE = ROOT / ".bench_build" / "perfbench"

def require_program() -> None:
    """Exit non-zero (printing no result) when the program is absent."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program under {SRC.relative_to(ROOT)}/repro; "
              "run from the root of a repro checkout", file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def run_environment(run_dir: Path) -> dict:
    """Environment that keeps every store, cache and temp file of the
    program inside ``run_dir`` (the native build cache is shared between
    runs, like a build directory)."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("REPRO_", "PYTHONPATH"))}
    (run_dir / "tmp").mkdir(parents=True, exist_ok=True)
    env.update(
        PYTHONPATH=str(SRC),
        REPRO_STORE_DIR=str(run_dir / "store"),
        REPRO_STORE_NATIVE_DIR=str(STATE / "native"),
        TMPDIR=str(run_dir / "tmp"),
        PYTHONDONTWRITEBYTECODE="1",
    )
    return env


def enter_run_dir(tag: str) -> Path:
    """Create this process's private state directory and point the
    program's stores at it (must run before ``repro`` is imported)."""
    run_dir = STATE / f"{tag}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    env = run_environment(run_dir)
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    os.environ.update({k: v for k, v in env.items()
                       if k.startswith(("REPRO_", "TMPDIR"))})
    import tempfile
    tempfile.tempdir = None  # re-read TMPDIR
    return run_dir


def derive_seed(*parts) -> int:
    """A 31-bit seed derived from the workload seed and a position, so
    every launch gets fresh inputs that depend only on ``--seed``."""
    material = ":".join(str(p) for p in parts).encode()
    return int.from_bytes(hashlib.sha256(material).digest()[:4], "little") >> 1


def percentile(values, q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0..100)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values) -> float:
    return statistics.median(values)


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set of ``pid`` in MB (``VmHWM``), 0 when gone."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def child_pids(pid: int) -> list[int]:
    """Direct children of ``pid`` (Linux ``/proc`` children lists)."""
    kids: list[int] = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return kids
    for tid in tasks:
        try:
            with open(f"/proc/{pid}/task/{tid}/children") as fh:
                kids.extend(int(x) for x in fh.read().split())
        except OSError:
            continue
    return kids


@dataclass
class Outcome:
    """What one workload run hands back to ``run.py``."""

    attempted: int
    failed: int
    #: The metrics to print (end-to-end, or per-layer when traced):
    #: name -> (value, unit).
    metrics: dict = field(default_factory=dict)
    #: Human-readable report lines printed before the result line.
    report: list = field(default_factory=list)
    #: Failed correctness checks (empty means correct).
    check_failures: list = field(default_factory=list)
    checks_run: int = 0


def result_line(correct: bool, attempted: int, failed: int,
                metrics: dict) -> str:
    return json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()},
    })
