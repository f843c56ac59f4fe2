"""Steadiness check: run workloads over several seeds and report spreads.

    python3 perfbench/steady.py [--workloads a,b] [--seeds 10] [--first-seed 1]

For every workload it runs ``perfbench/run.py`` once per seed (tracing
off, ``run_seconds`` from ``BENCHMARK.json``) and prints, per end-to-end
metric, the median, the first and third quartiles (Python's
``statistics.quantiles(values, n=4)``) and the spread (Q3 - Q1) / median
next to the metric's bound.  A spread at or above a third of its bound
is marked; ``setup_s`` is exempt (only its median is compared between
two sets of runs).  It also checks that every run was correct and that
the share of failed operations is the same in every run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for workload in args.workloads.split(","):
        results = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            cmd = [*spec["command"], "--workload", workload, "--seed",
                   str(seed), "--seconds", str(spec["run_seconds"]),
                   "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n"
                      f"{proc.stderr[-2000:]}")
                return 1
            results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        shares = {r["failed"] / r["attempted"] for r in results}
        correct = all(r["correct"] for r in results)
        ok &= correct and len(shares) == 1
        print(f"{workload}: {len(results)} seeds, correct={correct}, "
              f"failed share {sorted(shares)}, attempted "
              f"{[r['attempted'] for r in results]}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            mark = ""
            if name != "setup_s" and spread >= bound / 3:
                mark = "  <-- spread >= bound/3"
                ok = False
            print(f"  {name:<14} median {med:12.5g}  q1 {q1:12.5g}  "
                  f"q3 {q3:12.5g}  spread {spread:6.3f}  bound {bound}{mark}")
        sys.stdout.flush()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
