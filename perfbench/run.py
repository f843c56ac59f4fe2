"""Repository benchmark: one command for every workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \\
        --trace <0|1>

Runs one workload for ``--seconds`` with inputs made from ``--seed``,
checks the program's answers, prints a report and, as the last line of
standard output, one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  With ``--trace 0`` the metrics are the end-to-end metrics
(tracing off); with ``--trace 1`` they are the per-layer metrics of a
traced run, which also writes its spans to
``.bench_build/perfbench/traces/``.  The workloads and the metrics'
names and units are read from ``BENCHMARK.json``; a per-layer metric of
a layer the workload does not reach reads 0.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from pb.common import (ROOT, STATE, enter_run_dir, require_program,  # noqa: E402
                       result_line)


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    require_program()
    run_dir = enter_run_dir(args.workload)
    try:
        from pb.spans import SpanRecorder
        rec = SpanRecorder()
        if args.workload == "paper_cold":
            from pb.library import run_paper_cold as run
        else:
            from pb.library import run_latency_sweep as run
        out = run(args.seed, args.seconds, bool(args.trace), run_dir, rec)
        wanted = {m["name"]: m["unit"]
                  for m in spec["per_layer" if args.trace else "end_to_end"]}
        unknown = set(out.metrics) - set(wanted)
        missing = set() if args.trace else set(wanted) - set(out.metrics)
        units = {n for n, (_, u) in out.metrics.items()
                 if n in wanted and u != wanted[n]}
        if unknown or missing or units:
            raise RuntimeError(f"metrics not as in BENCHMARK.json: unlisted "
                               f"{sorted(unknown)}, missing {sorted(missing)}"
                               f", other unit {sorted(units)}")
        metrics = {name: out.metrics.get(name, (0.0, unit))
                   for name, unit in wanted.items()}
        if args.trace:
            path = STATE / "traces" / f"{args.workload}-seed{args.seed}.json"
            rec.write_chrome_trace(path)
            print(f"spans: {len(rec.spans)} written to "
                  f"{path.relative_to(ROOT)}")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    for line in out.report:
        print(line)
    print(f"checks: {out.checks_run} run, {len(out.check_failures)} failed")
    for failure in out.check_failures:
        print(f"CHECK FAILED {failure}")
    print(f"operations: {out.attempted} attempted, {out.failed} failed")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<34} {value:>14.6g} {unit}")
    print(result_line(not out.check_failures, out.attempted, out.failed,
                      metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
