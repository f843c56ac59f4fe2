"""The library workloads: ``paper_cold`` and ``latency_sweep``.

Both call the program in this process through its public functions, so
``peak_rss_mb`` is this process's peak resident set, read as soon as the
timed window ends, before any check runs.  Timed operations
never check anything; every check runs after the timed window.
"""

from __future__ import annotations

import resource
import subprocess
import sys
import time
from functools import partial

from pb import checks as C
from pb.common import (ROOT, Outcome, derive_seed, median,
                       percentile, run_environment)
from pb.spans import SpanRecorder, instrument_library

MODELS = ("dmm", "umm", "hmm")
#: GTX580-like machine of the paper's Table I/II discussion.
GTX580 = dict(w=32, l=400, d=16)
#: One ``paper_cold`` round: every model runs each of these launches once.
COLD_SHAPES = (
    ("sum", dict(n=4096, k=0, p=256)),
    ("sum", dict(n=16384, k=0, p=1024)),
    ("conv", dict(n=2048, k=32, p=512)),
)
COLD_ROUND = tuple((m, k, s) for m in MODELS for k, s in COLD_SHAPES)
#: ``latency_sweep``: the latencies each fixed-shape sweep visits.
SWEEP_LATENCIES = (8, 16, 32, 64, 128, 256, 512)
SWEEP_SHAPES = (
    ("sum", dict(n=4096, k=0, p=256)),
    ("sum", dict(n=16384, k=0, p=1024)),
    ("conv", dict(n=1024, k=16, p=256)),
)
#: One ``latency_sweep`` round: every model sweeps each shape once.
SWEEP_ROUND = tuple((m, k, s) for m in MODELS for k, s in SWEEP_SHAPES)
#: Library workloads answer ~100-300 points a run, so their tail is p90
#: (at least ten samples beyond it); p99 would be the maximum.
TAIL_Q = 90.0
#: Fresh interpreters timed per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
ENGINE_TAGS = ("batch", "batch-fallback", "event", "replay", "replay-capture",
               "replay-refused")


def setup(workload: str) -> None:
    """Everything a user pays before the first answer: imports, the
    native backend build or load, the trace store."""
    from repro.analysis.terms import Params  # noqa: F401
    from repro.experiments import table1  # noqa: F401
    if workload == "latency_sweep":
        from repro.analysis.sweeps import run_sweep  # noqa: F401
        from repro.machine.replay import default_store
        from repro.native import native_available
        if not native_available():
            raise RuntimeError("native backend unavailable")
        default_store()


def measure_setup(workload: str, run_dir) -> list[float]:
    """Seconds from process start to ready, over fresh interpreters."""
    samples = []
    for i in range(SETUP_REPEATS):
        env = run_environment(run_dir / f"setup-{i}")
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "setup_probe.py"),
             workload], env=env, cwd=ROOT, capture_output=True, text=True,
            timeout=600)
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0 or "ready" not in proc.stdout:
            raise RuntimeError(f"set-up probe failed: {proc.stderr[-2000:]}")
        samples.append(elapsed)
    return samples


def _params(shape: dict, l: int):  # noqa: E741
    from repro.analysis.terms import Params
    return Params(n=shape["n"], k=shape["k"], p=shape["p"], w=GTX580["w"],
                  l=l, d=GTX580["d"])


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _tag_line(tags: dict) -> str:
    seen = ", ".join(f"{t}={tags[t]}" for t in ENGINE_TAGS if tags.get(t))
    other = {t: c for t, c in tags.items() if t not in ENGINE_TAGS}
    return "engine tags: " + (seen or "none") + (f" other={other}" if other
                                                  else "")


# ---------------------------------------------------------------------------
# paper_cold
# ---------------------------------------------------------------------------

def _cold_window(seed: int, seconds: float, salt: str) -> dict:
    """Whole rounds of Table I/II launches on fresh inputs until the
    window is spent.  Returns the raw per-launch rows."""
    from repro.experiments import table1
    rows = []
    t_start = time.perf_counter()
    deadline = t_start + seconds
    rnd = 0
    round_s = []
    while True:
        t_round = time.perf_counter()
        for i, (model, kernel, shape) in enumerate(COLD_ROUND):
            q = _params(shape, GTX580["l"])
            s = derive_seed(seed, salt, rnd, i)
            task = table1.sum_task if kernel == "sum" else table1.conv_task
            t0 = time.perf_counter()
            cycles, extra = task(q, model=model, seed=s)
            dt = time.perf_counter() - t0
            rows.append(dict(kernel=kernel, model=model, q=q, seed=s,
                             cycles=cycles, tag=extra.get("engine"),
                             dt=dt, round=rnd))
        round_s.append(time.perf_counter() - t_round)
        rnd += 1
        if time.perf_counter() >= deadline:
            break
    return {"rows": rows, "round_s": round_s,
            "elapsed": time.perf_counter() - t_start}


def _is_heavy(row: dict) -> bool:
    return row["kernel"] == "conv" and row["model"] == "hmm"


def _cold_metrics(win: dict) -> dict:
    """``heavy_p50_s`` is the median HMM convolution launch; the tail is
    taken over every other launch, so the two never measure one class."""
    rows = win["rows"]
    return {
        "points_per_s": (len(COLD_ROUND) / median(win["round_s"]), "1/s"),
        "cost_p50_ms": (median(r["dt"] for r in rows) * 1e3, "ms"),
        "cost_tail_ms": (percentile([r["dt"] for r in rows
                                     if not _is_heavy(r)], TAIL_Q) * 1e3,
                         "ms"),
        "heavy_p50_s": (median(r["dt"] for r in rows if _is_heavy(r)), "s"),
    }


def _facade(model: str, q, mode: str):
    from repro import DMM, HMM, UMM, HMMParams, MachineParams
    if model == "hmm":
        return HMM(HMMParams(num_dmms=q.d, width=q.w, global_latency=q.l),
                   mode=mode)
    cls = DMM if model == "dmm" else UMM
    return cls(MachineParams(width=q.w, latency=q.l), mode=mode)


def probe_paper_arithmetic(chk: C.Checker) -> None:
    """Fig. 4's 8 time units and Lemma 1's n/w + l - 1, computed by
    hand in :mod:`pb.checks` and by the program here."""
    import numpy as np
    from repro.core.kernels.contiguous import contiguous_read
    from repro.machine.engine import MachineEngine
    from repro.machine.policy import UMMGroupPolicy
    from repro.params import MachineParams

    eng = MachineEngine(MachineParams(width=4, latency=5), UMMGroupPolicy(),
                        name="umm")
    a = eng.alloc(16, "a")
    pattern = {0: np.array([15, 2, 6, 0]), 1: np.array([8, 9, 10, 11])}

    def prog(warp):
        yield warp.read(a, pattern[warp.warp_id])

    chk("fig4", C.check_equal_cycles, "Fig. 4 example",
        eng.launch(prog, 8).cycles, C.FIG4_EXPECTED)
    n, w, l, p = 128, 4, 4, 32  # noqa: E741 - p/w >= l: fully pipelined
    eng = MachineEngine(MachineParams(width=w, latency=l), UMMGroupPolicy(),
                        name="umm")
    buf = eng.alloc(n)
    chk("lemma1", C.check_equal_cycles, "Lemma 1 contiguous read",
        eng.launch(contiguous_read(buf, n), p).cycles,
        C.lemma1_expected(n, w, l))


def check_cold(rows: list, chk: C.Checker) -> dict:
    """Checks of ``paper_cold``; returns the simulated statistics of the
    first round under ``mode="event"``."""
    from repro.experiments.table1 import point_rng
    for r in rows:
        q = r["q"]
        chk("bounds", C.check_lower_bounds, r["cycles"], q.n, q.w, q.l)
    probe_paper_arithmetic(chk)
    sim = {"cycles": 0, "transactions": 0, "slots": 0}
    for r in (r for r in rows if r["round"] == 0):
        q, label = r["q"], f"{r['kernel']}/{r['model']}/n={r['q'].n}"
        rng = point_rng(r["seed"], r["kernel"], q)
        default = _facade(r["model"], q, "batch")
        event = _facade(r["model"], q, "event")
        if r["kernel"] == "sum":
            values = rng.normal(size=q.n)
            total, rep = default.sum(values, q.p)
            chk(label, C.check_sum_value, values, total)
            _, erep = event.sum(values, q.p)
        else:
            x = rng.normal(size=q.k)
            y = rng.normal(size=q.n + q.k - 1)
            z, rep = default.convolve(x, y, q.p)
            chk(label, C.check_conv_values, x, y, z)
            _, erep = event.convolve(x, y, q.p)
        chk(label, C.check_equal_cycles, label + " facade vs task",
            rep.cycles, r["cycles"])
        chk(label, C.check_equal_cycles, label + " vs event", r["cycles"],
            erep.cycles)
        sim["cycles"] += erep.cycles
        sim["transactions"] += sum(u.transactions
                                   for u in erep.unit_stats.values())
        sim["slots"] += sum(u.slots for u in erep.unit_stats.values())
    return sim


def _cold_vs_event(seed: int) -> dict:
    """Default-mode wall time over ``mode="event"`` wall time, on the same
    inputs, per kernel and model (median of three)."""
    from repro.experiments import table1
    out = {}
    for kernel, shape in (COLD_SHAPES[0], COLD_SHAPES[2]):
        task = table1.sum_task if kernel == "sum" else table1.conv_task
        q = _params(shape, GTX580["l"])
        for model in MODELS:
            ratios = []
            for i in range(3):
                s = derive_seed(seed, "vs_event", kernel, model, i)
                t0 = time.perf_counter()
                task(q, model=model, seed=s)
                t1 = time.perf_counter()
                task(q, model=model, seed=s, mode="event")
                t2 = time.perf_counter()
                ratios.append((t1 - t0) / (t2 - t1))
            out[f"machine.vs_event.{kernel}.{model}"] = (median(ratios), "ratio")
    return out


def run_paper_cold(seed: int, seconds: float, trace: bool, run_dir,
                   rec: SpanRecorder) -> Outcome:
    setup_samples = measure_setup("paper_cold", run_dir)
    setup("paper_cold")
    out = Outcome(attempted=0, failed=0)
    chk = C.Checker()
    if trace:
        untraced = _cold_metrics(_cold_window(seed, seconds, "off"))
        instrument_library(rec)
        try:
            win = _cold_window(seed, seconds, "on")
        finally:
            rec.restore()
    else:
        win = _cold_window(seed, seconds, "on")
    rss = _peak_rss_mb()
    rows = win["rows"]
    out.attempted = len(rows)
    e2e = _cold_metrics(win)
    e2e["setup_s"] = (median(setup_samples), "s")
    sim = check_cold(rows, chk)
    tags: dict = {}
    for r in rows:
        tags[r["tag"]] = tags.get(r["tag"], 0) + 1
    out.report += [
        f"paper_cold: {len(rows)} launches in {win['elapsed']:.2f} s "
        f"({rows[-1]['round'] + 1} rounds of {len(COLD_ROUND)}); points_per_s "
        "is the median over rounds",
        f"cost_tail_ms is p{TAIL_Q:g} of the "
        f"{sum(not _is_heavy(r) for r in rows)} launches other than HMM "
        f"convolution; heavy_p50_s is the median of "
        f"{sum(_is_heavy(r) for r in rows)} HMM convolution launches",
        f"setup samples (s): {', '.join(f'{s:.3f}' for s in setup_samples)}",
        _tag_line(tags),
        f"sim (round 0, event): {sim}",
    ]
    if trace:
        from pb.serving import serving_phases
        layer = _library_layers(rec, tags)
        layer.update(_cold_vs_event(seed))
        layer.update({f"sim.{k}": (v, "count") for k, v in sim.items()})
        layer.update(_overhead(untraced, e2e))
        served, lines = serving_phases(seed, seconds / 2, run_dir, rec, chk)
        layer.update(served)
        out.report += lines
        out.metrics = layer
    else:
        e2e["peak_rss_mb"] = (rss, "MB")
        out.metrics = e2e
    out.checks_run, out.check_failures = chk.run, chk.failures
    return out


def _overhead(off: dict, on: dict) -> dict:
    """Tracing on minus tracing off, for the end-to-end metrics both
    passes measured."""
    return {f"trace.overhead.{name}": (on[name][0] - off[name][0], unit)
            for name, (_, unit) in off.items() if name in on}


def _library_layers(rec: SpanRecorder, tags: dict) -> dict:
    runs = rec.named("machine.run_warp_program")
    run_s = sum(s.seconds for s in runs)
    task_s = rec.total_s("task.sum") + rec.total_s("task.conv")
    inside = (rec.child_time_s("task.sum", "machine.run_warp_program")
              + rec.child_time_s("task.conv", "machine.run_warp_program"))
    tx = sum(s.attrs.get("transactions", 0) for s in runs)
    return {
        "machine.run_s": (run_s, "s"),
        "machine.outside_run_s": (task_s - inside, "s"),
        "machine.fallbacks": (tags.get("batch-fallback", 0), "count"),
        "machine.host_us_per_tx": (task_s / tx * 1e6 if tx else 0.0, "us"),
    }


# ---------------------------------------------------------------------------
# latency_sweep
# ---------------------------------------------------------------------------

class _TimedMeasure:
    """The sweep's measure function, timing each point it answers."""

    def __init__(self, fn) -> None:
        self.fn = fn
        self.times: list[float] = []

    def __call__(self, q):
        t0 = time.perf_counter()
        out = self.fn(q)
        self.times.append(time.perf_counter() - t0)
        return out


def _sweep_window(seed: int, seconds: float, salt: str) -> dict:
    from repro.analysis.sweeps import run_sweep
    from repro.experiments import table1
    sweeps = []
    round_s = []
    t_start = time.perf_counter()
    deadline = t_start + seconds
    rnd = 0
    while True:
        t_round = time.perf_counter()
        for i, (model, kernel, shape) in enumerate(SWEEP_ROUND):
            s = derive_seed(seed, salt, rnd, i)
            task = table1.sum_task if kernel == "sum" else table1.conv_task
            measure = _TimedMeasure(partial(task, model=model, seed=s,
                                            mode="replay", backend="native"))
            points = [_params(shape, l) for l in SWEEP_LATENCIES]
            t0 = time.perf_counter()
            result = run_sweep(measure, points, jobs=1, cache=False,
                               mode="replay")
            dt = time.perf_counter() - t0
            sweeps.append(dict(kernel=kernel, model=model, seed=s,
                               round=rnd, dt=dt, times=measure.times,
                               points=[(pt.params, pt.cycles,
                                        pt.extra.get("engine"))
                                       for pt in result]))
        round_s.append(time.perf_counter() - t_round)
        rnd += 1
        if time.perf_counter() >= deadline:
            break
    return {"sweeps": sweeps, "round_s": round_s,
            "elapsed": time.perf_counter() - t_start}


def _sweep_metrics(win: dict) -> dict:
    sweeps = win["sweeps"]
    times = [t for sw in sweeps for t in sw["times"]]
    per_round = len(SWEEP_ROUND) * len(SWEEP_LATENCIES)
    return {
        "points_per_s": (per_round / median(win["round_s"]), "1/s"),
        "cost_p50_ms": (median(times) * 1e3, "ms"),
        "cost_tail_ms": (percentile(times, TAIL_Q) * 1e3, "ms"),
        "heavy_p50_s": (median([sw["dt"] for sw in sweeps
                                if sw["kernel"] == "conv"]), "s"),
    }


def check_sweeps(sweeps: list, chk: C.Checker) -> dict:
    """Checks of ``latency_sweep``; returns the simulated statistics of
    the first round's lowest and highest latency under ``mode="event"``."""
    from repro.experiments import table1
    sim = {"cycles": 0, "transactions": 0, "slots": 0}
    for sw in sweeps:
        for q, cycles, _ in sw["points"]:
            chk("bounds", C.check_lower_bounds, cycles, q.n, q.w, q.l)
        chk(f"monotone {sw['kernel']}/{sw['model']}", C.check_monotone_in_l,
            [(q.l, c) for q, c, _ in sw["points"]])
        if sw["round"] != 0:
            continue
        launch = (table1.sum_launch_report if sw["kernel"] == "sum"
                  else table1.conv_launch_report)
        for q, cycles, _ in (sw["points"][0], sw["points"][-1]):
            rep = launch(q, model=sw["model"], seed=sw["seed"], mode="event")
            label = f"{sw['kernel']}/{sw['model']}/l={q.l}"
            chk(label, C.check_equal_cycles, label + " vs event", cycles,
                rep.cycles)
            sim["cycles"] += rep.cycles
            sim["transactions"] += sum(u.transactions
                                       for u in rep.unit_stats.values())
            sim["slots"] += sum(u.slots for u in rep.unit_stats.values())
    return sim


def run_latency_sweep(seed: int, seconds: float, trace: bool, run_dir,
                      rec: SpanRecorder) -> Outcome:
    setup_samples = measure_setup("latency_sweep", run_dir)
    setup("latency_sweep")
    from repro.machine.replay import default_store
    from repro.native import native_metrics_snapshot
    out = Outcome(attempted=0, failed=0)
    chk = C.Checker()
    if trace:
        untraced = _sweep_metrics(_sweep_window(seed, seconds, "off"))
        default_store().clear()
    store_before = default_store().stats()
    native_before = native_metrics_snapshot()
    if trace:
        instrument_library(rec)
        try:
            win = _sweep_window(seed, seconds, "on")
        finally:
            rec.restore()
    else:
        win = _sweep_window(seed, seconds, "on")
    rss = _peak_rss_mb()
    store_after = default_store().stats()
    native_after = native_metrics_snapshot()
    sweeps = win["sweeps"]
    out.attempted = sum(len(sw["points"]) for sw in sweeps)
    e2e = _sweep_metrics(win)
    e2e["setup_s"] = (median(setup_samples), "s")
    sim = check_sweeps(sweeps, chk)
    tags: dict = {}
    for sw in sweeps:
        for _, _, tag in sw["points"]:
            tags[tag] = tags.get(tag, 0) + 1
    d = {k: getattr(store_after, k) - getattr(store_before, k)
         for k in ("captures", "refusals", "hits", "misses")}
    d["flagged"] = store_after.flagged_programs - store_before.flagged_programs
    out.report += [
        f"latency_sweep: {out.attempted} points in {len(sweeps)} sweeps of "
        f"{len(SWEEP_LATENCIES)} latencies, {win['elapsed']:.2f} s; "
        "points_per_s is the median over rounds",
        f"cost_tail_ms is p{TAIL_Q:g} of {out.attempted} points; heavy_p50_s "
        f"is the median of {sum(sw['kernel'] == 'conv' for sw in sweeps)} "
        "convolution sweeps",
        f"setup samples (s): {', '.join(f'{s:.3f}' for s in setup_samples)}",
        _tag_line(tags),
        f"trace store: {d['captures']} captures, {d['hits']} hits, "
        f"{d['refusals']} refusals, {d['flagged']} programs flagged "
        "non-oblivious",
        f"sim (round 0, lowest and highest l, event): {sim}",
    ]
    if trace:
        layer = _library_layers(rec, tags)
        layer.update({f"sim.{k}": (v, "count") for k, v in sim.items()})
        layer.update(_replay_layers(rec, d, store_after, native_before,
                                    native_after, out.attempted))
        layer.update(_overhead(untraced, e2e))
        out.metrics = layer
    else:
        e2e["peak_rss_mb"] = (rss, "MB")
        out.metrics = e2e
    out.checks_run, out.check_failures = chk.run, chk.failures
    return out


def _replay_layers(rec, d, store_after, native_before, native_after,
                   points: int) -> dict:
    launches = rec.named("replay.launch")
    warm = [s.seconds for s in launches if s.attrs.get("tag") == "replay"]
    puts = [s.seconds for s in rec.named("store.put", ns="trace")]
    inserted = rec.named("store.trace_insert")
    measured = rec.total_s("task.sum") + rec.total_s("task.conv")
    executor_s = rec.total_s("executor.run")
    return {
        "replay.captures": (d["captures"], "count"),
        "replay.hits": (d["hits"], "count"),
        "replay.refusals": (d["refusals"], "count"),
        "replay.flagged": (d["flagged"], "count"),
        "replay.capture_s": (sum(s.seconds for s in launches
                                 if s.attrs.get("tag") == "replay-capture"),
                             "s"),
        "replay.warm_ms_p50": (median(warm) * 1e3 if warm else 0.0, "ms"),
        "replay.refused_s": (sum(s.seconds for s in launches
                                 if s.attrs.get("tag") == "replay-refused"),
                             "s"),
        "replay.trace_mb": (sum(s.attrs.get("nbytes", 0) for s in inserted)
                            / 1e6, "MB"),
        "native.calls": (native_after["native_calls"]
                         - native_before["native_calls"], "count"),
        "native.fallbacks": (native_after["python_fallbacks"]
                             - native_before["python_fallbacks"], "count"),
        "store.trace_put_ms_p50": (median(puts) * 1e3 if puts else 0.0, "ms"),
        "store.trace_disk_mb": (store_after.size_bytes / 1e6, "MB"),
        "executor.overhead_ms": ((executor_s - measured) / points * 1e3
                                 if points else 0.0, "ms"),
    }
