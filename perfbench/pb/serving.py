"""Serving and cluster phases of the traced run.

The service and the cluster are measured by the traced ``paper_cold``
run only: on a 2-CPU host their millisecond latencies spread too much
from run to run to hold an end-to-end bound (see ``perfbench/README.md``,
"Dropped workloads").  The program runs in its own processes
(``python -m repro.service serve`` and ``python -m repro.cluster serve``);
this process is the load generator and the checker.

The light lane is an open loop on one connection: request ``i`` is due at
``t0 + i / LIGHT_RATE`` and its latency is measured from that due time,
so a stall also charges the requests queued behind it.  The heavy lane is
a second connection sending sweep, advise and tune on a fixed schedule,
each with a seed never used before in the run.
"""

from __future__ import annotations

import bisect
import http.client
import json
import os
import random
import signal
import subprocess
import sys
import threading
import time
from urllib.parse import urlencode, urlsplit

from pb import checks as C
from pb.common import (ROOT, child_pids, derive_seed,
                       median, percentile, run_environment, vm_hwm_mb)
from pb.spans import SpanRecorder, instrument_library

#: Light-lane rate, well under one connection's capacity (see the
#: README's "Light-lane rate and mix" for the measurement).
LIGHT_RATE = 40.0
#: Every MISS_EVERY-th light request is a fresh-seed sum, so the lane
#: keeps the evaluation and store-write path in the window while most of
#: it stays store reads.
MISS_EVERY = 25
#: Popularity of the Table I set: the Zipf exponent the repository's own
#: service and cluster benchmarks (benchmarks/bench_service.py,
#: benchmarks/bench_cluster.py) drive ``table1_workload`` with.
ZIPF_S = 2.5
#: Model of the Table I set, the repository load generators' default.
MODEL = "hmm"
#: Light-lane tail: a phase lasts half the run (10 s at 20 s runs, 400
#: light requests), so p97.5 has ten samples beyond it.
TAIL_Q = 97.5
#: Heavy lane: one request every HEAVY_PERIOD_S, cycling these kinds; it
#: starts half a light interval off the light lane's grid, so a heavy and a
#: light request are never due at the same instant.
HEAVY_PERIOD_S = 1.25
HEAVY_KINDS = ("sweep", "advise", "tune")
TUNE_BUDGET = 4
SWEEP_LS = (100, 200, 400, 800)


def repeated_specs(seed: int) -> list[dict]:
    """The Table I set the light lane repeats, in Zipf rank order
    (``repro.service.loadgen.table1_workload``), on this run's inputs."""
    from repro.service.loadgen import table1_workload
    s = derive_seed(seed, "repeated")
    return [dict(spec, seed=s) for spec in table1_workload(MODEL)]


def miss_spec(seed: int, salt: str, i: int) -> dict:
    """The smallest Table I sum (rank 1 of the set) with a fresh seed."""
    return dict(repeated_specs(seed)[0],
                seed=derive_seed(seed, salt, "miss", i))


def light_schedule(seed: int, salt: str, seconds: float) -> list[dict]:
    """Fixed-length request list: Zipf-picked repeats, sampled as the
    repository's load generators do, plus fresh sums."""
    from repro.service.loadgen import _zipf_cdf
    rep = repeated_specs(seed)
    cdf = _zipf_cdf(len(rep), ZIPF_S)
    rng = random.Random(derive_seed(seed, salt, "zipf"))
    out = []
    for i in range(int(LIGHT_RATE * seconds)):
        # min(): the cdf's last entry can round to just below 1.0
        rank = min(bisect.bisect_left(cdf, rng.random()), len(rep) - 1)
        out.append(miss_spec(seed, salt, i) if i % MISS_EVERY == MISS_EVERY - 1
                   else rep[rank])
    return out


def heavy_schedule(seed: int, salt: str, seconds: float) -> list[tuple]:
    """Whole rounds of (sweep, advise, tune), each with a fresh seed."""
    rounds = max(1, int(seconds / (HEAVY_PERIOD_S * len(HEAVY_KINDS))))
    out = []
    for j in range(rounds * len(HEAVY_KINDS)):
        kind = HEAVY_KINDS[j % len(HEAVY_KINDS)]
        s = derive_seed(seed, salt, "heavy", j)
        if kind == "sweep":
            payload = dict(kernel="sum", model="hmm", n=4096, p=256, w=32,
                           d=16, seed=s, axes={"l": list(SWEEP_LS)})
        elif kind == "advise":
            payload = dict(kernel="convolution", model="hmm", n=1024, k=16,
                           p=256, w=32, l=400, d=16, seed=s)
        else:
            payload = dict(task="sum", budget=TUNE_BUDGET, seed=s)
        out.append((0.5 + 0.5 / LIGHT_RATE + j * HEAVY_PERIOD_S, kind,
                    payload))
    return out


SPEC_FIELDS = ("kernel", "model", "seed", "n", "k", "p", "w", "l", "d")


def cost_payload(spec: dict) -> dict:
    return {k: spec[k] for k in SPEC_FIELDS}


def spec_id(spec: dict) -> tuple:
    return tuple(spec[k] for k in SPEC_FIELDS)


# ---------------------------------------------------------------------------
# Transport and processes
# ---------------------------------------------------------------------------

class Conn:
    """One keep-alive HTTP connection returning raw body bytes."""

    def __init__(self, url: str, timeout: float = 120.0) -> None:
        split = urlsplit(url)
        self.conn = http.client.HTTPConnection(split.hostname, split.port,
                                               timeout=timeout)

    def call(self, method: str, path: str, payload=None) -> tuple[int, bytes]:
        body = None if payload is None else json.dumps(payload).encode()
        headers = {"Content-Type": "application/json"} if body else {}
        try:
            self.conn.request(method, path, body=body, headers=headers)
            resp = self.conn.getresponse()
            return resp.status, resp.read()
        except (OSError, http.client.HTTPException):
            self.conn.close()
            return 0, b""

    def json(self, method: str, path: str, payload=None):
        status, body = self.call(method, path, payload)
        if status != 200:
            raise RuntimeError(f"{method} {path} -> {status}: {body[:300]!r}")
        return json.loads(body)

    def close(self) -> None:
        self.conn.close()


class Program:
    """A server or cluster subprocess started from the checkout."""

    def __init__(self, argv: list[str], run_dir, want_lines: int) -> None:
        env = run_environment(run_dir)
        self.log_path = run_dir / "program.log"
        self.log = open(self.log_path, "w")
        self.proc = subprocess.Popen(
            [sys.executable, *argv], cwd=ROOT, env=env,
            stdout=self.log, stderr=subprocess.STDOUT)
        self.urls: list[str] = []
        deadline = time.monotonic() + 120
        while len(self.urls) < want_lines:
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise RuntimeError("program did not start: "
                                   + self.log_path.read_text()[-2000:])
            time.sleep(0.01)
            self.urls = [tok for line in self.log_path.read_text().splitlines()
                         for tok in line.split() if tok.startswith("http://")]
        self.url = self.urls[0]
        probe = Conn(self.url, timeout=2)
        while True:
            status, _ = probe.call("GET", "/healthz")
            if status == 200:
                probe.close()
                break
            if time.monotonic() > deadline:
                self.stop()
                raise RuntimeError("program never became healthy")
            time.sleep(0.02)

    def pids(self) -> list[int]:
        return [self.proc.pid, *child_pids(self.proc.pid)]

    def peak_rss_mb(self) -> float:
        return sum(vm_hwm_mb(pid) for pid in self.pids())

    def stop(self) -> None:
        pids = self.pids()
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)
        for pid in pids[1:]:  # shards outliving their supervisor
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
        self.log.close()


def start_program(kind: str, run_dir) -> Program:
    """``kind`` is ``"service"`` (one server) or ``"cluster"`` (a router
    and two shards; ``urls[1:]`` are the shards)."""
    if kind == "service":
        argv = ["-m", "repro.service", "serve", "--port", "0", "--jobs", "1"]
        return Program(argv, run_dir, 1)
    argv = ["-m", "repro.cluster", "serve", "--shards", "2", "--replicas",
            "2", "--port", "0", "--jobs", "1", "--store-root",
            str(run_dir / "shards")]
    return Program(argv, run_dir, 3)


def warm(prog: Program, seed: int, heavy: bool) -> None:
    """Warm the repeated set (and, with ``heavy``, each heavy route's
    first-use imports) with requests outside every timed window."""
    conn = Conn(prog.url)
    for spec in repeated_specs(seed):
        conn.json("POST", "/v1/cost", cost_payload(spec))
    if heavy:
        for _, kind, payload in heavy_schedule(
                seed, "warm", len(HEAVY_KINDS) * HEAVY_PERIOD_S):
            if kind == "advise":
                conn.json("GET", "/v1/advise?" + urlencode(payload))
            else:
                conn.json("POST", f"/v1/{kind}", payload)
    conn.close()


# ---------------------------------------------------------------------------
# Load generation
# ---------------------------------------------------------------------------

def _light_lane(url, schedule, t0, rec, rows) -> None:
    conn = Conn(url)
    for i, spec in enumerate(schedule):
        due = t0 + i / LIGHT_RATE
        wait = due - time.perf_counter()
        if wait > 0:
            time.sleep(wait)
        sent = time.perf_counter()
        with rec.span("client.cost"):
            status, body = conn.call("POST", "/v1/cost", cost_payload(spec))
        done = time.perf_counter()
        rows.append((spec, due, sent, done, status, body))
    conn.close()


def _heavy_lane(url, schedule, t0, rec, rows) -> None:
    conn = Conn(url)
    for offset, kind, payload in schedule:
        wait = t0 + offset - time.perf_counter()
        if wait > 0:
            time.sleep(wait)
        sent = time.perf_counter()
        with rec.span(f"client.{kind}"):
            if kind == "advise":
                status, body = conn.call("GET", "/v1/advise?"
                                         + urlencode(payload))
            else:
                status, body = conn.call("POST", f"/v1/{kind}", payload)
        rows.append((kind, payload, sent, time.perf_counter(), status, body))
    conn.close()


def window(url: str, seed: int, salt: str, seconds: float, heavy: bool,
           rec: SpanRecorder) -> dict:
    light_rows: list = []
    heavy_rows: list = []
    t0 = time.perf_counter() + 0.05
    threads = [threading.Thread(target=_light_lane, args=(
        url, light_schedule(seed, salt, seconds), t0, rec, light_rows))]
    if heavy:
        threads.append(threading.Thread(target=_heavy_lane, args=(
            url, heavy_schedule(seed, salt, seconds), t0, rec, heavy_rows)))
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    end = max([r[3] for r in light_rows] + [r[3] for r in heavy_rows])
    return {"light": light_rows, "heavy": heavy_rows, "elapsed": end - t0}


def light_latencies(win: dict) -> list[float]:
    """Seconds from due time to answer, for every light request."""
    return [r[3] - r[1] for r in win["light"]]


def lateness_line(win: dict) -> str:
    late = [(r[2] - r[1]) * 1e3 for r in win["light"]]
    return (f"generator lateness (send - due, ms): p50 {median(late):.2f}, "
            f"p99 {percentile(late, 99):.2f}, max {max(late):.2f}; "
            f"{sum(x > 5 for x in late)} of {len(late)} sent > 5 ms late")


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

def _event_cycles(spec: dict, cache: dict) -> int:
    from repro.analysis.terms import Params
    from repro.experiments import table1
    key = spec_id(spec)
    if key not in cache:
        task = table1.sum_task if spec["kernel"] == "sum" else table1.conv_task
        q = Params(n=spec["n"], k=spec["k"], p=spec["p"], w=spec["w"],
                   l=spec["l"], d=spec["d"])
        cache[key] = task(q, model=spec["model"], seed=spec["seed"],
                          mode="event")[0]
    return cache[key]


def check_window(win: dict, chk: C.Checker, event_cache: dict,
                 tags: dict) -> None:
    first: dict = {}
    for spec, _, _, _, status, body in win["light"]:
        chk("status", C.check_equal_cycles, "HTTP status", status, 200)
        if status != 200:
            continue
        doc = chk("served cost", C.check_served_body, spec, body,
                  _event_cycles(spec, event_cache))
        if doc is not None:
            tags[doc.get("engine")] = tags.get(doc.get("engine"), 0) + 1
            chk("bounds", C.check_lower_bounds, doc["cycles"], spec["n"],
                spec["w"], spec["l"])
        key = spec_id(spec)
        if key in first:
            chk("identical", C.check_identical_bodies, first[key], body)
        else:
            first[key] = body
    for kind, payload, _, _, status, body in win["heavy"]:
        chk("status", C.check_equal_cycles, "HTTP status", status, 200)
        if status != 200:
            continue
        doc = json.loads(body)
        if kind == "sweep":
            for point in doc["points"]:
                spec = dict(payload, **point["params"], kernel="sum",
                            model="hmm")
                spec.pop("axes")
                tags[point["engine"]] = tags.get(point["engine"], 0) + 1
                chk("sweep point", C.check_equal_cycles, "served sweep point",
                    point["cycles"], _event_cycles(spec, event_cache))
                chk("bounds", C.check_lower_bounds, point["cycles"],
                    spec["n"], spec["w"], spec["l"])
            chk("sweep monotone", C.check_monotone_in_l,
                [(p["params"]["l"], p["cycles"]) for p in doc["points"]])
        elif kind == "advise":
            tags[doc["engine"]] = tags.get(doc["engine"], 0) + 1
            chk("advise", C.check_equal_cycles, "served advise",
                doc["cycles"], _event_cycles(payload, event_cache))
        else:
            for ex in (doc["best"]["extra"], doc["baseline"]["extra"]):
                tags[ex["engine"]] = tags.get(ex["engine"], 0) + 1
            chk("tune", C.check_tune_body, doc, TUNE_BUDGET)


# ---------------------------------------------------------------------------
# Per-layer numbers
# ---------------------------------------------------------------------------

def _service_deltas(before: dict, after: dict) -> dict:
    """``/metrics`` deltas of a single service (or summed over shards)."""
    def shards(m):
        return list(m["shards"].values()) if "shards" in m else [m]

    def total(m, *path):
        out = 0
        for s in shards(m):
            v = s
            for p in path:
                v = v.get(p, {}) if isinstance(v, dict) else {}
            out += v if isinstance(v, (int, float)) else 0
        return out

    return {name: total(after, *path) - total(before, *path)
            for name, path in {
                "batches": ("batches", "count"),
                "requests": ("batches", "requests"),
                "coalesced": ("batches", "coalesced"),
                "hits": ("cache", "hits"),
                "misses": ("cache", "misses"),
                "rejected": ("rejected",),
                "timeouts": ("timeouts",),
            }.items()}


def _service_layers(d: dict) -> dict:
    lookups = d["hits"] + d["misses"]
    return {
        "service.batches": (d["batches"], "count"),
        "service.mean_batch": (d["requests"] / d["batches"]
                               if d["batches"] else 0.0, "count"),
        "service.coalesced": (d["coalesced"], "count"),
        "service.evaluations": (d["misses"], "count"),
        "service.rejected": (d["rejected"], "count"),
        "service.timeouts": (d["timeouts"], "count"),
        "service.cache_hit_ratio": (d["hits"] / lookups if lookups else 0.0,
                                    "ratio"),
    }


def _oracle_probe(seed: int, run_dir, prog: Program, rec) -> dict:
    """In-process oracle misses and hits against served hits."""
    from repro.service.oracle import CostOracle
    oracle = CostOracle(cache=True, cache_dir=run_dir / "oracle-cache")
    misses, hits = [], []
    try:
        for i in range(12):
            spec = dict(miss_spec(seed, "oracle-probe", i), mode="batch")
            t0 = time.perf_counter()
            oracle.evaluate_batch([spec])
            misses.append(time.perf_counter() - t0)
        warm = dict(repeated_specs(seed)[0], mode="batch")
        oracle.evaluate_batch([warm])
        for _ in range(30):
            t0 = time.perf_counter()
            oracle.evaluate_batch([warm])
            hits.append(time.perf_counter() - t0)
    finally:
        oracle.close()
    served = []
    conn = Conn(prog.url)
    for _ in range(30):
        t0 = time.perf_counter()
        with rec.span("client.cost"):
            conn.json("POST", "/v1/cost", cost_payload(repeated_specs(seed)[0]))
        served.append(time.perf_counter() - t0)
    conn.close()
    return {
        "service.oracle_miss_ms_p50": (median(misses) * 1e3, "ms"),
        "service.hit_overhead_ms": ((median(served) - median(hits)) * 1e3,
                                    "ms"),
    }


def _relay_probe(seed: int, prog: Program, rec) -> dict:
    """A warm hit through the router minus the same hit sent straight to
    the shard that owns it."""
    from repro.cluster.ring import HashRing
    from repro.service.protocol import parse_cost_request, spec_key
    spec = cost_payload(repeated_specs(seed)[-1])
    owner = HashRing(prog.urls[1:], vnodes=64).owners(
        "spec:" + spec_key(parse_cost_request(spec)))[0]
    via, direct = [], []
    router, shard = Conn(prog.url), Conn(owner)
    for _ in range(30):
        for conn, sink in ((router, via), (shard, direct)):
            t0 = time.perf_counter()
            with rec.span("client.cost"):
                conn.json("POST", "/v1/cost", spec)
            sink.append(time.perf_counter() - t0)
    router.close()
    shard.close()
    return {"router.relay_ms": ((median(via) - median(direct)) * 1e3, "ms")}


def _cluster_layers(before: dict, after: dict) -> dict:
    rb, ra = before["cluster"], after["cluster"]
    fwd = [ra["router"]["forwards"].get(u, 0)
           - rb["router"]["forwards"].get(u, 0)
           for u in ra["router"]["forwards"]]
    promote = (ra["events"].get("by_type", {}).get("hotkey.promote", 0)
               - rb["events"].get("by_type", {}).get("hotkey.promote", 0))
    return {
        "router.reroutes": (ra["router"]["reroutes"] - rb["router"]["reroutes"],
                            "count"),
        "router.shard_skew": (max(fwd) / min(fwd) if fwd and min(fwd) > 0
                              else 0.0, "ratio"),
        "hot.promotions": (promote, "count"),
        "warming.pushes": (ra["warming"]["pushes_sent_total"]
                           - rb["warming"]["pushes_sent_total"], "count"),
        "store.remote_hits": (ra["warming"]["hits_remote_total"]
                              - rb["warming"]["hits_remote_total"], "count"),
    }


def _phase(kind: str, seed: int, seconds: float, run_dir, rec,
           chk: C.Checker, event_cache: dict, tags: dict) -> tuple:
    """Boot ``kind``, warm it, run its traced windows and probes, stop it,
    then check every answer.  Returns ``(per-layer metrics, report)``."""
    service = kind == "service"
    prog = start_program(kind, run_dir / kind)
    layer: dict = {}
    try:
        warm(prog, seed, heavy=service)
        ctl = Conn(prog.url)
        if service:
            idle = window(prog.url, seed, "idle", seconds, False, rec)
        before = ctl.json("GET", "/metrics")
        win = window(prog.url, seed, kind, seconds, service, rec)
        after = ctl.json("GET", "/metrics")
        ctl.close()
        instrument_library(rec)
        try:
            layer.update(_oracle_probe(seed, run_dir, prog, rec) if service
                         else _relay_probe(seed, prog, rec))
        finally:
            rec.restore()
        rss = prog.peak_rss_mb()
    finally:
        prog.stop()
    windows = [idle, win] if service else [win]
    for w in windows:
        check_window(w, chk, event_cache, tags)
    lat = light_latencies(win)
    d = _service_deltas(before, after)
    prefix = "serve" if service else "cluster"
    layer.update({
        f"{prefix}.cost_p50_ms": (median(lat) * 1e3, "ms"),
        f"{prefix}.cost_tail_ms": (percentile(lat, TAIL_Q) * 1e3, "ms"),
        f"{prefix}.peak_rss_mb": (rss, "MB"),
    })
    report = [
        f"{kind} phase: {len(win['light'])} light requests at "
        f"{LIGHT_RATE:g}/s on one connection (Table I set, Zipf s={ZIPF_S:g};"
        f" 1 in {MISS_EVERY} a fresh-seed sum), tail p{TAIL_Q:g}"
        + (f"; {len(win['heavy'])} heavy requests every {HEAVY_PERIOD_S:g} s"
           " on a second" if service else ""),
        f"{kind} phase " + lateness_line(win),
        f"{kind} phase /metrics over the window: {d}",
    ]
    if service:
        by_kind = {k: [r[3] - r[2] for r in win["heavy"]
                       if r[0] == k and r[4] == 200] for k in HEAVY_KINDS}
        layer.update(_service_layers(d))
        idle_tail = percentile(light_latencies(idle), TAIL_Q) * 1e3
        layer["service.idle_cost_tail_ms"] = (idle_tail, "ms")
        layer["service.heavy_interference"] = (
            layer["serve.cost_tail_ms"][0] / idle_tail, "ratio")
        layer["serve.heavy_p50_s"] = (median(
            [r[3] - r[2] for r in win["heavy"]]), "s")
        for k, v in by_kind.items():
            layer[f"service.{k}_s_p50"] = (median(v) if v else 0.0, "s")
        layer["loadgen.late_ms_p99"] = (percentile(
            [(r[2] - r[1]) * 1e3 for r in win["light"]], 99), "ms")
    else:
        layer.update(_cluster_layers(before, after))
    return layer, report


def serving_phases(seed: int, seconds: float, run_dir, rec,
                   chk: C.Checker) -> tuple:
    """The service phase then the cluster phase, each window ``seconds``
    long.  Returns ``(per-layer metrics, report lines, engine tags)``."""
    layer: dict = {}
    report: list = []
    tags: dict = {}
    event_cache: dict = {}
    for kind in ("service", "cluster"):
        more, lines = _phase(kind, seed, seconds, run_dir, rec, chk,
                             event_cache, tags)
        layer.update(more)
        report += lines
    report.append("served engine tags: " + ", ".join(
        f"{t}={c}" for t, c in sorted(tags.items(), key=lambda kv: str(kv[0]))))
    return layer, report
