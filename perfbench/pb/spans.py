"""In-memory span recorder and the wrappers the traced run installs.

Spans are recorded from the benchmark's own code only: the traced run
replaces public functions of each layer with wrappers for the length of
the run and restores them afterwards.  Nothing inside ``src/`` changes.
Each span has a name, start and end (``perf_counter_ns``), the span that
caused it (the enclosing span on the same thread) and a few attributes.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class Span:
    span_id: int
    parent: int
    name: str
    start_ns: int
    end_ns: int
    thread: int
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9


class SpanRecorder:
    """Collects the spans opened through it, in memory."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, **attrs) -> "_SpanContext":
        return _SpanContext(self, name, attrs)

    # -- wrapping ------------------------------------------------------------
    def patch(self, owner, attr: str, name: str, describe=None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``describe(args, kwargs, result)`` returns extra attributes for
        the span once the call has returned.
        """
        original = getattr(owner, attr)
        recorder = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with recorder.span(name) as attrs:
                result = original(*args, **kwargs)
                if describe is not None:
                    attrs.update(describe(args, kwargs, result))
                return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- queries -------------------------------------------------------------
    def named(self, name: str, **match) -> list[Span]:
        return [s for s in self.spans if s.name == name
                and all(s.attrs.get(k) == v for k, v in match.items())]

    def total_s(self, name: str, **match) -> float:
        return sum(s.seconds for s in self.named(name, **match))

    def child_time_s(self, parent_name: str, child_name: str) -> float:
        """Time that ``child_name`` spans cover inside ``parent_name`` spans
        (direct or deeper descendants)."""
        parents = {s.span_id for s in self.named(parent_name)}
        by_id = {s.span_id: s for s in self.spans}
        total = 0
        for s in self.named(child_name):
            p = s.parent
            while p and p not in parents:
                p = by_id[p].parent if p in by_id else 0
            if p:
                total += s.end_ns - s.start_ns
        return total / 1e9

    def write_chrome_trace(self, path: Path) -> None:
        """Write the spans as a Chrome/Perfetto trace-event JSON file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        events = [{
            "name": s.name, "ph": "X", "pid": 1, "tid": s.thread,
            "ts": s.start_ns / 1e3, "dur": (s.end_ns - s.start_ns) / 1e3,
            "args": {"id": s.span_id, "parent": s.parent,
                     **{k: v for k, v in s.attrs.items()
                        if isinstance(v, (int, float, str, bool))}},
        } for s in self.spans]
        path.write_text(json.dumps({"traceEvents": events}))


class _SpanContext:
    __slots__ = ("rec", "name", "attrs", "sid", "parent", "t0")

    def __init__(self, rec: SpanRecorder, name: str, attrs: dict) -> None:
        self.rec, self.name, self.attrs = rec, name, attrs

    def __enter__(self) -> dict:
        stack = self.rec._stack()
        self.parent = stack[-1] if stack else 0
        self.sid = next(self.rec._ids)
        stack.append(self.sid)
        self.t0 = time.perf_counter_ns()
        return self.attrs

    def __exit__(self, *exc) -> None:
        t1 = time.perf_counter_ns()
        self.rec._stack().pop()
        self.rec.spans.append(Span(self.sid, self.parent, self.name, self.t0,
                                   t1, threading.get_ident() % 100000,
                                   self.attrs))


def _units_transactions(args, kwargs, result) -> dict:
    units = kwargs.get("units") or []
    return {"tag": result[1],
            "transactions": sum(u.stats.transactions for u in units)}


def _replay_tag(args, kwargs, result) -> dict:
    return {"tag": result[2]}


def _task_tag(args, kwargs, result) -> dict:
    return {"tag": result[1].get("engine", "exact")}


def _trace_nbytes(args, kwargs, result) -> dict:
    return {"nbytes": int(args[2].nbytes), "accepted": bool(result)}


def _lookup_hit(args, kwargs, result) -> dict:
    return {"hit": result is not None}


def _namespace(args, kwargs, result) -> dict:
    return {"ns": args[0].name}


def instrument_library(rec: SpanRecorder) -> None:
    """Wrap the engine, Table I tasks, executor, trace store, store
    namespaces and oracle (the in-process layers)."""
    from repro.analysis import executor
    from repro.experiments import table1
    from repro.machine import engine, hmm, replay
    from repro.service import oracle
    from repro.store import store

    for mod in (engine, hmm):
        rec.patch(mod, "run_warp_program", "machine.run_warp_program",
                  _units_transactions)
        rec.patch(mod, "replay_launch", "replay.launch", _replay_tag)
    rec.patch(table1, "sum_task", "task.sum", _task_tag)
    rec.patch(table1, "conv_task", "task.conv", _task_tag)
    rec.patch(executor.SweepExecutor, "run", "executor.run")
    rec.patch(replay.TraceStore, "lookup", "store.trace_lookup", _lookup_hit)
    rec.patch(replay.TraceStore, "insert", "store.trace_insert",
              _trace_nbytes)
    rec.patch(store.Namespace, "get", "store.get", _namespace)
    rec.patch(store.Namespace, "put", "store.put", _namespace)
    rec.patch(oracle.CostOracle, "evaluate_batch", "oracle.evaluate_batch")
