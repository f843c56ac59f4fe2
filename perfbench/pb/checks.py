"""Correctness checks, computed apart from the program under test.

Every check compares an answer of the program with numpy, with the
paper's arithmetic, with the event scheduler (the executable spec) or
with a property the method must have.  None compares with a stored copy
of an earlier output.  A failed check raises :class:`CheckFailed`;
:class:`Checker` runs checks and keeps the failures.
"""

from __future__ import annotations

import json
import math

import numpy as np

__all__ = [
    "CheckFailed", "Checker",
    "check_sum_value", "check_conv_values", "check_lower_bounds",
    "check_equal_cycles", "check_monotone_in_l", "check_served_body",
    "check_identical_bodies", "check_tune_body",
    "FIG4_EXPECTED", "lemma1_expected",
]

#: Fig. 4: W(0) needs 3 address-group slots, W(1) one, latency 5:
#: (3 + 1) + 5 - 1 time units.
FIG4_EXPECTED = 3 + 1 + 5 - 1


def lemma1_expected(n: int, w: int, l: int) -> int:  # noqa: E741
    """Lemma 1: a contiguous read of ``n`` cells by ``p >= l*w`` threads
    pipelines into ``n/w + l - 1`` time units."""
    return n // w + l - 1


class CheckFailed(AssertionError):
    """A program output disagreed with an independent computation."""


def check_sum_value(values: np.ndarray, got: float) -> None:
    want = float(np.sum(values, dtype=np.float64))
    scale = float(np.sum(np.abs(values))) or 1.0
    if not math.isfinite(got) or abs(got - want) > 1e-9 * scale:
        raise CheckFailed(f"sum {got!r} != numpy {want!r}")


def check_conv_values(x: np.ndarray, y: np.ndarray, got: np.ndarray) -> None:
    """``z[j] = sum_i x[i] * y[j + i]`` (the paper's direct convolution)."""
    want = np.correlate(np.asarray(y, float), np.asarray(x, float), "valid")
    got = np.asarray(got, float)
    if got.shape != want.shape or not np.allclose(got, want, rtol=1e-9,
                                                  atol=1e-9):
        raise CheckFailed(
            f"convolution differs from numpy (shape {got.shape} vs "
            f"{want.shape}, max err "
            f"{float(np.max(np.abs(got - want))) if got.shape == want.shape else 'n/a'})")


def check_lower_bounds(cycles: int, n: int, w: int, l: int) -> None:  # noqa: E741
    """Table II: reading ``n`` inputs needs ``ceil(n/w)`` slots, and any
    memory access takes at least the latency ``l``."""
    bound = max(-(-n // w), l)
    if cycles < bound:
        raise CheckFailed(
            f"{cycles} cycles below the lower bound max(ceil({n}/{w}), {l})"
            f" = {bound}")


def check_equal_cycles(what: str, got: int, want: int) -> None:
    if int(got) != int(want):
        raise CheckFailed(f"{what}: {got} cycles, expected {want}")


def check_monotone_in_l(points: list[tuple[int, int]]) -> None:
    """Cycles of one launch shape must not decrease as ``l`` grows."""
    ordered = sorted(points)
    for (l0, c0), (l1, c1) in zip(ordered, ordered[1:]):
        if c1 < c0:
            raise CheckFailed(f"cycles fell from {c0} at l={l0} to {c1} at "
                              f"l={l1}")


def check_served_body(spec: dict, body: bytes, want_cycles: int) -> dict:
    """A ``/v1/cost`` body must answer the spec that was asked (not a
    neighbour's) with the cycles of an in-process event computation."""
    try:
        doc = json.loads(body)
    except ValueError as exc:
        raise CheckFailed(f"unparseable body: {exc}") from exc
    for name in ("kernel", "model", "seed"):
        if doc.get(name) != spec[name]:
            raise CheckFailed(f"body answers {name}={doc.get(name)!r}, asked "
                              f"{spec[name]!r}")
    params = doc.get("params", {})
    for name in ("n", "k", "p", "w", "l", "d"):
        if params.get(name) != spec[name]:
            raise CheckFailed(f"body answers {name}={params.get(name)!r}, "
                              f"asked {spec[name]!r}")
    check_equal_cycles(f"served {spec['kernel']}/{spec['model']}",
                       doc.get("cycles", -1), want_cycles)
    return doc


def check_identical_bodies(first: bytes, again: bytes) -> None:
    if first != again:
        raise CheckFailed("a repeated spec returned a different body")


def check_tune_body(doc: dict, budget: int) -> None:
    """Properties every tune answer must have."""
    best, base = doc.get("best", {}), doc.get("baseline", {})
    if not doc.get("equivalent"):
        raise CheckFailed("tuned configuration is not output-equivalent")
    if best.get("cost", math.inf) > base.get("cost", -math.inf):
        raise CheckFailed(f"tuned cost {best.get('cost')} worse than "
                          f"baseline {base.get('cost')}")
    if not 1 <= int(doc.get("evaluations", 0)) <= budget:
        raise CheckFailed(f"{doc.get('evaluations')} evaluations for budget "
                          f"{budget}")
    for lat, cycles in best.get("cycles", {}).items():
        if int(cycles) < int(lat):
            raise CheckFailed(f"tuned cycles {cycles} below latency {lat}")


class Checker:
    """Runs checks, counting them and keeping every failure message."""

    def __init__(self) -> None:
        self.run = 0
        self.failed = 0
        self.failures: list[str] = []

    def __call__(self, label: str, fn, *args, **kwargs):
        self.run += 1
        try:
            return fn(*args, **kwargs)
        except CheckFailed as exc:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{label}: {exc}")
            return None

    @property
    def ok(self) -> bool:
        return self.failed == 0
