"""Each correctness check fails when fed a wrong answer.

Positive controls use the program's real outputs, so a check that
rejects everything fails here too.
"""

import json

import numpy as np
import pytest

from pb import checks as C
from pb.library import probe_paper_arithmetic
from pb.serving import cost_payload, repeated_specs


def test_sum_check_rejects_a_perturbed_sum():
    values = np.random.default_rng(1).normal(size=1000)
    C.check_sum_value(values, float(np.sum(values)))
    with pytest.raises(C.CheckFailed):
        C.check_sum_value(values, float(np.sum(values)) + 1e-3)


def test_sum_check_against_the_program():
    from repro import HMM, HMMParams
    values = np.random.default_rng(2).normal(size=4096)
    total, _ = HMM(HMMParams(num_dmms=4, width=32, global_latency=400),
                   mode="batch").sum(values, 256)
    C.check_sum_value(values, total)


def test_conv_check_rejects_a_perturbed_output():
    from repro import DMM, MachineParams
    rng = np.random.default_rng(3)
    x, y = rng.normal(size=8), rng.normal(size=64 + 7)
    z, _ = DMM(MachineParams(width=32, latency=400)).convolve(x, y, 64)
    C.check_conv_values(x, y, z)
    z = np.array(z, dtype=float)
    z[5] += 1e-3
    with pytest.raises(C.CheckFailed):
        C.check_conv_values(x, y, z)


def test_lower_bound_check():
    C.check_lower_bounds(400, 4096, 32, 400)
    with pytest.raises(C.CheckFailed):
        C.check_lower_bounds(127, 4096, 32, 16)  # below ceil(n/w) = 128
    with pytest.raises(C.CheckFailed):
        C.check_lower_bounds(399, 64, 32, 400)  # below l


def test_cycle_count_off_by_one_fails():
    C.check_equal_cycles("x", 7667, 7667)
    with pytest.raises(C.CheckFailed):
        C.check_equal_cycles("x", 7668, 7667)


def test_paper_arithmetic_probe_passes_and_its_constants_are_the_paper_s():
    chk = C.Checker()
    probe_paper_arithmetic(chk)
    assert chk.ok and chk.run == 2
    assert C.FIG4_EXPECTED == 8
    assert C.lemma1_expected(128, 4, 4) == 35
    with pytest.raises(C.CheckFailed):
        C.check_equal_cycles("Fig. 4", C.FIG4_EXPECTED + 1, C.FIG4_EXPECTED)


def test_monotone_check_rejects_a_drop():
    C.check_monotone_in_l([(8, 100), (16, 100), (32, 140)])
    with pytest.raises(C.CheckFailed):
        C.check_monotone_in_l([(8, 100), (16, 99)])


def _body(spec, cycles):
    return json.dumps({
        "kernel": spec["kernel"], "model": spec["model"], "mode": "batch",
        "seed": spec["seed"], "cycles": cycles, "engine": "batch",
        "params": {k: spec[k] for k in ("n", "k", "p", "w", "l", "d")},
    }, sort_keys=True).encode()


def test_served_body_check_rejects_a_swapped_body_and_wrong_cycles():
    a, b = repeated_specs(5)[0], repeated_specs(5)[4]
    C.check_served_body(cost_payload(a), _body(a, 900), 900)
    with pytest.raises(C.CheckFailed):
        C.check_served_body(cost_payload(a), _body(b, 900), 900)
    with pytest.raises(C.CheckFailed):
        C.check_served_body(cost_payload(a), _body(a, 901), 900)
    with pytest.raises(C.CheckFailed):
        C.check_served_body(cost_payload(a), b"not json", 900)


def test_identical_body_check():
    a = repeated_specs(5)[0]
    C.check_identical_bodies(_body(a, 900), _body(a, 900))
    with pytest.raises(C.CheckFailed):
        C.check_identical_bodies(_body(a, 900), _body(a, 901))


def test_tune_check_rejects_a_worse_best():
    doc = {"equivalent": True, "evaluations": 4,
           "best": {"cost": 10.0, "cycles": {"4": 50}},
           "baseline": {"cost": 20.0}}
    C.check_tune_body(doc, 4)
    with pytest.raises(C.CheckFailed):
        C.check_tune_body(dict(doc, best={"cost": 30.0, "cycles": {}}), 4)
    with pytest.raises(C.CheckFailed):
        C.check_tune_body(dict(doc, equivalent=False), 4)


def test_checker_keeps_failures():
    chk = C.Checker()
    chk("ok", C.check_equal_cycles, "a", 1, 1)
    chk("bad", C.check_equal_cycles, "b", 2, 1)
    assert chk.run == 2 and chk.failed == 1 and not chk.ok
    assert chk.failures[0].startswith("bad:")
