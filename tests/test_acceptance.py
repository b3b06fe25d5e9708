"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Shared randomized populations are module-scoped and seeded, so every run
exercises identical inputs.
"""

import random

import pytest

from helpers import (
    L,
    body_of,
    chain_propagation_report,
    csign_cascade,
    mat_mul,
    mutate_one_entry,
    random_valid_code,
    rate_third_code,
    smith_a,
    smith_b,
    stab,
    window_commutes,
)
from qconvenc.gates import depth_schedule
from qconvenc.matrix import freeze
from qconvenc.poly import LaurentPoly, laurent_divides
from qconvenc.smith import smith
from qconvenc.stabilizer import check_symplectic, params
from qconvenc.synthesis import build_report, checkpoint_matrices, synthesize
from qconvenc.verify import propagation_report, verify_encoder
from test_smith import minor_gcd_bodies, random_poly_matrix
from test_synthesis import reduction_displays, expected_normal_form


def _report(num: int, name: str, ok: bool) -> None:
    print(f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'}")


@pytest.fixture(scope="module")
def worked_example():
    s = rate_third_code()
    return s, synthesize(s)


@pytest.fixture(scope="module")
def random_code_suite():
    """50 randomized valid codes (gate-built, offsets <= 2, <= 12 templates)
    whose encoders fit the fixed verification windows (memory <= 2)."""
    rng = random.Random(55)
    suite = []
    while len(suite) < 50:
        s = random_valid_code(rng, max_n=4, max_r=3, max_gates=12, max_off=2)
        result = synthesize(s)
        if result.encoder.memory <= 2:
            suite.append((s, result))
    return suite


def test_criterion_1_worked_example_golden_replay(worked_example):
    s, result = worked_example
    snaps = [snap for _, snap in checkpoint_matrices(s, result)]
    expected = reduction_displays()
    idx = 0
    for snap in snaps:
        if idx < len(expected) and snap == expected[idx]:
            idx += 1
    ok = idx == len(expected) and result.normal_form == expected_normal_form()
    _report(1, "worked-example golden replay", ok)
    assert ok


def test_criterion_2_memory_claim(worked_example):
    s, result = worked_example
    sched = depth_schedule(result.encoder)
    report = build_report(s, result)
    ok = (
        sched.memory == 2
        and result.encoder.memory == 2
        and result.gamma == (L("1"), L("D"))
        and "diag(1, D)" in report
        and result.classes[1].kind == "shift"
        and "constrained to |0>" in report
    )
    _report(2, "encoder memory two and shift classification", ok)
    assert ok


def test_criterion_3_commutation_cross_validation():
    rng = random.Random(31)
    agreements = 0
    total = 200
    for k in range(total):
        s = random_valid_code(rng, max_n=4, max_r=3, max_gates=12, max_off=2)
        if k % 2 == 1:
            s = mutate_one_entry(rng, s)
        m = params(s).memory
        poly_ok = bool(check_symplectic(s))
        window_ok = window_commutes(s, m + 4)
        if poly_ok == window_ok:
            agreements += 1
    ok = agreements == total
    _report(3, f"commutation agreement {agreements}/{total}", ok)
    assert ok


def test_criterion_4_smith_oracle_equivalence():
    rng = random.Random(41)
    ok = True
    for _ in range(100):
        r = rng.randint(1, 3)
        n = rng.randint(1, 5)
        m = random_poly_matrix(rng, r, n, max_deg=4)
        dec = smith(m)
        if mat_mul(mat_mul(smith_a(dec), dec.gamma), smith_b(dec)) != freeze(m):
            ok = False
            break
        divs = dec.divisors
        if any(not laurent_divides(a, b) for a, b in zip(divs, divs[1:])):
            ok = False
            break
        if [body_of(g) for g in divs] != minor_gcd_bodies(m):
            ok = False
            break
    _report(4, "smith divisors match minor-gcd oracle", ok)
    assert ok


def test_criterion_5_round_trip_verification(worked_example, random_code_suite):
    s, result = worked_example
    ok = True
    for code, res in [(s, result)] + random_code_suite:
        for blocks in (10, 20):
            if not verify_encoder(code, res.encoder, blocks).ok:
                ok = False
        rep = propagation_report(res.encoder, [5, 10, 20])
        if rep.verdict != "bounded":
            ok = False
        # the interior maximum is window-independent once the window can
        # host an unclipped image; it has saturated by N=10
        if rep.max_supports[1] != rep.max_supports[2]:
            ok = False
        if any(v > rep.bound for v in rep.max_supports):
            ok = False
    # frozen worked-example values: a five-block window cannot host the
    # six-block worst-case image, so N=5 reads one lower
    rep = propagation_report(result.encoder, [5, 10, 20])
    if rep.max_supports != (12, 13, 13):
        ok = False
    _report(5, "encoder round-trip and bounded propagation", ok)
    assert ok


def test_criterion_6_negative_control():
    chain = chain_propagation_report(1, [5, 10, 20])
    ok = chain.verdict == "growing"
    for blocks, got in zip(chain.sizes, chain.max_supports):
        seed_pos = 1  # leftmost interior position on the single stream
        distance = (blocks - 1) - seed_pos
        if abs(got - distance) > 1:
            ok = False
    cascade = propagation_report(csign_cascade(), [5, 10, 20])
    if cascade.verdict != "bounded" or cascade.max_supports != (3, 3, 3):
        ok = False
    _report(6, "catastrophic chain grows, CSIGN cascade stays at three", ok)
    assert ok


def test_criterion_7_degree_measure_termination(worked_example, random_code_suite):
    s, result = worked_example
    ok = True
    for code, res in [(s, result)] + random_code_suite:
        log = res.step2_log
        iterations = len(log) - 1
        if iterations > res.step2_budget:
            ok = False
        for (r1, m1), (r2, m2) in zip(log, log[1:]):
            if r1 == code.r and m2 >= m1:
                ok = False
    _report(7, "degree measure strictly decreasing, budget never exceeded", ok)
    assert ok
