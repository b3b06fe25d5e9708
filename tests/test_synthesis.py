import random
import signal
import time
from contextlib import nullcontext
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    L,
    body_of,
    bounded,
    divisor_bodies,
    invalid_mutants,
    random_circuit,
    random_proper_code,
    random_valid_code,
    rate_third_code,
    RationalFn,
    reference_order_of_d,
    reference_period_series,
    series_head,
    stab,
    z_only_identity_code,
)
from qconvenc import order
from qconvenc.errors import ExponentOverflowError, LoopLimitError, PreconditionError
from qconvenc.gates import (
    CNOT,
    CSIGN,
    Circuit,
    GateTemplate,
    H,
    P,
    apply_circuit,
    depth_schedule,
)
from qconvenc import stabilizer
from qconvenc.poly import LaurentPoly, Poly, span_limit
from qconvenc.smith import RowOp
from qconvenc.stabilizer import (
    StabilizerMatrix,
    check_symplectic,
    params,
    parse_stabilizer,
    rank_at_one,
    validate_code,
)
from qconvenc.synthesis import (
    _HEAD_BITS,
    SynthesisResult,
    _Driver,
    _series_head,
    build_report,
    checkpoint_matrices,
    classify,
    replay,
    synthesize,
)

D = L("D")
ONE = L("1")
DATA = Path(__file__).parent / "data"


def reduction_displays():
    return [
        stab(3, [(["1", "0", "0"], ["1", "D", "D"]),
                 (["D^2", "D^2+D", "D^3+D^2+D"], ["0", "D+D^-1", "1"])]),
        stab(3, [(["1", "0", "0"], ["1", "D", "D"]),
                 (["0", "D^2+D", "D^3+D^2+D"], ["D^2", "D^3+D+D^-1", "D^3+1"])]),
        stab(3, [(["1", "0", "0"], ["1", "D^-1", "1+D^-1+D"]),
                 (["0", "D", "0"], ["D^2", "0", "D^3+D^2+D"])]),
        stab(3, [(["1", "0", "0"], ["1", "0", "0"]),
                 (["0", "D", "0"], ["0", "0", "D^3+D^2+D"])]),
        stab(3, [(["1", "0", "0"], ["1", "0", "0"]),
                 (["0", "D", "0"], ["0", "0", "0"])]),
    ]


def expected_normal_form():
    return stab(3, [(["0", "0", "0"], ["1", "0", "0"]),
                    (["0", "0", "0"], ["0", "D", "0"])])


class TestWorkedExample:
    def test_intermediate_matrices_replayed_exactly(self):
        s = rate_third_code()
        result = synthesize(s)
        snaps = [snap for _, snap in checkpoint_matrices(s, result)]
        expected = reduction_displays()
        idx = 0
        for snap in snaps:
            if idx < len(expected) and snap == expected[idx]:
                idx += 1
        assert idx == len(expected), f"only {idx} of 5 displayed matrices reproduced"
        assert result.normal_form == expected_normal_form()

    def test_exact_transcript(self):
        result = synthesize(rate_third_code())
        assert result.forward.templates == (
            GateTemplate(CNOT, 2, 1, 1),
            GateTemplate(CNOT, 1, 2, 0),
            GateTemplate(CNOT, 1, 3, 0),
            GateTemplate(CNOT, 1, 3, 1),
            GateTemplate(CNOT, 2, 3, 1),
            GateTemplate(CNOT, 3, 2, 1),
            GateTemplate(CNOT, 2, 3, 0),
            GateTemplate(CSIGN, 1, 2, -1),
            GateTemplate(CSIGN, 1, 3, -1),
            GateTemplate(CSIGN, 1, 3, 0),
            GateTemplate(CSIGN, 1, 3, 1),
            GateTemplate(CSIGN, 2, 3, 0),
            GateTemplate(CSIGN, 2, 3, 1),
            GateTemplate(CSIGN, 2, 3, 2),
            GateTemplate(P, 1),
            GateTemplate(H, 1),
            GateTemplate(H, 2),
        )
        assert result.row_ops == (RowOp("add", 1, 0, L("D^2")),)

    def test_gamma_and_memory(self):
        result = synthesize(rate_third_code())
        assert result.gamma == (ONE, D)
        assert [c.kind for c in result.classes] == ["unit", "shift"]
        assert result.classes[1].shift == 1
        assert result.encoder.memory == 2
        assert depth_schedule(result.encoder).memory == 2

    def test_encoder_is_reversed_forward(self):
        result = synthesize(rate_third_code())
        assert result.encoder.templates == tuple(reversed(result.forward.templates))

    def test_subcode_rows(self):
        s0 = z_only_identity_code(3, 2)
        assert s0 == stab(3, [(["0", "0", "0"], ["1", "0", "0"]),
                              (["0", "0", "0"], ["0", "1", "0"])])

    def test_report_mentions_divisors_and_memory(self):
        s = rate_third_code()
        result = synthesize(s)
        report = build_report(s, result)
        assert "diag(1, D)" in report
        assert "memory 2" in report
        assert "shift l=1" in report
        assert "constrained to |0>" in report


# the golden stabilizers that synthesize under the default span limit
SYNTHESIZING_GOLDENS = (
    "deep0111", "ladder8", "low_span", "primitive13", "proper", "rate_third", "span_fallback", "wide_row",
)


class TestCheckpointMarks:
    def test_reduction_freezes_only_the_normal_form(self, monkeypatch):
        """Checkpoints are marks, so the worked example's reduction builds
        one frozen matrix; with a snapshot at each of its seven checkpoints
        it built eight."""
        s = rate_third_code()
        calls = []
        from_rows = StabilizerMatrix.from_rows

        def counted(cls, *args):
            calls.append(args)
            return from_rows(*args)

        monkeypatch.setattr(StabilizerMatrix, "from_rows", classmethod(counted))
        result = synthesize(s)
        assert len(calls) == 1
        assert result.normal_form == expected_normal_form()

    def test_marks_cut_the_transcript_into_one_kind_stretches(self):
        """Between consecutive marks exactly one of the template and row
        operation counts grows, the last mark counts the whole transcript,
        and the replay at the last mark is the normal form."""
        codes = [
            parse_stabilizer((DATA / f"{name}.stab").read_text(encoding="utf-8"))
            for name in SYNTHESIZING_GOLDENS
        ]
        rng = random.Random(3001)
        codes += [random_valid_code(rng, max_n=6, max_r=4, max_gates=20) for _ in range(20)]
        codes += [random_proper_code(rng) for _ in range(10)]
        for s in codes:
            result = synthesize(s)
            counts = [(0, 0)] + [mark[1:] for mark in result.checkpoints]
            for (g0, r0), (g1, r1) in zip(counts, counts[1:]):
                assert g1 >= g0 and r1 >= r0
                assert (g1 > g0) != (r1 > r0), result.checkpoints
            assert counts[-1] == (len(result.forward.templates), len(result.row_ops))
            assert checkpoint_matrices(s, result)[-1][1] == result.normal_form

    @pytest.mark.parametrize("limit", [4, 6, 8, 12])
    def test_rebuild_fits_the_limit_the_reduction_fit(self, limit):
        """Under a low span limit some reductions overflow; every one that
        completes is rebuilt gate by gate under the same limit without
        overflow, each gate through the kernel the reduction ran it
        through."""
        rng = random.Random(3002)
        codes = [random_valid_code(rng, max_n=6, max_r=4, max_gates=20, max_off=3) for _ in range(40)]
        codes += [parse_stabilizer((DATA / "span_fallback.stab").read_text(encoding="utf-8"))]
        completed = 0
        with span_limit(limit):
            for s in codes:
                try:
                    result = synthesize(s)
                except ExponentOverflowError:
                    continue
                assert checkpoint_matrices(s, result)[-1][1] == result.normal_form
                completed += 1
        assert 0 < completed < len(codes)


class TestTrivialShapes:
    def test_z_only_identity_needs_only_hadamard_pairs(self):
        s = z_only_identity_code(3, 2)
        result = synthesize(s)
        assert all(g.kind == H for g in result.forward.templates)
        assert result.gamma == (ONE, ONE)
        assert result.normal_form == s
        assert [c.kind for c in result.classes] == ["unit", "unit"]

    def test_x_only_single_row(self):
        s = stab(2, [(["1", "0"], ["0", "0"])])
        result = synthesize(s)
        assert result.forward.templates == (GateTemplate(H, 1),)
        assert result.gamma == (ONE,)

    def test_proper_divisor_classification(self):
        s = stab(2, [(["0", "0"], ["1+D", "0"])])
        result = synthesize(s)
        assert result.gamma == (L("1+D"),)
        cls = result.classes[0]
        assert cls.kind == "proper"
        assert cls.period == 1 and cls.series == "1"

    def test_step2_swap_path_decreases_measure(self):
        # gamma_1 = 1+D fails to divide the opposite Z column, forcing the
        # Hadamard swap and a strictly smaller divisor on recomputation
        s = stab(2, [(["1+D", "0"], ["0", "1"])])
        result = synthesize(s)
        assert result.step2_log[0] == (1, 1)
        assert result.step2_log[-1] == (1, 0)
        assert result.gamma == (ONE,)
        assert any(g.kind == H for g in result.forward.templates)


class TestPreconditions:
    def test_rate_zero(self):
        with pytest.raises(PreconditionError):
            synthesize(stab(1, [(["0"], ["1+D"])]))

    def test_not_symplectic(self):
        bad = stab(3, [(["1+D", "0", "1+D"], ["0", "D", "D"]),
                       (["0", "D", "D"], ["1+D", "1+D", "1"])])
        with pytest.raises(PreconditionError):
            synthesize(bad)

    def test_rank_deficient(self):
        s = stab(3, [(["0", "0", "0"], ["1+D", "0", "0"]),
                     (["0", "0", "0"], ["D+D^2", "0", "0"])])
        with pytest.raises(PreconditionError):
            synthesize(s)


class TestReductionGuards:
    """The loop guards, raised by the driver's step methods directly."""

    def test_a_full_rank_pass_that_keeps_the_measure_is_stuck(self):
        drv = _Driver(rate_third_code())
        drv.smith_x()
        with pytest.raises(LoopLimitError, match="reduction is stuck"):
            drv.smith_x()

    def test_a_swap_past_the_budget_raises(self):
        # proper's first step 2 swaps its residual Z columns
        s = parse_stabilizer((DATA / "proper.stab").read_text(encoding="utf-8"))
        drv = _Driver(s)
        drv.smith_x()
        drv.budget = 0
        with pytest.raises(LoopLimitError, match="exceeded its budget of 0"):
            drv.step2()

    def test_an_all_zero_row_collapses_the_rank(self):
        drv = _Driver(stab(2, [(["1", "0"], ["0", "0"]), (["0", "0"], ["0", "0"])]))
        drv.smith_x()
        with pytest.raises(PreconditionError, match="rank collapsed during reduction"):
            drv.step2()


def _validated_first(s: StabilizerMatrix) -> SynthesisResult:
    """synthesize with every code validated before it is reduced."""
    validate_code(s)
    return _Driver(s).reduce()


def _outcome(synth, s: StabilizerMatrix):
    """The result's transcript, or the raised error's class, text and
    witness."""
    try:
        result = synth(s)
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "witness", None)
    return _transcript(result)


def _transcript(result: SynthesisResult):
    return result.forward, result.gamma, result.row_ops, result.checkpoints


def _codes_and_mutants() -> list[tuple[str, StabilizerMatrix]]:
    """20 ladder (unit-divisor) and 20 proper codes, all with r >= 2, each
    followed by its four invalid mutants."""
    rng = random.Random(1801)
    codes: list[StabilizerMatrix] = []
    while len(codes) < 20:
        s = random_valid_code(rng, max_n=6, max_r=4, max_gates=30, max_off=3)
        if s.r >= 2:
            codes.append(s)
    codes += [random_proper_code(rng) for _ in range(20)]
    out = []
    for k, s in enumerate(codes):
        out.append((f"{k}-valid", s))
        out += [(f"{k}-{kind}", mutant) for kind, mutant in invalid_mutants(rng, s).items()]
    return out


def _refuse(name: str):
    def refuse(s):
        raise AssertionError(f"{name} called")

    return refuse


class TestValidationOrder:
    """A code with r < n is reduced before `validate_code`, which runs only
    when the reduction raises; a code with r >= n is validated first.  So a
    code fails as it would if it were validated first.  A result differs
    only where validation's own commutation products pass a lowered span
    limit that the reduction keeps: the code then synthesizes, with the
    transcript it has at the default limit."""

    @pytest.mark.parametrize("lowered", [False, True], ids=["default-limit", "limit-below-2m"])
    def test_codes_and_mutants_end_as_when_validated_first(self, lowered):
        """Below 2 * memory, validation overflows on some valid codes whose
        reduction fits the limit; every other outcome is validated-first's."""
        compared = certified = 0
        for name, s in _codes_and_mutants():
            memory = params(s).memory
            if lowered and memory == 0:
                continue
            with span_limit(2 * memory - 1) if lowered else nullcontext():
                want = _outcome(_validated_first, s)
                got = _outcome(synthesize, s)
            if want[0] is ExponentOverflowError and isinstance(got[0], Circuit):
                # validation overflowed where the reduction fits
                result = synthesize(s)
                assert got == _transcript(result), name
                assert replay(s, result) == result.normal_form, name
                certified += 1
            else:
                assert got == want, name
            compared += 1
        assert compared >= 180
        assert (certified > 0) == lowered

    def test_mutants_are_invalid(self):
        for name, s in _codes_and_mutants():
            if not name.endswith("-valid"):
                with pytest.raises(PreconditionError):
                    validate_code(s)

    def test_valid_ladder_code_skips_the_commutation_check(self, monkeypatch):
        s = random_valid_code(random.Random(1802), max_n=6, max_r=4, max_gates=30, max_off=3)
        monkeypatch.setattr(stabilizer, "check_symplectic", _refuse("check_symplectic"))
        result = synthesize(s)
        assert replay(s, result) == result.normal_form

    def test_valid_code_with_s_at_one_below_rank_skips_validation(self, monkeypatch):
        """Both divisors of degree 5; 1+D+D^2+D^5 vanishes at D = 1, so S(1)
        has rank 1 of 2 and only a Smith reduction could certify full rank
        before the reduction."""
        base = stab(3, [(["0", "0", "0"], ["1+D+D^2+D^5", "0", "0"]),
                        (["0", "0", "0"], ["0", "1+D^2+D^5", "0"])])
        s = apply_circuit(base, random_circuit(random.Random(1804), 3, 12))
        assert rank_at_one(s) == 1
        monkeypatch.setattr(stabilizer, "check_symplectic", _refuse("check_symplectic"))
        monkeypatch.setattr(stabilizer, "full_rank", _refuse("full_rank"))
        result = synthesize(s)
        assert replay(s, result) == result.normal_form
        assert any(g.bits != 1 for g in result.gamma)

    @pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs POSIX interval timers")
    @pytest.mark.parametrize("rung", [(8, 6, 60, 3), (12, 8, 120, 4)], ids=["n8", "n12"])
    def test_broken_ladder_mutants_fail_as_when_validated_first(self, rung):
        """Commutation-broken ("term") and rank-broken ("multiple") mutants of
        gate-built codes on the benchmark's n=8 and n=12 ladder rungs pay
        their reduction before validation rejects them, each within 2 s."""
        n, r, count, max_off = rung
        rng = random.Random(1805 + n)
        for k in range(5):
            s = apply_circuit(z_only_identity_code(n, r), random_circuit(rng, n, count, max_off))
            mutants = invalid_mutants(rng, s)
            for kind in ("term", "multiple"):
                want = _outcome(_validated_first, mutants[kind])
                got = bounded(2.0, _outcome, synthesize, mutants[kind])
                assert want[0] is PreconditionError, (k, kind)
                assert got == want, (k, kind)


class TestRandomizedRuns:
    def test_transcript_faithfulness_and_invariants(self):
        rng = random.Random(701)
        for _ in range(60):
            s = random_valid_code(rng)
            result = synthesize(s)
            # replaying the transcript reproduces the normal form bit-exactly
            assert replay(s, result) == result.normal_form
            # every recorded checkpoint still commutes
            for _, snap in checkpoint_matrices(s, result):
                assert check_symplectic(snap)
            # normal form shape (0 | Gamma 0)
            nf = result.normal_form
            assert all(e.is_zero() for row in nf.x for e in row)
            # gate-built codes have unit divisors: monomials only
            assert all(g.bits == 1 for g in result.gamma)
            # degree measure never increases on full-rank recomputations
            log = result.step2_log
            for (r1, m1), (r2, m2) in zip(log, log[1:]):
                if r1 == s.r:
                    assert m2 < m1

    def test_forward_then_reverse_restores_input(self):
        rng = random.Random(702)
        for _ in range(30):
            s = random_valid_code(rng)
            result = synthesize(s)
            # gates alone reach the normal form only up to row operations,
            # but forward followed by its reverse is exactly the identity
            assert apply_circuit(apply_circuit(s, result.forward), result.encoder) == s


class TestClassify:
    def test_unit_and_shift(self):
        classes = classify([ONE, D])
        assert [c.kind for c in classes] == ["unit", "shift"]

    def test_identity_gamma(self):
        classes = classify([ONE, ONE, ONE])
        assert all(c.kind == "unit" for c in classes)

    def test_proper_period_three(self):
        (cls,) = classify([L("1+D+D^2")])
        assert cls.kind == "proper"
        assert cls.period == 3
        assert cls.series == "110"

    def test_proper_matches_order_search_oracle(self):
        for k, body in enumerate(divisor_bodies()):
            (cls,) = classify([LaurentPoly(k % 5 - 2, body.bits)])
            period = reference_order_of_d(body)
            assert cls.kind == "proper"
            assert (cls.period, cls.exact, cls.series) == (
                period,
                True,
                digits(series_head(RationalFn(Poly.one(), body), min(period, _HEAD_BITS))),
            ), body

    def test_proper_matches_sympy_gf2(self):
        sympy = pytest.importorskip("sympy")
        from sympy.polys.domains import ZZ
        from sympy.polys.galoistools import gf_div, gf_pow_mod

        def divides_d_power_plus_one(g, m):
            return gf_pow_mod([ZZ(1), ZZ(0)], m, g, 2, ZZ) == [ZZ(1)]

        bodies = divisor_bodies() + [body_of(L("1 + D + D^3 + D^12 + D^16"))]
        for body in bodies:
            (cls,) = classify([LaurentPoly(0, body.bits)])
            assert cls.exact, body
            n = cls.period
            g = [ZZ(body.coeff(e)) for e in range(body.degree, -1, -1)]
            assert divides_d_power_plus_one(g, n), body
            for q in sympy.factorint(n):
                assert not divides_d_power_plus_one(g, n // q), (body, q)
            d_n_plus_one = [ZZ(1)] + [ZZ(0)] * (n - 1) + [ZZ(1)]
            quotient, rest = gf_div(d_n_plus_one, g, 2, ZZ)
            assert rest == []
            low_to_high = [int(c) for c in reversed(quotient)]
            head = (low_to_high + [0] * (n - len(low_to_high)))[:_HEAD_BITS]
            assert cls.series == digits(head), body

    def test_primitive_degree_twenty_within_budget(self):
        start = time.perf_counter()
        (cls,) = classify([L("1 + D^3 + D^20")])
        elapsed = time.perf_counter() - start
        assert (cls.period, cls.exact) == ((1 << 20) - 1, True)
        assert len(cls.series) == _HEAD_BITS
        assert elapsed < 2.0

    @pytest.mark.parametrize("text, period", [
        ("1+D+D^22", (1 << 22) - 1),
        ("1+D^3+D^25", (1 << 25) - 1),
        ("1+D^3+D^28", (1 << 28) - 1),
        ("1+D+D^127", (1 << 127) - 1),
    ])
    def test_primitive_trinomials_print_a_bounded_line(self, text, period):
        """Primitive divisors whose period a walk could not reach: the
        period is exact and the printed line stays under 1 KB."""
        start = time.perf_counter()
        (cls,) = classify([L(text)])
        elapsed = time.perf_counter() - start
        assert (cls.period, cls.exact) == (period, True)
        assert cls.series == digits(series_head(RationalFn(Poly.one(), body_of(L(text))), _HEAD_BITS))
        assert len(cls.describe()) < 1024
        assert elapsed < 0.5

    def test_zero_divisor_raises(self):
        with pytest.raises(ZeroDivisionError):
            classify([LaurentPoly.zero()])


def repeated_factor_bodies() -> list[int]:
    """(1+D)^k for k <= 9, 1 + D^d for d <= 16, and products of factors of
    different orders, some repeated."""
    one_plus_d = Poly(0b11)
    bodies, acc = [], Poly.one()
    for _ in range(9):
        acc = acc * one_plus_d
        bodies.append(acc.bits)
    bodies += [(1 << d) | 1 for d in range(1, 17)]
    # orders 1, 3, 7, 5 and 15 (1+D+D^4 is primitive)
    factors = [Poly(b) for b in (0b11, 0b111, 0b1011, 0b11111, 0b10011)]
    for i, f in enumerate(factors):
        for g in factors[i + 1:]:
            bodies += [(f * g).bits, (f * f * g).bits, (f * g * g * g).bits]
    return bodies


def odd_bodies(max_degree: int):
    """Polynomial bodies of degree 1 to max_degree with constant term 1."""
    return st.integers(1, max_degree).flatmap(
        lambda d: st.builds(lambda mid: (1 << d) | (mid << 1) | 1, st.integers(0, (1 << (d - 1)) - 1))
    )


def digits(bits) -> str:
    return "".join(map(str, bits))


def head_and_order(body: int) -> tuple[tuple[int, str], tuple[int, bool]]:
    return _series_head(body), order.order_of_d(body)


def walked(body: int) -> tuple[tuple[int, str], tuple[int, bool]]:
    """What `head_and_order` must return, from the bit-by-bit long division."""
    period, series = reference_period_series(body)
    return (period if period <= _HEAD_BITS else 0, digits(series[:_HEAD_BITS])), (period, True)


class TestPeriodSeries:
    """The series head and the order of D against the bit-by-bit long
    division, which walks the whole period."""

    @settings(max_examples=200, deadline=None)
    @given(odd_bodies(20))
    def test_matches_the_long_division(self, body):
        assert head_and_order(body) == walked(body)

    def test_every_body_up_to_degree_twelve(self):
        for body in range(3, 1 << 13, 2):
            assert head_and_order(body) == walked(body), Poly(body)

    @pytest.mark.parametrize("body", repeated_factor_bodies(), ids=lambda b: str(Poly(b)))
    def test_repeated_factors(self, body):
        assert head_and_order(body) == walked(body)

    @pytest.mark.parametrize("body", [0, 0b10, 0b110, 0b1011 << 3])
    def test_even_body_raises(self, body):
        with pytest.raises(ZeroDivisionError):
            _series_head(body)

    @settings(max_examples=100, deadline=None)
    @given(odd_bodies(12), st.integers(-3, 3))
    def test_describe_joins_the_series(self, body, offset):
        (cls,) = classify([LaurentPoly(offset, body)])
        head = ",".join(cls.series)
        assert cls.describe() == (
            f"proper: subcode row; ignored periodic states 1/({cls.value}) = "
            f"{head},... (period {cls.period})"
        )


@pytest.fixture
def no_factor_budget(monkeypatch):
    """Factoring 2^j - 1 stops at once; the cache of factorizations is
    emptied on both sides, so none made under the default budget is read."""
    monkeypatch.setattr(order, "_FACTOR_BUDGET", 0)
    order._mersenne_factors.cache_clear()
    yield
    order._mersenne_factors.cache_clear()


class TestOrderBudget:
    """What is printed when a work budget runs out: what is proven."""

    def test_factor_budget_leaves_a_multiple(self, no_factor_budget):
        # 1 + D^2 + D^11 is primitive, and 2^11 - 1 = 23 * 89 needs a split
        (cls,) = classify([L("1+D^2+D^11")])
        assert (cls.period, cls.exact) == (2047, False)
        assert cls.describe().endswith(",1,... (period divides 2047)")

    def test_factor_budget_proves_only_a_multiple(self, no_factor_budget):
        # the Golay code's generator: degree 11, period 23, which divides
        # the unsplit 2^11 - 1
        body = body_of(L("1+D+D^5+D^6+D^7+D^9+D^11")).bits
        assert order.order_of_d(body) == (2047, False)
        assert reference_period_series(body)[0] == 23

    def test_step_budget_leaves_the_head(self, monkeypatch):
        monkeypatch.setattr(order, "_STEP_BUDGET", 10)
        (cls,) = classify([L("1+D^3+D^20")])
        assert (cls.period, cls.exact) == (0, False)
        assert len(cls.series) == _HEAD_BITS
        assert cls.describe().endswith(",... (period above 128)")
