import random
import threading
import time
import tracemalloc
from contextlib import nullcontext

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    L,
    RationalFn,
    divides,
    outcome,
    parse_laurent,
    parse_terms,
    reference_laurent_divmod,
    series_head,
    xgcd,
)
from qconvenc.errors import ExponentOverflowError, ParseError
from qconvenc.poly import (
    LaurentPoly,
    Poly,
    _divmod_bits,
    laurent_divides,
    laurent_divmod,
    laurent_div,
    max_span,
    parse_poly,
    span_limit,
    symmetric_decompose,
)
from qconvenc.stabilizer import parse_stabilizer


def poly(s: str) -> Poly:
    lp = parse_laurent(s)
    if lp.is_zero():
        return Poly.zero()
    assert lp.offset >= 0, "not a plain polynomial"
    return Poly(lp.bits << lp.offset)


def coeff_map(a: LaurentPoly) -> dict[int, int]:
    return {e: 1 for e in a.exponents()}


def xor_maps(m1: dict[int, int], m2: dict[int, int]) -> dict[int, int]:
    out = dict(m1)
    for e in m2:
        if e in out:
            del out[e]
        else:
            out[e] = 1
    return out


def convolve_maps(m1: dict[int, int], m2: dict[int, int]) -> dict[int, int]:
    out: dict[int, int] = {}
    for e1 in m1:
        for e2 in m2:
            e = e1 + e2
            out[e] = out.get(e, 0) ^ 1
    return {e: 1 for e, c in out.items() if c}


def random_laurent(rng: random.Random, max_deg: int = 8, off_range: int = 4) -> LaurentPoly:
    bits = rng.getrandbits(max_deg + 1)
    return LaurentPoly(rng.randint(-off_range, off_range), bits)


class TestAdd:
    def test_self_cancellation(self):
        assert L("1+D") + L("1+D") == L("0")

    def test_coefficient_xor(self):
        assert L("1+D") + L("D") == L("1")

    def test_laurent_xor_against_map_oracle(self):
        a, b = L("D^-1+D"), L("D^-1+1")
        expect = xor_maps(coeff_map(a), coeff_map(b))
        got = a + b
        assert coeff_map(got) == expect
        assert got == L("1+D")


class TestMul:
    def test_frobenius_square(self):
        assert L("1+D") * L("1+D") == L("1+D^2")

    def test_negative_offset_entry(self):
        # the (D^2+1)/D shape that appears as a Laurent entry after clearing
        assert L("D^-1") * L("D^2+1") == L("D+D^-1")

    def test_schoolbook_convolution_oracle(self):
        a, b = L("1+D"), L("1+D+D^2")
        assert coeff_map(a * b) == convolve_maps(coeff_map(a), coeff_map(b))
        assert a * b == L("1+D^3")


class TestDivmod:
    def test_multiply_back(self):
        q, rem = divmod(poly("D^3+D^2+D"), poly("D^2+D"))
        assert (q, rem) == (poly("D"), poly("D"))
        assert q * poly("D^2+D") + rem == poly("D^3+D^2+D")
        assert rem.degree < poly("D^2+D").degree

    def test_square_factor(self):
        assert divmod(poly("D^2+1"), poly("D+1")) == (poly("D+1"), Poly.zero())

    def test_low_degree_numerator(self):
        assert divmod(poly("D"), poly("D^2+1")) == (Poly.zero(), poly("D"))

    def test_zero_divisor_rejected(self):
        with pytest.raises(ZeroDivisionError):
            divmod(poly("D"), Poly.zero())


def all_divisors(p: Poly) -> list[Poly]:
    # exhaustive enumeration up to deg(p); oracle for gcd checks
    out = []
    for bits in range(1, 1 << (p.degree + 1)):
        d = Poly(bits)
        if divides(d, p):
            out.append(d)
    return out


class TestXgcd:
    def test_common_factor_via_divisor_enumeration(self):
        a, b = poly("D^2+D"), poly("D^3+D^2+D")
        g, u, v = xgcd(a, b)
        common = [d for d in all_divisors(a) if divides(d, b)]
        assert max(common, key=lambda d: d.degree) == g == poly("D")
        assert u * a + v * b == g

    def test_gcd_with_zero(self):
        f = poly("D^2+1")
        assert xgcd(f, Poly.zero()) == (f, Poly.one(), Poly.zero())

    def test_coprime_certificate(self):
        g, u, v = xgcd(poly("D+1"), poly("D"))
        assert g == Poly.one()
        assert u * poly("D+1") + v * poly("D") == Poly.one()

    def test_both_zero_rejected(self):
        with pytest.raises(ZeroDivisionError):
            xgcd(Poly.zero(), Poly.zero())


class TestReciprocal:
    def test_exponent_negation(self):
        assert L("1+D+D^3").reciprocal() == L("1+D^-1+D^-3")

    def test_zero_fixed_point(self):
        assert LaurentPoly.zero().reciprocal() == LaurentPoly.zero()

    def test_mixed_offsets(self):
        assert L("D^-1+D^2").reciprocal() == L("D+D^-2")


class TestLaurentDegree:
    def test_span(self):
        assert L("D^-1+D^2").degree == 3

    def test_single_term(self):
        assert L("1").degree == 0

    def test_plain_poly_span(self):
        assert L("D^3+D^2+D").degree == 2

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            LaurentPoly.zero().degree


class TestIsSymmetric:
    def test_constant_free_pair(self):
        assert symmetric_decompose(L("D^-1+D")) == (False, (1,))

    def test_palindrome_with_center(self):
        assert symmetric_decompose(L("1+D^-1+D")) == (True, (1,))

    def test_asymmetric(self):
        assert symmetric_decompose(L("1+D")) is None
        assert symmetric_decompose(L("D^-1+1+D^2")) is None

    def test_decompose(self):
        assert symmetric_decompose(L("1+D^-1+D")) == (True, (1,))
        assert symmetric_decompose(L("D^-2+D^2+D^-1+D")) == (False, (1, 2))
        assert symmetric_decompose(L("D")) is None


def long_division_series(num: Poly, den: Poly, k: int) -> tuple[int, ...]:
    # coefficient recurrence oracle, independent of series_head's bit loop
    n = [num.coeff(i) for i in range(k)]
    d = [den.coeff(i) for i in range(k)]
    c = []
    for j in range(k):
        acc = n[j]
        for i in range(1, j + 1):
            acc ^= d[i] * c[j - i]
        c.append(acc)
    return tuple(c)


class TestSeriesHead:
    def test_all_ones_stream(self):
        # the state pair allowed by the single-qubit Z-generator 1+D
        assert series_head(RationalFn(Poly.one(), poly("1+D")), 4) == (1, 1, 1, 1)

    def test_unit_denominator(self):
        assert series_head(RationalFn(Poly.one(), Poly.one()), 3) == (1, 0, 0)

    def test_period_three_against_long_division(self):
        r = RationalFn(Poly.one(), poly("1+D+D^2"))
        assert series_head(r, 6) == long_division_series(Poly.one(), poly("1+D+D^2"), 6)
        assert series_head(r, 6) == (1, 1, 0, 1, 1, 0)

    def test_non_power_series_rejected(self):
        with pytest.raises(ValueError):
            series_head(RationalFn(Poly.one(), poly("D")), 3)


class TestRationalFn:
    def test_reduction(self):
        r = RationalFn(poly("D^2+D"), poly("D^3+D^2"))
        assert (r.num, r.den) == (Poly.one(), poly("D"))

    def test_zero_canonical(self):
        r = RationalFn(Poly.zero(), poly("D^2+1"))
        assert (r.num, r.den) == (Poly.zero(), Poly.one())

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            RationalFn(Poly.one(), Poly.zero())

    def test_laurent_detection(self):
        assert RationalFn(poly("D^2+1"), poly("D")).is_laurent()
        assert not RationalFn(Poly.one(), poly("1+D")).is_laurent()


class TestRingProperties:
    def test_ring_axioms(self):
        rng = random.Random(101)
        for _ in range(300):
            a, b, c = (random_laurent(rng) for _ in range(3))
            assert a + b == b + a
            assert a * b == b * a
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + a == LaurentPoly.zero()

    def test_reciprocal_is_ring_homomorphism(self):
        rng = random.Random(102)
        for _ in range(300):
            a, b = random_laurent(rng), random_laurent(rng)
            assert (a * b).reciprocal() == a.reciprocal() * b.reciprocal()
            assert (a + b).reciprocal() == a.reciprocal() + b.reciprocal()
            assert a.reciprocal().reciprocal() == a

    def test_divmod_round_trip(self):
        rng = random.Random(103)

        def sparse(width: int) -> int:
            """A leading bit at width - 1 and up to six random bits below."""
            bits = 1 << width - 1
            for _ in range(rng.randint(0, 6)):
                bits |= 1 << rng.randrange(width)
            return bits

        pairs = [(rng.getrandbits(9), rng.getrandbits(7)) for _ in range(300)]
        # wide, sparse dividends over divisors up to 64 bits, where the
        # quotient's set bits lie far apart
        pairs += [(sparse(rng.randint(190, 210)), sparse(rng.randint(1, 64))) for _ in range(200)]
        short = [(sparse(rng.randint(1, 20)), sparse(rng.randint(21, 64))) for _ in range(20)]
        short += [(0, sparse(rng.randint(1, 64))) for _ in range(5)]
        for a_bits, b_bits in pairs + short:
            if not b_bits:
                continue
            a, b = Poly(a_bits), Poly(b_bits)
            q, rem = divmod(a, b)
            assert q * b + rem == a
            assert rem.is_zero() or rem.degree < b.degree
        # a below b, zero included: quotient 0, remainder a
        for a_bits, b_bits in short:
            assert divmod(Poly(a_bits), Poly(b_bits)) == (Poly.zero(), Poly(a_bits))

    def test_laurent_divmod_round_trip(self):
        rng = random.Random(104)
        for _ in range(300):
            a, b = random_laurent(rng), random_laurent(rng)
            if b.is_zero():
                continue
            q, rem = laurent_divmod(a, b)
            assert q * b + rem == a
            assert rem.is_zero() or rem.degree < b.degree

    def test_xgcd_certificate(self):
        rng = random.Random(105)
        for _ in range(300):
            a = Poly(rng.getrandbits(8))
            b = Poly(rng.getrandbits(8))
            if a.is_zero() and b.is_zero():
                continue
            g, u, v = xgcd(a, b)
            assert u * a + v * b == g
            assert divides(g, a) and divides(g, b)

    def test_degree_additivity(self):
        rng = random.Random(106)
        for _ in range(300):
            a, b = random_laurent(rng), random_laurent(rng)
            if a.is_zero() or b.is_zero():
                continue
            assert (a * b).degree == a.degree + b.degree


class TestLaurentDivision:
    def test_exact_unit_division(self):
        assert laurent_div(L("1+D"), L("D^3")) == L("D^-3+D^-2")

    def test_inexact(self):
        assert laurent_div(L("D"), L("D^2+D")) is None

    def test_divides_on_bodies(self):
        assert laurent_divides(L("D"), L("D^3+D^2+D"))
        assert laurent_divides(L("D^2+D"), L("D^4+D^2"))  # 1+D divides 1+D^2
        assert not laurent_divides(L("D^2+D"), L("D"))


laurents = st.builds(LaurentPoly, st.integers(-40, 40), st.integers(0, (1 << 40) - 1))
monomials = st.builds(LaurentPoly.d, st.integers(-40, 40))


class TestUnitDivision:
    """The monomial fast paths give what every divisor's path gives,
    errors included: the same values, and the same span checks in the same
    order under a limit lowered below the dividend's span."""

    @settings(max_examples=300, deadline=None)
    @given(laurents, st.one_of(monomials, laurents), st.sampled_from([None, 4, 16, 39]))
    def test_matches_the_general_path(self, a, b, limit):
        with span_limit(limit) if limit else nullcontext():
            want = outcome(reference_laurent_divmod, a, b)
            assert outcome(laurent_divmod, a, b) == want
            if a.bits and b.bits:
                if want[0] == "ok":
                    q, rem = want[1]
                    want = "ok", q if rem.is_zero() else None
                assert outcome(laurent_div, a, b) == want
                assert laurent_divides(b, a) == (_divmod_bits(a.bits, b.bits)[1] == 0)


class TestGrammar:
    def test_round_trip_canonical(self):
        for text in ["0", "1", "D", "1+D", "D^-1+1+D", "D^2+D^5", "D^-3"]:
            assert str(parse_laurent(text)) == str(parse_laurent(str(parse_laurent(text))))

    def test_duplicate_terms_cancel(self):
        assert parse_laurent("D+D") == LaurentPoly.zero()
        assert parse_laurent("1+D+1") == L("D")

    def test_whitespace_ignored(self):
        assert parse_laurent(" 1 + D ^ 2 ".replace(" ", "")) == parse_laurent("1+D^2")
        assert parse_laurent("1 +\tD") == L("1+D")

    def test_bad_terms_rejected(self):
        for bad in ["", "x", "D^", "2", "D**2", "1+"]:
            with pytest.raises(ParseError):
                parse_laurent(bad)

    def test_printing(self):
        assert str(LaurentPoly.zero()) == "0"
        assert str(L("D^-1+1+D^3")) == "D^-1+1+D^3"


class TestExponents:
    def test_sparse_wide_body_lists_its_terms_in_linear_time(self):
        """Three terms 65,535 apart: listing them jumps from one set bit to
        the next rather than shifting the body once per exponent (which
        took about 68 ms a call)."""
        p = LaurentPoly(0, 1 | 2 | 1 << 65535)
        want = tuple(parse_terms("1+D+D^65535"))
        start = time.perf_counter()
        lists = [p.exponents() for _ in range(50)]
        assert time.perf_counter() - start < 0.5
        assert all(exps == want for exps in lists)

    @settings(derandomize=True, database=None, max_examples=300)
    @given(offset=st.integers(-70, 70), bits=st.integers(0, 1 << 140))
    def test_exponents_are_the_set_bits(self, offset, bits):
        p = LaurentPoly(offset, bits)
        want = tuple(offset + k for k in range(bits.bit_length()) if bits >> k & 1)
        assert p.exponents() == want


class TestSpanLimit:
    def test_nested_blocks_restore_the_outer_limit(self):
        default = max_span()
        with span_limit(40) as outer:
            assert outer == max_span() == 40
            with span_limit(10):
                assert max_span() == 10
            assert max_span() == 40
            wide = L("1+D^5")
            with pytest.raises(ExponentOverflowError, match="span 6 exceeds limit 3"):
                with span_limit(3):
                    wide * L("1+D")
            assert max_span() == 40
            with pytest.raises(KeyError):
                with span_limit(5):
                    raise KeyError("inner")
            assert max_span() == 40
        assert max_span() == default

    @pytest.mark.parametrize("limit", [0, -3])
    def test_nonpositive_limit_raises_when_called(self, limit):
        before = max_span()
        with pytest.raises(ValueError, match="^span limit must be positive$"):
            span_limit(limit)
        assert max_span() == before

    def test_threads_do_not_see_each_others_limit(self):
        """A worker starts from the default, not the main thread's limit,
        and the limit it enters is not seen by the main thread."""
        entered, read = threading.Event(), threading.Event()
        seen = {}

        def worker():
            seen["start"] = max_span()
            with span_limit(5):
                entered.set()
                read.wait(10)
                seen["inside"] = max_span()
                seen["raised"] = outcome(lambda: L("1+D^6") * L("1"))[0]

        default = max_span()
        with span_limit(7):
            thread = threading.Thread(target=worker)
            thread.start()
            try:
                assert entered.wait(10)
                assert max_span() == 7
                assert L("1+D^6") * L("1") == L("1+D^6")
            finally:
                read.set()
                thread.join(10)
        assert not thread.is_alive()
        assert seen == {"start": default, "inside": 5, "raised": ExponentOverflowError}
        assert max_span() == default

    def test_overflow_detected(self):
        with span_limit(16):
            with pytest.raises(ExponentOverflowError):
                L("D^20") * L("1+D^20")
            assert L("D^30") * L("D^-30") == L("1")  # monomials never widen

    @pytest.mark.parametrize(
        "text",
        [
            "1 + D^50000000",
            "f4 n=1\nrow: 1 + D^50000000\n",
            # the w-image adds 1 and D^50000000, two terms each of span 0
            "f4 n=1\nrow: 1 + wD^50000000\n",
            "n=2 r=1\nrow: 1+D^50000000, 0 | 0, 0\n",
        ],
    )
    def test_parser_checks_span_before_allocating(self, text):
        # a 50,000,000-bit body would take over 6 MB
        with span_limit(16):
            tracemalloc.start()
            try:
                with pytest.raises(ExponentOverflowError, match="span 50000000 exceeds limit 16"):
                    if text.startswith(("f4", "n=")):
                        parse_stabilizer(text)
                    else:
                        parse_laurent(text)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 1 << 20

    def test_cancelled_terms_do_not_count_toward_the_span(self):
        # the repeated term cancels before the span is checked
        with span_limit(16):
            text = "D^50000000+D^50000000+1"
            assert parse_poly(text) == parse_laurent(text) == L("1")
            s = parse_stabilizer(f"n=2 r=1\nrow: {text}, 0 | 0, 0\n")
            assert s.x[0][0] == L("1")
