import importlib
import random
from functools import reduce
from itertools import combinations
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    L,
    apply_col_ops,
    body_of,
    det,
    identity,
    mat_mul,
    poly_gcd,
    random_circuit,
    smith_a,
    smith_b,
    zeros,
)
from qconvenc.errors import LoopLimitError, NonClearableError
from qconvenc.gates import apply_circuit
from qconvenc.matrix import freeze, thaw
from qconvenc.poly import LaurentPoly, Poly, laurent_divides
from qconvenc.smith import (
    ElementaryColOp,
    apply_col_op,
    apply_row_op,
    row_divisibility_check,
    smith,
    smith_rank,
)

from qconvenc.stabilizer import StabilizerMatrix
from qconvenc.synthesis import synthesize

smith_module = importlib.import_module("qconvenc.smith")


def lmat(rows: list[list[str]]):
    return freeze([[L(e) for e in row] for row in rows])


def minor_gcd_bodies(m) -> list[Poly]:
    """Brute-force oracle: gcd of all k-by-k minors, unit-stripped, and the
    consecutive ratios as elementary-divisor bodies."""
    r, n = len(m), len(m[0])
    bodies = []
    prev = Poly.one()
    for k in range(1, min(r, n) + 1):
        minors = []
        for rows in combinations(range(r), k):
            for cols in combinations(range(n), k):
                sub = [[m[i][j] for j in cols] for i in rows]
                d = det(sub)
                if not d.is_zero():
                    minors.append(body_of(d))
        if not minors:
            break
        g = reduce(poly_gcd, minors)
        bodies.append(g // prev)
        prev = g
    return bodies


def random_poly_matrix(rng: random.Random, r: int, n: int, max_deg: int = 4):
    rows = []
    for _ in range(r):
        row = []
        for _ in range(n):
            if rng.random() < 0.25:
                row.append(LaurentPoly.zero())
            else:
                row.append(LaurentPoly(0, rng.getrandbits(max_deg + 1)))
        rows.append(row)
    return freeze(rows)


def assert_valid_decomposition(m, dec):
    a, b = smith_a(dec), smith_b(dec)
    assert mat_mul(mat_mul(a, dec.gamma), b) == freeze(m)
    # gamma diagonal
    for i, row in enumerate(dec.gamma):
        for j, e in enumerate(row):
            if i != j:
                assert e.is_zero()
    divs = dec.divisors
    for g1, g2 in zip(divs, divs[1:]):
        assert laurent_divides(g1, g2)
    # transforms are invertible: determinant is a Laurent unit D^l
    for mat in (a, b):
        d = det(mat)
        assert d.bits == 1
    # applying col_ops in order reproduces A*Gamma
    assert apply_col_ops(m, dec.col_ops) == mat_mul(a, dec.gamma)


class TestSmithExamples:
    def test_rate_third_x_part(self):
        m = lmat([["1+D", "1", "1+D"], ["0", "D", "D"]])
        dec = smith(m)
        assert dec.divisors == (L("1"), L("D"))
        assert_valid_decomposition(m, dec)
        assert [body_of(g) for g in dec.divisors] == minor_gcd_bodies(m)

    def test_identity_fixed_point(self):
        m = identity(3)
        dec = smith(m)
        assert dec.gamma == m
        assert smith_a(dec) == m and smith_b(dec) == m
        assert dec.col_ops == () and dec.row_ops == ()

    def test_single_row_gcd(self):
        # gcd(D^2+D, D^3+D^2+D) = D: both share only the factor D
        m = lmat([["D^2+D", "D^3+D^2+D"]])
        dec = smith(m)
        assert dec.divisors == (L("D"),)
        assert [body_of(g) for g in dec.divisors] == minor_gcd_bodies(m)
        assert_valid_decomposition(m, dec)

    def test_all_zero(self):
        m = lmat([["0", "0"], ["0", "0"]])
        dec = smith(m)
        assert dec.gamma == m
        assert dec.divisors == ()
        assert dec.col_ops == () and dec.row_ops == ()

    def test_laurent_preprocessing(self):
        m = lmat([["D^-1+D", "1"], ["0", "D^-2"]])
        dec = smith(m)
        assert_valid_decomposition(m, dec)
        # all divisors normalized: nonzero constant term or a plain monomial
        for g in dec.divisors:
            assert g.bits == 1 or g.offset == 0


class TestApplyColOps:
    def test_empty(self):
        m = lmat([["1+D", "D"]])
        assert apply_col_ops(m, []) == m

    def test_swap(self):
        m = lmat([["1+D", "D"]])
        got = apply_col_ops(m, [ElementaryColOp("swap", 0, 1)])
        assert got == lmat([["D", "1+D"]])

    def test_add(self):
        m = lmat([["1", "0"]])
        got = apply_col_ops(m, [ElementaryColOp("add", 0, 1, L("D"))])
        assert got == lmat([["1", "D"]])

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            apply_col_ops(lmat([["1"]]), [ElementaryColOp("swap", 0, 1)])

    def test_bad_ops_rejected(self):
        with pytest.raises(ValueError):
            ElementaryColOp("add", 0, 0, L("1"))
        with pytest.raises(ValueError):
            ElementaryColOp("add", 0, 1, LaurentPoly.zero())
        with pytest.raises(ValueError):
            ElementaryColOp("rotate", 0, 1)


class TestRowDivisibility:
    def test_units_divide_everything(self):
        gamma = [L("1"), L("1")]
        u = lmat([["D^-3+D^5", "1+D"], ["D", "0"]])
        assert row_divisibility_check(gamma, u) == (True, True)

    def test_monomial_divides(self):
        assert row_divisibility_check([L("D")], lmat([["D^3+D^2+D"]])) == (True,)

    def test_failure(self):
        assert row_divisibility_check([L("D^2+D")], lmat([["D"]])) == (False,)


class TestSmithProperties:
    def test_randomized_against_minor_oracle(self):
        rng = random.Random(401)
        for _ in range(120):
            r = rng.randint(1, 3)
            n = rng.randint(1, 5)
            m = random_poly_matrix(rng, r, n)
            dec = smith(m)
            assert_valid_decomposition(m, dec)
            assert [body_of(g) for g in dec.divisors] == minor_gcd_bodies(m)

    def test_caller_applies_each_op_in_place(self):
        rng = random.Random(401)
        for _ in range(120):
            m = random_poly_matrix(rng, rng.randint(1, 3), rng.randint(1, 5))
            rows = thaw(m)
            seen = []

            def apply(kind, op):
                seen.append((kind, op))
                (apply_col_op if kind == "col" else apply_row_op)(rows, op)

            dec = smith(rows, apply)
            ref = smith(m)
            # the decomposition holds only Gamma and the transcripts
            assert dec._fields == ("gamma", "col_ops", "row_ops")
            assert freeze(rows) == dec.gamma == ref.gamma
            assert (dec.col_ops, dec.row_ops) == (ref.col_ops, ref.row_ops)
            assert (smith_a(dec), smith_b(dec)) == (smith_a(ref), smith_b(ref))
            assert len(seen) == len(dec.col_ops) + len(dec.row_ops)

    def test_gamma_is_fixed_point(self):
        rng = random.Random(402)
        for _ in range(60):
            m = random_poly_matrix(rng, rng.randint(1, 3), rng.randint(1, 4))
            g = smith(m).gamma
            again = smith(g)
            assert again.gamma == g
            assert again.col_ops == () and again.row_ops == ()

    def test_residual_column_degree_reduction(self):
        # build (diag(gamma) | U) where some gamma_i fails the divisibility
        # check; re-running smith must strictly shrink the total divisor span
        rng = random.Random(403)
        tried = 0
        for _ in range(200):
            r = rng.randint(1, 3)
            extra = rng.randint(1, 2)
            gamma = []
            for _ in range(r):
                body = rng.getrandbits(3) | 1
                gamma.append(LaurentPoly(rng.randint(0, 2), body))
            u = random_poly_matrix(rng, r, extra, max_deg=3)
            checks = row_divisibility_check(gamma, u)
            if all(checks):
                continue
            tried += 1
            rows = []
            for i in range(r):
                row = [gamma[i] if i == j else LaurentPoly.zero() for j in range(r)]
                rows.append(row + list(u[i]))
            before = sum(g.degree for g in gamma)
            dec = smith(freeze(rows))
            after = sum(g.degree for g in dec.divisors)
            assert after < before
        assert tried > 30

    def test_rank(self):
        assert smith_rank(lmat([["1", "D"], ["D", "D^2"]])) == 1
        assert smith_rank(lmat([["1", "0"], ["0", "D^5"]])) == 2
        assert smith_rank(lmat([["0", "0"]])) == 0

    def test_exponent_overflow_surfaces(self):
        from qconvenc.errors import ExponentOverflowError
        from qconvenc.poly import span_limit

        with span_limit(8):
            with pytest.raises(ExponentOverflowError):
                smith(lmat([["1+D^7", "D^6+D^7"], ["D^5", "1+D^3+D^7"]]))


class _CheckedReducer(smith_module._Reducer):
    """Checks every selection that reduce_pivot kept track of against a
    fresh scan, and counts them."""

    reused = 0

    def select_pivot(self, t, known=None):
        fresh = super().select_pivot(t)
        if known is not None:
            assert known == fresh
            type(self).reused += 1
        return fresh


class TestPivotReuse:
    """reduce_pivot rescans only after the quotient loops; every selection
    it carries over a row swap, a column swap or a leading-term
    cancellation is the one a scan finds."""

    def setup_method(self):
        _CheckedReducer.reused = 0

    @staticmethod
    def synthesize_checked(codes):
        with patch.object(smith_module, "_Reducer", _CheckedReducer):
            for s in codes:
                try:
                    synthesize(s)
                except (NonClearableError, LoopLimitError):
                    pass

    @staticmethod
    def scrambled(rng, n, diag):
        """(0 | diag 0) on n streams scrambled by random gates."""
        r = len(diag)
        z = [[diag[i] if c == i else LaurentPoly.zero() for c in range(n)] for i in range(r)]
        base = StabilizerMatrix.from_rows(n, zeros(r, n), freeze(z))
        return apply_circuit(base, random_circuit(rng, n, rng.randint(20, 60), max_off=3))

    def test_gate_built_codes(self):
        rng = random.Random(811)
        codes = []
        for _ in range(40):
            n = rng.randint(3, 8)
            codes.append(self.scrambled(rng, n, [L("1")] * rng.randint(1, n - 1)))
        self.synthesize_checked(codes)
        assert _CheckedReducer.reused > 100

    def test_codes_with_proper_divisors(self):
        rng = random.Random(812)
        codes = []
        for _ in range(40):
            n = rng.randint(2, 4)
            diag = [LaurentPoly(0, rng.getrandbits(5) | 33) for _ in range(rng.randint(1, n - 1))]
            codes.append(self.scrambled(rng, n, diag))
        self.synthesize_checked(codes)
        assert _CheckedReducer.reused > 50

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(
        st.integers(1, 4).flatmap(
            lambda n: st.lists(
                st.lists(st.builds(LaurentPoly, st.integers(-3, 3), st.integers(0, 63)), min_size=n, max_size=n),
                min_size=1,
                max_size=4,
            )
        )
    )
    def test_random_matrices(self, rows):
        with patch.object(smith_module, "_Reducer", _CheckedReducer):
            checked = smith(freeze(rows))
        ref = smith(freeze(rows))
        assert (checked.gamma, checked.col_ops, checked.row_ops) == (ref.gamma, ref.col_ops, ref.row_ops)
