import io
import random

import pytest

from helpers import (
    L,
    f4_self_orthogonal,
    random_circuit,
    random_f4_rows,
    random_laurent_matrix,
    rate_third_code,
    rate_third_f4_rows,
    reference_symplectic,
    stab,
    unroll,
    window_commutes,
    window_inner,
    z_only_identity_code,
)
from qconvenc import stabilizer
from qconvenc.cli import main
from qconvenc.gates import apply_circuit
from qconvenc.errors import ParseError, PreconditionError, WindowTooSmallError
from qconvenc.poly import L_ZERO, LaurentPoly
from qconvenc.smith import smith_rank
from qconvenc.stabilizer import (
    F4Poly,
    StabilizerMatrix,
    check_symplectic,
    format_stabilizer,
    from_f4,
    full_rank,
    is_systematic,
    params,
    parse_stabilizer,
    placement_bits,
    validate_code,
)


def bits_of(window, gen, shift) -> int:
    for row, (g, t) in zip(window.rows, window.placements):
        if (g, t) == (gen, shift):
            return row
    raise AssertionError(f"no placement ({gen}, {shift})")


def to_sides(row_bits: int, n: int, blocks: int) -> tuple[str, str]:
    half = n * blocks
    x = "".join(str((row_bits >> p) & 1) for p in range(half))
    z = "".join(str((row_bits >> (half + p)) & 1) for p in range(half))
    return x, z


class TestCheckSymplectic:
    def test_rate_third_code_commutes(self):
        assert check_symplectic(rate_third_code())

    def test_z_only_always_commutes(self):
        s = stab(2, [(["0", "0"], ["1+D^3", "D^-2"])])
        assert check_symplectic(s)

    def test_flipped_entry_detected_with_witness(self):
        s = stab(
            3,
            [
                (["1+D", "0", "1+D"], ["0", "D", "D"]),  # X12 flipped 1 -> 0
                (["0", "D", "D"], ["1+D", "1+D", "1"]),
            ],
        )
        chk = check_symplectic(s)
        assert not chk
        # row-major first failure; value computed by hand from the Eq-3 sum
        assert (chk.row_i, chk.row_j) == (0, 0)
        assert chk.value == L("D^-1+D")

    def test_witness_matches_full_row_major_scan(self):
        # sparse entries, so that the first violation falls anywhere
        rng = random.Random(909)

        def sparse(r, n):
            return [
                [LaurentPoly(rng.randint(-2, 2), rng.getrandbits(3)) if rng.random() < 0.25 else L_ZERO
                 for _ in range(n)]
                for _ in range(r)
            ]

        witnesses = []
        for _ in range(300):
            r, n = rng.randint(2, 5), rng.randint(2, 5)
            s = StabilizerMatrix.from_rows(n, sparse(r, n), sparse(r, n))
            chk = check_symplectic(s)
            assert chk == reference_symplectic(s)
            if not chk:
                witnesses.append((chk.row_i, chk.row_j))
        assert len(witnesses) >= 150
        assert sum(i < j for i, j in witnesses) >= 100
        assert sum(i > 0 for i, _ in witnesses) >= 30

    def test_mirrored_pair_is_reported_above_the_diagonal(self):
        # rows 2 and 3 anticommute at shift 1, entries (2,3) and (3,2) only
        s = stab(
            2,
            [
                (["0", "1"], ["0", "0"]),
                (["1", "0"], ["0", "0"]),
                (["0", "0"], ["D", "0"]),
            ],
        )
        chk = check_symplectic(s)
        assert (chk.ok, chk.row_i, chk.row_j, chk.value) == (False, 1, 2, L("D^-1"))
        assert chk == reference_symplectic(s)


class TestParams:
    def test_rate_third(self):
        p = params(rate_third_code())
        assert (p.n, p.k, p.r, p.memory) == (3, 1, 2, 1)

    def test_constant_matrix(self):
        s = stab(2, [(["0", "0"], ["1", "1"])])
        assert params(s).memory == 0

    def test_span_three(self):
        s = stab(2, [(["D^3+1", "0"], ["0", "1"])])
        assert params(s).memory == 3


class TestFromF4:
    def test_rate_third_exact_image(self):
        assert from_f4(rate_third_f4_rows()) == rate_third_code()

    def test_unit_entry(self):
        g = [[F4Poly(L("1"), LaurentPoly.zero())]]
        s = from_f4(g)
        assert (s.x[0][0], s.z[0][0]) == (L("1"), LaurentPoly.zero())
        assert (s.x[1][0], s.z[1][0]) == (LaurentPoly.zero(), L("1"))

    def test_omega_entry(self):
        g = [[F4Poly(LaurentPoly.zero(), L("1"))]]
        s = from_f4(g)
        assert (s.x[0][0], s.z[0][0]) == (LaurentPoly.zero(), L("1"))
        assert (s.x[1][0], s.z[1][0]) == (L("1"), L("1"))

    def test_even_row_count_and_hermitian_oracle(self):
        rng = random.Random(501)
        for _ in range(80):
            rows = random_f4_rows(rng, rng.randint(1, 2), rng.randint(1, 3))
            if any(all(t.is_zero() for t in row) for row in rows):
                continue
            s = from_f4(rows)
            assert s.r == 2 * len(rows)
            assert bool(check_symplectic(s)) == f4_self_orthogonal(rows)


class TestUnroll:
    def test_two_block_generator(self):
        s = stab(1, [(["0"], ["1+D"])])
        w = unroll(s, 3)
        assert w.placements == ((0, 0), (0, 1))
        assert to_sides(bits_of(w, 0, 0), 1, 3) == ("000", "110")
        assert to_sides(bits_of(w, 0, 1), 1, 3) == ("000", "011")
        assert w.origin_shift == 0

    def test_rate_third_window(self):
        s = rate_third_code()
        w = unroll(s, 4)
        assert len(w.rows) == 2 * (4 - 1)
        half = 3 * 4
        for i in range(len(w.rows)):
            for j in range(len(w.rows)):
                assert window_inner(w.rows[i], w.rows[j], half) == 0

    def test_tight_window_single_placement(self):
        s = rate_third_code()
        m = params(s).memory
        w = unroll(s, m + 1)
        assert len(w.rows) == s.r

    def test_window_too_small(self):
        with pytest.raises(WindowTooSmallError):
            unroll(rate_third_code(), 1)

    def test_band_structure(self):
        s = rate_third_code()
        w = unroll(s, 5)
        for gen in range(s.r):
            for shift in range(1, 4):
                assert bits_of(w, gen, shift) == shifted_row(
                    bits_of(w, gen, shift - 1), s.n, 5
                )

    def test_shift_equivariance(self):
        s = rate_third_code()
        w4, w5 = unroll(s, 4), unroll(s, 5)
        small = {p: to_sides(b, 3, 4) for b, p in zip(w4.rows, w4.placements)}
        for bits, place in zip(w5.rows, w5.placements):
            if place in small:
                x5, z5 = to_sides(bits, 3, 5)
                assert (x5[:12], z5[:12]) == small[place]

    def test_negative_exponents_shift_origin(self):
        s = stab(1, [(["0"], ["D^-2+D^-1"])])
        w = unroll(s, 3)
        assert w.origin_shift == 2
        assert to_sides(bits_of(w, 0, 2), 1, 3) == ("000", "110")

    def test_truncated_placement(self):
        s = stab(1, [(["0"], ["1+D"])])
        bits = placement_bits(s, 3, 0, 2)
        assert to_sides(bits, 1, 3) == ("000", "001")


def shifted_row(bits: int, n: int, blocks: int) -> int:
    half = n * blocks
    mask = (1 << half) - 1
    x, z = bits & mask, bits >> half
    return ((x << n) & mask) | (((z << n) & mask) << half)


class TestValidation:
    def test_rate_third_valid(self):
        validate_code(rate_third_code())

    def test_rate_zero_rejected(self):
        s = stab(1, [(["0"], ["1+D"])])
        with pytest.raises(PreconditionError, match="r < n"):
            validate_code(s)

    def test_rank_deficient_rejected(self):
        s = stab(3, [(["0", "0", "0"], ["1+D", "0", "0"]),
                     (["0", "0", "0"], ["D+D^2", "0", "0"])])
        assert check_symplectic(s)
        assert not full_rank(s)
        with pytest.raises(PreconditionError, match="rank"):
            validate_code(s)

    def test_info_reports_selfduality_as_commutation(self, tmp_path):
        """`info` on seeded systematic codes, X = (I | 0), half of them with a
        mirrored leading Z block (Z_ji = Z_ij(1/D)): selfdual=ok exactly
        when that block is mirrored, exactly when symplectic=ok.  A code
        not in systematic form gets no selfdual field."""
        rng = random.Random(2207)

        def entry() -> LaurentPoly:
            return LaurentPoly(rng.randint(-2, 1), rng.getrandbits(3))

        seen = set()
        for k in range(60):
            n = rng.randint(2, 4)
            r = rng.randint(1, n)
            x = [[LaurentPoly.one() if c == i else L_ZERO for c in range(n)] for i in range(r)]
            z = [[entry() for _ in range(n)] for _ in range(r)]
            if k % 2 == 0:
                for i in range(r):
                    f = entry()
                    z[i][i] = f + f.reciprocal() + LaurentPoly(0, rng.getrandbits(1))
                    for j in range(i):
                        z[i][j] = z[j][i].reciprocal()
            s = StabilizerMatrix.from_rows(n, x, z)
            assert is_systematic(s)
            mirrored = all(z[i][j].reciprocal() == z[j][i] for i in range(r) for j in range(r))
            path = tmp_path / f"code{k}.stab"
            path.write_text(format_stabilizer(s), encoding="utf-8")
            out = io.StringIO()
            main(["info", str(path)], out=out)
            fields = out.getvalue().splitlines()[0].split()
            selfdual = [f for f in fields if f.startswith("selfdual=")]
            assert selfdual == ["selfdual=ok" if mirrored else "selfdual=violated"]
            assert ("symplectic=ok" in fields) == mirrored
            seen.add(mirrored)
        assert seen == {True, False}

        assert not is_systematic(rate_third_code())
        path = tmp_path / "rate_third.stab"
        path.write_text(format_stabilizer(rate_third_code()), encoding="utf-8")
        out = io.StringIO()
        assert main(["info", str(path)], out=out) == 0
        assert "selfdual=" not in out.getvalue()

    def test_symplectic_iff_window_commutes(self):
        # cross-validation of the polynomial and binary semantics
        s = rate_third_code()
        m = params(s).memory
        for blocks in range(m + 1, m + 7):
            assert window_commutes(s, blocks)
        bad = stab(
            3,
            [
                (["1+D", "0", "1+D"], ["0", "D", "D"]),
                (["0", "D", "D"], ["1+D", "1+D", "1"]),
            ],
        )
        assert not check_symplectic(bad)
        assert not window_commutes(bad, params(bad).memory + 4)


def _parity_rank(s: StabilizerMatrix) -> int:
    """Rank over GF(2) of S(1), by elimination on 0/1 lists."""
    rows = [[e.bits.bit_count() & 1 for e in list(s.x[i]) + list(s.z[i])] for i in range(s.r)]
    rank = 0
    for c in range(2 * s.n):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                rows[i] = [a ^ b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


class TestRankCertificate:
    """full_rank takes rank r of S(1) over GF(2) as proof of full rank and
    asks smith only when S(1) falls short."""

    def test_agrees_with_smith_rank(self):
        rng = random.Random(907)
        seen = {"certified": 0, "singular at 1, full rank": 0, "deficient": 0}
        for _ in range(300):
            n = rng.randint(1, 4)
            r = rng.randint(1, 3)
            x, z = (random_laurent_matrix(rng, r, n, max_deg=2) for _ in "xz")
            x, z = [list(row) for row in x], [list(row) for row in z]
            if r > 1 and rng.random() < 0.3:
                # a multiple of another row: rank deficient
                f = LaurentPoly(rng.randint(-1, 1), rng.getrandbits(3) | 1)
                x[-1], z[-1] = [f * e for e in x[0]], [f * e for e in z[0]]
            s = StabilizerMatrix.from_rows(n, x, z)
            want = smith_rank([x[i] + z[i] for i in range(r)]) == r
            assert full_rank(s) == want
            if _parity_rank(s) == r:
                seen["certified"] += 1
            else:
                seen["singular at 1, full rank" if want else "deficient"] += 1
        assert min(seen.values()) > 20, seen

    def test_singular_at_one_falls_back_to_smith(self, monkeypatch):
        calls = []
        monkeypatch.setattr(stabilizer, "smith_rank", lambda m: calls.append(m) or smith_rank(m))
        # S(1) is zero: every entry has an even number of terms
        s = stab(2, [(["0", "0"], ["1+D", "0"])])
        assert full_rank(s)
        assert not full_rank(stab(2, [(["0", "0"], ["1+D", "D+D^2"]), (["0", "0"], ["1+D^2", "D+D^3"])]))
        assert len(calls) == 2

    def test_gate_built_code_validates_without_smith(self, monkeypatch):
        def refuse(m):
            raise AssertionError("smith_rank called")

        monkeypatch.setattr(stabilizer, "smith_rank", refuse)
        rng = random.Random(908)
        for _ in range(20):
            n = rng.randint(4, 8)
            base = z_only_identity_code(n, rng.randint(1, n - 1))
            validate_code(apply_circuit(base, random_circuit(rng, n, 60, max_off=3)))


class TestFileFormat:
    def test_round_trip(self):
        s = rate_third_code()
        assert parse_stabilizer(format_stabilizer(s)) == s

    def test_parse_with_comments(self):
        text = """
        # rate 1/3 example
        n=3 r=2
        row: 1+D, 1, 1+D | 0, D, D   # first generator
        row: 0, D, D | 1+D, 1+D, 1
        """
        assert parse_stabilizer(text) == rate_third_code()

    def test_f4_block(self):
        text = """
        f4 n=3
        row: 1 + D, 1 + w D, 1 + W D
        """
        assert parse_stabilizer(text) == rate_third_code()

    def test_parse_errors(self):
        for bad in [
            "",
            "n=3",
            "n=3 r=1\nrow: 1, 1, 1",
            "n=2 r=1\nrow: 1, 1 | 1",
            "n=1 r=1\nnot-a-row",
            "f4 n=2\nrow: q, 1",
        ]:
            with pytest.raises(ParseError):
                parse_stabilizer(bad)
