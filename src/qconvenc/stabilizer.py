"""The stabilizer-matrix data model: construction, commutation validation,
the GF(4) import, generator placements in finite binary windows, and the
stabilizer file format.

A code on n qubit streams with r generator rows is S(D) = (X(D) | Z(D)),
row i holding the polynomial pair of generator i.  A placement is one
generator shifted by t blocks inside a window of N blocks, in (x|z) bit
layout, qubit position p = block*n + stream, x bits first; coordinates
outside the window are dropped.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

from .errors import ParseError, PreconditionError
from .matrix import Matrix, Record, freeze, unchecked
from .poly import LaurentPoly, L_ZERO, _check_span, _exponent, parse_int, parse_poly
from .smith import smith_rank


class StabilizerMatrix(Record):
    """S(D) = (X(D) | Z(D)): r rows of n Laurent polynomials on each side."""

    _fields = ("n", "r", "x", "z")

    def __new__(cls, n: int, r: int, x: Matrix, z: Matrix) -> StabilizerMatrix:
        if n < 1 or r < 1:
            raise ValueError("need at least one qubit stream and one generator")
        for part in (x, z):
            if len(part) != r or any(len(row) != n for row in part):
                raise ValueError("X and Z parts must both be r x n")
        return unchecked(cls, {"n": n, "r": r, "x": x, "z": z})

    @classmethod
    def from_rows(
        cls,
        n: int,
        x_rows: Sequence[Sequence[LaurentPoly]],
        z_rows: Sequence[Sequence[LaurentPoly]],
    ) -> "StabilizerMatrix":
        return cls(n=n, r=len(x_rows), x=freeze(x_rows), z=freeze(z_rows))

    def __str__(self) -> str:
        return format_stabilizer(self)


class CodeParams(NamedTuple):
    n: int
    k: int
    r: int
    memory: int


def params(s: StabilizerMatrix) -> CodeParams:
    """Code parameters; memory is the joint exponent span of all entries."""
    entries = [e for part in (s.x, s.z) for row in part for e in row if e.bits]
    memory = 0
    if entries:
        top = max(e.offset + e.bits.bit_length() for e in entries)
        memory = top - 1 - min(e.offset for e in entries)
    return CodeParams(n=s.n, k=s.n - s.r, r=s.r, memory=memory)


class SymplecticCheck(NamedTuple):
    ok: bool
    row_i: int = -1
    row_j: int = -1
    value: LaurentPoly = L_ZERO

    def __bool__(self) -> bool:
        return self.ok


def check_symplectic(s: StabilizerMatrix) -> SymplecticCheck:
    """Evaluate X(D) Z(1/D)^t + Z(D) X(1/D)^t exactly.

    On failure returns the first offending (i, j) entry in row-major order
    and its value.  Entry (j, i) is entry (i, j) under D -> 1/D, so that
    entry lies on or above the diagonal and only j >= i is scanned.
    """
    x_rec = [[e.reciprocal() for e in row] for row in s.x]
    z_rec = [[e.reciprocal() for e in row] for row in s.z]
    for i in range(s.r):
        for j in range(i, s.r):
            acc = L_ZERO
            for c in range(s.n):
                acc = acc + s.x[i][c] * z_rec[j][c]
                acc = acc + s.z[i][c] * x_rec[j][c]
            if not acc.is_zero():
                return SymplecticCheck(False, i, j, acc)
    return SymplecticCheck(True)


def rank_at_one(s: StabilizerMatrix) -> int:
    """Rank over GF(2) of S(1), each entry the parity of its terms: a lower
    bound on the rank over the rational function field, since an r x r
    minor that is 1 at D = 1 is a nonzero Laurent polynomial."""
    # each basis vector lacks the leading bits of those before it, so one
    # pass in order clears them all from a vector of their span
    basis: list[int] = []
    for row_x, row_z in zip(s.x, s.z):
        v = 0
        for c, e in enumerate((*row_x, *row_z)):
            v |= (e.bits.bit_count() & 1) << c
        for b in basis:
            v = min(v, v ^ b)
        if v:
            basis.append(v)
    return len(basis)


def full_rank(s: StabilizerMatrix) -> bool:
    """Full rank over the rational function field.  Rank r at D = 1 proves
    it (`rank_at_one`); otherwise smith decides."""
    if rank_at_one(s) == s.r:
        return True
    return smith_rank([list(s.x[i]) + list(s.z[i]) for i in range(s.r)]) == s.r


def validate_code(s: StabilizerMatrix) -> None:
    """Structural preconditions for a usable code; raises PreconditionError."""
    if s.r >= s.n:
        raise PreconditionError(
            f"r < n violated: r={s.r}, n={s.n} gives rate zero"
        )
    chk = check_symplectic(s)
    if not chk:
        raise PreconditionError(
            f"commutation violated at entry ({chk.row_i + 1},{chk.row_j + 1}): {chk.value}",
            witness=(chk.row_i, chk.row_j, chk.value),
        )
    if not full_rank(s):
        raise PreconditionError("generator matrix is rank deficient")


def is_systematic(s: StabilizerMatrix) -> bool:
    """X part equal to (I | 0); never when r > n, which leaves no room for I."""
    if s.r > s.n:
        return False
    for i in range(s.r):
        for c in range(s.n):
            want = LaurentPoly.one() if i == c else L_ZERO
            if s.x[i][c] != want:
                return False
    return True


# ---------------------------------------------------------------------------
# GF(4) import


class F4Poly(NamedTuple):
    """A GF(4) polynomial written as a + w*b with binary Laurent parts."""

    a: LaurentPoly
    b: LaurentPoly

    def is_zero(self) -> bool:
        return self.a.is_zero() and self.b.is_zero()


def f4_omega_times(t: F4Poly) -> F4Poly:
    # w*(a + w b) = b + w(a + b)  since w^2 = 1 + w
    return F4Poly(t.b, t.a + t.b)


def from_f4(g: Sequence[Sequence[F4Poly]]) -> StabilizerMatrix:
    """Binary image of a GF(4)-linear generator matrix.

    Each row g contributes the images of g and w*g under a + w*b -> (x=a|z=b).
    Validity (self-orthogonality) is checked downstream.
    """
    if not g or not g[0]:
        raise ValueError("empty GF(4) generator matrix")
    n = len(g[0])
    x_rows: list[list[LaurentPoly]] = []
    z_rows: list[list[LaurentPoly]] = []
    for row in g:
        if len(row) != n:
            raise ValueError("ragged GF(4) generator matrix")
        x_rows.append([t.a for t in row])
        z_rows.append([t.b for t in row])
        wrow = [f4_omega_times(t) for t in row]
        x_rows.append([t.a for t in wrow])
        z_rows.append([t.b for t in wrow])
    return StabilizerMatrix.from_rows(n, x_rows, z_rows)


# ---------------------------------------------------------------------------
# finite windows


def row_patterns(s: StabilizerMatrix) -> tuple[Optional[tuple[int, int, int, int]], ...]:
    """Per row: (lo, hi, x, z) with the row's x and z bits laid out from
    block lo upward, qubit position (e - lo)*n + column; None if empty.
    Each row's envelope is checked against the span limit in force before
    the row is packed.  Nothing is kept on `s`: a caller that reads the
    patterns more than once holds them itself."""
    n = s.n
    patterns = []
    for row_x, row_z in zip(s.x, s.z):
        entries = [e for e in (*row_x, *row_z) if e.bits]
        if not entries:
            patterns.append(None)
            continue
        lo = min([e.offset for e in entries])
        hi = max([e.offset + e.bits.bit_length() for e in entries]) - 1
        _check_span(hi - lo)
        sides = []
        for row in (row_x, row_z):
            bits = 0
            for c, e in enumerate(row):
                body = e.bits
                if body:
                    at = (e.offset - lo) * n + c
                    while body:
                        low = body & -body
                        bits |= 1 << at + (low.bit_length() - 1) * n
                        body ^= low
            sides.append(bits)
        patterns.append((lo, hi, *sides))
    return tuple(patterns)


def placement_bits(s: StabilizerMatrix, blocks: int, gen: int, shift: int) -> Optional[int]:
    """Bits of generator `gen` shifted by `shift` in a window of `blocks`
    blocks, out-of-window coordinates dropped; None when none is left."""
    pattern = row_patterns(s)[gen]
    if pattern is None:
        return None
    lo, _, x, z = pattern
    half = s.n * blocks
    at = (shift + lo) * s.n
    x, z = (x << at, z << at) if at >= 0 else (x >> -at, z >> -at)
    window = (1 << half) - 1
    x, z = x & window, z & window
    if not x | z:
        return None
    return x | z << half


# ---------------------------------------------------------------------------
# file format


def _strip_comments(text: str) -> list[str]:
    return [line for raw in text.splitlines() if (line := raw.partition("#")[0].strip())]


def _parse_header(line: str, keys: tuple[str, ...]) -> dict[str, int]:
    fields = line.split()
    if len(fields) != len(keys):
        raise ParseError(f"bad header line {line!r}")
    out = {}
    for field, key in zip(fields, keys):
        if not field.startswith(key + "="):
            raise ParseError(f"expected {key}=<int> in header, got {field!r}")
        try:
            out[key] = parse_int(field[len(key) + 1 :])
        except ValueError:
            raise ParseError(f"bad integer in header field {field!r}") from None
    return out


def _split_row(line: str) -> str:
    if not line.startswith("row:"):
        raise ParseError(f"expected row line, got {line!r}")
    return line[4:]


_F4_COEFFS = {"1": (1, 0), "w": (0, 1), "W": (1, 1)}
_F4_ERRORS = ("bad GF(4) term {!r}", "bad exponent in GF(4) term {!r}")


def _parse_f4_entry(text: str) -> F4Poly:
    """One GF(4) entry a + w*b: "0", or terms of the polynomial grammar, each
    after an optional coefficient 1, w or W.  A coefficient alone stands
    for itself times D^0; after one, only D and D^k are read."""
    squeezed = "".join(text.split())
    if not squeezed:
        raise ParseError("empty GF(4) entry")
    parts: tuple[list[int], list[int]] = ([], [])
    for term in squeezed.split("+"):
        if term == "0":
            continue
        coeff = _F4_COEFFS.get(term[:1])
        monomial = term[1:] if coeff else term
        if monomial in ("0", "1") or not (coeff or monomial):
            raise ParseError(_F4_ERRORS[0].format(term))
        exp = _exponent(monomial or "1", term, _F4_ERRORS)
        for part, bit in zip(parts, coeff or (1, 0)):
            if bit:
                part.append(exp)
    return F4Poly(*map(LaurentPoly.from_exponents, parts))


def parse_stabilizer(text: str) -> StabilizerMatrix:
    """Parse the stabilizer file format (binary rows or an F4 block)."""
    lines = _strip_comments(text)
    if not lines:
        raise ParseError("empty stabilizer file")
    header = lines[0]
    try:
        if header.startswith("f4"):
            info = _parse_header(header[2:].strip(), ("n",))
            n = info["n"]
            rows = []
            for line in lines[1:]:
                entries = _split_row(line).split(",")
                if len(entries) != n:
                    raise ParseError(f"expected {n} GF(4) entries, got {len(entries)}")
                rows.append([_parse_f4_entry(e) for e in entries])
            if not rows:
                raise ParseError("f4 block has no rows")
            return from_f4(rows)
        info = _parse_header(header, ("n", "r"))
        n, r = info["n"], info["r"]
        if len(lines) - 1 != r:
            raise ParseError(f"expected {r} rows, found {len(lines) - 1}")
        x_rows = []
        z_rows = []
        for line in lines[1:]:
            # whitespace is ignored, so the row drops it once for its entries
            halves = "".join(_split_row(line).split()).split("|")
            if len(halves) != 2:
                raise ParseError(f"row needs one '|' separator: {line!r}")
            xs = halves[0].split(",")
            zs = halves[1].split(",")
            if len(xs) != n or len(zs) != n:
                raise ParseError(f"expected {n} polynomials per side: {line!r}")
            # most entries are zero
            x_rows.append(tuple([L_ZERO if p == "0" else parse_poly(p) for p in xs]))
            z_rows.append(tuple([L_ZERO if p == "0" else parse_poly(p) for p in zs]))
        return StabilizerMatrix.from_rows(n, x_rows, z_rows)
    except ParseError:
        raise
    except ValueError as exc:
        # shape violations from construction are file-level problems
        raise ParseError(str(exc)) from None


def format_stabilizer(s: StabilizerMatrix) -> str:
    lines = [f"n={s.n} r={s.r}"]
    for i in range(s.r):
        xs = ", ".join(str(e) for e in s.x[i])
        zs = ", ".join(str(e) for e in s.z[i])
        lines.append(f"row: {xs} | {zs}")
    return "\n".join(lines) + "\n"


def format_sides(s: StabilizerMatrix) -> str:
    """Readable (X | Z) block display; `--checkpoints` prints one per mark
    (`synthesis.format_checkpoints`)."""
    cells = []
    for i in range(s.r):
        cells.append([str(e) for e in s.x[i]] + ["|"] + [str(e) for e in s.z[i]])
    widths = [max(len(row[j]) for row in cells) for j in range(len(cells[0]))]
    lines = []
    for row in cells:
        lines.append("[ " + "  ".join(c.rjust(w) for c, w in zip(row, widths)) + " ]")
    return "\n".join(lines)
