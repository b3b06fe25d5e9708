"""Shared fixtures and independent oracles for the test suite."""

from __future__ import annotations

import argparse
import importlib.util
import random
import re
import signal
import sys

from dataclasses import dataclass
from functools import cache
from itertools import islice, repeat
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence

from qconvenc import verify
from qconvenc.cli import cmd_info, cmd_synth, cmd_verify
from qconvenc.errors import ParseError, WindowTooSmallError
from qconvenc.gates import (
    _FIELDS,
    CNOT,
    COLUMN_ACTIONS,
    CSIGN,
    Circuit,
    Gate,
    GateTemplate,
    H,
    P,
    PL,
    _circuit,
    _template,
    act,
    act_gate,
    apply,
    apply_circuit,
    reverse,
)
from qconvenc.matrix import Matrix, freeze, thaw
from qconvenc.poly import L_ONE, L_ZERO, LaurentPoly, Poly, _check_span, _divmod_bits
from qconvenc.smith import ElementaryColOp, SmithDecomposition, apply_col_op, smith_rank
from qconvenc.stabilizer import (
    F4Poly,
    StabilizerMatrix,
    SymplecticCheck,
    _parse_header,
    _split_row,
    from_f4,
    params,
    parse_stabilizer,
    placement_bits,
)
from qconvenc.synthesis import synthesize
from qconvenc.verify import (
    PauliVector,
    PropagationReport,
    _batch_lanes,
    _conjugate_lanes,
    _lane_bytes,
    _lane_masks,
    _slices,
    conjugate,
)

ROOT = Path(__file__).resolve().parent.parent

_INTEGER = re.compile(r"\s*[+-]?[0-9]+\s*", re.ASCII)


def reference_int(text: str) -> int:
    """A decimal integer as every reader takes it: an optional sign and
    ASCII digits, ASCII whitespace around them allowed (as `int` allows
    it), no digit separators; ValueError otherwise."""
    if not _INTEGER.fullmatch(text):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


# the argparse parser the command line had before `cli` read it from its
# command table: the oracle of tests/test_cli.py's differential test
@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it as it
    was, so in-process callers reuse it."""
    parser = argparse.ArgumentParser(
        prog="qconvenc",
        description=(
            "Compile quantum convolutional stabilizer codes into "
            "shift-invariant finite-depth Clifford encoders, and verify them "
            "on finite windows."
        ),
    )
    parser.add_argument(
        "--max-span",
        metavar="INT",
        help="exponent span limit for polynomial arithmetic",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="synthesize an encoder circuit")
    p_synth.add_argument("input", help="stabilizer file")
    p_synth.add_argument("--out", help="write the encoder circuit to this path")
    p_synth.add_argument(
        "--checkpoints",
        action="store_true",
        help="print the matrix after each reduction step",
    )
    p_synth.set_defaults(func=cmd_synth)

    p_verify = sub.add_parser("verify", help="verify a circuit against a code")
    p_verify.add_argument("stabilizer", help="stabilizer file")
    p_verify.add_argument("circuit", help="circuit file")
    p_verify.add_argument(
        "--windows",
        default="5,10,20",
        metavar="CSV",
        help="comma-separated window sizes (default 5,10,20)",
    )
    p_verify.set_defaults(func=cmd_verify)

    p_info = sub.add_parser("info", help="print code parameters and checks")
    p_info.add_argument("input", help="stabilizer file")
    p_info.set_defaults(func=cmd_info)
    return parser


def exponent_sum(exps: Iterable[int]) -> LaurentPoly:
    """The sum of D^e over `exps`, built without `LaurentPoly.from_exponents`:
    repeated exponents cancel in a set, the survivors' span is checked,
    and their bits go through the public constructor."""
    survivors: set[int] = set()
    for e in exps:
        survivors.symmetric_difference_update({e})
    if not survivors:
        return LaurentPoly.zero()
    lo = min(survivors)
    # check before building the bits, which take memory of the span
    _check_span(max(survivors) - lo)
    return LaurentPoly(lo, sum(1 << e - lo for e in survivors))


def parse_terms(text: str) -> list[int]:
    """Parse the polynomial grammar into a list of exponents (with repeats)."""
    squeezed = "".join(text.split())
    if not squeezed:
        raise ParseError("empty polynomial")
    exps: list[int] = []
    for term in squeezed.split("+"):
        if term == "0":
            continue
        if term == "1":
            exps.append(0)
        elif term == "D":
            exps.append(1)
        elif term.startswith("D^"):
            try:
                exps.append(reference_int(term[2:]))
            except ValueError:
                raise ParseError(f"bad exponent in term {term!r}") from None
        else:
            raise ParseError(f"bad polynomial term {term!r}")
    return exps


def parse_laurent(text: str) -> LaurentPoly:
    """The reference reading of one polynomial: its exponents, then
    `exponent_sum`."""
    return exponent_sum(parse_terms(text))


L = parse_laurent


def body_of(p: LaurentPoly) -> Poly:
    """The offset-stripped polynomial part (constant term 1 unless zero)."""
    return Poly(p.bits)


def lrow(*texts: str) -> list[LaurentPoly]:
    return [L(t) for t in texts]


def stab(n: int, rows: list[tuple[list[str], list[str]]]) -> StabilizerMatrix:
    x_rows = [[L(t) for t in xs] for xs, _ in rows]
    z_rows = [[L(t) for t in zs] for _, zs in rows]
    return StabilizerMatrix.from_rows(n, x_rows, z_rows)


def rate_third_code() -> StabilizerMatrix:
    """The rate-1/3 GF(4) convolutional code's stabilizer matrix."""
    return stab(
        3,
        [
            (["1+D", "1", "1+D"], ["0", "D", "D"]),
            (["0", "D", "D"], ["1+D", "1+D", "1"]),
        ],
    )


# the rate-1/3 code's GF(4) row, with spaces inside its terms
RATE_THIRD_F4 = """\
f4 n=3
row: 1 + D, 1 + w D, 1 + W D
"""


def rate_third_f4_rows() -> list[list[F4Poly]]:
    one = L("1")
    d = L("D")
    zero = LaurentPoly.zero()
    return [
        [
            F4Poly(L("1+D"), zero),  # 1 + D
            F4Poly(one, d),          # 1 + w D
            F4Poly(L("1+D"), d),     # 1 + W D  (W = 1 + w)
        ]
    ]


# -- arithmetic used only by the tests ------------------------------------------


def outcome(f, *args):
    """("ok", value) or (exception type, message)."""
    try:
        return "ok", f(*args)
    except Exception as exc:
        return type(exc), str(exc)


class CallTimedOut(BaseException):
    """A call ran past its time bound.  Not an `Exception`, so no handler
    for a failure of the call (synthesis defers those to validation) can
    take it for one."""


def bounded(seconds: float, f, *args):
    """`f(*args)`, stopped by a real-time alarm after `seconds`."""

    def expire(signum, frame):
        raise CallTimedOut(f"{getattr(f, '__name__', f)}{args} ran past {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return f(*args)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def reference_laurent_divmod(a: LaurentPoly, b: LaurentPoly) -> tuple[LaurentPoly, LaurentPoly]:
    """Euclidean division of Laurent polynomials, every divisor alike: both
    parts come from the body division and go through the constructor,
    quotient first."""
    if b.bits == 0:
        raise ZeroDivisionError("division by zero Laurent polynomial")
    if a.bits == 0:
        return L_ZERO, L_ZERO
    q_bits, r_bits = _divmod_bits(a.bits, b.bits)
    return LaurentPoly(a.offset - b.offset, q_bits), LaurentPoly(a.offset, r_bits)


def divides(a: Poly, b: Poly) -> bool:
    """Does a divide b in GF(2)[D]?"""
    if a.is_zero():
        return b.is_zero()
    return (b % a).is_zero()


def _gcd_bits(a: int, b: int) -> int:
    while b:
        a, b = b, _divmod_bits(a, b)[1]
    return a


def poly_gcd(a: Poly, b: Poly) -> Poly:
    return Poly(_gcd_bits(a.bits, b.bits))


class RationalFn:
    """A reduced fraction of GF(2) polynomials; zero is canonically 0/1."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly):
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero():
            num, den = Poly.zero(), Poly.one()
        else:
            g = poly_gcd(num, den)
            if g.degree > 0:
                num, den = num // g, den // g
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RationalFn is immutable")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RationalFn)
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self) -> int:
        return hash(("RationalFn", self.num.bits, self.den.bits))

    def is_laurent(self) -> bool:
        """True when the denominator is a monomial D^k."""
        return self.den.bits & (self.den.bits - 1) == 0

    def __str__(self) -> str:
        if self.den == Poly.one():
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self) -> str:
        return f"RationalFn({self})"


def xgcd(a: Poly, b: Poly) -> tuple[Poly, Poly, Poly]:
    """Extended gcd: returns (g, u, v) with u*a + v*b = g.

    Over GF(2) the gcd is automatically monic; raises when both inputs are
    zero.
    """
    if a.is_zero() and b.is_zero():
        raise ZeroDivisionError("xgcd of two zero polynomials")
    r0, r1 = a, b
    u0, u1 = Poly.one(), Poly.zero()
    v0, v1 = Poly.zero(), Poly.one()
    while not r1.is_zero():
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        u0, u1 = u1, u0 + q * u1
        v0, v1 = v1, v0 + q * v1
    return r0, u0, v0


def series_head(r: RationalFn, count: int) -> tuple[int, ...]:
    """First `count` coefficients of the power-series expansion of r.

    Requires the denominator to have a nonzero constant term.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    if r.den.coeff(0) == 0:
        raise ValueError("expansion is not a power series: denominator constant term is zero")
    state = r.num.bits
    den = r.den.bits
    out = []
    for _ in range(count):
        c = state & 1
        if c:
            state ^= den
        state >>= 1
        out.append(c)
    return tuple(out)


def identity(n: int) -> Matrix:
    return tuple(
        tuple(L_ONE if i == j else L_ZERO for j in range(n)) for i in range(n)
    )


def zeros(r: int, n: int) -> Matrix:
    return tuple(tuple(L_ZERO for _ in range(n)) for _ in range(r))


def mat_mul(a, b) -> Matrix:
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    out = []
    for i in range(rows):
        row = []
        for j in range(cols):
            acc = L_ZERO
            for k in range(inner):
                acc = acc + a[i][k] * b[k][j]
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def det(m) -> LaurentPoly:
    """Exact determinant by Laplace expansion; fine at desk scale."""
    n = len(m)
    if n == 0:
        return L_ONE
    if any(len(row) != n for row in m):
        raise ValueError("determinant of a non-square matrix")
    if n == 1:
        return m[0][0]
    acc = L_ZERO
    for j in range(n):
        if m[0][j].is_zero():
            continue
        minor = [[m[i][c] for c in range(n) if c != j] for i in range(1, n)]
        acc = acc + m[0][j] * det(minor)
    return acc


def apply_col_ops(m, ops: Iterable[ElementaryColOp]) -> Matrix:
    """Apply column operations left to right; indices must be in bounds."""
    n = len(m[0]) if m else 0
    work = thaw(m)
    for op in ops:
        if not (0 <= op.i < n and 0 <= op.j < n):
            raise IndexError(f"column op index out of range: {op}")
        apply_col_op(work, op)
    return freeze(work)


def smith_a(dec: SmithDecomposition) -> Matrix:
    """A of A*Gamma*B == M, rebuilt from the row transcript: each row
    transform's inverse applied on the right, in order.  A swap or add of
    rows i, j is the same column operation on A."""
    a = thaw(identity(len(dec.gamma)))
    for op in dec.row_ops:
        if op.kind == "scale":
            for row in a:
                row[op.i] = row[op.i].shifted(-op.power)
        else:
            apply_col_op(a, ElementaryColOp(op.kind, op.i, op.j, op.f))
    return freeze(a)


def smith_b(dec: SmithDecomposition) -> Matrix:
    """B of A*Gamma*B == M: the column transcript composed in reverse, each
    operation being self-inverse over GF(2)."""
    n = len(dec.gamma[0]) if dec.gamma else 0
    return apply_col_ops(identity(n), reversed(dec.col_ops))


def apply_poly(
    s: StabilizerMatrix, kind: str, i: int, j: int, f: LaurentPoly
) -> tuple[StabilizerMatrix, list[GateTemplate]]:
    """Expand f into monomials and apply one elementary template per term.

    The net effect adds f on the forward column and reciprocal(f) on the
    backward column.
    """
    if kind not in (CNOT, CSIGN):
        raise ValueError("apply_poly expands CNOT or CSIGN templates")
    if f.is_zero():
        raise ValueError("apply_poly needs a nonzero polynomial")
    emitted = []
    for e in f.exponents():
        g = GateTemplate(kind, i, j, e)
        s = apply(s, g)
        emitted.append(g)
    return s, emitted


# -- GF(4) arithmetic oracle (independent of the package implementation) ----


def f4_add(s: F4Poly, t: F4Poly) -> F4Poly:
    return F4Poly(s.a + t.a, s.b + t.b)


def f4_mul(s: F4Poly, t: F4Poly) -> F4Poly:
    # (a1 + w b1)(a2 + w b2) with w^2 = 1 + w
    a = s.a * t.a + s.b * t.b
    b = s.a * t.b + s.b * t.a + s.b * t.b
    return F4Poly(a, b)


def f4_conj_recip(t: F4Poly) -> F4Poly:
    # conjugation w -> w^2 composed with D -> 1/D
    a = (t.a + t.b).reciprocal()
    b = t.b.reciprocal()
    return F4Poly(a, b)


def f4_hermitian(g1: list[F4Poly], g2: list[F4Poly]) -> F4Poly:
    acc = F4Poly(LaurentPoly.zero(), LaurentPoly.zero())
    for s, t in zip(g1, g2):
        acc = f4_add(acc, f4_mul(s, f4_conj_recip(t)))
    return acc


def f4_self_orthogonal(rows: list[list[F4Poly]]) -> bool:
    return all(
        f4_hermitian(rows[i], rows[j]).is_zero()
        for i in range(len(rows))
        for j in range(len(rows))
    )


def random_f4_rows(rng: random.Random, r: int, n: int, max_deg: int = 2) -> list[list[F4Poly]]:
    rows = []
    for _ in range(r):
        row = []
        for _ in range(n):
            row.append(
                F4Poly(
                    LaurentPoly(0, rng.getrandbits(max_deg + 1)),
                    LaurentPoly(0, rng.getrandbits(max_deg + 1)),
                )
            )
        rows.append(row)
    return rows


def random_laurent_matrix(rng: random.Random, r: int, n: int, max_deg: int = 3):
    return freeze(
        [
            [LaurentPoly(rng.randint(-1, 1), rng.getrandbits(max_deg + 1)) for _ in range(n)]
            for _ in range(r)
        ]
    )


# -- reference parsers and gate data ---------------------------------------------
#
# Direct readings that build every value the long way: a dict of fields per
# circuit line and the template checks in one fixed order; every stabilizer
# entry through `parse_laurent`; every row pattern from each term's
# exponent.  The package's one-pass parsers must agree with them, value or
# exception type and message.


def template_updates(g: GateTemplate) -> tuple[tuple[int, int, int, int, int], ...]:
    """Column updates (dst side, dst column, src side, src column, k) of a
    template: column dst += D^k * column src, columns 0-based."""
    cols = (g.i - 1, g.j - 1)
    return tuple(
        (dst_side, cols[dst], src_side, cols[src], sign * g.ell)
        for dst_side, dst, src_side, src, sign in COLUMN_ACTIONS[g.kind]
    )


def reference_template(kind: str, i: int, j: int = 0, ell: int = 0) -> GateTemplate:
    """A template after the constructor's checks, made one after another
    for every kind."""
    if kind not in COLUMN_ACTIONS:
        raise ValueError(f"unknown gate kind {kind!r}")
    if min((i, j) if kind in (CNOT, CSIGN) else (i,)) < 1:
        raise ValueError("qubit indices are 1-based")
    if kind in (H, P, PL) and j != 0:
        raise ValueError(f"{kind} takes a single qubit")
    if kind in (CNOT, CSIGN) and i == j:
        raise ValueError(f"{kind} needs two distinct qubit streams")
    if kind == PL and ell == 0:
        raise ValueError("PL requires a nonzero offset")
    if kind in (H, P) and ell != 0:
        raise ValueError(f"{kind} carries no offset")
    return _template(kind, i, j, ell)


def _reference_lines(text: str) -> list[str]:
    """Non-empty lines with comments and surrounding whitespace removed."""
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    return lines


def _take_int(fields: dict[str, str], key: str, line: str) -> int:
    if key not in fields:
        raise ParseError(f"missing {key}= in {line!r}")
    try:
        return reference_int(fields.pop(key))
    except ValueError:
        raise ParseError(f"bad integer for {key}= in {line!r}") from None


def reference_parse_circuit(text: str) -> Circuit:
    lines = _reference_lines(text)
    if not lines or not lines[0].startswith("n="):
        raise ParseError("circuit file must start with n=<int>")
    try:
        n = reference_int(lines[0][2:])
    except ValueError:
        raise ParseError(f"bad circuit header {lines[0]!r}") from None
    templates = []
    for line in lines[1:]:
        parts = line.split()
        kind = parts[0]
        fields = {}
        for part in parts[1:]:
            if "=" not in part:
                raise ParseError(f"bad field {part!r} in {line!r}")
            key, val = part.split("=", 1)
            if key in fields:
                raise ParseError(f"duplicate field {key}= in {line!r}")
            fields[key] = val
        try:
            if kind not in _FIELDS:
                raise ParseError(f"unknown gate {kind!r}")
            values = (_take_int(fields, key, line) if key else 0 for key in _FIELDS[kind])
            g = reference_template(kind, *values)
        except ValueError as exc:
            raise ParseError(f"bad template {line!r}: {exc}") from None
        if fields:
            raise ParseError(f"unexpected fields {sorted(fields)} in {line!r}")
        templates.append(g)
    try:
        return Circuit(n, tuple(templates))
    except ValueError as exc:
        raise ParseError(str(exc)) from None


F4_COEFFICIENTS = {"": (1, 0), "1": (1, 0), "w": (0, 1), "W": (1, 1)}


def reference_f4_entry(text: str) -> F4Poly:
    """One GF(4) entry a + w*b, term by term: "0", or an optional
    coefficient 1, w or W (1 when absent) followed by D or D^k, or a
    coefficient alone, which stands for itself times D^0; an empty term is
    bad.  Each part's exponents then go through `exponent_sum`, a's first."""
    squeezed = "".join(text.split())
    if not squeezed:
        raise ParseError("empty GF(4) entry")
    parts: tuple[list[int], list[int]] = ([], [])
    for term in squeezed.split("+"):
        if term == "0":
            continue
        coefficient = term[:1] if term[:1] in F4_COEFFICIENTS else ""
        monomial = term[len(coefficient):]
        if monomial == "D" or monomial == "" and coefficient:
            exponent = len(monomial)
        elif monomial.startswith("D^"):
            try:
                exponent = reference_int(monomial[2:])
            except ValueError:
                raise ParseError(f"bad exponent in GF(4) term {term!r}") from None
        else:
            raise ParseError(f"bad GF(4) term {term!r}")
        for part, bit in zip(parts, F4_COEFFICIENTS[coefficient]):
            if bit:
                part.append(exponent)
    return F4Poly(*map(exponent_sum, parts))


def reference_parse_stabilizer(text: str) -> StabilizerMatrix:
    lines = _reference_lines(text)
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
                rows.append([reference_f4_entry(e) for e in entries])
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
            body = _split_row(line)
            halves = body.split("|")
            if len(halves) != 2:
                raise ParseError(f"row needs one '|' separator: {line!r}")
            xs = halves[0].split(",")
            zs = halves[1].split(",")
            if len(xs) != n or len(zs) != n:
                raise ParseError(f"expected {n} polynomials per side: {line!r}")
            x_rows.append([parse_laurent(p) for p in xs])
            z_rows.append([parse_laurent(p) for p in zs])
        return StabilizerMatrix.from_rows(n, x_rows, z_rows)
    except ParseError:
        raise
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def row_envelope(s: StabilizerMatrix, i: int) -> Optional[tuple[int, int]]:
    """Lowest and highest exponent appearing in row i, or None if empty."""
    lo = hi = None
    for part in (s.x, s.z):
        for e in part[i]:
            if e.is_zero():
                continue
            lo = e.min_exp if lo is None else min(lo, e.min_exp)
            hi = e.max_exp if hi is None else max(hi, e.max_exp)
    if lo is None:
        return None
    return lo, hi


def reference_row_patterns(s: StabilizerMatrix) -> tuple:
    """Per row (lo, hi, x, z), x and z bits laid out from block lo upward at
    qubit position (e - lo)*n + column, or None for an empty row; the
    envelope is span-checked before any row is packed."""
    patterns = []
    for i in range(s.r):
        env = row_envelope(s, i)
        if env is None:
            patterns.append(None)
            continue
        lo, hi = env
        _check_span(hi - lo)
        sides = []
        for part in (s.x, s.z):
            bits = 0
            for c, e in enumerate(part[i]):
                for exp in e.exponents():
                    bits |= 1 << ((exp - lo) * s.n + c)
            sides.append(bits)
        patterns.append((lo, hi, *sides))
    return tuple(patterns)


# -- commutation oracles -------------------------------------------------------


def reference_symplectic(s: StabilizerMatrix) -> SymplecticCheck:
    """X(D) Z(1/D)^t + Z(D) X(1/D)^t over every (i, j) in row-major order,
    each reciprocal taken afresh: the first nonzero entry and its value."""
    for i in range(s.r):
        for j in range(s.r):
            acc = L_ZERO
            for c in range(s.n):
                acc = acc + s.x[i][c] * s.z[j][c].reciprocal()
                acc = acc + s.z[i][c] * s.x[j][c].reciprocal()
            if not acc.is_zero():
                return SymplecticCheck(False, i, j, acc)
    return SymplecticCheck(True)


@dataclass(frozen=True)
class UnrolledWindow:
    """Binary truncation of the semi-infinite stabilizer over N blocks.

    rows are ints in (x|z) layout of width 2*n*blocks; placements pair each
    row with its (generator, shift) label.  origin_shift is the lowest shift
    represented.
    """

    n: int
    blocks: int
    rows: tuple[int, ...]
    placements: tuple[tuple[int, int], ...]
    origin_shift: int


def unroll(s: StabilizerMatrix, blocks: int) -> UnrolledWindow:
    """All fully-contained generator shifts inside a window of N blocks."""
    m = params(s).memory
    if blocks < m + 1:
        raise WindowTooSmallError(f"window of {blocks} blocks < memory {m} + 1")
    rows: list[int] = []
    placements: list[tuple[int, int]] = []
    for gen in range(s.r):
        env = row_envelope(s, gen)
        if env is None:
            continue
        lo, hi = env
        for shift in range(-lo, blocks - hi):
            bits = placement_bits(s, blocks, gen, shift)
            assert bits is not None
            rows.append(bits)
            placements.append((gen, shift))
    origin = min((t for _, t in placements), default=0)
    return UnrolledWindow(
        n=s.n,
        blocks=blocks,
        rows=tuple(rows),
        placements=tuple(placements),
        origin_shift=origin,
    )


def window_inner(u: int, v: int, half: int) -> int:
    """Symplectic inner product of two (x|z) window rows."""
    mask = (1 << half) - 1
    ux, uz = u & mask, u >> half
    vx, vz = v & mask, v >> half
    return (int.bit_count(ux & vz) + int.bit_count(uz & vx)) & 1


def window_commutes(s: StabilizerMatrix, blocks: int) -> bool:
    """Brute-force pairwise commutation over the unrolled window."""
    w = unroll(s, blocks)
    half = s.n * blocks
    for i in range(len(w.rows)):
        for j in range(i, len(w.rows)):
            if window_inner(w.rows[i], w.rows[j], half):
                return False
    return True


# -- randomized code construction --------------------------------------------


def z_only_identity_code(n: int, r: int) -> StabilizerMatrix:
    """The trivial code with stabilizer (0 | I 0), which is also the subcode
    stabilizer S0 of any code with r rows on n streams."""
    eye = identity(n)
    return StabilizerMatrix.from_rows(
        n,
        zeros(r, n),
        freeze([list(eye[i]) for i in range(r)]),
    )


def random_template(rng: random.Random, n: int, max_off: int = 2) -> GateTemplate:
    kinds = [H, P, PL] if n < 2 else [H, P, PL, CNOT, CSIGN, CNOT, CSIGN]
    kind = rng.choice(kinds)
    ell = rng.randint(-max_off, max_off)
    if kind in (H, P):
        return GateTemplate(kind, rng.randint(1, n))
    if kind == PL:
        return GateTemplate(PL, rng.randint(1, n), 0, rng.randint(1, max_off))
    i, j = rng.sample(range(1, n + 1), 2)
    return GateTemplate(kind, i, j, ell)


def random_circuit(rng: random.Random, n: int, count: int, max_off: int = 2) -> Circuit:
    return Circuit(n, tuple(random_template(rng, n, max_off) for _ in range(count)))


def random_valid_code(
    rng: random.Random,
    max_n: int = 4,
    max_r: int = 3,
    max_gates: int = 12,
    max_off: int = 2,
) -> StabilizerMatrix:
    """A commuting full-rank code: random gates applied to a (0 | I 0) shape."""
    n = rng.randint(2, max_n)
    r = rng.randint(1, min(max_r, n - 1))
    base = z_only_identity_code(n, r)
    return apply_circuit(base, random_circuit(rng, n, rng.randint(0, max_gates), max_off))


def random_proper_code(rng: random.Random, n: int = 3, r: int = 2, max_gates: int = 12) -> StabilizerMatrix:
    """A commuting full-rank Z-only code (0 | diag(g_1..g_r) 0), each g_i of
    degree 2-4 with constant term 1, scrambled by random gates."""
    diag = [LaurentPoly(0, 1 << rng.randint(2, 4) | rng.getrandbits(3) << 1 | 1) for _ in range(r)]
    base = StabilizerMatrix.from_rows(
        n, zeros(r, n), [[diag[i] if c == i else L_ZERO for c in range(n)] for i in range(r)]
    )
    return apply_circuit(base, random_circuit(rng, n, rng.randint(0, max_gates)))


def invalid_mutants(rng: random.Random, s: StabilizerMatrix) -> dict[str, StabilizerMatrix]:
    """Four invalid variants of a valid code with r >= 2: "term", one term
    added to an entry, which breaks commutation; "multiple", a row replaced
    by D^k or D^k + D^(k+1) times another, which breaks rank; "both", the
    multiple and then the term; and "wide", multiples of rows appended until
    r = n."""

    def multiple(i: int) -> tuple[list[LaurentPoly], list[LaurentPoly]]:
        k = rng.randint(-2, 2)
        f = LaurentPoly.d(k) if rng.random() < 0.5 else LaurentPoly.from_exponents((k, k + 1))
        return [f * e for e in s.x[i]], [f * e for e in s.z[i]]

    out = {}
    for kind in ("term", "multiple", "both", "wide"):
        x, z = thaw(s.x), thaw(s.z)
        if kind in ("multiple", "both"):
            i, j = rng.sample(range(s.r), 2)
            x[i], z[i] = multiple(j)
        if kind in ("term", "both"):
            # a term on X[i][c] (Z[i][c]) breaks commutation with row j when
            # Z[j][c] (X[j][c]) is nonzero
            spots = [
                (side, i, c)
                for side, other in ((x, z), (z, x))
                for i in range(s.r)
                for c in range(s.n)
                if any(other[j][c] for j in range(s.r) if j != i)
            ]
            side, i, c = rng.choice(spots)
            lo, hi = row_envelope(StabilizerMatrix.from_rows(s.n, x, z), i) or (0, 0)
            side[i][c] = side[i][c] + LaurentPoly.d(rng.randint(lo, hi))
        if kind == "wide":
            for _ in range(s.n - s.r):
                row_x, row_z = multiple(rng.randrange(s.r))
                x.append(row_x)
                z.append(row_z)
        out[kind] = StabilizerMatrix.from_rows(s.n, x, z)
    return out


def mutate_one_entry(rng: random.Random, s: StabilizerMatrix) -> StabilizerMatrix:
    """Flip one coefficient of one entry, inside the row's exponent envelope."""
    i = rng.randrange(s.r)
    side = rng.choice(("x", "z"))
    c = rng.randrange(s.n)
    env = row_envelope(s, i)
    lo, hi = env if env is not None else (0, 0)
    e = rng.randint(lo, hi)
    flip = LaurentPoly.d(e)
    x = [list(row) for row in s.x]
    z = [list(row) for row in s.z]
    if side == "x":
        x[i][c] = x[i][c] + flip
    else:
        z[i][c] = z[i][c] + flip
    return StabilizerMatrix.from_rows(s.n, x, z)


# -- per-seed lane packing -----------------------------------------------------


def _pack(seeds: Sequence[tuple[int, int]], lane_bytes: int) -> tuple[int, int]:
    """(x, z) seed pairs packed one lane each, in order."""
    x, z = (
        int.from_bytes(b"".join(bits.to_bytes(lane_bytes, "little") for bits in part), "little")
        for part in zip(*seeds)
    )
    return x, z


def _lanes(side: int, lanes: int, lane_bytes: int) -> Iterator[int]:
    """The lanes of one packed side, in order."""
    packed = side.to_bytes(lanes * lane_bytes, "little")
    return map(int.from_bytes, _slices(packed, lane_bytes), repeat("little"))


def _lane_images(
    c: Circuit, blocks: int, seeds: Iterable[tuple[int, int]]
) -> Iterator[tuple[int, int]]:
    """Conjugate a stream of window seeds, each an (x, z) pair of n*blocks
    bits, yielding each image in order as the same kind of pair: the seeds
    are packed one lane each, a batch at a time, for the lane kernel
    `verify._conjugate_lanes`, all under the first batch's masks, as
    `verify._window_pass` runs it, on c's templates as one-term gates."""
    one_term = _circuit(c.n, [Gate(g.kind, g.i, g.j, (g.ell,)) for g in c.templates])
    lane_bytes = _lane_bytes(c, blocks)
    seeds = iter(seeds)
    masks = None
    while batch := list(islice(seeds, _batch_lanes(lane_bytes))):
        masks = masks or _lane_masks(c.n, blocks, lane_bytes, len(batch))
        x, z = _conjugate_lanes(one_term, masks, *_pack(batch, lane_bytes))
        yield from zip(_lanes(x, len(batch), lane_bytes), _lanes(z, len(batch), lane_bytes))


def watch_kernel(monkeypatch, watch) -> None:
    """Call `watch(c, blocks, lanes, x, z)` before each batch that the lane
    kernel `verify._conjugate_lanes` conjugates: blocks as the last
    `verify._lane_masks` call received it, lanes from the seeds' bit
    count (the top lane of a batch holds a seed)."""
    windows = []
    lane_masks, kernel = verify._lane_masks, verify._conjugate_lanes

    def masking(n, blocks, lane_bytes, lanes):
        windows.append(blocks)
        return lane_masks(n, blocks, lane_bytes, lanes)

    def recording(c, masks, x, z):
        blocks = windows[-1]
        lane_bits = 8 * _lane_bytes(c, blocks)
        watch(c, blocks, -(-max(x.bit_length(), z.bit_length()) // lane_bits), x, z)
        return kernel(c, masks, x, z)

    monkeypatch.setattr(verify, "_lane_masks", masking)
    monkeypatch.setattr(verify, "_conjugate_lanes", recording)


# -- window conjugation oracle ------------------------------------------------


def single_pauli(n: int, blocks: int, block: int, qubit: int, kind: str) -> PauliVector:
    """X, Z or Y at one qubit position (qubit is 1-based within the block)."""
    if not 0 <= block < blocks:
        raise ValueError(f"block {block} outside the window")
    if not 1 <= qubit <= n:
        raise ValueError(f"qubit {qubit} outside 1..{n}")
    pos = block * n + (qubit - 1)
    half = n * blocks
    bits = 0
    if kind in ("X", "Y"):
        bits |= 1 << pos
    if kind in ("Z", "Y"):
        bits |= 1 << (half + pos)
    if kind not in ("X", "Y", "Z"):
        raise ValueError(f"unknown Pauli kind {kind!r}")
    return PauliVector(n, blocks, bits)


def inner(p: PauliVector, q: PauliVector) -> int:
    if (p.n, p.blocks) != (q.n, q.blocks):
        raise ValueError("window mismatch")
    return window_inner(p.bits, q.bits, p.half)


def reference_conjugate(c: Circuit, blocks: int, p: PauliVector) -> PauliVector:
    """Gate-by-gate conjugation, one template instance per block shift;
    instances reaching outside the window are dropped (open boundary)."""
    n = c.n
    half = n * blocks
    bits = p.bits
    for g in c.templates:
        for t in range(blocks):
            if g.kind == H:
                a = t * n + (g.i - 1)
                xa, za = (bits >> a) & 1, (bits >> (half + a)) & 1
                if xa != za:
                    bits ^= (1 << a) | (1 << (half + a))
            elif g.kind == P:
                a = t * n + (g.i - 1)
                if (bits >> a) & 1:
                    bits ^= 1 << (half + a)
            elif g.kind == PL:
                tb = t + g.ell
                if not 0 <= tb < blocks:
                    continue
                a = t * n + (g.i - 1)
                b = tb * n + (g.i - 1)
                if (bits >> a) & 1:
                    bits ^= 1 << (half + b)
                if (bits >> b) & 1:
                    bits ^= 1 << (half + a)
            elif g.kind == CNOT:
                tb = t + g.ell
                if not 0 <= tb < blocks:
                    continue
                a = t * n + (g.i - 1)
                b = tb * n + (g.j - 1)
                if (bits >> a) & 1:
                    bits ^= 1 << b
                if (bits >> (half + b)) & 1:
                    bits ^= 1 << (half + a)
            else:  # CSIGN
                tb = t + g.ell
                if not 0 <= tb < blocks:
                    continue
                a = t * n + (g.i - 1)
                b = tb * n + (g.j - 1)
                if (bits >> a) & 1:
                    bits ^= 1 << (half + b)
                if (bits >> b) & 1:
                    bits ^= 1 << (half + a)
    return PauliVector(n, blocks, bits)


def reference_interior_max(c: Circuit, blocks: int, margin: int) -> int:
    """Max image support over X, Z and Y seeds at every interior qubit, each
    seed conjugated gate by gate on its own."""
    best = 0
    for block in range(margin, blocks - margin):
        for qubit in range(1, c.n + 1):
            for kind in ("X", "Z", "Y"):
                p = single_pauli(c.n, blocks, block, qubit, kind)
                best = max(best, reference_conjugate(c, blocks, p).support_size)
    return best


def reference_image_reach(c: Circuit) -> tuple[int, int]:
    """Backward and forward block reach of single-qubit X, Z and Y seed
    images, measured at the center of a window too wide for any clipping."""
    spread = sum(g.reach for g in c.templates)
    aux = 2 * spread + c.memory + 3
    center = aux // 2
    back = fwd = 0
    for qubit in range(1, c.n + 1):
        for kind in ("X", "Z", "Y"):
            img = conjugate(c, aux, single_pauli(c.n, aux, center, qubit, kind))
            for pos in img.support:
                blk = pos // c.n
                back = max(back, center - blk)
                fwd = max(fwd, blk - center)
    return back, fwd


def reference_prefix_reach(c: Circuit) -> int:
    """The prefix reach P: the furthest block offset, in either direction,
    of any term of the 2n unit X and Z seeds' polynomial images, with every
    one of their 4n^2 entries scanned after each template."""
    n = c.n
    x = [[L_ONE if q == j else L_ZERO for q in range(n)] for j in range(n)] + [[L_ZERO] * n for _ in range(n)]
    z = [[L_ZERO] * n for _ in range(n)] + [[L_ONE if q == j else L_ZERO for q in range(n)] for j in range(n)]
    reach = 0
    for g in c.templates:
        act(x, z, g)
        for e in (e for row in x + z for e in row if e.bits):
            reach = max(reach, -e.offset, e.offset + e.bits.bit_length() - 1)
    return reach


def reference_seed_walk(c: Circuit, streams: int = 0) -> tuple[int, int, int, int, list[tuple[int, int]]]:
    """`verify._seed_walk` on polynomial rows: the 2n unit seeds pushed
    template by template through `act`, P read off the columns each
    template of nonzero offset writes, and the images packed one int per
    row and side, column q at q times the images' common width, so that a
    support is a bit count."""
    n = c.n
    units = [[L_ONE if q == j else L_ZERO for q in range(n)] for j in range(n)]
    x = units + [[L_ZERO] * n for _ in range(n)]
    z = [[L_ZERO] * n for _ in range(n)] + [row.copy() for row in units]
    sides, reach = (x, z), 0
    for g in c.templates:
        act(x, z, g)
        if g.ell:
            cols = (g.i - 1, g.j - 1)
            for side, dst in verify._WRITTEN[g.kind]:
                for row in sides[side]:
                    e = row[cols[dst]]
                    if e.bits:
                        reach = max(reach, -e.offset, e.offset + e.bits.bit_length() - 1)
    # a body's bits n apart are its terms one block apart
    gap = "0" * (n - 1)
    z_images = [
        tuple(
            sum(
                int(gap.join(format(e.bits, "b")), 2) << (e.offset + reach) * n + j
                for j, e in enumerate(row)
                if e.bits
            )
            for row in (x[q], z[q])
        )
        for q in range(n, n + streams)
    ]
    entries = [e for row in x + z for e in row if e.bits]
    lo = min([e.offset for e in entries], default=0)
    hi = max([e.offset + e.bits.bit_length() for e in entries], default=1) - 1
    width = hi + 1 - lo
    px, pz = (
        [sum(e.bits << e.offset - lo + q * width for q, e in enumerate(row) if e.bits) for row in side]
        for side in (x, z)
    )
    # rows q and n + q are the images of qubit q's X and Z seeds, and its Y
    # image is their sum
    ys = [(px[q] ^ px[n + q], pz[q] ^ pz[n + q]) for q in range(n)]
    image_max = max((xs | zs).bit_count() for xs, zs in [*zip(px, pz), *ys])
    return max(0, -lo), max(0, hi), image_max, reach, z_images


def exact_round_trip(s: StabilizerMatrix, encoder: Circuit) -> Optional[str]:
    """The exact round-trip check: S's r rows, pushed through the gates of
    `reverse(encoder)` with `act_gate`, must come out as (0 | M 0) with the
    r x r block M of full rank.  None if they do, else a witness: the first
    nonzero X entry, then the first nonzero Z entry in columns r+1..n, or
    M's rank."""
    x, z = thaw(s.x), thaw(s.z)
    for g in reverse(encoder).gates:
        act_gate(x, z, g)
    for side, rows, start in (("X", x, 0), ("Z", z, s.r)):
        for i, row in enumerate(rows):
            col = next((col for col in range(start, s.n) if row[col].bits), None)
            if col is not None:
                return f"{side} entry ({i + 1},{col + 1}) = {row[col]}"
    rank = smith_rank([row[: s.r] for row in z])
    return None if rank == s.r else f"Z block rank {rank} < r = {s.r}"


def _regrouped(c: Circuit) -> Circuit:
    """c with each run of CNOT or CSIGN templates on the same streams as one
    gate, built term by term from its templates: the reference grouping of
    a parsed or constructed circuit."""
    runs = []
    for g in c.templates:
        if runs and g.kind in (CNOT, CSIGN) and runs[-1][:3] == (g.kind, g.i, g.j):
            runs[-1][3].append(g.ell)
        else:
            runs.append((g.kind, g.i, g.j, [g.ell]))
    return _circuit(c.n, [Gate(kind, i, j, tuple(ells)) for kind, i, j, ells in runs])


def ladder_encoders(n: int, count: int = 20, seed: int = 31) -> list[Circuit]:
    """The encoders `synthesize` makes for the first `count` ladder codes of
    the n-stream rung (`bench/corpus.ladder_code`), drawn from a fresh
    `random.Random(seed)`."""
    spec = importlib.util.spec_from_file_location("_bench_corpus", ROOT / "bench" / "corpus.py")
    corpus = sys.modules.get(spec.name)
    if corpus is None:
        # dataclasses look their module up in sys.modules
        corpus = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(corpus)
    rung = next(rung for rung in corpus.LADDER_RUNGS if rung[0] == n)
    rng = random.Random(seed)
    codes = [parse_stabilizer(corpus.ladder_code(rng, rung, "ladder").text) for _ in range(count)]
    return [synthesize(code).encoder for code in codes]


def edge_qubits(c: Circuit, blocks: int) -> list[int]:
    """The window qubits whose X and Z seeds `verify` conjugates, ascending:
    those at least memory m blocks from both edges, less those at least
    M = max(m, P) from both on a window of 2M + 1 blocks or more, whose
    images are the polynomial push's."""
    n, m = c.n, c.memory
    deep = max(m, reference_prefix_reach(c))
    inner = range(deep * n, (blocks - deep) * n) if blocks > 2 * deep else range(0)
    return [q for q in range(m * n, (blocks - m) * n) if q not in inner]


# -- catastrophic negative control ---------------------------------------------


def _chain_verdict(maxima: Sequence[int], bound: int) -> str:
    if maxima and maxima[-1] > bound:
        return "growing"
    if len(maxima) >= 2 and maxima[-1] != maxima[-2]:
        return "growing"
    return "bounded"


def cnot_chain_conjugate(p: PauliVector) -> PauliVector:
    """The sequential CNOT cascade over the whole window, one gate per
    neighboring qubit pair in ascending order.

    This is the catastrophic control: the cascade cannot be arranged as
    shift-invariant templates of finite depth, so it is applied directly at
    the window level.  An X spreads from its seed to the window edge.
    """
    half = p.half
    bits = p.bits
    for k in range(half - 1):
        if (bits >> k) & 1:
            bits ^= 1 << (k + 1)
        if (bits >> (half + k + 1)) & 1:
            bits ^= 1 << (half + k)
    return PauliVector(p.n, p.blocks, bits)


def chain_propagation_report(n: int, sizes: Sequence[int]) -> PropagationReport:
    """Propagation analysis of the sequential CNOT chain (margin 1).

    Seeds are X Paulis: the cascade's signature is the X that spreads from
    its seed all the way to the window edge.
    """
    sizes = tuple(sizes)
    margin = 1
    maxima = []
    for blocks in sizes:
        best = 0
        for block in range(margin, blocks - margin):
            for qubit in range(1, n + 1):
                img = cnot_chain_conjugate(single_pauli(n, blocks, block, qubit, "X"))
                best = max(best, img.support_size)
        maxima.append(best)
    bound = 2 * 1 + 1  # the chain pretends to be depth-1 with unit memory
    return PropagationReport(sizes, tuple(maxima), bound, _chain_verdict(maxima, bound), margin)


def csign_cascade() -> Circuit:
    """The offset-1 controlled-Z cascade: finite depth, support three."""
    return Circuit(1, (GateTemplate(PL, 1, 0, 1),))


# -- mutated goldens -----------------------------------------------------------

# characters the grammar and the file formats give a meaning to, and a few
# they do not
ALPHABET = "0123456789D^+-,|=:# \t\nwWxqctlofabnr"


def mutations(text: str, seed: int, count: int) -> Iterator[str]:
    """`count` texts, each `text` with one character replaced, deleted or
    inserted."""
    rng = random.Random(seed)
    for _ in range(count):
        at = rng.randrange(len(text) + 1)
        op = rng.randrange(3)
        c = rng.choice(ALPHABET)
        if op == 0 and at < len(text):
            yield text[:at] + c + text[at + 1 :]
        elif op == 1:
            yield text[:at] + text[at + 1 :]
        else:
            yield text[:at] + c + text[at:]


# -- divisor classification oracle --------------------------------------------


def reference_order_of_d(body: Poly) -> int:
    """Multiplicative order of D modulo a polynomial with constant term 1, by
    repeated multiplication and reduction with `Poly` arithmetic."""
    d = Poly.d()
    acc = d % body
    for e in range(1, 1 << body.degree):
        if acc == Poly.one():
            return e
        acc = (acc * d) % body
    raise AssertionError(f"no multiplicative order found for {body}")


def reference_period_series(body: int) -> tuple[int, tuple[int, ...]]:
    """The period of the power series of 1/body and its bits over one period,
    by long division one bit at a time.

    Each step emits the state's constant bit and multiplies the state by
    D^-1 modulo body, a permutation of the residues when body has constant
    term 1: the state, started at 1, comes back to 1 after exactly the
    multiplicative order of D, the period of the series."""
    if not body & 1:
        raise ZeroDivisionError(f"1/({Poly(body)}) is not a power series")
    state, out = 1, []
    while True:
        c = state & 1
        if c:
            state ^= body
        state >>= 1
        out.append(c)
        if state == 1:
            return len(out), tuple(out)


def divisor_bodies(seed: int = 4004) -> list[Poly]:
    """Every polynomial of degree 1 to 8 with constant term 1, then 100 seeded
    ones of degree 9 to 14: half drawn at random, half products f^e * g with
    a repeated factor f."""
    bodies = [Poly(b) for b in range(3, 1 << 9, 2)]
    rng = random.Random(seed)

    def draw(degree: int) -> Poly:
        return Poly((1 << degree) | rng.getrandbits(degree) | 1)

    while len(bodies) < 255 + 100:
        if len(bodies) % 2:
            body = draw(rng.randint(9, 14))
        else:
            f, e = draw(rng.randint(1, 4)), rng.randint(2, 3)
            g_degree = rng.randint(9, 14) - e * f.degree
            if g_degree < 0:
                continue
            body = draw(g_degree)
            for _ in range(e):
                body = body * f
        bodies.append(body)
    return bodies


# -- symmetric quotient oracle ------------------------------------------------


def _y_power(d: int) -> LaurentPoly:
    """(D + D^-1)^d, the degree-d power of the symmetric generator."""
    y = LaurentPoly.d(-1) + LaurentPoly.d(1)
    acc = LaurentPoly.one()
    for _ in range(d):
        acc = acc * y
    return acc


def _sym_to_y(s: LaurentPoly) -> Poly:
    """Write a symmetric Laurent polynomial as a polynomial in y = D + D^-1."""
    bits = 0
    while not s.is_zero():
        d = s.max_exp
        if d < 0 or s.reciprocal() != s:
            raise AssertionError(f"{s} is not symmetric")
        bits |= 1 << d
        s = s + _y_power(d)
    return Poly(bits)


def reference_symmetric_quotient(z: LaurentPoly, gamma: LaurentPoly) -> LaurentPoly:
    """The floor of z/gamma inside the symmetric subring, through the basis
    y = D + D^-1: z*gamma(1/D) and gamma*gamma(1/D) become polynomials in y,
    GF(2)[y] divides them, and the quotient is mapped back."""
    num = _sym_to_y(z * gamma.reciprocal())
    den = _sym_to_y(gamma * gamma.reciprocal())
    q = num // den
    acc = LaurentPoly.zero()
    for d in range(q.bits.bit_length()):
        if q.coeff(d):
            acc = acc + _y_power(d)
    return acc
