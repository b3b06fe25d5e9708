"""Smith normal form over GF(2)[D, D^-1] with full transformation transcripts.

Laurent entries are preprocessed by row-wise denominator clearing (a row
transform, never a gate), then the pivot loop runs Euclidean reduction with
the exponent span as degree.  Column operations are recorded so the caller
can realize them as CNOT templates; row operations are recorded separately
since left multiplication by an invertible matrix does not change the code.

The reduction changes the matrix only through an `apply(kind, op)`
callback: by default on a private copy, or the caller's own, which reduces
the caller's rows in place.  The transformations A and B with
A*Gamma*B == M are never built: the transcripts determine them, and the
synthesis driver reads only Gamma and the transcripts.

Pivot selection is deterministic: the nonzero entry of minimal span, ties
broken by lowest row then lowest column.  When the pivot sits in the pivot
row but not the pivot column, the pivot-column entry is reduced by single
leading-term cancellations until it takes over; this keeps transcripts short
and reproduces hand reductions that avoid column swaps.  Only the quotient
loops lead to a scan of the active submatrix: a row swap brings the pivot to
row t (no earlier row held an entry as small), a column swap to (t, t), and
a cancellation changes only column t, so the next pivot is the least of the
old one and column t's entries.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, NamedTuple, Optional, Sequence

from .errors import LoopLimitError
from .matrix import Matrix, Record, freeze, thaw, unchecked
from .poly import LaurentPoly, L_ONE, L_ZERO, add_product, laurent_divides, laurent_divmod


class ElementaryColOp(Record):
    """A column operation: add (col_j += f*col_i) or swap (col_i <-> col_j)."""

    _fields = ("kind", "i", "j", "f")

    def __new__(cls, kind: str, i: int, j: int, f: Optional[LaurentPoly] = None) -> ElementaryColOp:
        if kind not in ("add", "swap"):
            raise ValueError(f"unknown column op kind {kind!r}")
        if i == j:
            raise ValueError("column op needs two distinct columns")
        if kind == "add" and (f is None or f.is_zero()):
            raise ValueError("column add needs a nonzero coefficient")
        return unchecked(cls, {"kind": kind, "i": i, "j": j, "f": f})


class RowOp(NamedTuple):
    """A row operation: add (row_i += f*row_j), swap, or scale (row_i *= D^k)."""

    kind: str  # "add" | "swap" | "scale"
    i: int
    j: int = 0
    f: Optional[LaurentPoly] = None
    power: int = 0


OpCallback = Callable[[str, object], None]

_SAFETY_FACTOR = 10_000


def apply_col_op(rows: list[list[LaurentPoly]], op: ElementaryColOp) -> None:
    if op.kind == "swap":
        for row in rows:
            row[op.i], row[op.j] = row[op.j], row[op.i]
    else:
        for row in rows:
            row[op.j] = add_product(row[op.j], op.f, row[op.i])


def apply_row_op(rows: list[list[LaurentPoly]], op: RowOp) -> None:
    if op.kind == "swap":
        rows[op.i], rows[op.j] = rows[op.j], rows[op.i]
    elif op.kind == "add":
        f = op.f
        rows[op.i] = [add_product(a, f, b) if b.bits else a for a, b in zip(rows[op.i], rows[op.j])]
    else:
        rows[op.i] = [e.shifted(op.power) for e in rows[op.i]]


def _apply_op(rows: list[list[LaurentPoly]], kind: str, op) -> None:
    (apply_col_op if kind == "col" else apply_row_op)(rows, op)


class SmithDecomposition(NamedTuple):
    """Gamma and the transcripts that determine A and B, with
    A*Gamma*B == the input.

    col_ops hold the reduction-order column operations; applying them to the
    input reproduces A*Gamma, and B is their reversed composition (each
    operation is self-inverse over GF(2)).  row_ops is the reduction-order
    row transcript, including the denominator-clearing and unit-stripping
    scalings, whose inverse composition is A.
    """

    gamma: Matrix
    col_ops: tuple[ElementaryColOp, ...]
    row_ops: tuple[RowOp, ...]

    @property
    def divisors(self) -> tuple[LaurentPoly, ...]:
        """The leading nonzero diagonal; every other entry must be zero."""
        out = []
        for i in range(min(len(self.gamma), len(self.gamma[0]) if self.gamma else 0)):
            g = self.gamma[i][i]
            if g.is_zero():
                break
            out.append(g)
        for i, row in enumerate(self.gamma):
            for c, e in enumerate(row):
                if (i != c or i >= len(out)) and not e.is_zero():
                    raise AssertionError("Gamma is not in diagonal form")
        return tuple(out)

    @property
    def rank(self) -> int:
        return len(self.divisors)


class _Reducer:
    def __init__(self, work: list[list[LaurentPoly]], apply: OpCallback):
        self.work = work
        self.r = len(work)
        self.n = len(work[0]) if self.r else 0
        self.col_ops: list[ElementaryColOp] = []
        self.row_ops: list[RowOp] = []
        self.apply = apply
        total_span = sum(
            e.degree for row in self.work for e in row if not e.is_zero()
        )
        self.budget = _SAFETY_FACTOR * (self.r * self.n + total_span + 1)

    def _tick(self):
        self.budget -= 1
        if self.budget <= 0:
            raise LoopLimitError("smith reduction exceeded its safety budget")

    def emit_col(self, op: ElementaryColOp):
        self._tick()
        self.apply("col", op)
        self.col_ops.append(op)

    def emit_row(self, op: RowOp):
        self._tick()
        self.apply("row", op)
        self.row_ops.append(op)

    # -- phases -------------------------------------------------------------

    def clear_denominators(self):
        for i in range(self.r):
            exps = [e.min_exp for e in self.work[i] if not e.is_zero()]
            if exps and min(exps) < 0:
                self.emit_row(RowOp("scale", i, power=-min(exps)))

    def select_pivot(self, t: int, known: Optional[tuple[int, int]] = None):
        """The active submatrix's pivot: `known` if the last step kept it."""
        if known is not None:
            return known
        # row-major scan: only a strictly shorter body displaces the best,
        # so ties go to the lowest row, then the lowest column, and the
        # first monomial ends the scan
        best, best_length = None, 0
        for i in range(t, self.r):
            row = self.work[i]
            for j in range(t, self.n):
                length = row[j].bits.bit_length()
                if length and (best is None or length < best_length):
                    if length == 1:
                        return i, j
                    best, best_length = (i, j), length
        return best

    def reduce_pivot(self, t: int) -> bool:
        """Bring the active submatrix's gcd to (t, t) and clear its row and
        column.  Returns False when the active submatrix is already zero."""
        work = self.work
        sel = None
        while True:
            self._tick()
            sel = self.select_pivot(t, sel)
            if sel is None:
                return False
            pi, pj = sel
            if pi != t:
                self.emit_row(RowOp("swap", t, pi))
                sel = (t, pj)
                continue
            if pj != t:
                diag = work[t][t]
                if diag.is_zero():
                    self.emit_col(ElementaryColOp("swap", t, pj))
                    sel = (t, t)
                    continue
                # tie-breaking guarantees span(diag) > span(pivot): cancel the
                # leading term of the diagonal entry with a single monomial
                delta = diag.max_exp - work[t][pj].max_exp
                self.emit_col(ElementaryColOp("add", pj, t, LaurentPoly.d(delta)))
                keys = [(work[i][t].degree, i, t) for i in range(t, self.r) if work[i][t].bits]
                sel = min(keys + [(work[t][pj].degree, t, pj)])[1:]
                continue
            pivot, sel = work[t][t], None
            changed = False
            for c in range(t + 1, self.n):
                e = work[t][c]
                if e.is_zero():
                    continue
                q, _ = laurent_divmod(e, pivot)
                if q.is_zero():
                    continue
                self.emit_col(ElementaryColOp("add", t, c, q))
                changed = True
            if changed:
                continue
            if any(not work[t][c].is_zero() for c in range(t + 1, self.n)):
                continue
            for i in range(t + 1, self.r):
                e = work[i][t]
                if e.is_zero():
                    continue
                q, _ = laurent_divmod(e, pivot)
                if q.is_zero():
                    continue
                self.emit_row(RowOp("add", i, t, q))
                changed = True
            if changed:
                continue
            if any(not work[i][t].is_zero() for i in range(t + 1, self.r)):
                continue
            return True

    def run(self) -> int:
        self.clear_denominators()
        limit = min(self.r, self.n)
        rank = 0
        while rank < limit:
            if not self.reduce_pivot(rank):
                break
            rank += 1
        # divisibility chain fix-up, tested on bodies (Laurent divisibility)
        while True:
            self._tick()
            bad = None
            for i in range(rank - 1):
                if not laurent_divides(self.work[i][i], self.work[i + 1][i + 1]):
                    bad = i
                    break
            if bad is None:
                break
            self.emit_col(ElementaryColOp("add", bad + 1, bad, L_ONE))
            t = bad
            while t < limit:
                if not self.reduce_pivot(t):
                    break
                t += 1
            rank = t
        # unit normalization: strip D^v so each divisor is a polynomial with
        # nonzero constant term, or stays the monomial D^v (v > 0) when the
        # unit is the entire content
        for i in range(rank):
            g = self.work[i][i]
            if g.bits == 1:
                if g.offset < 0:
                    self.emit_row(RowOp("scale", i, power=-g.offset))
            elif g.offset != 0:
                self.emit_row(RowOp("scale", i, power=-g.offset))
        return rank


def smith(
    m: Sequence[Sequence[LaurentPoly]], apply: Optional[OpCallback] = None
) -> SmithDecomposition:
    """Smith normal form of a Laurent polynomial matrix.

    Without `apply`, a private copy of `m` is reduced with `apply_col_op`
    and `apply_row_op`.  With it, `m` must be mutable rows, which smith
    reads but changes only by calling `apply("col", op)` (ElementaryColOp)
    or `apply("row", op)` (RowOp); each call must apply `op` to `m` in place
    and may do more, such as keep other columns in step.  `m` ends as Gamma.

    The all-zero matrix returns a zero Gamma with empty transcripts.  The
    decomposition satisfies A*Gamma*B == M exactly, the divisors form a
    divisibility chain over the Laurent ring, and det(A), det(B) are units.
    """
    work = thaw(m) if apply is None else m
    red = _Reducer(work, apply or partial(_apply_op, work))
    red.run()
    return SmithDecomposition(
        gamma=freeze(work),
        col_ops=tuple(red.col_ops),
        row_ops=tuple(red.row_ops),
    )


def smith_rank(m: Sequence[Sequence[LaurentPoly]]) -> int:
    """Rank over the rational function field, via the number of divisors."""
    return smith(m).rank


def row_divisibility_check(
    gamma: Sequence[LaurentPoly], u: Sequence[Sequence[LaurentPoly]]
) -> tuple[bool, ...]:
    """Per row: does gamma_i divide (as Laurent polynomials) every entry of
    row i of u?  Rows beyond the diagonal length test against zero."""
    out = []
    for i, row in enumerate(u):
        g = gamma[i] if i < len(gamma) else L_ZERO
        out.append(all(laurent_divides(g, e) for e in row))
    return tuple(out)
