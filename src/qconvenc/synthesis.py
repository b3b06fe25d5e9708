"""End-to-end reduction of a stabilizer matrix to the normal form
(0 0 | Gamma 0), with the gate transcript, the encoder (reversed transcript)
and the divisor classification.

The reduction phases, one `_Driver` method each, run by `_Driver.reduce`:

  1. `smith_x`: Smith normal form of the X part.  Each column add becomes
     one CNOT gate, the run of CNOT templates for its polynomial (a swap is
     three offset-0 CNOTs); row operations change only the presentation and
     are kept in a separate log.
  2. `step2`: while the Z columns opposite the zero X block are neither
     zero nor row-divisible by the diagonal, swap them into the X part with
     Hadamards and recompute the normal form.  The divisor degree measure
     must shrink on every full-rank recomputation; when the divisibility
     check passes, the swap is skipped and the CSIGN stage clears those
     columns directly (conjugating CNOT by Hadamards on the target is
     exactly CSIGN, and skipping the swap reproduces the short transcript).
  3/4. `step4`: clear every off-diagonal Z entry of row i with CSIGN batches
     using the quotient by gamma_i; mirrored pairs must vanish together and
     are verified, not assumed.
  5. `step5`: clear the diagonal residue: sigma_i = Z_ii / gamma_i must be
     symmetric (a constant plus D^-l + D^l pairs); P removes the constant,
     PL each pair.
  6. `step6`: Hadamard each diagonal qubit to leave Z-only generators.

Checkpoints are marks in the transcript; `checkpoint_matrices` rebuilds their
matrices on demand, so a reduction freezes only its normal form.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

from .errors import LoopLimitError, NonClearableError, PreconditionError
from .gates import (
    CNOT,
    CSIGN,
    Circuit,
    Gate,
    H,
    P,
    PL,
    _circuit,
    _gate,
    act_gate,
    act_run,
    act_swap,
    apply,
    depth_schedule,
    reverse,
)
from .matrix import thaw
from .poly import (
    LaurentPoly,
    _exponents,
    format_terms,
    laurent_div,
    symmetric_decompose,
)
from .smith import ElementaryColOp, RowOp, apply_row_op, row_divisibility_check, smith
from .stabilizer import StabilizerMatrix, format_sides, params, validate_code

# series digits printed for a proper divisor: the long division that emits
# them ends early when the period is this short, and no longer period is
# walked
_HEAD_BITS = 128


class GammaClass(NamedTuple):
    """Classification of one elementary divisor.

    unit:   the qubit stream is constrained to the zero state.
    shift:  gamma = D^l leaves the first l blocks unconstrained.
    proper: a true subcode row; the ignored periodic states are reported as
            the power series of 1/gamma, whose period is the order of D
            modulo gamma's body.  `series` holds its digits over the period
            or the first `_HEAD_BITS`, whichever is shorter.  `period` is
            exact, or, when `exact` is false, a proven multiple of the
            period, or 0 when none was found within the work budget.
    """

    value: LaurentPoly
    kind: str  # "unit" | "shift" | "proper"
    shift: int = 0
    period: int = 0
    series: str = ""
    exact: bool = True

    def describe(self) -> str:
        if self.kind == "unit":
            return "unit: stream constrained to |0>"
        if self.kind == "shift":
            return (
                f"shift l={self.shift}: first {self.shift} block(s) free, "
                "input constrained to |0> thereafter"
            )
        if self.exact:
            period = f"period {self.period}"
        elif self.period:
            period = f"period divides {self.period}"
        else:
            period = f"period above {len(self.series)}"
        return (
            f"proper: subcode row; ignored periodic states 1/({self.value}) = "
            f"{','.join(self.series)},... ({period})"
        )


class SynthesisResult(NamedTuple):
    """`checkpoints`: a mark (label, templates, row operations) after each
    step and Smith run that emitted something, counting `forward.templates`
    and `row_ops` so far; the last mark counts both whole.  A mark never
    falls inside a gate."""

    forward: Circuit
    encoder: Circuit
    gamma: tuple[LaurentPoly, ...]
    classes: tuple[GammaClass, ...]
    normal_form: StabilizerMatrix
    checkpoints: tuple[tuple[str, int, int], ...]
    row_ops: tuple[RowOp, ...]
    step2_log: tuple[tuple[int, int], ...]  # (rank, degree measure) per pass
    step2_budget: int


class _Driver:
    """Applies streamed operations in place to one (X | Z) work pair kept for
    the whole reduction, emitting gates for column operations and logging
    row operations; `terms` counts the templates of the gates so far.
    `reduce` runs the reduction steps, one method each; `gamma`,
    `step2_log` and `budget` carry its loop state."""

    def __init__(self, s: StabilizerMatrix):
        self.n, self.r = s.n, s.r
        self.x, self.z = thaw(s.x), thaw(s.z)
        self.gates: list[Gate] = []
        self.terms = 0
        self.row_ops: list[RowOp] = []
        self.checkpoints: list[tuple[str, int, int]] = []
        self.phase = "step1"
        self._run_type: Optional[str] = None
        # the last Smith pass's divisors, (rank, degree measure) per pass,
        # and how many passes steps 2 and 5 may start
        self.gamma: list[LaurentPoly] = []
        self.step2_log: list[tuple[int, int]] = []
        self.budget = 0

    def gate(self, g: Gate) -> None:
        act_gate(self.x, self.z, g)
        self.emit(g)

    def emit(self, g: Gate) -> None:
        self.gates.append(g)
        self.terms += len(g.ells)

    def row(self, op: RowOp) -> None:
        _row_op(self.x, self.z, op)
        self.row_ops.append(op)

    def phase_gates(self, i: int, decomposition: tuple[bool, tuple[int, ...]]) -> None:
        """P and PL on row i's stream for a `symmetric_decompose` result."""
        c0, ells = decomposition
        if c0:
            self.gate(_gate(P, i + 1))
        for ell in ells:
            self.gate(_gate(PL, i + 1, 0, (ell,)))

    def checkpoint(self, label: str) -> None:
        """Mark the transcript with its template and row operation counts,
        unless neither moved since the last mark: every `gate`, `emit` and
        `row` call adds to one."""
        mark = (label, self.terms, len(self.row_ops))
        if mark[1:] != (self.checkpoints[-1][1:] if self.checkpoints else (0, 0)):
            self.checkpoints.append(mark)

    # -- smith streaming -----------------------------------------------------

    def on_smith_op(self, op_type: str, op) -> None:
        if op_type != self._run_type:
            self.flush_run()
        self._run_type = op_type
        if op_type == "col":
            self._col_op(op)
        else:
            self.row(op)

    def flush_run(self) -> None:
        if self._run_type is not None:
            kind = "column" if self._run_type == "col" else "row"
            self.checkpoint(f"{self.phase} {kind} ops")
            self._run_type = None

    def _col_op(self, op: ElementaryColOp) -> None:
        if op.kind == "swap":
            for g in act_swap(self.x, self.z, op.i + 1, op.j + 1):
                self.emit(g)
        else:
            self.emit(act_run(self.x, self.z, CNOT, op.i + 1, op.j + 1, op.f))

    # -- reduction steps -----------------------------------------------------

    def reduce(self) -> SynthesisResult:
        """The reduction behind `synthesize`, on a code with r < n."""
        self.smith_x()
        while True:
            if not self.step2():
                self.step4()
                if not self.step5():
                    return self.step6()
            self.smith_x()

    def smith_x(self) -> None:
        """Step 1 and every re-run: the X part's normal form, in place."""
        self.gamma = smith(self.x, self.on_smith_op).divisors
        self.flush_run()
        measure = sum(g.degree for g in self.gamma)
        if self.step2_log:
            prev_rank, prev_measure = self.step2_log[-1]
            if prev_rank == self.r and measure >= prev_measure:
                raise LoopLimitError(
                    "divisor degree measure did not decrease "
                    f"({prev_measure} -> {measure}); reduction is stuck"
                )
        self.step2_log.append((len(self.gamma), measure))
        # rank-raising swaps may legitimately grow the measure; extend the
        # budget so only non-decreasing full-rank passes can exhaust it
        self.budget = max(self.budget, measure + self.r + 1)

    def _check_budget(self) -> None:
        # counting this one, steps 2 and 5 have started as many passes as
        # Smith has logged: each earlier one ended in one more Smith pass
        if len(self.step2_log) > self.budget:
            raise LoopLimitError(
                f"degree-reduction loop exceeded its budget of {self.budget}"
            )

    def step2(self) -> bool:
        """Step 2; True when it swapped columns into the X part."""
        self.phase = "step2"
        n, r, rank = self.n, self.r, len(self.gamma)
        z2_cols = range(rank, n)
        z2 = [[self.z[i][c] for c in z2_cols] for i in range(r)]
        z2_zero = all(e.is_zero() for row in z2 for e in row)
        if z2_zero and rank != r:
            raise PreconditionError("rank collapsed during reduction")
        if z2_zero or (rank == r and all(row_divisibility_check(self.gamma, z2))):
            return False
        self._check_budget()
        for c in z2_cols:
            if any(not self.z[i][c].is_zero() for i in range(r)):
                self.gate(_gate(H, c + 1))
        self.checkpoint("step2 hadamard swap")
        return True

    def step4(self) -> None:
        """Steps 3-4; they also clear the residual columns that step 2 found
        divisible (CSIGN is the Hadamard-conjugated CNOT of the swap)."""
        self.phase = "step4"
        gamma = self.gamma
        for i in range(self.r):
            for c in range(self.n):
                if c == i:
                    continue
                e = self.z[i][c]
                if e.is_zero():
                    continue
                f = laurent_div(e, gamma[i])
                if f is None:
                    raise NonClearableError(
                        f"Z entry ({i + 1},{c + 1}) = {e} is not divisible by "
                        f"gamma_{i + 1} = {gamma[i]}"
                    )
                self.emit(act_run(self.x, self.z, CSIGN, i + 1, c + 1, f))
                if not self.z[i][c].is_zero():
                    raise NonClearableError(f"Z entry ({i + 1},{c + 1}) failed to clear")
                if c < self.r and not self.z[c][i].is_zero():
                    raise NonClearableError(
                        f"mirrored Z entry ({c + 1},{i + 1}) did not vanish with "
                        f"({i + 1},{c + 1}); input is not self-orthogonal"
                    )
            self.checkpoint(f"step4 csign row {i + 1}")

    def step5(self) -> bool:
        """Step 5 on the quotients Z_ii / gamma_i, one division each.  If
        one is not exact, reduce those residues with symmetric quotients (P
        and PL act as the floor division in the subring fixed by D -> 1/D),
        swap the shrunken pairs with Hadamards and return True: the next
        Smith pass strictly drops the divisor span measure."""
        self.phase = "step5"
        gamma = self.gamma
        sigmas = [laurent_div(self.z[i][i], g) for i, g in enumerate(gamma)]
        offenders = [i for i, sigma in enumerate(sigmas) if sigma is None]
        if offenders:
            self._check_budget()
            for i in offenders:
                self.phase_gates(i, symmetric_decompose(_symmetric_quotient(self.z[i][i], gamma[i])))
                if self.z[i][i].is_zero() or self.z[i][i].degree >= gamma[i].degree:
                    raise NonClearableError(
                        f"symmetric reduction failed at row {i + 1}: residue "
                        f"{self.z[i][i]} against gamma {gamma[i]}"
                    )
                self.gate(_gate(H, i + 1))
            self.checkpoint("step5 symmetric reduction")
            return True
        for i, sigma in enumerate(sigmas):
            if sigma.is_zero():
                continue
            decomposition = symmetric_decompose(sigma)
            if decomposition is None:
                raise NonClearableError(
                    f"diagonal residue {sigma} at row {i + 1} is not of the "
                    "symmetric constant-plus-pairs shape"
                )
            self.phase_gates(i, decomposition)
            if not self.z[i][i].is_zero():
                raise NonClearableError(f"diagonal entry ({i + 1},{i + 1}) failed to clear")
        self.checkpoint("step5 phase ops")
        return False

    def step6(self) -> SynthesisResult:
        """Step 6, then the check of (0 0 | Gamma 0) that certifies the code."""
        self.phase = "step6"
        n, r, gamma = self.n, self.r, self.gamma
        for i in range(r):
            self.gate(_gate(H, i + 1))
        self.checkpoint("step6 hadamard")
        normal_form = StabilizerMatrix.from_rows(n, self.x, self.z)
        for i in range(r):
            for c in range(n):
                if not normal_form.x[i][c].is_zero():
                    raise AssertionError("normal form has a nonzero X part")
                want = gamma[i] if c == i else LaurentPoly.zero()
                if normal_form.z[i][c] != want:
                    raise AssertionError("normal form Z part is not diag(gamma)")
        forward = _circuit(n, self.gates)
        return SynthesisResult(
            forward=forward,
            encoder=reverse(forward),
            gamma=tuple(gamma),
            classes=classify(gamma),
            normal_form=normal_form,
            checkpoints=tuple(self.checkpoints),
            row_ops=tuple(self.row_ops),
            step2_log=tuple(self.step2_log),
            step2_budget=self.budget,
        )


def _row_op(x: list[list[LaurentPoly]], z: list[list[LaurentPoly]], op: RowOp) -> None:
    apply_row_op(x, op)
    apply_row_op(z, op)


def _symmetric_quotient(z: LaurentPoly, gamma: LaurentPoly) -> LaurentPoly:
    """The floor of z/gamma inside the symmetric subring.

    For a self-orthogonal pair, z*gamma(1/D) is fixed by D -> 1/D, as is
    gamma*gamma(1/D).  Long division by top terms stays in that subring:
    cancelling the top term D^d of the numerator with (D^-k + D^k) times the
    denominator (k = d - span(gamma), the constant 1 when k = 0) cancels its
    mirrored bottom term too.  The quotient is the unique symmetric Laurent
    polynomial f such that z + f*gamma has span strictly below span(gamma).
    """
    num = z * gamma.reciprocal()
    if num.reciprocal() != num:
        raise AssertionError(f"{num} is not symmetric")
    den = gamma * gamma.reciprocal()
    f = LaurentPoly.zero()
    while not num.is_zero() and num.max_exp >= den.max_exp:
        k = num.max_exp - den.max_exp
        term = LaurentPoly.from_exponents({-k, k})
        f = f + term
        num = num + term * den
    return f


def synthesize(s: StabilizerMatrix) -> SynthesisResult:
    """Transform S(D) into (0 0 | Gamma 0), recording the full transcript
    and its checkpoint marks.

    Preconditions: r < n, the commutation condition holds, and the matrix has
    full rank over the rational function field; `validate_code` raises
    PreconditionError when one fails.  Raises NonClearableError when a
    required quotient is not a Laurent polynomial or a diagonal residue is
    not of the symmetric shape, and LoopLimitError when the degree-reduction
    loop overruns its budget.

    A completed reduction is itself the certificate of the last two
    preconditions: every template is symplectic and every row operation
    unimodular, so S commutes and has rank r exactly when (0 0 | Gamma 0)
    does, and the reduction ends by checking that normal form.  So a code
    with r < n is reduced first, and only if the reduction raises does
    `validate_code` run: its error wins, and on a valid code the
    reduction's own error is raised.  A code with r >= n fails validation
    at once.  A failure is thus the one that validation first would give,
    and an invalid code pays its reduction before validation rejects it.
    A result differs only where validation's own products would pass the
    span limit that the reduction keeps.
    """
    if s.r >= s.n:
        validate_code(s)
    try:
        return _Driver(s).reduce()
    except Exception as exc:
        # any failure on input not yet validated defers to validation
        failure = exc
    validate_code(s)
    raise failure


def classify(gamma: Sequence[LaurentPoly]) -> tuple[GammaClass, ...]:
    """Per-divisor report: unit, shift D^l, or proper with the series head
    from `_series_head` and, when the head is shorter than the period, the
    period from `order.order_of_d`."""
    out = []
    for g in gamma:
        if g.bits == 1:
            if g.offset == 0:
                out.append(GammaClass(g, "unit"))
            else:
                out.append(GammaClass(g, "shift", shift=g.offset))
        else:
            period, head = _series_head(g.bits)
            exact = True
            if not period:
                # loaded only for a period past the head, which commands
                # on other codes never reach
                from .order import order_of_d

                period, exact = order_of_d(g.bits)
            out.append(GammaClass(g, "proper", period=period, series=head, exact=exact))
    return tuple(out)


def _series_head(body: int) -> tuple[int, str]:
    """The series of 1/body by long division one bit at a time, for a body
    of degree >= 1: its period if that is at most `_HEAD_BITS`, else 0, and
    its digits, low order first, over the shorter of the two.

    Each step emits the state's constant bit and multiplies the state by
    D^-1 modulo body, a permutation of the residues when body has constant
    term 1, so the state, started at 1, is 1 again after exactly the
    period, the multiplicative order of D modulo body."""
    if not body & 1:
        terms = format_terms(_exponents(body, 0))
        raise ZeroDivisionError(f"1/({terms}) is not a power series")
    rem, s = 1, 0
    for k in range(_HEAD_BITS):
        if rem & 1:
            s |= 1 << k
            rem ^= body
        rem >>= 1
        if rem == 1:
            # the bit set above the head keeps its high zeros
            return k + 1, format(s | 2 << k, "b")[:0:-1]
    return 0, format(s | 1 << _HEAD_BITS, "b")[:0:-1]


def replay(s: StabilizerMatrix, result: SynthesisResult) -> StabilizerMatrix:
    """Re-apply a synthesis transcript to a matrix: the forward gates, then
    the row operations.  Gates act on columns and row operations on rows, so
    the two commute and this reaches the same matrix as their interleaving.

    Gates go through `apply`, one frozen matrix each, so a replay checks the
    driver's in-place work pair rather than sharing it.
    """
    for g in result.forward.templates:
        s = apply(s, g)
    x, z = thaw(s.x), thaw(s.z)
    for op in result.row_ops:
        _row_op(x, z, op)
    return StabilizerMatrix.from_rows(s.n, x, z)


def build_report(s: StabilizerMatrix, result: SynthesisResult) -> str:
    """Plain-text synthesis report: parameters, divisors, memory, layers."""
    p = params(s)
    sched = depth_schedule(result.encoder)
    lines = [
        f"code: n={p.n} k={p.k} r={p.r} memory={p.memory}",
        "gamma: diag(" + ", ".join(str(g) for g in result.gamma) + ")",
    ]
    for idx, cls in enumerate(result.classes, start=1):
        lines.append(f"  row {idx}: gamma={cls.value}  {cls.describe()}")
    lines.append(
        f"encoder: {len(result.encoder)} templates, memory {result.encoder.memory}, "
        f"{sched.layer_count} layers"
    )
    if all(c.kind == "unit" for c in result.classes):
        lines.append("subcode: Gamma = I, the subcode equals the code (C0 = C1)")
    else:
        lines.append(
            "subcode: S0 = (0 | I 0); non-unit rows tighten the code (C0 is a "
            "proper subcode of C1)"
        )
    return "\n".join(lines) + "\n"


def checkpoint_matrices(
    s: StabilizerMatrix, result: SynthesisResult
) -> list[tuple[str, StabilizerMatrix]]:
    """The matrix at each mark of `result.checkpoints`, rebuilt from `s`
    through `gates.act_gate`, one call per gate, and `_row_op`.  Each
    stretch between marks holds one kind of operation, so this is the
    driver's own order.  Under the limit that `synthesize` ran under it
    cannot overflow where the driver did not: each gate goes through the
    kernel the driver ran it through, on the same rows.  The one exception
    is the driver's stream swap, which `gates.act_swap` makes directly
    only when every pair of columns it sums fits the limit, and whose three
    CNOT gates replay through `act`'s updates, each partial sum in one of
    those pairs' hulls."""
    x, z = thaw(s.x), thaw(s.z)
    gates = iter(result.forward.gates)
    out, done_terms, done_rows = [], 0, 0
    for label, n_terms, n_rows in result.checkpoints:
        while done_terms < n_terms:
            g = next(gates)
            act_gate(x, z, g)
            done_terms += len(g.ells)
        for op in result.row_ops[done_rows:n_rows]:
            _row_op(x, z, op)
        out.append((label, StabilizerMatrix.from_rows(s.n, x, z)))
        done_rows = n_rows
    return out


def format_checkpoints(s: StabilizerMatrix, result: SynthesisResult) -> str:
    blocks = [f"-- {label} --\n{format_sides(m)}" for label, m in checkpoint_matrices(s, result)]
    return "\n".join(blocks) + ("\n" if blocks else "")
