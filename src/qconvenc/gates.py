"""Shift-invariant Clifford gates as exact column transformations.

Each template denotes one gate replicated at every block shift.  Qubit
indices are 1-based within a block; the offset couples qubits in blocks
that many steps apart.  A gate kind(i, j, ells) stands for the templates
kind(i, j, ell), one per offset of `ells`, in that order: a CNOT or CSIGN
gate is one polynomial column operation, the run of one template per term
of f(D), and an H, P or PL gate is one template.  A circuit holds only
gates: a parsed or constructed one holds each run of CNOT terms, or CSIGN
terms, on one stream pair as one gate (`_built`), and the synthesis
driver's one gate per column operation.  Its value, length, memory,
schedule and text are those of its templates.

COLUMN_ACTIONS is the single statement of gate semantics.  Each kind is an
ordered tuple of column updates "column dst += D^k * column src" on
S(D) = (X(D) | Z(D)):

    H(i)          x_i += z_i ;  z_i += x_i ;  x_i += z_i   (a swap)
    P(i)          z_i += x_i
    PL(i, l)      z_i += D^-l x_i ;  z_i += D^l x_i        (l != 0)
    CNOT(i,j,l)   x_j += D^l x_i ;  z_i += D^-l z_j
    CSIGN(i,j,l)  z_j += D^l x_i ;  z_i += D^-l x_j

Four interpreters read it, each walking a circuit's gates, with the
columns and shift of each update taken from a term's (i, j, ell).  On
mutable polynomial rows, `act` applies one template in place (`_act` on
its fields), skipping rows whose source entry is zero (`apply` wraps it
for frozen matrices), and `act_gate` applies one gate: a CNOT or CSIGN
gate of two or more terms as one update per column, an H as a swap of its
two columns, and any other gate through `_act`.  The synthesis driver
builds its gates through `act_run` (a CNOT or CSIGN gate from its
polynomial), `act_swap` (an in-block swap of two streams) and `act_gate`.
`verify._seed_walk` runs each update on the unit seeds as one shift and
one XOR of a packed column, and the window kernel `verify._conjugate_lanes`
as one masked shift-and-XOR over a batch of windows packed side by side.

All of them square to the identity over GF(2), so a circuit is undone by
replaying its templates in reversed order.

_FIELDS is the single statement of the circuit text format: each kind's
field names for (i, j, ell), None where it has no such field.
`format_circuit` writes a template as its kind and the named fields, through
one format string per kind (`GateTemplate.__str__` shares it), and
`parse_circuit` reads them back: a line as that format string writes it in
one match of a pattern built from it (`_LINES`), any other line field by
field.
"""

from __future__ import annotations

import re
from operator import attrgetter
from typing import Iterable, NamedTuple

from .errors import ParseError
from .matrix import Record, thaw, unchecked
from .poly import LaurentPoly, add_product, add_shifted, max_span, parse_int
from .stabilizer import StabilizerMatrix, _strip_comments

H = "H"
P = "P"
PL = "PL"
CNOT = "CNOT"
CSIGN = "CSIGN"

_TWO_QUBIT = (CNOT, CSIGN)

# mutable polynomial rows, one side of an (X | Z) work pair
Rows = list[list[LaurentPoly]]

X_SIDE, Z_SIDE = 0, 1

# kind -> updates (dst side, dst qubit, src side, src qubit, shift sign):
# qubit 0 is the template's i and 1 its j; the shift is sign * ell blocks
COLUMN_ACTIONS = {
    H: ((X_SIDE, 0, Z_SIDE, 0, 0), (Z_SIDE, 0, X_SIDE, 0, 0), (X_SIDE, 0, Z_SIDE, 0, 0)),
    P: ((Z_SIDE, 0, X_SIDE, 0, 0),),
    PL: ((Z_SIDE, 0, X_SIDE, 0, -1), (Z_SIDE, 0, X_SIDE, 0, 1)),
    CNOT: ((X_SIDE, 1, X_SIDE, 0, 1), (Z_SIDE, 0, Z_SIDE, 1, -1)),
    CSIGN: ((Z_SIDE, 1, X_SIDE, 0, 1), (Z_SIDE, 0, X_SIDE, 1, -1)),
}

# kind -> circuit-format field names of (i, j, ell)
_FIELDS = {
    H: ("q", None, None),
    P: ("q", None, None),
    PL: ("q", None, "l"),
    CNOT: ("c", "t", "off"),
    CSIGN: ("a", "b", "off"),
}

# kind -> the template's text, with fields {0}, {1}, {2} for (i, j, ell)
_FORMATS = {
    kind: " ".join([kind, *(f"{key}={{{slot}}}" for slot, key in enumerate(keys) if key)])
    for kind, keys in _FIELDS.items()
}

# the group names of (i, j, ell)
_SLOTS = ("i", "j", "ell")

# kind -> the fullmatch of its canonical line, the text `_FORMATS` writes
# with each field a decimal of ASCII digits, as `int` reads it: groups i, j
# and ell hold (i, j, ell), empty where the kind has no such field
_LINES = {
    kind: re.compile(
        _FORMATS[kind].format(*(f"(?P<{name}>-?[0-9]+)" for name in _SLOTS))
        + "".join(f"(?P<{name}>)" for name, key in zip(_SLOTS, keys) if not key)
    ).fullmatch
    for kind, keys in _FIELDS.items()
}

# CNOT and CSIGN -> the template's text before its offset, with fields
# {0}, {1} for (i, j)
_HEADS = {kind: _FORMATS[kind].partition("{2}")[0] for kind in _TWO_QUBIT}

# kinds diagonal in the Z basis: no update writes an X column
_DIAGONAL = frozenset(
    kind for kind, updates in COLUMN_ACTIONS.items() if all(u[0] == Z_SIDE for u in updates)
)


class GateTemplate(Record):
    """One template: kind(i, j, ell), replicated at every block shift, and
    a gate of one term, its offsets `(ell,)`.  The constructor makes the
    checks that `Circuit` makes on each term (`_checked`)."""

    _fields = ("kind", "i", "j", "ell")

    def __new__(cls, kind: str, i: int, j: int = 0, ell: int = 0) -> GateTemplate:
        return unchecked(cls, dict(zip(cls._fields, _checked(kind, i, j, ell))))

    @property
    def reach(self) -> int:
        return abs(self.ell)

    @property
    def ells(self) -> tuple[int]:
        return (self.ell,)

    def __str__(self) -> str:
        return _FORMATS[self.kind].format(self.i, self.j, self.ell)


class Gate(NamedTuple):
    """The templates kind(i, j, ell) for each offset ell of `ells`, in that
    order, oriented by `_gate`; the offsets keep repeats.  Only CNOT and
    CSIGN gates carry more than one."""

    kind: str
    i: int
    j: int
    ells: tuple[int, ...]


class Circuit(Record):
    """An ordered list of gates on n qubit streams, applied left to right.

    Its value is its templates, each gate's terms in turn (`templates`): two
    circuits with the same templates are equal, hash alike and print alike,
    however their gates group them.  The constructor checks every term of
    the templates or gates it takes and regroups them through `_built`, as
    `parse_circuit` does; `_circuit` keeps the synthesis driver's gates,
    unchecked.  Either way its instance dict also holds `memory`, the
    largest template reach, and `size`, the template count."""

    _fields = ("n", "gates")

    def __new__(cls, n: int, gates: Iterable[GateTemplate | Gate] = ()) -> Circuit:
        return _built(n, (_checked(g.kind, g.i, g.j, ell) for g in gates for ell in g.ells))

    @property
    def templates(self) -> tuple[GateTemplate, ...]:
        """Each gate's terms in turn, as templates: the circuit's value, and
        the input of `apply_circuit` and `synthesis.replay`.  The kernels
        read the gates."""
        return tuple(
            unchecked(GateTemplate, {"kind": kind, "i": i, "j": j, "ell": ell})
            for kind, i, j, ells in self.gates
            for ell in ells
        )

    def __len__(self) -> int:
        return self.size

    def __str__(self) -> str:
        return format_circuit(self)


# equality, hash, repr and copies read a circuit's templates: its value is
# the same however its gates group them
Circuit._key = attrgetter("n", "templates")


def _checked(kind: str, i: int, j: int, ell: int) -> tuple[str, int, int, int]:
    """The term kind(i, j, ell), once it passes the template checks, oriented
    as `_gate` orients each term of a gate."""
    if kind in _TWO_QUBIT:
        if i < 1 or j < 1:
            raise ValueError("qubit indices are 1-based")
        if i == j:
            raise ValueError(f"{kind} needs two distinct qubit streams")
    elif kind in (H, P, PL):
        if i < 1:
            raise ValueError("qubit indices are 1-based")
        if j != 0:
            raise ValueError(f"{kind} takes a single qubit")
        if kind == PL and not ell:
            raise ValueError("PL requires a nonzero offset")
        if kind != PL and ell:
            raise ValueError(f"{kind} carries no offset")
    else:
        raise ValueError(f"unknown gate kind {kind!r}")
    if kind == CSIGN and j < i:
        return kind, j, i, -ell
    return kind, i, j, abs(ell) if kind == PL else ell


def _gate(kind: str, i: int, j: int = 0, ells: tuple[int, ...] = (0,)) -> Gate:
    """A gate from fields known to be valid, in the canonical orientation:
    PL(i, l) == PL(i, -l) and CSIGN(i, j, l) == CSIGN(j, i, -l), so a CSIGN
    with j < i flips and a PL drops the sign of each offset."""
    if kind == CSIGN and j < i:
        return Gate(kind, j, i, tuple(-ell for ell in ells))
    return Gate(kind, i, j, tuple(map(abs, ells)) if kind == PL else ells)


# a Gate from its fields, without a named tuple's Python-level constructor
_new_gate = tuple.__new__


def _built(n: int, terms: Iterable[tuple[str, int, int, int]], error: type = ValueError) -> Circuit:
    """The circuit on n streams of checked terms (kind, i, j, ell), oriented
    by `_checked`: each maximal run of CNOT terms, or CSIGN terms, on one
    stream pair is one gate, any other term a gate of its own.  One pass
    takes the memory, the size and the largest stream, and then the fit
    rule raises `error` at the first template that does not fit."""
    runs = []
    size = memory = top = 0
    pair = ()  # the kind and streams of the open CNOT or CSIGN run
    for kind, i, j, ell in terms:
        size += 1
        if ell > memory or -ell > memory:
            memory = abs(ell)
        key = (kind, i, j)
        if key == pair:
            ells.append(ell)
            continue
        ells = [ell]
        runs.append((kind, i, j, ells))
        pair = key if kind in _TWO_QUBIT else ()
        if i > top or j > top:
            top = max(i, j)
    if n < 1:
        raise error(f"need at least one qubit stream, got n={n}")
    if top > n:
        kind, i, j, ells = next(run for run in runs if run[1] > n or run[2] > n)
        raise error(f"template {_FORMATS[kind].format(i, j, ells[0])} exceeds n={n}")
    gates = tuple([_new_gate(Gate, (kind, i, j, tuple(ells))) for kind, i, j, ells in runs])
    return unchecked(Circuit, {"n": n, "gates": gates, "memory": memory, "size": size})


def _circuit(n: int, gates: list[Gate]) -> Circuit:
    """The synthesis driver's circuit: oriented gates, kept as given, unchecked."""
    memory = max((max(max(g.ells), -min(g.ells)) for g in gates), default=0)
    size = sum(len(g.ells) for g in gates)
    return unchecked(Circuit, {"n": n, "gates": tuple(gates), "memory": memory, "size": size})


def reverse(c: Circuit) -> Circuit:
    """The inverse circuit: the gates in reversed order, each with its
    offsets reversed, so its templates are c's reversed.  It is not checked
    again, and shares c's memory and length."""
    gates = tuple([g if len(g.ells) < 2 else Gate(g.kind, g.i, g.j, g.ells[::-1]) for g in reversed(c.gates)])
    return unchecked(Circuit, {"n": c.n, "gates": gates, "memory": c.memory, "size": c.size})


def act(x: Rows, z: Rows, g: GateTemplate) -> None:
    """Apply one template in place to mutable (X | Z) rows."""
    _act(x, z, g.kind, g.i, g.j, g.ell)


def _act(x: Rows, z: Rows, kind: str, i: int, j: int, ell: int) -> None:
    """`act` on a template's fields, without building the template."""
    n = len(x[0])
    # the fit rule of `Circuit`
    if i > n or j > n:
        raise IndexError(f"qubit index {i if i > n else j} outside 1..{n}")
    sides = (x, z)
    cols = (i - 1, j - 1)
    for dst_side, dst, src_side, src, sign in COLUMN_ACTIONS[kind]:
        dst_col, src_col, k = cols[dst], cols[src], sign * ell
        for row, from_row in zip(sides[dst_side], sides[src_side]):
            e = from_row[src_col]
            if e.bits:
                row[dst_col] = add_shifted(row[dst_col], e, k)


def act_gate(x: Rows, z: Rows, g: GateTemplate | Gate) -> None:
    """Apply one gate in place to mutable (X | Z) rows, through the kernel
    the synthesis driver runs it through: CNOT and CSIGN through `_run`, H
    as a swap of its two columns, P and PL through `act`'s updates.  Each
    leaves the rows, and raises the error, that its templates applied one
    at a time through `act` would."""
    kind, i = g.kind, g.i
    if kind == H:
        c = i - 1
        # each row's x_i and z_i are summed
        if i <= len(x[0]) and _hulls_fit(x, c, z, c):
            for xr, zr in zip(x, z):
                xr[c], zr[c] = zr[c], xr[c]
        else:
            _act(x, z, H, i, 0, 0)
    elif kind in _TWO_QUBIT:
        _run(x, z, g)
    else:
        for ell in g.ells:
            _act(x, z, kind, i, g.j, ell)


def act_run(x: Rows, z: Rows, kind: str, i: int, j: int, f: LaurentPoly) -> Gate:
    """Apply the CNOT or CSIGN gate kind(i, j, l), one template per
    exponent l of f, ascending, in place to mutable (X | Z) rows, as
    `act_gate` would, and return the gate, oriented once by `_gate`.  No
    template is built."""
    g = _gate(kind, i, j, f.exponents())
    # a flipped CSIGN's offsets are f's negated: f is not their sum
    _run(x, z, g, f if g.i == i else None)
    return g


def _run(x: Rows, z: Rows, g: GateTemplate | Gate, f: LaurentPoly | None = None) -> None:
    """Apply a CNOT or CSIGN gate in place; f, the sum of D^ell over its
    offsets, is built from them unless given.  One term goes through `act`'s
    updates.

    No update of the gate reads a column that it writes, so two or more
    templates commute and apply as one update per column: column dst +=
    c * column src, c = f, or f(1/D) where the table's shift sign is -1.
    Each partial sum of the template-by-template path lies in the hull of
    the old entry and D^ell * src for the least and the greatest offset,
    repeats included.  If a hull spans past the limit, or the streams do
    not fit the rows, the templates go through `act`'s updates one at a
    time instead, and so raise at the same template with the same
    message."""
    kind, i, j, ells = g.kind, g.i, g.j, g.ells
    if len(ells) == 1:
        _act(x, z, kind, i, j, ells[0])
        return
    lo, hi = min(ells), max(ells)
    limit = max_span()
    new = [] if hi - lo <= limit and max(i, j) <= len(x[0]) else None
    if new is not None:
        if f is None:
            f = LaurentPoly.from_exponents(ells)
        sides, cols, width = (x, z), (i - 1, j - 1), hi - lo
        # shift sign -> the update's coefficient and its least shift
        coeff = {1: (f, lo), -1: (f.reciprocal(), -hi)}
        for dst_side, dst, src_side, src, sign in COLUMN_ACTIONS[kind]:
            (c, shift), col, src_col = coeff[sign], cols[dst], cols[src]
            for row, from_row in zip(sides[dst_side], sides[src_side]):
                e = from_row[src_col]
                if e.bits:
                    d = row[col]
                    a = shift + e.offset
                    b = a + width + e.bits.bit_length() - 1
                    if d.bits:
                        a, b = min(a, d.offset), max(b, d.offset + d.bits.bit_length() - 1)
                    if b - a > limit:
                        new = None
                        break
                    new.append((row, col, add_product(d, c, e)))
            if new is None:
                break
    if new is None:
        for ell in ells:
            _act(x, z, kind, i, j, ell)
    else:
        for row, col, value in new:
            row[col] = value


def act_swap(x: Rows, z: Rows, i: int, j: int) -> tuple[Gate, Gate, Gate]:
    """Swap streams i and j in place and return the three offset-0 CNOT
    gates that do it.  The columns trade places directly when x_i and x_j,
    and z_i and z_j, which the CNOTs sum, fit the limit together in every
    row; otherwise the CNOTs run through `act`'s updates, and so raise as
    they would."""
    gates = (Gate(CNOT, i, j, (0,)), Gate(CNOT, j, i, (0,)), Gate(CNOT, i, j, (0,)))
    a, b = i - 1, j - 1
    if max(i, j) <= len(x[0]) and _hulls_fit(x, a, x, b) and _hulls_fit(z, a, z, b):
        for row in x + z:
            row[a], row[b] = row[b], row[a]
    else:
        for g in gates:
            _act(x, z, CNOT, g.i, g.j, 0)
    return gates


def _hulls_fit(rows: Rows, col: int, other_rows: Rows, other_col: int) -> bool:
    """Whether each row's entry at `col` and the matching row's at
    `other_col`, both nonzero, span at most the limit together: every sum
    of the two then lies in that hull, and where one is zero a sum is the
    other."""
    limit = max_span()
    for row, other in zip(rows, other_rows):
        a, b = row[col], other[other_col]
        if a.bits and b.bits:
            lo = min(a.offset, b.offset)
            hi = max(a.offset + a.bits.bit_length(), b.offset + b.bits.bit_length()) - 1
            if hi - lo > limit:
                return False
    return True


def apply(s: StabilizerMatrix, g: GateTemplate) -> StabilizerMatrix:
    """Apply one template to the stabilizer matrix; preserves commutation."""
    x, z = thaw(s.x), thaw(s.z)
    act(x, z, g)
    return StabilizerMatrix.from_rows(s.n, x, z)


def apply_circuit(s: StabilizerMatrix, c: Circuit) -> StabilizerMatrix:
    for g in c.templates:
        s = apply(s, g)
    return s


# ---------------------------------------------------------------------------
# scheduling


class Schedule(NamedTuple):
    """A finite-depth arrangement: diagonal gates merge into single layers,
    parallel single-qubit layers group, and every CNOT template runs as its
    own layer (each instance repeated in its shifted version before the next
    gate).  Layer count and memory are independent of any window size."""

    layer_count: int
    memory: int


def depth_schedule(c: Circuit) -> Schedule:
    """The schedule of c's templates, read per gate: a gate of several
    terms is a CNOT, one layer per term, or a CSIGN, which is diagonal."""
    layers = 0
    mode = None  # "diag" | "h" | None
    used: set[int] = set()
    for g in c.gates:
        if g.kind in _DIAGONAL:
            if mode != "diag":
                layers += 1
                mode = "diag"
        elif g.kind == H:
            if mode == "h" and g.i not in used:
                used.add(g.i)
            else:
                layers += 1
                mode = "h"
                used = {g.i}
        else:  # CNOT
            layers += len(g.ells)
            mode = None
    return Schedule(layers, c.memory)


# ---------------------------------------------------------------------------
# circuit text format


def format_circuit(c: Circuit) -> str:
    """One line per template: the text of a gate of several templates up to
    its offset is formatted once, and their lines share it."""
    lines = [f"n={c.n}"]
    for g in c.gates:
        ells = g.ells
        if len(ells) == 1:
            lines.append(_FORMATS[g.kind].format(g.i, g.j, ells[0]))
        else:
            head = _HEADS[g.kind].format(g.i, g.j)
            lines += [f"{head}{ell}" for ell in ells]
    return "\n".join(lines) + "\n"


def parse_circuit(text: str) -> Circuit:
    """The circuit of a file's lines, built as the constructor builds."""
    lines = _strip_comments(text)
    if not lines or not lines[0].startswith("n="):
        raise ParseError("circuit file must start with n=<int>")
    try:
        n = parse_int(lines[0][2:])
    except ValueError:
        raise ParseError(f"bad circuit header {lines[0]!r}") from None
    return _built(n, map(_line_term, lines[1:]), ParseError)


def _line_term(line: str) -> tuple[str, int, int, int]:
    """The checked, oriented term of one circuit line: a canonical line in
    one match (`_LINES`), and any other line, or one whose values the
    template checks reject, through `_parsed_term`, which raises every
    error."""
    kind = line.partition(" ")[0]
    match = _LINES.get(kind)
    found = match(line) if match else None
    if found:
        i, j, ell = found.group(*_SLOTS)
        try:
            return _checked(kind, int(i), int(j or 0), int(ell or 0))
        except ValueError:
            pass
    return _parsed_term(line)


def _parsed_term(line: str) -> tuple[str, int, int, int]:
    """The checked, oriented term of one circuit line, field by field."""
    kind, *parts = line.split()
    fields = {}
    for part in parts:
        key, eq, val = part.partition("=")
        if not eq:
            raise ParseError(f"bad field {part!r} in {line!r}")
        if key in fields:
            raise ParseError(f"duplicate field {key}= in {line!r}")
        fields[key] = val
    # the template's own errors, ParseErrors too, report a bad template
    try:
        if kind not in _FIELDS:
            raise ParseError(f"unknown gate {kind!r}")
        values = []
        for key in _FIELDS[kind]:
            if key is None:
                values.append(0)
                continue
            val = fields.pop(key, None)
            if val is None:
                raise ParseError(f"missing {key}= in {line!r}")
            try:
                values.append(parse_int(val))
            except ValueError:
                raise ParseError(f"bad integer for {key}= in {line!r}") from None
        term = _checked(kind, values[0], values[1], values[2])
    except ValueError as exc:
        raise ParseError(f"bad template {line!r}: {exc}") from None
    if fields:
        raise ParseError(f"unexpected fields {sorted(fields)} in {line!r}")
    return term
