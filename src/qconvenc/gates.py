"""Shift-invariant Clifford gates as exact column transformations.

Each template denotes one gate replicated at every block shift.  Qubit
indices are 1-based within a block; the offset couples qubits in blocks
that many steps apart.

COLUMN_ACTIONS is the single statement of gate semantics.  Each kind is an
ordered tuple of column updates "column dst += D^k * column src" on
S(D) = (X(D) | Z(D)):

    H(i)          x_i += z_i ;  z_i += x_i ;  x_i += z_i   (a swap)
    P(i)          z_i += x_i
    PL(i, l)      z_i += D^-l x_i ;  z_i += D^l x_i        (l != 0)
    CNOT(i,j,l)   x_j += D^l x_i ;  z_i += D^-l z_j
    CSIGN(i,j,l)  z_j += D^l x_i ;  z_i += D^-l x_j

Three interpreters read it, with the columns and shift of each update
taken from the template's (i, j, ell).  On mutable polynomial rows, `act`
applies one template in place, skipping rows whose source entry is zero
(`apply` wraps it for frozen matrices), and `act_run` applies a commuting
CNOT or CSIGN run, one template per exponent of a polynomial f, as one
update per column; the synthesis driver calls both on its work pair, and
`verify._seed_walk` calls `act` on the unit seeds.  On windows, the kernel
`verify._conjugate_lanes` runs each update as one masked shift-and-XOR over
a batch of unrolled windows packed side by side, for the seeds within
max(memory, prefix reach) blocks of a window edge (`_window_pass`; the
seeds further in read the walk's images) and for the one-lane `conjugate`.

All of them square to the identity over GF(2), so a circuit is undone by
replaying its templates in reversed order.

_FIELDS is the single statement of the circuit text format: each kind's
field names for (i, j, ell), None where the kind carries no such field.
`format_circuit` writes a template as its kind followed by the named
fields, through one format string per kind derived from the table
(`GateTemplate.__str__` uses the same one), and `parse_circuit` reads them
back in the same order.
"""

from __future__ import annotations

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

# kinds diagonal in the Z basis: no update writes an X column
_DIAGONAL = frozenset(
    kind for kind, updates in COLUMN_ACTIONS.items() if all(u[0] == Z_SIDE for u in updates)
)


class GateTemplate(Record):
    """One template: kind(i, j, ell), replicated at every block shift.

    The constructor checks the fields, then builds through `_template`,
    which stores the canonical orientation.  The instance dict holds the
    fields and nothing derived from them."""

    _fields = ("kind", "i", "j", "ell")

    def __new__(cls, kind: str, i: int, j: int = 0, ell: int = 0) -> GateTemplate:
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
            if kind == PL and ell == 0:
                raise ValueError("PL requires a nonzero offset")
            if kind != PL and ell != 0:
                raise ValueError(f"{kind} carries no offset")
        else:
            raise ValueError(f"unknown gate kind {kind!r}")
        return _template(kind, i, j, ell)

    @property
    def reach(self) -> int:
        return abs(self.ell)

    def __str__(self) -> str:
        return _FORMATS[self.kind].format(self.i, self.j, self.ell)


class Circuit(Record):
    """An ordered list of templates on n qubit streams, applied left to right.

    The instance dict also holds `memory`, the largest template reach."""

    _fields = ("n", "templates")

    def __new__(cls, n: int, templates: Iterable[GateTemplate] = ()) -> Circuit:
        templates = tuple(templates)
        if n < 1:
            raise ValueError(f"need at least one qubit stream, got n={n}")
        memory = 0
        for g in templates:
            # the fit rule: j is 0 on single-qubit kinds, so this checks
            # every stream the template acts on
            if g.i > n or g.j > n:
                raise ValueError(f"template {g} exceeds n={n}")
            if abs(g.ell) > memory:
                memory = abs(g.ell)
        return unchecked(cls, {"n": n, "templates": templates, "memory": memory})

    def __len__(self) -> int:
        return len(self.templates)

    def __str__(self) -> str:
        return format_circuit(self)


def _template(kind: str, i: int, j: int = 0, ell: int = 0) -> GateTemplate:
    """A template from fields known to be valid, such as the synthesis
    driver's, without the constructor's checks.  It stores the canonical
    orientation: PL(i, l) == PL(i, -l), and the CSIGN matrix is symmetric
    under (i, j, l) -> (j, i, -l)."""
    if kind == CSIGN and j < i:
        i, j, ell = j, i, -ell
    elif kind == PL and ell < 0:
        ell = -ell
    return unchecked(GateTemplate, {"kind": kind, "i": i, "j": j, "ell": ell})


def reverse(c: Circuit) -> Circuit:
    """The inverse circuit: same templates, reversed order.  c was checked
    when it was built, so its reverse is not checked again, and it shares
    c's memory."""
    return unchecked(Circuit, {"n": c.n, "templates": c.templates[::-1], "memory": c.memory})


def act(x: list[list[LaurentPoly]], z: list[list[LaurentPoly]], g: GateTemplate) -> None:
    """Apply one template in place to mutable (X | Z) rows."""
    n = len(x[0])
    # the fit rule of `Circuit`
    if g.i > n or g.j > n:
        raise IndexError(f"qubit index {g.i if g.i > n else g.j} outside 1..{n}")
    sides = (x, z)
    cols = (g.i - 1, g.j - 1)
    for dst_side, dst, src_side, src, sign in COLUMN_ACTIONS[g.kind]:
        dst_col, src_col, k = cols[dst], cols[src], sign * g.ell
        for row, from_row in zip(sides[dst_side], sides[src_side]):
            e = from_row[src_col]
            if e.bits:
                row[dst_col] = add_shifted(row[dst_col], e, k)


def act_run(
    x: list[list[LaurentPoly]], z: list[list[LaurentPoly]], kind: str, i: int, j: int, f: LaurentPoly
) -> list[GateTemplate]:
    """Apply the CNOT or CSIGN run kind(i, j, l), one template per exponent
    l of f, ascending, in place to mutable (X | Z) rows, and return its
    templates in that order, oriented once as `_template` orients each.

    No update of the run reads a column that it writes, so the templates
    commute, and two or more apply as one update per column: column dst
    += g * column src, g = f, or f(1/D) where the table's shift sign is -1.
    Each partial sum of the template-by-template path lies in the hull of
    the old entry and g * src.  If a hull spans past the limit, or the
    streams do not fit the rows, the run goes through `act` one template at
    a time instead, and so raises at the same template with the same
    message."""
    a, b, flip = (j, i, -1) if kind == CSIGN and j < i else (i, j, 1)
    run = [
        unchecked(GateTemplate, {"kind": kind, "i": a, "j": b, "ell": flip * ell}) for ell in f.exponents()
    ]
    limit = max_span()
    new = [] if len(run) > 1 and f.degree <= limit and max(i, j) <= len(x[0]) else None
    if new is not None:
        sides, cols, coeff = (x, z), (i - 1, j - 1), {1: f, -1: f.reciprocal()}
        for dst_side, dst, src_side, src, sign in COLUMN_ACTIONS[kind]:
            g, col, src_col = coeff[sign], cols[dst], cols[src]
            g_offset, g_span = g.offset, g.bits.bit_length() - 1
            for row, from_row in zip(sides[dst_side], sides[src_side]):
                e = from_row[src_col]
                if e.bits:
                    d = row[col]
                    lo = g_offset + e.offset
                    hi = lo + g_span + e.bits.bit_length() - 1
                    if d.bits:
                        lo, hi = min(lo, d.offset), max(hi, d.offset + d.bits.bit_length() - 1)
                    if hi - lo > limit:
                        new = None
                        break
                    new.append((row, col, add_product(d, g, e)))
            if new is None:
                break
    if new is None:
        for template in run:
            act(x, z, template)
    else:
        for row, col, value in new:
            row[col] = value
    return run


def apply(s: StabilizerMatrix, g: GateTemplate) -> StabilizerMatrix:
    """Apply one template to the stabilizer matrix; preserves commutation."""
    x, z = thaw(s.x), thaw(s.z)
    act(x, z, g)
    return StabilizerMatrix.from_rows(s.n, x, z)


def apply_circuit(s: StabilizerMatrix, c: Circuit) -> StabilizerMatrix:
    for g in c.templates:
        s = apply(s, g)
    return s


def swap_templates(i: int, j: int) -> list[GateTemplate]:
    """An in-block qubit swap realized as three offset-0 CNOTs."""
    return [
        GateTemplate(CNOT, i, j, 0),
        GateTemplate(CNOT, j, i, 0),
        GateTemplate(CNOT, i, j, 0),
    ]


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
    layers = 0
    mode = None  # "diag" | "h" | None
    used: set[int] = set()
    for g in c.templates:
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
            layers += 1
            mode = None
    return Schedule(layers, c.memory)


# ---------------------------------------------------------------------------
# circuit text format


def format_circuit(c: Circuit) -> str:
    lines = [f"n={c.n}"]
    lines.extend(_FORMATS[g.kind].format(g.i, g.j, g.ell) for g in c.templates)
    return "\n".join(lines) + "\n"


def parse_circuit(text: str) -> Circuit:
    lines = _strip_comments(text)
    if not lines or not lines[0].startswith("n="):
        raise ParseError("circuit file must start with n=<int>")
    try:
        n = parse_int(lines[0][2:])
    except ValueError:
        raise ParseError(f"bad circuit header {lines[0]!r}") from None
    templates = []
    for line in lines[1:]:
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
            g = GateTemplate(kind, *values)
        except ValueError as exc:
            raise ParseError(f"bad template {line!r}: {exc}") from None
        if fields:
            raise ParseError(f"unexpected fields {sorted(fields)} in {line!r}")
        templates.append(g)
    try:
        return Circuit(n, templates)
    except ValueError as exc:
        raise ParseError(str(exc)) from None
