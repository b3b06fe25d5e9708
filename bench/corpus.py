"""Seeded input corpora and their known answers.

Everything here is independent of the package under test: codes are built
by applying gate templates to a (0 | G 0) shape with a small Laurent
polynomial implementation of the column actions documented in
`qconvenc.gates`, and answers are computed from how the code was built.
Polynomials are frozensets of exponents; a matrix is a list of rows.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# (n, r, templates, max offset) rungs of the gate-built ladder
LADDER_RUNGS = ((4, 3, 12, 2), (6, 4, 30, 3), (8, 6, 60, 3), (12, 8, 120, 4))

KINDS = ("H", "P", "PL", "CNOT", "CSIGN", "CNOT", "CSIGN")


@dataclass(frozen=True)
class Template:
    kind: str
    i: int
    j: int = 0
    ell: int = 0

    def reach(self) -> int:
        return abs(self.ell)


@dataclass(frozen=True)
class Code:
    """One generated input: file text plus what is known about it."""

    name: str
    n: int
    text: str
    # synth-proper only: product of the seeded diagonal polynomials, as bits
    divisor_product: int = 0


def _shift(a: frozenset, k: int) -> frozenset:
    return frozenset(e + k for e in a)


def apply_template(x: list, z: list, g: Template) -> None:
    """In-place column action of one template on (X | Z)."""
    i = g.i - 1
    j = g.j - 1
    for row_x, row_z in zip(x, z):
        if g.kind == "H":
            row_x[i], row_z[i] = row_z[i], row_x[i]
        elif g.kind == "P":
            row_z[i] = row_z[i] ^ row_x[i]
        elif g.kind == "PL":
            row_z[i] = row_z[i] ^ _shift(row_x[i], -g.ell) ^ _shift(row_x[i], g.ell)
        elif g.kind == "CNOT":
            row_x[j] = row_x[j] ^ _shift(row_x[i], g.ell)
            row_z[i] = row_z[i] ^ _shift(row_z[j], -g.ell)
        else:  # CSIGN
            row_z[j] = row_z[j] ^ _shift(row_x[i], g.ell)
            row_z[i] = row_z[i] ^ _shift(row_x[j], -g.ell)


def random_template(rng: random.Random, n: int, max_off: int) -> Template:
    kind = rng.choice(KINDS)
    ell = rng.randint(-max_off, max_off)
    if kind in ("H", "P"):
        return Template(kind, rng.randint(1, n))
    if kind == "PL":
        return Template("PL", rng.randint(1, n), 0, rng.randint(1, max_off))
    i, j = rng.sample(range(1, n + 1), 2)
    return Template(kind, i, j, ell)


# field names of each gate kind in the circuit file format
_FIELDS = {"H": ("q",), "P": ("q",), "PL": ("q", "l"), "CNOT": ("c", "t", "off"), "CSIGN": ("a", "b", "off")}


def parse_templates(text: str) -> list[Template]:
    """Templates of a circuit file (the header line is skipped)."""
    out = []
    for line in text.splitlines()[1:]:
        parts = line.split()
        if not parts:
            continue
        values = dict(p.split("=", 1) for p in parts[1:])
        nums = [int(values[k]) for k in _FIELDS[parts[0]]]
        if parts[0] in ("H", "P"):
            out.append(Template(parts[0], nums[0]))
        elif parts[0] == "PL":
            out.append(Template("PL", nums[0], 0, nums[1]))
        else:
            out.append(Template(parts[0], *nums))
    return out


def format_poly(p: frozenset) -> str:
    if not p:
        return "0"
    terms = []
    for e in sorted(p):
        terms.append("1" if e == 0 else "D" if e == 1 else f"D^{e}")
    return "+".join(terms)


def format_code(n: int, x: list, z: list) -> str:
    lines = [f"n={n} r={len(x)}"]
    for row_x, row_z in zip(x, z):
        left = ", ".join(format_poly(e) for e in row_x)
        right = ", ".join(format_poly(e) for e in row_z)
        lines.append(f"row: {left} | {right}")
    return "\n".join(lines) + "\n"


def _scrambled(
    rng: random.Random, n: int, diag: list[frozenset], count: int, max_off: int
) -> str:
    """(0 | diag 0) scrambled by `count` random templates."""
    r = len(diag)
    x = [[frozenset() for _ in range(n)] for _ in range(r)]
    z = [[diag[i] if c == i else frozenset() for c in range(n)] for i in range(r)]
    for _ in range(count):
        apply_template(x, z, random_template(rng, n, max_off))
    return format_code(n, x, z)


def ladder_code(rng: random.Random, rung: tuple[int, int, int, int], name: str) -> Code:
    """A gate-built code on one ladder rung: every divisor is a power of D."""
    n, r, count, max_off = rung
    text = _scrambled(rng, n, [frozenset({0})] * r, count, max_off)
    return Code(name, n, text)


def gf2_mod(a: int, b: int) -> int:
    """Remainder of GF(2) polynomial division, on int bitsets."""
    db = b.bit_length()
    while a.bit_length() >= db:
        a ^= b << (a.bit_length() - db)
    return a


def random_irreducible(rng: random.Random, deg: int) -> int:
    """A random irreducible GF(2) polynomial of prime degree `deg`.

    For prime d, f is irreducible exactly when it has no root in GF(2)
    (constant term 1 and an odd number of terms) and x^(2^d) = x mod f
    (Rabin's test).
    """
    while True:
        f = random_body(rng, deg)
        if f.bit_count() % 2 == 0:
            continue
        power = 0b10
        for _ in range(deg):
            power = gf2_mod(clmul(power, power), f)
        if power == 0b10:
            return f


def clmul(a: int, b: int) -> int:
    """Carry-less product of two GF(2) polynomials stored as int bitsets."""
    acc = 0
    while b:
        if b & 1:
            acc ^= a
        a <<= 1
        b >>= 1
    return acc


def random_body(rng: random.Random, deg: int) -> int:
    """A random GF(2) polynomial of degree `deg` with constant term 1."""
    return 1 << deg | rng.getrandbits(deg - 1) << 1 | 1


def proper_code(
    rng: random.Random, n: int, r: int, deg: int, irreducible: bool,
    count: int, max_off: int, name: str,
) -> Code:
    """(0 | diag(g_1..g_r) 0) with random g_i of degree `deg` (irreducible
    ones if asked), scrambled by `count` random templates."""
    draw = random_irreducible if irreducible else random_body
    bodies = [draw(rng, deg) for _ in range(r)]
    diag = [frozenset(e for e in range(b.bit_length()) if b >> e & 1) for b in bodies]
    text = _scrambled(rng, n, diag, count, max_off)
    product = 1
    for b in bodies:
        product = clmul(product, b)
    return Code(name, n, text, divisor_product=product)


# the paper's rate-1/3 worked example and its frozen CLI answers
WORKED_EXAMPLE = """n=3 r=2
row: 1+D, 1, 1+D | 0, D, D
row: 0, D, D | 1+D, 1+D, 1
"""
WORKED_GAMMA = "gamma: diag(1, D)"
WORKED_MEMORY = 2
WORKED_PROPAGATION = (12, 13, 13)
WORKED_WINDOWS = "5,10,20"
