"""Oracle tests for the one-pass parsers: `parse_poly`, `parse_stabilizer`
with its row patterns (binary rows and GF(4) blocks), `parse_circuit` and
the template checks, each against the term-by-term reference in `helpers`.
Inputs are drawn texts (whitespace inside terms, `0` terms, repeated and
negative exponents, GF(4) coefficients, empty rows, bad terms and fields)
and seeded one-character mutations of every golden stabilizer and circuit
file in tests/data and of the rate-1/3 code's GF(4) text.  A circuit line
that matches its kind's canonical pattern is read in one step, and every
other line field by field: the two paths are compared line by line on the
golden circuits' lines and their field-level mutants.  Every
comparison requires an equal value, or an exception of the same type and
message."""

from collections import Counter
from contextlib import nullcontext
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    RATE_THIRD_F4,
    mutations,
    outcome,
    parse_laurent,
    reference_f4_entry,
    reference_parse_circuit,
    reference_parse_stabilizer,
    reference_row_patterns,
    reference_template,
)
from qconvenc.gates import _LINES, GateTemplate, _line_term, _parsed_term, parse_circuit
from qconvenc.poly import parse_poly, span_limit
from qconvenc.stabilizer import _parse_f4_entry, parse_stabilizer, row_patterns

DATA = Path(__file__).parent / "data"

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=300)
# whole files take many draws each
FILES = settings(PROPERTY, max_examples=150)


def same_polynomial(text: str) -> None:
    assert outcome(parse_poly, text) == outcome(parse_laurent, text)


def same_stabilizer(text: str) -> None:
    got, want = outcome(parse_stabilizer, text), outcome(reference_parse_stabilizer, text)
    assert got == want
    if got[0] == "ok":
        s = got[1]
        assert outcome(row_patterns, s) == outcome(reference_row_patterns, s)


def same_circuit(text: str) -> None:
    got, want = outcome(parse_circuit, text), outcome(reference_parse_circuit, text)
    assert got == want
    if got[0] == "ok":
        assert got[1].memory == max((abs(g.ell) for g in want[1].templates), default=0)


def under_limit(limit, check, *args) -> None:
    """`check(*args)` with the span limit lowered to `limit` (None: as is)."""
    with span_limit(limit) if limit else nullcontext():
        check(*args)


# -- drawn texts -----------------------------------------------------------------

spaces = st.sampled_from(("", "", "", " ", "  ", "\t"))


def spaced(draw, term: str) -> str:
    """`term` with whitespace drawn around it and at one place inside."""
    at = draw(st.integers(0, len(term)))
    return draw(spaces) + term[:at] + draw(spaces) + term[at:]


exponent_terms = st.integers(-6, 6).map(lambda e: f"D^{e}")
bad_terms = st.sampled_from(("D^50000000", "D^-50000000", "D^1_0", "x", "d", "2", "D^", "D^+", "D**2", ""))


@st.composite
def terms(draw) -> str:
    """One term, with whitespace anywhere inside it; mostly good ones."""
    return spaced(draw, draw(st.one_of(st.sampled_from(("0", "1", "D")), exponent_terms, bad_terms)))


@st.composite
def polynomials(draw) -> str:
    return "+".join(draw(st.lists(terms(), min_size=1, max_size=5)))


@st.composite
def stabilizer_texts(draw) -> str:
    n, r = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    lines = [f"n={n} r={r}"]
    for _ in range(r + draw(st.sampled_from((0, 0, 0, -1, 1)))):
        empty = draw(st.booleans())
        sides = [
            ", ".join("0" if empty else draw(polynomials()) for _ in range(n + draw(st.sampled_from((0, 0, 0, 1)))))
            for _ in range(2)
        ]
        lines.append(f"row: {sides[0]} | {sides[1]}")
    return "\n".join(lines) + "\n"


@st.composite
def f4_terms(draw) -> str:
    """One GF(4) term: a coefficient 1, w or W (or none, or a bad one)
    before "0", "", D or D^k, or a bad term, with whitespace anywhere
    inside it."""
    coefficient = draw(st.sampled_from(("", "", "1", "w", "W", "x")))
    monomial = draw(st.one_of(st.sampled_from(("0", "", "D")), exponent_terms, bad_terms))
    return spaced(draw, coefficient + monomial)


@st.composite
def f4_entries(draw) -> str:
    return "+".join(draw(st.lists(f4_terms(), min_size=1, max_size=4)))


@st.composite
def f4_texts(draw) -> str:
    n = draw(st.integers(1, 3))
    lines = [f"f4 n={n}"]
    for _ in range(draw(st.sampled_from((1, 1, 2, 0)))):
        count = n + draw(st.sampled_from((0, 0, 0, 1)))
        lines.append("row: " + ", ".join(draw(f4_entries()) for _ in range(count)))
    return "\n".join(lines) + "\n"


FIELD_KEYS = ("q", "l", "c", "t", "off", "a", "b", "z")


@st.composite
def circuit_lines(draw) -> str:
    kind = draw(st.sampled_from(("H", "P", "PL", "CNOT", "CSIGN", "CNOT", "CSIGN", "X")))
    fields = []
    for _ in range(draw(st.integers(0, 4))):
        key = draw(st.sampled_from(FIELD_KEYS))
        value = draw(st.one_of(st.integers(-3, 5).map(str), st.sampled_from(("", "1x", "+2", "-0"))))
        fields.append(draw(st.sampled_from((f"{key}={value}", f"{key}={value}", key, f"{key}=={value}"))))
    return " ".join([kind, *fields])


@st.composite
def circuit_texts(draw) -> str:
    header = draw(st.sampled_from(("n=3", "n=3", "n=3", "n=2", "n=0", "n=x", "m=3")))
    lines = [header, *draw(st.lists(circuit_lines(), max_size=6))]
    return "\n".join(lines) + "\n"


limits = st.sampled_from((None, None, 4, 8))


@PROPERTY
@given(text=polynomials(), limit=limits)
@example(text="0+D", limit=None)
@example(text="D^-2 + D ^ -2 + 1", limit=None)
@example(text="D^50000000+D^50000000+1", limit=16)
@example(text="D^-3+D^5+D^-3", limit=4)
@example(text=" ", limit=None)
def test_polynomial_matches_reference(text, limit):
    under_limit(limit, same_polynomial, text)


@FILES
@given(text=stabilizer_texts(), limit=limits)
@example(text="n=2 r=2\nrow: 0, 0 | 0, 0\nrow: D^-2+0, D | 1, 0+D\n", limit=None)
@example(text="n=2 r=1\nrow: , | , \n", limit=None)
def test_stabilizer_matches_reference(text, limit):
    under_limit(limit, same_stabilizer, text)


def same_f4_entry(text: str) -> None:
    assert outcome(_parse_f4_entry, text) == outcome(reference_f4_entry, text)


@PROPERTY
@given(text=f4_entries(), limit=limits)
@example(text="w + W + 1", limit=None)
@example(text="+wD^-2", limit=None)
@example(text="wD^50000000 + W", limit=16)
@example(text="1w", limit=None)
def test_f4_entry_matches_reference(text, limit):
    under_limit(limit, same_f4_entry, text)


@FILES
@given(text=f4_texts(), limit=limits)
@example(text=RATE_THIRD_F4, limit=None)
@example(text="f4 n=2\nrow: 0, 0\n", limit=None)
def test_f4_stabilizer_matches_reference(text, limit):
    under_limit(limit, same_stabilizer, text)


@FILES
@given(circuit_texts())
@example("n=3\nCNOT c=2x t=3 t=1 off=0\n")
@example("n=3\nPL q=1 l=0\n")
def test_circuit_matches_reference(text):
    same_circuit(text)


@PROPERTY
@given(
    kind=st.sampled_from(("H", "P", "PL", "CNOT", "CSIGN", "X")),
    i=st.integers(-1, 3),
    j=st.integers(-1, 3),
    ell=st.integers(-2, 2),
)
def test_template_checks_match_reference(kind, i, j, ell):
    assert outcome(GateTemplate, kind, i, j, ell) == outcome(reference_template, kind, i, j, ell)


# -- mutated goldens -------------------------------------------------------------

GOLDEN_STABILIZERS = sorted(p.name for p in DATA.glob("*.stab"))
GOLDEN_CIRCUITS = sorted(p.name for p in DATA.glob("*.enc"))


@pytest.mark.parametrize("name", GOLDEN_STABILIZERS)
def test_mutated_golden_stabilizers_match_reference(name):
    text = (DATA / name).read_text(encoding="utf-8")
    same_stabilizer(text)
    for k, mutant in enumerate(mutations(text, 1900 + len(name), 300)):
        under_limit((None, 8)[k % 2], same_stabilizer, mutant)


F4_TEXTS = {
    "rate_third_f4": RATE_THIRD_F4,
    "wide_f4.stab": (DATA / "wide_f4.stab").read_text(encoding="utf-8"),
}


@pytest.mark.parametrize("name", sorted(F4_TEXTS))
def test_mutated_f4_texts_match_reference(name):
    text = F4_TEXTS[name]
    same_stabilizer(text)
    for k, mutant in enumerate(mutations(text, 2100 + len(name), 600)):
        under_limit((None, 8)[k % 2], same_stabilizer, mutant)


@pytest.mark.parametrize("name", GOLDEN_CIRCUITS)
def test_mutated_golden_circuits_match_reference(name):
    text = (DATA / name).read_text(encoding="utf-8")
    same_circuit(text)
    for mutant in mutations(text, 1900 + len(name), 300):
        same_circuit(mutant)


# -- the canonical line path ----------------------------------------------------

GOLDEN_LINES = sorted(
    {
        line.strip()
        for name in GOLDEN_CIRCUITS
        for line in (DATA / name).read_text(encoding="utf-8").splitlines()[1:]
        if line.strip()
    }
)


def line_mutants(line: str) -> list[str]:
    """`line` with its fields moved, spaced, renamed or rewritten: every
    value signed, zero-padded, negated to -0, split by `_` or written in
    non-ASCII digits, each field dropped, repeated or joined by an unknown
    one, and the first two fields' values swapped (CSIGN with a > b) or
    raised past any stream count."""
    kind, *fields = line.split(" ")
    pairs = [field.partition("=")[::2] for field in fields]

    def joined(items, sep=" "):
        return sep.join([kind, *(f"{key}={val}" for key, val in items)])

    out = [line, line.replace(" ", "\t"), line.replace(" ", "  "), line + " ", f"{kind}"]
    out += [joined(pairs[::-1]), joined(pairs[1:] + pairs[:1]), joined(pairs + [("x", "1")])]
    for k, (key, val) in enumerate(pairs):
        digits = val.lstrip("-")
        for new in (
            f"+{val}",
            f"-00{digits}" if val.startswith("-") else f"00{val}",
            "-0",
            "0",
            "-",
            "",
            f"{val}_0",
            f"1_{digits}",
            digits.translate(str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")),
            digits.translate(str.maketrans("0123456789", "０１２３４５６７８９")),
            f"{val}x",
            "99",
            "-3",
            "1" * 5000,
        ):
            out.append(joined(pairs[:k] + [(key, new)] + pairs[k + 1 :]))
        out.append(joined(pairs[:k] + pairs[k + 1 :]))
        out.append(joined(pairs[: k + 1] + [(key, val)] + pairs[k + 1 :]))
        out.append(joined(pairs[:k] + [(key.upper(), val)] + pairs[k + 1 :]))
        out.append(joined(pairs[:k] + [(key, val), ("", "")] + pairs[k + 1 :]))
    if len(pairs) > 1:
        (a, x), (b, y), *rest = pairs
        out.append(joined([(a, y), (b, x), *rest]))
    return out


def test_canonical_lines_read_as_field_by_field():
    # the same term, or a ParseError with the same message, on every golden
    # line and its mutants, a PL l=0 and a CSIGN with a > b among them
    lines = [mutant for line in GOLDEN_LINES for mutant in line_mutants(line)]
    lines += ["PL q=1 l=0", "PL q=1 l=-0", "CSIGN a=3 b=1 off=2", "CSIGN a=2 b=2 off=0", "X q=1", "P q=0"]
    matched = Counter()
    for line in lines:
        got = outcome(_line_term, line)
        assert got == outcome(_parsed_term, line), line
        match = _LINES.get(line.partition(" ")[0])
        if match and match(line):
            matched[line.partition(" ")[0], got[0] == "ok"] += 1
    assert len(GOLDEN_LINES) > 100 and len(lines) > 7000
    # every kind takes the one-step path, and lines whose values the
    # template checks reject fall back to the field-by-field errors
    assert all(matched[kind, True] >= 5 for kind in ("H", "P", "PL", "CNOT", "CSIGN"))
    assert all(matched[kind, False] > 0 for kind in ("P", "PL", "CSIGN"))


def test_circuits_of_mutated_lines_match_reference():
    # whole circuits of mutated golden lines, some past n=3's streams
    for line in GOLDEN_LINES:
        for mutant in line_mutants(line)[:12]:
            same_circuit(f"n=3\n{line}\n{mutant}\n")
