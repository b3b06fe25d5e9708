"""Exact arithmetic over GF(2) for polynomials and Laurent polynomials.

Polynomials are int bitsets: bit k holds the coefficient of D^k.  A Laurent
polynomial is a polynomial body plus an integer offset (its lowest exponent),
so every nonzero value is D^offset * body with body having constant term 1.
This makes equality a plain structural comparison and keeps every operation
exact.  The public constructor LaurentPoly(offset, bits) normalizes its
input and checks the span through `_normal`, as a division's quotient and
remainder do; sums, products, shifts and reciprocals are
normalized by construction and span-checked before they are built, so they
bypass the constructor.  The fused updates d + e*D^k (`add_shifted`) and
d + g*e (`add_product`) build only their result, through the same sum as
`+`, and raise where the two operators would.  Every span check reads the
limit of the current scope, which `span_limit` sets for a block.

The textual grammar shared by all file formats:

    term       := "0" | "1" | "D" | "D^" integer     (integer may be negative)
    polynomial := term ("+" term)*

Whitespace is ignored and duplicate terms cancel (XOR).  An integer is
ASCII: an optional sign and digits, no digit separators (`parse_int`).
GF(4) entries put an optional coefficient in front of each term and read
the rest here.
"""

from __future__ import annotations

from contextlib import AbstractContextManager, contextmanager
from contextvars import ContextVar
from typing import Iterable, Iterator, Optional

from .errors import ExponentOverflowError, ParseError

# the exponent-span limit of the current scope, which `span_limit` sets:
# runaway degree growth raises ExponentOverflowError instead of exhausting
# memory.  A thread starts from the default, an asyncio task from its
# creator's limit.
_MAX_SPAN: ContextVar[int] = ContextVar("max_span", default=1 << 16)
max_span = _MAX_SPAN.get  # the reader, bound once


def span_limit(limit: int) -> AbstractContextManager[int]:
    """Set the span limit for a `with` block and restore the enclosing
    limit on exit, also when the block raises, as `decimal.localcontext`
    scopes a precision.  A limit below 1 raises ValueError at the call."""
    if limit < 1:
        raise ValueError("span limit must be positive")
    return _scoped_span(limit)


@contextmanager
def _scoped_span(limit: int) -> Iterator[int]:
    token = _MAX_SPAN.set(limit)
    try:
        yield limit
    finally:
        _MAX_SPAN.reset(token)


def _overflow(span: int, limit: int) -> ExponentOverflowError:
    return ExponentOverflowError(f"polynomial span {span} exceeds limit {limit}")


def _check_span(span: int) -> None:
    limit = max_span()
    if span > limit:
        raise _overflow(span, limit)


# ---------------------------------------------------------------------------
# bit-level kernels


def _mul_bits(a: int, b: int) -> int:
    if a < b:
        a, b = b, a
    acc = 0
    while b:
        if b & 1:
            acc ^= a
        a <<= 1
        b >>= 1
    return acc


def _divmod_bits(a: int, b: int) -> tuple[int, int]:
    if b == 0:
        raise ZeroDivisionError("division by zero polynomial")
    # each step clears a's leading bit, jumping straight to the next one
    dn = b.bit_length() - 1
    q = 0
    while (shift := a.bit_length() - 1 - dn) >= 0:
        a ^= b << shift
        q |= 1 << shift
    return q, a


def _reverse_bits(bits: int) -> int:
    # bit k -> bit (L-1-k); used by reciprocal()
    if bits == 0:
        return 0
    return int(format(bits, "b")[::-1], 2)


# ---------------------------------------------------------------------------
# Poly: the non-negative-exponent subring


class Poly:
    """A polynomial over GF(2), stored as an int bitset."""

    __slots__ = ("bits",)

    def __init__(self, bits: int):
        if bits < 0:
            raise ValueError("polynomial bits must be non-negative")
        _check_span(bits.bit_length() - 1)
        object.__setattr__(self, "bits", bits)

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    def __reduce__(self):
        # copies and pickles rebuild through the constructor, not by setting
        # the slot, which __setattr__ forbids
        return Poly, (self.bits,)

    @classmethod
    def zero(cls) -> "Poly":
        return cls(0)

    @classmethod
    def one(cls) -> "Poly":
        return cls(1)

    @classmethod
    def d(cls) -> "Poly":
        """The indeterminate D."""
        return cls(2)

    @property
    def degree(self) -> int:
        """Polynomial degree; -1 for the zero polynomial."""
        return self.bits.bit_length() - 1

    def is_zero(self) -> bool:
        return self.bits == 0

    def coeff(self, e: int) -> int:
        if e < 0:
            return 0
        return (self.bits >> e) & 1

    def __bool__(self) -> bool:
        return self.bits != 0

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.bits == other.bits

    def __hash__(self) -> int:
        return hash(("Poly", self.bits))

    def __add__(self, other: "Poly") -> "Poly":
        return Poly(self.bits ^ other.bits)

    def __mul__(self, other: "Poly") -> "Poly":
        return Poly(_mul_bits(self.bits, other.bits))

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        q, r = _divmod_bits(self.bits, other.bits)
        return Poly(q), Poly(r)

    def __floordiv__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    def __str__(self) -> str:
        return format_terms(_exponents(self.bits, 0))

    def __repr__(self) -> str:
        return f"Poly({self})"


# ---------------------------------------------------------------------------
# LaurentPoly


def _exponents(bits: int, offset: int) -> Iterator[int]:
    # jump from one set bit to the next: one step per term, not per bit
    while bits:
        low = bits & -bits
        yield offset + low.bit_length() - 1
        bits ^= low


class LaurentPoly:
    """A Laurent polynomial over GF(2): D^offset times a body with body(0)=1.

    The zero value has offset 0 and empty body so that equality and hashing
    are purely structural.
    """

    __slots__ = ("offset", "bits")

    def __new__(cls, offset: int, bits: int) -> "LaurentPoly":
        if bits < 0:
            raise ValueError("body bits must be non-negative")
        return _normal(offset, bits)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    def __reduce__(self):
        return LaurentPoly, (self.offset, self.bits)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return L_ZERO

    @classmethod
    def one(cls) -> "LaurentPoly":
        return L_ONE

    @classmethod
    def d(cls, exponent: int = 1) -> "LaurentPoly":
        """The monomial D^exponent."""
        return cls(exponent, 1)

    @classmethod
    def from_exponents(cls, exps: Iterable[int]) -> "LaurentPoly":
        """The sum of D^e over `exps`, repeated terms cancelling, built in
        one step: exponents within the span limit are XORed into one body;
        wider ones cancel through a set first, and the survivors' span is
        checked before any bits are built."""
        exps = list(exps)
        if not exps:
            return L_ZERO
        lo = min(exps)
        if max(exps) - lo > max_span():
            survivors: set[int] = set()
            for e in exps:
                survivors ^= {e}
            if not survivors:
                return L_ZERO
            lo = min(survivors)
            _check_span(max(survivors) - lo)
            exps = list(survivors)
        bits = 0
        for e in exps:
            bits ^= 1 << e - lo
        return _normal(lo, bits)

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return self.bits == 0

    def __bool__(self) -> bool:
        return self.bits != 0

    @property
    def min_exp(self) -> int:
        if self.bits == 0:
            raise ValueError("zero Laurent polynomial has no exponents")
        return self.offset

    @property
    def max_exp(self) -> int:
        if self.bits == 0:
            raise ValueError("zero Laurent polynomial has no exponents")
        return self.offset + self.bits.bit_length() - 1

    @property
    def degree(self) -> int:
        """The exponent span |max_exp - min_exp|; undefined for zero."""
        if self.bits == 0:
            raise ValueError("degree of the zero Laurent polynomial is undefined")
        return self.bits.bit_length() - 1

    def coeff(self, e: int) -> int:
        k = e - self.offset
        if k < 0:
            return 0
        return (self.bits >> k) & 1

    def exponents(self) -> tuple[int, ...]:
        return tuple(_exponents(self.bits, self.offset))

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        return add_shifted(self, other, 0)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        if self.bits == 0 or other.bits == 0:
            return L_ZERO
        # spans add exactly over GF(2); check before building the product,
        # whose body is odd as both factors' are
        _check_span(self.bits.bit_length() + other.bits.bit_length() - 2)
        return _make(self.offset + other.offset, _mul_bits(self.bits, other.bits))

    def shifted(self, k: int) -> "LaurentPoly":
        """Multiply by D^k (shift by k blocks)."""
        if self.bits == 0 or k == 0:
            return self
        # the body is unchanged; its span is checked against the limit of
        # the current scope, which may be lower than where it was built
        _check_span(self.bits.bit_length() - 1)
        return _make(self.offset + k, self.bits)

    def reciprocal(self) -> "LaurentPoly":
        """The substitution D -> 1/D: each term c*D^e maps to c*D^(-e)."""
        if self.bits == 0:
            return self
        # the reversed body is odd and spans as far, checked against the
        # limit of the current scope as in shifted
        _check_span(self.bits.bit_length() - 1)
        return _make(1 - self.offset - self.bits.bit_length(), _reverse_bits(self.bits))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LaurentPoly)
            and self.bits == other.bits
            and self.offset == other.offset
        )

    def __hash__(self) -> int:
        return hash(("LaurentPoly", self.offset, self.bits))

    def __str__(self) -> str:
        return format_terms(_exponents(self.bits, self.offset))

    def __repr__(self) -> str:
        return f"LaurentPoly({self})"


_new = object.__new__
_set_offset = LaurentPoly.offset.__set__
_set_bits = LaurentPoly.bits.__set__


def _make(offset: int, bits: int) -> LaurentPoly:
    """A LaurentPoly from a body already normalized (odd, or 0 with offset
    0) and span-checked: the slots are written directly."""
    p = _new(LaurentPoly)
    _set_offset(p, offset)
    _set_bits(p, bits)
    return p


def _sum(lo: int, low: int, hi: int, high: int, limit: int) -> LaurentPoly:
    """D^lo * low + D^hi * high for nonzero bodies, in either order,
    normalized and checked against `limit`, the span limit its caller read
    once: the one sum that `LaurentPoly.__add__` and the fused updates
    build."""
    if hi < lo:
        lo, low, hi, high = hi, high, lo, low
    gap = hi - lo
    if gap > limit:
        # unless the tops meet too, no end cancels and the nominal span,
        # at least gap, is the sum's: raise before building bits that wide
        tops = (low.bit_length(), gap + high.bit_length())
        if tops[0] != tops[1]:
            raise _overflow(max(tops) - 1, limit)
    bits = low ^ (high << gap)
    if gap == 0:
        # equal offsets cancel the constant terms
        if bits == 0:
            return L_ZERO
        shift = (bits & -bits).bit_length() - 1
        bits >>= shift
        lo += shift
    span = bits.bit_length() - 1
    if span > limit:
        raise _overflow(span, limit)
    return _make(lo, bits)


def add_shifted(d: LaurentPoly, e: LaurentPoly, k: int) -> LaurentPoly:
    """d + e.shifted(k), with the same span checks in the same order and no
    intermediate value."""
    if e.bits == 0:
        return d
    limit = max_span()
    if k and e.bits.bit_length() - 1 > limit:
        raise _overflow(e.bits.bit_length() - 1, limit)
    offset = e.offset + k
    if d.bits == 0:
        return _make(offset, e.bits) if k else e
    return _sum(d.offset, d.bits, offset, e.bits, limit)


def add_product(d: LaurentPoly, g: LaurentPoly, e: LaurentPoly) -> LaurentPoly:
    """d + g * e, with the same span checks in the same order and no
    intermediate value."""
    if g.bits == 0 or e.bits == 0:
        return d
    limit = max_span()
    span = g.bits.bit_length() + e.bits.bit_length() - 2
    if span > limit:
        raise _overflow(span, limit)
    offset, bits = g.offset + e.offset, _mul_bits(g.bits, e.bits)
    if d.bits == 0:
        return _make(offset, bits)
    return _sum(d.offset, d.bits, offset, bits, limit)


L_ZERO = _make(0, 0)
L_ONE = _make(0, 1)


def _normal(offset: int, bits: int) -> LaurentPoly:
    """D^offset * bits for bits >= 0: its trailing zeros moved into the
    offset, span-checked.  The public constructor builds through it."""
    if bits == 0:
        return L_ZERO
    shift = (bits & -bits).bit_length() - 1
    bits >>= shift
    _check_span(bits.bit_length() - 1)
    return _make(offset + shift, bits)


def laurent_divmod(a: LaurentPoly, b: LaurentPoly) -> tuple[LaurentPoly, LaurentPoly]:
    """Euclidean division in GF(2)[D, D^-1] with the span as degree.

    Returns (q, rem) with a = q*b + rem and span(rem) < span(b), or rem = 0.
    Units (monomials) divide everything exactly: the quotient is a shifted,
    span-checked as the general path checks it, and the remainder is zero.
    """
    if b.bits == 0:
        raise ZeroDivisionError("division by zero Laurent polynomial")
    if a.bits == 0:
        return L_ZERO, L_ZERO
    if b.bits == 1:
        _check_span(a.bits.bit_length() - 1)
        return _make(a.offset - b.offset, a.bits), L_ZERO
    q_bits, r_bits = _divmod_bits(a.bits, b.bits)
    return _normal(a.offset - b.offset, q_bits), _normal(a.offset, r_bits)


def laurent_div(a: LaurentPoly, b: LaurentPoly) -> Optional[LaurentPoly]:
    """Exact quotient a/b over the Laurent ring, or None if b does not divide
    a; a monomial b takes `laurent_divmod`'s path for units."""
    if b.bits == 0:
        return None
    if a.bits == 0:
        return L_ZERO
    q, rem = laurent_divmod(a, b)
    return q if rem.bits == 0 else None


def laurent_divides(a: LaurentPoly, b: LaurentPoly) -> bool:
    """Divisibility over the Laurent ring: tested on bodies, units stripped."""
    if a.bits == 0:
        return b.bits == 0
    if b.bits == 0 or a.bits == 1:
        return True
    return _divmod_bits(b.bits, a.bits)[1] == 0


def symmetric_decompose(a: LaurentPoly) -> Optional[tuple[bool, tuple[int, ...]]]:
    """Decompose a symmetric Laurent polynomial as c0 + sum of (D^-l + D^l).

    Returns (c0, positive exponents) or None when a is not symmetric.
    """
    if a.reciprocal() != a:
        return None
    return a.coeff(0) == 1, tuple(e for e in a.exponents() if e > 0)


# ---------------------------------------------------------------------------
# textual grammar


_TERMS = {"0": None, "1": 0, "D": 1}
# the messages for a bad term and for a bad exponent, given the whole term
_TERM_ERRORS = ("bad polynomial term {!r}", "bad exponent in term {!r}")


def parse_int(text: str) -> int:
    """A decimal integer as every file format and option writes it: ASCII
    text without digit separators, read by `int`; ValueError otherwise."""
    if not text.isascii() or "_" in text:
        raise ValueError(f"bad integer {text!r}")
    return int(text)


def _exponent(term: str, whole: str = "", errors: tuple[str, str] = _TERM_ERRORS) -> Optional[int]:
    """The exponent of one whitespace-free term; None for "0".  Errors name
    `whole` (the term itself when empty) in the `errors` messages: a GF(4)
    term reads its monomial here and names itself with its coefficient."""
    if term in _TERMS:
        return _TERMS[term]
    if not term.startswith("D^"):
        raise ParseError(errors[0].format(whole or term))
    try:
        return parse_int(term[2:])
    except ValueError:
        raise ParseError(errors[1].format(whole or term)) from None


def parse_poly(text: str) -> LaurentPoly:
    """The polynomial grammar read into a LaurentPoly: "0" is zero, a term
    its monomial.  A sum reads every term first, so a bad term raises before
    any span check, and is built by `LaurentPoly.from_exponents`."""
    squeezed = "".join(text.split())
    if "+" not in squeezed:
        if squeezed == "0":
            return L_ZERO
        if not squeezed:
            raise ParseError("empty polynomial")
        return _make(_exponent(squeezed), 1)
    exps = [e for e in map(_exponent, squeezed.split("+")) if e is not None]
    return LaurentPoly.from_exponents(exps)


def format_terms(exps: Iterable[int]) -> str:
    """Canonical printing of ascending exponents, '+'-joined."""
    parts = []
    for e in exps:
        if e == 0:
            parts.append("1")
        elif e == 1:
            parts.append("D")
        else:
            parts.append(f"D^{e}")
    return "+".join(parts) if parts else "0"
