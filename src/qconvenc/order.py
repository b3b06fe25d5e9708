"""The multiplicative order of D modulo a polynomial over GF(2): the period
of the power series of 1/body, found without walking the period (Lidl and
Niederreiter, *Finite Fields*, ch. 3).

Bodies are int bitsets with constant term 1, as in `poly`.  The order is
read off body's factors:

  1. the radical, the product of body's distinct irreducible factors, from
     gcds with derivatives, and the least t with body dividing
     radical^(2^t), so that 2^t is at least every factor's multiplicity;
  2. distinct-degree factorization of the radical: the product g_j of its
     irreducible factors of degree j is the gcd of what is left with
     D^(2^j) - D.  D has order dividing 2^j - 1 modulo each factor, so
     modulo g_j too, and that order is 2^j - 1 divided by each of its prime
     factors p while D^(N/p) = 1 modulo g_j (the order-of-an-element
     algorithm, Menezes, van Oorschot and Vanstone, *Handbook of Applied
     Cryptography*, 4.79);
  3. the order modulo body is the lcm over j, times 2^t.

Two fixed budgets bound the work.  The polynomial arithmetic of one body
may take `_STEP_BUDGET` bit steps, each one shift-and-XOR of a reduction.
Factoring one 2^j - 1 may take `_FACTOR_BUDGET` trial divisions and as
many Pollard rho iterations; primes are proven by trial division, by
Miller-Rabin below the bound where its fixed bases decide, or by
Lucas-Lehmer for 2^j - 1 itself.  A budget that runs out leaves a result
that is only proven to be a multiple of the order, or no result at all.
"""

from __future__ import annotations

from functools import cache
from math import gcd, lcm
from typing import Optional

from .poly import _divmod_bits, _mul_bits

# bit steps of polynomial arithmetic for one body
_STEP_BUDGET = 1 << 19
# trial divisions, and then rho iterations, for one 2^j - 1
_FACTOR_BUDGET = 1 << 14
# Miller-Rabin with the first 13 prime bases decides primality below this
# bound (Sorenson and Webster, 2015)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_DECIDES_BELOW = 3317044064679887385961981
# rho iterations between two gcds
_RHO_BATCH = 128


class _Exhausted(Exception):
    """The step budget ran out."""


class _Steps:
    """What is left of one body's step budget."""

    __slots__ = ("left",)

    def __init__(self, left: int):
        self.left = left

    def spend(self, n: int) -> None:
        self.left -= n
        if self.left < 0:
            raise _Exhausted


def order_of_d(body: int) -> tuple[int, bool]:
    """(N, True) with N the multiplicative order of D modulo body, for a
    body of degree >= 1 with constant term 1; (N, False) when a budget ran
    out and N is only proven to be a multiple of the order; (0, False) when
    the step budget ran out before any multiple was found."""
    steps = _Steps(_STEP_BUDGET)
    try:
        rad = _radical(body, steps)
        t, power = 0, rad
        while power.bit_length() < body.bit_length() or _mod(power, body):
            power = _square(power)
            t += 1
            steps.spend(power.bit_length())
        parts = _distinct_degree(rad, steps)
    except _Exhausted:
        return 0, False
    orders = [(1 << j) - 1 for j, _ in parts]
    exact = True
    try:
        for k, (j, g) in enumerate(parts):
            primes, unsplit = _mersenne_factors(j)
            for q in primes + unsplit:
                while orders[k] % q == 0 and _pow_d(orders[k] // q, g, steps) == 1:
                    orders[k] //= q
            # a piece left unsplit may hide a prime the order can lose
            exact = exact and all(gcd(orders[k], u) == 1 for u in unsplit)
    except _Exhausted:
        exact = False
    return lcm(*orders) << t, exact


# -- GF(2)[D] on int bitsets ---------------------------------------------------


def _square(a: int) -> int:
    # squaring over GF(2) moves bit k to bit 2k
    return int("0".join(format(a, "b")), 2)


# The helpers below charge nothing; their callers spend an upper bound on
# the shift-and-XOR steps first: a.bit_length() for a mod m or a // m, and
# a.bit_length() + b.bit_length() for all of Euclid's divisions together,
# since each step lowers the degree of the pair's larger member.


def _mod(a: int, m: int) -> int:
    # the remainder alone: `_divmod_bits` also builds a quotient, which
    # costs these loops about a third more
    dm = m.bit_length()
    while (shift := a.bit_length() - dm) >= 0:
        a ^= m << shift
    return a


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, _mod(a, b)
    return a


def _radical(f: int, steps: _Steps) -> int:
    """The product of f's distinct irreducible factors, for f of degree >= 1."""
    while True:
        # the derivative keeps the odd-degree terms, one degree down
        df = (f >> 1) & ((1 << (f.bit_length() + 1 & ~1)) - 1) // 3
        if df:
            break
        # f is a square: every term has even degree
        f = int(format(f, "b")[::2], 2)
    steps.spend(3 * f.bit_length())
    g = _gcd(f, df)
    # the factors of odd multiplicity; the others all divide g
    odd = _divmod_bits(f, g)[0]
    if g == 1:
        return odd
    rest = _radical(g, steps)
    steps.spend(3 * f.bit_length())
    return _mul_bits(odd, _divmod_bits(rest, _gcd(rest, odd))[0])


def _distinct_degree(r: int, steps: _Steps) -> list[tuple[int, int]]:
    """(j, g_j) for each degree j of the squarefree r's irreducible factors,
    g_j their product."""
    parts = []
    h, j = 2, 0  # h = D^(2^j) mod r
    while r.bit_length() > 2 * j + 2:
        j += 1
        # reducing the square takes at most r.bit_length() steps, the gcd
        # twice that, and splitting g off as much again
        steps.spend(3 * r.bit_length())
        h = _mod(_square(h), r)
        g = _gcd(r, h ^ 2)
        if g != 1:
            parts.append((j, g))
            steps.spend(2 * r.bit_length())
            r = _divmod_bits(r, g)[0]
            h = _mod(h, r)
    if r != 1:
        parts.append((r.bit_length() - 1, r))
    return parts


def _pow_d(e: int, m: int, steps: _Steps) -> int:
    """D^e mod m, by squaring and shifting."""
    bits = format(e, "b")
    steps.spend(2 * len(bits) * m.bit_length())
    top = m.bit_length() - 1
    h = 1
    for bit in bits:
        h = _mod(_square(h), m)
        if bit == "1":
            h <<= 1
            if h >> top:
                h ^= m
    return h


# -- the prime factors of 2^j - 1 ----------------------------------------------


@cache
def _mersenne_factors(j: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The proven prime factors of 2^j - 1, and the factors its budget left
    unsplit.  Keys are degrees of irreducible factors, which the step
    budget keeps small."""
    primes: set[int] = set()
    unsplit: set[int] = set()
    # a prime whose order of 2 is a proper divisor a of j divides 2^a - 1
    for a in range(1, j // 2 + 1):
        if j % a == 0:
            p, u = _mersenne_factors(a)
            primes.update(p)
            unsplit.update(u)
    rest = (1 << j) - 1
    for q in (*primes, *unsplit):
        while (g := gcd(rest, q)) > 1:
            rest //= g
    # the other primes have order j, so they are 1 modulo j and odd
    step = j if j % 2 == 0 else 2 * j
    p = 1
    for _ in range(_FACTOR_BUDGET):
        p += step
        if p * p > rest:
            break
        # the first candidate to divide rest is prime: a smaller prime
        # factor would be a smaller candidate
        while rest % p == 0:
            primes.add(p)
            rest //= p
    else:
        p = 0
    if rest > 1 and p * p > rest:
        # no candidate up to its square root divides it
        primes.add(rest)
        rest = 1
    todo, budget = [rest] if rest > 1 else [], _FACTOR_BUDGET
    while todo:
        n = todo.pop()
        verdict = _lucas_lehmer(j) if n == (1 << j) - 1 and _is_prime(j) else _is_prime(n)
        if verdict:
            primes.add(n)
            continue
        factor = None
        if verdict is False:
            factor, budget = _rho(n, budget)
        if factor is None:
            unsplit.add(n)
        else:
            todo += [factor, n // factor]
    return tuple(sorted(primes)), tuple(sorted(unsplit))


def _is_prime(n: int) -> Optional[bool]:
    """Whether n is prime; None for a probable prime that the fixed bases
    cannot decide."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True if n < _MR_DECIDES_BELOW else None


def _lucas_lehmer(p: int) -> bool:
    """Whether 2^p - 1 is prime, for a prime p."""
    m = (1 << p) - 1
    s = 4
    for _ in range(p - 2):
        s = (s * s - 2) % m
    return p == 2 or s == 0


def _rho(n: int, budget: int) -> tuple[Optional[int], int]:
    """A proper factor of the odd composite n by Pollard's rho with Brent's
    cycle search, or None once `budget` iterations are spent; and what is
    left of the budget."""
    c = 0
    while budget > 0:
        c += 1
        y, r, q, g = 2, 1, 1, 1
        while g == 1 and budget > 0:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(_RHO_BATCH, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = gcd(q, n)
                k += _RHO_BATCH
            budget -= 2 * r
            r *= 2
        if g == n:
            # the batch passed the collision: step through it one at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(x - ys, n)
        if 1 < g < n:
            return g, budget
    return None, budget
