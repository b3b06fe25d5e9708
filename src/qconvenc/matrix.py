"""Small dense matrices of Laurent polynomials: plumbing shared by the
normal-form and stabilizer modules."""

from __future__ import annotations

from typing import Sequence

from .poly import LaurentPoly, L_ONE, L_ZERO

Matrix = tuple[tuple[LaurentPoly, ...], ...]


def freeze(rows: Sequence[Sequence[LaurentPoly]]) -> Matrix:
    return tuple(tuple(row) for row in rows)


def thaw(m: Sequence[Sequence[LaurentPoly]]) -> list[list[LaurentPoly]]:
    return [list(row) for row in m]


def identity(n: int) -> Matrix:
    return tuple(
        tuple(L_ONE if i == j else L_ZERO for j in range(n)) for i in range(n)
    )


def zeros(r: int, n: int) -> Matrix:
    return tuple(tuple(L_ZERO for _ in range(n)) for _ in range(r))
