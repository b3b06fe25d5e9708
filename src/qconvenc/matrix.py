"""Small dense matrices of Laurent polynomials: plumbing shared by the
normal-form and stabilizer modules; and `Record`, the immutable value base of
the records that check their fields."""

from __future__ import annotations

from operator import attrgetter
from typing import Sequence

from .poly import LaurentPoly

Matrix = tuple[tuple[LaurentPoly, ...], ...]


class Record:
    """An immutable record whose value is its `_fields`, named in constructor
    order (two or more, so that `_key` returns a tuple).

    Assignment and deletion raise AttributeError; a record equals only
    records of its own class with equal fields, and hashes as their tuple;
    the repr is `Name(field=value, ...)`.  A subclass constructor checks its
    arguments and builds through `unchecked`."""

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        cls._key = attrgetter(*cls._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == other._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v!r}" for k, v in zip(self._fields, self._key(self)))
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        # copies and pickles rebuild from the fields through the
        # constructor, which takes a circuit's memory again
        return type(self), self._key(self)


_new = object.__new__
_set_dict = Record.__dict__["__dict__"].__set__


def unchecked(cls: type, fields: dict) -> Record:
    """A `cls` record holding `fields` as its instance dict, without the
    constructor's checks: for values known to be valid.  `fields` may also
    hold a circuit's memory."""
    rec = _new(cls)
    _set_dict(rec, fields)
    return rec


def freeze(rows: Sequence[Sequence[LaurentPoly]]) -> Matrix:
    return tuple(tuple(row) for row in rows)


def thaw(m: Sequence[Sequence[LaurentPoly]]) -> list[list[LaurentPoly]]:
    return [list(row) for row in m]

