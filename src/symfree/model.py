"""Core types shared by every other module: symmetric equations, bounded
integer sets, and the text formats the command line reads and writes.

A symmetric equation with coefficients (a1, ..., ak) is

    a1*x1 + ... + ak*xk  =  a1*x_{k+1} + ... + ak*x_{2k}

over 2k integer variables.  A tuple solves it exactly when the dot product
with the full coefficient vector (a1, ..., ak, -a1, ..., -ak) is zero.

Public functions check their arguments with one helper per shape, each
raising a ValidationError that names the argument: `_require_int` and
`_require_positive_int` (an int that is not a bool, as `_is_int` tests,
and one >= 1), `_require_coefficient` (a nonzero int), `_require_types` (an
instance of a class), `_read_sequence` and `_read_pairs` (any iterable, and
one of 2-item pairs) and `_read_int_set` (ints, sorted and deduplicated).
"""

from __future__ import annotations

import json
import re
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np


class ValidationError(ValueError):
    """Input violates a documented precondition."""


class ParseError(ValidationError):
    """Malformed textual input."""


class BudgetExceededError(RuntimeError):
    """A work budget ran out before the computation finished."""


class InvariantViolation(RuntimeError):
    """An internal consistency check or a theorem-backed inequality failed."""


_INT_TOKEN = re.compile(r"-?\d+")


def bit_positions(mask: int, offset: int = 0) -> tuple[int, ...]:
    """The positions of the set bits of a nonnegative `mask`, ascending,
    each plus `offset`.

    One pass unpacks the mask's bytes to one byte per bit and reads off the
    nonzero ones, at a cost that grows with the mask's length.  `offset` is
    added to Python ints, so positions past int64 stay exact.
    """
    raw = np.frombuffer(mask.to_bytes((mask.bit_length() + 7) // 8, "little"), np.uint8)
    bits = np.unpackbits(raw, bitorder="little")
    return tuple(i + offset for i in np.flatnonzero(bits).tolist())


def int_dtype(*values: int) -> type:
    """np.int64 when every value lies in [-2^63, 2^63), else object: the
    dtype of an array whose entries those values bound, exact either way."""
    return np.int64 if -(1 << 63) <= min(values) and max(values) < 1 << 63 else object


def _is_int(value) -> bool:
    """Whether `value` is an int; a bool is not one."""
    return isinstance(value, int) and not isinstance(value, bool)


def _require_int(value, name: str) -> None:
    """Raise "<name> must be an integer, got <value>" unless `_is_int(value)`."""
    if not _is_int(value):
        raise ValidationError(f"{name} must be an integer, got {value!r}")


def _require_positive_int(value, name: str) -> None:
    """`_require_int`, then "<name> must be >= 1" for an int below 1."""
    _require_int(value, name)
    if value < 1:
        raise ValidationError(f"{name} must be >= 1")


def _require_coefficient(c) -> None:
    """Raise unless `c` is a nonzero int."""
    if not _is_int(c):
        raise ValidationError(f"coefficient {c!r} is not an integer")
    if c == 0:
        raise ValidationError("coefficients must be nonzero")


def _require_types(*pairs) -> None:
    """Raise "expected an <cls>, got <type>" at the first (value, cls) pair
    whose value is not a cls: how public functions check their objects."""
    for value, cls in pairs:
        if not isinstance(value, cls):
            article = "an" if cls.__name__[0] in "AEIOU" else "a"
            raise ValidationError(f"expected {article} {cls.__name__}, got {type(value).__name__}")


def _read_sequence(items, message: str) -> tuple:
    """`items` as a tuple; ValidationError(message) if it is not iterable."""
    try:
        return tuple(items)
    except TypeError:
        raise ValidationError(message) from None


def _read_pairs(items, message: str) -> list[tuple]:
    """`items` as a list of pairs; ValidationError(message) unless it is
    iterable and each item unpacks into exactly two values."""
    try:
        return [(x, y) for x, y in items]
    except (TypeError, ValueError):
        raise ValidationError(message) from None


def _read_int_set(values) -> tuple[int, ...]:
    """The distinct ints of `values` ascending, or an IntegerSet's elements."""
    if isinstance(values, IntegerSet):
        return values.elements
    try:
        out = tuple(sorted(set(values)))
    except TypeError:
        raise ValidationError(f"expected a set of integers, got {type(values).__name__}") from None
    for v in out:
        if not _is_int(v):
            raise ValidationError(f"element {v!r} is not an integer")
    return out


@dataclass(frozen=True)
class Equation:
    """Nonzero coefficients (a1, ..., ak), k >= 2."""

    a: tuple[int, ...]

    def __post_init__(self):
        coeffs = _read_sequence(self.a, "an equation takes a sequence of coefficients")
        if len(coeffs) < 2:
            raise ValidationError("an equation needs at least 2 coefficients")
        for c in coeffs:
            _require_coefficient(c)
        object.__setattr__(self, "a", coeffs)

    @property
    def k(self) -> int:
        return len(self.a)

    @property
    def norm1(self) -> int:
        return sum(abs(c) for c in self.a)

    def full_coefficients(self) -> tuple[int, ...]:
        """The 2k-vector (a1, ..., ak, -a1, ..., -ak)."""
        return self.a + tuple(-c for c in self.a)

    def text(self) -> str:
        """Canonical comma-separated form; round-trips through parse_equation."""
        return ",".join(str(c) for c in self.a)

    def __str__(self) -> str:
        return self.text()


def parse_equation(text: str) -> Equation:
    """Parse a comma-separated coefficient list such as "1,2,2" or "3,-5"."""
    parts = text.split(",")
    coeffs = []
    for part in parts:
        token = part.strip()
        if not _INT_TOKEN.fullmatch(token):
            raise ParseError(f"bad coefficient token {token!r}")
        coeffs.append(int(token))
    return Equation(tuple(coeffs))


@dataclass(frozen=True)
class IntegerSet:
    """Strictly increasing integers, all inside [1, domain_bound]."""

    elements: tuple[int, ...]
    domain_bound: int

    def __post_init__(self):
        _require_positive_int(self.domain_bound, "domain bound")
        elems = _read_sequence(self.elements, "an IntegerSet takes a sequence of elements")
        prev = 0
        for v in elems:
            if not _is_int(v):
                raise ValidationError(f"element {v!r} is not an integer")
            if v < 1 or v > self.domain_bound:
                raise ValidationError(
                    f"element {v} outside [1, {self.domain_bound}]"
                )
            if v <= prev:
                raise ValidationError("elements must be strictly increasing")
            prev = v
        object.__setattr__(self, "elements", elems)

    @classmethod
    def _trusted(cls, elements: tuple[int, ...], domain_bound: int) -> IntegerSet:
        """An IntegerSet built without `__post_init__`, for callers that have
        already checked the invariant themselves: `elements` a tuple of
        strictly increasing ints inside [1, domain_bound], an int >= 1."""
        s = object.__new__(cls)
        object.__setattr__(s, "elements", elements)
        object.__setattr__(s, "domain_bound", domain_bound)
        return s

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, value) -> bool:
        i = bisect_left(self.elements, value)
        return i < len(self.elements) and self.elements[i] == value


def make_set(values, domain_bound: int) -> IntegerSet:
    """Sort, deduplicate, and range-check values into an IntegerSet."""
    return IntegerSet(_read_int_set(values), domain_bound)


def parse_set_text(text: str) -> list[int]:
    """Parse a set file: either a JSON array or newline-separated integers."""
    stripped = text.strip()
    if not stripped:
        return []
    if stripped.startswith("["):
        try:
            data = json.loads(stripped)
        except json.JSONDecodeError as exc:
            raise ParseError(f"bad JSON set file: {exc}") from exc
        for v in data:
            if not _is_int(v):
                raise ParseError(f"set entry {v!r} is not an integer")
        return list(data)
    out = []
    for line in stripped.splitlines():
        token = line.strip()
        if not token:
            continue
        if not _INT_TOKEN.fullmatch(token):
            raise ParseError(f"bad set entry {token!r}")
        out.append(int(token))
    return out


def set_text(s: IntegerSet) -> str:
    """Newline-separated element list, one integer per line."""
    return "\n".join(str(v) for v in s.elements)
