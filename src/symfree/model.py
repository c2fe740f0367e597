"""Core types shared by every other module: symmetric equations, bounded
integer sets, and the text formats the command line reads and writes.

A symmetric equation with coefficients (a1, ..., ak) is

    a1*x1 + ... + ak*xk  =  a1*x_{k+1} + ... + ak*x_{2k}

over 2k integer variables.  A tuple solves it exactly when the dot product
with the full coefficient vector (a1, ..., ak, -a1, ..., -ak) is zero.
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


def _is_positive_int(value) -> bool:
    """Whether `value` is an int >= 1, the check of every count, bound and
    dilate coefficient a caller passes."""
    return _is_int(value) and value >= 1


def _require_int(value, name: str) -> None:
    """Raise "<name> must be an integer, got <value>" unless `_is_int(value)`."""
    if not _is_int(value):
        raise ValidationError(f"{name} must be an integer, got {value!r}")


def _require_positive_int(value, name: str) -> None:
    """`_require_int`, then "<name> must be >= 1" for an int below 1."""
    _require_int(value, name)
    if value < 1:
        raise ValidationError(f"{name} must be >= 1")


def _require_types(*pairs) -> None:
    """Raise "expected an <cls>, got <type>" at the first (value, cls) pair
    whose value is not a cls: how public functions check their objects."""
    for value, cls in pairs:
        if not isinstance(value, cls):
            article = "an" if cls.__name__[0] in "AEIOU" else "a"
            raise ValidationError(f"expected {article} {cls.__name__}, got {type(value).__name__}")


@dataclass(frozen=True)
class Equation:
    """Nonzero coefficients (a1, ..., ak), k >= 2."""

    a: tuple[int, ...]

    def __post_init__(self):
        coeffs = tuple(self.a)
        if len(coeffs) < 2:
            raise ValidationError("an equation needs at least 2 coefficients")
        for c in coeffs:
            if not _is_int(c):
                raise ValidationError(f"coefficient {c!r} is not an integer")
            if c == 0:
                raise ValidationError("zero coefficients are not allowed")
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
        if not _is_int(self.domain_bound):
            raise ValidationError("domain bound must be an integer")
        if self.domain_bound < 1:
            raise ValidationError("domain bound must be >= 1")
        elems = tuple(self.elements)
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
    try:
        elements = tuple(sorted(set(values)))
    except TypeError:
        raise ValidationError(f"expected a set of integers, got {type(values).__name__}") from None
    return IntegerSet(elements, domain_bound)


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
        if not isinstance(data, list):
            raise ParseError("JSON set file must be an array of integers")
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
