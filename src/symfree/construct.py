"""Constructions of large solution-free sets.

The digit construction targets the equation x1 + d*(x2 + ... + xk) =
x_{k+1} + d*(x_{k+2} + ... + x_{2k}): integers whose base-(d*d*k) digits all
stay below d add without carries under these weights, which forces any
distinct-valued solution to repeat a value.  A seeded greedy scan provides a
generic baseline for arbitrary equations.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right, insort
from dataclasses import dataclass, field
from itertools import islice

from .counting import DEFAULT_BUDGET, WorkBudget, _pair_index, _solution_through
from .model import Equation, IntegerSet, ValidationError


@dataclass(frozen=True)
class RuzsaParams:
    """Digit construction parameters: digit cap d, equation arity k, domain
    bound N.  The radix is d*d*k."""

    d: int
    k: int
    N: int
    base: int = field(init=False)

    def __post_init__(self):
        if self.d < 2:
            raise ValidationError("digit cap d must be >= 2")
        if self.k < 2:
            raise ValidationError("arity k must be >= 2")
        if self.N < 1:
            raise ValidationError("domain bound N must be >= 1")
        object.__setattr__(self, "base", self.d * self.d * self.k)


def ruzsa_equation(d: int, k: int) -> Equation:
    """Coefficients (1, d, d, ..., d) with k entries."""
    if d < 2 or k < 2:
        raise ValidationError("need d >= 2 and k >= 2")
    return Equation((1,) + (d,) * (k - 1))


def ruzsa_digit_set(params: RuzsaParams) -> IntegerSet:
    """All integers in [1, N] whose base-(d*d*k) digits lie in {0, ..., d-1}.

    Built by place doubling: the members below b^t, zero included, are
    extended to those below b^(t+1) by appending x + dig*b^t for each digit
    dig = 1, ..., d-1.  Every member below b^t is smaller than b^t, so each
    appended block stays in increasing order, and each block is cut where it
    passes N.
    """
    d, b, n = params.d, params.base, params.N
    elements = [0]
    place = 1
    while place <= n:
        below = len(elements)
        for dig in range(1, d):
            shift = dig * place
            cut = bisect_right(elements, n - shift, 0, below)
            # Appends after the first `cut` members while reading them, so
            # no block is copied.
            elements.extend(x + shift for x in islice(elements, cut))
        place *= b
    del elements[0]
    return IntegerSet(tuple(elements), n)


def predicted_exponent(d: int, k: int) -> float:
    """Growth exponent of the digit set size in N: log d / log(d*d*k)."""
    if d < 2 or k < 2:
        raise ValidationError("need d >= 2 and k >= 2")
    return math.log(d) / math.log(d * d * k)


def greedy_solution_free(
    N: int,
    eq: Equation,
    order: str = "ascending",
    seed: int = 0,
    budget: int = DEFAULT_BUDGET,
) -> IntegerSet:
    """Scan candidates once, keeping each value that leaves the set free of
    distinct-valued solutions.

    order "ascending" scans 1..N; order "shuffle" scans a permutation drawn
    from random.Random(seed).  The result is maximal for the scanned order.
    """
    if N < 1:
        raise ValidationError("domain bound N must be >= 1")
    candidates = list(range(1, N + 1))
    if order == "shuffle":
        random.Random(seed).shuffle(candidates)
    elif order != "ascending":
        raise ValidationError(f"unknown order {order!r}")
    # The chosen set in increasing order, and its pair index, which is
    # rebuilt only when a candidate is kept.
    chosen: list[int] = []
    elements: tuple[int, ...] = ()
    index: dict[int, list[tuple[int, int]]] = {}
    for x in candidates:
        wb = WorkBudget(budget)
        if not _solution_through(elements, eq, x, index, wb):
            insort(chosen, x)
            elements = tuple(chosen)
            index = _pair_index(elements, eq, wb)
    return IntegerSet(elements, N)
