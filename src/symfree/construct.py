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
from dataclasses import dataclass, field

from .counting import DEFAULT_BUDGET, has_distinct_solution_using
from .model import Equation, IntegerSet, ValidationError, make_set


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

    Generated by counting digit strings: the j-th member is j written in base
    d and reread in base d*d*k, which enumerates the set in increasing order
    without testing individual integers.
    """
    d, b, n = params.d, params.base, params.N
    elements = []
    j = 1
    while True:
        value = 0
        place = 1
        jj = j
        while jj:
            value += (jj % d) * place
            place *= b
            jj //= d
        if value > n:
            break
        elements.append(value)
        j += 1
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
    chosen: list[int] = []
    current = make_set(chosen, N)
    for x in candidates:
        if not has_distinct_solution_using(current, eq, x, budget=budget):
            chosen.append(x)
            current = make_set(chosen, N)
    return current
