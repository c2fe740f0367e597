"""Constructions of large solution-free sets.

The digit construction targets the equation x1 + d*(x2 + ... + xk) =
x_{k+1} + d*(x_{k+2} + ... + x_{2k}): integers whose base-(d*d*k) digits all
stay below d add without carries under these weights, which forces any
distinct-valued solution to repeat a value.  A seeded greedy scan provides a
generic baseline for arbitrary equations; it grows its set one value at a
time and tests each candidate against bitsets of the weighted sums its kept
values reach.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import islice, product

from .counting import DEFAULT_BUDGET, WorkBudget
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

    For the chosen set S and each sub-multiset C of the full coefficients F
    that misses a positive coefficient, a Python-int bitset D[C] holds every
    sum of c*s over injective maps of C's slots into S, at bit offset
    norm1*N so that no index is negative.  S is free, so a solution of S plus
    x uses x once, and negating it if need be puts x at a positive
    coefficient c: x is rejected iff -c*x is in D[F - {c}] for some c.  A
    kept x fills at most one slot of each map, so D[C] gains, for each c in
    C, the old D[C - {c}] shifted by c*x; the largest C are updated first,
    so each reads the smaller ones before they change.

    One budget covers the scan.  The memory it allocates is charged before
    any is: five words per candidate (a list slot and an int object) and
    one per 64 bits of each bitset.  Each kept value then charges the words
    its shifts produce.
    """
    if N < 1:
        raise ValidationError("domain bound N must be >= 1")
    if order not in ("ascending", "shuffle"):
        raise ValidationError(f"unknown order {order!r}")
    full = eq.full_coefficients()
    # A sub-multiset of F is a count per distinct coefficient value.
    values = sorted(set(full))
    counts = tuple(full.count(c) for c in values)

    def minus(C: tuple[int, ...], i: int) -> tuple[int, ...]:
        return C[:i] + (C[i] - 1,) + C[i + 1 :]

    positive = [i for i, c in enumerate(values) if c > 0]
    tests = [(values[i], minus(counts, i)) for i in positive]
    # The bitsets the tests read and their sub-multisets: those missing a
    # positive coefficient.
    keys = [
        C
        for C in product(*(range(m + 1) for m in counts))
        if any(C[i] < counts[i] for i in positive)
    ]
    updates = [
        (C, [(values[i], minus(C, i)) for i in range(len(C)) if C[i]])
        for C in sorted(keys, key=sum, reverse=True)
        if any(C)
    ]
    offset = eq.norm1 * N
    words = 2 * offset // 64 + 1
    wb = WorkBudget(budget)
    wb.spend(5 * N + len(keys) * words)
    candidates = list(range(1, N + 1))
    if order == "shuffle":
        random.Random(seed).shuffle(candidates)
    D = dict.fromkeys(keys, 0)
    D[(0,) * len(values)] = 1 << offset
    shifts = sum(len(parts) for _, parts in updates)
    chosen: list[int] = []
    for x in candidates:
        if any(D[rest] >> (offset - c * x) & 1 for c, rest in tests):
            continue
        wb.spend(shifts * words)
        for C, parts in updates:
            grown = D[C]
            for c, sub in parts:
                s = c * x
                grown |= D[sub] << s if s > 0 else D[sub] >> -s
            D[C] = grown
        chosen.append(x)
    return IntegerSet(tuple(sorted(chosen)), N)
