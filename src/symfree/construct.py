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
import sys
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .counting import DEFAULT_BUDGET, WorkBudget
from .model import (
    Equation,
    IntegerSet,
    InvariantViolation,
    ValidationError,
    _require_int,
    _require_positive_int,
    _require_types,
    int_dtype,
)


def _check_digit_params(d: int, k: int, N: int = 1) -> None:
    """d, k and N ints and not bools, d, k >= 2 and N >= 1."""
    for name, v in (("digit cap d", d), ("arity k", k)):
        _require_int(v, name)
    if d < 2:
        raise ValidationError("digit cap d must be >= 2")
    if k < 2:
        raise ValidationError("arity k must be >= 2")
    _require_positive_int(N, "domain bound N")


@dataclass(frozen=True)
class RuzsaParams:
    """Digit construction parameters: digit cap d, equation arity k, domain
    bound N.  The radix is d*d*k."""

    d: int
    k: int
    N: int
    base: int = field(init=False)

    def __post_init__(self):
        _check_digit_params(self.d, self.k, self.N)
        object.__setattr__(self, "base", self.d * self.d * self.k)


def ruzsa_equation(d: int, k: int) -> Equation:
    """Coefficients (1, d, d, ..., d) with k entries."""
    _check_digit_params(d, k)
    return Equation((1,) + (d,) * (k - 1))


def _digit_count(params: RuzsaParams) -> int:
    """The size of the digit set, read off the base-b digits of N, most
    significant first, in O(log N).  While the members match N's digits so
    far, a digit t < d at a place with r places below leaves t*d^r members
    with a smaller digit there, and the first digit t >= d leaves d^(r+1)
    more, zero among them."""
    d, b, n = params.d, params.base, params.N
    digits = []
    while n:
        n, t = divmod(n, b)
        digits.append(t)
    count = 0
    for r in range(len(digits) - 1, -1, -1):
        t = digits[r]
        if t >= d:
            return count + d ** (r + 1) - 1
        count += t * d**r
    # N itself is a member and zero is not.
    return count


def _member_units(n: int) -> int:
    """Units charged per digit-set member, at the join's model of about 8
    bytes a unit.  The build's peak holds two words per member (the filled
    array and the list `tolist` makes, then that list and the tuple) and
    the member's int, which is no larger than N's.  tracemalloc puts it at
    48 bytes per member below 2^60 (6 words) and 55.5 just past 2^72 (6.9);
    one unit over those words keeps both under 8 bytes a unit."""
    return 3 + -(-sys.getsizeof(n) // 8)


def ruzsa_digit_set(params: RuzsaParams, budget: int = DEFAULT_BUDGET) -> IntegerSet:
    """All integers in [1, N] whose base-(d*d*k) digits lie in {0, ..., d-1}.

    The members are counted first, from the digits of N, and charged to the
    budget before anything is allocated.  One numpy array of that length
    plus one, int64 while N < 2^63 and Python ints past it, is then filled
    by place doubling: the members below b^t, zero included, are extended
    to those below b^(t+1) by appending x + dig*b^t for each digit dig = 1,
    ..., d-1.  Every member below b^t is smaller than b^t, so each appended
    block stays in increasing order, and each block is cut, by a binary
    search, where it passes N.  The filled array is checked once (the count
    met, the first member >= 1, the last <= N, strictly increasing) and the
    set is made from it without checking each member again.
    """
    _require_types((params, RuzsaParams))
    d, b, n = params.d, params.base, params.N
    size = _digit_count(params)
    WorkBudget(budget).spend(_member_units(n) * size)
    members = np.zeros(size + 1, dtype=int_dtype(n))
    filled = 1
    place = 1
    while place <= n:
        below = filled
        for dig in range(1, d):
            shift = dig * place
            if shift > n:
                break
            # bisect rather than np.searchsorted: the same cut, without
            # paging in 128 KB more of numpy's code.
            cut = bisect_right(members, n - shift, 0, below)
            if filled + cut > len(members):
                raise InvariantViolation(f"digit set outgrew its count of {size}")
            np.add(members[:cut], shift, out=members[filled : filled + cut])
            filled += cut
        place *= b
    body = members[1:]
    # count_nonzero over one comparison: np.all would page in 128 KB more of
    # numpy's code for the same answer.
    if (
        filled != len(members)
        or body[0] < 1
        or body[-1] > n
        or np.count_nonzero(body[1:] <= body[:-1])
    ):
        raise InvariantViolation("digit set is not its counted, increasing members of [1, N]")
    listed = body.tolist()
    del members, body
    return IntegerSet._trusted(tuple(listed), n)


def predicted_exponent(d: int, k: int) -> float:
    """Growth exponent of the digit set size in N: log d / log(d*d*k)."""
    _check_digit_params(d, k)
    return math.log(d) / math.log(d * d * k)


def _drop(C: tuple[int, ...], *cs: int) -> tuple[int, ...]:
    """The sorted multiset C less one copy of each of cs."""
    rest = list(C)
    for c in cs:
        rest.remove(c)
    return tuple(rest)


def _sum_bitset_plan(tops: list[tuple[int, ...]]) -> tuple[set, list]:
    """The keys of the sub-multiset sum bitsets a caller keeps to read D[C]
    for each C in `tops`, and how one added value grows them.

    Multisets of coefficients are sorted tuples, and D[C] holds every sum of
    c*s over injective maps of C's slots into the set, at a bit offset that
    keeps every index positive.  The keys are `tops` and every multiset
    reached from them by dropping coefficients, down to (), whose one sum
    is 0.  Each update (C, parts) pairs a nonempty key with (c, C - {c})
    for each distinct c in C: a new value x fills at most one slot of a
    map, so D[C] gains D[C - {c}] shifted by c*x.
    """
    keys: set[tuple[int, ...]] = set()
    todo = list(tops)
    while todo:
        C = todo.pop()
        if C not in keys:
            keys.add(C)
            todo.extend(_drop(C, c) for c in set(C))
    updates = [
        (C, [(c, _drop(C, c)) for c in sorted(set(C))]) for C in sorted(keys) if C
    ]
    return keys, updates


def _grow_sums(D: dict, updates: list, x: int) -> dict:
    """The bitsets of `_sum_bitset_plan` once x joins the set, as a new dict;
    every update reads the old bitsets in D."""
    grown = dict(D)
    for C, parts in updates:
        bits = D[C]
        for c, sub in parts:
            s = c * x
            bits |= D[sub] << s if s > 0 else D[sub] >> -s
        grown[C] = bits
    return grown


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
    kept x grows the bitsets by `_grow_sums`.

    One budget covers the scan.  The memory it allocates is charged before
    any is: five words per candidate (a list slot and an int object) and
    one per 64 bits of each bitset.  Each kept value then charges the words
    its shifts produce.
    """
    _require_positive_int(N, "domain bound N")
    _require_types((eq, Equation))
    if order not in ("ascending", "shuffle"):
        raise ValidationError(f"unknown order {order!r}")
    _require_int(seed, "seed")
    full = tuple(sorted(eq.full_coefficients()))
    tests = [(c, _drop(full, c)) for c in sorted(set(full)) if c > 0]
    keys, updates = _sum_bitset_plan([rest for _, rest in tests])
    offset = eq.norm1 * N
    words = 2 * offset // 64 + 1
    wb = WorkBudget(budget)
    wb.spend(5 * N + len(keys) * words)
    candidates = list(range(1, N + 1))
    if order == "shuffle":
        random.Random(seed).shuffle(candidates)
    D = dict.fromkeys(keys, 0)
    D[()] = 1 << offset
    shifts = sum(len(parts) for _, parts in updates)
    chosen: list[int] = []
    for x in candidates:
        if any(D[rest] >> (offset - c * x) & 1 for c, rest in tests):
            continue
        wb.spend(shifts * words)
        D = _grow_sums(D, updates, x)
        chosen.append(x)
    return IntegerSet(tuple(sorted(chosen)), N)
