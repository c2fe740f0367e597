"""Constructions of large solution-free sets.

The digit construction targets the equation x1 + d*(x2 + ... + xk) =
x_{k+1} + d*(x_{k+2} + ... + x_{2k}): integers whose base-(d*d*k) digits all
stay below d add without carries under these weights, which forces any
distinct-valued solution to repeat a value.  A seeded greedy scan provides a
generic baseline for arbitrary equations; it grows its set one value at a
time and tests each candidate against rejection masks, which each kept value
marks from bitsets of the weighted sums the values kept before it reach.
Those bitsets, and how a kept value reads them, are one blocking plan
(`_blocking_plan`), which the exact search in `search` reads too.
"""

from __future__ import annotations

import functools
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


def _sum_bitset_plan(tops: list[tuple[int, ...]]) -> tuple[tuple, tuple]:
    """The keys of the sub-multiset sum bitsets a caller keeps to read D[C]
    for each C in `tops`, and how one added value grows them.

    Multisets of coefficients are sorted tuples, and D[C] holds every sum of
    c*s over injective maps of C's slots into the set, at a bit offset that
    keeps every index positive.  The keys are `tops` and every multiset
    reached from them by dropping coefficients, in sorted order, so that
    keys[0] is (), whose one sum is 0; the bitsets are a list in that
    order.  Each update (i, parts) pairs a nonempty keys[i] with (c, j) for
    each distinct c in it, keys[j] = keys[i] - {c}: a new value x fills at
    most one slot of a map, so D[i] gains D[j] shifted by c*x.
    """
    found: set[tuple[int, ...]] = set()
    todo = list(tops)
    while todo:
        C = todo.pop()
        if C not in found:
            found.add(C)
            todo.extend(_drop(C, c) for c in set(C))
    keys = tuple(sorted(found))
    index = {C: i for i, C in enumerate(keys)}
    updates = tuple(
        (i, tuple((c, index[_drop(C, c)]) for c in sorted(set(C))))
        for i, C in enumerate(keys) if C
    )
    return keys, updates


@functools.cache
def _blocking_plan(full: tuple[int, ...]) -> tuple[tuple, tuple, tuple]:
    """The sum bitsets that the greedy scan and the exact search both block
    candidates from, for sorted full coefficients `full`, and how they read
    them.

    Adding w to a set S blocks b when S + {w, b} has a solution using both.
    Negating a solution puts b at a negative slot cj of F = a | -a, and w
    sits at some other slot ci, so ci*w - m*b + r = 0 for m = -cj and a sum
    r of the other slots over S: bit offset - ci*w + m*b of D[F - {ci, cj}]
    (`_sum_bitset_plan`), with offset = norm1*N for S in [1, N].  So
    D[i] >> (offset - ci*w) holds bit m*b for each such b, below w as well
    as above.  There is one read (i, ci, m) for each distinct ci and each
    distinct cj < 0 whose drop leaves a multiset, i indexing the keys.  For
    +-1 equations they are the two of the exact search's clique cover:
    F - {-1, -1} at -1, then F - {1, -1} at 1.

    Returns the keys, the updates for `_grow_sums` and the reads, as tuples
    built once per equation.  The read keys hold the most slots, so no
    update reads them.
    """
    pairs = [
        (ci, cj)
        for ci in sorted(set(full))
        for cj in sorted({c for c in full if c < 0})
        if ci != cj or full.count(cj) > 1
    ]
    keys, updates = _sum_bitset_plan([_drop(full, ci, cj) for ci, cj in pairs])
    reads = tuple((keys.index(_drop(full, ci, cj)), ci, -cj) for ci, cj in pairs)
    return keys, updates, reads


def _grow_sums(D: list, updates: tuple, x: int) -> list:
    """The bitsets of `_sum_bitset_plan` once x joins the set, as a new list;
    every update reads the old bitsets in D."""
    grown = D.copy()
    for i, parts in updates:
        bits = D[i]
        for c, j in parts:
            s = c * x
            bits |= D[j] << s if s > 0 else D[j] >> -s
        grown[i] = bits
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

    The scan grows the chosen set's sum bitsets on the keys the exact search
    blocks from (`_blocking_plan`), at offset norm1*N.  It keeps one
    rejection mask H[m] for each distinct m among the plan's reads.  When it
    keeps x, before growing the bitsets, it ORs each read (i, c, m)'s
    D[i] >> (offset - c*x), cut to m*N + 1 bits, into H[m]; a candidate y is
    rejected iff bit m*y of some H[m] is set.  That is exact: a solution of
    S + {y} lies in S_w + {w, y}, where w is the member it uses that was
    kept last and S_w the values kept before w, and it uses both w and y,
    so w's reads marked y, whether y is above w or below it.

    One budget covers the scan.  The memory it allocates is charged before
    any is: five words per candidate (a list slot and an int object), one
    per 64 bits of each bitset, and two per 64 bits of each H[m] (H[m] and
    the mask that cuts it).  Each kept value then charges the words its shifts
    produce, those of the reads and of the growth.
    """
    _require_positive_int(N, "domain bound N")
    _require_types((eq, Equation))
    if order not in ("ascending", "shuffle"):
        raise ValidationError(f"unknown order {order!r}")
    _require_int(seed, "seed")
    keys, updates, reads = _blocking_plan(tuple(sorted(eq.full_coefficients())))
    H = dict.fromkeys(sorted({m for _, _, m in reads}), 0)
    offset = eq.norm1 * N
    words = 2 * offset // 64 + 1
    wb = WorkBudget(budget)
    wb.spend(5 * N + len(keys) * words + sum(2 * (m * N // 64 + 1) for m in H))
    candidates = list(range(1, N + 1))
    if order == "shuffle":
        random.Random(seed).shuffle(candidates)
    cuts = {m: (1 << m * N + 1) - 1 for m in H}
    D = [1 << offset] + [0] * (len(keys) - 1)
    shifts = len(reads) + sum(len(parts) for _, parts in updates)
    chosen: list[int] = []
    for x in candidates:
        if any(h >> m * x & 1 for m, h in H.items()):
            continue
        wb.spend(shifts * words)
        for i, c, m in reads:
            H[m] |= D[i] >> (offset - c * x) & cuts[m]
        D = _grow_sums(D, updates, x)
        chosen.append(x)
    return IntegerSet(tuple(sorted(chosen)), N)
