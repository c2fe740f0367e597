"""Exact solution counting over finite integer sets.

Everything here is integer-exact.  The central object is the representation
function of a weighted sum system: how many tuples (x1, ..., xl) drawn from
given sets reach each value of c1*x1 + ... + cl*xl.  Convolving those maps
gives total solution counts; merging variables gives coincidence counts; a
signed sum over set partitions (or plain enumeration) gives the count of
solutions whose 2k values are pairwise different.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .model import (
    BudgetExceededError,
    Equation,
    IntegerSet,
    InvariantViolation,
    ValidationError,
)

DEFAULT_BUDGET = 10**9

# Dense accumulation wins once the output range is well populated; beyond this
# span the temporary array would dominate memory, so stay sparse.
_DENSE_SPAN_CAP = 1 << 22


class WorkBudget:
    """Counts elementary steps and raises once the limit is exhausted."""

    __slots__ = ("limit", "used")

    def __init__(self, limit: int = DEFAULT_BUDGET):
        if limit < 1:
            raise ValidationError("budget must be >= 1")
        self.limit = limit
        self.used = 0

    def spend(self, amount: int = 1) -> None:
        self.used += amount
        if self.used > self.limit:
            raise BudgetExceededError(
                f"work budget of {self.limit} steps exhausted"
            )


@dataclass(frozen=True)
class RepFunction:
    """Map from attainable weighted sums to the number of tuples attaining
    them, together with the total tuple count."""

    counts: dict[int, int]
    total: int

    def __post_init__(self):
        if any(v < 1 for v in self.counts.values()):
            raise ValidationError("representation counts must be positive")
        if sum(self.counts.values()) != self.total:
            raise ValidationError("representation counts must sum to the total")

    def __getitem__(self, value: int) -> int:
        return self.counts.get(value, 0)

    def support(self) -> list[int]:
        return sorted(self.counts)


def _convolve(counts: dict[int, int], terms: list[int]) -> dict[int, int]:
    if not counts or not terms:
        return {}
    lo = min(counts) + min(terms)
    hi = max(counts) + max(terms)
    span = hi - lo + 1
    if span <= _DENSE_SPAN_CAP and len(counts) * len(terms) * 8 >= span:
        arr = [0] * span
        for m, c in counts.items():
            base = m - lo
            for t in terms:
                arr[base + t] += c
        return {lo + i: v for i, v in enumerate(arr) if v}
    out: dict[int, int] = {}
    get = out.get
    for m, c in counts.items():
        for t in terms:
            key = m + t
            out[key] = get(key, 0) + c
    return out


def rep_function(sets: Sequence[IntegerSet], coeffs: Sequence[int]) -> RepFunction:
    """Representation function of c1*A1 + ... + cl*Al.

    counts[m] is the number of tuples (x1, ..., xl), xi in Ai, with
    sum(ci * xi) == m; total is the product of the set sizes.
    """
    if len(sets) == 0:
        raise ValidationError("at least one set is required")
    if len(sets) != len(coeffs):
        raise ValidationError("sets and coefficients must have equal length")
    if any(c == 0 for c in coeffs):
        raise ValidationError("coefficients must be nonzero")
    total = math.prod(len(s.elements) for s in sets)
    counts: dict[int, int] = {0: 1}
    for s, c in zip(sets, coeffs):
        counts = _convolve(counts, [c * v for v in s.elements])
        if not counts:
            break
    return RepFunction(counts=counts, total=total)


def energy(lhs, rhs) -> int:
    """Number of joint tuples where the lhs system and rhs system take the
    same value.  Each side is a sequence of (IntegerSet, coefficient) pairs."""
    lhs = list(lhs)
    rhs = list(rhs)
    r1 = rep_function([s for s, _ in lhs], [c for _, c in lhs])
    r2 = r1 if lhs == rhs else rep_function([s for s, _ in rhs], [c for _, c in rhs])
    small, big = (r1, r2) if len(r1.counts) <= len(r2.counts) else (r2, r1)
    return sum(c * big.counts.get(m, 0) for m, c in small.counts.items())


def count_all_solutions(A: IntegerSet, eq: Equation) -> int:
    """Ordered 2k-tuples over A solving the equation, coincidences allowed."""
    if not A.elements:
        return 0
    r = rep_function([A] * eq.k, list(eq.a))
    return sum(c * c for c in r.counts.values())


def count_coincident(A: IntegerSet, eq: Equation, i: int, j: int) -> int:
    """Solutions over A with x_i == x_j (1-based indices into the 2k slots).

    Merging the two variables adds their coefficients; a zero merged
    coefficient leaves that variable free, contributing a factor |A|.
    """
    two_k = 2 * eq.k
    if not (1 <= i < j <= two_k):
        raise ValidationError(f"need 1 <= i < j <= {two_k}, got ({i}, {j})")
    if not A.elements:
        return 0
    coeffs = eq.full_coefficients()
    merged = coeffs[i - 1] + coeffs[j - 1]
    rest = [c for pos, c in enumerate(coeffs, start=1) if pos not in (i, j)]
    free = 0
    if merged == 0:
        free = 1
    else:
        rest.append(merged)
    r = rep_function([A] * len(rest), rest)
    return len(A.elements) ** free * r.counts.get(0, 0)


@lru_cache(maxsize=None)
def _set_partitions(n: int) -> tuple[tuple[int, ...], ...]:
    """All partitions of range(n), encoded as restricted growth strings."""
    out: list[tuple[int, ...]] = []
    a = [0] * n

    def rec(i: int, width: int) -> None:
        if i == n:
            out.append(tuple(a))
            return
        for b in range(width + 1):
            a[i] = b
            rec(i + 1, width if b < width else width + 1)

    rec(0, 0)
    return tuple(out)


def _count_distinct_partitions(A: IntegerSet, eq: Equation) -> int:
    coeffs = eq.full_coefficients()
    n = len(coeffs)
    n_a = len(A.elements)
    if n_a < n:
        return 0
    cache: dict[tuple[int, ...], int] = {}
    total = 0
    for rgs in _set_partitions(n):
        blocks = max(rgs) + 1
        merged = [0] * blocks
        sizes = [0] * blocks
        for pos, b in enumerate(rgs):
            merged[b] += coeffs[pos]
            sizes[b] += 1
        nonzero = tuple(sorted(c for c in merged if c != 0))
        zeros = blocks - len(nonzero)
        if nonzero:
            base = cache.get(nonzero)
            if base is None:
                base = rep_function([A] * len(nonzero), list(nonzero)).counts.get(0, 0)
                cache[nonzero] = base
        else:
            base = 1
        weight = 1
        for s in sizes:
            weight *= (-1) ** (s - 1) * math.factorial(s - 1)
        total += weight * base * n_a**zeros
    return total


def _count_distinct_enumerate(A: IntegerSet, eq: Equation, budget: WorkBudget) -> int:
    coeffs = eq.full_coefficients()
    n = len(coeffs)
    elems = A.elements
    if len(elems) < n:
        return 0
    elem_set = set(elems)
    lo = [0] * (n + 1)
    hi = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        c = coeffs[i]
        ends = (c * elems[0], c * elems[-1])
        lo[i] = lo[i + 1] + min(ends)
        hi[i] = hi[i + 1] + max(ends)
    used: set[int] = set()
    count = 0

    def rec(pos: int, partial: int) -> None:
        nonlocal count
        if pos == n - 1:
            c = coeffs[pos]
            budget.spend()
            if (-partial) % c == 0:
                v = -partial // c
                if v in elem_set and v not in used:
                    count += 1
            return
        c = coeffs[pos]
        nxt = pos + 1
        for v in elems:
            if v in used:
                continue
            budget.spend()
            p = partial + c * v
            if p + lo[nxt] > 0 or p + hi[nxt] < 0:
                continue
            used.add(v)
            rec(nxt, p)
            used.discard(v)

    try:
        rec(0, 0)
    finally:
        del rec  # break the closure's self-reference cycle
    return count


def count_distinct_solutions(
    A: IntegerSet,
    eq: Equation,
    method: str = "enumerate",
    budget: int = DEFAULT_BUDGET,
) -> int:
    """Ordered 2k-tuples over A solving the equation with pairwise different
    values.

    method "enumerate" walks tuples directly under a step budget; method
    "inclusion_exclusion" sums merged-variable counts over all set partitions
    of the 2k slots with signed factorial weights.  Both are exact.
    """
    if method == "enumerate":
        return _count_distinct_enumerate(A, eq, WorkBudget(budget))
    if method == "inclusion_exclusion":
        return _count_distinct_partitions(A, eq)
    raise ValidationError(f"unknown method {method!r}")


def _order_constraints(coeffs: tuple[int, ...], k: int, pinned: int | None) -> list[int]:
    """Per-position index of an earlier position whose value must stay
    strictly smaller, or -1.

    Positions sharing a coefficient are interchangeable in any solution, so
    their values may be assumed increasing.  When the first and the (k+1)-th
    position each carry a unique coefficient, swapping the two halves of the
    tuple is also a symmetry, which pins their relative order too.  A pinned
    position takes part in no constraint.
    """
    n = len(coeffs)
    prev = [-1] * n
    last_by_coeff: dict[int, int] = {}
    for p, c in enumerate(coeffs):
        if p == pinned:
            continue
        if c in last_by_coeff:
            prev[p] = last_by_coeff[c]
        last_by_coeff[c] = p
    if pinned is None:
        if coeffs.count(coeffs[0]) == 1 and coeffs.count(coeffs[k]) == 1:
            prev[k] = 0
    return prev


def _pinned_representatives(coeffs: tuple[int, ...]) -> list[int]:
    """One position per coefficient magnitude.

    A solution placing a value at any position can be rearranged, via
    equal-coefficient swaps and the half-swap, to place it at the first
    position carrying that coefficient magnitude.
    """
    reps = []
    seen: set[int] = set()
    for p, c in enumerate(coeffs):
        if abs(c) not in seen:
            seen.add(abs(c))
            reps.append(p)
    return reps


def _search_witness(
    elements: tuple[int, ...],
    eq: Equation,
    pinned_pos: int | None,
    pinned_value: int | None,
    budget: WorkBudget,
) -> tuple[int, ...] | None:
    """Depth-first search for one distinct-valued solution.

    Values for all but the pinned position are drawn from `elements`.  The
    last two positions are completed through a pair-sum index instead of two
    nested loops.  Returns the solution tuple in slot order, or None.
    """
    coeffs = eq.full_coefficients()
    n = len(coeffs)
    need = n if pinned_pos is None else n - 1
    if len(elements) < need:
        return None
    elems = elements
    prev = _order_constraints(coeffs, eq.k, pinned_pos)

    lo = [0] * (n + 1)
    hi = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        c = coeffs[i]
        if i == pinned_pos:
            lo[i] = lo[i + 1] + c * pinned_value
            hi[i] = hi[i + 1] + c * pinned_value
        else:
            ends = (c * elems[0], c * elems[-1])
            lo[i] = lo[i + 1] + min(ends)
            hi[i] = hi[i + 1] + max(ends)

    # Representative positions sit in the first half, so the final two slots
    # are never pinned and the pair index below always applies to them.
    cp, cq = coeffs[n - 2], coeffs[n - 1]
    pair_index: dict[int, list[tuple[int, int]]] = {}
    for x in elems:
        for y in elems:
            if x != y:
                pair_index.setdefault(cp * x + cq * y, []).append((x, y))

    val = [0] * n
    used: set[int] = set()
    if pinned_pos is not None:
        val[pinned_pos] = pinned_value
        used.add(pinned_value)
    prev_pen = prev[n - 2]
    prev_last = prev[n - 1]

    def rec(pos: int, partial: int) -> tuple[int, ...] | None:
        if pos == n - 2:
            for x, y in pair_index.get(-partial, ()):
                budget.spend()
                if x in used or y in used:
                    continue
                if prev_pen >= 0 and x <= val[prev_pen]:
                    continue
                if prev_last == n - 2:
                    if y <= x:
                        continue
                elif prev_last >= 0 and y <= val[prev_last]:
                    continue
                val[n - 2] = x
                val[n - 1] = y
                return tuple(val)
            return None
        if pos == pinned_pos:
            return rec(pos + 1, partial + coeffs[pos] * pinned_value)
        c = coeffs[pos]
        nxt = pos + 1
        start = 0
        if prev[pos] >= 0:
            start = bisect_right(elems, val[prev[pos]])
        for idx in range(start, len(elems)):
            v = elems[idx]
            if v in used:
                continue
            budget.spend()
            p = partial + c * v
            if p + lo[nxt] > 0 or p + hi[nxt] < 0:
                continue
            val[pos] = v
            used.add(v)
            hit = rec(nxt, p)
            used.discard(v)
            if hit is not None:
                return hit
        return None

    try:
        return rec(0, 0)
    finally:
        del rec  # break the closure's self-reference cycle


def find_distinct_solution(
    A: IntegerSet, eq: Equation, budget: int = DEFAULT_BUDGET
) -> tuple[int, ...] | None:
    """One distinct-valued solution over A in slot order, or None."""
    return _search_witness(A.elements, eq, None, None, WorkBudget(budget))


def is_solution_free(A: IntegerSet, eq: Equation, budget: int = DEFAULT_BUDGET) -> bool:
    """Whether A admits no solution with 2k pairwise different values."""
    return find_distinct_solution(A, eq, budget=budget) is None


def has_distinct_solution_using(
    A: IntegerSet, eq: Equation, value: int, budget: int = DEFAULT_BUDGET
) -> bool:
    """Whether A plus `value` gains a distinct-valued solution through it.

    Assumes A itself is solution-free and value is not in A; any new solution
    then uses the value exactly once, so only one representative slot per
    coefficient magnitude needs to be searched.
    """
    wb = WorkBudget(budget)
    coeffs = eq.full_coefficients()
    for pos in _pinned_representatives(coeffs):
        if _search_witness(A.elements, eq, pos, value, wb) is not None:
            return True
    return False


@dataclass(frozen=True)
class SolutionReport:
    """All solution counts for one set and equation: the total E, the
    distinct-valued count, and every pairwise coincidence count."""

    E: int
    distinct: int
    coincident: dict[tuple[int, int], int]


def solution_report(A: IntegerSet, eq: Equation) -> SolutionReport:
    """Assemble and cross-validate the full count family for A."""
    two_k = 2 * eq.k
    E = count_all_solutions(A, eq)
    distinct = count_distinct_solutions(A, eq, method="inclusion_exclusion")
    coincident = {
        (i, j): count_coincident(A, eq, i, j)
        for i in range(1, two_k + 1)
        for j in range(i + 1, two_k + 1)
    }
    if distinct > E:
        raise InvariantViolation("distinct-valued count exceeds the total count")
    if A.elements and E < len(A.elements) ** eq.k:
        raise InvariantViolation("total count fell below the diagonal count")
    if distinct == 0 and E > sum(coincident.values()):
        raise InvariantViolation(
            "coincidence counts cannot cover a solution-free set's total"
        )
    return SolutionReport(E=E, distinct=distinct, coincident=coincident)
