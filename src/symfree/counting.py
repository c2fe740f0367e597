"""Exact solution counting over finite integer sets.

Everything here is integer-exact.  Every solution count over a set A is built
from Z(C) = #{x in A^|C| : C·x = 0} for multisets C of coefficients: the
energy E is Z of the full coefficients (a, -a), a coincidence count is Z once
two slots merge into one carrying their sum, and the distinct-valued count is
a signed sum of Z over the set partitions of the 2k slots, built slot by slot
with the partitions that merge alike summed into one weight.  Z is the energy
of one half of C against the other half negated, from the representation
function of each half (how many tuples reach each weighted sum), and a memo
keyed by the multiset lets the counts of one report share each Z.

A representation function is built one set at a time: each step adds the
counts so far, shifted by each term c*x.  Its route is decided once, from
the whole system.  Under `_DENSE_WORK_FLOOR` tuples the counts go into one
dict, one (sum, term) pair at a time, which is cheapest for the thousands
of tiny systems `check inequalities` builds.  Past it numpy does each step
on arrays: shifted adds on one array over the range of the sums when that
range is at most 8 times the tuple count and `_DENSE_SPAN_CAP`, and
otherwise the outer sums of the distinct sums so far with the next term,
sorted, with equal sums merged.  The arrays go straight
into the energy: the sum of the squared counts when both sides are one
system, as the halves of (a, -a) always are, and otherwise a dot product
over the sums the two sides share.  Only `rep_function` reads them back
into a dict.

One depth-first walker visits the distinct-valued solutions over any given
set, a canonical member of each orbit of the slot symmetries.  Its first
solution is the witness that `verify` reports, it decides whether one added
value creates a solution, and counting all of them, times the orbit size,
is the enumeration cross-check of the partition sum.  Whether a whole set
is free is decided by a numpy join of its half-tuples on their weighted
sums, which is exhaustive at array speed where the walk on a free set is
exhaustive in Python; the walker then runs only to produce the witness.
The same join lists the forbidden 2k-sets of the exact search in `search`.

Each array kernel picks int64 or Python ints in object arrays once per
call, with `model.int_dtype`, from bounds known before it starts: for a
convolution's counts the tuple count before its last step (a term's values
differ, so no step's entry exceeds the tuple count before it), for its
offsets the range of the sums, for its sums that range and their ends, and
for an energy's dot product the product of the two tuple counts.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .model import (
    BudgetExceededError,
    Equation,
    IntegerSet,
    InvariantViolation,
    ValidationError,
    _is_int,
    _read_pairs,
    _read_sequence,
    _require_coefficient,
    _require_int,
    _require_positive_int,
    _require_types,
    int_dtype,
)

DEFAULT_BUDGET = 10**9

# The dense route of `_rep_counts` lays the counts out as one numpy array over
# the range of the sums.  Beyond this span the array (32 MB of int64 at the
# cap) would dominate memory, so the system takes the sorted route, whose
# arrays hold only the sums it attains.
_DENSE_SPAN_CAP = 1 << 22
# Below this many tuples one dict add per (sum, term value) pair beats
# numpy's fixed cost per call; `check inequalities` makes thousands of such
# calls.
_DENSE_WORK_FLOOR = 1 << 10
# Extra units per half-tuple when the join sums Python ints: tracemalloc
# puts it at about 130 bytes per half-tuple against 50 in int64, so both
# branches hold about 8 bytes per unit.
_OBJECT_SUM_UNITS = 10
# Units per transition of the partition sum's layers: tracemalloc puts the
# sum's peak at up to 196 bytes per transition charged, on coefficients
# such as 1,10,100,... whose partial partitions never merge.
_LAYER_UNITS = 25


class WorkBudget:
    """Counts elementary steps and raises once the limit is exhausted."""

    __slots__ = ("limit", "used")

    def __init__(self, limit: int = DEFAULT_BUDGET):
        _require_positive_int(limit, "budget")
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
        values = self.counts.values()
        if values and min(values) < 1:
            raise ValidationError("representation counts must be positive")
        if sum(values) != self.total:
            raise ValidationError("representation counts must sum to the total")

    def __getitem__(self, value: int) -> int:
        return self.counts.get(value, 0)


def _rep_counts(
    terms: list[list[int]],
) -> dict[int, int] | tuple[np.ndarray, np.ndarray]:
    """counts[m] = #{(t1, ..., tl) : ti in terms[i], t1 + ... + tl = m} for
    nonempty ascending terms of pairwise different values.

    Under `_DENSE_WORK_FLOOR` tuples the counts come back as a dict, added
    one (sum, term value) pair at a time.  Past it they come back as two
    arrays, the attained sums ascending and their positive counts, from the
    shifted-add array when the sums' range is at most `_DENSE_SPAN_CAP` and 8
    times the tuple count, and from sorted outer sums otherwise.  Both work
    on offsets from the least sum, which is added at the end.
    """
    tuples = math.prod(map(len, terms))
    if tuples < _DENSE_WORK_FLOOR:
        counts = {0: 1}
        for t in terms:
            out: dict[int, int] = {}
            get = out.get
            for m, c in counts.items():
                for v in t:
                    key = m + v
                    out[key] = get(key, 0) + c
            counts = out
        return counts
    base = sum(t[0] for t in terms)
    span = sum(t[-1] - t[0] for t in terms)
    count_dtype = int_dtype(tuples // len(terms[-1]))
    if span < min(_DENSE_SPAN_CAP, 8 * tuples):
        offsets, counts = _dense_counts(terms, count_dtype)
    else:
        offsets, counts = _sorted_counts(terms, int_dtype(span), count_dtype)
    offsets = offsets.astype(int_dtype(span, base, base + span), copy=False)
    offsets += base
    return offsets, counts


def _dense_counts(terms: list[list[int]], count_dtype: type) -> tuple[np.ndarray, np.ndarray]:
    """The attained offsets from the least sum and their counts, by shifted
    adds on one array of `count_dtype` over the range of the sums so far."""
    lo = terms[0][0]
    arr = np.zeros(terms[0][-1] - lo + 1, dtype=count_dtype)
    arr[[v - lo for v in terms[0]]] = 1
    for t in terms[1:]:
        n, lo = len(arr), t[0]
        new = np.zeros(n + t[-1] - lo, dtype=count_dtype)
        for v in t:
            new[v - lo : v - lo + n] += arr
        arr = new
    nz = np.flatnonzero(arr)
    return nz, arr[nz]


def _sorted_counts(
    terms: list[list[int]], offset_dtype: type, count_dtype: type
) -> tuple[np.ndarray, np.ndarray]:
    """The attained offsets from the least sum, of `offset_dtype`, and their
    counts, of `count_dtype`, for sums too sparse for one array.  Each step
    forms the outer sums of the distinct offsets so far with the next
    term's, sorts them and merges equal ones, adding their counts."""
    lo, before = terms[0][0], len(terms[0])
    sums = np.array([v - lo for v in terms[0]], dtype=offset_dtype)
    counts = np.ones(before, dtype=count_dtype)
    for t in terms[1:]:
        lo = t[0]
        outer = (sums[:, None] + np.array([v - lo for v in t], dtype=offset_dtype)).ravel()
        if len(sums) == before:  # every count so far is 1
            outer.sort()
            weights = None
        else:
            order = np.argsort(outer, kind="stable")
            outer = outer[order]
            order //= len(t)  # the row of each outer sum: whose count it carries
            weights = counts[order]
            del order
        first = np.empty(len(outer), dtype=bool)  # first of its run of equal sums
        first[0] = True
        np.not_equal(outer[1:], outer[:-1], out=first[1:])
        starts = np.flatnonzero(first)
        sums, size = outer[starts], len(outer)
        del first, outer  # the step's peak is then its sorted sums and weights
        if weights is None:
            counts = np.diff(starts, append=size).astype(count_dtype, copy=False)
        else:
            counts = np.add.reduceat(weights, starts)
        before *= len(t)
    return sums, counts


def _terms(system: Sequence) -> tuple[list[list[int]], int]:
    """The terms c*A of a system of (IntegerSet, coefficient) pairs, each
    ascending (reversed when c < 0), and its tuple count.  The one check of
    a counting system: every item a pair, then at least one, then each
    pair's set and its nonzero integer coefficient in turn."""
    pairs = _read_pairs(system, "energy takes (set, coefficient) pairs")
    if not pairs:
        raise ValidationError("at least one set is required")
    terms = []
    for s, c in pairs:
        _require_types((s, IntegerSet))
        _require_coefficient(c)
        terms.append([c * x for x in (s.elements if c > 0 else reversed(s.elements))])
    return terms, math.prod(map(len, terms))


def rep_function(sets: Sequence[IntegerSet], coeffs: Sequence[int]) -> RepFunction:
    """Representation function of c1*A1 + ... + cl*Al.

    counts[m] is the number of tuples (x1, ..., xl), xi in Ai, with
    sum(ci * xi) == m; total is the product of the set sizes.
    """
    message = "rep_function takes sequences of sets and coefficients"
    sets, coeffs = _read_sequence(sets, message), _read_sequence(coeffs, message)
    if 0 < len(sets) != len(coeffs):  # no sets at all is `_terms`' to name
        raise ValidationError("sets and coefficients must have equal length")
    terms, total = _terms(zip(sets, coeffs))
    counts = _rep_counts(terms) if total else {}
    if not isinstance(counts, dict):
        counts = dict(zip(counts[0].tolist(), counts[1].tolist()))
    return RepFunction(counts=counts, total=total)


def _arrays(counts) -> tuple[np.ndarray, np.ndarray]:
    """The ascending sums and the counts of a `_rep_counts` result."""
    if not isinstance(counts, dict):
        return counts
    sums = sorted(counts)
    return (
        np.array(sums, dtype=int_dtype(sums[0], sums[-1])),
        np.array([counts[m] for m in sums], dtype=np.int64),
    )


def _dot(x: np.ndarray, y: np.ndarray, bound: int) -> int:
    """x·y for counts whose dot product and every partial sum of it are at
    most `bound`."""
    if int_dtype(bound) is object:
        x, y = x.astype(object), y.astype(object)
    return int(x @ y)


def _self_energy(terms: list[list[int]], total: int) -> tuple[int, int]:
    """The energy of a system against itself, the sum of its squared
    counts, and the number of sums it attains, both from one `_rep_counts`
    pass over its terms and tuple count as `_terms` returns them."""
    if not total:
        return 0, 0
    counts = _rep_counts(terms)
    if isinstance(counts, dict):
        return sum(c * c for c in counts.values()), len(counts)
    return _dot(counts[1], counts[1], total * total), len(counts[0])


def energy(lhs, rhs) -> int:
    """Number of joint tuples where the lhs system and rhs system take the
    same value.  Each side is an iterable of (IntegerSet, coefficient) pairs,
    which `_terms` checks, lhs first, as it builds that side's terms.

    With both sides the same terms, as the halves of (a, -a) always are,
    this is the sum of the squared counts.  `_self_energy` returns it with the
    number of sums attained, from the same representation function, so the
    Cauchy-Schwarz check of `setops` reads E and the sumset size from one
    pass.  Otherwise each sum of the side with fewer is looked up in the
    other's ascending sums, and the counts of the shared sums are dotted.
    """
    t1, n1 = _terms(lhs)
    t2, n2 = _terms(rhs)
    if t1 == t2:
        return _self_energy(t1, n1)[0]
    if not n1 * n2:
        return 0
    r1 = _rep_counts(t1)
    r2 = _rep_counts(t2)
    (s1, c1), (s2, c2) = sorted((_arrays(r1), _arrays(r2)), key=lambda r: len(r[0]))
    if s1.dtype != s2.dtype:
        s1, s2 = s1.astype(object), s2.astype(object)
    at = np.minimum(np.searchsorted(s2, s1), len(s2) - 1)
    hit = s2[at] == s1
    return _dot(c1[hit], c2[at[hit]], n1 * n2)


def count_all_solutions(A: IntegerSet, eq: Equation, budget: int = DEFAULT_BUDGET) -> int:
    """Ordered 2k-tuples over A solving the equation, coincidences allowed."""
    _require_types((A, IntegerSet), (eq, Equation))
    return _zero_count(A, eq.full_coefficients(), WorkBudget(budget), {})


def count_coincident(A: IntegerSet, eq: Equation, i: int, j: int) -> int:
    """Solutions over A with x_i == x_j (1-based indices into the 2k slots)."""
    _require_types((A, IntegerSet), (eq, Equation))
    two_k = 2 * eq.k
    if not (_is_int(i) and _is_int(j) and 1 <= i < j <= two_k):
        raise ValidationError(f"need 1 <= i < j <= {two_k}, got ({i!r}, {j!r})")
    return _zero_count(A, _merged_coefficients(eq, i, j), WorkBudget(), {})


def _merged_coefficients(eq: Equation, i: int, j: int) -> list[int]:
    """The coefficients once slots i and j merge into one variable, which
    carries the sum of theirs."""
    coeffs = eq.full_coefficients()
    rest = [c for pos, c in enumerate(coeffs, start=1) if pos not in (i, j)]
    return rest + [coeffs[i - 1] + coeffs[j - 1]]


def _zero_count(
    A: IntegerSet, coeffs: Sequence[int], budget: WorkBudget, memo: dict
) -> int:
    """Z(coeffs) = #{x in A^len(coeffs) : coeffs·x = 0}.

    A zero coefficient is a free variable, a factor |A|, and Z of no
    coefficients is 1.  The others, ordered by size, are dealt alternately
    into two halves, each sorted by (|c|, c) so that equal halves compare
    equal, and Z is the energy of the first against the negated second.
    Each half's `_rep_cost` is charged before it is convolved, once if the
    halves are equal, as those of (a, -a) always are.  `memo` maps each
    nonzero multiset, as a sorted tuple, to its count, so callers sharing it
    never convolve one multiset twice.
    """
    key = tuple(sorted(c for c in coeffs if c != 0))
    if key and key not in memo:
        order = sorted(key, key=abs)
        lhs = order[0::2]
        rhs = sorted((-c for c in order[1::2]), key=lambda c: (abs(c), c))
        budget.spend(_rep_cost(A, lhs) + (_rep_cost(A, rhs) if rhs != lhs else 0))
        memo[key] = energy([(A, c) for c in lhs], [(A, c) for c in rhs])
    return len(A.elements) ** (len(coeffs) - len(key)) * memo.get(key, 1)


def _rep_cost(A: IntegerSet, coeffs: Sequence[int]) -> int:
    """Upper bound on the (partial sum, term) pairs that rep_function over
    copies of A visits: each step pairs every partial sum with every element,
    and the partial sums fit in the range the coefficients span so far."""
    n = len(A.elements)
    width = A.elements[-1] - A.elements[0] if n else 0
    cost, support, span = 0, 1, 0
    for c in coeffs:
        cost += support * n
        span += abs(c) * width
        support = min(support * n, span + 1)
    return cost


def _count_distinct_partitions(
    A: IntegerSet, eq: Equation, budget: WorkBudget, memo: dict
) -> int:
    """The distinct-valued count as the sum over the set partitions of the
    2k slots of Z of the merged coefficients, each partition weighted by
    the product over its blocks B of (-1)^(|B|-1) (|B|-1)!.

    The partitions are built slot by slot.  A partial partition is kept as
    the ascending tuple of its blocks' (coefficient sum, size) pairs, mapped
    to the summed weight of the partitions that reach it.  A slot c opens
    the block (c, 1) at the same weight, or joins one block (s, n), which
    becomes (s + c, n + 1) at -n times the weight; equal blocks are joined
    one at a time, as each join is a different partition.  Each layer's
    transitions are charged `_LAYER_UNITS` units each before it is built.
    """
    coeffs = eq.full_coefficients()
    if len(A.elements) < len(coeffs):
        return 0
    layer: dict[tuple[tuple[int, int], ...], int] = {(): 1}
    for c in coeffs:
        budget.spend(_LAYER_UNITS * sum(len(blocks) + 1 for blocks in layer))
        nxt: dict[tuple[tuple[int, int], ...], int] = {}
        get = nxt.get
        for blocks, w in layer.items():
            key = tuple(sorted(blocks + ((c, 1),)))
            nxt[key] = get(key, 0) + w
            for i, (s, n) in enumerate(blocks):
                key = tuple(sorted(blocks[:i] + ((s + c, n + 1),) + blocks[i + 1 :]))
                nxt[key] = get(key, 0) - n * w
        layer = nxt
    return sum(
        w * _zero_count(A, [s for s, _ in blocks], budget, memo)
        for blocks, w in layer.items()
        if w
    )


def count_distinct_solutions(
    A: IntegerSet,
    eq: Equation,
    method: str = "enumerate",
    budget: int = DEFAULT_BUDGET,
) -> int:
    """Ordered 2k-tuples over A solving the equation with pairwise different
    values.

    method "enumerate" walks the canonical solutions, one per orbit of the
    slot symmetries, and multiplies their number by the orbit size; method
    "inclusion_exclusion" sums merged-variable counts over the set
    partitions of the 2k slots with signed factorial weights, the partitions
    built one slot at a time and those with equal (block sum, block size)
    pairs summed into one weight.  Both are exact and run under a step
    budget.
    """
    _require_types((A, IntegerSet), (eq, Equation))
    if method == "enumerate":
        walk = _search_witness(A.elements, eq, WorkBudget(budget))
        return _symmetry_order(eq) * sum(1 for _ in walk)
    if method == "inclusion_exclusion":
        return _count_distinct_partitions(A, eq, WorkBudget(budget), {})
    raise ValidationError(f"unknown method {method!r}")


def _order_constraints(coeffs: tuple[int, ...], k: int) -> list[int]:
    """Per-position index of an earlier position whose value must stay
    strictly smaller, or -1.

    Positions sharing a coefficient are interchangeable in any solution, so
    their values may be assumed increasing.  When the first and the (k+1)-th
    position each carry a unique coefficient, swapping the two halves of the
    tuple is also a symmetry, which pins their relative order too.
    """
    prev = [-1] * len(coeffs)
    last_by_coeff: dict[int, int] = {}
    for p, c in enumerate(coeffs):
        if c in last_by_coeff:
            prev[p] = last_by_coeff[c]
        last_by_coeff[c] = p
    if coeffs.count(coeffs[0]) == 1 and coeffs.count(coeffs[k]) == 1:
        prev[k] = 0
    return prev


def _symmetry_order(eq: Equation) -> int:
    """Size of the slot-symmetry group whose orbits `_order_constraints`
    picks one member from.

    The group permutes slots sharing a coefficient, doubled by the half-swap
    when the constraints break that symmetry too.  It moves every tuple of
    pairwise different values, so each orbit of distinct-valued solutions has
    exactly this many members.
    """
    coeffs = eq.full_coefficients()
    order = math.prod(math.factorial(coeffs.count(c)) for c in set(coeffs))
    if _order_constraints(coeffs, eq.k)[eq.k] == 0:
        order *= 2
    return order


def _search_witness(
    elements: tuple[int, ...], eq: Equation, budget: WorkBudget
) -> Iterator[tuple[int, ...]]:
    """Depth-first walk over the canonical distinct-valued solutions.

    Values are drawn from `elements`, and every solution yielded meets
    `_order_constraints`, so each orbit of the slot symmetries is yielded
    once.  The last two positions are completed with one lookup in an index
    of the pairs of different elements those slots can take, keyed by their
    weighted sum in those slots, each list in lexicographic order: ordered
    pairs, or only increasing ones when the last slot is tied to the one
    before it.  |A|(|A|-1) units are charged before the index is built.
    Yields solution tuples in slot order, lexicographically ascending.
    """
    coeffs = eq.full_coefficients()
    n = len(coeffs)
    elems = elements
    if len(elems) < n:
        return
    budget.spend(len(elems) * (len(elems) - 1))
    prev = _order_constraints(coeffs, eq.k)
    cp, cq = coeffs[-2:]
    tied = prev[n - 1] == n - 2
    pair_index: dict[int, list[tuple[int, int]]] = {}
    for i, x in enumerate(elems):
        cx = cp * x
        for y in elems[i + 1 :] if tied else elems:
            if x != y:
                pair_index.setdefault(cx + cq * y, []).append((x, y))

    # Extremes of the sum over slots i.. for the suffixes the walk bounds.
    lo, hi = [0] * (n + 1), [0] * (n + 1)
    for i in range(n - 1, eq.k, -1):
        ends = (coeffs[i] * elems[0], coeffs[i] * elems[-1])
        lo[i], hi[i] = lo[i + 1] + min(ends), hi[i + 1] + max(ends)

    val = [0] * n
    used: set[int] = set()
    last = n - 3
    prev_pen = prev[n - 2]
    prev_last = -1 if tied else prev[n - 1]  # a tie to n - 2 is in the index

    def rec(pos: int, partial: int) -> Iterator[tuple[int, ...]]:
        c = coeffs[pos]
        start = 0
        if prev[pos] >= 0:
            start = bisect_right(elems, val[prev[pos]])
        if pos == last:
            # The last free slot takes only values whose pair sum is indexed,
            # found in one filtered pass.
            budget.spend(len(elems) - start)
            target = -partial
            hits = [v for v in elems[start:] if target - c * v in pair_index]
            for v in hits:
                if v in used:
                    continue
                # Set before the pair's order checks: prev[n - 2] may be pos.
                val[pos] = v
                pairs = pair_index[target - c * v]
                budget.spend(len(pairs))
                for x, y in pairs:
                    if x == v or y == v or x in used or y in used:
                        continue
                    if prev_pen >= 0 and x <= val[prev_pen]:
                        continue
                    if prev_last >= 0 and y <= val[prev_last]:
                        continue
                    val[n - 2] = x
                    val[n - 1] = y
                    yield tuple(val)
            return
        # Before slot k each filled slot's negated partner is still free to
        # cancel it, so the suffix bound can cut only from slot k on (k >= 4).
        bounded = pos >= eq.k
        for idx in range(start, len(elems)):
            v = elems[idx]
            if v in used:
                continue
            budget.spend()
            p = partial + c * v
            if bounded and (p + lo[pos + 1] > 0 or p + hi[pos + 1] < 0):
                continue
            val[pos] = v
            used.add(v)
            yield from rec(pos + 1, p)
            used.discard(v)

    try:
        yield from rec(0, 0)
    finally:
        del rec  # break the closure's self-reference cycle


def _half_tuple_units(n: int, slots: list[int], wide: bool) -> int:
    """What `_half_sum_pairs` charges for listing the half-tuples of n
    values in the ascending `slots`, before it lists any: k + 3 units a
    half-tuple, and `_OBJECT_SUM_UNITS` more when the sums are Python ints."""
    count = math.perm(n, len(slots))  # half-tuples: ties fix their order
    for c in set(slots):
        count //= math.factorial(slots.count(c))
    return (len(slots) + 3 + (_OBJECT_SUM_UNITS if wide else 0)) * count


def _half_sum_pairs(
    elements: Sequence[int], a: Sequence[int], budget: WorkBudget
) -> Iterator[np.ndarray]:
    """Every pair of disjoint half-tuples over the positive ascending
    `elements` with equal sums a·x, one nonempty pass at a time.

    A half-tuple is k distinct values in the k slots of `a`, increasing
    across slots that share a coefficient; two disjoint ones with equal sums
    are a distinct-valued solution.  Every half-tuple is listed as k index
    columns (int32 while n^k < 2^31) and sorted by its sum, and only entries
    of equal sum are compared: pass d compares each entry with the one d
    places later in its run, and the entries still in a run at pass d are a
    subset of those at pass d - 1.  A pass yields a row per pair: the k
    indices into `elements` of one half-tuple, then the other's.
    k·max|a|·max(elements) bounds every sum.

    Routes are chosen once per call.  While the int64 sums' span and an
    index fit in 63 bits together, one in-place sort of the keys
    (sum - min) << b | index gives the order and the sorted sums, and a run
    is in index order; otherwise `argsort` does.  Up to 64 elements a pair
    is disjoint when the uint64 bit masks of its indices AND to 0; past 64
    the k² pairs of index columns are compared.  k + 3 units per half-tuple
    (index columns, key, order, mask), plus `_OBJECT_SUM_UNITS` for Python
    int sums, are charged before anything is listed; 2k + 2 units per entry
    in a run before the first pass gathers; and each pass's comparisons
    before they are made.
    """
    n = len(elements)
    slots = sorted(a)  # slots sharing a coefficient become adjacent
    if n < 2 * len(slots):
        return
    dtype = int_dtype(len(slots) * max(map(abs, slots)) * elements[-1])
    budget.spend(_half_tuple_units(n, slots, dtype is object))
    # n^k bounds the length of every list of partial rows.
    index = np.int32 if n ** len(slots) < 1 << 31 else np.int64
    cols: list[np.ndarray] = []
    for j, c in enumerate(slots):
        # Each row so far extends by every index from lo up, lo being one
        # past its index in a tied previous slot, else 0; indices already
        # in the row are then dropped.
        if j and slots[j - 1] == c:
            lo = cols[-1] + 1
            reps = n - lo
            cols = [np.repeat(col, reps) for col in cols]
            starts = (np.cumsum(reps) - reps - lo).astype(index)
            new = np.arange(len(cols[0]), dtype=index) - np.repeat(starts, reps)
        else:
            new = np.tile(np.arange(n, dtype=index), len(cols[0]) if cols else 1)
            cols = [np.repeat(col, n) for col in cols]
        keep = np.ones(len(new), dtype=bool)
        for col in cols:
            keep &= col != new
        cols = [col[keep] for col in cols + [new]]
    del new, keep  # 5 bytes a half-tuple, else kept to the end
    terms = [c * np.array(elements, dtype=dtype) for c in slots]
    sums = terms[0][cols[0]]
    for term, col in zip(terms[1:], cols[1:]):
        sums += term[col]
    size, b = len(sums), (len(sums) - 1).bit_length()  # b: bits of an index
    least = 0 if dtype is object else int(sums.min())
    if dtype is not object and (int(sums.max()) - least).bit_length() + b < 64:
        sums -= least
        sums <<= b
        sums |= np.arange(size)
        sums.sort()
        order = sums & ((1 << b) - 1)
        sums >>= b
    else:
        order = np.argsort(sums)
        sums = sums[order]
    budget.spend(size - 1)
    live = np.flatnonzero(sums[:-1] == sums[1:])
    # A pass gathers two masks or indices per entry in a run and, per
    # disjoint pair, a row of 2k indices; the masks are built in two words
    # per entry in a run.  Later passes gather subsets of the first one's
    # entries and free their arrays, so the first one's charge covers all.
    budget.spend((2 * len(slots) + 2) * live.size)
    masks = None
    if live.size and n <= 64:
        in_run = np.zeros(size, dtype=bool)
        in_run[live] = in_run[live + 1] = True
        at, held = order[in_run], 0
        for col in cols:
            held |= np.left_shift(1, col[at], dtype=np.uint64, casting="unsafe")
        masks = np.zeros(size, dtype=np.uint64)  # 0 outside the runs
        masks[in_run] = held
        del in_run, at, held
    d = 1
    while live.size:
        if masks is None:
            first, second = order[live], order[live + d]
            disjoint = np.ones(live.size, dtype=bool)
            for x in cols:
                xs = x[first]
                for y in cols:
                    disjoint &= xs != y[second]
            del first, second, xs
        else:
            disjoint = masks[live]
            disjoint &= masks[live + d]
            disjoint = disjoint == 0
        if disjoint.any():
            hits = live[disjoint]
            first, second = order[hits], order[hits + d]
            del hits
            # Filled column by column: stacking would hold 2k gathered
            # columns beside the rows.
            pairs = np.empty((len(first), 2 * len(cols)), dtype=index)
            for j, x in enumerate(cols):
                pairs[:, j], pairs[:, len(cols) + j] = x[first], x[second]
            del first, second
            yield pairs
            del pairs
        d += 1
        live = live[: np.searchsorted(live, size - d)]  # live ascends
        budget.spend(live.size)
        live = live[sums[live] == sums[live + d]]


def _half_sums_collide(
    elements: tuple[int, ...], a: tuple[int, ...], budget: WorkBudget
) -> bool:
    """Whether two disjoint half-tuples over `elements` have the same sum
    a·x, which is whether the set has a distinct-valued solution.  The join
    stops at its first nonempty pass."""
    return next(_half_sum_pairs(elements, a, budget), None) is not None


def find_distinct_solution(
    A: IntegerSet, eq: Equation, budget: int = DEFAULT_BUDGET
) -> tuple[int, ...] | None:
    """The lexicographically first canonical distinct-valued solution over A
    in slot order, or None.  One budget covers the join that decides and
    the walk that produces the witness after a collision."""
    _require_types((A, IntegerSet), (eq, Equation))
    wb = WorkBudget(budget)
    if not _half_sums_collide(A.elements, eq.a, wb):
        return None
    hit = next(_search_witness(A.elements, eq, wb), None)
    if hit is None:
        raise InvariantViolation(
            f"half-sum join found a solution over {A.elements} for {eq} "
            "that the walk did not"
        )
    return hit


def is_solution_free(A: IntegerSet, eq: Equation, budget: int = DEFAULT_BUDGET) -> bool:
    """Whether A admits no solution with 2k pairwise different values."""
    _require_types((A, IntegerSet), (eq, Equation))
    return not _half_sums_collide(A.elements, eq.a, WorkBudget(budget))


def has_distinct_solution_using(
    A: IntegerSet, eq: Equation, value: int, budget: int = DEFAULT_BUDGET
) -> bool:
    """Whether A plus `value` gains a distinct-valued solution through it.

    Assumes A itself is solution-free; any solution of A plus the value then
    uses the value, so one walk over their union decides it.
    """
    _require_types((A, IntegerSet), (eq, Equation))
    _require_int(value, "value")
    grown = tuple(sorted({*A.elements, value}))
    return next(_search_witness(grown, eq, WorkBudget(budget)), None) is not None


@dataclass(frozen=True)
class SolutionReport:
    """All solution counts for one set and equation: the total E, the
    distinct-valued count, and every pairwise coincidence count."""

    E: int
    distinct: int
    coincident: dict[tuple[int, int], int]


def solution_report(
    A: IntegerSet, eq: Equation, budget: int = DEFAULT_BUDGET
) -> SolutionReport:
    """Assemble and cross-validate the full count family for A.  One budget
    and one memo cover the partition sum, E and every coincidence count:
    once the partition sum has run, E and each coincidence count are among
    its terms."""
    _require_types((A, IntegerSet), (eq, Equation))
    two_k = 2 * eq.k
    wb, memo = WorkBudget(budget), {}
    distinct = _count_distinct_partitions(A, eq, wb, memo)
    E = _zero_count(A, eq.full_coefficients(), wb, memo)
    coincident = {
        (i, j): _zero_count(A, _merged_coefficients(eq, i, j), wb, memo)
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
