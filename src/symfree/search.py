"""Extremal search: how large can a solution-free subset of [1, N] get.

A 2k-subset of [1, N] is forbidden when some ordering of its values solves
the equation; those subsets form a 2k-uniform hypergraph, and solution-free
sets are exactly its independent sets.  Exact maxima come from a
Russian-doll branch and bound, which settles R(v) for every v up to N.  It
blocks candidates from sum bitsets of the chosen set, for every equation,
through the blocking plan that the greedy scans read too; greedy restarts
give lower bounds.
Energy bounds tie the search back to the counting layer.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd

import numpy as np

from .construct import _blocking_plan, _grow_sums, greedy_solution_free
from .counting import (
    DEFAULT_BUDGET,
    WorkBudget,
    _half_sum_pairs,
    _half_tuple_units,
    count_all_solutions,
    has_distinct_solution_using,
    is_solution_free,
)
from .model import (
    Equation,
    IntegerSet,
    InvariantViolation,
    ValidationError,
    _require_int,
    _require_positive_int,
    _require_types,
    bit_positions,
    make_set,
)

DEFAULT_SUBSET_BUDGET = 10**7
DEFAULT_NODE_BUDGET = 5 * 10**6


@dataclass(frozen=True, eq=False)
class SolutionHypergraph:
    """Forbidden 2k-subsets of [1, N].  `rows` holds one subset a row, its
    values ascending, in the narrowest unsigned dtype that holds N; the
    rows are in lexicographic order and each subset is listed once."""

    N: int
    k: int
    rows: np.ndarray

    @property
    def edges(self) -> list[tuple[int, ...]]:
        """The rows as ascending tuples of Python ints, in the same order.
        Built anew on each read; the exact search reads neither."""
        edges: list[tuple[int, ...]] = []
        # Blocks of rows hold far less than one tolist() of all of them.
        for start in range(0, len(self.rows), 1 << 16):
            edges.extend(zip(*self.rows[start : start + (1 << 16)].T.tolist()))
        return edges


def build_hypergraph(
    N: int, eq: Equation, budget: int = DEFAULT_SUBSET_BUDGET
) -> SolutionHypergraph:
    """Enumerate every forbidden 2k-subset of [1, N].

    Both halves of the equation carry the coefficients a, so a forbidden set
    is the union of two disjoint half-tuples x, y with a·x == a·y: each pair
    the half-sum join of `counting` lists over [1, N], sorted into a row of
    2k values and kept once however many pairs list it.

    The join's charge counts against `budget`: k + 3 units per half-tuple,
    more when its sums pass int64, before [1, N] or any array is built, then
    2k + 2 units per entry in a run before the first pass gathers, then the
    entries each pass compares.  Exceeding it raises, and no partial
    hypergraph is returned.  While a row packs into 64 bits (2k fields of
    bit_length(N) bits), the whole build, join and rows, peaks at no more
    than 24 bytes per unit charged: a pair's key takes 8 bytes and is
    sorted in place, with no index array beside it.
    """
    _require_positive_int(N, "domain bound N")
    _require_types((eq, Equation))
    if N >= 1 << 63:
        # [1, N] has no length in C, so the join cannot take it.  Charge
        # its half-tuples from N itself: over 2^128 units, past any
        # budget a run can spend, this exits as the join would.  A budget
        # that covers them still could not list them, so N is refused.
        WorkBudget(budget).spend(_half_tuple_units(N, sorted(eq.a), True))
        raise ValidationError("domain bound N must be below 2^63")
    # Each pair's row packs into one key, a field of bit_length(N) bits per
    # index from the smallest up, so that keys sort as rows do and equal
    # rows are equal keys: uint64 while 2k fields fit, Python ints past it.
    two_k, bits = 2 * eq.k, N.bit_length()
    wide = np.uint64 if two_k * bits <= 64 else object
    passes = []
    for pairs in _half_sum_pairs(range(1, N + 1), eq.a, WorkBudget(budget)):
        key = np.zeros(len(pairs), dtype=wide)
        for col in np.sort(pairs, axis=1).T:
            key <<= bits
            key |= col.astype(wide)
        passes.append(key)
    keys = np.concatenate(passes) if passes else np.empty(0, wide)
    del passes
    keys.sort()  # in place: no index array, no second copy
    keep = np.ones(len(keys), dtype=bool)
    keep[1:] = keys[1:] != keys[:-1]
    keys = keys[keep]
    del keep
    rows = np.empty((len(keys), two_k), dtype=np.min_scalar_type(N))
    # Unpacked in blocks, so that the shifted copies stay small.
    for start in range(0, len(keys), 1 << 16):
        block = keys[start : start + (1 << 16)]
        for j in reversed(range(two_k)):
            rows[start : start + len(block), j] = block & ((1 << bits) - 1)
            block = block >> bits
    rows += 1  # index i stands for the value i + 1
    return SolutionHypergraph(N=N, k=eq.k, rows=rows)


@dataclass(frozen=True)
class SearchResult:
    """Outcome of a maximum solution-free set search.  `rows[m - 1]` is a
    maximum free subset of [1, m] for each m the exact search settled."""

    size: int
    witness: IntegerSet
    exact: bool
    nodes_explored: int
    time_ms: int
    rows: tuple[tuple[int, ...], ...] = ()


class _OutOfNodes(Exception):
    pass


def _combs(reads: tuple, N: int) -> dict[int, int]:
    """For each m > 1 of the reads, the bits m*q for q = 1..N."""
    return {m: sum(1 << m * q for q in range(1, N + 1)) for _, _, m in reads if m > 1}


def _blocked(D: list, reads: tuple, combs: dict, offset: int, w: int) -> int:
    """The candidates that including w blocks, on a set whose sum bitsets
    are D: its bits above w are the b > w that `_blocking_plan`'s reads
    find.  A read at m = 1 is one shift; at m > 1 the comb of `_combs`
    picks out the bits m*q, q >= 1, each of which blocks b = w + q."""
    low = 1 << w
    blocked = 0
    for i, c, m in reads:
        if m == 1:
            blocked |= D[i] >> (offset - c * w)
            continue
        hits = D[i] >> (offset + (m - c) * w) & combs[m]
        while hits:
            p = hits.bit_length() - 1
            blocked |= low << p // m
            hits ^= 1 << p
    return blocked


def _clique_cover(avail: int, need: int, below: int, above: int, N: int) -> tuple[int, int]:
    """A greedy cover of the vertex mask `avail` by cliques, counted up to
    `need`: the number of cliques and the start of the last one.  The mask
    `below >> u | above >> (N - u)` holds every vertex adjacent to u <= N.
    Each clique starts at the highest vertex left and takes the highest
    vertex adjacent to all it holds until none is, so its start is its
    largest member and the vertices from w up lie in the cliques that start
    at w or above.

    Only reads that can change the answer are made: none for a start with
    no vertex left below it, none for a clique's last member, since the
    join holds nothing else, and none for the `need`-th clique, whose start
    is returned before it grows.
    """
    cliques = start = 0
    while avail and cliques < need:
        start = avail.bit_length() - 1
        cliques += 1
        if cliques == need:
            break
        avail ^= 1 << start
        join = avail and avail & (below >> start | above >> (N - start))
        while join:
            u = join.bit_length() - 1
            avail ^= 1 << u
            join ^= 1 << u
            if join:
                join &= below >> u | above >> (N - u)
    return cliques, start


def exact_max_solution_free(
    N: int,
    eq: Equation,
    budget: int = DEFAULT_NODE_BUDGET,
) -> SearchResult:
    """Maximum solution-free subset of [1, N] by Russian-doll search.

    Symmetric equations are translation-invariant, so a free subset of any m
    consecutive integers has at most R(m) elements.  R(v) is settled for
    v = 1, ..., N in turn: R(v) = v below 2k, and row v asks whether a free
    set of size R(v-1) + 1 exists.  The previous row's witness plus v is
    tried first.  Failing that, such a set holds 1 and v (else it translates
    into [1, v-1]), so both are forced in and 2..v-1 branched in ascending
    order, including before excluding.  A node is pruned once the unblocked
    candidates from w on, at most R(v-w+1) - 1 of which fit beside v, cannot
    reach the target.  The first set reaching it ends the row; an exhausted
    row has R(v) = R(v-1).  If the node budget runs out, the last settled
    row's witness is returned with exact=False.

    Two cuts spare exhausted rows and move no first hit.  Reflection: x ->
    v + 1 - x maps the row's free sets onto themselves, so once the second
    member w joins, the candidates above v + 1 - w are dropped; the
    lexicographically first set of the target size obeys this, since its
    mirror would come earlier.  Clique cover, when every coefficient is
    +-1: the sum bitsets of a node's chosen set give each candidate's pair
    conflicts (`_blocking_plan`).  Each clique of conflicts holds at most one
    more member, so a node still needing more than one value is pruned
    when a greedy cover of its candidates, built from the highest down,
    takes fewer cliques than it needs.  Otherwise the start of its last
    clique is the node's branching limit: the candidates above it lie in
    fewer cliques than the node needs, so no include above it can reach
    the target.  Mixed coefficients would need a bit test per conflict
    pair, which costs more than the nodes it saves.  The search runs on
    a / gcd(a), whose solution sets are a's, so equal |a_i| take the cover;
    each witness is re-checked against a.

    Including w blocks each candidate b > w that would complete a
    forbidden 2k-set with w and the chosen set S.  The node reads them from
    S's sum bitsets (`_blocking_plan`): exactly those b, as the bitsets sum
    over injective maps into S, so a b is read when S + {w, b} holds a
    forbidden 2k-set that uses both (`_blocked`).  A +-1 equation's two
    reads are the cover's bitsets, so it takes `lo >> w | hi >> (N - w)`.
    Up to N nested nodes each hold a copy of the bitsets, norm1*N bits a
    key either side of 0.  That is charged to the subset budget at the
    first row searched, before the bitsets are built, so rows settled by
    the previous witness plus v build none.

    A node builds its state only once its bounds pass.  It is entered with
    its parent's chosen set as an int mask, the parent's sum bitsets and
    its new member.  It first tests its lowest candidate against the
    candidate count and the Russian-doll cap; a +-1 node then covers its
    candidates from the two bitsets its reads take, grown by the new member
    alone.  Only a node that passes its bounds grows the rest of its
    bitsets, so most children the cover prunes never do.
    """
    _require_types((eq, Equation))
    _require_int(budget, "node budget")
    t0 = time.perf_counter()
    n_rest = 2 * eq.k - 2
    g = gcd(*eq.a)
    search_eq = Equation(tuple(c // g for c in eq.a))
    unit = set(search_eq.a) <= {-1, 1}
    # The search reads no edges: the build stays, first, for its subset
    # budget alone, so that its charge runs before any bitset is sized.
    build_hypergraph(N, eq)
    keys, updates, reads = _blocking_plan(tuple(sorted(search_eq.full_coefficients())))
    offset = search_eq.norm1 * N
    if unit:
        # The reads' two bitsets grow first; the node grows the rest once
        # the cover passes.  Of 2k - 2 >= 2 slots, they are empty on {1}, so
        # the bitsets of {1} need only the rest.
        minus, plus = (i for i, _, _ in reads)
        tops = tuple(u for u in updates if u[0] in (minus, plus))
        updates = tuple(u for u in updates if u[0] not in (minus, plus))
    D1: list | None = None  # the bitsets of {1}, built at the first row searched
    rows = [tuple(range(1, m + 1)) for m in range(1, min(N, n_rest + 1) + 1)]
    nodes = 0
    exact = True
    target = 0
    cap: list[int] = []

    def rec(avail: int, chosen: int, state: list, low: int) -> int:
        # The node whose chosen set is the mask `chosen` plus `low`, avail
        # its candidates and `state` the sum bitsets of `chosen`; the node
        # grows them by `low` only once its bounds pass.
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise _OutOfNodes
        need = target - chosen.bit_count() - 1
        if avail.bit_count() < need or cap[(avail & -avail).bit_length() - 1] < need:
            return 0
        if need == 1:
            return chosen | low | avail & -avail
        chosen |= low
        limit = v
        x = low.bit_length() - 1
        if unit:
            state = _grow_sums(state, tops, x)
            lo, hi = state[minus] >> offset, state[plus] >> (offset - N)
            cliques, limit = _clique_cover(avail, need, lo, hi, N)
            if cliques < need:
                return 0
        state = _grow_sums(state, updates, x)
        while avail:
            low = avail & -avail
            w = low.bit_length() - 1
            if w > limit or cap[w] < need or avail.bit_count() < need:
                return 0
            avail ^= low
            if unit:
                # The two reads, pre-shifted as the cover takes them.
                blocked = lo >> w | hi >> (N - w)
            else:
                blocked = _blocked(state, reads, combs, offset, w)
            child = avail & ~blocked
            if need == target - 2:
                # Reflection x -> v + 1 - x at {1, v}: the gap after 1 is no
                # larger than the gap before v.
                child &= (1 << (v + 2 - w)) - 1
            hit = rec(child, chosen, state, low)
            if hit:
                return hit
        return 0

    try:
        for v in range(len(rows) + 1, N + 1):
            prev = rows[-1]
            target = len(prev) + 1
            if not has_distinct_solution_using(make_set(prev, v), search_eq, v):
                found = prev + (v,)
            else:
                if D1 is None:
                    # Words for N copies of the bitsets and for the combs.
                    ms = {m for _, _, m in reads if m > 1}
                    words = len(keys) * (2 * offset // 64 + 1) * N
                    WorkBudget(DEFAULT_SUBSET_BUDGET).spend(words + sum(m * N // 64 + 1 for m in ms))
                    combs = _combs(reads, N)
                    D1 = _grow_sums([1 << offset] + [0] * (len(keys) - 1), updates, 1)
                cap = [0, 0] + [len(rows[v - w]) - 1 for w in range(2, v)]
                # The root: {1, v}, entered with the bitsets of {1}.
                hit = rec((1 << v) - 4, 2, D1, 1 << v)
                found = bit_positions(hit) if hit else None
            if found and (len(found) != target or not is_solution_free(make_set(found, v), eq)):
                raise InvariantViolation(
                    f"row {v} of {eq}: witness {found} is not a free set of size {target}"
                )
            rows.append(found or prev)
    except _OutOfNodes:
        exact = False
    finally:
        del rec  # break the closure's self-reference cycle

    return SearchResult(
        size=len(rows[-1]),
        witness=make_set(rows[-1], N),
        exact=exact,
        nodes_explored=nodes,
        time_ms=int((time.perf_counter() - t0) * 1000),
        rows=tuple(rows),
    )


def random_restarts(
    N: int, eq: Equation, trials: int, seed: int, budget: int = DEFAULT_BUDGET
) -> SearchResult:
    """Best of `trials` shuffled greedy scans, scan t seeded with
    `seed * 1_000_003 + t`; a lower bound only.  Each scan, and the re-check
    that the best one is free, runs under its own work budget of `budget`."""
    _require_positive_int(trials, "trial count")
    _require_int(seed, "seed")
    t0 = time.perf_counter()
    scans = (
        greedy_solution_free(
            N, eq, order="shuffle", seed=seed * 1_000_003 + t, budget=budget
        )
        for t in range(trials)
    )
    best = max(scans, key=len)  # the first of the largest
    if not is_solution_free(best, eq, budget=budget):
        raise InvariantViolation("greedy produced a set that is not solution-free")
    return SearchResult(
        size=len(best.elements),
        witness=best,
        exact=False,
        nodes_explored=trials * N,
        time_ms=int((time.perf_counter() - t0) * 1000),
    )


@dataclass(frozen=True)
class BoundReport:
    """Energy of a set against its always-valid lower bound and the upper
    bound that applies only to solution-free sets.  Comparisons are done on
    cross-multiplied integers; `lower` is the exact rational for display."""

    E: int
    M: int
    N: int
    lower: Fraction
    upper: int
    lower_holds: bool
    upper_applicable: bool
    upper_holds: bool | None


def check_energy_bounds(
    A: IntegerSet, eq: Equation, budget: int = DEFAULT_BUDGET
) -> BoundReport:
    """Compare E against M^{2k} / (norm1 * N) from below and, for
    solution-free sets, against C(2k,2) * M^{2k-2} from above.  `budget`
    bounds the convolutions behind E and, separately, the half-sum join
    that decides `is_solution_free`."""
    _require_types((A, IntegerSet), (eq, Equation))
    if not A.elements:
        raise ValidationError("energy bounds need a nonempty set")
    M = len(A.elements)
    N = A.domain_bound
    two_k = 2 * eq.k
    E = count_all_solutions(A, eq, budget=budget)
    lower = Fraction(M**two_k, eq.norm1 * N)
    lower_holds = E * eq.norm1 * N >= M**two_k
    upper = comb(two_k, 2) * M ** (two_k - 2)
    applicable = is_solution_free(A, eq, budget=budget)
    return BoundReport(
        E=E,
        M=M,
        N=N,
        lower=lower,
        upper=upper,
        lower_holds=lower_holds,
        upper_applicable=applicable,
        upper_holds=(E <= upper) if applicable else None,
    )
