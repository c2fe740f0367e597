"""Randomized differential tests against the brute-force oracles: the
half-sum join, the witness walk, the exact R(N) rows, the one-value check
and the solution counts over signed and repeated coefficients, and the set
sums over signed sets; and the exact search's indifference to sign flips,
permutations and common factors of the coefficients."""

import functools
import itertools
import math
import random
import tracemalloc

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import (
    brute_counts,
    brute_difference,
    brute_edges,
    brute_max_free_sizes,
    brute_max_joining,
    brute_pair_conflict,
    brute_rep,
    brute_sumset,
    has_distinct_solution,
    permutation_scan_solves,
    russian_doll_sizes,
    subset_solves_somehow,
)
from symfree import (
    Equation,
    count_all_solutions,
    count_distinct_solutions,
    cs_energy_lower_check,
    difference,
    energy,
    find_distinct_solution,
    has_distinct_solution_using,
    is_solution_free,
    iterated_sumset,
    make_set,
    parse_equation,
    sum_of_dilates,
    sumset,
)
from symfree import counting
from symfree.counting import (
    _DENSE_SPAN_CAP,
    _DENSE_WORK_FLOOR,
    WorkBudget,
    _rep_cost,
    _rep_counts,
    _search_witness,
)
from symfree.construct import _blocking_plan, _grow_sums
from symfree.search import (
    _blocked,
    _clique_cover,
    _combs,
    build_hypergraph,
    exact_max_solution_free,
)

_HUGE = ((1 << 62) - 1, 1 << 62, (1 << 62) + 1, -(1 << 62))

# Mostly small signed coefficients, which repeat often; about one draw in
# eight is near 2^62, which puts the join's sums past int64.
coefficient = st.integers(0, 7).flatmap(
    lambda i: st.sampled_from(_HUGE) if i == 0 else st.integers(-3, 3).filter(bool)
)
equations = st.lists(coefficient, min_size=2, max_size=3).map(
    lambda a: Equation(tuple(a))
)


@st.composite
def sets_with_equation(draw):
    eq = draw(equations)
    # The oracle's grid has |A|^{2k} cells, so k = 3 sets stay small.
    values = draw(st.sets(st.integers(1, 16), max_size=7 if eq.k == 3 else 10))
    return make_set(values, 16), eq


@pytest.mark.parametrize("a", [(1, 1), (1, -1), (1, 2, 2), (1, 2, 3), (2, -1, 3)])
def test_meet_in_the_middle_matches_permutation_scan(a):
    full = a + tuple(-c for c in a)
    for subset in itertools.combinations(range(1, 10), len(full)):
        assert subset_solves_somehow(subset, full) == permutation_scan_solves(subset, full)


@given(st.integers(4, 8), equations)
def test_hypergraph_matches_permutation_oracle(n, eq):
    assert build_hypergraph(n, eq).edges == brute_edges(n, eq.full_coefficients())


@given(sets_with_equation())
def test_freeness_matches_distinct_count(case):
    A, eq = case
    distinct = brute_counts(A.elements, eq.full_coefficients())[1]
    assert is_solution_free(A, eq) == (distinct == 0)


@given(sets_with_equation())
def test_witness_is_the_walks_first_solution(case):
    A, eq = case
    first = next(_search_witness(A.elements, eq, WorkBudget()), None)
    assert find_distinct_solution(A, eq) == first


# Fewer huge coefficients and denser sets, of at least 2k - 1 values, than
# the freeness tests draw, so that more cases have solutions to count.
small_equations = st.lists(st.integers(-3, 3).filter(bool), min_size=2, max_size=3).map(
    lambda a: Equation(tuple(a))
)


@st.composite
def dense_sets_with_equation(draw):
    eq = draw(small_equations | equations)
    values = st.sets(st.integers(1, 10), min_size=2 * eq.k - 1, max_size=7 if eq.k == 3 else 10)
    return make_set(draw(values), 10), eq


@given(dense_sets_with_equation())
def test_solution_counts_match_oracle(case):
    A, eq = case
    E, distinct, _ = brute_counts(A.elements, eq.full_coefficients())
    assert count_all_solutions(A, eq) == E
    assert count_distinct_solutions(A, eq, "enumerate") == distinct
    assert count_distinct_solutions(A, eq, "inclusion_exclusion") == distinct


# Only equations whose coefficients are all +-1 run the clique-cover bound.
unit_equations = st.lists(st.sampled_from((1, -1)), min_size=2, max_size=3).map(
    lambda a: Equation(tuple(a))
)

# The sweep visits only the subsets free of every forbidden 2k-subset, and
# the edge oracle sums each k-subset once; N <= 20 at k = 2 and N <= 14 at
# k = 3 keep this test near 3 s.
equations_with_n = (unit_equations | small_equations).flatmap(
    lambda eq: st.tuples(st.just(eq), st.integers(1, 20 if eq.k == 2 else 14))
)


@given(equations_with_n)
def test_exact_rows_match_power_set_sweep(case):
    eq, N = case
    full = eq.full_coefficients()
    res = exact_max_solution_free(N, eq)
    assert res.exact
    edges = brute_edges(N, full)
    assert [len(row) for row in res.rows] == brute_max_free_sizes(N, edges)
    for m, row in enumerate(res.rows, start=1):
        assert set(row) <= set(range(1, m + 1))
        assert not any(set(e) <= set(row) for e in edges)


# Past the power-set sweep's caps: the independent Russian doll over the
# edge oracle settles these rows in about 4 s all told, most of it listing
# the edges.
@pytest.mark.parametrize(
    "text, N",
    [("1,1", 30), ("1,-1", 30), ("1,2", 30), ("3,-5", 30)]
    + [("1,1,1", 18), ("1,2,2", 18), ("1,2,3", 18), ("2,-1,3", 18)],
)
def test_exact_rows_match_russian_doll_oracle(text, N):
    eq = parse_equation(text)
    res = exact_max_solution_free(N, eq)
    assert res.exact
    edges = brute_edges(N, eq.full_coefficients())
    assert [len(row) for row in res.rows] == russian_doll_sizes(N, edges)


@st.composite
def equivalent_equations(draw):
    """A drawn equation, one with its coefficients sign-flipped, permuted and
    multiplied by a common factor, which has the same solution sets, and N."""
    eq = draw(small_equations)
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=eq.k, max_size=eq.k))
    order = draw(st.permutations(range(eq.k)))
    g = draw(st.integers(1, 3))
    other = Equation(tuple(g * signs[i] * eq.a[i] for i in order))
    return eq, other, draw(st.integers(1, 24 if eq.k == 2 else 14))


@given(equivalent_equations())
def test_exact_search_sees_only_the_solution_sets(case):
    # Flipping a sign swaps x_i with x_{k+i}, a permutation permutes the
    # slot pairs and a common factor divides out, so the search must take
    # the same path: the same rows, in the same number of nodes.
    eq, other, N = case
    res = exact_max_solution_free(N, eq)
    again = exact_max_solution_free(N, other)
    assert again.rows == res.rows and again.witness.elements == res.witness.elements
    assert (again.nodes_explored, again.exact) == (res.nodes_explored, res.exact)


@given(small_equations, st.lists(st.integers(1, 12), min_size=3, max_size=12), st.integers(0, 99))
def test_one_added_value_matches_oracle(eq, candidates, pick):
    # A free set built greedily from the drawn values, so that adding one
    # more often creates a solution, and a value from outside it.
    full = eq.full_coefficients()
    kept = []
    for v in dict.fromkeys(candidates):
        if len(kept) < (8 if eq.k == 2 else 6) and not has_distinct_solution(kept + [v], full):
            kept.append(v)
    outside = [v for v in range(1, 17) if v not in kept]
    value = outside[pick % len(outside)]
    A = make_set(kept, 16)
    expected = has_distinct_solution(sorted(kept + [value]), full)
    assert has_distinct_solution_using(A, eq, value) == expected


@functools.lru_cache(maxsize=None)
def _hypergraph_rows(eq):
    """The forbidden 2k-subsets of [1, 14] as sets, built once per equation."""
    return [frozenset(row) for row in build_hypergraph(14, eq).edges]


def _plan(eq, N):
    """The blocking plan's keys, updates and reads for eq, and the bit
    offset norm1*N of sets in [1, N]."""
    return (*_blocking_plan(tuple(sorted(eq.full_coefficients()))), eq.norm1 * N)


def _read_updates(updates, reads):
    """The updates of the reads' keys, and the rest."""
    tops = {i for i, _, _ in reads}
    return [u for u in updates if u[0] in tops], [u for u in updates if u[0] not in tops]


def _node_state(eq, N, S):
    """The sum bitsets of S as the exact search grows them for a +-1
    equation, the two read keys first and then the rest, and the two
    conflict bitsets pre-shifted as the clique cover reads them."""
    keys, updates, reads, offset = _plan(eq, N)
    tops, rest = _read_updates(updates, reads)
    (minus, _, _), (plus, _, _) = reads
    D = [1 << offset] + [0] * (len(keys) - 1)
    for s in S:
        D = _grow_sums(_grow_sums(D, tops, s), rest, s)
    return D, D[minus] >> offset, D[plus] >> (offset - N)


def _greedy_keep(eq, values):
    """A free set S kept greedily from the drawn values, and the values it
    did not keep, in drawn order."""
    full = eq.full_coefficients()
    S, rest = [], []
    for v in values:
        if len(S) < (6 if eq.k == 2 else 4) and not has_distinct_solution(S + [v], full):
            S.append(v)
        else:
            rest.append(v)
    return S, rest


@given(unit_equations, st.lists(st.integers(1, 14), min_size=2, max_size=14, unique=True))
def test_clique_cover_bounds_the_free_extensions(eq, values):
    # Some of the values S did not keep are the candidates.
    full = eq.full_coefficients()
    S, rest = _greedy_keep(eq, values)
    candidates = rest[: 7 if eq.k == 2 else 4]
    _, below, above = _node_state(eq, 14, S)
    for u in candidates:
        conflict = below >> u | above >> (14 - u)
        for b in candidates:
            if b != u:
                assert bool(conflict >> b & 1) == brute_pair_conflict(S, u, b, full)
    mask = sum(1 << u for u in candidates)
    cliques, _ = _clique_cover(mask, len(candidates) + 1, below, above, 14)
    assert brute_max_joining(S, candidates, full) <= cliques <= len(candidates)
    # Counting stops once it reaches the need.
    assert _clique_cover(mask, 1, below, above, 14)[0] == min(1, cliques)
    # The branching limit: fewer than `need` of the candidates from any w
    # above the start of the need-th clique can join S.
    for need in range(1, cliques + 1):
        counted, limit = _clique_cover(mask, need, below, above, 14)
        assert counted == need and limit in candidates
        for w in candidates:
            if w > limit:
                above_w = [c for c in candidates if c >= w]
                assert brute_max_joining(S, above_w, full) < need


# More examples than the profile's, as only about half the draws are +-1.
@settings(max_examples=200)
@given(
    unit_equations | small_equations,
    st.lists(st.integers(1, 14), min_size=1, max_size=14, unique=True),
    st.integers(1, 14),
)
def test_blocking_matches_the_hypergraph(eq, values, w):
    # Including w in the search blocks, from the sum bitsets of S read
    # through the search's plan (m = 1 shifts and m > 1 combs), exactly the
    # candidates b > w for which some forbidden 2k-set inside S + {w, b}
    # holds both w and b.  For +-1 equations that mask is the cover's.  The
    # greedy scan's read, bit m*b of D[i] >> (offset - ci*w) for some read,
    # finds them on both sides of w.
    S, _ = _greedy_keep(eq, values)
    assume(w not in S)
    keys, updates, reads, offset = _plan(eq, 14)
    D = [1 << offset] + [0] * (len(keys) - 1)
    for s in S:
        D = _grow_sums(D, updates, s)
    blocked = _blocked(D, reads, _combs(reads, 14), offset, w)
    if set(eq.a) <= {-1, 1}:
        _, below, above = _node_state(eq, 14, S)
        assert blocked == below >> w | above >> (14 - w)
    # The b with {w, b} <= row <= S + {w, b}: the one value outside S + {w}
    # of a row that holds w.
    completing = set()
    for row in _hypergraph_rows(eq):
        if w in row and len(row - {*S, w}) == 1:
            completing |= row - {*S, w}
    for b in range(w + 1, 15):
        if b not in S:
            assert bool(blocked >> b & 1) == (b in completing)
    for b in set(range(1, 15)) - {*S, w}:
        read = any(D[i] >> (offset - c * w) >> m * b & 1 for i, c, m in reads)
        assert read == (b in completing), b


@given(unit_equations, st.sets(st.integers(1, 14), max_size=8), st.integers(1, 14))
def test_lazily_grown_conflicts_match_the_full_growth(eq, S, x):
    # The two conflict bitsets grown by x straight from S's bitsets, and the
    # node's growth of the rest, equal every bitset of the plan grown by x.
    keys, plan, reads, _ = _plan(eq, 14)
    D, _, _ = _node_state(eq, 14, sorted(S - {x}))
    assert len(D) == len(keys)
    grown = _grow_sums(D, plan, x)
    assert _node_state(eq, 14, sorted(S | {x}))[0] == grown
    tops, _ = _read_updates(plan, reads)
    first = _grow_sums(D, tops, x)
    assert [first[i] for i, _, _ in reads] == [grown[i] for i, _, _ in reads]
    # The reads take exactly the plan's two largest keys.
    assert sorted(keys[i] for i, _, _ in reads) == [C for C in keys if len(C) == 2 * eq.k - 2]


def _plain_greedy_cover(avail, need, conflicts):
    """The cover of `_clique_cover`, reading every member's conflicts, and
    the number of those reads that can change the answer: all but those of
    the need-th clique, of a start with no vertex left below it and of a
    clique's last member."""
    cliques = start = useful = 0
    while avail and cliques < need:
        start = avail.bit_length() - 1
        avail ^= 1 << start
        last = cliques + 1 == need
        useful += not last and avail != 0
        join = avail & conflicts(start)
        while join:
            u = join.bit_length() - 1
            avail ^= 1 << u
            useful += not last and join != 1 << u
            join &= conflicts(u) & avail
        cliques += 1
    return (cliques, start), useful


@st.composite
def shift_graphs(draw, least=0):
    """A graph on the vertices 0, ..., n-1 in the form the exact search
    reads: u and b adjacent when bit u + b of `below` or bit N - u + b of
    `above` is set, for N = n, and `above` symmetric about N.  Returns n,
    below, above and each vertex's neighbours."""
    n = draw(st.integers(least, 10))
    below = draw(st.integers(0, (1 << 2 * n) - 1))
    above = 0
    for d in draw(st.sets(st.integers(0, n), max_size=n + 1)):
        above |= 1 << n + d | 1 << n - d
    adjacent = [(below >> u | above >> (n - u)) & ((1 << n) - 1) & ~(1 << u) for u in range(n)]
    return n, below, above, adjacent


class _CountedShifts(int):
    """An int that records each right shift of it in `shifts`; the cover
    shifts `below` and `above` once each per conflict read."""

    def __new__(cls, value):
        self = super().__new__(cls, value)
        self.shifts = []
        return self

    def __rshift__(self, other):
        self.shifts.append(other)
        return int(self) >> other


@given(shift_graphs(), st.integers(0, 1023))
def test_clique_cover_matches_the_plain_greedy(graph, pick):
    # Same answer as the greedy that reads every member's conflicts, for
    # every need, on the whole vertex set and on a drawn part of it, making
    # just the reads of it that can change the answer.
    n, below, above, adjacent = graph
    for u in range(n):
        for b in range(n):
            assert adjacent[u] >> b & 1 == adjacent[b] >> u & 1
    for avail in ((1 << n) - 1, pick & ((1 << n) - 1)):
        for need in range(n + 2):
            counted = _CountedShifts(below), _CountedShifts(above)
            got = _clique_cover(avail, need, *counted, n)
            want, useful = _plain_greedy_cover(avail, need, adjacent.__getitem__)
            assert got == want
            assert len(counted[0].shifts) == len(counted[1].shifts) == useful


@given(shift_graphs(least=1))
def test_clique_cover_is_at_least_the_independence_number(graph):
    n, below, above, adjacent = graph
    free = [
        pick
        for pick in range(1 << n)
        if not any(pick >> u & 1 and pick & adjacent[u] for u in range(n))
    ]
    independent = max(pick.bit_count() for pick in free)
    cliques, _ = _clique_cover((1 << n) - 1, n + 1, below, above, n)
    assert independent <= cliques <= n
    # No independent set above the start of the need-th clique has `need`
    # vertices.
    for need in range(1, cliques + 1):
        _, limit = _clique_cover((1 << n) - 1, need, below, above, n)
        assert max(pick.bit_count() for pick in free if not pick & (2 << limit) - 1) < need


def _mostly(near, far):
    """Draws from `near`, except about one draw in eight from `far`."""
    return st.integers(0, 7).flatmap(lambda i: st.sampled_from(far) if i == 0 else near)


# Members near zero, with an occasional far one that spreads a set over 2^20
# or more and sends its sums down the hash-set path.
signed_sets = st.lists(
    _mostly(st.integers(-12, 12), (1 << 20, -(1 << 20), (1 << 21) + 3)), min_size=1, max_size=8
).map(lambda v: tuple(sorted(set(v))))
dilates = st.lists(st.integers(1, 4), min_size=1, max_size=3)
_TOP = (1 << 20) + 1
weighted_sets = st.lists(
    st.tuples(st.sets(_mostly(st.integers(1, 12), (_TOP,)), min_size=1, max_size=6), st.integers(1, 4)),
    min_size=1,
    max_size=3,
)


@given(signed_sets, signed_sets, st.integers(1, 4))
def test_set_sums_match_products(A, B, k):
    assert list(sumset(A, B)) == brute_sumset(A, B)
    assert list(difference(A, B)) == brute_difference(A, B)
    assert iterated_sumset(k, B) == tuple(sorted(brute_rep([B] * k, [1] * k)))


@given(signed_sets, dilates)
def test_sum_of_dilates_matches_product(A, coeffs):
    assert sum_of_dilates(coeffs, A) == tuple(sorted(brute_rep([A] * len(coeffs), coeffs)))


@given(weighted_sets)
def test_cs_energy_lower_check_matches_product(pairs):
    sets = [(make_set(values, _TOP), c) for values, c in pairs]
    rep = brute_rep([s.elements for s, _ in sets], [c for _, c in sets])
    product = math.prod(len(s.elements) for s, _ in sets)
    res = cs_energy_lower_check(sets)
    assert res.E == sum(r * r for r in rep.values())
    assert res.sumset_size == len(rep)
    assert res.product_sq == product**2
    assert res.holds


# Systems of two or three sets with at least `_DENSE_WORK_FLOOR` tuples, so
# that `_rep_counts` takes a numpy route: the sum array over [1, 64], sorted
# outer sums over [1, 10^6], and Python-int sums with a huge coefficient.
@st.composite
def large_systems(draw):
    l = draw(st.integers(2, 3))
    top = draw(st.sampled_from([64, 10**6]))
    size = 32 if l == 2 else 11  # 32^2 and 11^3 both pass 1,024
    values = st.sets(st.integers(1, top), min_size=size, max_size=size + 4)
    return [(make_set(draw(values), top), draw(coefficient)) for _ in range(l)]


def _brute_energy(lhs, rhs):
    r1, r2 = (
        brute_rep([s.elements for s, _ in side], [c for _, c in side]) for side in (lhs, rhs)
    )
    return sum(c * r2.get(m, 0) for m, c in r1.items())


@given(large_systems(), large_systems())
def test_energy_past_the_work_floor_matches_products(lhs, rhs):
    assert math.prod(len(s.elements) for s, _ in lhs) >= _DENSE_WORK_FLOOR
    assert energy(lhs, lhs) == _brute_energy(lhs, lhs)
    assert energy(lhs, rhs) == _brute_energy(lhs, rhs)


@st.composite
def large_sets_with_equation(draw):
    eq = draw(equations)
    top = draw(st.sampled_from([64, 10**6]))
    size = 32 if eq.k == 2 else 11  # each half then has over 1,024 tuples
    return make_set(draw(st.sets(st.integers(1, top), min_size=size, max_size=size + 4)), top), eq


@given(large_sets_with_equation())
def test_energy_count_past_the_work_floor_matches_products(case):
    # E is the number of pairs of k-tuples with equal sums a·x.
    A, eq = case
    half = [(A, c) for c in eq.a]
    assert count_all_solutions(A, eq) == _brute_energy(half, half)


# Peak bytes per `_rep_cost` unit of the sorted route, by the type of its
# sums: 12-32 with int64 sums and 37-72 with Python ints on these inputs,
# where the dict route holds 12-126.  Summed coincidences shrink both.
_SORTED_BYTES_PER_UNIT = {"int64": 40, "object": 96}


@pytest.mark.parametrize(
    "size, coeffs",
    [(300, (1, 2)), (60, (1, 1, 1)), (40, (1, -1, 3)), (300, (1, 1 << 62)), (40, (1, 1, 1 << 62))],
)
def test_sorted_route_bytes_per_budget_unit(size, coeffs, monkeypatch):
    A = make_set(random.Random(31).sample(range(1, 10**7), size), 10**7)
    terms = [sorted(c * x for x in A.elements) for c in coeffs]
    units = _rep_cost(A, coeffs)

    def peak():
        tracemalloc.start()
        try:
            out = _rep_counts(terms)
            return tracemalloc.get_traced_memory()[1], out
        finally:
            tracemalloc.stop()

    sorted_peak, (sums, _) = peak()
    tuples = len(A.elements) ** len(coeffs)
    assert sum(t[-1] - t[0] for t in terms) >= min(_DENSE_SPAN_CAP, 8 * tuples)
    kind = "object" if sums.dtype == object else "int64"
    assert sorted_peak <= _SORTED_BYTES_PER_UNIT[kind] * units
    # The same system on the dict route, as if it were under the work floor.
    monkeypatch.setattr(counting, "_DENSE_WORK_FLOOR", 1 << 62)
    dict_peak, out = peak()
    assert isinstance(out, dict)
    assert sorted_peak <= dict_peak


# Peak bytes per unit of a whole count of all solutions, by how its halves
# convolve: 0.3-3.8 on these dense sets (the dict and shifted-add routes),
# about 32 on the sparse int64 ones and 72 on the one with Python-int sums.
_ZERO_COUNT_BYTES_PER_UNIT = {"dense": 8, **_SORTED_BYTES_PER_UNIT}


@pytest.mark.parametrize(
    "a, size, top, kind",
    [
        ((1, 1), 80, 400, "dense"),
        ((1, 2, 2), 80, 400, "dense"),
        ((1, 1, 1), 120, 2000, "dense"),
        ((1, 1, 1, 1), 24, 60, "dense"),
        ((1, 1), 600, 10**7, "int64"),
        ((1, 2), 300, 10**6, "int64"),
        ((1, 1 << 62), 300, 10**7, "object"),
    ],
)
def test_zero_count_bytes_per_budget_unit(a, size, top, kind):
    A = make_set(random.Random(size).sample(range(1, top + 1), size), top)
    eq = Equation(a)
    wb = WorkBudget()
    tracemalloc.start()
    try:
        E = counting._zero_count(A, eq.full_coefficients(), wb, {})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert E == count_all_solutions(A, eq, budget=wb.used)
    assert peak <= _ZERO_COUNT_BYTES_PER_UNIT[kind] * wb.used, peak / wb.used
