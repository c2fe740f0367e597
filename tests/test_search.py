import gc
import tracemalloc
from fractions import Fraction

import pytest

from oracles import brute_edges, brute_max_pair_sum_free
from symfree import (
    BudgetExceededError,
    ValidationError,
    find_distinct_solution,
    make_set,
    parse_equation,
)
from symfree.search import (
    build_hypergraph,
    check_energy_bounds,
    exact_max_solution_free,
    random_restarts,
)

EQ11 = parse_equation("1,1")

# maximum sizes for eq "1,1" over [1, N], derived from the power-set oracle
R_SMALL = {1: 1, 2: 2, 3: 3, 4: 3, 5: 4, 6: 4, 7: 4, 8: 5, 9: 5, 10: 5, 11: 5, 12: 5}


def independence_number(N, edges):
    """Largest subset of [1, N] containing no edge, by power-set sweep."""
    edge_sets = [frozenset(e) for e in edges]
    best = 0
    for mask in range(1 << N):
        subset = {v for v in range(1, N + 1) if mask >> (v - 1) & 1}
        if len(subset) > best and not any(e <= subset for e in edge_sets):
            best = len(subset)
    return best


def test_hypergraph_small_examples():
    assert build_hypergraph(3, EQ11).edges == []
    assert build_hypergraph(4, EQ11).edges == [(1, 2, 3, 4)]
    assert build_hypergraph(6, EQ11).edges == [
        (1, 2, 3, 4),
        (1, 2, 4, 5),
        (1, 2, 5, 6),
        (1, 3, 4, 6),
        (2, 3, 4, 5),
        (2, 3, 5, 6),
        (3, 4, 5, 6),
    ]


def test_hypergraph_matches_permutation_oracle():
    cases = (
        ("1,1", 9), ("1,2", 9), ("1,1,1", 8), ("1,2,2", 8),
        # signed and repeated coefficients exercise the half-tuple canonical form
        ("1,-1", 8), ("1,-2", 8), ("3,-5", 8), ("-1,-1", 8), ("1,1,2", 8), ("2,-1,3", 8),
    )
    for eq_text, n_max in cases:
        eq = parse_equation(eq_text)
        full = eq.full_coefficients()
        for n in range(1, n_max + 1):
            assert build_hypergraph(n, eq).edges == brute_edges(n, full)


def test_hypergraph_budget():
    with pytest.raises(BudgetExceededError):
        build_hypergraph(10, EQ11, budget=5)
    with pytest.raises(ValidationError):
        build_hypergraph(0, EQ11)


def test_hypergraph_budget_checked_before_enumeration():
    # perm(2000, 2) exceeds the budget, so nothing is enumerated; spending
    # per half-tuple alone would first hold tens of thousands of them.
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError):
            build_hypergraph(2000, EQ11, budget=10**6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_exact_max_matches_power_set_oracle():
    for n in range(1, 11):
        res = exact_max_solution_free(n, EQ11)
        oracle_size, _ = brute_max_pair_sum_free(n)
        assert res.exact
        assert res.size == oracle_size == R_SMALL[n]


def test_exact_max_other_equation_matches_oracle():
    for eq_text in ("1,1,1", "1,2,2", "2,3"):
        eq = parse_equation(eq_text)
        full = eq.full_coefficients()
        for n in (6, 8):
            res = exact_max_solution_free(n, eq)
            assert res.exact
            assert res.size == independence_number(n, brute_edges(n, full))


def test_exact_max_monotone_in_n():
    sizes = [exact_max_solution_free(n, EQ11).size for n in range(1, 13)]
    for a, b in zip(sizes, sizes[1:]):
        assert a <= b <= a + 1


def test_exact_max_trivial_below_2k():
    res = exact_max_solution_free(3, EQ11)
    assert (res.size, tuple(res.witness), res.exact) == (3, (1, 2, 3), True)


def test_exact_max_accepts_prebuilt_hypergraph():
    H = build_hypergraph(12, EQ11)
    fresh = exact_max_solution_free(12, EQ11)
    reused = exact_max_solution_free(12, EQ11, hypergraph=H)
    assert (fresh.size, tuple(fresh.witness)) == (reused.size, tuple(reused.witness))
    assert fresh.nodes_explored == reused.nodes_explored == 1201


def test_exact_max_node_counts_pinned():
    # (size, nodes explored, edges): the branching order fixes the node count
    expected = {
        ("1,1", 24): (7, 113518, 946),
        ("1,2,2", 14): (6, 4932, 2532),
        ("1,-2", 20): (7, 14306, 1128),
        ("2,-1,3", 11): (5, 1385, 462),
    }
    for (eq_text, n), want in expected.items():
        eq = parse_equation(eq_text)
        H = build_hypergraph(n, eq)
        res = exact_max_solution_free(n, eq, hypergraph=H)
        assert res.exact
        assert (res.size, res.nodes_explored, len(H.edges)) == want


def test_exact_max_leaves_no_reference_cycles():
    exact_max_solution_free(12, EQ11)
    gc.collect()
    gc.disable()
    try:
        exact_max_solution_free(24, EQ11)
        # So must a witness walk abandoned at its first solution.
        assert find_distinct_solution(make_set(range(1, 30), 30), EQ11) is not None
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_exact_max_stop_at_short_circuits():
    base = exact_max_solution_free(12, EQ11)
    stopped = exact_max_solution_free(12, EQ11, stop_at=5)
    assert stopped.size == base.size == 5
    assert stopped.exact
    assert stopped.nodes_explored < base.nodes_explored


def test_exact_max_initial_witness_kept():
    seed = make_set([1, 2, 3, 5, 8], 12)
    res = exact_max_solution_free(12, EQ11, initial_witness=seed)
    assert res.size == 5
    assert tuple(res.witness) == (1, 2, 3, 5, 8)


def test_exact_max_budget_exhaustion():
    res = exact_max_solution_free(12, EQ11, budget=10)
    assert not res.exact
    assert res.size <= 5
    assert res.nodes_explored == 11
    empty = exact_max_solution_free(12, EQ11, budget=0)
    assert (empty.size, tuple(empty.witness), empty.exact) == (0, (), False)


def test_random_restarts_deterministic():
    a = random_restarts(7, EQ11, 10, 0)
    b = random_restarts(7, EQ11, 10, 0)
    assert (a.size, tuple(a.witness), a.exact) == (4, (1, 2, 3, 5), False)
    assert (a.size, tuple(a.witness)) == (b.size, tuple(b.witness))
    assert a.nodes_explored == 70
    with pytest.raises(ValidationError):
        random_restarts(7, EQ11, 0, 0)


def test_random_restarts_never_beats_exact():
    for n in (8, 10, 12):
        heur = random_restarts(n, EQ11, 6, 1)
        assert heur.size <= R_SMALL[n]


def test_energy_bounds_solution_free_set():
    rep = check_energy_bounds(make_set([1, 2, 5, 7], 7), EQ11)
    assert rep.E == 28
    assert rep.M == 4 and rep.N == 7
    assert rep.lower == Fraction(128, 7)
    assert rep.upper == 96
    assert rep.lower_holds and rep.upper_applicable and rep.upper_holds


def test_energy_bounds_interval_set():
    rep = check_energy_bounds(make_set(range(1, 6), 5), EQ11)
    assert rep.E == 85
    assert rep.lower == Fraction(125, 2)
    assert rep.upper == 150
    assert rep.lower_holds
    assert not rep.upper_applicable
    assert rep.upper_holds is None


def test_energy_bounds_empty_set():
    with pytest.raises(ValidationError):
        check_energy_bounds(make_set([], 5), EQ11)
