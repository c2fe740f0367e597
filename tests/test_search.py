import gc
import hashlib
import json
import tracemalloc
from fractions import Fraction
from itertools import combinations

import pytest

from oracles import brute_edges, brute_max_pair_sum_free
from symfree import (
    BudgetExceededError,
    ValidationError,
    find_distinct_solution,
    greedy_solution_free,
    is_solution_free,
    make_set,
    parse_equation,
)
import symfree.search as search_mod
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


def test_hypergraph_sums_past_int64_stay_exact():
    # With a3 = 2^62 the half-tuples (1, 4, 5) and (2, 3, 9) sum to
    # 5 + 5 * 2^62 and 5 + 9 * 2^62, which agree mod 2^64: int64 sums would
    # list a false edge.
    eq = parse_equation("1,1,4611686018427387904")
    assert build_hypergraph(9, eq).edges == brute_edges(9, eq.full_coefficients()) == []
    assert is_solution_free(make_set(range(1, 10), 9), eq)


def test_hypergraph_rows_past_64_bits_pack_as_python_ints():
    # 14 fields of bit_length(16) = 5 bits pass 64, so the rows are keyed
    # by Python ints.  With every coefficient 1, a 14-set is forbidden when
    # 7 of its values, one of them its least, sum to half its total.
    eq = parse_equation("1,1,1,1,1,1,1")
    want = [
        s for s in combinations(range(1, 17), 14)
        if any(2 * (s[0] + sum(h)) == sum(s) for h in combinations(s[1:], 6))
    ]
    assert build_hypergraph(16, eq).edges == want
    assert len(want) == 56


def test_hypergraph_peak_bytes_per_unit(monkeypatch):
    # The whole build, rows included, holds at most 24 bytes per unit the
    # join charges.
    made = []

    class Recorded(search_mod.WorkBudget):
        __slots__ = ()

        def __init__(self, limit):
            super().__init__(limit)
            made.append(self)

    monkeypatch.setattr(search_mod, "WorkBudget", Recorded)
    for eq_text, n in (("1,1", 300), ("1,2,2", 30), ("1,1,1", 30)):
        made.clear()
        tracemalloc.start()
        try:
            H = build_hypergraph(n, parse_equation(eq_text))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        units = sum(wb.used for wb in made)
        assert len(H.rows) and peak <= 24 * units, (eq_text, n, peak / units)


def test_hypergraph_budget():
    with pytest.raises(BudgetExceededError):
        build_hypergraph(10, EQ11, budget=5)
    with pytest.raises(ValidationError):
        build_hypergraph(0, EQ11)


@pytest.mark.parametrize("bad", [1.5, 7.0, True, False, "7", None])
def test_search_entry_points_reject_non_int_counts(bad):
    # N and the trial count are ints, and a bool is not one; ints below 1
    # keep their own messages.
    for call in (
        lambda n: build_hypergraph(n, EQ11),
        lambda n: exact_max_solution_free(n, EQ11),
        lambda n: greedy_solution_free(n, EQ11),
        lambda n: random_restarts(n, EQ11, 3, 0),
    ):
        with pytest.raises(ValidationError, match=r"^domain bound N must be an integer, got "):
            call(bad)
        with pytest.raises(ValidationError, match=r"^domain bound N must be >= 1$"):
            call(0)
    with pytest.raises(ValidationError, match=r"^trial count must be an integer, got "):
        random_restarts(7, EQ11, bad, 0)
    with pytest.raises(ValidationError, match=r"^trial count must be >= 1$"):
        random_restarts(7, EQ11, -1, 0)


def test_hypergraph_budget_checked_before_enumeration():
    # The join charges k + 3 units for each of the C(2000, 2) half-tuples
    # before it lists any, about 10^7 in all, so nothing is enumerated;
    # charging as it went would first hold tens of thousands of them.
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
    for eq_text in ("1,1,1", "1,2,2", "2,3", "1,-2", "3,-5", "1,1,2", "2,-1,3"):
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


def test_exact_max_node_counts_pinned():
    # (size, nodes explored): the branching order and the cuts fix the node
    # count
    expected = {
        ("1,1", 24): (7, 394),
        ("1,2,2", 14): (6, 341),
        ("1,-2", 20): (7, 322),
        ("2,-1,3", 11): (5, 141),
        # Either side of N = 64, where the candidate masks pass one machine
        # word: a mixed equation blocking through its m = 16 comb reads.
        ("1,16", 63): (31, 133944),
        ("1,16", 66): (32, 135027),
        # Where the clique cover's branching limit saves most: the end of
        # the 1,1 benchmark table, and the k = 3 rows pinned below.
        ("1,1", 40): (9, 7589),
        ("1,1,1", 32): (9, 14022),
        # Signed +-1 equations: their full coefficients are those of 1,1
        # and 1,1,1, so they take the same cover from signed input.
        ("1,-1", 30): (8, 992),
        ("1,1,-1", 30): (9, 10504),
        # Long k = 3 and k = 4 searches: every child blocks from the two
        # bitsets the cover grows first, and the rest grow after it passes.
        ("1,1,1", 40): (9, 77499),
        ("1,1,1,1", 22): (9, 7594),
    }
    for (eq_text, n), want in expected.items():
        res = exact_max_solution_free(n, parse_equation(eq_text))
        assert res.exact
        assert (res.size, res.nodes_explored) == want


# (equation, N): sha256 of json.dumps(rows) and nodes explored, recorded at
# commit 440cf7b, and at 4326499 for 1,1,1 N=40 and 1,1,1,1 N=22.  The rows
# pin every row's witness, not only its size; a change that moves node
# counts on purpose re-pins them.
WITNESS_PINS = {
    ("1,1", 50): ("563485916ca5d1b153a1420105533f75dfc081c6740e85d997bd362c7e5c19bb", 46809),
    ("-1,-1", 40): ("08ca3d2f0c59c4f09a2053164b6303f6fe1a1702abddd1499fbfc90784971d04", 7589),
    ("1,-1", 40): ("08ca3d2f0c59c4f09a2053164b6303f6fe1a1702abddd1499fbfc90784971d04", 7589),
    ("1,1,-1", 30): ("00e2dfce9e607b7fe8c6e10cdb2283c94f985738bfb6f240f8fced7a4016fa15", 10504),
    ("1,1,1", 32): ("52899f7e7f11a7185221d690bfd9a56c2bbd358d32a9d4de94211c7ccd3976d9", 14022),
    ("1,1,1,1", 16): ("12963319ad2efb4a385b1f620978ab49cbe8dbc34e3e6ad8695c77869af9b212", 1005),
    ("1,1,1", 40): ("77d938996b67605ae07224233bfdc228c2910624c5ac2db699f6f78a009e8db4", 77499),
    ("1,1,1,1", 22): ("61f90fe7dd00f16e229723ff6f6e18cec1fc1c2472451f9613ba19cba17cde10", 7594),
    ("1,2", 40): ("d84c4c16460e81b0aedb0cdc4173f9f49e356ab8e1acf4776be4c3ece5e31443", 13721),
    ("1,-2", 30): ("459a00a0686e37d1934acbb0faacc4289e94ae8d054a239f4647bcd48f9f1ff9", 2089),
    ("3,-5", 30): ("a89552d10e1c1b77a19bdf66ed6186da8f209eddbb6c8f213e8eecc67dd60e41", 5098),
    ("2,-1,3", 20): ("6d62a6926121abcfcbaa132f74c76fb0045cd6a04852c34618578fa643aaeb3c", 1622),
    ("1,1,2", 24): ("4a9bdb32b4162c24f3b25b7537f555d18b7c689471d92c1046614c7cff7bec40", 3724),
    ("1,16", 40): ("a17e63e581935ddd8b03af0b75923c77e347924fa2e36bca52f50572195c9798", 120087),
    ("1,2,2", 24): ("5db1c5b5cb075149e4f0b9f6660d598687cbf44bed33f531e4925a4baed7e876", 5268),
    ("1,2,3", 24): ("2d2bc07d10eb7f34bead777d49e9b17d465f6edaf7ce9c9c53265c6e0ea6c828", 4056),
}


@pytest.mark.parametrize("eq_text, n", list(WITNESS_PINS), ids=lambda v: str(v))
def test_exact_max_witnesses_pinned(eq_text, n):
    res = exact_max_solution_free(n, parse_equation(eq_text))
    assert res.exact
    digest = hashlib.sha256(json.dumps(res.rows).encode()).hexdigest()
    assert (digest, res.nodes_explored) == WITNESS_PINS[eq_text, n]


@pytest.mark.parametrize("text, reduced, n", [("2,2", "1,1", 40), ("-3,3,3", "1,1,1", 24)])
def test_equal_magnitudes_search_as_their_unit_form(monkeypatch, text, reduced, n):
    # a / g has a's solution sets, so equal |a_i| take the clique cover and
    # give the reduced form's rows and nodes; each witness is re-checked
    # against the equation given.
    eq = parse_equation(text)
    want = exact_max_solution_free(n, parse_equation(reduced))
    checked = set()

    def recheck(A, check_eq, **kw):
        checked.add(check_eq)
        return is_solution_free(A, check_eq, **kw)

    monkeypatch.setattr(search_mod, "is_solution_free", recheck)
    res = exact_max_solution_free(n, eq)
    assert res.exact and (res.rows, res.nodes_explored) == (want.rows, want.nodes_explored)
    assert checked == {eq}


def test_hypergraph_edge_counts_pinned():
    expected = {
        ("1,1", 24): 946,
        ("1,2,2", 14): 2532,
        ("1,-2", 20): 1128,
        ("2,-1,3", 11): 462,
        ("1,16", 63): 5345,
        ("1,16", 66): 6284,
    }
    for (eq_text, n), want in expected.items():
        assert len(build_hypergraph(n, parse_equation(eq_text)).edges) == want


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


def test_exact_max_rows_pinned():
    # R(N) of every row, settled in one walk within criterion 7's budget
    expected = {
        # The jump points: 9 at 35 and 10 at 46.
        ("1,1", 50): [1, 2, 3, 3, 4, 4, 4, 5, 5, 5, 5, 5, 6, 6, 6, 6, 6, 6, 7, 7,
                      7, 7, 7, 7, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 9, 9, 9, 9, 9, 9,
                      9, 9, 9, 9, 9, 10, 10, 10, 10, 10],
        # 7 at 11, 8 at 18 and 9 at 29.
        ("1,1,1", 32): [1, 2, 3, 4, 5, 6, 6, 6, 6, 6, 7, 7, 7, 7, 7, 7, 7, 8, 8, 8,
                        8, 8, 8, 8, 8, 8, 8, 8, 9, 9, 9, 9],
        ("1,2,2", 18): [1, 2, 3, 4, 5, 5, 5, 6, 6, 6, 6, 6, 6, 6, 6, 6, 7, 7],
    }
    for (eq_text, n), sizes in expected.items():
        eq = parse_equation(eq_text)
        res = exact_max_solution_free(n, eq, budget=2_000_000)
        assert res.exact
        assert [len(w) for w in res.rows] == sizes
        for m, w in enumerate(res.rows, start=1):
            assert is_solution_free(make_set(w, m), eq)
        assert tuple(res.witness) == res.rows[-1]


def test_exact_max_budget_exhaustion():
    # A budget-out returns the witness of the last row settled in full.
    res = exact_max_solution_free(12, EQ11, budget=10)
    assert not res.exact
    assert res.size <= 5
    assert res.nodes_explored == 11
    assert tuple(res.witness) == res.rows[-1] and len(res.rows) < 12
    # Rows below 2k need no node; row 4 spends the first one.
    first = exact_max_solution_free(12, EQ11, budget=0)
    assert (first.size, tuple(first.witness), first.exact) == (3, (1, 2, 3), False)
    assert first.nodes_explored == 1


def test_random_restarts_deterministic():
    a = random_restarts(7, EQ11, 10, 0)
    b = random_restarts(7, EQ11, 10, 0)
    assert (a.size, tuple(a.witness), a.exact) == (4, (1, 2, 3, 5), False)
    assert (a.size, tuple(a.witness)) == (b.size, tuple(b.witness))
    assert a.nodes_explored == 70
    with pytest.raises(ValidationError):
        random_restarts(7, EQ11, 0, 0)


def test_random_restarts_recheck_runs_under_the_scan_budget(monkeypatch):
    import symfree.search as search_mod

    # A stand-in scan returns a free set without spending: the powers of
    # two are a Sidon set, and the join deciding it charges 5 * C(10, 2)
    # = 225 units before it lists anything.
    sidon = make_set([1 << i for i in range(10)], 512)
    monkeypatch.setattr(search_mod, "greedy_solution_free", lambda *a, **kw: sidon)
    assert random_restarts(512, EQ11, 1, 0).size == 10
    with pytest.raises(BudgetExceededError):
        random_restarts(512, EQ11, 1, 0, budget=224)


def test_blocking_plan_built_once_per_equation(monkeypatch):
    # The greedy scans and the exact search read one cached plan: 40
    # restarts and the search on the same reduced equation build it once.
    import symfree.construct as construct_mod

    built = []
    real = construct_mod._sum_bitset_plan

    def spy(tops):
        built.append(tops)
        return real(tops)

    monkeypatch.setattr(construct_mod, "_sum_bitset_plan", spy)
    construct_mod._blocking_plan.cache_clear()
    try:
        eq = parse_equation("1,2,2")
        random_restarts(17, eq, trials=40, seed=0)
        exact_max_solution_free(17, eq)
    finally:
        construct_mod._blocking_plan.cache_clear()
    assert len(built) == 1


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


def test_energy_bounds_budget_charged_before_convolving(monkeypatch):
    import symfree.counting as counting_mod

    calls = []
    real = counting_mod._rep_counts

    def spy(terms):
        calls.append(len(terms))
        return real(terms)

    monkeypatch.setattr(counting_mod, "_rep_counts", spy)
    with pytest.raises(BudgetExceededError):
        check_energy_bounds(make_set(range(1, 1501), 1500), parse_equation("1,1,1"), budget=1)
    assert calls == []
