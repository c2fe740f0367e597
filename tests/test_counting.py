import random
import tracemalloc

import pytest

from oracles import brute_counts, brute_rep
from symfree import (
    BudgetExceededError,
    ValidationError,
    count_all_solutions,
    count_coincident,
    count_distinct_solutions,
    energy,
    find_distinct_solution,
    is_solution_free,
    make_set,
    parse_equation,
    rep_function,
    solution_report,
)

EQ11 = parse_equation("1,1")
EQ111 = parse_equation("1,1,1")
EQ122 = parse_equation("1,2,2")
# Signed and repeated coefficients: orbit sizes with and without the
# half-swap, and coefficient classes that differ only in sign.
MIXED = [
    parse_equation(t) for t in ("1,2", "1,-1", "3,-5", "-1,-1", "1,1,2", "2,-1,3")
]


def _random_case(rng):
    eq = rng.choice([EQ11, EQ111, EQ122, *MIXED])
    size = rng.randint(1, 6)
    A = make_set(rng.sample(range(1, 9), size), 8)
    return A, eq


def test_rep_function_pair_sums():
    A = make_set([1, 2, 3], 6)
    r = rep_function([A, A], [1, 1])
    assert r.counts == {2: 1, 3: 2, 4: 3, 5: 2, 6: 1}
    assert r.total == 9


def test_rep_function_single_dilate():
    s = make_set([5], 5)
    assert rep_function([s], [7]).counts == {35: 1}


def test_rep_function_signed():
    s = make_set([1, 2], 2)
    assert rep_function([s, s], [1, -1]).counts == {-1: 1, 0: 2, 1: 1}


def test_rep_function_validation():
    s = make_set([1], 1)
    with pytest.raises(ValidationError):
        rep_function([], [])
    with pytest.raises(ValidationError):
        rep_function([s, s], [1])
    with pytest.raises(ValidationError):
        rep_function([s], [0])


def test_rep_function_matches_brute_product():
    rng = random.Random(5)
    for _ in range(40):
        l = rng.randint(1, 3)
        sets = [make_set(rng.sample(range(1, 30), rng.randint(1, 8)), 30) for _ in range(l)]
        coeffs = [rng.choice([-1, 1]) * rng.randint(1, 5) for _ in range(l)]
        r = rep_function(sets, coeffs)
        assert r.counts == brute_rep([s.elements for s in sets], coeffs)
        assert sum(r.counts.values()) == r.total


def test_rep_support_within_norm_times_bound():
    # positive coefficients, sets inside [1, N]: at most norm1 * N sum values
    rng = random.Random(6)
    for _ in range(30):
        l = rng.randint(1, 3)
        N = rng.randint(5, 25)
        sets = [make_set(rng.sample(range(1, N + 1), rng.randint(1, N // 2 + 1)), N) for _ in range(l)]
        coeffs = [rng.randint(1, 4) for _ in range(l)]
        r = rep_function(sets, coeffs)
        assert len(r.counts) <= sum(coeffs) * N
        assert min(r.counts) >= sum(c * s.elements[0] for c, s in zip(coeffs, sets))
        assert max(r.counts) <= sum(c * s.elements[-1] for c, s in zip(coeffs, sets))


def test_energy_self_pair():
    A = make_set([1, 2, 3], 3)
    assert energy([(A, 1), (A, 1)], [(A, 1), (A, 1)]) == 19


def test_energy_disjoint_supports():
    A = make_set([1, 2], 10)
    B = make_set([8, 9], 10)
    assert energy([(A, 1)], [(B, 1)]) == 0


def test_energy_singletons():
    A = make_set([4], 4)
    assert energy([(A, 3)], [(A, 3)]) == 1


def test_count_all_solutions_examples():
    assert count_all_solutions(make_set([1, 2, 3], 3), EQ11) == 19
    assert count_all_solutions(make_set([9], 9), EQ122) == 1
    assert count_all_solutions(make_set([1, 2], 2), EQ111) == 20


def test_count_all_at_least_diagonal():
    rng = random.Random(7)
    for _ in range(40):
        A, eq = _random_case(rng)
        assert count_all_solutions(A, eq) >= len(A.elements) ** eq.k


def test_count_coincident_examples():
    A = make_set([1, 2, 3], 3)
    # x1 == x3 forces x2 == x4, leaving two free variables
    assert count_coincident(A, EQ11, 1, 3) == 9
    # x1 == x2 reduces to 2*x1 = x3 + x4
    assert count_coincident(A, EQ11, 1, 2) == 5
    assert count_coincident(make_set([5], 5), EQ111, 2, 6) == 1


def test_count_coincident_index_validation():
    A = make_set([1, 2], 2)
    with pytest.raises(ValidationError):
        count_coincident(A, EQ11, 2, 2)
    with pytest.raises(ValidationError):
        count_coincident(A, EQ11, 0, 1)
    with pytest.raises(ValidationError):
        count_coincident(A, EQ11, 1, 5)


def test_count_distinct_examples():
    assert count_distinct_solutions(make_set([1, 2, 3], 3), EQ11) == 0
    assert count_distinct_solutions(make_set([1, 2, 3, 4], 4), EQ11) == 8
    # 1 + 3 + 7 == 2 + 4 + 5 and reorderings
    A = make_set([1, 2, 3, 4, 5, 7], 7)
    assert count_distinct_solutions(A, EQ111, method="enumerate") == 72
    assert count_distinct_solutions(A, EQ111, method="inclusion_exclusion") == 72


def test_count_distinct_methods_agree_with_oracle():
    rng = random.Random(9)
    for _ in range(60):
        A, eq = _random_case(rng)
        _, expected, _ = brute_counts(A.elements, eq.full_coefficients())
        assert count_distinct_solutions(A, eq, method="enumerate") == expected
        assert count_distinct_solutions(A, eq, method="inclusion_exclusion") == expected


def test_count_distinct_unknown_method():
    with pytest.raises(ValidationError):
        count_distinct_solutions(make_set([1], 1), EQ11, method="montecarlo")


def test_enumerate_budget_is_an_error_not_an_estimate():
    A = make_set(range(1, 9), 8)
    with pytest.raises(BudgetExceededError):
        count_distinct_solutions(A, EQ111, method="enumerate", budget=10)


def test_budget_checked_before_large_allocations():
    # The witness walk charges its |A|(|A|-1)-entry pair index, and the
    # partition sum its Bell(2k) partitions, before building either.
    A = make_set(range(1, 601), 600)  # a 359,400-entry pair index
    B = make_set(range(1, 11), 10)
    eq5 = parse_equation("1,1,1,1,1")  # Bell(10) = 115,975 partitions
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError):
            find_distinct_solution(A, EQ11, budget=1)
        with pytest.raises(BudgetExceededError):
            count_distinct_solutions(B, eq5, method="inclusion_exclusion", budget=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_is_solution_free_examples():
    assert is_solution_free(make_set([1, 2, 3, 4, 5, 6], 6), EQ111)
    assert not is_solution_free(make_set([1, 2, 3, 4, 5, 7], 7), EQ111)
    assert is_solution_free(make_set([1, 2, 5, 7], 7), EQ11)


def test_find_distinct_solution_really_solves():
    rng = random.Random(13)
    found = 0
    for _ in range(60):
        A, eq = _random_case(rng)
        hit = find_distinct_solution(A, eq)
        if hit is None:
            assert count_distinct_solutions(A, eq, method="inclusion_exclusion") == 0
            continue
        found += 1
        coeffs = eq.full_coefficients()
        assert sum(c * v for c, v in zip(coeffs, hit)) == 0
        assert len(set(hit)) == len(hit)
        assert all(v in set(A.elements) for v in hit)
    assert found > 0


def test_coincident_matches_oracle_all_pairs():
    rng = random.Random(17)
    for _ in range(25):
        A, eq = _random_case(rng)
        _, _, T = brute_counts(A.elements, eq.full_coefficients())
        for (i, j), expected in T.items():
            assert count_coincident(A, eq, i, j) == expected


def test_coincident_invariant_under_equal_coefficient_swap():
    # variables 2 and 3 of 1,2,2 carry the same coefficient, so swapping
    # them permutes solutions and leaves every T value unchanged
    rng = random.Random(19)
    for _ in range(10):
        A = make_set(rng.sample(range(1, 12), rng.randint(2, 6)), 12)
        for l in (1, 4, 5, 6):
            pair_a = tuple(sorted((2, l)))
            pair_b = tuple(sorted((3, l)))
            assert count_coincident(A, EQ122, *pair_a) == count_coincident(A, EQ122, *pair_b)


def test_solution_report_consistency():
    rng = random.Random(21)
    for _ in range(25):
        A, eq = _random_case(rng)
        report = solution_report(A, eq)
        E, distinct, T = brute_counts(A.elements, eq.full_coefficients())
        assert report.E == E
        assert report.distinct == distinct
        assert report.coincident == T
        if report.distinct == 0 and A.elements:
            # every solution then has a coincidence, so the T family covers E
            assert report.E <= sum(report.coincident.values())


def test_counting_handles_empty_set():
    empty = make_set([], 5)
    assert count_all_solutions(empty, EQ11) == 0
    assert count_distinct_solutions(empty, EQ11) == 0
    assert count_coincident(empty, EQ11, 1, 2) == 0
    assert is_solution_free(empty, EQ11)
