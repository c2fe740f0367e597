import itertools
import math
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
    has_distinct_solution_using,
    is_solution_free,
    make_set,
    parse_equation,
    rep_function,
    solution_report,
)
from symfree.counting import (
    _DENSE_SPAN_CAP,
    _DENSE_WORK_FLOOR,
    WorkBudget,
    _half_sums_collide,
    _rep_counts,
    _search_witness,
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


def test_rep_function_and_energy_validate_sets_and_coefficients():
    A = make_set([1, 199], 199)
    for sets, coeffs in (
        ([(1, 2, 3)], [1]),
        ([A], [1.5]),
        ([A, A], [1.5, 1.5]),
        ([A], [True]),
    ):
        with pytest.raises(ValidationError):
            rep_function(sets, coeffs)
    for items in ([((1, 2), 1)], [A], [(A, 1, 1)]):
        with pytest.raises(ValidationError):
            energy(items, items)


_A = make_set([1, 2, 3], 3)
_B = make_set([1, 2], 2)


# Each malformed system, and the message it is rejected with: every item a
# pair first, then at least one pair, then each pair's set, integer and
# nonzero coefficient in order, lhs before rhs.  A set of two members
# unpacks as a pair of ints.
@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: energy([_A], [_A]), "energy takes (set, coefficient) pairs"),
        (lambda: energy([(_A, 1, 1)], [(_A, 1, 1)]), "energy takes (set, coefficient) pairs"),
        (lambda: energy([(5, 0), _A], [(_A, 1)]), "energy takes (set, coefficient) pairs"),
        (lambda: energy([(_A, 1)], [_A]), "energy takes (set, coefficient) pairs"),
        (lambda: energy([_B], [_B]), "expected an IntegerSet, got int"),
        (lambda: energy([(_A, 1)], []), "at least one set is required"),
        (lambda: energy([((1, 2), 1)], [((1, 2), 1)]), "expected an IntegerSet, got tuple"),
        (lambda: energy([(_A, 0), (5, 1)], [(_A, 1)]), "coefficients must be nonzero"),
        (lambda: energy([(5, 0), (_A, 1)], [(_A, 1)]), "expected an IntegerSet, got int"),
        (lambda: energy([(_A, 1.5)], [(_A, 1)]), "coefficient 1.5 is not an integer"),
        (lambda: energy([(_A, True)], [(_A, True)]), "coefficient True is not an integer"),
        (lambda: rep_function([], [1]), "at least one set is required"),
        (lambda: rep_function([], []), "at least one set is required"),
        (lambda: rep_function([_A], []), "sets and coefficients must have equal length"),
        (lambda: rep_function([_A, _A], [1]), "sets and coefficients must have equal length"),
        (lambda: rep_function([_A], [0]), "coefficients must be nonzero"),
        (lambda: rep_function([(1, 2, 3)], [1]), "expected an IntegerSet, got tuple"),
        (lambda: rep_function([_A], "x"), "coefficient 'x' is not an integer"),
        (lambda: rep_function(_B, [1, 2]), "expected an IntegerSet, got int"),
        (lambda: energy(5, 5), "energy takes (set, coefficient) pairs"),
        (lambda: energy([(_A, 1)], None), "energy takes (set, coefficient) pairs"),
        (lambda: energy([], 5), "at least one set is required"),
        (lambda: energy(5, []), "energy takes (set, coefficient) pairs"),
        (lambda: rep_function(5, [1]), "rep_function takes sequences of sets and coefficients"),
        (lambda: rep_function([_A], 5), "rep_function takes sequences of sets and coefficients"),
    ],
)
def test_malformed_systems_keep_their_messages(call, message):
    with pytest.raises(ValidationError) as info:
        call()
    assert str(info.value) == message


def test_rep_function_matches_brute_product():
    rng = random.Random(5)
    for _ in range(40):
        l = rng.randint(1, 3)
        sets = [make_set(rng.sample(range(1, 30), rng.randint(1, 8)), 30) for _ in range(l)]
        coeffs = [rng.choice([-1, 1]) * rng.randint(1, 5) for _ in range(l)]
        r = rep_function(sets, coeffs)
        assert r.counts == brute_rep([s.elements for s in sets], coeffs)
        assert sum(r.counts.values()) == r.total
        assert r[max(r.counts) + 1] == 0  # a sum no tuple reaches


def _fold(counts, terms):
    """Reference convolution: one Python-int dict add per (count, term)."""
    out = {}
    for m, c in counts.items():
        for t in terms:
            out[m + t] = out.get(m + t, 0) + c
    return out


def _fold_all(terms):
    counts = {0: 1}
    for t in terms:
        counts = _fold(counts, t)
    return counts


def _route(terms):
    """Which route `_rep_counts` takes on a system and, past the work floor,
    whether its last step adds Python-int counts or else its sums leave
    int64."""
    tuples = math.prod(map(len, terms))
    span = sum(t[-1] - t[0] for t in terms)
    base = sum(t[0] for t in terms)
    if tuples < _DENSE_WORK_FLOOR:
        return "small"
    route = "dense" if span < min(_DENSE_SPAN_CAP, 8 * tuples) else "sorted"
    if tuples // len(terms[-1]) >= 1 << 63:
        return route + " object counts"
    if base < -(1 << 63) or base + span >= 1 << 63:
        return route + " object sums"
    return route + " int64"


def _as_dict(counts):
    """A `_rep_counts` result as a dict; arrays must hold ascending sums and
    positive counts."""
    if isinstance(counts, dict):
        return counts
    sums, counts = counts[0].tolist(), counts[1].tolist()
    assert sums == sorted(set(sums)) and min(counts) > 0
    return dict(zip(sums, counts))


def test_convolve_matches_dict_fold_on_every_route():
    rng = random.Random(8)
    seen = set()
    for _ in range(300):
        stretch = 1
        if rng.random() < 0.2:
            # Many short terms near zero: tuple counts past 2^63; stretched,
            # too sparse for one array.
            reach, sizes = 3, [rng.randint(2, 7) for _ in range(rng.randint(25, 40))]
            stretch = rng.choice([1, 10**6])
        else:
            reach = rng.choice([50, 400, 10**5])
            sizes = [rng.randint(1, 90) for _ in range(rng.randint(1, 2))]
            sizes += [rng.randint(1, 12)] * rng.randint(0, 1)
        terms = [
            sorted(stretch * v for v in rng.sample(range(-reach, reach + 1), min(n, 2 * reach + 1)))
            for n in sizes
        ]
        if rng.random() < 0.2:
            # Shifted past 2^62: the offsets still fit int64, the sums not.
            shift = rng.choice([1 << 62, -(1 << 62)])
            terms = [[v + shift for v in t] for t in terms]
        route = _route(terms)
        seen.add(route)
        out = _rep_counts(terms)
        if route != "small":
            assert (out[1].dtype == object) == route.endswith("object counts")
            assert out[0].dtype == object or not route.endswith("object sums")
        assert _as_dict(out) == _fold_all(terms)
    kinds = ("int64", "object counts", "object sums")
    assert seen == {"small", *(f"{r} {k}" for r in ("dense", "sorted") for k in kinds)}


def test_rep_function_matches_brute_product_on_every_route():
    rng = random.Random(9)
    for _ in range(30):
        l = rng.randint(2, 3)
        top = rng.choice([60, 10**5])
        sets = [make_set(rng.sample(range(1, top), rng.randint(5, 30)), top) for _ in range(l)]
        coeffs = [rng.choice([-1, 1]) * rng.randint(1, 5) for _ in range(l)]
        assert rep_function(sets, coeffs).counts == brute_rep(
            [s.elements for s in sets], coeffs
        )


@pytest.mark.parametrize("copies", [10, 11])
def test_rep_function_exact_past_int64(copies):
    # [1, 100]^copies has 100^copies tuples.  Eleven copies convolve input
    # counts summing to 100^10 > 2^63 on the last step, so they take the
    # object branch, and their largest counts exceed 2^63 themselves.
    A = make_set(range(1, 101), 100)
    r = rep_function([A] * copies, [1] * copies)
    assert r.total == 100**copies
    assert sum(r.counts.values()) == r.total
    folded = {0: 1}
    for _ in range(copies):
        folded = _fold(folded, list(A.elements))
    assert r.counts == folded
    assert (max(r.counts.values()) >= 1 << 63) == (copies == 11)


@pytest.mark.parametrize("total", [2 * 3**39, 1 << 63])
def test_convolve_counts_summing_to_the_int64_edge(total):
    # The counts before the last step sum to `total`: near int64's largest
    # value, 2^63 - 1, whose factors (up to 649,657) are too large for term
    # lists, and 2^63.  The last term spans their whole support, so one
    # entry collects all of them.
    parts = [[0, 1, 2]] * 39 + [[0, 1]] if total < 1 << 63 else [[0, 1]] * 63
    top = sum(t[-1] for t in parts)
    terms = parts + [list(range(top + 1))]
    assert _route(terms) == ("dense int64" if total < 1 << 63 else "dense object counts")
    out = _as_dict(_rep_counts(terms))
    assert out == _fold_all(terms)
    assert out[top] == total


def test_convolve_offsets_past_int64_with_every_sum_inside():
    # 32 values in [-2^62, 2^62] and 32 in [-2^61, 0], ends included: 1,024
    # tuples on the sorted route, whose offsets from the least sum reach
    # 2^63 + 2^61 while every sum lies in [-3 * 2^61, 2^62].  The least and
    # the greatest sum alone would call the sums int64.
    rng = random.Random(11)
    wide = sorted({-(1 << 62), 1 << 62, *(rng.randint(-(1 << 62), 1 << 62) for _ in range(30))})
    narrow = sorted({-(1 << 61), 0, *(rng.randint(-(1 << 61), 0) for _ in range(30))})
    terms = [wide, narrow]
    assert len(wide) * len(narrow) == _DENSE_WORK_FLOOR
    assert sum(t[-1] - t[0] for t in terms) == (1 << 63) + (1 << 61)
    assert _route(terms) == "sorted int64"
    assert _as_dict(_rep_counts(terms)) == _fold_all(terms)


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


def _fold_energy(lhs, rhs):
    """Energy from the reference fold of each side's scaled terms."""
    r1, r2 = ({0: 1}, {0: 1})
    for s, c in lhs:
        r1 = _fold(r1, [c * x for x in s.elements])
    for s, c in rhs:
        r2 = _fold(r2, [c * x for x in s.elements])
    return sum(c * r2.get(m, 0) for m, c in r1.items())


@pytest.mark.parametrize("top", [60, 10**6])
def test_energy_of_different_sides_on_different_routes(top):
    # Two copies of 40 values make 1,600 tuples, a numpy route: dense over
    # [1, 60) and sorted over [1, 10^6).  One dilate of 30 of their pair sums is
    # a dict; mixed with a copy of A it is a numpy route again.
    rng = random.Random(top)
    A = make_set(rng.sample(range(1, top), 40), top)
    pair_sums = sorted({x + y for x in A.elements for y in A.elements})
    B = make_set(rng.sample(pair_sums, 30), 2 * top)
    two = [(A, 1), (A, 1)]
    for other in ([(B, 1)], [(B, 1), (A, -1)], [(B, 3)], [(A, 2), (B, -1)]):
        expected = _fold_energy(two, other)
        assert energy(two, other) == expected
        assert energy(other, two) == expected
    assert _route([list(A.elements)] * 2) == ("dense int64" if top == 60 else "sorted int64")
    assert _fold_energy(two, [(B, 1)]) > 0


def test_energy_exact_once_the_squared_counts_pass_int64():
    # Six copies of [1, 100]: 10^12 tuples, every count below 2^63, the sum
    # of their squares above it.
    A = make_set(range(1, 101), 100)
    six = [(A, 1)] * 6
    folded = _fold_all([list(A.elements)] * 6)
    expected = sum(c * c for c in folded.values())
    assert max(folded.values()) < 1 << 63 < expected
    assert energy(six, six) == expected
    signed = [(A, 1)] * 5 + [(A, -1)]
    assert energy(six, signed) == _fold_energy(six, signed)


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


def test_k3_enumeration_matches_oracle():
    # Sets of 7-9 elements from [1, 12] give k=3 solutions, which need the
    # last free slot and the pair after it checked against each other: for
    # 1,1,1 the pair's first slot must exceed the last free slot's value.
    rng = random.Random(23)
    with_solutions = 0
    for eq in (EQ111, EQ122, parse_equation("2,-1,3")):
        for _ in range(4):
            A = make_set(rng.sample(range(1, 13), rng.randint(7, 9)), 12)
            _, expected, _ = brute_counts(A.elements, eq.full_coefficients())
            assert count_distinct_solutions(A, eq, method="enumerate") == expected
            assert count_distinct_solutions(A, eq, method="inclusion_exclusion") == expected
            with_solutions += expected > 0
    assert with_solutions >= 10


def test_k4_counts_match_oracle():
    # At most 4 values keep the oracle's grid at 4^8 cells.
    rng = random.Random(41)
    for eq in map(parse_equation, ("1,1,1,1", "1,-2,3,3")):
        for _ in range(3):
            A = make_set(rng.sample(range(1, 7), rng.randint(2, 4)), 6)
            E, distinct, T = brute_counts(A.elements, eq.full_coefficients())
            report = solution_report(A, eq)
            assert (report.E, report.distinct, report.coincident) == (E, distinct, T)
            assert count_all_solutions(A, eq) == E
            for (i, j), expected in T.items():
                assert count_coincident(A, eq, i, j) == expected
            for method in ("enumerate", "inclusion_exclusion"):
                assert count_distinct_solutions(A, eq, method=method) == distinct


@pytest.mark.parametrize(
    "text", ["1,1,1,1", "1,2,3,4", "1,-2,3,3", "1,1,2,2", "1,1,1,1,1", "1,2,2,2,2"]
)
def test_inclusion_exclusion_matches_enumeration_past_k3(text):
    # 6 + k of [1, 16] leave every equation a nonzero distinct count.
    eq = parse_equation(text)
    A = make_set(random.Random(text).sample(range(1, 17), 6 + eq.k), 16)
    expected = count_distinct_solutions(A, eq, method="enumerate")
    assert expected > 0
    assert count_distinct_solutions(A, eq, method="inclusion_exclusion") == expected


def _canonical_solutions(elements, eq):
    """Distinct-valued solutions by permutation scan, kept when increasing
    across slots sharing a coefficient and, if the first and the (k+1)-th
    coefficients are each unique, with x_1 < x_{k+1}."""
    coeffs = eq.full_coefficients()
    k = eq.k
    half_swap = coeffs.count(coeffs[0]) == 1 and coeffs.count(coeffs[k]) == 1
    tied = [(i, j) for i in range(2 * k) for j in range(i + 1, 2 * k) if coeffs[i] == coeffs[j]]
    out = []
    for t in itertools.permutations(elements, 2 * k):
        if sum(c * v for c, v in zip(coeffs, t)) != 0:
            continue
        if any(t[i] > t[j] for i, j in tied) or (half_swap and t[0] > t[k]):
            continue
        out.append(t)
    return sorted(out)


def test_walk_yields_canonical_solutions_in_lexicographic_order():
    rng = random.Random(29)
    for eq in (EQ11, EQ111, EQ122, *MIXED):
        for _ in range(3):
            A = make_set(rng.sample(range(1, 13), rng.randint(4, 8)), 12)
            walk = list(_search_witness(A.elements, eq, WorkBudget()))
            assert walk == _canonical_solutions(A.elements, eq)
            assert find_distinct_solution(A, eq) == (walk[0] if walk else None)
    # k = 4 is the smallest shape whose walk branches on a second-half slot,
    # where the suffix bound cuts.  Eight values solve 1,1,1,1 only when they
    # split into two halves of equal sum; its third set does.
    for eq4 in map(parse_equation, ("1,1,1,1", "10,1,1,1", "4,3,2,1")):
        found = 0
        for _ in range(3):
            A = make_set(rng.sample(range(1, 13), 8), 12)
            walk = list(_search_witness(A.elements, eq4, WorkBudget()))
            assert walk == _canonical_solutions(A.elements, eq4)
            found += len(walk)
        assert found, eq4


def test_walk_suffix_bound_cuts_from_slot_k():
    # Under 100,1,1,1 on [1, 16], x_5 > x_1 leaves 100(x_1 - x_5) <= -100,
    # which the other slots cannot cancel.  The suffix bound cuts each x_5
    # at once; without it each one scans every value of x_6, and this walk
    # charges 752,016 units.
    wb = WorkBudget()
    walk = _search_witness(tuple(range(1, 17)), parse_equation("100,1,1,1"), wb)
    assert next(walk, None) is None
    assert wb.used <= 53136


def test_walk_peak_bytes_per_unit():
    # The walk to a first solution holds at most 40 bytes per unit charged
    # when the last slot is tied to the one before it, whose pair index
    # keeps only increasing pairs, and at most 72 with every ordered pair.
    cases = (
        ("1,1", 400, 40),
        ("1,2,2", 400, 40),
        ("1,1,1", 300, 40),
        ("1,2", 400, 72),
        ("1,2,3", 400, 72),
    )
    for eq_text, n, per_unit in cases:
        wb = WorkBudget()
        tracemalloc.start()
        try:
            hit = next(_search_witness(tuple(range(1, n + 1)), parse_equation(eq_text), wb))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert hit and peak <= per_unit * wb.used, (eq_text, n, peak / wb.used)


def test_freeness_decision_matches_oracle_and_walk(monkeypatch):
    # Seeded free and non-free sets decide as the brute-force oracle does
    # and report the walk's first solution: the join alone decides a free
    # set, and a join collision is followed by the walk that finds the
    # witness.
    import symfree.counting as counting_mod

    real_walk = counting_mod._search_witness
    real_join = counting_mod._half_sums_collide
    events = []

    def walk(*args):
        events.append("walk")
        return real_walk(*args)

    def join(*args):
        hit = real_join(*args)
        events.append("collision" if hit else "no collision")
        return hit

    monkeypatch.setattr(counting_mod, "_search_witness", walk)
    monkeypatch.setattr(counting_mod, "_half_sums_collide", join)
    rng = random.Random(37)
    runs = set()
    texts = ("1,1", "1,2", "1,-2", "3,-5", "1,1,1", "1,2,2", "1,2,3", "2,-1,3", "1,1,2")
    for eq in map(parse_equation, texts):
        free = not_free = 0
        for _ in range(12):
            # The oracle's grid has |A|^{2k} cells, so k = 3 sets stay small.
            size = rng.randint(2 * eq.k, 8 if eq.k == 3 else 11)
            top = rng.choice([2 * size, 10**6])
            A = make_set(rng.sample(range(1, top + 1), size), top)
            expected = brute_counts(A.elements, eq.full_coefficients())[1] == 0
            events.clear()
            assert is_solution_free(A, eq) == expected, (eq, A)
            runs.add(tuple(events))
            events.clear()
            first = next(real_walk(A.elements, eq, WorkBudget()), None)
            assert find_distinct_solution(A, eq) == first, (eq, A)
            runs.add(tuple(events))
            free += expected
            not_free += not expected
        assert free and not_free, eq
    assert runs == {("no collision",), ("collision",), ("collision", "walk")}


def test_overflowing_half_sums_decide_exactly():
    # Symmetric equations are translation-invariant, so a shift keeps a set
    # free and shifts a witness by the same amount.  The shifted half-sums
    # pass int64, so the join sums Python ints; past 2^63 the values
    # themselves no longer fit an int64.
    free = make_set([4, 17, 41, 100, 172, 190, 199], 199)
    not_free = make_set(range(1, 8), 7)
    assert brute_counts(free.elements, EQ122.full_coefficients())[1] == 0
    witness = find_distinct_solution(not_free, EQ122)
    assert witness == (1, 2, 7, 5, 3, 4)
    for shift in (1 << 61, 1 << 70):
        free_s, not_free_s = (
            make_set([v + shift for v in A], A.elements[-1] + shift)
            for A in (free, not_free)
        )
        assert is_solution_free(free_s, EQ122)
        assert find_distinct_solution(free_s, EQ122) is None
        assert not is_solution_free(not_free_s, EQ122)
        assert find_distinct_solution(not_free_s, EQ122) == tuple(v + shift for v in witness)


def test_pinned_search_matches_oracle_for_two_representative_slots():
    # The added value may take a slot of any coefficient; these equations
    # have one to three coefficient magnitudes, some of both signs.
    rng = random.Random(31)
    for eq in (EQ122, EQ11, *(parse_equation(t) for t in ("1,-2", "1,1,2", "2,-1,3"))):
        full = eq.full_coefficients()
        hits = misses = 0
        while hits < 8 or misses < 8:
            A = make_set(rng.sample(range(1, 16), rng.randint(4, 6)), 15)
            if brute_counts(A.elements, full)[1]:
                continue
            value = rng.choice([v for v in range(1, 16) if v not in A])
            grown = sorted(A.elements + (value,))
            expected = brute_counts(grown, full)[1] > 0
            assert has_distinct_solution_using(A, eq, value) == expected, (eq, A, value)
            hits += expected
            misses += not expected


def test_count_distinct_unknown_method():
    with pytest.raises(ValidationError):
        count_distinct_solutions(make_set([1], 1), EQ11, method="montecarlo")


def test_enumerate_budget_is_an_error_not_an_estimate():
    A = make_set(range(1, 9), 8)
    with pytest.raises(BudgetExceededError):
        count_distinct_solutions(A, EQ111, method="enumerate", budget=10)


def test_budget_checked_before_large_allocations():
    # The witness walk charges its |A|(|A|-1)-entry pair index, the half-sum
    # join its half-tuples, and the partition sum each layer of partial
    # partitions, before building any of them.
    A = make_set(range(1, 601), 600)  # a 359,400-entry pair index
    B = make_set(range(1, 11), 10)
    C = make_set(range(1, 201), 200)  # 3,940,200 half-tuples under 1,2,2
    eq5 = parse_equation("1,1,1,1,1")  # 1,848 layer transitions
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError):
            find_distinct_solution(A, EQ11, budget=1)
        with pytest.raises(BudgetExceededError):
            is_solution_free(C, EQ122, budget=1)
        with pytest.raises(BudgetExceededError):
            # Room for the walker's pair index, none for the join's charge of
            # k + 3 = 5 units for each of its 359,400 half-tuples.
            find_distinct_solution(A, parse_equation("1,2"), budget=359_400 + 1)
        with pytest.raises(BudgetExceededError):
            count_distinct_solutions(B, eq5, method="inclusion_exclusion", budget=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_partition_sum_holds_no_memory_afterwards():
    # No layer of partial partitions outlives the count that built it.
    eq5 = parse_equation("1,1,1,1,1")  # 1,848 layer transitions
    A = make_set(range(1, 11), 10)
    tracemalloc.start()
    try:
        count_distinct_solutions(A, eq5, method="inclusion_exclusion")
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 1024 * 1024


def test_partition_sum_charges_layers_not_partitions(monkeypatch):
    # 1,1,1,1,1 on [1, 10] charges 46,200 units to its layers and 40,530
    # to its convolutions, together less than its Bell(10) = 115,975
    # partitions.  A budget that covers the layers and not the first
    # convolution exits before convolving.
    import symfree.counting as counting_mod

    eq5 = parse_equation("1,1,1,1,1")
    B = make_set(range(1, 11), 10)
    assert count_distinct_solutions(B, eq5, method="inclusion_exclusion", budget=115_975) == (
        count_distinct_solutions(B, eq5, method="enumerate")
    )

    def spy(terms):
        raise AssertionError("convolved past the budget")

    monkeypatch.setattr(counting_mod, "_rep_counts", spy)
    with pytest.raises(BudgetExceededError):
        count_distinct_solutions(B, eq5, method="inclusion_exclusion", budget=46_200)


def test_partition_sum_stops_before_its_first_unaffordable_layer():
    # All-distinct k = 6 would build layers of up to Bell(12) = 4,213,597
    # partial partitions; 1,000 units stop it within the first few slots.
    A = make_set(range(1, 13), 12)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError):
            count_distinct_solutions(
                A, parse_equation("1,2,3,4,5,6"), method="inclusion_exclusion", budget=1000
            )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def _sidon(p):
    """Erdos-Turan: 2pk + (k^2 mod p) for k < p is a Sidon set, so it is
    free for 1,1 and its join runs every pass."""
    return sorted(2 * p * k + k * k % p + 1 for k in range(p))


@pytest.mark.parametrize(
    "case",
    [
        "layers 1,2,3,4,5",
        "join interval int64",
        "join interval object",
        "join sparse int64",
        "join sparse object",
    ],
)
def test_peak_bytes_per_unit(monkeypatch, case):
    # A unit stands for about one 8-byte word of what the charged step
    # holds at its peak.  The layer sum runs without its convolutions.
    import symfree.counting as counting_mod

    monkeypatch.setattr(counting_mod, "_zero_count", lambda A, coeffs, budget, memo: 0)
    shift = 1 << 70 if case.endswith("object") else 0
    if "interval" in case:
        elements = tuple(v + shift for v in range(1, 201 if shift else 401))
    else:
        elements = tuple(v + shift for v in _sidon(211 if shift else 499))
    wb = WorkBudget()
    tracemalloc.start()
    try:
        if case.startswith("layers"):
            A = make_set(range(1, 11), 10)
            counting_mod._count_distinct_partitions(A, parse_equation("1,2,3,4,5"), wb, {})
        else:
            _half_sums_collide(elements, (1, 1), wb)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8 * wb.used, (peak, wb.used)


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


def test_solution_report_shares_the_partition_sums_convolutions(monkeypatch):
    # E and every T_{i,j} are terms of the partition sum, so with one memo
    # the report convolves no multiset the partition sum did not.
    import symfree.counting as counting_mod

    calls = []
    real = counting_mod._rep_counts

    def spy(terms):
        calls.append(len(terms))
        return real(terms)

    monkeypatch.setattr(counting_mod, "_rep_counts", spy)
    A = make_set(random.Random(43).sample(range(1, 41), 8), 40)
    count_distinct_solutions(A, EQ122, method="inclusion_exclusion")
    alone = len(calls)
    calls.clear()
    solution_report(A, EQ122)
    assert alone and len(calls) == alone


def test_counting_handles_empty_set():
    empty = make_set([], 5)
    assert count_all_solutions(empty, EQ11) == 0
    assert count_distinct_solutions(empty, EQ11) == 0
    assert count_coincident(empty, EQ11, 1, 2) == 0
    assert is_solution_free(empty, EQ11)
