import dataclasses
import itertools
import random

import pytest

from oracles import brute_difference, brute_rep, brute_sumset
from symfree import (
    DilateSpec,
    ValidationError,
    cs_energy_lower_check,
    difference,
    dilate,
    iterated_sumset,
    make_set,
    plunnecke_check,
    run_inequality_trials,
    ruzsa_triangle_check,
    sum_of_dilates,
    sumset,
)
from symfree import setops
from symfree.counting import _self_energy, _terms
from symfree.setops import (
    CHECK_NAMES,
    TRIAL_DENSITIES,
    TRIAL_SPANS,
    _dilates_inside,
    _fold,
    _weighted_sums,
    sample_integer_set,
)


def _rand_set(rng, span=40, allow_negative=True):
    lo = -span if allow_negative else 1
    n = rng.randint(1, 12)
    return tuple(sorted(rng.sample(range(lo, span + 1), n)))


def test_sumset_examples():
    assert sumset([1, 2], [10, 20]) == (11, 12, 21, 22)
    assert sumset([0], [3, 7, 9]) == (3, 7, 9)
    assert difference([0, 1], [0, 1]) == (-1, 0, 1)


def test_dilate_and_iterated():
    assert dilate(3, [1, 2]) == (3, 6)
    assert iterated_sumset(3, [0, 1]) == (0, 1, 2, 3)
    assert iterated_sumset(1, [4, 9]) == (4, 9)


def test_sum_of_dilates_example():
    assert sum_of_dilates([1, 2], [0, 1]) == (0, 1, 2, 3)


def test_setops_accept_integer_sets():
    A = make_set([1, 3], 5)
    assert sumset(A, A) == (2, 4, 6)


def test_setops_reject_empty():
    with pytest.raises(ValidationError):
        sumset([], [1])
    with pytest.raises(ValidationError):
        dilate(2, [])
    with pytest.raises(ValidationError):
        dilate(0, [1])
    with pytest.raises(ValidationError):
        iterated_sumset(0, [1])
    # Scalar parameters are ints, and a bool is not one.
    for bad in (1.5, 2.0, True, "2"):
        with pytest.raises(ValidationError):
            dilate(bad, [1, 2])
        with pytest.raises(ValidationError):
            iterated_sumset(bad, [1, 2])
        with pytest.raises(ValidationError):
            plunnecke_check([1, 2], [1, 3], bad)
    with pytest.raises(ValidationError):
        plunnecke_check([1, 2], [1, 3], 0)


def test_mask_and_hash_paths_agree():
    rng = random.Random(3)
    for _ in range(80):
        a = _rand_set(rng)
        b = _rand_set(rng)
        assert list(sumset(a, b)) == brute_sumset(a, b)
        assert list(difference(a, b)) == brute_difference(a, b)
    # force the hash-set fallback with a span beyond the mask limit
    wide = (0, 1 << 21)
    assert list(sumset(wide, wide)) == brute_sumset(wide, wide)


def test_sumset_cardinality_bounds():
    rng = random.Random(4)
    for _ in range(60):
        a = _rand_set(rng)
        b = _rand_set(rng)
        s = sumset(a, b)
        assert len(a) + len(b) - 1 <= len(s) <= len(a) * len(b)


def test_dilate_inclusion_in_iterated_sumset():
    rng = random.Random(5)
    for _ in range(60):
        a = _rand_set(rng, span=25, allow_negative=False)
        spec = DilateSpec(tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 3))))
        assert set(sum_of_dilates(spec, a)) <= set(iterated_sumset(spec.norm1, a))


def test_dilate_spec_validation():
    with pytest.raises(ValidationError):
        DilateSpec(())
    with pytest.raises(ValidationError):
        DilateSpec((1, 0))
    with pytest.raises(ValidationError):
        DilateSpec((-2,))
    assert DilateSpec((2, 3)).norm1 == 5


def test_ruzsa_triangle_examples():
    res = ruzsa_triangle_check([0, 1], [0, 1], [0, 1])
    assert (res.lhs, res.rhs) == (6, 9)
    assert res.holds
    # A == C collapses the left side to |A-A| * |B| against |A-B| * |B-A|
    a = [0, 2, 5]
    b = [1, 2]
    res = ruzsa_triangle_check(a, b, a)
    assert res.holds


def test_plunnecke_worked_example():
    interval = list(range(10))
    res = plunnecke_check(interval, interval, 3)
    assert res.lhs == 28 * 10**3
    assert res.bound == 19**3 * 10
    assert res.holds
    assert float(res.K) == 1.9


def test_plunnecke_singleton_b():
    res = plunnecke_check([3, 4, 8], [0], 4)
    assert res.holds
    assert res.K == 1


def test_cs_energy_equality_for_single_set():
    A = make_set([1, 2, 3], 3)
    res = cs_energy_lower_check([(A, 1)])
    assert (res.E, res.sumset_size, res.product_sq) == (3, 3, 9)
    assert res.holds


def test_cs_energy_pair_example():
    A = make_set([1, 2, 3], 3)
    res = cs_energy_lower_check([(A, 1), (A, 1)])
    assert (res.E, res.sumset_size, res.product_sq) == (19, 5, 81)
    assert res.holds


def test_sample_integer_set_never_empty():
    rng = random.Random(8)
    for _ in range(200):
        s = sample_integer_set(rng, 20, 0.1)
        assert len(s.elements) >= 1
        assert s.domain_bound == 20


def test_sample_integer_set_meets_the_set_invariant():
    # Samples skip IntegerSet's check; each must equal the checked set.
    rng = random.Random(9)
    for _ in range(500):
        span = rng.choice((1, 2, 20, 50))
        s = sample_integer_set(rng, span, rng.choice((0.0, 0.1, 0.6, 1.0)))
        assert type(s.elements) is tuple
        assert s == make_set(s.elements, span)


def test_trial_driver_shape_and_determinism():
    a = run_inequality_trials(25, seed=42)
    b = run_inequality_trials(25, seed=42)
    assert a == b
    assert a["failures"] == []
    assert set(a["per_check_counts"]) == {
        "ruzsa_triangle",
        "plunnecke",
        "cs_energy_lower",
        "dilate_inclusion",
    }
    assert all(v == 25 for v in a["per_check_counts"].values())
    assert run_inequality_trials(25, seed=43) != a


def test_trial_driver_validation():
    with pytest.raises(ValidationError, match=r"^trial count must be >= 1$"):
        run_inequality_trials(0, seed=1)
    for bad in (1.5, True, "3"):
        with pytest.raises(ValidationError, match=r"^trial count must be an integer, got "):
            run_inequality_trials(bad, seed=1)


def test_cs_energy_validates_sets_and_coefficients():
    A = make_set([1, 2, 3], 3)
    with pytest.raises(ValidationError, match="IntegerSet"):
        cs_energy_lower_check([((1, 2, 3), 1)])
    for c in (True, 0, -1, 2.0):
        with pytest.raises(ValidationError, match="dilate coefficients"):
            cs_energy_lower_check([(A, c)])
    with pytest.raises(ValidationError, match="nonempty"):
        cs_energy_lower_check([(A, 1), (make_set([], 3), 2)])
    with pytest.raises(ValidationError, match="at least one"):
        cs_energy_lower_check([])
    for items in ([A], [(A, 1, 2)], [(A, 1), 5], 5, None):
        with pytest.raises(ValidationError, match="pairs"):
            cs_energy_lower_check(items)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: sumset(5, [1]), "expected a set of integers, got int"),
        (lambda: sumset([1], None), "expected a set of integers, got NoneType"),
        (lambda: difference([1, "a"], [1]), "expected a set of integers, got list"),
        (lambda: sum_of_dilates(5, [1]), "a dilate spec takes a sequence of coefficients"),
        (lambda: sum_of_dilates([1], 5), "expected a set of integers, got int"),
        (lambda: plunnecke_check(5, [1], 1), "expected a set of integers, got int"),
    ],
)
def test_non_iterable_sets_raise_validation_errors(call, message):
    with pytest.raises(ValidationError) as info:
        call()
    assert str(info.value) == message


def test_weighted_sums_on_extremes(monkeypatch):
    # Single-element terms, mixed signs, a lone term, and spans that sit on
    # either side of the mask limit once the terms are added up.
    limit = setops._MASK_SPAN_LIMIT
    cases = [
        [((-5,), 1), ((5,), 1)],
        [((-5, 5), 1), ((-5, 5), -1)],
        [((0, 1), 1), ((0, 1), -2), ((-3, 1, 4), 3)],
        [((-7, 0, 7), 5)],
        [((0, limit - 1), 1)],
        [((0, limit // 2), 1), ((0, limit // 2), -1)],
    ]
    assert _weighted_sums(cases[0]) == (0,)
    assert _weighted_sums(cases[1]) == (-10, 0, 10)
    for terms in cases:
        expected = tuple(sorted(brute_rep([e for e, _ in terms], [c for _, c in terms])))
        assert _weighted_sums(terms) == expected
        for forced in (0, 1 << 40):  # the hash-set path, then the mask path
            with monkeypatch.context() as m:
                m.setattr(setops, "_MASK_SPAN_LIMIT", forced)
                assert _weighted_sums(terms) == expected
    with pytest.raises(ValidationError):
        _weighted_sums([((1,), 1), ((), 2)])


def _decoded_size(*terms):
    return len(_weighted_sums(terms))


@pytest.mark.parametrize("route", ["hash", "mask"])
def test_counted_sums_match_decoded_sums(monkeypatch, route):
    # The checkers count the fold's mask bits or set members; each count
    # must be the length of the decoded sums, on sets with negative members
    # and under negative coefficients, on the route forced here.
    monkeypatch.setattr(setops, "_MASK_SPAN_LIMIT", 0 if route == "hash" else 1 << 40)
    rng = random.Random(11)
    for _ in range(60):
        a, b, c = (_rand_set(rng) for _ in range(3))
        k = rng.randint(1, 4)
        tri = ruzsa_triangle_check(a, b, c)
        assert tri.lhs == _decoded_size((a, 1), (c, -1)) * len(b)
        assert tri.rhs == _decoded_size((a, 1), (b, -1)) * _decoded_size((b, 1), (c, -1))

        pl = plunnecke_check(a, b, k)
        assert pl.lhs == _decoded_size(*[(b, 1)] * k) * len(a) ** k
        assert pl.bound == _decoded_size((a, 1), (b, 1)) ** k * len(a)

        spec = DilateSpec(tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 3))))
        dilates, iterated = _fold([(a, s) for s in spec.s]), _fold([(a, 1)] * spec.norm1)
        assert isinstance(dilates, set) == isinstance(iterated, set) == (route == "hash")
        if route == "mask":
            assert dilates[1] == iterated[1]  # the masks share one base
        assert _dilates_inside(spec, a) == (
            set(sum_of_dilates(spec, a)) <= set(iterated_sumset(spec.norm1, a))
        )

        A = make_set([v + 41 for v in a], 81)
        coeffs = [rng.choice((-4, -3, -2, -1, 1, 2, 3, 4)) for _ in range(rng.randint(1, 3))]
        system = [(A, co) for co in coeffs]
        counts = brute_rep([A.elements] * len(coeffs), coeffs)
        terms = [(A.elements, co) for co in coeffs]
        self_energy = _self_energy(*_terms(system))
        assert self_energy == (sum(n * n for n in counts.values()), _decoded_size(*terms))
        if all(co > 0 for co in coeffs):
            cs = cs_energy_lower_check(system)
            assert (cs.E, cs.sumset_size) == self_energy
            assert cs.product_sq == len(A) ** (2 * len(coeffs))


_CHECKERS = {
    "ruzsa_triangle": "ruzsa_triangle_check",
    "plunnecke": "plunnecke_check",
    "cs_energy_lower": "cs_energy_lower_check",
    "dilate_inclusion": "_dilates_inside",
}


def _replayed_inputs(seed: int, trial: int, check: str) -> dict:
    """The inputs of one trial of one check, drawn by replaying the trial
    driver's stream from `random.Random(seed)`."""
    rng = random.Random(seed)
    for t in range(trial + 1):
        for name in CHECK_NAMES:
            span, density = rng.choice(TRIAL_SPANS), rng.choice(TRIAL_DENSITIES)

            def draw(bound=span):
                return list(sample_integer_set(rng, bound, density).elements)

            if name == "ruzsa_triangle":
                inputs = {"A": draw(), "B": draw(), "C": draw()}
            elif name == "plunnecke":
                inputs = {"A": draw(), "B": draw(), "k": rng.randint(1, 4)}
            else:
                A = draw(min(span, 30))
                inputs = {"A": A, "coeffs": [rng.randint(1, 4) for _ in range(rng.randint(1, 3))]}
            if (t, name) == (trial, check):
                return inputs
    raise AssertionError("unreachable")


@pytest.mark.parametrize("check", CHECK_NAMES)
def test_failure_reproducer_replays_its_trial(monkeypatch, check):
    # The driver keeps a trial's inputs only when it fails: make one checker
    # fail at one trial and replay the seed's stream up to it.
    seed, trial, trials = 21, 6, 9
    real = getattr(setops, _CHECKERS[check])
    calls = []

    def failing(*args):
        res = real(*args)
        calls.append(res)
        if len(calls) - 1 != trial:
            return res
        return False if isinstance(res, bool) else dataclasses.replace(res, holds=False)

    monkeypatch.setattr(setops, _CHECKERS[check], failing)
    summary = run_inequality_trials(trials, seed)
    assert len(calls) == trials
    assert summary["per_check_counts"] == {name: trials for name in CHECK_NAMES}
    [failure] = summary["failures"]
    inputs = _replayed_inputs(seed, trial, check)
    assert failure == {"check": check, "trial": trial, "inputs": inputs}
    assert all(type(v) in (list, int) for v in failure["inputs"].values())


@pytest.mark.parametrize("route", ["hash", "mask"])
def test_fold_on_each_route(monkeypatch, route):
    # A repeated term folds the same whether its k copies share one tuple or
    # are k equal tuples; coefficients in +-{1, ..., 5} on sets with negative
    # members give the oracle's sums; an empty term anywhere is rejected.
    monkeypatch.setattr(setops, "_MASK_SPAN_LIMIT", 0 if route == "hash" else 1 << 40)
    rng = random.Random(12)
    for _ in range(60):
        b, k = _rand_set(rng), rng.randint(1, 4)
        shared = _fold([(b, 1)] * k)
        assert _fold([(tuple(list(b)), 1) for _ in range(k)]) == shared
        assert isinstance(shared, set) == (route == "hash")

        sets = [_rand_set(rng, span=12) for _ in range(rng.randint(1, 3))]
        coeffs = [rng.choice((-5, -4, -3, -2, -1, 1, 2, 3, 4, 5)) for _ in sets]
        assert _weighted_sums(list(zip(sets, coeffs))) == tuple(sorted(brute_rep(sets, coeffs)))
    for at, c in itertools.product(range(3), (3, -3)):
        terms = [((1, 2), 1), ((-3, 4), -2)]
        terms.insert(at, ((), c))
        with pytest.raises(ValidationError, match="nonempty"):
            _fold(terms)
