import random

import pytest

from oracles import brute_difference, brute_sumset
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
from symfree.setops import _pair_sums, sample_integer_set


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
    with pytest.raises(ValidationError):
        run_inequality_trials(0, seed=1)


def test_pair_sums_internal_consistency_on_extremes():
    # single-element operands and mixed signs exercise the mask offsets
    assert _pair_sums((-5,), (5,), 1) == (0,)
    assert _pair_sums((-5, 5), (-5, 5), -1) == (-10, 0, 10)
