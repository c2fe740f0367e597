import math
import random
import tracemalloc

import pytest

import symfree.construct as construct_mod
from oracles import brute_counts
from symfree import (
    BudgetExceededError,
    InvariantViolation,
    RuzsaParams,
    ValidationError,
    greedy_solution_free,
    is_solution_free,
    parse_equation,
    predicted_exponent,
    ruzsa_digit_set,
    ruzsa_equation,
)

EQ11 = parse_equation("1,1")
ALL_DK = ((2, 2), (2, 3), (3, 2), (3, 3))


def digit_members(d, base, N):
    """Membership oracle: integers in [1, N] whose base-`base` digits all
    stay below d, found by testing every integer."""
    out = []
    for v in range(1, N + 1):
        vv = v
        while vv and vv % base < d:
            vv //= base
        if not vv:
            out.append(v)
    return out


def test_ruzsa_equation_examples():
    assert ruzsa_equation(2, 2).a == (1, 2)
    assert ruzsa_equation(2, 3).a == (1, 2, 2)
    assert ruzsa_equation(3, 3).a == (1, 3, 3)
    assert ruzsa_equation(3, 2).k == 2
    with pytest.raises(ValidationError):
        ruzsa_equation(1, 2)
    with pytest.raises(ValidationError):
        ruzsa_equation(2, 1)


def test_ruzsa_params():
    p = RuzsaParams(2, 3, 144)
    assert p.base == 12
    assert RuzsaParams(3, 2, 5).base == 18
    with pytest.raises(ValidationError):
        RuzsaParams(1, 2, 10)
    with pytest.raises(ValidationError):
        RuzsaParams(2, 1, 10)
    with pytest.raises(ValidationError):
        RuzsaParams(2, 2, 0)


@pytest.mark.parametrize("d, k", [(2.0, 2), (2, 2.0), (True, 2), (2, True), ("2", 2), (2, None)])
def test_digit_params_reject_non_int_d_k(d, k):
    for call in (RuzsaParams, ruzsa_equation, predicted_exponent):
        args = (d, k, 100) if call is RuzsaParams else (d, k)
        with pytest.raises(ValidationError):
            call(*args)


@pytest.mark.parametrize("N", [100.0, True, "100", None])
def test_ruzsa_params_reject_non_int_N(N):
    # A float N would otherwise fill a float64 array.
    with pytest.raises(ValidationError):
        RuzsaParams(2, 2, N)


def test_digit_set_examples():
    assert tuple(ruzsa_digit_set(RuzsaParams(2, 3, 144))) == (1, 12, 13, 144)
    assert tuple(ruzsa_digit_set(RuzsaParams(2, 3, 11))) == (1,)
    assert tuple(ruzsa_digit_set(RuzsaParams(2, 3, 1728))) == (
        1, 12, 13, 144, 145, 156, 157, 1728,
    )
    assert tuple(ruzsa_digit_set(RuzsaParams(3, 2, 18))) == (1, 2, 18)
    assert tuple(ruzsa_digit_set(RuzsaParams(2, 2, 100))) == (1, 8, 9, 64, 65, 72, 73)


def test_digit_set_matches_membership_oracle():
    rng = random.Random(11)
    for _ in range(24):
        d = rng.randint(2, 4)
        k = rng.randint(2, 4)
        bound = 3 * (d * d * k) ** 2
        p = RuzsaParams(d, k, rng.randint(1, bound))
        assert list(ruzsa_digit_set(p)) == digit_members(d, p.base, p.N)


def digit_strings(d, base, N):
    """Reference enumeration: the j-th member is j written in base d and
    reread in base `base`, for j = 1, 2, ... until a value passes N."""
    out = []
    j = 1
    while True:
        value, place, jj = 0, 1, j
        while jj:
            value += (jj % d) * place
            place *= base
            jj //= d
        if value > N:
            return out
        out.append(value)
        j += 1


def test_digit_set_place_boundaries():
    # Place doubling adds a block at each power of the base and cuts the
    # block that passes N; check both sides of every such edge.
    for d, k in ALL_DK:
        b = d * d * k
        bounds = {1, d - 1, d, b - 2}
        for t in (1, 2, 3):
            bounds |= {b**t - 1, b**t, b**t + 1, d * b**t - 1, d * b**t}
        for N in sorted(bounds):
            got = list(ruzsa_digit_set(RuzsaParams(d, k, N)))
            assert got == digit_strings(d, b, N), (d, k, N)


def test_digit_set_int64_and_object_arrays_match_oracles():
    # d = 3 and k = 10^6 make the base 9 * 10^6, so b^3 is past 2^63 and the
    # sets past int64 stay a few dozen members.
    b = 9 * 10**6
    for N in (1, 2, 3, 1000):
        assert list(ruzsa_digit_set(RuzsaParams(3, 10**6, N))) == digit_members(3, b, N)
    for N in (b - 1, b + 2, b * b + 5, 3 * b * b, 2**63 - 1, 2**63, 2**63 + 1,
              b**3 - 1, b**3, b**3 + 2, 3 * b**3 - 1, 3 * b**3, b**4):
        got = ruzsa_digit_set(RuzsaParams(3, 10**6, N))
        assert list(got) == digit_strings(3, b, N), N
        assert all(type(v) is int for v in got)


def _digit_count_oracle(d, base, N):
    """The largest j whose base-d digits, reread in base `base`, stay <= N:
    that reading is increasing in j, so bisect on it."""

    def value(j):
        out, place = 0, 1
        while j:
            j, t = divmod(j, d)
            out += t * place
            place *= base
        return out

    lo, hi = 0, 1
    while value(hi) <= N:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if value(mid) <= N else (lo, mid)
    return lo


def test_digit_count_matches_oracles():
    count = construct_mod._digit_count
    for d, k in ALL_DK + ((4, 3),):
        b = d * d * k
        for N in range(1, 2 * b * b + 2):
            assert count(RuzsaParams(d, k, N)) == len(digit_strings(d, b, N)), (d, k, N)
    rng = random.Random(5)
    for _ in range(200):
        d, k = rng.randint(2, 5), rng.randint(2, 5)
        N = rng.randint(1, 10 ** rng.randint(1, 40))
        assert count(RuzsaParams(d, k, N)) == _digit_count_oracle(d, d * d * k, N), (d, k, N)
    assert count(RuzsaParams(2, 2, 8**19)) == 524288
    assert count(RuzsaParams(2, 2, 10**24)) == _digit_count_oracle(2, 8, 10**24) == 2**27 - 1
    assert count(RuzsaParams(2, 2, 10**25)) == _digit_count_oracle(2, 8, 10**25) == 2**28 - 1


def test_digit_set_length_differs_from_count(monkeypatch):
    real = construct_mod._digit_count
    for off in (-1, 1):
        monkeypatch.setattr(construct_mod, "_digit_count", lambda p, off=off: real(p) + off)
        with pytest.raises(InvariantViolation):
            ruzsa_digit_set(RuzsaParams(2, 3, 1728))


# Bytes of peak memory per budget unit that every digit-set build, and every
# greedy scan from N = 500 on, stays under.
BYTES_PER_UNIT = 8


@pytest.mark.parametrize(
    "d, k, N", [(2, 3, 12**12), (2, 4, 2**64 + 12345), (2, 2**40, 2**504)]
)
def test_digit_set_peak_bytes_per_unit(d, k, N):
    # 4,096 members in int64, 65,551 just past 2^63 and 4,096 of up to 504
    # bits, whose ints take 92 bytes each.
    p = RuzsaParams(d, k, N)
    size = construct_mod._digit_count(p)
    charge = construct_mod._member_units(N) * size
    with pytest.raises(BudgetExceededError):
        ruzsa_digit_set(p, budget=charge - 1)
    tracemalloc.start()
    try:
        got = ruzsa_digit_set(p, budget=charge)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(got) == size
    assert peak / charge < BYTES_PER_UNIT


def test_digit_set_budget_checked_before_allocating():
    # 2^28 - 1 members are charged before any is built.
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError):
            ruzsa_digit_set(RuzsaParams(2, 2, 10**25))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_digit_set_elements_are_carry_free():
    for d, k in ((2, 3), (3, 2)):
        p = RuzsaParams(d, k, (d * d * k) ** 3)
        for v in ruzsa_digit_set(p):
            while v:
                assert v % p.base < d
                v //= p.base


def test_digit_set_size_law():
    # exactly d^t digit strings land in [1, base^t]
    for d, k in ALL_DK:
        base = d * d * k
        for t in range(1, 6):
            assert len(ruzsa_digit_set(RuzsaParams(d, k, base**t))) == d**t
    assert len(ruzsa_digit_set(RuzsaParams(2, 3, 12**10))) == 2**10


def test_digit_set_is_solution_free():
    for d, k in ALL_DK:
        p = RuzsaParams(d, k, (d * d * k) ** 3)
        A = ruzsa_digit_set(p)
        assert is_solution_free(A, ruzsa_equation(d, k))


def test_digit_set_prefix_monotone():
    big = tuple(ruzsa_digit_set(RuzsaParams(2, 3, 2000)))
    small = tuple(ruzsa_digit_set(RuzsaParams(2, 3, 200)))
    assert big[: len(small)] == small


def test_predicted_exponent_values():
    assert predicted_exponent(2, 2) == pytest.approx(1 / 3, abs=1e-15)
    assert predicted_exponent(2, 3) == pytest.approx(0.2789429456511298, abs=1e-15)
    assert predicted_exponent(3, 2) == pytest.approx(0.3800937667159343, abs=1e-15)
    assert predicted_exponent(3, 3) == pytest.approx(1 / 3, abs=1e-15)
    for d, k in ALL_DK:
        assert predicted_exponent(d, k) == math.log(d) / math.log(d * d * k)


def test_greedy_ascending_frozen_outputs():
    assert tuple(greedy_solution_free(1, EQ11)) == (1,)
    assert tuple(greedy_solution_free(3, EQ11)) == (1, 2, 3)
    assert tuple(greedy_solution_free(7, EQ11)) == (1, 2, 3, 5)
    assert tuple(greedy_solution_free(40, EQ11)) == (1, 2, 3, 5, 8, 13, 21, 30, 39)
    assert tuple(greedy_solution_free(12, parse_equation("1,2,2"))) == (
        1, 2, 3, 4, 5, 11,
    )


def test_greedy_results_have_no_distinct_solution():
    for eq_text, n in (("1,1", 25), ("1,2,2", 15), ("2,3", 20)):
        eq = parse_equation(eq_text)
        A = greedy_solution_free(n, eq)
        _, distinct, _ = brute_counts(tuple(A), eq.full_coefficients())
        assert distinct == 0


def test_greedy_is_maximal_for_scanned_order():
    eq = EQ11
    A = greedy_solution_free(14, eq)
    members = set(A)
    full = eq.full_coefficients()
    for x in range(1, 15):
        if x in members:
            continue
        _, distinct, _ = brute_counts(tuple(sorted(members | {x})), full)
        assert distinct > 0


def test_greedy_shuffle_deterministic():
    eq = EQ11
    a = greedy_solution_free(30, eq, order="shuffle", seed=5)
    b = greedy_solution_free(30, eq, order="shuffle", seed=5)
    assert tuple(a) == tuple(b)
    assert is_solution_free(a, eq)


def test_greedy_validation_and_budget():
    with pytest.raises(ValidationError):
        greedy_solution_free(0, EQ11)
    with pytest.raises(ValidationError):
        greedy_solution_free(5, EQ11, order="descending")
    with pytest.raises(BudgetExceededError):
        greedy_solution_free(20, EQ11, budget=1)


def _oracle_scan(N, eq, order, seed):
    """The greedy scan by brute force: keep x iff the kept values plus x
    admit no distinct-valued solution on the full tuple grid."""
    candidates = list(range(1, N + 1))
    if order == "shuffle":
        random.Random(seed).shuffle(candidates)
    kept = []
    for x in candidates:
        if not brute_counts(sorted(kept + [x]), eq.full_coefficients())[1]:
            kept.append(x)
    return tuple(sorted(kept))


def test_greedy_matches_oracle_scan():
    # The bitsets are updated largest sub-multiset first; smallest first
    # would let one kept value fill two slots and reject too much.
    cases = [(t, 24) for t in ("1,1", "1,2", "1,-2", "3,-5", "-1,-1", "1,16")]
    cases += [(t, 14) for t in ("1,1,2", "2,-1,3", "1,1,1", "1,2,2", "1,2,3")]
    for eq_text, N in cases:
        eq = parse_equation(eq_text)
        for order, seed in (("ascending", 0), ("shuffle", 1), ("shuffle", 2)):
            got = tuple(greedy_solution_free(N, eq, order=order, seed=seed))
            assert got == _oracle_scan(N, eq, order, seed), (eq_text, N, order, seed)


def test_greedy_budget_checked_before_allocating():
    # 10^12 candidates and their bitsets are charged before either exists.
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError):
            greedy_solution_free(10**12, EQ11, budget=10**6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


@pytest.mark.parametrize("eq_text", ["1,1", "1,-1", "1,1,1", "1,2,2", "3,-5", "1,16"])
@pytest.mark.parametrize("N", [500, 2000])
def test_greedy_peak_bytes_per_unit(eq_text, N, monkeypatch):
    # 0.3-2.5 bytes a unit from N = 500 on; at N = 20 the fixed overhead of
    # the plan and the set alone passes 20.  At m = 16, "1,16"'s rejection
    # mask H[16] is the largest, 16*N bits.
    made = []

    class Recorded(construct_mod.WorkBudget):
        __slots__ = ()

        def __init__(self, limit):
            super().__init__(limit)
            made.append(self)

    monkeypatch.setattr(construct_mod, "WorkBudget", Recorded)
    for order in ("ascending", "shuffle"):
        made.clear()
        tracemalloc.start()
        try:
            greedy_solution_free(N, parse_equation(eq_text), order=order, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        units = sum(wb.used for wb in made)
        assert peak < BYTES_PER_UNIT * units, (order, peak / units)
