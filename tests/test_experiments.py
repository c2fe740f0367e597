import pytest

from oracles import brute_max_pair_sum_free
from symfree import (
    BudgetExceededError,
    InvariantViolation,
    ValidationError,
    is_solution_free,
    make_set,
    parse_equation,
)
from symfree.experiments import RnRow, run_bound_report, run_rn_table

EQ11 = parse_equation("1,1")
EQ111 = parse_equation("1,1,1")


def test_rn_table_small_frozen():
    rows = run_rn_table(EQ11, 8)
    assert rows == [
        RnRow(N=3, size=3, exact=True, witness=(1, 2, 3)),
        RnRow(N=4, size=3, exact=True, witness=(1, 2, 3)),
        RnRow(N=5, size=4, exact=True, witness=(1, 2, 3, 5)),
        RnRow(N=6, size=4, exact=True, witness=(1, 2, 3, 5)),
        RnRow(N=7, size=4, exact=True, witness=(1, 2, 3, 5)),
        RnRow(N=8, size=5, exact=True, witness=(1, 2, 3, 5, 8)),
    ]


def test_rn_table_sizes_match_power_set_oracle():
    rows = run_rn_table(EQ11, 10)
    for row in rows:
        assert row.size == brute_max_pair_sum_free(row.N)[0]
        assert row.exact


def test_rn_table_trivial_single_row():
    assert run_rn_table(EQ11, 3) == [RnRow(N=3, size=3, exact=True, witness=(1, 2, 3))]
    assert run_rn_table(EQ111, 5) == [
        RnRow(N=5, size=5, exact=True, witness=(1, 2, 3, 4, 5))
    ]
    with pytest.raises(ValidationError):
        run_rn_table(EQ11, 2)


def test_rn_table_rejects_non_int_bound_and_trials():
    for bad in (5.5, 6.0, "6", None, True):
        with pytest.raises(ValidationError, match=r"^table bound n_max must be an integer, got "):
            run_rn_table(EQ11, bad)
        with pytest.raises(ValidationError, match=r"^trial count must be an integer, got "):
            run_rn_table(EQ11, 6, trials=bad)
    # Ints below the table's first row keep the row message.
    for small in (0, -4, 2):
        with pytest.raises(ValidationError, match=r"^table needs n_max >= 3$"):
            run_rn_table(EQ11, small)
    with pytest.raises(ValidationError, match=r"^trial count must be >= 1$"):
        run_rn_table(EQ11, 6, trials=0)


def test_rn_table_witnesses_are_solution_free():
    rows = run_rn_table(EQ11, 14, node_budget=200, trials=5, seed=0)
    for row in rows:
        assert len(row.witness) == row.size
        assert is_solution_free(make_set(row.witness, row.N), EQ11)


def test_rn_table_budget_degrades_to_heuristic_rows():
    rows = run_rn_table(EQ11, 14, node_budget=15, trials=5, seed=0)
    flags = [r.exact for r in rows]
    assert True in flags and False in flags
    # the search stops at the first row it cannot settle, so exactness
    # cannot come back
    assert flags == sorted(flags, reverse=True)
    for prev, cur in zip(rows, rows[1:]):
        assert prev.size <= cur.size


def test_rn_table_deterministic():
    kwargs = dict(node_budget=300, trials=6, seed=9)
    assert run_rn_table(EQ11, 13, **kwargs) == run_rn_table(EQ11, 13, **kwargs)


def test_rn_table_subset_budget():
    # The join's charge for C(5000, 2) half-tuples exceeds the search's
    # default subset budget, so the table stops before building anything.
    with pytest.raises(BudgetExceededError):
        run_rn_table(EQ11, 5000)


def test_bound_report_rows_align_with_inputs():
    table = run_rn_table(EQ11, 8)
    sets = [make_set(r.witness, r.N) for r in table]
    rows = run_bound_report(EQ11, sets)
    assert [a for a, _ in rows] == sets
    for a, rep in rows:
        assert rep.lower_holds
        assert rep.upper_applicable and rep.upper_holds


def test_bound_report_interval_and_singleton():
    interval = make_set(range(1, 7), 6)
    single = make_set([3], 5)
    rows = run_bound_report(EQ11, [interval, single])
    rep_interval, rep_single = rows[0][1], rows[1][1]
    assert rep_interval.lower_holds
    assert not rep_interval.upper_applicable
    assert rep_interval.upper_holds is None
    assert rep_single.lower_holds and rep_single.upper_applicable
    assert rep_single.upper_holds
    with pytest.raises(ValidationError):
        run_bound_report(EQ11, [])


def test_bound_report_raises_on_impossible_lower_bound(monkeypatch):
    # no integer set can violate the lower bound, so the raising path is
    # exercised through a report doctored to look violated
    import symfree.experiments as exp

    class Broken:
        lower_holds = False
        M = 1
        N = 1

    monkeypatch.setattr(exp, "check_energy_bounds", lambda A, eq, budget: Broken())
    with pytest.raises(InvariantViolation):
        run_bound_report(EQ11, [make_set([1], 1)])
