"""Every public entry point checks its set, equation, integers and budget
through the helpers of `symfree.model`, so a wrong argument ends in a
ValidationError that names it, never in a raw AttributeError or TypeError,
a misleading BudgetExceededError, or a silent result."""

import re

import pytest

from symfree import (
    ValidationError,
    check_energy_bounds,
    count_all_solutions,
    count_coincident,
    count_distinct_solutions,
    exact_max_solution_free,
    find_distinct_solution,
    fit_exponent,
    greedy_solution_free,
    has_distinct_solution_using,
    is_solution_free,
    make_set,
    parse_equation,
    ruzsa_digit_set,
    run_bound_report,
    run_rn_table,
    solution_report,
)
from symfree.counting import WorkBudget
from symfree.search import build_hypergraph

EQ = parse_equation("1,1")
A = make_set([1, 2, 4], 10)

# (call, the message it must raise, matched in full)
CASES = {
    # counting
    "count_all_solutions(5, eq)": (
        lambda: count_all_solutions(5, EQ), "expected an IntegerSet, got int"),
    "count_all_solutions(A, '1,1')": (
        lambda: count_all_solutions(A, "1,1"), "expected an Equation, got str"),
    "count_all_solutions(A, eq, budget=1.5)": (
        lambda: count_all_solutions(A, EQ, budget=1.5), "budget must be an integer, got 1.5"),
    "count_coincident(A, eq, 1.5, 2)": (
        lambda: count_coincident(A, EQ, 1.5, 2), r"need 1 <= i < j <= 4, got \(1.5, 2\)"),
    "count_coincident(A, eq, 1, '2')": (
        lambda: count_coincident(A, EQ, 1, "2"), r"need 1 <= i < j <= 4, got \(1, '2'\)"),
    "count_coincident([1], eq, 1, 2)": (
        lambda: count_coincident([1], EQ, 1, 2), "expected an IntegerSet, got list"),
    "count_distinct_solutions((1, 2), eq)": (
        lambda: count_distinct_solutions((1, 2), EQ), "expected an IntegerSet, got tuple"),
    "count_distinct_solutions(A, eq, budget=True)": (
        lambda: count_distinct_solutions(A, EQ, budget=True),
        "budget must be an integer, got True"),
    "find_distinct_solution(A, '1,1')": (
        lambda: find_distinct_solution(A, "1,1"), "expected an Equation, got str"),
    "is_solution_free([1, 2, 4], eq)": (
        lambda: is_solution_free([1, 2, 4], EQ), "expected an IntegerSet, got list"),
    "is_solution_free(A, eq, budget=None)": (
        lambda: is_solution_free(A, EQ, budget=None), "budget must be an integer, got None"),
    "has_distinct_solution_using(A, eq, 2.5)": (
        lambda: has_distinct_solution_using(A, EQ, 2.5), "value must be an integer, got 2.5"),
    "has_distinct_solution_using(A, (1, 1), 3)": (
        lambda: has_distinct_solution_using(A, (1, 1), 3), "expected an Equation, got tuple"),
    "solution_report(A, None)": (
        lambda: solution_report(A, None), "expected an Equation, got NoneType"),
    # search
    "check_energy_bounds(5, eq)": (
        lambda: check_energy_bounds(5, EQ), "expected an IntegerSet, got int"),
    "exact_max_solution_free(10, '1,1')": (
        lambda: exact_max_solution_free(10, "1,1"), "expected an Equation, got str"),
    "exact_max_solution_free(10, eq, budget=1.5)": (
        lambda: exact_max_solution_free(10, EQ, budget=1.5),
        "node budget must be an integer, got 1.5"),
    "exact_max_solution_free(10, eq, budget=None)": (
        lambda: exact_max_solution_free(10, EQ, budget=None),
        "node budget must be an integer, got None"),
    "exact_max_solution_free(10, eq, budget='x')": (
        lambda: exact_max_solution_free(10, EQ, budget="x"),
        "node budget must be an integer, got 'x'"),
    "build_hypergraph(10, '1,1')": (
        lambda: build_hypergraph(10, "1,1"), "expected an Equation, got str"),
    "build_hypergraph(10, eq, budget=2.0)": (
        lambda: build_hypergraph(10, EQ, budget=2.0), "budget must be an integer, got 2.0"),
    # experiments
    "run_rn_table('1,1', 10)": (
        lambda: run_rn_table("1,1", 10), "expected an Equation, got str"),
    "run_rn_table(eq, 10, node_budget=1.5)": (
        lambda: run_rn_table(EQ, 10, node_budget=1.5),
        "node budget must be an integer, got 1.5"),
    "run_bound_report('1,1', [A])": (
        lambda: run_bound_report("1,1", [A]), "expected an Equation, got str"),
    "run_bound_report(eq, [[1, 2]])": (
        lambda: run_bound_report(EQ, [[1, 2]]), "expected an IntegerSet, got list"),
    # construct
    "greedy_solution_free(10, '1,1')": (
        lambda: greedy_solution_free(10, "1,1"), "expected an Equation, got str"),
    "greedy_solution_free(10, eq, budget=1.5)": (
        lambda: greedy_solution_free(10, EQ, budget=1.5), "budget must be an integer, got 1.5"),
    "ruzsa_digit_set((2, 2, 100))": (
        lambda: ruzsa_digit_set((2, 2, 100)), "expected a RuzsaParams, got tuple"),
    # model
    "make_set(5, 10)": (
        lambda: make_set(5, 10), "expected a set of integers, got int"),
    # budgets
    "WorkBudget(1.5)": (lambda: WorkBudget(1.5), "budget must be an integer, got 1.5"),
    "WorkBudget(True)": (lambda: WorkBudget(True), "budget must be an integer, got True"),
    "WorkBudget(0)": (lambda: WorkBudget(0), "budget must be >= 1"),
    # fitting
    "fit_exponent(5)": (
        lambda: fit_exponent(5), r"exponent fit takes \(N, size\) points"),
    "fit_exponent([(10,)])": (
        lambda: fit_exponent([(10,)]), r"exponent fit takes \(N, size\) points"),
    "fit_exponent([(10, 4.5), (20, 6), (40, 9)])": (
        lambda: fit_exponent([(10, 4.5), (20, 6), (40, 9)]),
        "point size must be an integer, got 4.5"),
    "fit_exponent([(10, '4'), (20, 6), (40, 9)])": (
        lambda: fit_exponent([(10, "4"), (20, 6), (40, 9)]),
        "point size must be an integer, got '4'"),
    "fit_exponent([(10.0, 4), (20, 6), (40, 9)])": (
        lambda: fit_exponent([(10.0, 4), (20, 6), (40, 9)]),
        "point N must be an integer, got 10.0"),
    "fit_exponent([(True, 4), (20, 6), (40, 9)])": (
        lambda: fit_exponent([(True, 4), (20, 6), (40, 9)]),
        "point N must be an integer, got True"),
}


@pytest.mark.parametrize("name", CASES)
def test_bad_argument_raises_validation_error_naming_it(name):
    call, message = CASES[name]
    with pytest.raises(ValidationError) as info:
        call()
    assert re.fullmatch(message, str(info.value)), str(info.value)


def test_exact_search_keeps_int_budgets_below_one():
    # Only the type is checked: budget 0 still ends the search at its first
    # node with exact=False, as a budget-out does.
    res = exact_max_solution_free(12, EQ, budget=0)
    assert (res.exact, res.nodes_explored) == (False, 1)
    assert not run_rn_table(EQ, 6, node_budget=0, trials=2)[-1].exact
