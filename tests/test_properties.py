"""Randomized differential tests of the half-sum join and the witness walk
against the brute-force oracles, over signed and repeated coefficients."""

from hypothesis import given
from hypothesis import strategies as st

from oracles import brute_counts, brute_edges
from symfree import Equation, find_distinct_solution, is_solution_free, make_set
from symfree.counting import WorkBudget, _search_witness
from symfree.search import build_hypergraph

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
