"""Experiment pipelines built on the search layer: R(N) tables with exact
and heuristic rows, and energy-bound sweeps across many sets."""

from __future__ import annotations

from dataclasses import dataclass

from .model import Equation, IntegerSet, InvariantViolation, ValidationError, make_set
from .search import (
    DEFAULT_NODE_BUDGET,
    DEFAULT_SUBSET_BUDGET,
    BoundReport,
    SolutionHypergraph,
    build_hypergraph,
    check_energy_bounds,
    exact_max_solution_free,
    random_restarts,
)


@dataclass(frozen=True)
class RnRow:
    """One table row: the largest known solution-free subset of [1, N],
    whether that size is proven optimal, and a witness of the size."""

    N: int
    size: int
    exact: bool
    witness: tuple[int, ...]


def run_rn_table(
    eq: Equation,
    n_max: int,
    *,
    node_budget: int = DEFAULT_NODE_BUDGET,
    subset_budget: int = DEFAULT_SUBSET_BUDGET,
    trials: int = 40,
    seed: int = 0,
) -> list[RnRow]:
    """R(N) for ascending N, exact until the shared node budget runs dry,
    heuristic lower bounds afterwards.

    Rows start at N = 2k-1, the largest N where every subset is trivially
    solution-free.  Each row's witness carries into the next, so reported
    sizes never decrease; exact rows additionally stop early at the previous
    exact size plus one, which is always an upper bound for the next row.
    """
    two_k = 2 * eq.k
    n0 = two_k - 1
    if n_max < n0:
        raise ValidationError(f"table needs n_max >= {n0}")
    full = build_hypergraph(n_max, eq, budget=subset_budget)
    pool = node_budget
    rows: list[RnRow] = []
    prev_size = 0
    prev_witness: tuple[int, ...] = ()
    prev_exact = False
    for N in range(n0, n_max + 1):
        carried = make_set(prev_witness, N) if prev_witness else None
        row: RnRow | None = None
        if pool > 0:
            res = exact_max_solution_free(
                N,
                eq,
                budget=pool,
                hypergraph=SolutionHypergraph(
                    N, full.k, [e for e in full.edges if e[-1] <= N]
                ),
                initial_witness=carried,
                stop_at=prev_size + 1 if prev_exact else None,
            )
            pool -= res.nodes_explored
            if res.exact:
                row = RnRow(N=N, size=res.size, exact=True, witness=res.witness.elements)
            else:
                pool = 0
                if res.size > prev_size:
                    prev_size = res.size
                    prev_witness = res.witness.elements
        if row is None:
            heur = random_restarts(N, eq, trials=trials, seed=seed + N)
            if heur.size > prev_size:
                size, witness = heur.size, heur.witness.elements
            else:
                size, witness = prev_size, prev_witness
            row = RnRow(N=N, size=size, exact=False, witness=witness)
        rows.append(row)
        prev_size = row.size
        prev_witness = row.witness
        prev_exact = row.exact
    return rows


def run_bound_report(
    eq: Equation, sets: list[IntegerSet]
) -> list[tuple[IntegerSet, BoundReport]]:
    """check_energy_bounds across many sets.

    A lower-bound violation would contradict a theorem, so it raises instead
    of being reported as data.
    """
    if not sets:
        raise ValidationError("bound report needs at least one set")
    rows = []
    for A in sets:
        report = check_energy_bounds(A, eq)
        if not report.lower_holds:
            raise InvariantViolation(
                f"energy lower bound failed for set of size {report.M} in "
                f"[1, {report.N}]"
            )
        rows.append((A, report))
    return rows
