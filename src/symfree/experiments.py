"""Experiment pipelines built on the search layer: R(N) tables with exact
and heuristic rows, and energy-bound sweeps across many sets."""

from __future__ import annotations

from dataclasses import dataclass

from .counting import DEFAULT_BUDGET
from .model import (
    Equation,
    IntegerSet,
    InvariantViolation,
    ValidationError,
    _require_int,
    _require_positive_int,
    _require_types,
)
from .search import (
    DEFAULT_NODE_BUDGET,
    BoundReport,
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
    trials: int = 40,
    seed: int = 0,
) -> list[RnRow]:
    """R(N) for N = 2k-1, ..., n_max: exact rows from one Russian-doll search
    up to where its node budget runs out, heuristic lower bounds afterwards.

    Row 2k-1 is the largest N where every subset is trivially solution-free.
    A heuristic row keeps the previous row's witness unless seeded greedy
    restarts beat it, so reported sizes never decrease.
    """
    _require_types((eq, Equation))
    n0 = 2 * eq.k - 1
    _require_int(n_max, "table bound n_max")
    if n_max < n0:
        raise ValidationError(f"table needs n_max >= {n0}")
    _require_positive_int(trials, "trial count")
    walk = exact_max_solution_free(n_max, eq, budget=node_budget)
    rows = [
        RnRow(N=N, size=len(w), exact=True, witness=w)
        for N, w in enumerate(walk.rows, start=1)
        if N >= n0
    ]
    for N in range(len(walk.rows) + 1, n_max + 1):
        heur = random_restarts(N, eq, trials=trials, seed=seed + N)
        best = heur.witness.elements if heur.size > rows[-1].size else rows[-1].witness
        rows.append(RnRow(N=N, size=len(best), exact=False, witness=best))
    return rows


def run_bound_report(
    eq: Equation, sets: list[IntegerSet], budget: int = DEFAULT_BUDGET
) -> list[tuple[IntegerSet, BoundReport]]:
    """check_energy_bounds across many sets, each under `budget`.

    A lower-bound violation would contradict a theorem, so it raises instead
    of being reported as data.
    """
    _require_types((eq, Equation))
    if not sets:
        raise ValidationError("bound report needs at least one set")
    rows = []
    for A in sets:
        report = check_energy_bounds(A, eq, budget=budget)
        if not report.lower_holds:
            raise InvariantViolation(
                f"energy lower bound failed for set of size {report.M} in "
                f"[1, {report.N}]"
            )
        rows.append((A, report))
    return rows
