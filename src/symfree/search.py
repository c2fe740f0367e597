"""Extremal search: how large can a solution-free subset of [1, N] get.

A 2k-subset of [1, N] is forbidden when some ordering of its values solves
the equation; those subsets form a 2k-uniform hypergraph, and solution-free
sets are exactly its independent sets.  Exact maxima come from depth-first
branch and bound over that hypergraph; seeded greedy restarts give heuristic
lower bounds.  Energy bounds tie the search back to the counting layer.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from fractions import Fraction
from math import comb, perm

from .construct import greedy_solution_free
from .counting import (
    DEFAULT_BUDGET,
    WorkBudget,
    count_all_solutions,
    is_solution_free,
)
from .model import (
    BudgetExceededError,
    Equation,
    IntegerSet,
    InvariantViolation,
    ValidationError,
    make_set,
)

DEFAULT_SUBSET_BUDGET = 10**7
DEFAULT_NODE_BUDGET = 5 * 10**6


@dataclass
class SolutionHypergraph:
    """Forbidden 2k-subsets of [1, N] with a per-vertex incidence index."""

    N: int
    k: int
    edges: list[tuple[int, ...]]
    incidence: dict[int, list[int]]


def _members(mask: int) -> tuple[int, ...]:
    """The set bits of `mask`, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def build_hypergraph(
    N: int, eq: Equation, budget: int = DEFAULT_SUBSET_BUDGET
) -> SolutionHypergraph:
    """Enumerate every forbidden 2k-subset of [1, N].

    Both halves of the equation carry the coefficients a, so a forbidden set
    is the union of two disjoint k-tuples x, y with a.x == a.y.  Half-tuples
    are bucketed by weighted sum and disjoint pairs within a bucket joined.

    One budget unit per half-tuple and per candidate pair; a budget below
    perm(N, k) raises before anything is enumerated, exceeding it later
    raises too, and no partial hypergraph is returned.
    """
    if N < 1:
        raise ValidationError("domain bound N must be >= 1")
    wb = WorkBudget(budget)
    if perm(N, eq.k) > budget:
        raise BudgetExceededError(f"work budget of {budget} steps exhausted")
    a = sorted(eq.a)
    # Permuting slots that share a coefficient changes neither the sum nor
    # the value set, so those slots take increasing values.
    tied = [i for i in range(1, eq.k) if a[i] == a[i - 1]]
    buckets: dict[int, list[int]] = {}
    for x in itertools.permutations(range(1, N + 1), eq.k):
        if all(x[i - 1] < x[i] for i in tied):
            bucket = buckets.setdefault(sum(c * v for c, v in zip(a, x)), [])
            # The new half-tuple, and its candidate pairs with the bucket so far.
            wb.spend(1 + len(bucket))
            bucket.append(sum(1 << v for v in x))
    edge_masks = {
        m1 | m2
        for bucket in buckets.values()
        for m1, m2 in itertools.combinations(bucket, 2)
        if not m1 & m2
    }
    edges = sorted(_members(m) for m in edge_masks)
    incidence: dict[int, list[int]] = {v: [] for v in range(1, N + 1)}
    for e_idx, e in enumerate(edges):
        for v in e:
            incidence[v].append(e_idx)
    return SolutionHypergraph(N=N, k=eq.k, edges=edges, incidence=incidence)


@dataclass(frozen=True)
class SearchResult:
    """Outcome of a maximum solution-free set search."""

    size: int
    witness: IntegerSet
    exact: bool
    nodes_explored: int
    time_ms: int


class _SearchDone(Exception):
    pass


def exact_max_solution_free(
    N: int,
    eq: Equation,
    budget: int = DEFAULT_NODE_BUDGET,
    *,
    hypergraph: SolutionHypergraph | None = None,
    initial_witness: IntegerSet | None = None,
    stop_at: int | None = None,
) -> SearchResult:
    """Maximum solution-free subset of [1, N] by branch and bound.

    Vertices are branched in descending hypergraph degree (ties to the
    smaller integer), including before excluding, pruning whenever even
    taking every remaining vertex cannot beat the incumbent.  If the node
    budget runs out the best set found so far is returned with exact=False.
    `stop_at` declares a size known to be unbeatable, so reaching it ends the
    search early while staying exact.  `initial_witness` seeds the incumbent.
    """
    t0 = time.perf_counter()
    H = hypergraph if hypergraph is not None else build_hypergraph(N, eq)
    order = sorted(range(1, N + 1), key=lambda v: (-len(H.incidence[v]), v))
    rank = {v: i for i, v in enumerate(order)}
    # An edge is completed only by its last vertex in branching order, which
    # becomes blocked when the second-to-last joins a set holding the rest.
    triggers: list[dict[int, int]] = [{} for _ in order]
    for e in H.edges:
        *rest, second, last = sorted(e, key=rank.__getitem__)
        rest_mask = sum(1 << u for u in rest)
        by_rest = triggers[rank[second]]
        by_rest[rest_mask] = by_rest.get(rest_mask, 0) | 1 << last
    trigger_lists = [list(t.items()) for t in triggers]

    best_size = 0
    best_mask = 0
    if initial_witness is not None:
        best_size = len(initial_witness.elements)
        best_mask = sum(1 << v for v in initial_witness.elements)
    nodes = 0
    exact = True
    n_order = len(order)

    def rec(i: int, chosen: int, blocked: int, count: int) -> None:
        nonlocal best_size, best_mask, nodes, exact
        nodes += 1
        if nodes > budget:
            exact = False
            raise _SearchDone
        if count > best_size:
            best_size = count
            best_mask = chosen
            if stop_at is not None and best_size >= stop_at:
                raise _SearchDone
        if i == n_order or count + (n_order - i) <= best_size:
            return
        v = order[i]
        if not blocked >> v & 1:
            grown = blocked
            for rest_mask, bits in trigger_lists[i]:
                if (chosen & rest_mask) == rest_mask:
                    grown |= bits
            rec(i + 1, chosen | 1 << v, grown, count + 1)
        rec(i + 1, chosen, blocked, count)

    try:
        rec(0, 0, 0, 0)
    except _SearchDone:
        pass
    finally:
        del rec  # break the closure's self-reference cycle

    witness = make_set(_members(best_mask), N)
    if not is_solution_free(witness, eq):
        raise InvariantViolation("search produced a witness that is not solution-free")
    if len(witness.elements) != best_size:
        raise InvariantViolation("witness size disagrees with the reported size")
    elapsed = int((time.perf_counter() - t0) * 1000)
    return SearchResult(
        size=best_size,
        witness=witness,
        exact=exact,
        nodes_explored=nodes,
        time_ms=elapsed,
    )


def _trial_seed(seed: int, trial: int) -> int:
    return seed * 1_000_003 + trial


def random_restarts(N: int, eq: Equation, trials: int, seed: int) -> SearchResult:
    """Best of `trials` seeded shuffled greedy scans; a lower bound only."""
    if trials < 1:
        raise ValidationError("trial count must be >= 1")
    t0 = time.perf_counter()
    best: IntegerSet | None = None
    for t in range(trials):
        cand = greedy_solution_free(N, eq, order="shuffle", seed=_trial_seed(seed, t))
        if best is None or len(cand.elements) > len(best.elements):
            best = cand
    if not is_solution_free(best, eq):
        raise InvariantViolation("greedy produced a set that is not solution-free")
    elapsed = int((time.perf_counter() - t0) * 1000)
    return SearchResult(
        size=len(best.elements),
        witness=best,
        exact=False,
        nodes_explored=trials * N,
        time_ms=elapsed,
    )


@dataclass(frozen=True)
class BoundReport:
    """Energy of a set against its always-valid lower bound and the upper
    bound that applies only to solution-free sets.  Comparisons are done on
    cross-multiplied integers; `lower` is the exact rational for display."""

    E: int
    M: int
    N: int
    lower: Fraction
    upper: int
    lower_holds: bool
    upper_applicable: bool
    upper_holds: bool | None


def check_energy_bounds(
    A: IntegerSet, eq: Equation, budget: int = DEFAULT_BUDGET
) -> BoundReport:
    """Compare E against M^{2k} / (norm1 * N) from below and, for
    solution-free sets, against C(2k,2) * M^{2k-2} from above."""
    if not A.elements:
        raise ValidationError("energy bounds need a nonempty set")
    M = len(A.elements)
    N = A.domain_bound
    two_k = 2 * eq.k
    E = count_all_solutions(A, eq)
    lower = Fraction(M**two_k, eq.norm1 * N)
    lower_holds = E * eq.norm1 * N >= M**two_k
    upper = comb(two_k, 2) * M ** (two_k - 2)
    applicable = is_solution_free(A, eq, budget=budget)
    return BoundReport(
        E=E,
        M=M,
        N=N,
        lower=lower,
        upper=upper,
        lower_holds=lower_holds,
        upper_applicable=applicable,
        upper_holds=(E <= upper) if applicable else None,
    )
