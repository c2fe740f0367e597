"""Independent brute-force oracles for the test suite.

Everything here recomputes results from first principles (full tuple grids,
permutation scans and their meet in the middle, power-set sweeps, a plain
Russian doll search over the edge list) without touching the library's
convolution, partition, or branch-and-bound code paths.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np


def brute_counts(elements, full_coeffs):
    """Enumerate every |A|^{2k} tuple on a numpy grid.

    Returns (E, distinct, T) where E counts all solutions, distinct counts
    solutions with pairwise different values, and T maps each 1-based index
    pair (i, j) to the number of solutions with x_i == x_j.
    """
    m = len(full_coeffs)
    n = len(elements)
    pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
    if n == 0:
        return 0, 0, {(i + 1, j + 1): 0 for i, j in pairs}
    # Python ints wherever a sum could leave int64, as Python arithmetic does.
    wide = m * max(map(abs, full_coeffs)) * max(map(abs, elements)) >= 1 << 63
    dtype = object if wide else np.int64
    vals = np.asarray(elements, dtype=dtype)
    grid = np.indices((n,) * m).reshape(m, -1)
    V = vals[grid]
    S = (np.asarray(full_coeffs, dtype=dtype)[:, None] * V).sum(axis=0)
    sol = S == 0
    E = int(sol.sum())
    distinct_mask = sol.copy()
    T = {}
    for i, j in pairs:
        same = V[i] == V[j]
        T[(i + 1, j + 1)] = int((sol & same).sum())
        distinct_mask &= ~same
    return E, distinct_mask.sum().item(), T


def brute_rep(element_lists, coeffs):
    """Representation counts by direct tuple product."""
    counts = {}
    for tup in itertools.product(*element_lists):
        s = sum(c * v for c, v in zip(coeffs, tup))
        counts[s] = counts.get(s, 0) + 1
    return counts


def pair_sums_distinct(values) -> bool:
    """Whether all sums of two different members are different.

    For the two-coefficient equation x1 + x2 = x3 + x4 this characterizes
    sets without distinct-valued solutions: two different value pairs with
    equal sums are automatically disjoint, giving four different values.
    """
    values = list(values)
    sums = [a + b for a, b in itertools.combinations(values, 2)]
    return len(sums) == len(set(sums))


def brute_max_pair_sum_free(N: int):
    """Power-set sweep of [1, N] for the largest pair-sum-distinct subset."""
    best_size = 0
    best = ()
    universe = list(range(1, N + 1))
    for mask in range(1 << N):
        subset = [universe[i] for i in range(N) if mask >> i & 1]
        if len(subset) > best_size and pair_sums_distinct(subset):
            best_size = len(subset)
            best = tuple(subset)
    return best_size, best


def permutation_scan_solves(values, full_coeffs) -> bool:
    """Whether any permutation of the values zeroes the weighted sum: the
    reference for `subset_solves_somehow`."""
    for perm in itertools.permutations(values):
        if sum(c * v for c, v in zip(full_coeffs, perm)) == 0:
            return True
    return False


@functools.lru_cache(maxsize=4096)
def _ordered_sums(values, a):
    """The sums of a times every ordering of the values.  A k-subset of
    [1, N] recurs in many 2k-subsets, so `brute_edges` sums each once."""
    return frozenset(
        sum(c * v for c, v in zip(a, perm)) for perm in itertools.permutations(values)
    )


def subset_solves_somehow(values, full_coeffs) -> bool:
    """Whether any permutation of the 2k values zeroes the weighted sum, for
    full_coeffs = (a1, ..., ak, -a1, ..., -ak).

    Meets in the middle: for each split of the values into halves L and R,
    whether some ordering of L under a has the sum of some ordering of R.
    Swapping L and R gives the same test, so the first value stays in L.
    """
    k = len(full_coeffs) // 2
    a = tuple(full_coeffs[:k])
    assert [-c for c in a] == list(full_coeffs[k:]), "not a symmetric equation"
    first, *rest = values
    for picks in itertools.combinations(range(len(rest)), k - 1):
        left = (first, *(rest[i] for i in picks))
        right = tuple(v for i, v in enumerate(rest) if i not in picks)
        if _ordered_sums(left, a) & _ordered_sums(right, a):
            return True
    return False


def brute_edges(N: int, full_coeffs):
    """All forbidden subsets of [1, N], each tested by `subset_solves_somehow`."""
    m = len(full_coeffs)
    return [
        subset
        for subset in itertools.combinations(range(1, N + 1), m)
        if subset_solves_somehow(subset, full_coeffs)
    ]


def brute_max_joining(S, candidates, full_coeffs):
    """Power-set sweep of the candidates: the most of them that can join S
    with no forbidden subset in the union."""
    values = sorted(set(S) | set(candidates))
    bit = {v: 1 << i for i, v in enumerate(values)}
    edges = [
        sum(bit[v] for v in e)
        for e in itertools.combinations(values, len(full_coeffs))
        if subset_solves_somehow(e, full_coeffs)
    ]
    base = sum(bit[v] for v in S)
    best = 0
    for pick in range(1 << len(candidates)):
        mask = base | sum(bit[v] for i, v in enumerate(candidates) if pick >> i & 1)
        if not any(mask & e == e for e in edges):
            best = max(best, pick.bit_count())
    return best


def brute_pair_conflict(S, u, b, full_coeffs) -> bool:
    """Whether S plus u and b has a forbidden subset holding both."""
    return any(
        subset_solves_somehow((u, b) + rest, full_coeffs)
        for rest in itertools.combinations(S, len(full_coeffs) - 2)
    )


def brute_sumset(A, B):
    return sorted({a + b for a in A for b in B})


def brute_difference(A, B):
    return sorted({a - b for a in A for b in B})


def has_distinct_solution(values, full_coeffs) -> bool:
    """Whether some 2k of the values, in some order, zero the weighted sum."""
    return any(
        subset_solves_somehow(subset, full_coeffs)
        for subset in itertools.combinations(values, len(full_coeffs))
    )


def brute_max_free_sizes(N: int, edges):
    """Depth-first sweep of the subsets of [1, N] that contain none of the
    forbidden subsets `edges`, as `brute_edges` lists them: entry m - 1 is
    the largest size of such a subset of [1, m].  Members join in
    increasing order, and a new member v is tested only against the edges
    whose largest member is v, so no superset of an edge is visited."""
    by_top = [[] for _ in range(N + 1)]
    for e in edges:
        by_top[max(e)].append(sum(1 << (v - 1) for v in e))
    best = [0] * (N + 1)

    def grow(mask, size, low):
        for v in range(low, N + 1):
            joined = mask | 1 << (v - 1)
            if not any(joined & e == e for e in by_top[v]):
                best[v] = max(best[v], size + 1)
                grow(joined, size + 1, v + 1)

    grow(0, 0, 1)
    return list(itertools.accumulate(best[1:], max))


def russian_doll_sizes(N: int, edges):
    """The largest size of a subset of [1, m] free of the forbidden subsets
    `edges`, as `brute_edges` lists them, for m = 1, ..., N: a plain
    Russian doll search, row by row.

    The edges are invariant under translation, so a free set of size
    R(v - 1) + 1 in [1, v] holds v, and 1 (else it shifts into [1, v - 1]).
    Row v forces both and tries 2, ..., v - 1 ascending, including before
    excluding.  Including w drops each later candidate b that would
    complete an edge through w: one whose only member outside the chosen
    set is b.  A branch ends when its candidates are too few, or when its
    least candidate w leaves room for at most R(v - w + 1) - 1 members
    besides v, from this search's own earlier rows.
    """
    assert N < 64, "vertex masks are uint64"
    through = [[] for _ in range(N + 1)]
    for e in edges:
        mask = sum(1 << u for u in e)
        for u in e:
            through[u].append(mask)
    through = [np.array(masks, dtype=np.uint64) for masks in through]
    sizes = [0]

    def extend(chosen, cands, need):
        # Whether `need` more of the ascending `cands` join `chosen` in row v.
        for i, w in enumerate(cands):
            if len(cands) - i < need or sizes[v - w + 1] - 1 < need:
                return False
            if need == 1:
                return True
            grown = chosen | 1 << w
            rest = through[w] & np.uint64(~grown & (1 << 64) - 1)
            blocked = int(np.bitwise_or.reduce(rest[rest & rest - np.uint64(1) == 0]))
            if extend(grown, [b for b in cands[i + 1 :] if not blocked >> b & 1], need - 1):
                return True
        return False

    for v in range(1, N + 1):
        # Row v needs sizes[-1] - 1 members besides 1 and v.  Every edge
        # has at least four members, so {1, v} is free and rows 1 and 2 are
        # full.
        found = v <= 2 or extend(1 << 1 | 1 << v, list(range(2, v)), sizes[-1] - 1)
        sizes.append(sizes[-1] + found)
    return sizes[1:]
