"""Output checks for the benchmark, written without importing symfree.

Every command the benchmark runs has its stdout checked here against values
this module computes itself: brute-force solution searches, digit sets
generated directly, and solution counts by inclusion-exclusion over dense
generating polynomials.  A check raises CheckFailed with a reason; on
success it returns a (possibly empty) dict of figures read off the output,
such as the exact frontier of an R(N) table.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from collections import defaultdict
from pathlib import Path

import numpy as np

REFERENCE = Path(__file__).with_name("reference.json")


class CheckFailed(Exception):
    """A command's output disagrees with the benchmark's own computation."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def full_coefficients(a: tuple[int, ...]) -> tuple[int, ...]:
    return a + tuple(-c for c in a)


def is_distinct_solution(values, a: tuple[int, ...], members) -> bool:
    """Whether `values` is a 2k-tuple of pairwise different members of the
    set that solves the symmetric equation with coefficients `a`."""
    coeffs = full_coefficients(a)
    return (
        len(values) == len(coeffs)
        and len(set(values)) == len(values)
        and all(v in members for v in values)
        and sum(c * v for c, v in zip(coeffs, values)) == 0
    )


def brute_force_solution(elements, a: tuple[int, ...]):
    """A distinct-valued solution over `elements`, or None.

    Buckets every ordered k-tuple of different elements by its weighted sum;
    a solution is two tuples in one bucket that share no value.
    """
    buckets = defaultdict(list)
    for left in itertools.permutations(elements, len(a)):
        key = sum(c * x for c, x in zip(a, left))
        members = set(left)
        for right in buckets[key]:
            if members.isdisjoint(right):
                return left + right
        buckets[key].append(left)
    return None


def digit_set(d: int, k: int, N: int) -> list[int]:
    """Integers in [1, N] whose base-(d*d*k) digits all lie below d."""
    base = d * d * k
    values = [0]
    place = 1
    while place <= N:
        values = [v + digit * place for digit in range(d) for v in values]
        place *= base
    return sorted(v for v in values if 1 <= v <= N)


# --- exact counting --------------------------------------------------------


def _dilated_indicator(values, c: int) -> np.ndarray:
    arr = np.zeros(c * max(values) + 1, dtype=np.int64)
    arr[[c * v for v in values]] = 1
    return arr


def zero_sum_tuples(values, coeffs) -> int:
    """Tuples over `values` (positive integers) with sum(c*x) == 0."""
    # Both sides of the equation become products of generating polynomials;
    # int64 is exact while every count stays below the total tuple count.
    require(len(values) ** len(coeffs) < 2**62, "count too large for int64 check")

    def side(cs):
        acc = np.ones(1, dtype=np.int64)
        for c in cs:
            acc = np.convolve(acc, _dilated_indicator(values, c))
        return acc

    lhs = side([c for c in coeffs if c > 0])
    rhs = side([-c for c in coeffs if c < 0])
    n = min(len(lhs), len(rhs))
    return int(np.dot(lhs[:n], rhs[:n]))


def _set_partitions(n: int):
    """Every partition of range(n) as a list of blocks."""
    if n == 0:
        yield []
        return
    for part in _set_partitions(n - 1):
        for i in range(len(part)):
            yield part[:i] + [part[i] + [n - 1]] + part[i + 1 :]
        yield part + [[n - 1]]


def _merged_count(values, coeffs, blocks) -> int:
    """Solutions constant on each block: a block's variables merge into one
    with the summed coefficient, and a zero sum leaves that variable free."""
    merged = [sum(coeffs[i] for i in block) for block in blocks]
    free = merged.count(0)
    nonzero = [c for c in merged if c]
    return len(values) ** free * (zero_sum_tuples(values, nonzero) if nonzero else 1)


def solution_counts(values, a: tuple[int, ...]) -> dict:
    """E (all solutions), distinct-valued solutions by inclusion-exclusion
    over set partitions, and each pairwise coincidence count."""
    coeffs = full_coefficients(a)
    n = len(coeffs)
    cache: dict[tuple[int, ...], int] = {}
    distinct = 0
    for blocks in _set_partitions(n):
        key = tuple(sorted(sum(coeffs[i] for i in b) for b in blocks))
        if key not in cache:
            cache[key] = _merged_count(values, coeffs, blocks)
        weight = math.prod((-1) ** (len(b) - 1) * math.factorial(len(b) - 1) for b in blocks)
        distinct += weight * cache[key]
    coincident = {}
    for i, j in itertools.combinations(range(n), 2):
        blocks = [[i, j]] + [[p] for p in range(n) if p not in (i, j)]
        coincident[f"{i + 1},{j + 1}"] = _merged_count(values, coeffs, blocks)
    return {
        "E": zero_sum_tuples(values, coeffs),
        "distinct": distinct,
        "coincident": coincident,
    }


def energy_by_representations(values, a: tuple[int, ...]) -> int:
    """E for sets too spread out for dense polynomials: the sum of squared
    representation counts of one side."""
    reps: dict[int, int] = defaultdict(int)
    for t in itertools.product(values, repeat=len(a)):
        reps[sum(c * x for c, x in zip(a, t))] += 1
    return sum(r * r for r in reps.values())


# --- per-command checks ----------------------------------------------------


def _json(out: str) -> dict:
    try:
        got = json.loads(out)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"stdout is not one JSON document: {exc}") from exc
    require(isinstance(got, dict), "stdout is not a JSON object")
    return got


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise CheckFailed(f"not an integer: {text!r}") from exc


def _eq_text(a) -> str:
    return ",".join(map(str, a))


def check_construct(out: str, d: int, k: int, N: int) -> dict:
    header, _, body = out.partition("\n")
    expected = digit_set(d, k, N)
    exponent = math.log(d) / math.log(d * d * k)
    want = {
        "d": d,
        "k": k,
        "base": d * d * k,
        "N": N,
        "size": len(expected),
        "predicted_exponent": float(f"{exponent:.12g}"),
    }
    require(_json(header) == want, f"construct header {header!r} != {want}")
    require(body == "".join(f"{v}\n" for v in expected), "construct elements differ")
    return {}


def check_verify(out: str, values, a: tuple[int, ...]) -> dict:
    got = _json(out)
    for key, want in (("eq", _eq_text(a)), ("N", max(values)), ("size", len(values))):
        require(got.get(key) == want, f"verify {key}={got.get(key)!r}, want {want!r}")
    if got.get("solution_free") is True:
        require(got.get("solution") is None, "a free set reported a solution")
        hit = brute_force_solution(values, a)
        require(hit is None, f"set reported free has solution {hit}")
    else:
        require(got.get("solution_free") is False, "solution_free is not a boolean")
        sol = got.get("solution")
        require(
            isinstance(sol, list) and is_distinct_solution(sol, a, set(values)),
            f"reported solution {sol!r} is not a distinct-valued solution",
        )
    return {}


def check_bounds(out: str, values, a: tuple[int, ...]) -> dict:
    got = _json(out)
    M, N, two_k = len(values), max(values), 2 * len(a)
    norm1 = sum(abs(c) for c in a)
    E = energy_by_representations(values, a)
    free = brute_force_solution(values, a) is None
    upper = math.comb(two_k, 2) * M ** (two_k - 2)
    want_row = {
        "N": N,
        "size": M,
        "E": E,
        "lower": float(f"{M**two_k / (norm1 * N):.12g}"),
        "upper": upper,
        "lower_holds": E * norm1 * N >= M**two_k,
        "upper_applicable": free,
        "upper_holds": (E <= upper) if free else None,
    }
    want = {"eq": _eq_text(a), "sets": [want_row]}
    require(got == want, f"bounds {got!r} != {want!r}")
    return {}


def check_count(out: str, what: str, values, a: tuple[int, ...], N: int, method=None) -> dict:
    got = _json(out)
    want = {"eq": _eq_text(a), "N": N, "size": len(values)}
    if what == "energy":
        want["E"] = zero_sum_tuples(values, full_coefficients(a))
    elif what == "solutions":
        want.update(solution_counts(values, a))
    else:
        want["method"] = method
        want["distinct"] = solution_counts(values, a)["distinct"]
    require(got == want, f"count {what}: {got!r} != {want!r}")
    return {}


def check_heuristic(out: str, a: tuple[int, ...], N: int) -> dict:
    got = _json(out)
    witness = got.get("witness")
    require(got.get("N") == N and got.get("eq") == _eq_text(a), "search header")
    require(got.get("exact") is False, "a heuristic search claimed exactness")
    require(
        isinstance(witness, list)
        and witness == sorted(set(witness))
        and all(1 <= v <= N for v in witness),
        "witness is not a sorted subset of [1, N]",
    )
    require(got.get("size") == len(witness), "size disagrees with the witness")
    hit = brute_force_solution(witness, a)
    require(hit is None, f"witness has solution {hit}")
    return {}


def check_inequalities(out: str, trials: int, seed: int) -> dict:
    got = _json(out)
    names = ("ruzsa_triangle", "plunnecke", "cs_energy_lower", "dilate_inclusion")
    want = {
        "trials": trials,
        "seed": seed,
        "per_check_counts": {name: trials for name in names},
        "failures": [],
    }
    require(got == want, f"inequalities {got!r} != {want!r}")
    return {}


def check_table(out: str, a: tuple[int, ...], n_max: int) -> dict:
    """Check an R(N) CSV table; return its exact frontier and size sum.

    Every witness must be solution-free by brute force and have the stated
    size; sizes rise by 0 or 1 per row; an exact row must equal the recorded
    R(N) where one is recorded.  Exact rows past the recorded range are
    checked for witness validity only, so a stronger search still passes.
    """
    recorded = json.loads(REFERENCE.read_text(encoding="utf-8"))["rn"].get(_eq_text(a), {})
    reference = {int(n): r for n, r in recorded.items()}
    rows = list(csv.reader(out.splitlines()))
    require(rows[:1] == [["N", "size", "exact", "witness"]], "table header")
    n0 = 2 * len(a) - 1
    require(len(rows) - 1 == n_max - n0 + 1, "table row count")
    frontier = n0 - 1
    prev_size = None
    size_sum = 0
    for expected_n, row in zip(range(n0, n_max + 1), rows[1:]):
        require(len(row) == 4, f"malformed row {row!r}")
        N, size, exact = _int(row[0]), _int(row[1]), row[2]
        witness = [_int(v) for v in row[3].split()]
        require(N == expected_n, f"row for N={N}, want N={expected_n}")
        require(exact in ("true", "false"), f"row N={N}: exact={exact!r}")
        require(len(witness) == size, f"row N={N}: witness size != {size}")
        require(
            witness == sorted(set(witness)) and all(1 <= v <= N for v in witness),
            f"row N={N}: witness is not a sorted subset of [1, N]",
        )
        hit = brute_force_solution(witness, a)
        require(hit is None, f"row N={N}: witness has solution {hit}")
        if prev_size is not None:
            require(size - prev_size in (0, 1), f"row N={N}: size jumps from {prev_size}")
        if exact == "true" and N in reference:
            require(size == reference[N], f"row N={N}: exact {size} != R(N)={reference[N]}")
        if exact == "true" and frontier == N - 1:
            frontier = N
        prev_size = size
        size_sum += size
    return {"exact_frontier_n": frontier, "rn_size_sum": size_sum}
