"""End-to-end acceptance gate.

Each test_criterion_* function verifies one release requirement; the
terminal summary prints a PASS/FAIL line per criterion (see conftest).
Criteria 4 and 5 audit every exact witness and every solution-free set the
earlier criteria produced, so those run after criteria 1, 2, 3, 6, and 7
fill the shared registries; each also seeds its own baseline pool so it
stays meaningful when run in isolation.
"""

import hashlib
import itertools
import os
import random
import subprocess
import sys
import time
from math import comb

from oracles import brute_counts, brute_max_pair_sum_free
from symfree import (
    Equation,
    IntegerSet,
    RuzsaParams,
    check_energy_bounds,
    count_all_solutions,
    count_coincident,
    count_distinct_solutions,
    exact_max_solution_free,
    fit_exponent,
    greedy_solution_free,
    is_solution_free,
    make_set,
    parse_equation,
    predicted_exponent,
    random_restarts,
    run_inequality_trials,
    run_rn_table,
    ruzsa_digit_set,
    ruzsa_equation,
)
from symfree.cli import main
from symfree.setops import sample_integer_set

EQ11 = parse_equation("1,1")
SMALL_EQS = ("1,1", "1,1,1", "1,2,2")

# filled as the gate runs: (set, equation) pairs
EXACT_WITNESSES: list[tuple[IntegerSet, Equation]] = []
FREE_POOL: list[tuple[IntegerSet, Equation]] = []


def _lower_bound_holds(A: IntegerSet, eq: Equation) -> bool:
    E = count_all_solutions(A, eq)
    M = len(A.elements)
    return E * eq.norm1 * A.domain_bound >= M ** (2 * eq.k)


def _upper_bound_holds(A: IntegerSet, eq: Equation) -> bool:
    E = count_all_solutions(A, eq)
    M = len(A.elements)
    two_k = 2 * eq.k
    return E <= comb(two_k, 2) * M ** (two_k - 2)


def _exact_small_witnesses() -> list[tuple[IntegerSet, Equation]]:
    out = []
    for n in range(1, 13):
        res = exact_max_solution_free(n, EQ11)
        assert res.exact
        out.append((res.witness, EQ11))
    return out


def test_criterion_1_counting_matches_brute_force():
    t0 = time.perf_counter()
    for eq_text in SMALL_EQS:
        eq = parse_equation(eq_text)
        full = eq.full_coefficients()
        two_k = 2 * eq.k
        pairs = [(i, j) for i in range(1, two_k + 1) for j in range(i + 1, two_k + 1)]
        for size in range(0, 7):
            for subset in itertools.combinations(range(1, 9), size):
                A = make_set(subset, 8)
                e_ref, distinct_ref, t_ref = brute_counts(subset, full)
                assert count_all_solutions(A, eq) == e_ref
                assert count_distinct_solutions(A, eq, method="enumerate") == distinct_ref
                assert (
                    count_distinct_solutions(A, eq, method="inclusion_exclusion")
                    == distinct_ref
                )
                for i, j in pairs:
                    assert count_coincident(A, eq, i, j) == t_ref[(i, j)]
    assert time.perf_counter() - t0 < 60.0


def test_criterion_2_exact_search_matches_power_set_oracle():
    t0 = time.perf_counter()
    for n in range(1, 13):
        res = exact_max_solution_free(n, EQ11)
        oracle_size, _ = brute_max_pair_sum_free(n)
        assert res.exact
        assert res.size == oracle_size
        EXACT_WITNESSES.append((res.witness, EQ11))
        FREE_POOL.append((res.witness, EQ11))
    assert time.perf_counter() - t0 < 60.0


def test_criterion_3_digit_construction():
    for d in (2, 3):
        t_budget = 0
        while d ** (t_budget + 1) <= 10**6:
            t_budget += 1
        for k in (2, 3):
            eq = ruzsa_equation(d, k)
            base = d * d * k
            A3 = ruzsa_digit_set(RuzsaParams(d, k, base**3))
            assert is_solution_free(A3, eq)
            FREE_POOL.append((A3, eq))
            sizes = {}
            for t in range(1, t_budget + 1):
                sizes[t] = len(ruzsa_digit_set(RuzsaParams(d, k, base**t)).elements)
                assert sizes[t] == d**t
            fit = fit_exponent([(base**t, sizes[t]) for t in range(2, 6)])
            assert abs(fit.slope - predicted_exponent(d, k)) <= 0.02


def test_criterion_6_inequality_checkers_never_fail():
    t0 = time.perf_counter()
    summary = run_inequality_trials(1000, seed=0)
    assert summary["failures"] == []
    assert all(v == 1000 for v in summary["per_check_counts"].values())
    assert len(summary["per_check_counts"]) == 4
    # a clean run exits 0 through the CLI as well
    assert main(["check", "inequalities", "--trials", "50", "--seed", "7"]) == 0
    assert time.perf_counter() - t0 < 120.0


def test_criterion_7_growth_table_slope():
    rows = run_rn_table(EQ11, 40, node_budget=2_000_000, trials=80, seed=0)
    assert [r.N for r in rows] == list(range(3, 41))
    for prev, cur in zip(rows, rows[1:]):
        assert prev.size <= cur.size <= prev.size + 1
    assert all(r.exact is True for r in rows)
    fit = fit_exponent([(r.N, r.size) for r in rows if r.N >= 8])
    assert 0.35 <= fit.slope <= 0.65
    for r in rows:
        w = make_set(r.witness, r.N)
        FREE_POOL.append((w, EQ11))
        if r.exact:
            EXACT_WITNESSES.append((w, EQ11))


def test_criterion_4_energy_lower_bound():
    rng = random.Random(40)
    eq_cycle = [parse_equation(s) for s in ("1,1", "1,2", "1,1,1", "1,2,2")]
    cases = []
    for t in range(200):
        eq = eq_cycle[t % len(eq_cycle)]
        span = rng.randint(2 * eq.k, 60)
        density = rng.choice((0.15, 0.3, 0.5, 0.8))
        cases.append((sample_integer_set(rng, span, density), eq))
    witnesses = EXACT_WITNESSES if EXACT_WITNESSES else _exact_small_witnesses()
    failures = []
    for A, eq in cases + list(witnesses):
        rep = check_energy_bounds(A, eq)
        if not (rep.lower_holds and _lower_bound_holds(A, eq)):
            failures.append((tuple(A), eq.text()))
        if rep.upper_applicable:
            FREE_POOL.append((A, eq))
    assert failures == []


def test_criterion_5_energy_upper_bound_on_solution_free_sets():
    pool = list(FREE_POOL)
    pool.append((greedy_solution_free(35, EQ11), EQ11))
    eq122 = parse_equation("1,2,2")
    pool.append((greedy_solution_free(20, eq122), eq122))
    pool.append((random_restarts(30, EQ11, 10, 2).witness, EQ11))
    if len(pool) < 10:
        pool.extend(_exact_small_witnesses())
        for d, k in ((2, 2), (2, 3), (3, 2), (3, 3)):
            base = d * d * k
            pool.append((ruzsa_digit_set(RuzsaParams(d, k, base**2)), ruzsa_equation(d, k)))
    failures = []
    for A, eq in pool:
        if not A.elements:
            continue
        rep = check_energy_bounds(A, eq)
        assert rep.upper_applicable, "pool entry is not solution-free"
        if not (rep.upper_holds and _upper_bound_holds(A, eq)):
            failures.append((tuple(A), eq.text()))
    assert len(pool) >= 10
    assert failures == []


# Criterion 8's commands, each with its pinned exit code and stdout sha256.
# "{set}", "{dense}", "{wide}" and "{points}" stand for the input files the
# test writes: {1, 2, 5, 7}, whose counts stay on the dict route; every fifth
# value from 3 to 398, whose counts take the numpy route; and the powers 3^i
# for i = 1..30, whose sums spread too wide for numpy.  The pins
# hold CLI output fixed across commits, not only across two runs: a change
# that means to alter one of these outputs re-pins it here and names the
# change in CHANGES.md.
CLI_PINS = [
    ("construct ruzsa --d 2 --k 3 --N 1728", 0,
     "87570e537c5707b2cdc44394f6ff968489bc6f13128531ceda88769b82cf8e61"),
    # 53 members, most past 2^63: the digit set's Python-int array.
    ("construct ruzsa --d 3 --k 1000000 --N 1000000000000000000000", 0,
     "9d452a504f066e1b59a208ac1d274b7201a0e4672535fadd726d56f4546817fa"),
    ("count energy --eq 1,1 --set {set}", 0,
     "ba29d83d0d52cd590342d9491ca8dc0f52c06034c1f060c53119267ecd5e881d"),
    ("count solutions --eq 1,2,2 --set {set}", 0,
     "ee3598d7429ac1384f683608e2d1bb900615287292d0fe1120f0c0c6694b78b3"),
    ("count distinct --eq 1,1 --set {set} --method enumerate", 0,
     "1ad442e204d690552aeee93e4037d1e97a454db7e1724a9a5f80b074e2c65c47"),
    ("count distinct --eq 1,1 --set {set} --method inclusion_exclusion", 0,
     "edbf9e0e6e57ff1aa7fb32e4e361aaeb00b6237c2108c83aa554846d0b227d34"),
    ("verify solution-free --eq 1,1 --set {set}", 0,
     "d49c854b920836c7285c9ed11d41dfabc2e7a356f186b2ff2b4c98acc7eaf1c8"),
    ("search exact --eq 1,1 --N 12", 0,
     "70011a1ade402a8ece6cb22e8fe0a6b8b6779ed313aacd1b802a7b5b981a8121"),
    ("search heuristic --eq 1,1 --N 14 --trials 8 --seed 5", 0,
     "cbe4eeedb061b6d88edf34fa1ae938d1c33080869cdf7e76a6dc0c82a1efdf43"),
    ("check inequalities --trials 60 --seed 9", 0,
     "4604112c376d9c4718b188d84aca4bbdeec562e5bf93039c4f1c23177177b01e"),
    ("check inequalities --trials 2500 --seed 4", 0,
     "91f04290d23992621e8cb9a929ad8d848b2e0935c56850e2752df0aa05b47a77"),
    ("check bounds --eq 1,1 --set {set}", 0,
     "ef30eab09e484d12cfae34a2fdba73738051ea15de60ae918e1408c5e28ec425"),
    ("table rn --eq 1,1 --N 10", 0,
     "4d34269dcd6be6bf430bc0cc56a41a049e80b3ae88de5a41d8746df4ce67441b"),
    ("table rn --eq 1,1 --N 10 --json", 0,
     "4f830062e0baa28859b8eb290cd1f081a471655521e0852b11932b60d7bb2e7c"),
    ("fit --points {points}", 0,
     "c3b93cad7ffd99b59d79b501eab2ead8ad99a2c8d15ec419b6498a29765ad255"),
    ("count solutions --eq 1,2,2 --set {dense}", 0,
     "40e2f18b483efe383a2f08d9723a8086b1cb31660c285d1e3b87fd7073d5a108"),
    ("count energy --eq 1,1,1 --set {dense}", 0,
     "7b2b560981be0a0f72707e09c229edf43b53330a0dfab76801a7afb2d6e6c27e"),
    ("count solutions --eq 1,2 --set {wide}", 0,
     "8fc3112dbe42b8b84e59b4bc0dc0d152cab7c51f239235e36e6cd12400be3a3d"),
    ("check bounds --eq 1,2 --set {wide}", 0,
     "a6b891561ea46135f1a4d7c1a21d50d3e3e05023fa3e7f2f806160e77183f48f"),
    # Nonzero distinct counts for k = 4 and 5 from the partition sum.
    ("count distinct --eq 1,1,1,1,1 --set {dense} --method inclusion_exclusion", 0,
     "9ee2346d92007b0f5259fa92919281d2547fa79c78e6acfa9438e8989710973f"),
    ("count solutions --eq 1,-2,3,3 --set {dense}", 0,
     "f3ea2f229654cac2e5789a0caa4fc36975cec9e93e8d8b798785fb9ec043d014"),
]


def test_criterion_8_cli_byte_determinism(tmp_path):
    """Every pinned command prints the same stdout under two hash seeds,
    nothing on stderr, and the exit code and stdout sha256 it is pinned to."""
    files = {
        "set": [1, 2, 5, 7],
        "dense": range(3, 400, 5),
        "wide": [3**i for i in range(1, 31)],
    }
    paths = {}
    for name, values in files.items():
        paths[name] = tmp_path / f"{name}.txt"
        paths[name].write_text("".join(f"{v}\n" for v in values), encoding="utf-8")
    paths["points"] = tmp_path / "points.csv"
    paths["points"].write_text("N,size\n4,2\n9,3\n25,5\n36,6\n", encoding="utf-8")
    for line, code, digest in CLI_PINS:
        argv = [arg.format(**paths) for arg in line.split()]
        outputs = []
        # different hash seeds so dict/set iteration cannot sneak into output
        for hash_seed in ("1", "31337"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            proc = subprocess.run(
                [sys.executable, "-m", "symfree", *argv],
                capture_output=True,
                env=env,
            )
            assert proc.returncode == code, (argv, proc.stderr)
            assert proc.stderr == b""
            outputs.append(proc.stdout)
        assert outputs[0]
        assert outputs[0] == outputs[1], argv
        assert hashlib.sha256(outputs[0]).hexdigest() == digest, argv
