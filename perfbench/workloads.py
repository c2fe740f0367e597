"""The benchmark's workloads: fixed sequences of symfree CLI commands.

A workload builds its inputs from the seed before anything is timed: set
files go into the run's work directory, and each command carries the check
that its stdout must pass.  `tiny` shrinks every size for the smoke test
while keeping the same commands.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import check


@dataclass(frozen=True)
class Command:
    argv: list[str]
    check: Callable[[str], dict]


def _coeffs(eq: str) -> tuple[int, ...]:
    return tuple(int(c) for c in eq.split(","))


def _table(eq: str, n_max: int, budget: int, trials: int, seed: int) -> list[Command]:
    argv = ["table", "rn", "--eq", eq, "--N", str(n_max), "--budget", str(budget),
            "--trials", str(trials), "--seed", str(seed)]
    return [Command(argv, partial(check.check_table, a=_coeffs(eq), n_max=n_max))]


def rn_sidon(seed: int, work: Path, tiny: bool = False) -> list[Command]:
    """Weak Sidon R(N) table with the acceptance gate's parameters.

    Carries the headline figure: how far the exact rows reach within a 2M
    node budget (N=29 when this benchmark was added).  Branch and bound
    takes ~82% of the time, the 2k=4 hypergraph scan ~11% and the greedy
    restarts of the heuristic rows ~7% (counting.pinned, construct.greedy,
    model.make_set).
    """
    if tiny:
        return _table("1,1", 12, 2_000, 4, seed)
    return _table("1,1", 40, 2_000_000, 80, seed)


def rn_k3(seed: int, work: Path, tiny: bool = False) -> list[Command]:
    """R(N) table for 1,2,2 (2k=6) with a small node budget.

    The C(18,6) hypergraph scan takes ~73% of the time and the 20k node cap
    keeps branch and bound near 24%; the exact rows reach N=15.
    Meet-in-the-middle edge generation may lose at 2k=6 and win at 2k=4, so
    this workload and rn_sidon sit on the two sides of that choice.
    """
    if tiny:
        return _table("1,2,2", 9, 500, 2, seed)
    return _table("1,2,2", 18, 20_000, 20, seed)


def _set_file(work: Path, name: str, values: list[int]) -> str:
    path = work / f"{name}.txt"
    path.write_text("".join(f"{v}\n" for v in values), encoding="utf-8")
    return str(path)


def set_pipeline(seed: int, work: Path, tiny: bool = False) -> list[Command]:
    """Construct, verify, bound and count on digit sets and seeded random sets.

    No branch and bound.  The time goes to the witness searches of verify
    (counting.witness, ~36%), exact counting on a few large inputs
    (counting.distinct_enum ~19%, counting.rep ~14%), the digit
    construction (construct.digits ~17%), one greedy scan over [1, 2000]
    (counting.pinned ~10%) and the CLI printing half a million lines (cli
    ~4%).  It is the large-input side of the counting kernels that
    sumset_trials runs on tiny inputs.
    """
    rng = random.Random(seed)

    def pick(n: int, top: int) -> list[int]:
        return sorted(rng.sample(range(1, top + 1), n))

    # (d, k, N) of each digit construction, the verified digit sets holding
    # 512, 64 and 243 elements at full size; (size, top) of each random
    # subset of [1, top]; and N of the heuristic search.
    if tiny:
        big, small = (2, 2, 8**5), (3, 3, 27**2)
        d12, d122, d13 = (2, 2, 8**3), (2, 3, 12**3), (3, 2, 18**2)
        r122, r11, r1111, r111 = (10, 40), (12, 60), (8, 20), (8, 20)
        nonfree, heur_n = (30, 100), 60
    else:
        big, small = (2, 2, 8**19), (3, 3, 27**10)
        d12, d122, d13 = (2, 2, 8**9), (2, 3, 12**6), (3, 2, 18**5)
        r122, r11, r1111, r111 = (80, 400), (120, 2000), (24, 60), (20, 50)
        nonfree, heur_n = (200, 1000), 2000
    sets = {
        "d12": check.digit_set(*d12),
        "d122": check.digit_set(*d122),
        "d13": check.digit_set(*d13),
        "nonfree": pick(*nonfree),
        "r122": pick(*r122),
        "r11": pick(*r11),
        "r1111": pick(*r1111),
        "r111": pick(*r111),
    }
    path = {name: _set_file(work, name, values) for name, values in sets.items()}

    def construct(d, k, N):
        return Command(["construct", "ruzsa", "--d", str(d), "--k", str(k), "--N", str(N)],
                       partial(check.check_construct, d=d, k=k, N=N))

    def verify(eq, name):
        return Command(["verify", "solution-free", "--eq", eq, "--set", path[name]],
                       partial(check.check_verify, values=sets[name], a=_coeffs(eq)))

    def count(what, eq, name, top, method=None):
        argv = ["count", what, "--eq", eq, "--set", path[name], "--N", str(top)]
        if method:
            argv += ["--method", method]
        return Command(argv, partial(check.check_count, what=what, values=sets[name],
                                     a=_coeffs(eq), N=top, method=method))

    return [
        construct(*big),
        construct(*small),
        verify("1,2", "d12"),
        verify("1,2,2", "d122"),
        verify("1,3", "d13"),
        verify("1,1", "nonfree"),
        Command(["check", "bounds", "--eq", "1,2", "--set", path["d12"]],
                partial(check.check_bounds, values=sets["d12"], a=(1, 2))),
        count("solutions", "1,2,2", "r122", r122[1]),
        count("solutions", "1,1", "r11", r11[1]),
        count("solutions", "1,1,1,1", "r1111", r1111[1]),
        count("energy", "1,1,1", "r11", r11[1]),
        count("distinct", "1,1", "r11", r11[1], method="enumerate"),
        count("distinct", "1,1,1", "r111", r111[1], method="enumerate"),
        Command(["search", "heuristic", "--eq", "1,1", "--N", str(heur_n), "--trials", "1",
                 "--seed", str(seed)],
                partial(check.check_heuristic, a=(1, 1), N=heur_n)),
    ]


def sumset_trials(seed: int, work: Path, tiny: bool = False) -> list[Command]:
    """Randomized sumset and energy inequality checks, 10,000 trials a round.

    The only workload where setops does work (~80% of the time: sums 52%,
    trials 17%, checks 11%), and where counting.energy and counting.rep run
    on 10,000 tiny systems a round (~12%), so per-call overhead dominates:
    the opposite use to set_pipeline.  A sum-kernel change that helps one
    use and costs the other shows up between the two.
    """
    commands, trials = (2, 20) if tiny else (4, 2500)
    out = []
    for i in range(commands):
        trial_seed = seed * commands + i
        out.append(Command(
            ["check", "inequalities", "--trials", str(trials), "--seed", str(trial_seed)],
            partial(check.check_inequalities, trials=trials, seed=trial_seed)))
    return out


WORKLOADS = {
    "rn_sidon": rn_sidon,
    "rn_k3": rn_k3,
    "set_pipeline": set_pipeline,
    "sumset_trials": sumset_trials,
}
