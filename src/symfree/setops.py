"""Sumsets, difference sets, dilates, and exact checkers for the classical
inequalities that relate their sizes and energies.

Set arithmetic here works on arbitrary finite integer sets (zero and negative
members included), represented as strictly increasing tuples.  IntegerSet
inputs are accepted anywhere and are read through their elements.  Every sum
is one fold, `_weighted_sums`, over (set, coefficient) terms: when the spans
of the scaled terms add up to a small total, it keeps one bit mask packed
into a Python int across all the terms and decodes it once; otherwise it
accumulates a hash set.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .counting import energy
from .model import IntegerSet, ValidationError, bit_positions, scale

_MASK_SPAN_LIMIT = 1 << 20

# Fixed grid for the randomized checkers: every trial draws a span and a
# density from these, so failures replay from (seed, trial index) alone.
TRIAL_SPANS = (20, 40, 50)
TRIAL_DENSITIES = (0.1, 0.3, 0.6)

CHECK_NAMES = ("ruzsa_triangle", "plunnecke", "cs_energy_lower", "dilate_inclusion")


def _elements(s) -> tuple[int, ...]:
    if isinstance(s, IntegerSet):
        return s.elements
    out = tuple(sorted(set(s)))
    for v in out:
        if not isinstance(v, int) or isinstance(v, bool):
            raise ValidationError(f"set member {v!r} is not an integer")
    return out


def _require_nonempty(*sets: tuple[int, ...]) -> None:
    for s in sets:
        if not s:
            raise ValidationError("set operations need nonempty sets")


def _weighted_sums(terms: Sequence[tuple[tuple[int, ...], int]]) -> tuple[int, ...]:
    """Every value c1*x1 + ... + cl*xl, ascending, for (elements, c) terms
    with nonempty ascending elements and nonzero c, xi taken from the i-th
    term's elements.

    Each term is scaled once.  When the spans max - min of the scaled terms
    add up to less than `_MASK_SPAN_LIMIT`, one mask holds the sums so far,
    bit j for the least sum plus j; a term ORs together the mask shifted by
    each c*x - min(c*A), and the mask is decoded once at the end.
    """
    _require_nonempty(*(elems for elems, _ in terms))
    scaled = [scale(elems, c) for elems, c in terms]
    if sum(t[-1] - t[0] for t in scaled) < _MASK_SPAN_LIMIT:
        mask = 1
        for t in scaled:
            lo = t[0]
            acc = 0
            for v in t:
                acc |= mask << (v - lo)
            mask = acc
        return bit_positions(mask, sum(t[0] for t in scaled))
    sums = {0}
    for t in scaled:
        sums = {s + v for s in sums for v in t}
    return tuple(sorted(sums))


def sumset(A, B) -> tuple[int, ...]:
    """A + B = {a + b : a in A, b in B}."""
    return _weighted_sums([(_elements(A), 1), (_elements(B), 1)])


def difference(A, B) -> tuple[int, ...]:
    """A - B = {a - b : a in A, b in B}."""
    return _weighted_sums([(_elements(A), 1), (_elements(B), -1)])


def dilate(t: int, A) -> tuple[int, ...]:
    """t * A = {t*a : a in A}, t >= 1."""
    if t < 1:
        raise ValidationError("dilation factor must be >= 1")
    a = _elements(A)
    _require_nonempty(a)
    return tuple(t * v for v in a)


def iterated_sumset(k: int, B) -> tuple[int, ...]:
    """kB = B + B + ... + B with k summands, k >= 1."""
    if k < 1:
        raise ValidationError("need at least one summand")
    return _weighted_sums([(_elements(B), 1)] * k)


@dataclass(frozen=True)
class DilateSpec:
    """Positive dilation coefficients (s1, ..., sl)."""

    s: tuple[int, ...]

    def __post_init__(self):
        coeffs = tuple(self.s)
        if not coeffs:
            raise ValidationError("a dilate spec needs at least one coefficient")
        if any((not isinstance(c, int)) or isinstance(c, bool) or c < 1 for c in coeffs):
            raise ValidationError("dilate coefficients must be integers >= 1")
        object.__setattr__(self, "s", coeffs)

    @property
    def norm1(self) -> int:
        return sum(self.s)


def sum_of_dilates(spec, A) -> tuple[int, ...]:
    """s1*A + s2*A + ... + sl*A for the given coefficients."""
    if not isinstance(spec, DilateSpec):
        spec = DilateSpec(tuple(spec))
    a = _elements(A)
    return _weighted_sums([(a, c) for c in spec.s])


@dataclass(frozen=True)
class TriangleResult:
    """|A-C| * |B| versus |A-B| * |B-C|, exact integers."""

    lhs: int
    rhs: int
    holds: bool


def ruzsa_triangle_check(A, B, C) -> TriangleResult:
    """Difference-set triangle inequality: |A-C|*|B| <= |A-B|*|B-C|."""
    lhs = len(difference(A, C)) * len(_elements(B))
    rhs = len(difference(A, B)) * len(difference(B, C))
    return TriangleResult(lhs=lhs, rhs=rhs, holds=lhs <= rhs)


@dataclass(frozen=True)
class PlunneckeResult:
    """Iterated sumset growth bound |kB| <= K^k * |A| with K = |A+B|/|A|,
    compared in the cross-multiplied integer form."""

    K: Fraction
    lhs: int
    bound: int
    holds: bool


def plunnecke_check(A, B, k: int) -> PlunneckeResult:
    if k < 1:
        raise ValidationError("iterated sumset order must be >= 1")
    n_ab = len(sumset(A, B))
    n_kb = len(iterated_sumset(k, B))
    n_a = len(_elements(A))
    lhs = n_kb * n_a**k
    bound = n_ab**k * n_a
    return PlunneckeResult(
        K=Fraction(n_ab, n_a), lhs=lhs, bound=bound, holds=lhs <= bound
    )


@dataclass(frozen=True)
class EnergyLowerResult:
    """Energy of a weighted system versus the squared product of set sizes
    over the size of the corresponding sumset."""

    E: int
    sumset_size: int
    product_sq: int
    holds: bool


def cs_energy_lower_check(sets: Sequence[tuple[IntegerSet, int]]) -> EnergyLowerResult:
    """Cauchy-Schwarz lower bound: E * |c1*A1 + ... + cl*Al| >= (prod |Ai|)^2,
    for IntegerSets Ai and coefficients ci >= 1."""
    sets = list(sets)
    if not sets:
        raise ValidationError("at least one (set, coefficient) pair is required")
    DilateSpec(tuple(c for _, c in sets))  # validates the coefficients
    E = energy(sets, sets)  # validates the sets
    size = len(_weighted_sums([(s.elements, c) for s, c in sets]))
    product_sq = math.prod(len(s.elements) for s, _ in sets) ** 2
    return EnergyLowerResult(
        E=E, sumset_size=size, product_sq=product_sq, holds=E * size >= product_sq
    )


def sample_integer_set(rng: random.Random, span: int, density: float) -> IntegerSet:
    """Random nonempty subset of [1, span]; each element kept with the given
    probability, one uniform element forced in when the draw comes up empty."""
    values = [v for v in range(1, span + 1) if rng.random() < density]
    if not values:
        values = [rng.randint(1, span)]
    return IntegerSet._trusted(tuple(values), span)


def _one_trial(rng: random.Random, name: str) -> tuple[bool, dict]:
    span = rng.choice(TRIAL_SPANS)
    density = rng.choice(TRIAL_DENSITIES)
    if name == "ruzsa_triangle":
        A = sample_integer_set(rng, span, density)
        B = sample_integer_set(rng, span, density)
        C = sample_integer_set(rng, span, density)
        res = ruzsa_triangle_check(A, B, C)
        detail = {"A": list(A), "B": list(B), "C": list(C)}
    elif name == "plunnecke":
        A = sample_integer_set(rng, span, density)
        B = sample_integer_set(rng, span, density)
        k = rng.randint(1, 4)
        res = plunnecke_check(A, B, k)
        detail = {"A": list(A), "B": list(B), "k": k}
    elif name == "cs_energy_lower":
        A = sample_integer_set(rng, min(span, 30), density)
        coeffs = [rng.randint(1, 4) for _ in range(rng.randint(1, 3))]
        res = cs_energy_lower_check([(A, c) for c in coeffs])
        detail = {"A": list(A), "coeffs": coeffs}
    elif name == "dilate_inclusion":
        A = sample_integer_set(rng, min(span, 30), density)
        spec = DilateSpec(tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 3))))
        inside = set(sum_of_dilates(spec, A)) <= set(iterated_sumset(spec.norm1, A))
        return inside, {"A": list(A), "coeffs": list(spec.s)}
    else:
        raise ValidationError(f"unknown check {name!r}")
    return res.holds, detail


def run_inequality_trials(trials: int, seed: int) -> dict:
    """Run every checker `trials` times on seeded random inputs.

    Returns a summary with per-check counts and a list of failures; each
    failure records the check name, the trial index, and the inputs, so a
    report plus the seed reproduces it.
    """
    if trials < 1:
        raise ValidationError("trial count must be >= 1")
    rng = random.Random(seed)
    counts = {name: 0 for name in CHECK_NAMES}
    failures = []
    for t in range(trials):
        for name in CHECK_NAMES:
            ok, detail = _one_trial(rng, name)
            counts[name] += 1
            if not ok:
                failures.append({"check": name, "trial": t, "inputs": detail})
    return {
        "trials": trials,
        "seed": seed,
        "per_check_counts": counts,
        "failures": failures,
    }
