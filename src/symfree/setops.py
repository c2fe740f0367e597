"""Sumsets, difference sets, dilates, and exact checkers for the classical
inequalities that relate their sizes and energies.

Set arithmetic here works on arbitrary finite integer sets (zero and negative
members included), represented as strictly increasing tuples.  IntegerSet
inputs are accepted anywhere and are read through their elements.  Every sum
is one fold, `_fold`, over (set, coefficient) terms: when the scaled spans
|c| * (max - min) add up to a small total, it keeps one bit mask packed into
a Python int across all the terms, shifting it by c times each member's
distance from the term's end; otherwise it accumulates a hash set.  The
functions that return sums decode the result once.  The checkers only
count: they read the mask's set bits, or the set's size, and sum-of-dilates
inclusion compares two masks with the same least sum.  The Cauchy-Schwarz
check reads E and the sumset size from one representation function in
`counting`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .counting import _self_energy, _terms
from .model import (
    IntegerSet,
    ValidationError,
    _read_int_set,
    _read_pairs,
    _read_sequence,
    _require_int,
    _require_positive_int,
    bit_positions,
)

_MASK_SPAN_LIMIT = 1 << 20
_EMPTY = "set operations need nonempty sets"

# Fixed grid for the randomized checkers: every trial draws a span and a
# density from these, so failures replay from (seed, trial index) alone.
TRIAL_SPANS = (20, 40, 50)
TRIAL_DENSITIES = (0.1, 0.3, 0.6)

CHECK_NAMES = ("ruzsa_triangle", "plunnecke", "cs_energy_lower", "dilate_inclusion")


def _fold(terms: Sequence[tuple[tuple[int, ...], int]]) -> tuple[int, int] | set[int]:
    """Every value c1*x1 + ... + cl*xl for (elements, c) terms with nonempty
    ascending elements and nonzero c, xi taken from the i-th term's
    elements, undecoded: a mask and its base, bit j set for the sum base + j,
    or a set of the sums.

    When the spans |c| * (max - min) of the terms add up to less than
    `_MASK_SPAN_LIMIT`, one mask holds the sums so far, and a term ORs
    together the mask shifted by each c * (x - lo), lo being the member
    with the least product c*lo: min for c > 0, max for c < 0.  Otherwise
    a hash set accumulates the sums, adding the products c*x of each term
    in any order.
    """
    span = 0
    for elems, c in terms:
        if not elems:
            raise ValidationError(_EMPTY)
        span += abs(c) * (elems[-1] - elems[0])
    if span < _MASK_SPAN_LIMIT:
        mask, base = 1, 0
        for elems, c in terms:
            lo = elems[0] if c > 0 else elems[-1]
            acc = 0
            for v in elems:
                acc |= mask << (c * (v - lo))
            mask = acc
            base += c * lo
        return mask, base
    sums = {0}
    for elems, c in terms:
        t = [c * v for v in elems]
        sums = {s + v for s in sums for v in t}
    return sums


def _weighted_sums(terms: Sequence[tuple[tuple[int, ...], int]]) -> tuple[int, ...]:
    """The values of `_fold(terms)`, ascending."""
    sums = _fold(terms)
    if isinstance(sums, set):
        return tuple(sorted(sums))
    return bit_positions(*sums)


def _count_sums(terms: Sequence[tuple[tuple[int, ...], int]]) -> int:
    """The number of values of `_fold(terms)`, read off its mask or set
    without decoding it."""
    sums = _fold(terms)
    return len(sums) if isinstance(sums, set) else sums[0].bit_count()


def sumset(A, B) -> tuple[int, ...]:
    """A + B = {a + b : a in A, b in B}."""
    return _weighted_sums([(_read_int_set(A), 1), (_read_int_set(B), 1)])


def difference(A, B) -> tuple[int, ...]:
    """A - B = {a - b : a in A, b in B}."""
    return _weighted_sums([(_read_int_set(A), 1), (_read_int_set(B), -1)])


def dilate(t: int, A) -> tuple[int, ...]:
    """t * A = {t*a : a in A}, t >= 1."""
    _require_positive_int(t, "dilation factor")
    return _weighted_sums([(_read_int_set(A), t)])


def iterated_sumset(k: int, B) -> tuple[int, ...]:
    """kB = B + B + ... + B with k summands, k >= 1."""
    _require_positive_int(k, "number of summands")
    return _weighted_sums([(_read_int_set(B), 1)] * k)


@dataclass(frozen=True)
class DilateSpec:
    """Positive dilation coefficients (s1, ..., sl)."""

    s: tuple[int, ...]

    def __post_init__(self):
        coeffs = _read_sequence(self.s, "a dilate spec takes a sequence of coefficients")
        if not coeffs:
            raise ValidationError("a dilate spec needs at least one coefficient")
        for c in coeffs:
            _require_positive_int(c, "dilate coefficients")
        object.__setattr__(self, "s", coeffs)

    @property
    def norm1(self) -> int:
        return sum(self.s)


def sum_of_dilates(spec, A) -> tuple[int, ...]:
    """s1*A + s2*A + ... + sl*A for the given coefficients."""
    if not isinstance(spec, DilateSpec):
        spec = DilateSpec(spec)
    a = _read_int_set(A)
    return _weighted_sums([(a, c) for c in spec.s])


def _dilates_inside(spec: DilateSpec, a: tuple[int, ...]) -> bool:
    """Whether s1*A + ... + sl*A lies inside norm1*A.  Both least sums are
    norm1 * min A and both spans norm1 * (max A - min A), so the two folds
    take one route and their masks share one base."""
    dilates = _fold([(a, c) for c in spec.s])
    iterated = _fold([(a, 1)] * spec.norm1)
    if isinstance(dilates, set):
        return dilates <= iterated
    return dilates[0] & ~iterated[0] == 0


@dataclass(frozen=True)
class TriangleResult:
    """|A-C| * |B| versus |A-B| * |B-C|, exact integers."""

    lhs: int
    rhs: int
    holds: bool


def ruzsa_triangle_check(A, B, C) -> TriangleResult:
    """Difference-set triangle inequality: |A-C|*|B| <= |A-B|*|B-C|."""
    a, c = _read_int_set(A), _read_int_set(C)
    n_ac = _count_sums([(a, 1), (c, -1)])
    b = _read_int_set(B)
    lhs = n_ac * len(b)
    rhs = _count_sums([(a, 1), (b, -1)]) * _count_sums([(b, 1), (c, -1)])
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
    _require_positive_int(k, "iterated sumset order")
    a, b = _read_int_set(A), _read_int_set(B)
    n_ab = _count_sums([(a, 1), (b, 1)])
    n_kb = _count_sums([(b, 1)] * k)
    n_a = len(a)
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
    for IntegerSets Ai and coefficients ci >= 1.  E is the sum of the squared
    counts of one representation function, and the sumset size its support."""
    sets = _read_pairs(sets, "cs_energy_lower_check takes (set, coefficient) pairs")
    if not sets:
        raise ValidationError("at least one (set, coefficient) pair is required")
    DilateSpec([c for _, c in sets])  # validates the coefficients
    terms, total = _terms(sets)  # validates the sets
    if not total:
        raise ValidationError(_EMPTY)
    E, size = _self_energy(terms, total)
    product_sq = total**2
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
    """Whether the named check held on fresh draws from `rng`, and the drawn
    inputs as they are; the driver copies them into lists only for a
    failure's reproducer."""
    span = rng.choice(TRIAL_SPANS)
    density = rng.choice(TRIAL_DENSITIES)
    if name == "ruzsa_triangle":
        A = sample_integer_set(rng, span, density)
        B = sample_integer_set(rng, span, density)
        C = sample_integer_set(rng, span, density)
        res = ruzsa_triangle_check(A, B, C)
        inputs = {"A": A, "B": B, "C": C}
    elif name == "plunnecke":
        A = sample_integer_set(rng, span, density)
        B = sample_integer_set(rng, span, density)
        k = rng.randint(1, 4)
        res = plunnecke_check(A, B, k)
        inputs = {"A": A, "B": B, "k": k}
    elif name == "cs_energy_lower":
        A = sample_integer_set(rng, min(span, 30), density)
        coeffs = [rng.randint(1, 4) for _ in range(rng.randint(1, 3))]
        res = cs_energy_lower_check([(A, c) for c in coeffs])
        inputs = {"A": A, "coeffs": coeffs}
    elif name == "dilate_inclusion":
        A = sample_integer_set(rng, min(span, 30), density)
        spec = DilateSpec(tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 3))))
        return _dilates_inside(spec, A.elements), {"A": A, "coeffs": spec.s}
    else:
        raise ValidationError(f"unknown check {name!r}")
    return res.holds, inputs


def run_inequality_trials(trials: int, seed: int) -> dict:
    """Run every checker `trials` times on seeded random inputs.

    Returns a summary with per-check counts and a list of failures; each
    failure records the check name, the trial index, and the inputs, so a
    report plus the seed reproduces it.
    """
    _require_positive_int(trials, "trial count")
    _require_int(seed, "seed")
    rng = random.Random(seed)
    counts = {name: 0 for name in CHECK_NAMES}
    failures = []
    for t in range(trials):
        for name in CHECK_NAMES:
            ok, inputs = _one_trial(rng, name)
            counts[name] += 1
            if not ok:
                inputs = {key: v if isinstance(v, int) else list(v) for key, v in inputs.items()}
                failures.append({"check": name, "trial": t, "inputs": inputs})
    return {
        "trials": trials,
        "seed": seed,
        "per_check_counts": counts,
        "failures": failures,
    }
