"""Sumsets, difference sets, dilates, and exact checkers for the classical
inequalities that relate their sizes and energies.

Set arithmetic here works on arbitrary finite integer sets (zero and negative
members included), represented as strictly increasing tuples.  IntegerSet
inputs are accepted anywhere and are read through their elements.  When the
output span is small the kernels run on bit masks packed into Python ints;
otherwise they fall back to hash-set accumulation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .counting import energy
from .model import IntegerSet, ValidationError, make_set

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


def _pair_sums(a: tuple[int, ...], b: tuple[int, ...], sign: int) -> tuple[int, ...]:
    """All values x + sign*y for x in a, y in b."""
    bb = tuple(sign * v for v in b)
    lo = a[0] + min(bb)
    hi = a[-1] + max(bb)
    span = hi - lo + 1
    if span <= _MASK_SPAN_LIMIT:
        mask_a = 0
        for v in a:
            mask_a |= 1 << (v - a[0])
        acc = 0
        for w in bb:
            acc |= mask_a << (a[0] + w - lo)
        out = []
        while acc:
            low = acc & -acc
            out.append(lo + low.bit_length() - 1)
            acc &= acc - 1
        return tuple(out)
    return tuple(sorted({x + w for x in a for w in bb}))


def sumset(A, B) -> tuple[int, ...]:
    """A + B = {a + b : a in A, b in B}."""
    a, b = _elements(A), _elements(B)
    _require_nonempty(a, b)
    return _pair_sums(a, b, 1)


def difference(A, B) -> tuple[int, ...]:
    """A - B = {a - b : a in A, b in B}."""
    a, b = _elements(A), _elements(B)
    _require_nonempty(a, b)
    return _pair_sums(a, b, -1)


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
    b = _elements(B)
    _require_nonempty(b)
    acc = b
    for _ in range(k - 1):
        acc = _pair_sums(acc, b, 1)
    return acc


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
    _require_nonempty(a)
    acc = dilate(spec.s[0], a)
    for c in spec.s[1:]:
        acc = _pair_sums(acc, dilate(c, a), 1)
    return acc


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
    a, b = _elements(A), _elements(B)
    _require_nonempty(a, b)
    n_a = len(a)
    n_ab = len(sumset(a, b))
    n_kb = len(iterated_sumset(k, b))
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
    """Cauchy-Schwarz lower bound: E * |c1*A1 + ... + cl*Al| >= (prod |Ai|)^2."""
    sets = list(sets)
    if not sets:
        raise ValidationError("at least one (set, coefficient) pair is required")
    for s, c in sets:
        if not _elements(s):
            raise ValidationError("set operations need nonempty sets")
        if c < 1:
            raise ValidationError("dilate coefficients must be integers >= 1")
    E = energy(sets, sets)
    acc = dilate(sets[0][1], sets[0][0])
    for s, c in sets[1:]:
        acc = _pair_sums(acc, dilate(c, s), 1)
    product = 1
    for s, _ in sets:
        product *= len(_elements(s))
    product_sq = product * product
    return EnergyLowerResult(
        E=E,
        sumset_size=len(acc),
        product_sq=product_sq,
        holds=E * len(acc) >= product_sq,
    )


def sample_integer_set(rng: random.Random, span: int, density: float) -> IntegerSet:
    """Random nonempty subset of [1, span]; each element kept with the given
    probability, one uniform element forced in when the draw comes up empty."""
    values = [v for v in range(1, span + 1) if rng.random() < density]
    if not values:
        values = [rng.randint(1, span)]
    return make_set(values, span)


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
