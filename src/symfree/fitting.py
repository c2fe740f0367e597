"""Least-squares slope estimation on log-log scale, for reading growth
exponents out of (N, size) measurements."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ValidationError, _read_pairs, _require_int, _require_positive_int


@dataclass(frozen=True)
class FitResult:
    """Ordinary least squares fit of log(size) against log(N)."""

    slope: float
    intercept: float
    r_squared: float
    points: tuple[tuple[int, int], ...]


def fit_exponent(points) -> FitResult:
    """Fit size ~ C * N^slope through the given (N, size) points.

    Needs at least three points, each a pair of ints with N >= 2 and
    size >= 1, and at least two distinct N values.  r_squared is 1.0 for a
    degenerate flat fit with zero residual.
    """
    pts = tuple(_read_pairs(points, "exponent fit takes (N, size) points"))
    if len(pts) < 3:
        raise ValidationError("exponent fit needs at least 3 points")
    for n, size in pts:
        _require_int(n, "point N")
        if n < 2:
            raise ValidationError("exponent fit needs N >= 2")
        _require_positive_int(size, "point size")
    # math.log takes Python ints of any size, where np.log fails on the
    # object array that ints past 2^63 make.
    x = np.array([math.log(n) for n, _ in pts])
    y = np.array([math.log(size) for _, size in pts])
    sxx = float(np.sum((x - x.mean()) ** 2))
    if sxx == 0.0:
        raise ValidationError("exponent fit needs at least two distinct N values")
    slope = float(np.sum((x - x.mean()) * (y - y.mean())) / sxx)
    intercept = float(y.mean() - slope * x.mean())
    residuals = y - (slope * x + intercept)
    ss_res = float(np.sum(residuals**2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return FitResult(slope=slope, intercept=intercept, r_squared=r_squared, points=pts)
