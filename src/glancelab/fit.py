"""Power-law exponent fits, on the standard library alone.

Every claim of the package is an exponent read off a sweep by a least-squares
line in log-log space.  The fit needs no array library: its sums are
``math.fsum``, rounded once, so ``glancelab fit`` and ``glancelab plot`` run
without numpy.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from . import NumericalFailure


class FitError(NumericalFailure):
    """The sweep data does not support a power-law fit."""


class FitResult(NamedTuple):
    """Least-squares power-law fit log y = slope * log x + intercept."""
    slope: float
    intercept: float
    stderr: float
    r_squared: float
    n_points: int


def _floats(values) -> list[float]:
    """The elements of a 1-d sequence (a list, a tuple or a 1-d array) as
    floats."""
    if getattr(values, "ndim", 1) != 1:
        raise FitError("x and y must be 1-d arrays of equal length")
    try:
        return [float(v) for v in values]
    except TypeError as exc:     # a scalar, or a nested sequence
        raise FitError("x and y must be 1-d arrays of equal length") from exc


def fit_exponent(x, y, drop_low: float = 0.25) -> FitResult:
    """Fit a growth exponent by ordinary least squares in log-log space.

    Parameters
    ----------
    x, y : sequences of numbers
        Positive abscissae (frequencies, h values, ...) and norms.  Rows are
        assumed ordered with the pre-asymptotic end first; `drop_low` drops
        that leading fraction before fitting.
    drop_low : float
        Fraction of leading rows to discard (default 1/4), in [0, 1).

    Raises
    ------
    ValueError
        `drop_low` outside [0, 1) (nan included).
    FitError
        Non-finite data, fewer than 3 usable points, non-positive data, or
        a fit that claims a trend the data cannot support: r^2 < 0.8 with a
        slope exceeding both 3 standard errors and 0.05.  Flat data with
        scatter is *not* an error: a slope consistent with 0 is a legitimate
        measurement of a bounded quantity, whatever its r^2.
    """
    if not (0.0 <= drop_low < 1.0):
        raise ValueError(f"drop_low must lie in [0, 1), got {drop_low} "
                         f"(--drop-low)")
    x, y = _floats(x), _floats(y)
    if len(x) != len(y):
        raise FitError("x and y must be 1-d arrays of equal length")
    if not all(map(math.isfinite, x + y)):
        raise FitError("x and y must be finite (no nan or inf)")
    keep = math.floor(len(x) * drop_low)
    x, y = x[keep:], y[keep:]
    if len(x) < 3:
        raise FitError(f"only {len(x)} points left after dropping {keep}")
    if min(x) <= 0.0 or min(y) <= 0.0:
        raise FitError("log-log fit needs positive data")
    lx, ly = [math.log(v) for v in x], [math.log(v) for v in y]
    mx, my = math.fsum(lx) / len(x), math.fsum(ly) / len(x)
    vx, vy = [v - mx for v in lx], [v - my for v in ly]
    denom = math.fsum(v * v for v in vx)
    if denom == 0.0:
        raise FitError("abscissa is constant")
    slope = math.fsum(a * b for a, b in zip(vx, vy)) / denom
    intercept = my - slope * mx
    resid = [b - (slope * a + intercept) for a, b in zip(lx, ly)]
    ss = math.fsum(r * r for r in resid)
    dof = len(x) - 2
    stderr = math.sqrt(ss / dof / denom) if dof > 0 else 0.0
    total = math.fsum(v * v for v in vy)
    r2 = 1.0 - ss / total if total > 0.0 else 1.0
    if r2 < 0.8 and abs(slope) > max(3.0 * stderr, 0.05):
        raise FitError(
            f"unreliable trend: slope {slope:+.4f} with r^2 {r2:.3f} "
            f"(stderr {stderr:.4f})")
    return FitResult(slope=slope, intercept=intercept, stderr=stderr,
                     r_squared=r2, n_points=len(x))
