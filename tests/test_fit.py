"""Tests for the standard-library power-law fit against its numpy original."""

import math
from fractions import Fraction

import numpy as np
import pytest

from glancelab import experiments as ex, io
from glancelab.fit import FitError, FitResult, fit_exponent
from glancelab.weights import BandSpec


def _fit_exponent_numpy(x, y, drop_low=0.25):
    """The numpy fit that `fit_exponent` replaced, kept as its reference."""
    if not (0.0 <= drop_low < 1.0):
        raise ValueError(f"drop_low must lie in [0, 1), got {drop_low}")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise FitError("x and y must be 1-d arrays of equal length")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise FitError("x and y must be finite (no nan or inf)")
    keep = math.floor(len(x) * drop_low)
    x, y = x[keep:], y[keep:]
    if len(x) < 3:
        raise FitError(f"only {len(x)} points left after dropping {keep}")
    if np.any(x <= 0.0) or np.any(y <= 0.0):
        raise FitError("log-log fit needs positive data")
    lx, ly = np.log(x), np.log(y)
    vx = lx - lx.mean()
    denom = float(vx @ vx)
    if denom == 0.0:
        raise FitError("abscissa is constant")
    slope = float(vx @ (ly - ly.mean())) / denom
    intercept = float(ly.mean() - slope * lx.mean())
    resid = ly - (slope * lx + intercept)
    dof = len(x) - 2
    stderr = math.sqrt(float(resid @ resid) / dof / denom) if dof > 0 else 0.0
    total = float((ly - ly.mean()) @ (ly - ly.mean()))
    r2 = 1.0 - float(resid @ resid) / total if total > 0.0 else 1.0
    if r2 < 0.8 and abs(slope) > max(3.0 * stderr, 0.05):
        raise FitError(
            f"unreliable trend: slope {slope:+.4f} with r^2 {r2:.3f} "
            f"(stderr {stderr:.4f})")
    return FitResult(slope=slope, intercept=intercept, stderr=stderr,
                     r_squared=r2, n_points=len(x))


def _outcome(fit, x, y, drop_low):
    try:
        return fit(x, y, drop_low=drop_low)
    except FitError as exc:
        return f"FitError: {exc}"


def _scales(x, y, drop_low, fit: FitResult) -> dict:
    """Per field, its size plus how far a relative change of 1 in the log
    data moves it: the two fits sum in another order (fsum rounds once,
    numpy's sums and products round per term), so they may part by a few
    ulp of the log data, carried through the fit's condition."""
    keep = math.floor(len(x) * drop_low)
    lx = np.log(np.asarray(x, dtype=float)[keep:])
    ly = np.log(np.asarray(y, dtype=float)[keep:])
    spread = math.sqrt(np.sum((lx - lx.mean()) ** 2))
    # the slope moves by `step`, a fitted value by `reach`
    step = (np.abs(ly).max() + abs(fit.slope) * np.abs(lx).max()) / spread
    reach = step * (spread + np.abs(lx).max())
    resid = ly - (fit.slope * lx + fit.intercept)
    total = np.sum((ly - ly.mean()) ** 2)
    return {"slope": abs(fit.slope) + step,
            "intercept": abs(fit.intercept) + reach,
            "stderr": fit.stderr + step,
            "r_squared": 1.0 + 2.0 * reach * math.sqrt(
                len(lx) * np.sum(resid ** 2)) / total}


def _assert_same_fit(x, y, drop_low):
    """Same outcome as the numpy fit, fields within 1e-14 of their scales
    (for random data, which may be far from well-conditioned)."""
    new = _outcome(fit_exponent, x, y, drop_low)
    old = _outcome(_fit_exponent_numpy, x, y, drop_low)
    if isinstance(old, str) or isinstance(new, str):
        assert new == old
        return
    assert new.n_points == old.n_points
    for name, scale in _scales(x, y, drop_low, old).items():
        a, b = getattr(new, name), getattr(old, name)
        assert type(a) is float
        assert abs(a - b) <= 1e-14 * scale, (name, a, b)


def _exact_line(x, y, drop_low):
    """(slope, intercept) of the least-squares line through the float logs,
    in exact rational arithmetic."""
    keep = math.floor(len(x) * drop_low)
    lx = [Fraction(math.log(v)) for v in list(x)[keep:]]
    ly = [Fraction(math.log(v)) for v in list(y)[keep:]]
    mx, my = sum(lx) / len(lx), sum(ly) / len(ly)
    slope = sum((a - mx) * (b - my) for a, b in zip(lx, ly)) / sum(
        (a - mx) ** 2 for a in lx)
    return slope, my - slope * mx


def _assert_close_fit(x, y, drop_low):
    """Same outcome as the numpy fit, each field within 1e-14 relative: of
    the numpy fit for the slope, stderr and r^2, and of the exact line for
    the slope and intercept.  The numpy intercept is not the reference: it
    is 1.2e-14 off the exact one on band-s0.0 at the default drop, where
    the intercept cancels to 0.055 from terms near 0.6."""
    new = _outcome(fit_exponent, x, y, drop_low)
    old = _outcome(_fit_exponent_numpy, x, y, drop_low)
    if isinstance(old, str) or isinstance(new, str):
        assert new == old
        return
    assert new.n_points == old.n_points
    for name in ("slope", "stderr", "r_squared"):
        a, b = getattr(new, name), getattr(old, name)
        assert abs(a - b) <= 1e-14 * abs(b), (name, a, b)
    for name, want in zip(("slope", "intercept"), _exact_line(x, y, drop_low)):
        got = Fraction(getattr(new, name))
        assert abs(got - want) <= Fraction(1e-14) * abs(want), (name, got)


def _acceptance_sweeps():
    """(label, result, x column, y column) of the ten full-scale disk sweeps
    of acceptance criteria 1, 3, 5 and 6."""
    grid = dict(kind="disk", n_lo=1000, n_hi=100000, points=24)
    at = {alpha: ex.SweepConfig(alpha=alpha, **grid) for alpha in (0.3, 0.5)}
    out = [(f"amplitude-a{a}", ex.amplitude_sweep(at[a]), "n", "amplitude")
           for a in (0.3, 0.5)]
    out += [(f"band-s{s}", ex.sharpness_sweep(at[0.5], s=s,
                                              band=BandSpec(0.3, 0.6)),
             "h", "weighted_norm") for s in (0.0, 0.1, 0.25, 0.4)]
    out += [(f"normal-a{a}", ex.normal_band_check(at[a]), "xi_d",
             "weighted_norm") for a in (0.3, 0.5)]
    out += [(f"derivative-s{s}", ex.normal_derivative_sweep(at[0.5], s=s),
             "h", "weighted_norm") for s in (0.25, 0.4)]
    return out


def test_acceptance_sweeps_fit_as_with_numpy():
    sweeps = _acceptance_sweeps()
    assert len(sweeps) == 10
    for _label, res, x, y in sweeps:
        for drop_low in (0.0, 0.25, 0.5):
            _assert_close_fit(res.column(x), res.column(y), drop_low)
        # the CLI reads its columns back as tuples, the sweeps pass arrays
        assert fit_exponent(tuple(res.column(x)), tuple(res.column(y))) == \
            fit_exponent(res.column(x), res.column(y))


def test_cli_workload_fit_as_with_numpy(tmp_path):
    # the sweep-disk and fit commands of the benchmark's cli workload: the
    # fit reads the CSV back, and its slope is the one the workload checks
    res = ex.amplitude_sweep(ex.SweepConfig(kind="disk", alpha=0.5, n_lo=200,
                                            n_hi=2000, points=12))
    io.write_sweep_csv(str(tmp_path / "disk.csv"), res)
    table = io.read_table(str(tmp_path / "disk.csv"))
    x, y = table["n"], table["amplitude"]
    _assert_close_fit(x, y, 0.25)
    assert fit_exponent(x, y).slope == _fit_exponent_numpy(x, y).slope


def test_random_data_fits_as_with_numpy():
    rng = np.random.default_rng(20)
    refused = set()
    for _ in range(400):
        n = int(rng.integers(0, 40))
        centre, width = rng.uniform(-20.0, 20.0), 10.0 ** rng.uniform(-3, 1.3)
        x = np.sort(np.exp(rng.uniform(centre - width, centre + width, n)))
        noise = rng.choice([1e-12, 1e-6, 0.01, 0.3, 3.0])
        y = rng.uniform(0.01, 100.0) * x ** rng.uniform(-3.0, 3.0) * np.exp(
            rng.normal(0.0, noise, n))
        drop_low = float(rng.choice([0.0, 0.25, 0.5]))
        _assert_same_fit(x, y, drop_low)
        outcome = _outcome(fit_exponent, x, y, drop_low)
        if isinstance(outcome, str):
            refused.add(outcome.split()[1])
    # both outcomes are exercised: fits, and refusals of too few points and
    # of an unreliable trend
    assert refused == {"only", "unreliable"}


@pytest.mark.parametrize("x, y", [
    ([1.0, 2.0, 3.0], [1.0, 2.0]),
    (np.ones((3, 2)), np.ones((3, 2))),
    (np.ones((4, 1)), np.ones((4, 1))),
    ([[1.0], [2.0], [3.0]], [1.0, 2.0, 3.0]),
    (5.0, 5.0),
])
def test_shapes_refused_as_with_numpy(x, y):
    assert _outcome(fit_exponent, x, y, 0.0) == \
        _outcome(_fit_exponent_numpy, x, y, 0.0) == \
        "FitError: x and y must be 1-d arrays of equal length"
