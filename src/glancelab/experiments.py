"""Scaling experiments: measure growth exponents of restricted norms.

Each sweep walks a geometric grid of angular orders (disk) or degrees
(sphere), selects one mode per order at a prescribed glancing scale
sigma ~ n^{-alpha}, restricts it to the interior circle/equator, applies a
weight or band, and records one row per order.  Fitting log(norm) against
log(frequency) or log(h) then recovers the growth exponent that the
restriction theory predicts:

- raw restricted norms grow like lam^{alpha/4};
- sharp-band projections weighted by sigma^s scale like h^{alpha(s - 1/4)};
- sqrt(xi_d)-weighted norms are bounded (exponent 0);
- h-scaled normal derivatives weighted by sigma^{-s} scale like
  h^{alpha(1/4 - s)};
- random quasimodes from unit-width frequency windows, weighted at the
  glancing scale with rho = 2/3, s = 0.3, stay uniformly bounded.

Rows whose window contains no admissible eigenvalue are skipped and logged,
not fabricated; skipping happens routinely for narrow windows and for
band-constrained sweeps at small order.

Modes and traces travel as columns, one entry per order, from the selector
to the rows: each measured quantity is one array pass over them, and the
rows are built once, at the end.  The selected disk modes and their traces
are memoized per process (see `_disk_traces`), so sweeps that change only
the measured quantity share one selection.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import modes as modes_mod
from . import specfun
from .modes import NoModeError, ScaleTarget
from .weights import (BandSpec, WeightSpec, band_indicator, glancing_weight,
                      trace_norm)


class FitError(Exception):
    """The sweep data does not support a power-law fit."""


@dataclass(frozen=True)
class FitResult:
    """Least-squares power-law fit log y = slope * log x + intercept."""
    slope: float
    intercept: float
    stderr: float
    r_squared: float
    n_points: int


def fit_exponent(x, y, drop_low: float = 0.25) -> FitResult:
    """Fit a growth exponent by ordinary least squares in log-log space.

    Parameters
    ----------
    x, y : array_like
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


# ----------------------------------------------------------------------
# Sweeps over scale-selected modes
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SweepConfig:
    """Common knobs of the order sweeps.

    kind : "disk" or "sphere".
    alpha : glancing-scale exponent, sigma ~ n^{-alpha}.
    n_lo, n_hi, points : geometric grid of angular orders / degrees.
    radius : restriction circle radius (disk only: the sphere's equator is
        fixed, and a sphere config must keep the default).
    optimize : candidate rule passed to the disk selector; the measured
        growth tracks the extremal mode, so sweeps default to maximizing
        the restricted quantity rather than taking the lowest eigenvalue.
        Disk only: a sphere degree has one candidate, and a sphere config
        must keep the default.
    offset : window offset M of the ScaleTarget.
    """
    kind: str
    alpha: float
    n_lo: int
    n_hi: int
    points: int
    radius: float = 0.5
    optimize: str = "restriction"
    offset: float = 4.0

    def __post_init__(self):
        if self.kind not in ("disk", "sphere"):
            raise ValueError(f"unknown sweep kind {self.kind!r}")
        if self.kind == "sphere" and (self.radius, self.optimize) != (
                SweepConfig.radius, SweepConfig.optimize):
            raise ValueError("a sphere sweep restricts to the equator and "
                             "has one mode per degree: radius and optimize "
                             "apply to the disk only")
        if not (1 <= self.n_lo <= self.n_hi and self.points >= 1):
            raise ValueError("need 1 <= n_lo <= n_hi and points >= 1")

    def orders(self) -> list[int]:
        grid = np.geomspace(self.n_lo, self.n_hi, self.points)
        out = sorted({int(round(g)) for g in grid})
        return out

    def target(self) -> ScaleTarget:
        return ScaleTarget(alpha=self.alpha, offset=self.offset)


@dataclass(frozen=True)
class SweepRow:
    """One order of a sweep; mirrors the CSV schema."""
    n: int
    lam: float
    h: float
    sigma: float
    xi_d: float
    amplitude: float        # raw trace amplitude |A|
    weighted_norm: float    # the quantity the experiment fits
    s: float
    alpha: float
    rho1: float             # 0 when no band/weight scale applies
    rho2: float


@dataclass
class SweepResult:
    config: SweepConfig
    quantity: str
    rows: list[SweepRow]
    skipped: list[tuple[int, str]]

    def column(self, name: str) -> np.ndarray:
        return np.array([getattr(r, name) for r in self.rows], dtype=float)

    def fit(self, x: str = "lam", drop_low: float = 0.25) -> FitResult:
        return fit_exponent(self.column(x), self.column("weighted_norm"),
                            drop_low=drop_low)


# the ten sweeps of criteria 1, 3, 5 and 6 on one grid need four entries
_TRACE_CACHE = 16


@functools.lru_cache(maxsize=_TRACE_CACHE)
def _disk_traces(config: SweepConfig, derivative: bool,
                 band: BandSpec | None) -> tuple:
    """The traces of the modes that `config` selects, as :func:`_traces`
    returns them: one selector call, then one array call on its columns
    for every amplitude.  The trace is c J_n'(lam r) when `derivative` is
    true, else c J_n(lam r), which the amplitude, band and sqrt(xi_d)
    quantities all read.

    Memoized per process on (config, derivative, band), the last
    _TRACE_CACHE = 16 keys kept, since sweeps that change only the measured
    quantity share one selection: the powers s of criteria 3 and 6, and
    criterion 5's sqrt(xi_d) reweighting of criterion 1's modes.  The
    columns are read-only and the skipped pairs a tuple.  Exceptions are not
    cached, so a bad radius raises on every call.  Module constants such as
    `modes._REFINED` are not in the key: code that patches one must call
    `_disk_traces.cache_clear()`.
    """
    if not (0.0 < config.radius < 1.0):
        raise ValueError("radius must lie strictly inside the disk")
    optimize = config.optimize
    if derivative and optimize == "restriction":
        optimize = "normal_derivative"
    picked = modes_mod.select_disk_modes(
        config.orders(), config.target(), radius=config.radius,
        optimize=optimize, band=band)
    found = np.array([error is None for error in picked.error], dtype=bool)
    n, lam = picked.n[found], picked.lam[found]
    amp = picked.normalization[found] * (
        specfun.bessel_j_prime if derivative else specfun.bessel_j)(
            n, lam * config.radius)
    return _traces(n, n, lam, amp, picked.n, picked.error)


def _sphere_traces(config: SweepConfig) -> tuple:
    """The equator traces of the harmonics that `config` selects, as
    :func:`_traces` returns them: one selector call, then one
    :func:`specfun.legendre_equator` call per degree."""
    degrees = np.array(config.orders(), dtype=np.int64)
    m, errors = modes_mod.select_sphere_modes(degrees, config.target())
    found = np.array([error is None for error in errors], dtype=bool)
    l, m = degrees[found], m[found]
    amp = np.array([specfun.legendre_equator(a, b)
                    for a, b in zip(l.tolist(), m.tolist())], dtype=float)
    return _traces(l, m, np.sqrt(l * (l + 1.0)), amp, degrees, errors)


def _traces(n, k, lam, amp, orders, errors) -> tuple:
    """(n, k, lam, amp, skipped): read-only columns of the selected modes,
    one entry per order that has one (its order n, the angular wavenumber k
    of its trace, its frequency and its trace amplitude), and the
    (order, reason) pairs of the other orders, in order."""
    for column in (n, k, lam, amp):
        column.flags.writeable = False
    skipped = tuple((order, str(error)) for order, error
                    in zip(orders.tolist(), errors) if error is not None)
    return n, k, lam, amp, skipped


def _sweep(config: SweepConfig, quantity: str, s: float = 0.0,
           band: BandSpec | None = None,
           weight: WeightSpec | None = None) -> SweepResult:
    """Shared sweep driver; `quantity` picks the measured norm.  Each column
    of the rows is one array pass over the selected modes; an order whose
    measured norm is 0 is skipped."""
    if config.kind == "disk":
        n, k, lam, amp, skipped = _disk_traces(
            config, quantity == "normal_derivative", band)
        radius = config.radius
    else:
        n, k, lam, amp, skipped = _sphere_traces(config)
        radius = 1.0
    h = 1.0 / lam
    # t * t, not t ** 2: ** goes through pow, which can miss the correctly
    # rounded product by an ulp and change the CSV bytes
    t = h * k / radius
    sigma = 1.0 - t * t
    xi_d = np.sqrt(np.maximum(sigma, 0.0))
    # trace_norm of each amplitude alone, in the same operation order
    norm = np.sqrt(2.0 * math.pi * radius * (amp * amp))
    if quantity == "amplitude":
        weighted = norm
    elif quantity == "band_power":
        inside = band_indicator(sigma, h, band)
        weighted = np.power(sigma, s, out=np.zeros_like(sigma),
                            where=inside) * norm
    elif quantity == "normal_flat":
        weighted = np.sqrt(xi_d) * norm
    elif quantity == "normal_derivative":
        weighted = glancing_weight(sigma, h, weight) * norm
    else:
        raise ValueError(f"unknown quantity {quantity!r}")

    keep = weighted != 0.0
    # the orders are distinct: sorting the pairs merges them in order of n
    skipped = sorted(skipped + tuple(
        (order, "selected mode fell outside the band")
        for order in n[~keep].tolist()))
    rho1 = band.rho1 if band is not None else (weight.rho if weight else 0.0)
    rho2 = band.rho2 if band is not None else 0.0
    columns = (n, lam, h, sigma, xi_d, np.abs(amp), weighted)
    rows = [SweepRow(*row, s, config.alpha, rho1, rho2)
            for row in zip(*(column[keep].tolist() for column in columns))]
    if not rows:
        raise FitError(f"sweep produced no usable rows "
                       f"({len(skipped)} skipped)")
    return SweepResult(config=config, quantity=quantity, rows=rows,
                       skipped=skipped)


def amplitude_sweep(config: SweepConfig) -> SweepResult:
    """Restricted L2 norms of scale-selected modes: grows like lam^{alpha/4}
    on both the disk and the sphere."""
    return _sweep(config, "amplitude")


def sharpness_sweep(config: SweepConfig, s: float, band: BandSpec) -> SweepResult:
    """Sharp band projection weighted by sigma^s.

    Inside the band the glancing weight's cutoff sits at 1 (the scale
    h^{rho2} is the band's own near edge), so the measured quantity is
    sigma^s ||u|_H|| over band-feasible modes; expected exponent in h is
    alpha (s - 1/4).  Orders whose whole window misses the band are skipped.
    """
    if not math.isfinite(s):
        raise ValueError("s must be finite")
    return _sweep(config, "band_power", s=s, band=band)


def normal_band_check(config: SweepConfig) -> SweepResult:
    """sqrt(xi_d)-weighted restricted norms: the conormal factor exactly
    cancels the glancing growth, so the expected exponent is 0."""
    return _sweep(config, "normal_flat")


def normal_derivative_sweep(config: SweepConfig, s: float,
                            rho: float = 2.0 / 3.0,
                            cutoff: str = "exp") -> SweepResult:
    """h-scaled normal-derivative traces weighted by the glancing weight
    with power -s: expected exponent in h is alpha (1/4 - s), flat at
    s = 1/4.  The weight's far branch sigma^{-s} is the active one for
    every selected mode (sigma sits well above h^rho when rho > alpha).
    Disk only: the sphere sweeps take equator values, not derivatives."""
    if config.kind != "disk":
        raise ValueError("the normal-derivative sweep needs a disk config")
    if not (rho > config.alpha):
        raise ValueError("need rho > alpha so modes sit in the far branch")
    weight = WeightSpec(s=-s, rho=rho, cutoff=cutoff)
    return _sweep(config, "normal_derivative", s=s, weight=weight)


# ----------------------------------------------------------------------
# Random quasimodes on unit frequency windows
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class QuasimodeRow:
    lam: float          # window left edge Lambda
    dim: int            # number of coefficient slots (multiplicity 2 for n >= 1)
    weyl_estimate: float
    max_norm: float     # max over trials of the weighted restricted norm
    mean_norm: float


@dataclass
class QuasimodeResult:
    rows: list[QuasimodeRow]
    spec: WeightSpec
    trials: int
    seed: int
    radius: float

    def fit(self, drop_low: float = 0.0) -> FitResult:
        return fit_exponent([r.lam for r in self.rows],
                            [r.max_norm for r in self.rows],
                            drop_low=drop_low)

    @property
    def spread(self) -> float:
        vals = [r.max_norm for r in self.rows]
        return max(vals) / min(vals)


def quasimode_boundedness(lam_lo: float = 200.0, lam_hi: float = 2000.0,
                          windows: int = 8, trials: int = 20,
                          seed: int = 2025, s: float = 0.3,
                          rho: float = 2.0 / 3.0, radius: float = 0.5,
                          cutoff: str = "exp") -> QuasimodeResult:
    """Weighted restricted norms of random quasimodes stay bounded.

    For each window [Lambda, Lambda+1] on a geometric grid, draw `trials`
    random unit-norm combinations of all eigenmodes with frequency in the
    window (complex Gaussian coefficients, one slot per angular sign),
    weight each trace component with the glancing weight
    (s, rho defaulting to 0.3, 2/3) at h = 1/Lambda, and record the maximal
    restricted norm.  The theory predicts a Lambda-independent bound.

    The counting dimension of every window is cross-checked against the
    two-term Weyl law (Lambda/2 - 1/4 per unit window); a deviation beyond
    Lambda^{2/3}, the order of the disk's Weyl remainder, fails loudly since
    it would mean modes were lost or doubled.

    A window that holds no mode (any below the lowest eigenvalue
    j_{0,1} = 2.405, and some of the first few above it) raises NoModeError.

    Randomness is deterministic: each (window, trial) pair seeds its own
    generator from (seed, window index, trial index).

    The modes of consecutive windows are enumerated together, in one pass
    of :func:`modes.modes_in_frequency_windows`, and their traces taken in
    one array call on its columns: as many windows as fit under
    _BATCH_ORDERS orders sum(floor(Lambda + 1) + 1), which bounds the memory
    of a batch (the default ensemble is one batch, and a window above the
    cap is a batch of its own).  The checks and the draws then run window
    by window, in window order.
    """
    if windows < 1 or trials < 1:
        raise ValueError("need at least one window and one trial")
    if not (0.0 < lam_lo <= lam_hi < math.inf):
        raise ValueError("need 0 < lam_lo <= lam_hi < inf")
    if not (0.0 < radius < 1.0):
        raise ValueError("radius must lie strictly inside the disk")
    spec = WeightSpec(s=s, rho=rho, cutoff=cutoff)
    lams = np.geomspace(lam_lo, lam_hi, windows)

    rows = []
    for group in _window_groups(lams):
        edges = lams[group]
        win, n_all, freqs, norms = modes_mod.modes_in_frequency_windows(
            edges, edges + 1.0)
        # the trace amplitude c J_n(lam r) and the glancing distance
        # 1 - (n / (lam r))^2 of every mode of the group, in one array pass
        amp_all = norms * specfun.bessel_j(n_all, freqs * radius)
        sigma_all = 1.0 - (n_all / (freqs * radius)) ** 2
        # the modes come ordered by window
        ends = np.cumsum(np.bincount(win, minlength=edges.size)).tolist()
        for wi, a, b in zip(range(windows)[group], [0] + ends, ends):
            lam = lams[wi]
            if a == b:
                # the norms and their spread are undefined without a mode
                raise NoModeError(
                    f"window [{lam:.2f}, {lam + 1:.2f}] holds no mode")
            ns = n_all[a:b]
            weighted = glancing_weight(sigma_all[a:b], 1.0 / lam,
                                       spec) * amp_all[a:b]
            amps = np.repeat(weighted, np.where(ns >= 1, 2, 1))
            dim = len(amps)
            weyl = lam / 2.0 - 0.25
            if abs(dim - weyl) > lam ** (2.0 / 3.0):
                raise specfun.NumericalError(
                    f"window [{lam:.2f}, {lam + 1:.2f}] found {dim} modes, "
                    f"two-term Weyl predicts {weyl:.1f}; enumeration is "
                    f"broken")
            best = 0.0
            total = 0.0
            for t in range(trials):
                rng = np.random.default_rng([seed, wi, t])
                c = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
                c /= np.linalg.norm(c)
                nr = trace_norm(c * amps, radius)
                best = max(best, nr)
                total += nr
            rows.append(QuasimodeRow(lam=float(lam), dim=dim,
                                     weyl_estimate=weyl, max_norm=best,
                                     mean_norm=total / trials))

    return QuasimodeResult(rows=rows, spec=spec, trials=trials, seed=seed,
                           radius=radius)


# the most orders, sum(floor(Lambda + 1) + 1), that one enumeration batches:
# the default ensemble (Lambda = 200 ... 2000, 8 windows, 6.6k orders) is
# one batch, a window at Lambda = 2e4 one of its own
_BATCH_ORDERS = 8000


def _window_groups(lams) -> list[slice]:
    """Consecutive runs of the windows [lams[i], lams[i] + 1], each under
    _BATCH_ORDERS orders or a single window."""
    groups, start, total = [], 0, 0
    for i, orders in enumerate((np.floor(lams + 1.0) + 1.0).tolist()):
        if i > start and total + orders > _BATCH_ORDERS:
            groups.append(slice(start, i))
            start, total = i, 0
        total += orders
    return groups + [slice(start, len(lams))]
