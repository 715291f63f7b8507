"""Scaling experiments: measure growth exponents of restricted norms.

Each sweep walks a geometric grid of angular orders (disk) or degrees
(sphere), selects one mode per order at a prescribed glancing scale
sigma ~ n^{-alpha}, restricts it to the interior circle/equator, applies a
weight or band, and records one row per order.  Fitting log(norm) against
log(frequency) or log(h) (``fit_exponent``, defined in ``glancelab.fit`` and
re-exported here) then recovers the growth exponent that the restriction
theory predicts:

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
rows, named tuples, are built once, at the end.  Rows, quasimode weights
and the selector's band test all read sigma from ``glancing_distance``.
The selected disk modes and the columns derived from them (h, sigma, xi_d,
|amplitude|, the trace norm) are memoized per process (see `_disk_traces`),
so a sweep that changes only the measured quantity computes only that.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import modes as modes_mod
from . import specfun
from .fit import FitError, FitResult, fit_exponent
from .modes import NoModeError, ScaleTarget
from .weights import (BandSpec, WeightSpec, band_indicator, glancing_distance,
                      glancing_weight, trace_norm)


# ----------------------------------------------------------------------
# Sweeps over scale-selected modes
# ----------------------------------------------------------------------

# The largest order or degree a sweep takes: bessel_j is certified up to 1e6
# (the oracle battery reaches 1e5, frozen Miller values 1e6), and
# legendre_equator refuses degrees above 1e6
_MAX_ORDER = 10 ** 6

# The farthest a window may reach past its order, (offset + 1) n^{1 - alpha}
# at n_hi: frequencies stay under 1e12 + 2e6, where zero indices, about
# lam/pi, are exact integers and bessel_zero's 1e-13 relative Newton step
# (0.1 there) resolves the zero spacing pi
_MAX_REACH = 1e12


def _check_radius(radius: float) -> None:
    if not (0.0 < radius < 1.0):
        raise ValueError(f"radius = {radius} (--radius) must lie strictly "
                         f"inside the disk")


@dataclass(frozen=True)
class SweepConfig:
    """Common knobs of the order sweeps.

    kind : "disk" or "sphere".
    alpha : glancing-scale exponent, sigma ~ n^{-alpha}.
    n_lo, n_hi, points : geometric grid of angular orders / degrees, up
        to _MAX_ORDER = 1e6.
    radius : restriction circle radius, in (0, 1) (disk only: the sphere's
        equator is fixed, and a sphere config must keep the default).
    offset : window offset M of the ScaleTarget; its window at n_hi may
        reach at most _MAX_REACH = 1e12 past the order, and on the sphere
        M may be at most n_hi^alpha, past which every degree's order window
        lies below 0.
    """
    kind: str
    alpha: float
    n_lo: int
    n_hi: int
    points: int
    radius: float = 0.5
    offset: float = 4.0

    def __post_init__(self):
        if self.kind not in ("disk", "sphere"):
            raise ValueError(f"unknown sweep kind {self.kind!r}")
        if self.kind == "sphere" and self.radius != SweepConfig.radius:
            raise ValueError("a sphere sweep restricts to the equator: "
                             "radius applies to the disk only")
        _check_radius(self.radius)
        if not self.n_lo >= 1:
            raise ValueError(f"n_lo = {self.n_lo} (--n-min) must be at "
                             f"least 1")
        if not self.n_hi >= self.n_lo:
            raise ValueError(f"n_hi = {self.n_hi} (--n-max) must be at least "
                             f"n_lo = {self.n_lo} (--n-min)")
        if not self.points >= 1:
            raise ValueError(f"points = {self.points} (--points) must be at "
                             f"least 1")
        if self.points == 1 and self.n_lo != self.n_hi:
            raise ValueError(f"points = 1 (--points) sweeps n_lo alone: it "
                             f"needs n_hi = n_lo = {self.n_lo}")
        if self.n_hi > _MAX_ORDER:
            raise ValueError(f"n_hi = {self.n_hi} (--n-max) is past the "
                             f"certified orders, at most {_MAX_ORDER}")
        self.target()       # checks alpha and the offset
        # both windows reach (offset + 1) n^{1 - alpha} from n or 2n
        reach = (self.offset + 1.0) * self.n_hi ** (1.0 - self.alpha)
        if not reach <= _MAX_REACH:
            raise ValueError(f"offset = {self.offset} (--offset-const) puts "
                             f"the window of order {self.n_hi} {reach:.3g} "
                             f"past it, more than {_MAX_REACH:.0e}")
        # a degree l's orders l - (M + 1) l^{1-alpha} ... l - M l^{1-alpha}
        # all lie below 0 once M > l^alpha
        most = self.n_hi ** self.alpha
        if self.kind == "sphere" and not self.offset <= most:
            raise ValueError(f"offset = {self.offset} (--offset-const) puts "
                             f"the order window of every degree up to "
                             f"{self.n_hi} below 0: it may be at most "
                             f"n_hi^alpha = {most:.6g}")

    def orders(self) -> list[int]:
        grid = np.geomspace(self.n_lo, self.n_hi, self.points)
        return sorted({int(round(g)) for g in grid})

    def target(self) -> ScaleTarget:
        return ScaleTarget(alpha=self.alpha, offset=self.offset)


class SweepRow(NamedTuple):
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
    """The modes that `config` selects and their derived columns, as
    :func:`_traces` returns them, from one selector call: each order's mode
    is the one of largest trace, and its amplitude the selector's.  The
    trace is c J_n'(lam r) when `derivative` is true, else c J_n(lam r).
    The band refusal of :func:`sharpness_sweep` is made here: when the grid
    has candidates but none in the band, the order _MAX_ORDER is selected
    too, and the band is refused if that one misses it as well.

    Memoized per process on (config, derivative, band), the last
    _TRACE_CACHE = 16 keys kept, since sweeps that change only the measured
    quantity share one selection and its columns: the powers s of criteria
    3 and 6, and criterion 5's sqrt(xi_d) reweighting of criterion 1's
    modes.  The columns are read-only and the skipped pairs a tuple.
    Module constants such as `modes._REFINED` are not in the key: code that
    patches one must call `_disk_traces.cache_clear()`.
    """
    def select(orders):
        return modes_mod.select_disk_modes(
            orders, config.target(), radius=config.radius,
            derivative=derivative, band=band)

    picked = select(config.orders())
    # sigma need not shrink with the order off radius 1/2, so only the
    # largest certified order can say that no order reaches the band
    if (band is not None and picked.candidates.any()
            and not picked.band_feasible.any()
            and not select([_MAX_ORDER]).band_feasible.any()):
        raise ValueError(f"band (--rho1 {band.rho1}, --rho2 {band.rho2}) "
                         f"misses the windows of the grid and of order "
                         f"{_MAX_ORDER} on the circle of --radius "
                         f"{config.radius}")
    found = np.array([error is None for error in picked.error], dtype=bool)
    n = picked.n[found]
    return _traces(n, n, picked.lam[found], picked.amplitude[found],
                   picked.n, picked.error, config.radius)


def _sphere_traces(config: SweepConfig) -> tuple:
    """The equator traces (radius 1) of the harmonics `config` selects, as
    :func:`_traces` returns them: one selector call, then one
    :func:`specfun.legendre_equator` call per degree."""
    degrees = np.array(config.orders(), dtype=np.int64)
    m, errors = modes_mod.select_sphere_modes(degrees, config.target())
    found = np.array([error is None for error in errors], dtype=bool)
    l, m = degrees[found], m[found]
    amp = np.array([specfun.legendre_equator(a, b)
                    for a, b in zip(l.tolist(), m.tolist())], dtype=float)
    return _traces(l, m, np.sqrt(l * (l + 1.0)), amp, degrees, errors, 1.0)


def _traces(n, k, lam, amp, orders, errors, radius) -> tuple:
    """(n, lam, h, sigma, xi_d, |amp|, norm, skipped): read-only columns,
    one entry per order that has a mode (with h = 1/lam, sigma of the
    trace's wavenumber k on the circle of `radius`, xi_d = sqrt(max(sigma,
    0)) and the trace's norm there), and the (order, reason) pairs of the
    other orders, in order."""
    h = 1.0 / lam
    sigma = glancing_distance(k, h, radius)
    columns = (n, lam, h, sigma, np.sqrt(np.maximum(sigma, 0.0)),
               np.abs(amp), trace_norm(amp[:, None], radius))
    for column in columns:
        column.flags.writeable = False
    skipped = tuple((order, str(error)) for order, error
                    in zip(orders.tolist(), errors) if error is not None)
    return columns + (skipped,)


def _sweep(config: SweepConfig, quantity: str, s: float = 0.0,
           band: BandSpec | None = None,
           weight: WeightSpec | None = None) -> SweepResult:
    """Shared sweep driver; `quantity` picks the measured norm, one array
    pass over the selection's columns; an order whose measured norm is 0 is
    skipped, with the cause the quantity names.  A weighted norm that is
    not finite, where the weight overflowed, is a NumericalError naming
    --s."""
    traces = (_disk_traces(config, quantity == "normal_derivative", band)
              if config.kind == "disk" else _sphere_traces(config))
    n, lam, h, sigma, xi_d, amp, norm, skipped = traces
    vanishes = "the trace vanishes on the circle"
    with np.errstate(all="ignore"):     # inf and nan are refused below
        if quantity == "amplitude":
            weighted, why = norm, vanishes
        elif quantity == "band_power":
            inside = band_indicator(sigma, h, band)
            weighted = np.power(sigma, s, out=np.zeros_like(sigma),
                                where=inside) * norm
            why = "selected mode fell outside the band"
        elif quantity == "normal_flat":
            weighted = np.sqrt(xi_d) * norm
            why = "selected mode is evanescent at the circle (sigma <= 0)"
        else:   # normal_derivative: the weight is positive for every sigma
            weighted, why = glancing_weight(sigma, h, weight) * norm, vanishes
    bad = np.flatnonzero(~np.isfinite(weighted))
    if bad.size:
        raise specfun.NumericalError(
            f"the weighted norm of order {n[bad[0]]} is not a finite number "
            f"at weight power s = {s} (--s)")

    keep = weighted != 0.0
    # the orders are distinct: sorting the pairs merges them in order of n
    skipped = sorted(skipped + tuple((order, why)
                                     for order in n[~keep].tolist()))
    rho1 = band.rho1 if band is not None else (weight.rho if weight else 0.0)
    rho2 = band.rho2 if band is not None else 0.0
    columns = (n, lam, h, sigma, xi_d, amp, weighted)
    rows = [SweepRow(*row, s, config.alpha, rho1, rho2)
            for row in zip(*(column[keep].tolist() for column in columns))]
    if not rows:
        raise FitError(f"sweep produced no usable rows "
                       f"({len(skipped)} skipped)")
    return SweepResult(rows=rows, skipped=skipped)


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
    A band that misses every window of the grid and the window of the
    largest certified order, _MAX_ORDER, is refused: off radius 1/2 sigma
    tends to 1 - 1/(4 R^2) rather than to 0, so whether larger orders reach
    the band does not follow from alpha alone.
    """
    if not math.isfinite(s):
        raise ValueError(f"s = {s} (--s) must be finite")
    return _sweep(config, "band_power", s=s, band=band)


def normal_band_check(config: SweepConfig) -> SweepResult:
    """sqrt(xi_d)-weighted restricted norms: the conormal factor exactly
    cancels the glancing growth, so the expected exponent is 0."""
    return _sweep(config, "normal_flat")


def normal_derivative_sweep(config: SweepConfig, s: float,
                            rho: float = 2.0 / 3.0) -> SweepResult:
    """h-scaled normal-derivative traces weighted by the glancing weight
    with power -s: expected exponent in h is alpha (1/4 - s), flat at
    s = 1/4.  The weight's far branch sigma^{-s} is the active one for
    every selected mode (sigma sits well above h^rho when rho > alpha).
    Disk only: the sphere sweeps take equator values, not derivatives."""
    if config.kind != "disk":
        raise ValueError("the normal-derivative sweep needs a disk config")
    if not (rho > config.alpha):
        raise ValueError(f"need rho > alpha (--rho {rho}, --alpha "
                         f"{config.alpha}) so modes sit in the far branch")
    weight = WeightSpec(s=-s, rho=rho)
    return _sweep(config, "normal_derivative", s=s, weight=weight)


# ----------------------------------------------------------------------
# Random quasimodes on unit frequency windows
# ----------------------------------------------------------------------

class QuasimodeRow(NamedTuple):
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

    def fit(self, drop_low: float = 0.0) -> FitResult:
        return fit_exponent([r.lam for r in self.rows],
                            [r.max_norm for r in self.rows],
                            drop_low=drop_low)

    @property
    def spread(self) -> float:
        return (max(r.max_norm for r in self.rows)
                / min(r.max_norm for r in self.rows))


def quasimode_boundedness(lam_lo: float = 200.0, lam_hi: float = 2000.0,
                          windows: int = 8, trials: int = 20,
                          seed: int = 2025, s: float = 0.3,
                          rho: float = 2.0 / 3.0,
                          radius: float = 0.5) -> QuasimodeResult:
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
    j_{0,1} = 2.405, and some of the first few above it) raises NoModeError,
    and one whose weighted norms overflow, or all underflow to 0, raises
    NumericalError naming --s.

    Randomness is deterministic: each (window, trial) pair seeds its own
    generator from (seed, window index, trial index).

    The modes of all windows and their traces come from one call of
    :func:`modes.modes_in_frequency_windows`, and are weighted in one array
    pass on its columns, at h = 1/Lambda of each mode's window.  The checks
    and the draws then run window by window, in window order.
    """
    if windows < 1 or trials < 1:
        raise ValueError("need at least one window (--windows) and one "
                         "trial (--trials)")
    if not (isinstance(seed, numbers.Integral) and seed >= 0):
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    if not (0.0 < lam_lo <= lam_hi < math.inf):
        raise ValueError(f"lam_lo = {lam_lo}, lam_hi = {lam_hi} (--lam-min, "
                         f"--lam-max) need 0 < lam_lo <= lam_hi < inf")
    # the last window [lam_hi, lam_hi + 1] enumerates orders up to
    # floor(lam_hi + 1), and bessel_j is certified up to _MAX_ORDER
    if math.floor(lam_hi + 1.0) > _MAX_ORDER:
        raise ValueError(f"lam_hi = {lam_hi} (--lam-max) takes orders up to "
                         f"{math.floor(lam_hi + 1.0)}, past the certified "
                         f"orders, at most {_MAX_ORDER}")
    _check_radius(radius)
    spec = WeightSpec(s=s, rho=rho)
    lams = np.geomspace(lam_lo, lam_hi, windows)

    win, n_all, freqs, _, traces = modes_mod.modes_in_frequency_windows(
        lams, lams + 1.0, radius=radius)
    # the weighted trace amplitude of every mode, one coefficient slot per
    # angular sign
    sigma = glancing_distance(n_all, 1.0 / freqs, radius)
    with np.errstate(all="ignore"):     # inf and nan are refused below
        weighted = glancing_weight(sigma, 1.0 / lams[win], spec) * traces
    slots = np.where(n_all >= 1, 2, 1)
    amps = np.repeat(weighted, slots)
    # the modes come ordered by window, and so do their slots
    ends = np.cumsum(np.bincount(np.repeat(win, slots),
                                 minlength=windows)).tolist()
    rows = []
    for wi, lam, a, b in zip(range(windows), lams, [0] + ends, ends):
        dim = b - a
        if not dim:
            # the norms and their spread are undefined without a mode
            raise NoModeError(
                f"window [{lam:.2f}, {lam + 1:.2f}] holds no mode")
        weyl = lam / 2.0 - 0.25
        if abs(dim - weyl) > lam ** (2.0 / 3.0):
            raise specfun.NumericalError(
                f"window [{lam:.2f}, {lam + 1:.2f}] found {dim} modes, "
                f"two-term Weyl predicts {weyl:.1f}; enumeration is broken")
        best = total = 0.0
        with np.errstate(all="ignore"):     # inf and nan are refused below
            for t in range(trials):
                rng = np.random.default_rng([seed, wi, t])
                c = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
                c /= np.linalg.norm(c)
                nr = trace_norm(c * amps[a:b], radius)
                best = max(best, nr)
                total += nr
        # a nan norm leaves best alone, but not the total
        if not (best > 0.0 and math.isfinite(total)):
            raise specfun.NumericalError(
                f"the weighted norms of window [{lam:.2f}, {lam + 1:.2f}] "
                f"{'vanish' if total == 0.0 else 'are not all finite'} at "
                f"weight power s = {s} (--s)")
        rows.append(QuasimodeRow(lam=float(lam), dim=dim, weyl_estimate=weyl,
                                 max_norm=best, mean_norm=total / trials))

    return QuasimodeResult(rows=rows, spec=spec, trials=trials, seed=seed)

