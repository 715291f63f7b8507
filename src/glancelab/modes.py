"""Eigenmodes of the disk and sphere, and their traces on interior circles.

Disk modes are u(r, theta) = c J_n(lam r) e^{i n theta} with J_n(lam) = 0
(Dirichlet on the unit disk) and c chosen so the L2(disk) norm is 1.  Sphere
modes are spherical harmonics Y_l^m restricted to the equator of the round
unit sphere.  In both cases the restriction hypersurface is a circle, the
trace is a single angular harmonic, and the interesting quantity is the
glancing distance

    sigma = 1 - (h k / R)^2,      h = 1/lam,

of the mode's tangential wavenumber k at the hypersurface of radius R.

``select_disk_modes`` picks, for every angular order n of a sweep, an
eigenfrequency inside the window

    lam in [2n + M n^{1-alpha}, 2n + (M+1) n^{1-alpha}]      (R = 1/2)

which pins sigma ~ n^{-alpha} at the restriction circle.  Within the window
the restricted amplitude of individual modes oscillates through an
equidistributed phase, so "which zero" matters enormously: the `optimize`
argument chooses the zero whose trace (or h-scaled normal derivative) is
near the envelope maximum, realizing the extremal modes whose growth rates
the scaling experiments measure.  `optimize="first"` takes the smallest
eigenvalue instead; its measured amplitude inherits the arcsine-distributed
phase factor and fits of sweeps built from it have essentially no power-law
signal (r^2 < 0.2 across the acceptance grids).  Candidate ranking uses the
analytic phase/envelope model on the seeds of every candidate of every
order, in one array pass; only the top few candidates of each order are
solved exactly, all orders in one batched Newton, keeping selection cheap
at orders ~1e5.  ``select_disk_mode_at_scale`` is its one-order case.

``modes_in_frequency_windows`` enumerates every mode of every window of a
quasimode ensemble in the same way: one pass over the candidates of all
windows together, of which ``modes_in_frequency_window`` is the one-window
case.  Its arrays grow with the windows it is given, so its callers bound
the batch (``experiments.quasimode_boundedness`` by a fixed cap on the
orders of the windows batched together).

Both batched functions return their modes as columns of n, lam and
normalization; ``DiskMode`` is the one-mode view of the other functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import specfun


class NoModeError(Exception):
    """No eigenmode satisfies the requested window/band constraints."""


@dataclass(frozen=True)
class ScaleTarget:
    """Glancing-distance target sigma ~ offset * n^{-alpha}.

    alpha : float in (0, 1), the decay exponent of the glancing distance.
    offset : float, the window sits offset..offset+1 units of n^{1-alpha}
        above twice the angular order (default 4, keeping the window
        safely inside the oscillatory regime).
    """
    alpha: float
    offset: float = 4.0

    def __post_init__(self):
        if not (0.0 < self.alpha < 1.0):
            raise ValueError("alpha must lie in (0, 1)")
        if not (0.0 < self.offset < math.inf):
            raise ValueError("offset must be positive and finite")

    def disk_window(self, n: int) -> tuple[float, float]:
        """Frequency window for angular order n at R = 1/2."""
        w = n ** (1.0 - self.alpha)
        return 2.0 * n + self.offset * w, 2.0 * n + (self.offset + 1.0) * w

    def sphere_order_window(self, l: int) -> tuple[float, float]:
        """Azimuthal-order window [l - (M+1) l^{1-alpha}, l - M l^{1-alpha}]."""
        w = l ** (1.0 - self.alpha)
        return l - (self.offset + 1.0) * w, l - self.offset * w


@dataclass(frozen=True)
class DiskMode:
    """Dirichlet eigenmode c J_n(lam r) e^{i n theta} of the unit disk."""
    n: int
    lam: float
    normalization: float

    @property
    def h(self) -> float:
        return 1.0 / self.lam

    def sigma(self, radius: float) -> float:
        """Glancing distance of the trace component at the given circle."""
        return 1.0 - (self.n / (self.lam * radius)) ** 2


@dataclass(frozen=True)
class SphereMode:
    """Spherical harmonic Y_l^m on the round unit sphere."""
    l: int
    m: int

    @property
    def lam(self) -> float:
        return math.sqrt(self.l * (self.l + 1.0))

    @property
    def h(self) -> float:
        return 1.0 / self.lam

    def sigma(self) -> float:
        """Glancing distance of the equator trace component."""
        return 1.0 - (self.m / self.lam) ** 2


# ----------------------------------------------------------------------
# Construction
# ----------------------------------------------------------------------

def disk_mode(n: int, m: int) -> DiskMode:
    """The disk eigenmode with angular order n and m-th radial eigenvalue,
    normalized by :func:`_normalizations`."""
    lam = specfun.bessel_zero(n, m)
    norm = float(_normalizations(np.array([n]), np.array([lam]))[0])
    if not norm:
        raise NoModeError(f"degenerate normalization at (n={n}, lam={lam})")
    return DiskMode(n=n, lam=lam, normalization=norm)


def _normalizations(n: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """The L2(disk) normalizations c = 1/(sqrt(pi) |J_{n+1}(lam)|) of the
    modes at the zeros lam of J_n (arrays alike), from
    int_0^1 J_n(lam r)^2 r dr = J_{n+1}(lam)^2 / 2 at a zero of J_n; 0.0
    where J_{n+1}(lam) vanishes, which leaves no mode."""
    jm1, jn = specfun.bessel_j_pair(n, lam)
    # at a zero of J_n, J_{n+1} = (2n/lam) J_n - J_{n-1} = -J_{n-1}
    jnp1 = np.abs((2.0 * n / lam) * jn - jm1)      # for n = 0, jm1 = -J_1
    return np.divide(1.0, math.sqrt(math.pi) * jnp1, out=np.zeros_like(jnp1),
                     where=jnp1 != 0.0)


def restrict_disk(mode: DiskMode, radius: float) -> float:
    """Amplitude of the mode's trace on the circle of the given radius: the
    trace is that amplitude times e^{i n theta}."""
    if not (0.0 < radius < 1.0):
        raise ValueError("radius must lie strictly inside the disk")
    return mode.normalization * specfun.bessel_j(mode.n, mode.lam * radius)


def restrict_disk_normal_derivative(mode: DiskMode, radius: float) -> float:
    """Amplitude of the trace of the h-scaled normal derivative h d_r u.

    h d_r (c J_n(lam r)) = c J_n'(lam r) since h = 1/lam, so the amplitude
    is the normalization times J_n' at the restriction point.
    """
    if not (0.0 < radius < 1.0):
        raise ValueError("radius must lie strictly inside the disk")
    return mode.normalization * specfun.bessel_j_prime(mode.n,
                                                       mode.lam * radius)


def restrict_sphere(mode: SphereMode) -> float:
    """Amplitude of the trace of Y_l^m on the equator, Y_l^m(pi/2, 0): the
    trace is that amplitude times e^{i m phi}.  It vanishes identically when
    l + m is odd."""
    return specfun.legendre_equator(mode.l, mode.m)


# ----------------------------------------------------------------------
# Scale-targeted selection
# ----------------------------------------------------------------------

_OPTIMIZE = ("first", "restriction", "normal_derivative")

# how many model-ranked candidates selection evaluates exactly
_REFINED = 3


def _phase_model(n, lam: np.ndarray, radius: float) -> np.ndarray:
    """Asymptotic phase of J_n(lam * radius) above the turning point, for an
    array of lam and an order or an array of orders like it:
    Phi = n g(w) - pi/4, w = lam radius / n;
    |J_n| ~ envelope * |cos Phi|.
    """
    return n * specfun.phase_integral(lam * radius / n) - 0.25 * math.pi


class DiskSelection(NamedTuple):
    """What :func:`select_disk_modes` picked, one entry per order: read lam
    and normalization where error is None.  The refined_* columns hold the
    admissible candidates solved exactly, each order's in ranked order."""
    n: np.ndarray                   # the orders, int64
    lam: np.ndarray
    normalization: np.ndarray
    error: tuple                    # None, or why the order has no mode
    candidates: np.ndarray          # seeds in the window
    band_feasible: np.ndarray       # of those, seeds in the band
    refined_k: np.ndarray           # position in n of the candidate's order
    refined_m: np.ndarray           # its radial index
    refined_quality: np.ndarray     # |trace| (-lam for "first"), exact


def select_disk_mode_at_scale(n: int, target: ScaleTarget, radius: float = 0.5,
                              optimize: str = "first", band=None) -> DiskMode:
    """Pick a disk eigenmode whose frequency lies in the target window.

    The one-order case of :func:`select_disk_modes`, which describes the
    candidates, the screens, the ranking and the refinement.

    Parameters
    ----------
    n : int
        Angular order (n >= 1).
    target : ScaleTarget
        Window parameters; at radius 1/2 they pin sigma ~ n^{-alpha}.
    radius : float
        Restriction circle radius; the window formula is calibrated to 1/2.
    optimize : str
        "first": smallest eigenvalue in the window.
        "restriction": the candidate maximizing the restricted amplitude
        |J_n(lam radius)|, located by the phase model and then verified
        exactly on the best few (`_REFINED`) model-ranked candidates.
        "normal_derivative": same, for the h-scaled normal derivative.
    band : BandSpec or None
        If given, only zeros whose sigma at `radius` lies in the sharp band
        (with h = 1/lam) are admissible.

    Raises
    ------
    ValueError
        If n is not an integer, or `optimize` is unknown.
    NoModeError
        If the window contains no zero, or none passes the band filter.
    """
    picked = select_disk_modes([n], target, radius=radius,
                               optimize=optimize, band=band)
    if picked.error[0] is not None:
        raise picked.error[0]
    return DiskMode(n=int(picked.n[0]), lam=float(picked.lam[0]),
                    normalization=float(picked.normalization[0]))


def select_disk_modes(orders, target: ScaleTarget, radius: float = 0.5,
                      optimize: str = "first", band=None) -> DiskSelection:
    """:func:`select_disk_mode_at_scale` for every angular order of
    `orders`, in a fixed number of array passes over all of them.

    Returns one :class:`DiskSelection`: the picked mode of each order as
    columns, or the NoModeError that says why the order has none, with the
    counts and refined candidates behind each pick.

    Per order, the candidates m are the indices whose seed lies within 0.6
    zero spacings of the window (and, with a band, whose seed sigma lies in
    it, with a hair of slack).  They are ranked by the phase model, or by
    the seed for "first"; the top `_REFINED` of each order are solved
    exactly, and the admissible one of best exact quality wins, the
    first-ranked on a tie.  An order whose ranked few all leave the window
    or the band on refinement has all its other candidates refined.  Each
    stage is one array call over every order: the candidate ranges, the
    seeds, the ranking, the Newton (once more for such orders), the
    qualities, the pick and the normalization.
    """
    if optimize not in _OPTIMIZE:
        raise ValueError(f"optimize must be one of {_OPTIMIZE}")
    orders = specfun._integers(orders, "order").ravel()
    # an order below 1 keeps no candidate (its windows are those of n = 1)
    ns = np.maximum(orders, 1)
    lam_lo, lam_hi = np.array([target.disk_window(n) for n in ns.tolist()],
                              dtype=float).reshape(-1, 2).T

    spacing = math.pi * lam_lo / np.sqrt(np.maximum(lam_lo * lam_lo - ns * ns,
                                                    1.0))
    # seed-level window check with half-spacing slack; exact membership is
    # re-verified after refinement
    seed_lo, seed_hi = lam_lo - 0.6 * spacing, lam_hi + 0.6 * spacing
    k, m = specfun.bessel_zero_candidate_ranges(ns, seed_lo, seed_hi)
    lam_seed = specfun.bessel_zero_seed(ns[k], m)
    keep = ((seed_lo[k] <= lam_seed) & (lam_seed <= seed_hi[k])
            & (orders[k] >= 1))
    candidates = np.bincount(k[keep], minlength=ns.size)
    if band is not None:
        # seed-level screen with a hair of slack; refinement re-checks
        h = 1.0 / lam_seed
        sigma = 1.0 - (ns[k] / (lam_seed * radius)) ** 2
        keep &= ((h ** band.rho2 * (1.0 - 1e-6) <= sigma)
                 & (sigma <= h ** band.rho1 * (1.0 + 1e-6)))
    k, m, lam_seed = k[keep], m[keep], lam_seed[keep]
    feasible = np.bincount(k, minlength=ns.size)

    if optimize == "first":
        score = -lam_seed   # larger score = smaller eigenvalue
    else:
        # at or below the turning point the phase model does not apply:
        # rank below every oscillatory seed, refinement still decides
        score = np.full(m.size, -1.0)
        osc = lam_seed * radius > ns[k]
        phi = _phase_model(ns[k][osc], lam_seed[osc], radius)
        score[osc] = np.abs(np.cos(phi) if optimize == "restriction"
                            else np.sin(phi))
    ranked = np.lexsort((-score, k))
    k, m = k[ranked], m[ranked]
    rank = np.arange(m.size) - (np.cumsum(feasible) - feasible)[k]

    def refine(sel):
        """(positions, lam, quality) of the admissible zeros among the
        candidates at positions sel."""
        sel = np.flatnonzero(sel)
        lam = specfun.bessel_zero(ns[k[sel]], m[sel])
        ok = (lam_lo[k[sel]] <= lam) & (lam <= lam_hi[k[sel]])
        if band is not None:
            h = 1.0 / lam
            sigma = 1.0 - (ns[k[sel]] / (lam * radius)) ** 2
            ok &= (h ** band.rho2 <= sigma) & (sigma <= h ** band.rho1)
        sel, lam = sel[ok], lam[ok]
        if optimize == "first":
            return sel, lam, -lam
        trace = (specfun.bessel_j if optimize == "restriction"
                 else specfun.bessel_j_prime)
        return sel, lam, np.abs(trace(ns[k[sel]], lam * radius))

    sel, lam, quality = refine(rank < _REFINED)
    # past the ranked few only when they all drifted outside on exact
    # refinement (narrow window, seeds near the edges)
    again = ~np.isin(k, k[sel]) & (rank >= _REFINED)
    if again.any():
        # appended after the first round: each order's candidates still
        # come in ranked order, since these orders had none admitted there
        sel, lam, quality = (np.concatenate(pair) for pair in
                             zip((sel, lam, quality), refine(again)))

    # per order the best exact quality; the sort is stable, so on a tie the
    # first-ranked candidate comes first
    best = np.lexsort((-quality, k[sel]))
    picked, first = np.unique(k[sel][best], return_index=True)
    best = best[first]
    norm = _normalizations(ns[picked], lam[best])

    out_lam, out_norm = (np.full(ns.size, math.nan) for _ in range(2))
    out_lam[picked], out_norm[picked] = lam[best], norm
    errors = [None] * ns.size
    for j in np.flatnonzero(~(out_norm > 0.0)).tolist():
        n, lo, hi = int(orders[j]), float(lam_lo[j]), float(lam_hi[j])
        if n < 1:
            error = "selection needs angular order n >= 1"
        elif not feasible[j]:
            error = (f"no {'band-feasible ' if band is not None else ''}"
                     f"eigenvalue in window [{lo:.3f}, {hi:.3f}] for n={n}")
        elif j not in picked:
            error = (f"all candidates left the window/band after refinement "
                     f"for n={n} (window [{lo:.3f}, {hi:.3f}])")
        else:
            error = f"degenerate normalization at (n={n}, lam={out_lam[j]})"
        errors[j] = NoModeError(error)
    return DiskSelection(
        n=orders, lam=out_lam, normalization=out_norm, error=tuple(errors),
        candidates=candidates, band_feasible=feasible, refined_k=k[sel],
        refined_m=m[sel], refined_quality=quality)


def sphere_mode_at_scale(l: int, target: ScaleTarget) -> SphereMode:
    """The spherical harmonic with azimuthal order in the target window.

    Picks the largest m <= l - offset*l^{1-alpha} inside the window with
    l + m even (odd parity has an identically zero equator trace).  The
    equator amplitude of the result grows like l^{alpha/4} with no phase
    factor, so no further optimization is needed on the sphere side.
    """
    specfun._integers(l, "degree")
    m_lo, m_hi = target.sphere_order_window(l)
    m = math.floor(m_hi)
    if (l + m) % 2 == 1:
        m -= 1
    if m < max(m_lo, 0.0):
        raise NoModeError(
            f"no even-parity order in window [{m_lo:.2f}, {m_hi:.2f}] for l={l}")
    return SphereMode(l=l, m=m)


# ----------------------------------------------------------------------
# Frequency-window enumeration (for quasimode ensembles)
# ----------------------------------------------------------------------

# relative distance from a window edge below which membership is decided by
# the zero solved alone, as disk_mode solves it: a zero solved in a batch
# can lie an ulp or two from that one
_EDGE = 1e-12


def modes_in_frequency_window(lam_lo: float, lam_hi: float) -> list[DiskMode]:
    """All disk modes with eigenfrequency in [lam_lo, lam_hi], n >= 0.

    Returns one DiskMode per (n, m) pair; angular orders n >= 1 stand for
    the two-dimensional eigenspace spanned by e^{+-i n theta} (callers who
    need multiplicity count such modes twice).  Modes are ordered by (n, lam).

    The one-window case of :func:`modes_in_frequency_windows`, which solves
    every candidate in one pass and returns the modes as columns.
    """
    _, n, lam, norm = modes_in_frequency_windows([lam_lo], [lam_hi])
    return [DiskMode(n=a, lam=b, normalization=c)
            for a, b, c in zip(n.tolist(), lam.tolist(), norm.tolist())]


def modes_in_frequency_windows(lam_lo, lam_hi):
    """:func:`modes_in_frequency_window` of every window [lam_lo[i],
    lam_hi[i]] of two sequences of edges, in one pass over all of them.

    Returns the modes of all windows as the columns (window, n, lam,
    normalization), ordered by (window, n, lam), where window is the index
    i of the mode's window; np.bincount(window) counts the modes per window.

    Every candidate (n, m) of every order n <= floor(lam_hi[i]) of every
    window comes from one :func:`specfun.bessel_zero_candidate_ranges` call,
    each order against its own window; all of them are solved in one batched
    Newton (:func:`specfun.bessel_zero`) and the modes inside normalized in
    one array pass.  A zero within 1e-12 relative of an edge of its window,
    where its value in the batch and its value solved alone (a few ulp
    apart) could disagree on membership, is solved again alone, by the
    one-element case of the same Newton, and kept or dropped on that value:
    it is the eigenvalue :func:`disk_mode` returns, so each window holds
    exactly the modes of :func:`disk_mode`.  Windows may overlap; a zero in
    several is a mode of each.

    The arrays grow with the candidates of all windows together (one order
    n of a window holds about (lam_hi - lam_lo)/pi of them), so callers
    batch as many windows as their memory allows.
    """
    lam_lo, lam_hi = (np.asarray(v, dtype=float).ravel()
                      for v in np.broadcast_arrays(lam_lo, lam_hi))
    bad = ~((0.0 < lam_lo) & (lam_lo < lam_hi) & (lam_hi < math.inf))
    if bad.any():
        i = np.flatnonzero(bad)[0]
        raise ValueError(f"need 0 < lam_lo < lam_hi < inf, got window "
                         f"[{lam_lo[i]}, {lam_hi[i]}]")
    # m(lam_hi) vanishes for n >= lam_hi, so the orders of a window end at
    # floor(lam_hi); `win` is the window of each order
    count = np.floor(lam_hi).astype(np.int64) + 1
    win = np.repeat(np.arange(lam_lo.size), count)
    orders = np.arange(win.size) - np.repeat(np.cumsum(count) - count, count)
    k, m = specfun.bessel_zero_candidate_ranges(orders, lam_lo[win],
                                                lam_hi[win])
    n, win = orders[k], win[k]
    lo, hi = lam_lo[win], lam_hi[win]
    lam = specfun.bessel_zero(n, m)
    edge = np.minimum(np.abs(lam - lo), np.abs(lam - hi))
    for i in np.flatnonzero(edge <= _EDGE * lam):
        lam[i] = specfun.bessel_zero(int(n[i]), int(m[i]))
    inside = (lo <= lam) & (lam <= hi)
    win, n, lam = win[inside], n[inside], lam[inside]
    norm = _normalizations(n, lam)
    degenerate = np.flatnonzero(norm == 0.0)
    if degenerate.size:
        i = degenerate[0]
        raise NoModeError(
            f"degenerate normalization at (n={n[i]}, lam={lam[i]})")
    return win, n, lam, norm
