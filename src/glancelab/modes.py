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
at orders ~1e5.  ``select_sphere_modes`` picks the azimuthal order of every
degree in one array pass.

``modes_in_frequency_windows`` enumerates every mode of every window of a
quasimode ensemble in the same way: one pass over the candidates of all
windows together.  Its arrays grow with the windows it is given, so its
callers bound the batch (``experiments.quasimode_boundedness`` by a fixed
cap on the orders of the windows batched together).

Modes exist only as columns: the disk functions return n, lam and the
normalization c, one entry per mode, and a single mode is the one-element
case.  The traces are taken on those columns by the experiments: a disk
mode's trace on the circle of radius R is c J_n(lam R) e^{i n theta}, the
trace of its h-scaled normal derivative h d_r u is c J_n'(lam R) e^{i n
theta}, and the equator trace of Y_l^m is Y_l^m(pi/2, 0) e^{i m phi}
(``specfun.legendre_equator``), which vanishes when l + m is odd.
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

    def sphere_order_window(self, l):
        """Azimuthal-order window [l - (M+1) l^{1-alpha}, l - M l^{1-alpha}]
        of a degree l, or the two edge columns of an array of degrees."""
        w = l ** (1.0 - self.alpha)
        return l - (self.offset + 1.0) * w, l - self.offset * w


# ----------------------------------------------------------------------
# Normalization
# ----------------------------------------------------------------------

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


def select_disk_modes(orders, target: ScaleTarget, radius: float = 0.5,
                      optimize: str = "first", band=None) -> DiskSelection:
    """Pick, for every angular order of `orders`, a disk eigenmode whose
    frequency lies in the `target` window, in a fixed number of array
    passes over all of them.  The windows are calibrated to `radius` 1/2,
    where they pin sigma ~ n^{-alpha}.

    Returns one :class:`DiskSelection`: the picked mode of each order as
    columns, or the NoModeError that says why the order has none, with the
    counts and refined candidates behind each pick.  An order that is not
    an integer, or an unknown `optimize`, raises ValueError.

    Per order, the candidates m are the indices whose seed lies within 0.6
    zero spacings of the window (and, with a `band`, whose seed sigma at
    `radius` lies in it, with a hair of slack).  `optimize` ranks them:
    "first" by the seed, smallest first; "restriction" by the phase model
    of |J_n(lam radius)|; "normal_derivative" by that of |J_n'|.  The top
    `_REFINED` of each order are solved exactly, and the one of best exact
    quality (-lam for "first") whose zero lies in the window and, with h =
    1/lam, in the band wins, the first-ranked on a tie.  An order whose
    ranked few all leave the window or the band on refinement has all its
    other candidates refined.  Each stage is one array call over every
    order: the candidate ranges, the seeds, the ranking, the Newton (once
    more for such orders), the qualities, the pick and the normalization.
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


def select_sphere_modes(degrees, target: ScaleTarget):
    """The azimuthal order m of a spherical harmonic Y_l^m in the target
    window for every degree l of `degrees`, in one array pass.

    Picks the largest m <= l - offset*l^{1-alpha} inside the window with
    l + m even (odd parity has an identically zero equator trace).  The
    equator amplitude of the result grows like l^{alpha/4} with no phase
    factor, so no further optimization is needed on the sphere side.

    Returns (m, error): the int64 column of orders, read where error is
    None, and per degree None or the NoModeError of a degree without one.
    A degree that is not a nonnegative integer raises ValueError.
    """
    degrees = specfun._integers(degrees, "degree").ravel()
    if (degrees < 0).any():
        raise ValueError(f"degrees must be nonnegative, got {degrees.min()}")
    m_lo, m_hi = target.sphere_order_window(degrees)
    m = np.floor(m_hi).astype(np.int64)
    m -= (degrees + m) % 2
    errors = [None if ok else NoModeError(
        f"no even-parity order in window [{lo:.2f}, {hi:.2f}] for l={l}")
        for ok, lo, hi, l in zip((m >= np.maximum(m_lo, 0.0)).tolist(),
                                 m_lo.tolist(), m_hi.tolist(),
                                 degrees.tolist())]
    return m, tuple(errors)


# ----------------------------------------------------------------------
# Frequency-window enumeration (for quasimode ensembles)
# ----------------------------------------------------------------------

def modes_in_frequency_windows(lam_lo, lam_hi):
    """All disk modes with eigenfrequency in [lam_lo[i], lam_hi[i]], n >= 0,
    of every window of two sequences of edges, in one pass over all of them.

    Returns the modes of all windows as the columns (window, n, lam,
    normalization), ordered by (window, n, lam), where window is the index
    i of the mode's window; np.bincount(window) counts the modes per window.
    Each (n, m) pair is one mode; angular orders n >= 1 stand for the
    two-dimensional eigenspace spanned by e^{+-i n theta} (callers who need
    multiplicity count such modes twice).

    Every candidate (n, m) of every order n <= floor(lam_hi[i]) of every
    window comes from one :func:`specfun.bessel_zero_candidate_ranges` call,
    each order against its own window; all of them are solved in one batched
    Newton (:func:`specfun.bessel_zero`) and the modes inside normalized in
    one array pass.  Each zero is bit for bit the zero solved alone,
    whatever else the batch holds, so a window holds the same modes in any
    batch, a zero on an edge included.  Windows may overlap; a zero in
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
    lam = specfun.bessel_zero(n, m)
    inside = (lam_lo[win] <= lam) & (lam <= lam_hi[win])
    win, n, lam = win[inside], n[inside], lam[inside]
    norm = _normalizations(n, lam)
    degenerate = np.flatnonzero(norm == 0.0)
    if degenerate.size:
        i = degenerate[0]
        raise NoModeError(
            f"degenerate normalization at (n={n[i]}, lam={lam[i]})")
    return win, n, lam, norm
