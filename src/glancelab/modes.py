"""Eigenmodes of the disk and sphere, and their traces on interior circles.

Disk modes are u(r, theta) = c J_n(lam r) e^{i n theta} with J_n(lam) = 0
(Dirichlet on the unit disk) and c chosen so the L2(disk) norm is 1.  Sphere
modes are spherical harmonics Y_l^m restricted to the equator of the round
unit sphere.  In both cases the restriction hypersurface is a circle, the
trace is a single angular harmonic, and the interesting quantity is the
glancing distance

    sigma = 1 - (h k / R)^2,      h = 1/lam,

of the mode's tangential wavenumber k at the hypersurface of radius R,
computed everywhere by ``weights.glancing_distance``.

``select_disk_modes`` picks, for every angular order n of a sweep, an
eigenfrequency inside the window

    lam in [2n + M n^{1-alpha}, 2n + (M+1) n^{1-alpha}]      (R = 1/2)

which pins sigma ~ n^{-alpha} at the restriction circle.  Within the window
the restricted amplitude of individual modes oscillates through an
equidistributed phase, so "which zero" matters enormously: the selector
takes the zero whose measured trace (J_n, or J_n' for the h-scaled normal
derivative) is near the envelope maximum, realizing the extremal modes
whose growth rates the scaling experiments measure.  The smallest
eigenvalue of the window would inherit the arcsine-distributed phase
factor instead, and fits of sweeps built from it have essentially no
power-law signal (r^2 < 0.2 across the acceptance grids).  Candidates
are ranked in one array pass over every order by the phase factor of
their trace, read from the continuous zero index m of
``specfun.bessel_zero_index`` at their seeds (|J_n| ~ |sin pi m|, |J_n'| ~
|cos pi m|); only the top few of each order are solved exactly, all orders
in one batched Newton, keeping selection cheap at orders ~1e5.
``select_sphere_modes`` picks the azimuthal order of every degree in one
array pass.

``modes_in_frequency_windows`` enumerates every mode of every window of a
quasimode ensemble in the same way, and takes its trace: one pass over the
candidates of each fixed slice of the windows' (window, order) pairs, so
its memory is bounded by the slice, not by the windows, and no output
depends on the slice size.

Modes exist only as columns: the disk functions return n, lam, the
normalization c and the trace amplitude, one entry per mode, and a single
mode is the one-element case.  A disk mode's trace on the circle of radius
R is c J_n(lam R) e^{i n theta}, the trace of its h-scaled normal
derivative h d_r u is c J_n'(lam R) e^{i n theta}, and the equator trace
of Y_l^m, taken by the experiments, is Y_l^m(pi/2, 0) e^{i m phi}
(``specfun.legendre_equator``), which vanishes when l + m is odd.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import NumericalFailure, specfun
from .weights import band_indicator, glancing_distance


class NoModeError(NumericalFailure):
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
            raise ValueError(f"alpha = {self.alpha} (--alpha) must lie in "
                             f"(0, 1)")
        if not (0.0 < self.offset < math.inf):
            raise ValueError(f"offset = {self.offset} (--offset-const) must "
                             f"be positive and finite")

    def disk_window(self, n):
        """Frequency window of an angular order n at R = 1/2, or the two
        edge columns of an array of orders."""
        w = np.power(n, 1.0 - self.alpha)
        return 2.0 * n + self.offset * w, 2.0 * n + (self.offset + 1.0) * w

    def sphere_order_window(self, l):
        """Azimuthal-order window [l - (M+1) l^{1-alpha}, l - M l^{1-alpha}]
        of a degree l, or the two edge columns of an array of degrees."""
        w = l ** (1.0 - self.alpha)
        return l - (self.offset + 1.0) * w, l - self.offset * w


# ----------------------------------------------------------------------
# Normalizations and traces
# ----------------------------------------------------------------------

def _norms_and_traces(n: np.ndarray, lam: np.ndarray, radius: float,
                      derivative: bool = False):
    """(normalization, trace) of the modes at the zeros lam of J_n (arrays
    alike), from one :func:`specfun.bessel_j` call on the stacked columns
    of orders and arguments.

    The L2(disk) normalization is c = 1/(sqrt(pi) |J_{n+1}(lam)|), from
    int_0^1 J_n(lam r)^2 r dr = J_{n+1}(lam)^2 / 2 at a zero of J_n; 0.0
    where J_{n+1}(lam) vanishes, which leaves no mode.  The trace is J_n(lam
    radius), or with `derivative` J_n'(lam radius) by
    ``specfun._derivatives`` from J_{n-1} and J_n there; each value has
    the bits of ``bessel_j_pair``, ``bessel_j`` and ``bessel_j_prime``.
    """
    x = lam * radius
    below, n, sign = specfun._pair_orders(n)
    orders, args = (((below, n, below, n), (lam, lam, x, x)) if derivative
                    else ((below, n, n), (lam, lam, x)))
    j = np.split(specfun.bessel_j(np.concatenate(orders),
                                  np.concatenate(args)), len(orders))
    jm1, jn = sign * j[0], j[1]
    # at a zero of J_n, J_{n+1} = (2n/lam) J_n - J_{n-1} = -J_{n-1}
    jnp1 = np.abs((2.0 * n / lam) * jn - jm1)
    norm = np.divide(1.0, math.sqrt(math.pi) * jnp1, out=np.zeros_like(jnp1),
                     where=jnp1 != 0.0)
    if not derivative:
        return norm, j[2]
    return norm, specfun._derivatives(n, x, sign * j[2], j[3])


# ----------------------------------------------------------------------
# Scale-targeted selection
# ----------------------------------------------------------------------

# how many model-ranked candidates selection evaluates exactly
_REFINED = 3


class DiskSelection(NamedTuple):
    """What :func:`select_disk_modes` picked, one entry per order: read lam,
    normalization and amplitude where error is None.  The refined_* columns
    hold the admissible candidates solved exactly, each order's in ranked
    order."""
    n: np.ndarray                   # the orders, int64
    lam: np.ndarray
    normalization: np.ndarray
    amplitude: np.ndarray           # the picked trace c J_n (or c J_n')
    error: tuple                    # None, or why the order has no mode
    candidates: np.ndarray          # seeds in the window
    band_feasible: np.ndarray       # of those, seeds in the band
    refined_k: np.ndarray           # position in n of the candidate's order
    refined_m: np.ndarray           # its radial index
    refined_quality: np.ndarray     # |trace|, exact


def select_disk_modes(orders, target: ScaleTarget, radius: float = 0.5,
                      derivative: bool = False, band=None) -> DiskSelection:
    """Pick, for every angular order of `orders`, the disk eigenmode of
    largest trace on the circle of `radius` among those whose frequency lies
    in the `target` window, in a fixed number of array passes over all of
    them.  The trace is c J_n(lam radius), or with `derivative` the h-scaled
    normal derivative c J_n'(lam radius), the quantity the sweep measures: a
    pick blind to it inherits an arcsine-distributed phase factor.  The
    windows are calibrated to `radius` 1/2, where they pin sigma ~ n^{-alpha}.

    Returns one :class:`DiskSelection`: the picked mode of each order as
    columns, with its trace amplitude, or the NoModeError that says why the
    order has none, with the counts and refined candidates behind each pick.
    An order that is not an integer raises ValueError.

    Per order, the candidates m are the indices whose seed lies within 0.6
    zero spacings of the window (and, with a `band`, whose seed sigma at
    `radius` lies in it, with a hair of slack).  They are ranked by |sin pi
    m|, or |cos pi m| with `derivative`, the phase factors of |J_n(lam
    radius)| and |J_n'|, where m is the continuous zero index at lam radius.
    The top `_REFINED` of each order are solved exactly, from the seeds
    that ranked them, and the one of largest exact |trace| whose zero lies
    in the window and, with h = 1/lam, in the band wins, the first-ranked
    on a tie.  An order whose ranked few all leave the window or the band on
    refinement has all its other candidates refined.  Each stage is one
    array call over every order: the candidate ranges, the seeds, the
    ranking, the Newton and then the normalizations and traces of the
    admitted zeros, both from one Bessel call (:func:`_norms_and_traces`;
    once more for such orders), and the pick, which reads its own entries.
    """
    orders = specfun._integers(orders, "order").ravel()
    # an order below 1 keeps no candidate (its windows are those of n = 1)
    ns = np.maximum(orders, 1)
    lam_lo, lam_hi = target.disk_window(ns)

    spacing = specfun._zero_spacing(ns, lam_lo)
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
        sigma = glancing_distance(ns[k], h, radius)
        keep &= ((h ** band.rho2 * (1.0 - 1e-6) <= sigma)
                 & (sigma <= h ** band.rho1 * (1.0 + 1e-6)))
    k, m, lam_seed = k[keep], m[keep], lam_seed[keep]
    feasible = np.bincount(k, minlength=ns.size)

    # above the turning point J_n(x) ~ envelope * cos(n g(x/n) - pi/4)
    # = envelope * sin(pi m(x)); at or below it that does not apply: rank
    # below every oscillatory seed, refinement still decides
    score = np.full(m.size, -1.0)
    osc = lam_seed * radius > ns[k]
    pm = math.pi * specfun.bessel_zero_index(ns[k][osc],
                                             lam_seed[osc] * radius)
    score[osc] = np.abs(np.cos(pm) if derivative else np.sin(pm))
    ranked = np.lexsort((-score, k))
    k, m, lam_seed = k[ranked], m[ranked], lam_seed[ranked]
    rank = np.arange(m.size) - (np.cumsum(feasible) - feasible)[k]

    def refine(sel):
        """(positions, lam, normalization, trace) of the admissible zeros
        among the candidates at positions sel."""
        sel = np.flatnonzero(sel)
        lam = specfun.bessel_zero(ns[k[sel]], m[sel], seeds=lam_seed[sel])
        ok = (lam_lo[k[sel]] <= lam) & (lam <= lam_hi[k[sel]])
        if band is not None:
            h = 1.0 / lam
            ok &= band_indicator(glancing_distance(ns[k[sel]], h, radius), h,
                                 band)
        sel, lam = sel[ok], lam[ok]
        return (sel, lam,
                *_norms_and_traces(ns[k[sel]], lam, radius, derivative))

    sel, lam, norms, traces = refine(rank < _REFINED)
    # past the ranked few only when they all drifted outside on exact
    # refinement (narrow window, seeds near the edges)
    again = ~np.isin(k, k[sel]) & (rank >= _REFINED)
    if again.any():
        # appended after the first round: each order's candidates still
        # come in ranked order, since these orders had none admitted there
        sel, lam, norms, traces = (
            np.concatenate(pair)
            for pair in zip((sel, lam, norms, traces), refine(again)))
    quality = np.abs(traces)

    # per order the largest |trace|; the sort is stable, so on a tie the
    # first-ranked candidate comes first
    best = np.lexsort((-quality, k[sel]))
    picked, first = np.unique(k[sel][best], return_index=True)
    best = best[first]

    out_lam, out_norm, out_amp = (np.full(ns.size, math.nan)
                                  for _ in range(3))
    out_lam[picked], out_norm[picked] = lam[best], norms[best]
    out_amp[picked] = norms[best] * traces[best]
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
        n=orders, lam=out_lam, normalization=out_norm, amplitude=out_amp,
        error=tuple(errors), candidates=candidates, band_feasible=feasible,
        refined_k=k[sel], refined_m=m[sel], refined_quality=quality)


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

# the most (window, order) pairs one enumeration pass holds: the default
# quasimode ensemble (Lambda = 200 ... 2000, 8 windows, 6.6k orders) is one
# pass, the largest window quasimode accepts (Lambda = 999990) 125
_BATCH_ORDERS = 8000


def modes_in_frequency_windows(lam_lo, lam_hi, radius: float = 0.5):
    """All disk modes with eigenfrequency in [lam_lo[i], lam_hi[i]], n >= 0,
    of every window of two sequences of edges, and their traces on the
    circle of `radius`.

    Returns the modes of all windows as the columns (window, n, lam,
    normalization, amplitude), ordered by (window, n, lam), where window is
    the index i of the mode's window and amplitude the trace c J_n(lam
    radius); np.bincount(window) counts the modes per window.  Each (n, m)
    pair is one mode; angular orders n >= 1 stand for the two-dimensional
    eigenspace spanned by e^{+-i n theta} (callers who need multiplicity
    count such modes twice).

    The windows expand into the (window, order) pairs of the orders n <=
    floor(lam_hi[i]) of every window, and the enumeration runs over
    consecutive slices of at most _BATCH_ORDERS = 8000 of them, which
    bounds its memory whatever the windows.  Per slice, every candidate (n,
    m) comes from one :func:`specfun.bessel_zero_candidate_ranges` call,
    each order against its own window; all of them are solved in one
    batched Newton (:func:`specfun.bessel_zero`), and the modes inside are
    normalized and traced by one Bessel call (:func:`_norms_and_traces`).
    Each zero and each value is bit for bit the one solved alone, whatever
    else the slice holds, so no output depends on the slicing, a zero on an
    edge included.  Windows may overlap; a zero in several is a mode of
    each.
    """
    lam_lo, lam_hi = (np.asarray(v, dtype=float).ravel()
                      for v in np.broadcast_arrays(lam_lo, lam_hi))
    bad = ~((0.0 < lam_lo) & (lam_lo < lam_hi) & (lam_hi < math.inf))
    if bad.any():
        i = np.flatnonzero(bad)[0]
        raise ValueError(f"need 0 < lam_lo < lam_hi < inf, got window "
                         f"[{lam_lo[i]}, {lam_hi[i]}]")
    # m(lam_hi) vanishes for n >= lam_hi, so the orders of a window end at
    # floor(lam_hi); `wins` is the window of each order
    count = np.floor(lam_hi).astype(np.int64) + 1
    wins = np.repeat(np.arange(lam_lo.size), count)
    orders = np.arange(wins.size) - np.repeat(np.cumsum(count) - count, count)
    parts = []
    # one pass at least: no windows give five empty columns
    for start in range(0, max(wins.size, 1), _BATCH_ORDERS):
        n, win = (a[start:start + _BATCH_ORDERS] for a in (orders, wins))
        k, m = specfun.bessel_zero_candidate_ranges(n, lam_lo[win],
                                                    lam_hi[win])
        n, win = n[k], win[k]
        lam = specfun.bessel_zero(n, m)
        inside = (lam_lo[win] <= lam) & (lam <= lam_hi[win])
        win, n, lam = win[inside], n[inside], lam[inside]
        norm, trace = _norms_and_traces(n, lam, radius)
        degenerate = np.flatnonzero(norm == 0.0)
        if degenerate.size:
            i = degenerate[0]
            raise NoModeError(
                f"degenerate normalization at (n={n[i]}, lam={lam[i]})")
        parts.append((win, n, lam, norm, norm * trace))
    return tuple(np.concatenate(column) for column in zip(*parts))
