"""Eigenmodes of the disk and sphere, and their traces on interior circles.

Disk modes are u(r, theta) = c J_n(lam r) e^{i n theta} with J_n(lam) = 0
(Dirichlet on the unit disk) and c chosen so the L2(disk) norm is 1.  Sphere
modes are spherical harmonics Y_l^m restricted to the equator of the round
unit sphere.  In both cases the restriction hypersurface is a circle, the
trace is a single angular harmonic, and the interesting quantity is the
glancing distance

    sigma = 1 - (h k / R)^2,      h = 1/lam,

of the mode's tangential wavenumber k at the hypersurface of radius R.

``select_disk_mode_at_scale`` picks, for a given angular order n, an
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
analytic phase/envelope model; only the top few candidates are evaluated
exactly, keeping selection cheap at orders ~1e5.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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
    """The disk eigenmode with angular order n and m-th radial eigenvalue.

    The L2(disk) normalization is c = 1/(sqrt(pi) |J_{n+1}(lam)|), from
    int_0^1 J_n(lam r)^2 r dr = J_{n+1}(lam)^2 / 2 at a zero of J_n.
    """
    lam = specfun.bessel_zero(n, m)
    return _mode_at_zero(n, lam)


def _mode_at_zero(n: int, lam: float) -> DiskMode:
    jm1, jn = specfun.bessel_j_pair(n, lam)
    # at a zero of J_n, J_{n+1} = (2n/lam) J_n - J_{n-1} = -J_{n-1}
    jnp1 = (2.0 * n / lam) * jn - jm1      # for n = 0, jm1 = -J_1
    if jnp1 == 0.0:
        raise NoModeError(f"degenerate normalization at (n={n}, lam={lam})")
    return DiskMode(n=n, lam=lam, normalization=1.0 / (math.sqrt(math.pi) * abs(jnp1)))


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


def _phase_model(n: int, lam: float, radius: float) -> float:
    """Asymptotic phase of J_n(lam * radius) above the turning point:
    Phi = n g(w) - pi/4, w = lam radius / n; |J_n| ~ envelope * |cos Phi|.
    """
    return n * specfun.phase_integral(lam * radius / n) - 0.25 * math.pi


@dataclass
class SelectionDiagnostics:
    """What the selector looked at (returned alongside the mode)."""
    candidates: int = 0
    band_feasible: int = 0
    refined: int = 0
    ranking: str = "first"
    scores: list = field(default_factory=list)


def select_disk_mode_at_scale(n: int, target: ScaleTarget, radius: float = 0.5,
                              optimize: str = "first", band=None,
                              with_diagnostics: bool = False):
    """Pick a disk eigenmode whose frequency lies in the target window.

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
    with_diagnostics : bool
        Also return a SelectionDiagnostics.

    Raises
    ------
    NoModeError
        If the window contains no zero, or none passes the band filter.
    """
    if n < 1:
        raise NoModeError("selection needs angular order n >= 1")
    if optimize not in _OPTIMIZE:
        raise ValueError(f"optimize must be one of {_OPTIMIZE}")
    lam_lo, lam_hi = target.disk_window(n)
    diag = SelectionDiagnostics(ranking=optimize)

    spacing = math.pi * lam_lo / math.sqrt(max(lam_lo * lam_lo - n * n, 1.0))
    candidates = []   # (score, m)
    for m in specfun.bessel_zero_candidates(n, lam_lo, lam_hi):
        lam_seed = specfun.bessel_zero_seed(n, m)
        # seed-level window check with half-spacing slack; exact membership
        # is re-verified after refinement
        if lam_seed < lam_lo - 0.6 * spacing or lam_seed > lam_hi + 0.6 * spacing:
            continue
        diag.candidates += 1
        if band is not None:
            # seed-level screen with a hair of slack; refinement re-checks
            h = 1.0 / lam_seed
            sigma = 1.0 - (n / (lam_seed * radius)) ** 2
            if not (h ** band.rho2 * (1.0 - 1e-6) <= sigma
                    <= h ** band.rho1 * (1.0 + 1e-6)):
                continue
            diag.band_feasible += 1
        if optimize == "first":
            score = -lam_seed   # larger score = smaller eigenvalue
        elif lam_seed * radius <= n:
            # at or below the turning point the phase model does not apply:
            # rank below every oscillatory seed, refinement still decides
            score = -1.0
        else:
            phi = _phase_model(n, lam_seed, radius)
            score = abs(math.cos(phi)) if optimize == "restriction" \
                else abs(math.sin(phi))
        candidates.append((score, m))
    if band is None:
        diag.band_feasible = diag.candidates

    if not candidates:
        raise NoModeError(
            f"no {'band-feasible ' if band is not None else ''}eigenvalue in "
            f"window [{lam_lo:.3f}, {lam_hi:.3f}] for n={n}")

    candidates.sort(key=lambda c: -c[0])
    best = None     # (quality, mode)
    for i, (_, m) in enumerate(candidates):
        # past the ranked few only when they all drifted outside on exact
        # refinement (narrow window, seeds near the edges)
        if i == _REFINED and best is not None:
            break
        lam = specfun.bessel_zero(n, m)
        if not (lam_lo <= lam <= lam_hi):
            continue
        if band is not None:
            h = 1.0 / lam
            sigma = 1.0 - (n / (lam * radius)) ** 2
            if not (h ** band.rho2 <= sigma <= h ** band.rho1):
                continue
        diag.refined += 1
        mode = _mode_at_zero(n, lam)
        if optimize == "first":
            quality = -lam
        elif optimize == "restriction":
            quality = abs(specfun.bessel_j(n, lam * radius))
        else:
            quality = abs(specfun.bessel_j_prime(n, lam * radius))
        diag.scores.append((m, quality))
        if best is None or quality > best[0]:
            best = (quality, mode)
    if best is None:
        raise NoModeError(
            f"all candidates left the window/band after refinement "
            f"for n={n} (window [{lam_lo:.3f}, {lam_hi:.3f}])")
    if with_diagnostics:
        return best[1], diag
    return best[1]


def sphere_mode_at_scale(l: int, target: ScaleTarget) -> SphereMode:
    """The spherical harmonic with azimuthal order in the target window.

    Picks the largest m <= l - offset*l^{1-alpha} inside the window with
    l + m even (odd parity has an identically zero equator trace).  The
    equator amplitude of the result grows like l^{alpha/4} with no phase
    factor, so no further optimization is needed on the sphere side.
    """
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

def modes_in_frequency_window(lam_lo: float, lam_hi: float) -> list[DiskMode]:
    """All disk modes with eigenfrequency in [lam_lo, lam_hi], n >= 0.

    Returns one DiskMode per (n, m) pair; angular orders n >= 1 stand for
    the two-dimensional eigenspace spanned by e^{+-i n theta} (callers who
    need multiplicity count such modes twice).  Modes are ordered by (n, lam).
    """
    if not (0.0 < lam_lo < lam_hi):
        raise ValueError("need 0 < lam_lo < lam_hi")
    out = []
    n = 0
    # the first zero has index ~1, and at fixed lam_hi the index falls as n
    # grows (d/dn = -arccos(n / lam_hi) / pi): the first order below 1/2 ends
    while specfun.bessel_zero_index(n, lam_hi) >= 0.5:
        for m in specfun.bessel_zero_candidates(n, lam_lo, lam_hi):
            lam = specfun.bessel_zero(n, m)
            if lam_lo <= lam <= lam_hi:
                out.append(_mode_at_zero(n, lam))
        n += 1
    return out
