"""Independent cross-checks for the fast special-function paths.

Every routine here recomputes a quantity that :mod:`glancelab.specfun` (or the
experiment layer) produces by a *different* method, so agreement is evidence
rather than tautology:

- :func:`bessel_series`     Bessel J at integer order by the trapezoidal rule
                            on Bessel's integral (DLMF 10.9.2), exponentially
                            convergent for the periodic integrand: about
                            (n + x)/2 nodes plus an aliasing margin
                            30 + 8 max(n, x)^{1/3} that holds the aliased
                            terms below 1e-26.  Accurate to about 1e-15 in
                            absolute terms, not relatively; that suffices,
                            since every check that uses it compares on a
                            scale of at least n^{-1/3}, or absolutely.  No
                            series, recurrence or asymptotics.
- :func:`legendre_recurrence`
                            fully normalized equator values of associated
                            Legendre functions by three-term upward recurrence
                            (DLMF 14.10.3), seeded in log-Gamma space.
- :func:`disk_quadrature_norm`
                            the radial L2 norm of a disk mode by panel
                            Gauss-Legendre quadrature, against the closed form
                            int_0^1 J_n(lam r)^2 r dr = J_{n+1}(lam)^2 / 2
                            valid at a zero of J_n (DLMF 10.22.37).
- :func:`olver_ode_check`   the turning-point change of variables used by the
                            uniform Bessel asymptotic, re-solved as an ODE by
                            Gragg-Bulirsch-Stoer extrapolation.
- :func:`airy_ode_check`    Ai on the real line by integrating y'' = x y from
                            origin values, against the series/asymptotic code.
- :func:`weyl_count`        Dirichlet eigenvalue counts of the unit disk by
                            phase counting, with the sign of the quadrature
                            J_n at the edge, no zero-finding involved.

:func:`run_all` executes the whole battery and returns an
:class:`OracleReport`; the command line exposes it as ``glancelab selftest``.

These paths are simple and share no code with the fast ones.  They may be
made faster with the same arithmetic (as :func:`bessel_series` is, by tables
and array passes), but never by calling into :mod:`glancelab.specfun`: their
value is independence.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np


class OracleError(Exception):
    """An oracle computation failed to converge (not a disagreement)."""


# ----------------------------------------------------------------------
# Bessel J by the trapezoidal rule on Bessel's integral
# ----------------------------------------------------------------------

# each element's nodes are summed in runs of at most this many, and a batch
# holds at most twice this many nodes (128 KB per longdouble array)
_CHUNK = 1 << 12
_PI = 4 * np.arctan(np.longdouble(1.0))


def _intervals(n: int, x: np.ndarray) -> np.ndarray:
    """The interval count M of the rule at each x: (n + x)/2 plus the
    aliasing margin 30 + 8 ceil(max(n, x)^{1/3})."""
    return (np.floor(0.5 * (n + x)).astype(np.int64) + 30
            + 8 * np.ceil(np.cbrt(np.maximum(n, x))).astype(np.int64))


def _spans(counts: np.ndarray):
    """(owner, index, start): counts[i] entries for each i in turn, with
    owner i and index 0 ... counts[i] - 1, and where each i's entries
    start."""
    start = np.cumsum(counts) - counts
    owner = np.repeat(np.arange(counts.size), counts)
    return owner, np.arange(owner.size) - start[owner], start


def bessel_series(n: int, x):
    """Bessel function J_n(x) by quadrature, independent of specfun.

    Parameters
    ----------
    n : int
        Order, n >= 0.
    x : float or array of float
        Arguments, finite and x >= 0, all at the one order n.

    Returns
    -------
    float or ndarray
        J_n(x): a float for a scalar x, else an array of the shape of x,
        each element with the bits of a call on it alone.  Accurate in
        absolute terms, to about 1e-16 to 1e-15, so a value far below that,
        such as J_200(100) ~ 1e-39, is resolved as negligible rather than
        relatively.  That is all the battery needs: each of its checks
        compares on a scale of at least n^{-1/3}, or absolutely.

    Notes
    -----
    Bessel's integral J_n(x) = (1/pi) int_0^pi cos(n t - x sin t) dt
    (DLMF 10.9.2) by the trapezoidal rule on M intervals of [0, pi], the
    two end nodes at half weight.  The integrand is even, 2 pi-periodic and
    entire in t, so this is the 2M-point rule on the whole period, whose
    error is the aliased terms J_{2M-n}(x) + J_{2M+n}(x) (Trefethen &
    Weideman, SIAM Review 56, 2014).  With the aliasing margin
    M = floor((n + x)/2) + 30 + 8 ceil(m^{1/3}), m = max(n, x), the order
    2M - n exceeds x by at least 60 + 16 m^{1/3}, where J_{2M-n}(x) is
    about (2/x)^{1/3} Ai(2^{1/3} 16) < 1e-26 (the 60 covers small m).  The
    work is M nodes, about (n + x)/2.

    The end nodes are exact, cos 0 = 1 and cos(n pi) = (-1)^n, so only the
    interior nodes t_k = k h, h = pi/M, k = 1 ... M - 1, are evaluated.
    Each phase is formed in longdouble: n t_k reduced exactly as
    ((n k) mod 2M) h, minus x sin t_k, with sin t_k = sin(a w h + b h) by
    angle addition from tables of sin and cos at a w h and b h,
    a, b < w = ceil(sqrt(M)).  It is reduced mod 2 pi and its cosine taken
    in float64.  Each element's cosines are summed in longdouble, in runs
    of at most _CHUNK from k = 1 on, whatever else is in the call.
    """
    if n < 0:
        raise ValueError("order must be nonnegative")
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x) & (x >= 0.0)):
        raise ValueError("argument must be finite and nonnegative")
    flat = x.ravel()
    m = _intervals(n, flat)
    h = _PI / m.astype(np.longdouble)
    xl = flat.astype(np.longdouble)
    w = np.ceil(np.sqrt(m)).astype(np.int64)
    owner, i, at = _spans(w)
    fine, coarse = i * h[owner], i * w[owner] * h[owner]
    sin_fine, cos_fine = np.sin(fine), np.cos(fine)
    sin_coarse, cos_coarse = np.sin(coarse), np.cos(coarse)
    # run r of an element starts at node 1 + r _CHUNK; a batch holds the
    # runs whose last node falls in one _CHUNK of all the runs' nodes
    elem, r, _ = _spans(-(-(m - 1) // _CHUNK))
    first = 1 + _CHUNK * r
    length = np.minimum(_CHUNK, m[elem] - first)
    ends = np.flatnonzero(np.diff((np.cumsum(length) - 1) // _CHUNK,
                                  append=-1)) + 1
    sums = np.empty(elem.size, dtype=np.longdouble)
    for lo, hi in zip([0, *ends[:-1].tolist()], ends.tolist()):
        run, j, start = _spans(length[lo:hi])
        e = elem[lo:hi][run]
        k = first[lo:hi][run] + j
        a, b = np.divmod(k, w[e])
        a += at[e]
        b += at[e]
        sin_k = sin_coarse[a] * cos_fine[b] + cos_coarse[a] * sin_fine[b]
        phase = (n * k) % (2 * m[e]) * h[e] - xl[e] * sin_k
        phase -= np.rint(phase.astype(float) * (0.5 / math.pi)) * (2 * _PI)
        terms = np.cos(phase.astype(float)).astype(np.longdouble)
        sums[lo:hi] = np.add.reduceat(terms, start)
    total = np.zeros(flat.size, dtype=np.longdouble)
    np.add.at(total, elem, sums)
    out = ((total + (n % 2 == 0)) / m).astype(float)
    out[flat == 0.0] = float(n == 0)
    return float(out[0]) if x.ndim == 0 else out.reshape(x.shape)


def bessel_prime_series(n: int, x: float) -> float:
    """d/dx J_n(x) from the recurrence identity J_n' = (J_{n-1} - J_{n+1})/2."""
    if n == 0:
        return -bessel_series(1, x)
    return 0.5 * (bessel_series(n - 1, x) - bessel_series(n + 1, x))


# ----------------------------------------------------------------------
# Associated Legendre at the equator, fully normalized
# ----------------------------------------------------------------------

def legendre_recurrence(l: int, m: int) -> float:
    """Equator value of the orthonormal spherical-harmonic colatitude factor.

    Returns N_lm * P_l^m(0) where N_lm = sqrt((2l+1)/(4 pi) (l-m)!/(l+m)!)
    and P_l^m carries the Condon-Shortley phase, so that
    Y_l^m(theta, phi) = legendre_recurrence(l, m) * e^{i m phi} on the
    equator theta = pi/2 and int_{S^2} |Y_l^m|^2 = 1.

    Notes
    -----
    Upward recurrence in degree at fixed order (DLMF 14.10.3, normalized
    form).  At the equator the middle term vanishes, so degrees step by two:

        Pbar_l(0) = -sqrt( (2l+1)/(2l-3) * ((l-1)^2-m^2)/(l^2-m^2) ) Pbar_{l-2}(0)

    seeded with Pbar_m^m(0) = (-1)^m sqrt((2m+1)/(4 pi)) sqrt((2m)!)/(2^m m!),
    evaluated via log-Gamma to avoid overflow.  Odd l+m gives exactly 0.
    """
    if m < 0 or l < m:
        raise ValueError("need 0 <= m <= l")
    if (l + m) % 2 == 1:
        return 0.0
    log_seed = 0.5 * (math.log(2 * m + 1) - math.log(4.0 * math.pi)
                      + math.lgamma(2 * m + 1)) \
        - m * math.log(2.0) - math.lgamma(m + 1)
    sign = -1.0 if (m % 2) else 1.0
    # recur in log space: value = sign * exp(log_seed + sum log factors)
    log_val = log_seed
    for k in range(m + 2, l + 1, 2):
        ratio = ((2 * k + 1) * ((k - 1) ** 2 - m ** 2)) / \
                ((2 * k - 3) * (k ** 2 - m ** 2))
        log_val += 0.5 * math.log(ratio)
        sign = -sign
    return sign * math.exp(log_val)


# ----------------------------------------------------------------------
# Quadrature and ODE integration
# ----------------------------------------------------------------------

def _legendre_rule(order: int):
    """Gauss-Legendre nodes and weights on [-1, 1], exact to rounding.

    numpy's `leggauss` weights are off by up to 7e-14 relative at order 20,
    so its nodes are polished by Newton steps on P_order in extended
    precision, and the weights recomputed there as
    2 / ((1 - x^2) P_order'(x)^2)  (DLMF 3.5.19).
    """
    x = np.polynomial.legendre.leggauss(order)[0].astype(np.longdouble)
    for _ in range(3):
        p_lo, p = np.ones_like(x), x
        for k in range(2, order + 1):
            p_lo, p = p, ((2 * k - 1) * x * p - (k - 1) * p_lo) / k
        dp = order * (x * p - p_lo) / (x * x - 1)
        x = x - p / dp
    return x.astype(float), (2 / ((1 - x * x) * dp * dp)).astype(float)


_GL_NODES, _GL_WEIGHTS = _legendre_rule(20)


def _gauss_legendre(f, a: float, b: float) -> float:
    """int_a^b f(s) ds by 20-point Gauss-Legendre on 1, 2, 4, ... 64 panels.

    `f` maps an array of nodes to an array of values.  The panel count
    doubles until two successive sums agree to 1e-14 relative; if 64
    panels still disagree with 32, raises OracleError.
    """
    prev = None
    for panels in (1, 2, 4, 8, 16, 32, 64):
        half = 0.5 * (b - a) / panels
        mids = a + half * (2.0 * np.arange(panels) + 1.0)
        nodes = (mids[:, None] + half * _GL_NODES).ravel()
        val = math.fsum(np.tile(half * _GL_WEIGHTS, panels) * f(nodes))
        if prev is not None and abs(val - prev) <= 1e-14 * abs(val):
            return val
        prev = val
    raise OracleError(f"Gauss-Legendre on [{a}, {b}] not converged at "
                      f"64 panels: {val}")


# substep counts of Gragg's modified midpoint rule, one per extrapolation row
_GBS_SUBSTEPS = (2, 4, 6, 8, 10, 12, 14, 16, 18, 20)


def _gbs_step(f, t, y, h):
    """One Gragg-Bulirsch-Stoer step of size h from (t, y).

    Returns (y(t + h), rows used) once the last two extrapolants of a row
    agree to 2e-15 relative to the largest component plus 1e-17 absolute,
    or (None, rows used) if no row does.
    """
    prev_row = []
    for k, n in enumerate(_GBS_SUBSTEPS):
        sub = h / n
        y_lo, y_hi = y, y + sub * f(t, y)
        for i in range(1, n):
            y_lo, y_hi = y_hi, y_lo + 2.0 * sub * f(t + i * sub, y_hi)
        row = [0.5 * (y_lo + y_hi + sub * f(t + h, y_hi))]
        # Aitken-Neville: the midpoint error is a series in sub^2
        for j in range(1, k + 1):
            ratio = (n / _GBS_SUBSTEPS[k - j]) ** 2
            row.append(row[j - 1] + (row[j - 1] - prev_row[j - 1]) / (ratio - 1.0))
        if k and np.max(np.abs(row[k] - row[k - 1])) <= \
                2e-15 * np.max(np.abs(row[k])) + 1e-17:
            return row[k], k + 1
        prev_row = row
    return None, len(_GBS_SUBSTEPS)


def _ode_solve(f, t0: float, y0, t_out) -> np.ndarray:
    """Solve y' = f(t, y), y(t0) = y0 at each point of `t_out`.

    Gragg-Bulirsch-Stoer extrapolation (Bulirsch & Stoer, Numer. Math. 8,
    1966): each step runs the modified midpoint rule on 2, 4, ... 20
    substeps and extrapolates in h^2, and is accepted once the last two
    extrapolants agree (see `_gbs_step`).  The first trial step is 1/L,
    the time scale of the linearised equation, with L = |df/dy| estimated
    by one difference quotient at (t0, y0).  Near the turning point, where
    `olver_ode_check` starts, L ~ 1/(2 |t0|) = 5e3, far too stiff for a
    first step of the 0.25 grid spacing.  A step that misses is halved;
    one that converges by the fifth row doubles the next.  Steps land
    exactly on each point of `t_out`, which must run monotonically away
    from t0.  A step below 1e-12 raises OracleError.

    Returns
    -------
    ndarray
        Row i is y(t_out[i]).
    """
    t = t0
    y = np.asarray(y0, dtype=float)
    dy = 1e-7 * np.maximum(np.abs(y), 1e-7)
    lip = np.max(np.abs(f(t0, y + dy) - f(t0, y))) / np.max(dy)
    span = t_out[-1] - t0
    h = math.copysign(min(abs(span), 1.0 / max(lip, 1e-300)), span)
    out = []
    # a trial step too long for the solution may overflow; the extrapolants
    # then differ by nan, which fails the agreement test, and h is halved
    with np.errstate(over="ignore", invalid="ignore"):
        for target in t_out:
            while t != target:
                last = abs(target - t) <= abs(h)
                step = target - t if last else h
                y_new, rows = _gbs_step(f, t, y, step)
                if y_new is None:
                    h = 0.5 * step
                    if abs(h) < 1e-12:
                        raise OracleError(f"ODE step below 1e-12 at t = {t}")
                    continue
                if rows <= 5 and not last:
                    h *= 2.0
                t = target if last else t + step
                y = y_new
            out.append(y)
    return np.array(out)


# ----------------------------------------------------------------------
# Disk-mode normalization by quadrature
# ----------------------------------------------------------------------

def disk_quadrature_norm(n: int, lam: float) -> tuple[float, float]:
    """Radial norm of a disk mode two ways: quadrature vs closed form.

    Returns
    -------
    (quadrature, closed_form) : tuple of float
        quadrature  = int_0^1 J_n(lam r)^2 r dr  by panel Gauss-Legendre,
        closed_form = J_{n+1}(lam)^2 / 2, exact when J_n(lam) = 0
        (DLMF 10.22.37 with nu = n).

    The caller is responsible for passing lam at (or near) a zero of J_n;
    otherwise the closed form does not apply.
    """
    val = _gauss_legendre(lambda r: bessel_series(n, lam * r) ** 2 * r,
                          0.0, 1.0)
    closed = 0.5 * bessel_series(n + 1, lam) ** 2
    return val, closed


# ----------------------------------------------------------------------
# Turning-point variable and Airy equation, re-solved as ODEs
# ----------------------------------------------------------------------

def olver_ode_check(zeta_lo: float = -6.0, n_samples: int = 25):
    """Re-solve the turning-point change of variables as an ODE.

    The uniform large-order Bessel asymptotic uses the map z -> zeta defined
    on the oscillatory side z > 1 by (2/3)(-zeta)^{3/2} =
    sqrt(z^2-1) - arccos(1/z) (DLMF 10.20.3).  Differentiating gives

        dz/dzeta = -sqrt(-zeta) * z / sqrt(z^2 - 1),

    regular except at the turning point zeta = 0, where
    z = 1 + 2^{-1/3}(-zeta) + (3/10) 2^{-2/3} zeta^2 + ...

    Integrates from near the turning point down to `zeta_lo` by
    Gragg-Bulirsch-Stoer extrapolation and returns sample pairs.

    Returns
    -------
    zetas, zs : ndarray
        Sampled zeta grid (descending from just below 0) and z(zeta).
    """
    z0 = 1e-4
    c = 2.0 ** (-1.0 / 3.0)
    z_start = 1.0 + c * z0 + 0.3 * c * c * z0 * z0

    def rhs(zeta, z):
        return -math.sqrt(-zeta) * z / np.sqrt(z * z - 1.0)

    zetas = np.linspace(-z0, zeta_lo, n_samples)
    return zetas, _ode_solve(rhs, -z0, [z_start], zetas)[:, 0]


# Origin values of Ai, frozen from the Gamma-function expressions
# Ai(0) = 3^{-2/3}/Gamma(2/3), Ai'(0) = -3^{-1/3}/Gamma(1/3)  (DLMF 9.2.3-4).
AIRY_AT_ZERO = 0.35502805388781723926
AIRY_PRIME_AT_ZERO = -0.25881940379280679840


def airy_ode_check(x_lo: float = -14.0, x_hi: float = 2.0, n_samples: int = 41):
    """Solve the Airy equation y'' = x y from frozen origin data.

    Integrates left and right from x = 0 with initial values
    (Ai(0), Ai'(0)) and returns sample values of Ai on [x_lo, x_hi].
    Independent of every series or asymptotic formula in specfun.

    Rightward integration amplifies error in the growing (Bi) direction by
    e^{2 xi(x)}, so keep x_hi modest; :func:`airy_positive_integral` is the
    well-conditioned oracle deeper into the decaying region.

    Returns
    -------
    xs, ais : ndarray
        Sample grid and Ai(x) on it.
    """
    def rhs(x, y):
        return np.array([y[1], x * y[0]])

    xs = np.linspace(x_lo, x_hi, n_samples)
    out = np.empty_like(xs)
    left = xs[xs < 0.0]
    right = xs[xs > 0.0]
    y0 = [AIRY_AT_ZERO, AIRY_PRIME_AT_ZERO]
    if left.size:
        out[: left.size] = _ode_solve(rhs, 0.0, y0, left[::-1])[::-1, 0]
    out[xs == 0.0] = AIRY_AT_ZERO
    if right.size:
        out[xs.size - right.size:] = _ode_solve(rhs, 0.0, y0, right)[:, 0]
    return xs, out


def airy_positive_integral(x: float) -> float:
    """Ai(x) for x >= 1 by the saddle-point contour integral.

    Shifting the Airy contour through the saddle t = i sqrt(x) gives the
    exact representation

        Ai(x) = (e^{-xi} / pi) int_0^inf e^{-sqrt(x) s^2} cos(s^3/3) ds,

    xi = (2/3) x^{3/2}.  The integrand is positive through its Gaussian
    peak (the cosine only turns over in the tail), so quadrature loses
    nothing to cancellation at any x.  Independent of every expansion in
    specfun.
    """
    if x < 1.0:
        raise ValueError("saddle-point oracle needs x >= 1")
    sx = math.sqrt(x)

    def f(s):
        return np.exp(-sx * s * s) * np.cos(s ** 3 / 3.0)

    cutoff = 2.0 + 7.0 / x ** 0.25   # e^{-sqrt(x) s^2} < 1e-21 beyond this
    val = _gauss_legendre(f, 0.0, cutoff)
    return math.exp(-(2.0 / 3.0) * x * sx) * val / math.pi


# ----------------------------------------------------------------------
# Eigenvalue counting without zero-finding
# ----------------------------------------------------------------------

def _phase_integral(w: float) -> float:
    """g(w) = sqrt(w^2-1) - arccos(1/w) for w >= 1, stable near w = 1."""
    if w <= 1.0:
        return 0.0
    t2 = (w - 1.0) * (w + 1.0)
    t = math.sqrt(t2)
    if t < 0.1:
        # g = t - atan(t) = t^3/3 - t^5/5 + ...
        term = t * t2 / 3.0
        total = term
        for k in range(1, 24):
            term *= -t2 * (2 * k + 1) / (2 * k + 3)
            total += term
            if abs(term) <= 1e-18 * abs(total):
                break
        return total
    return t - math.atan(t)


def _zero_counter(n: int, x: float) -> int:
    """Number of positive zeros of J_n at or below x, by phase counting.

    The m-th zero satisfies n g(j/n)/pi + 1/4 = m + e (for n = 0,
    j/pi + 1/4 = m + e), so the count is the floor of the continuous index
    unless x lies within e of a zero.  The error e is the first Debye phase
    correction (1 + 5 n^2 / (3 w^2)) / (8 pi w), w = sqrt(x^2 - n^2)
    (DLMF 10.19.6 with U_1 of 10.41.10), which also bounds it where that
    diverges at the turning point; there e stays below 0.016.  Where the
    index lies within twice that of an integer k, the count is k - 1 or k,
    and the sign of J_n(x) by quadrature decides: J_n changes sign
    at each of its simple zeros, so sign J_n(x) = (-1)^count.
    """
    if n == 0:
        idx = x / math.pi + 0.25
        w = x
    elif x <= n:
        return 0
    else:
        idx = n * _phase_integral(x / n) / math.pi + 0.25
        w = math.sqrt((x - n) * (x + n))
    k = math.floor(idx + 0.5)
    slack = min((1.0 + 5.0 * n * n / (3.0 * w * w)) / (4.0 * math.pi * w), 0.03)
    if k >= 1 and abs(idx - k) < slack:
        odd = bessel_series(n, x) < 0.0
        return k if (k % 2 == 1) == odd else k - 1
    return max(0, math.floor(idx))


def weyl_count(lam: float, lam_lo: float = 0.0) -> int:
    """Count Dirichlet eigenvalues of the unit disk with sqrt(E) in (lam_lo, lam].

    Each zero j_{n,m} <= lam contributes multiplicity 2 for n >= 1
    (angular factors e^{+-i n theta}) and 1 for n = 0.  Counting is by
    phase, with the sign of the quadrature J_n(lam) deciding the few zeros
    that lie within the phase error of lam (see `_zero_counter`); no zeros
    are located, and the count is exact.

    The two-term Weyl law for comparison: N(lam) ~ lam^2/4 - lam/2.
    """
    if lam_lo >= lam:
        return 0

    def count_upto(x: float) -> int:
        total = _zero_counter(0, x)
        n = 1
        while n < x:  # j_{n,1} > n, so orders >= x contribute nothing
            c = _zero_counter(n, x)
            if c == 0 and n > x - 1:
                break
            total += 2 * c
            n += 1
        return total

    return count_upto(lam) - (count_upto(lam_lo) if lam_lo > 0.0 else 0)


# ----------------------------------------------------------------------
# The battery
# ----------------------------------------------------------------------

@dataclass
class CheckResult:
    name: str
    passed: bool
    worst: float          # worst observed error, in units of the tolerance
    detail: str = ""


@dataclass
class OracleReport:
    checks: list[CheckResult] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def summary(self) -> str:
        lines = []
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            lines.append(f"[{status}] {c.name}: worst {c.worst:.3g}x tolerance"
                         + (f" ({c.detail})" if c.detail else ""))
        lines.append(f"{'all checks passed' if self.all_passed else 'FAILURES PRESENT'}"
                     f" in {self.elapsed:.1f}s")
        return "\n".join(lines)


def _worst(got: np.ndarray, want: np.ndarray, scale: np.ndarray) -> float:
    """The largest |got - want| / scale over arrays of results."""
    return float(np.max(np.abs(got - want) / scale))


def _check(name, got, want, scale, tol, detail=""):
    """The CheckResult of results `got` against `want` (numbers or arrays
    that broadcast): passed when the largest |got - want| / scale is at
    most `tol`, which a NaN or infinite figure never is, its worst in units
    of `tol`."""
    worst = _worst(np.asarray(got, dtype=float), want, scale)
    return CheckResult(name, worst <= tol, worst / tol, detail)


# the (n, x) at which the battery checks specfun.bessel_j, across all its
# dispatch regimes
BESSEL_CASES = [(0, 0.5), (0, 17.2), (3, 2.0), (7, 30.0), (12, 11.5),
                (40, 35.0), (60, 66.0), (120, 121.0), (200, 170.0),
                (500, 502.0), (500, 540.0), (1000, 1003.0), (1000, 980.0),
                (2000, 2100.0), (5000, 5015.0),
                # the Newton point z = 2 of the disk-sweep zeros, exactly
                # z = 1, and the first point past the recurrence crossover
                # at n = 200
                (1000, 2000.0), (2000, 4000.0), (1000, 1000.0), (200, 201.0),
                # large orders near the turning point
                (20000, 20060.0), (20000, 20600.0), (100000, 100400.0)]


def run_all() -> OracleReport:
    """Run every oracle check, cross-validating the fast specfun paths.

    Returns
    -------
    OracleReport
    """
    # deferred: oracle must import even if specfun breaks
    from . import modes, specfun

    t0 = time.perf_counter()
    rep = OracleReport()

    # -- frozen external anchors ------------------------------------------
    rep.checks.append(_check(
        "bessel_series zero anchor",
        bessel_series(0, 2.40482555769577276862), 0.0, 1.0, 1e-13,
        "J_0 at its first zero"))
    want = np.array([0.51914749728946678814, 0.08084377958789141517])
    rep.checks.append(_check(
        "bessel_series frozen values",
        [bessel_series(1, 2.40482555769577276862), bessel_series(100, 130.0)],
        want, np.maximum(np.abs(want), 1e-12), 1e-12))

    # -- specfun Bessel vs the quadrature across all dispatch regimes -------
    # (the check keeps the name it had when Miller's recurrence was the
    # reference: the benchmark reports each check's figure under its name)
    n, x = (np.array(col) for col in zip(*BESSEL_CASES))
    want = np.array([bessel_series(*case) for case in BESSEL_CASES])
    scale = np.maximum(np.abs(want), (n + 1.0) ** (-1.0 / 3.0))
    rep.checks.append(_check("specfun.bessel_j vs Miller recurrence",
                             specfun.bessel_j(n, x), want, scale, 1e-8,
                             f"{len(BESSEL_CASES)} orders up to "
                             f"{max(c[0] for c in BESSEL_CASES)}"))

    # -- zero residuals -----------------------------------------------------
    zero_cases = [(0, 1), (0, 7), (5, 3), (40, 1), (300, 2), (1000, 4),
                  (1000, 218)]
    n, m = (np.array(col) for col in zip(*zero_cases))
    # the Newton step |J_n / J_n'| left at each zero
    values, slopes = np.array([
        (bessel_series(k, lam), bessel_prime_series(k, lam))
        for k, lam in zip(n.tolist(), specfun.bessel_zero(n, m).tolist())]).T
    rep.checks.append(_check("specfun.bessel_zero residuals", values, 0.0,
                             np.maximum(np.abs(slopes), 1e-30), 1e-9,
                             f"{len(zero_cases)} zeros"))

    # -- zero-seed consistency: the Airy-transplant seed for the first zero
    # carries an O(1/n) error, so its decay exponent certifies the uniform
    # asymptotics far beyond the orders the direct oracles can reach
    ns = np.array([100, 200, 400, 800])
    seeds = ns * specfun.z_of_zeta(ns ** (-2.0 / 3.0) * specfun.airy_zero(1))
    errs = np.abs(specfun.bessel_zero(ns, 1) - seeds)
    lx = np.log(ns) - np.log(ns).mean()
    slope = float(lx @ (np.log(errs) - np.mean(np.log(errs)))) / float(lx @ lx)
    # the required decay rate 0.8 over the measured one -slope
    rep.checks.append(_check("bessel_zero seed error decay", 0.8, 0.0,
                             max(-slope, 1e-12), 1.0,
                             f"log-log slope {slope:.3f} on n in "
                             f"[{ns[0]}, {ns[-1]}]"))

    # -- Airy: ODE transport left of the growth barrier, contour integral right
    xs, want = airy_ode_check()
    rep.checks.append(_check("specfun.airy_ai vs Airy ODE",
                             specfun.airy_ai(xs), want,
                             np.maximum(np.abs(want), 1e-6), 1e-8,
                             f"grid [{xs[0]:.0f}, {xs[-1]:.0f}]"))
    xs = np.array([1.0, 1.5, 3.0, 4.2, 4.6, 5.5, 6.5, 7.9, 8.5, 9.5, 12.0])
    want = np.array([airy_positive_integral(x) for x in xs.tolist()])
    rep.checks.append(_check("specfun.airy_ai vs contour integral",
                             specfun.airy_ai(xs), want, np.abs(want), 1e-8,
                             "positive axis through the transport region"))

    # -- turning-point map by ODE, and the frozen anchor z(zeta) = 2 ---------
    zetas, zs = olver_ode_check()
    zetas, zs = np.append(zetas, -1.01810488856711602), np.append(zs, 2.0)
    rep.checks.append(_check("specfun.z_of_zeta vs turning-point ODE",
                             specfun.z_of_zeta(zetas), zs, np.abs(zs), 1e-9,
                             "incl. frozen anchor z(zeta)=2"))

    # -- Legendre: closed form vs recurrence ---------------------------------
    leg_cases = [(2, 0), (3, 1), (10, 4), (11, 5), (80, 80), (200, 120),
                 (1500, 1400), (8000, 7804)]
    want = np.array([legendre_recurrence(l, m) for l, m in leg_cases])
    rep.checks.append(_check("specfun.legendre_equator vs recurrence",
                             [specfun.legendre_equator(l, m)
                              for l, m in leg_cases],
                             want, np.maximum(np.abs(want), 1e-300), 1e-10,
                             f"{len(leg_cases)} (degree, order) pairs"))

    # -- disk normalization by quadrature ------------------------------------
    quad_cases = [(0, 1), (4, 3), (25, 2)]
    n, m = (np.array(col) for col in zip(*quad_cases))
    lam = specfun.bessel_zero(n, m)
    quad, closed = np.array([disk_quadrature_norm(k, x) for k, x in
                             zip(n.tolist(), lam.tolist())]).T
    rep.checks.append(_check("disk norm: quadrature vs closed form",
                             quad, closed, closed, 1e-9,
                             f"{len(quad_cases)} modes"))
    # the normalization that scales every trace amplitude the package
    # writes: 2 pi c^2 int_0^1 J_n(lam r)^2 r dr = 1
    want = 1.0 / np.sqrt(2.0 * math.pi * quad)
    rep.checks.append(_check("modes normalization vs quadrature",
                             modes._normalizations(n, lam), want, want, 1e-12,
                             f"{len(quad_cases)} modes"))

    # -- eigenvalue counting vs the smooth Weyl law ---------------------------
    lam = 2000.0
    got = weyl_count(lam)
    smooth = lam * lam / 4.0 - lam / 2.0
    rep.checks.append(_check("weyl_count vs two-term Weyl law", got, smooth,
                             smooth, 5e-3, f"N({lam:.0f}) = {got}"))

    rep.elapsed = time.perf_counter() - t0
    return rep
