"""Special functions for the large-order regime, self-contained.

Everything the mode machinery needs: Bessel J of integer order accurate
uniformly in (order, argument) including orders ~1e6, Airy Ai on the real
line, zeros of both, the turning-point change of variables from the uniform
asymptotic theory, and equator values of normalized associated Legendre
functions.

Design notes
------------
``bessel_j`` and ``bessel_j_pair`` dispatch through the one test ``_region``
between three methods, each used strictly inside the region where it was
validated against backward-recurrence oracles:

- ascending power series (DLMF 10.2.2) where x <= 17 or x^2 <= 4(n+1),
- forward recurrence seeded by order-0/1 Hankel expansions (DLMF 10.17.3),
  only for orders n < N_U = 200 and x >= n - 4 n^{1/3}; it costs O(n),
- everywhere else Olver's uniform Airy expansion with the second-order terms
  A_1, B_0, B_1 (DLMF 10.20.4, 10.20.10-11 with the Debye polynomials of
  10.41.10), on both sides of and at the turning point.  It costs O(1) in
  the order.  Its truncation error is below 3e-13 of the scaled J from
  n = N_U on and falls like n^{-4} at fixed z (at n = 100 it is 4e-12,
  which sets N_U); rounding in the Airy phase adds ~n eps far above the
  turning point (4e-12 at n = 1e6, z = 2).
  The closed forms of A_1, B_0, B_1 cancel near zeta = 0, so in the strip
  |n^{2/3} zeta| < 1 their Maclaurin series in zeta replace them.

The Airy factors (``airy_ai``, ``airy_ai_prime``, ``airy_zero`` and the
uniform expansion) use two methods keyed on the one constant
_AIRY_ASYMP = 8, all in float64:

- |x| >= 8: the Poincare asymptotic series (DLMF 9.7.5-6, 9.7.9-10),
  truncated at their smallest term; relative error ~3e-15 at |x| = 8,
  falling further out;
- |x| < 8: Taylor transport from correctly rounded (Ai, Ai') at +8 for
  x >= 0, stepping left so that the growing Bi-direction error decays, and
  at -8 for x < 0, stepping right where neither solution grows.  Against
  30-digit values the error is below 5e-16 relative on [0, 8) and below
  1e-14 of the local amplitude (Ai^2 + Bi^2)^{1/2} on (-8, 0).

Accuracy target, validated by the oracle battery: relative error below 1e-8
measured against max(|J_n(x)|, n^{-1/3}).  The n^{-1/3} floor is the natural
amplitude scale at the turning point; deep in the evanescent region absolute
accuracy at that scale is what the glancing-weight computations require.
Orders up to 1e6 are certified: the oracle battery reaches 1e5, and the
tests compare with frozen Miller-recurrence values at n = 1e5 and 1e6.

Zeros of J_n: ``bessel_zero_seed`` (Airy-zero transplantation for n >= 1,
McMahon for n = 0) and ``bessel_zero_candidates`` (the radial indices that
may have a zero in an interval, from ``bessel_zero_index``) are the only
zero seeds and index ranges; :mod:`glancelab.modes` computes none itself.

The module has no dependencies beyond numpy and never calls scipy; the
independent checks live in :mod:`glancelab.oracle`.
"""

from __future__ import annotations

import functools
import math

import numpy as np


class NumericalError(Exception):
    """An iteration failed to converge or left its domain of validity."""


# ----------------------------------------------------------------------
# Airy function
# ----------------------------------------------------------------------

def _airy_uv_coefficients(kmax: int) -> tuple[tuple[float, float], ...]:
    """(u_k, v_k) for k = 1..kmax (DLMF 9.7.1-9.7.2).

    u_0 = v_0 = 1, u_{k+1} = u_k (6k+5)(6k+3)(6k+1)/(216 (k+1) (2k+1)),
    v_k = -(6k+1)/(6k-1) u_k.
    """
    out = []
    uk = 1.0
    for k in range(kmax):
        uk = uk * (6 * k + 5) * (6 * k + 3) * (6 * k + 1) / (216.0 * (k + 1) * (2 * k + 1))
        out.append((uk, -(6 * k + 7) / (6 * k + 5) * uk))
    return tuple(out)


_AIRY_UV = _airy_uv_coefficients(60)


def _airy_u_terms(xi: float):
    """Return [(u_k / xi^k, v_k / xi^k)] for the Airy asymptotic series,
    stopping at the smallest term (asymptotic optimal truncation)."""
    prev = 1.0
    terms = [(1.0, 1.0)]
    inv = 1.0 / xi
    scale = 1.0
    for uk, vk in _AIRY_UV:
        scale *= inv
        t = uk * scale
        if abs(t) >= prev:
            break
        terms.append((t, vk * scale))
        prev = abs(t)
        if abs(t) < 1e-18:
            break
    return terms


def _airy_asymp_pos(x: float) -> tuple[float, float]:
    """(Ai, Ai') for large positive x (DLMF 9.7.5-9.7.6)."""
    xi = (2.0 / 3.0) * x ** 1.5
    terms = _airy_u_terms(xi)
    su = 0.0
    sv = 0.0
    sign = 1.0
    for tu, tv in terms:
        su += sign * tu
        sv += sign * tv
        sign = -sign
    pref = math.exp(-xi) / (2.0 * math.sqrt(math.pi))
    ai = pref * x ** -0.25 * su
    aip = -pref * x ** 0.25 * sv
    return ai, aip


def _airy_asymp_neg(x: float, xi: float) -> tuple[float, float]:
    """(Ai, Ai') at -x for large positive x (DLMF 9.7.9-9.7.10), given the
    phase xi = (2/3) x^{3/2}."""
    terms = _airy_u_terms(xi)
    ce = se = 0.0   # even-index sums (u, v)
    co = so = 0.0   # odd-index sums
    for k, (tu, tv) in enumerate(terms):
        s = -1.0 if (k // 2) % 2 else 1.0   # (-1)^{floor(k/2)}
        if k % 2 == 0:
            ce += s * tu
            se += s * tv
        else:
            co += s * tu
            so += s * tv
    w = xi - 0.25 * math.pi
    cw, sw = math.cos(w), math.sin(w)
    pref = 1.0 / math.sqrt(math.pi)
    ai = pref * x ** -0.25 * (cw * ce + sw * co)
    aip = pref * x ** 0.25 * (sw * se - cw * so)
    return ai, aip


# The asymptotic series serve |x| >= _AIRY_ASYMP; inside, Taylor transport
# from (Ai, Ai') at +8 or -8.  The anchors are 30-digit values computed
# offline in arbitrary precision: the asymptotic series is good only to
# ~9e-15 at x = -8, more than the transport itself adds on (-8, 0).
_AIRY_ASYMP = 8.0
_AIRY_ANCHOR_POS = (4.69220761609923162564908170349e-8,
                    -1.34143929790678657429115370793e-7)
_AIRY_ANCHOR_NEG = (-5.27050503563862026220826757939e-2,
                    9.35560938198306551025522462133e-1)


def _airy_transport(x: float) -> tuple[float, float]:
    """(Ai, Ai') on (-8, 8) by Taylor transport from the anchor at +8 or -8.

    For x >= 0 it starts from (Ai, Ai')(8) and steps left: the growing
    (Bi-direction) error component decays that way, so the anchor's
    relative accuracy survives.  For x < 0 it starts from (Ai, Ai')(-8) and
    steps right; there neither solution grows, and the cancelling Taylor
    terms cost a few tens of ulps of the local amplitude.  Each step is at
    most 2 long, with 40 coefficients from
    (k+2)(k+1) a_{k+2} = c a_k + a_{k-1} for y'' = (c + t) y.
    """
    if x >= 0.0:
        c, (y, yp) = _AIRY_ASYMP, _AIRY_ANCHOR_POS
    else:
        c, (y, yp) = -_AIRY_ASYMP, _AIRY_ANCHOR_NEG
    while abs(x - c) > 1e-12:
        h = max(-2.0, min(2.0, x - c))
        a = [y, yp, c * y / 2.0]
        for k in range(3, 40):
            a.append((c * a[k - 2] + a[k - 3]) / ((k - 1) * k))
        val = der = 0.0
        for k in range(39, 0, -1):
            val = val * h + a[k]
            der = der * h + k * a[k]
        y, yp = val * h + y, der
        c += h
    return y, yp


def _airy_pair(x: float) -> tuple[float, float]:
    if x <= -_AIRY_ASYMP:
        return _airy_asymp_neg(-x, (2.0 / 3.0) * (-x) ** 1.5)
    if x < _AIRY_ASYMP:
        return _airy_transport(x)
    return _airy_asymp_pos(x)


def airy_ai(x: float) -> float:
    """Airy function Ai(x) on the real line.

    Poincare asymptotics for |x| >= 8 (DLMF 9.7.5, 9.7.9); inside, Taylor
    transport from (Ai, Ai')(+8) leftward for x >= 0 and from (Ai, Ai')(-8)
    rightward for x < 0, all in float64.  Relative error below 5e-16 on
    [0, 8) and ~3e-15 at x = 8; on the negative axis the error stays below
    1e-14 of the local amplitude, so it is relative only away from zeros.
    """
    return _airy_pair(float(x))[0]


def airy_ai_prime(x: float) -> float:
    """Derivative Ai'(x); same method regions as :func:`airy_ai`."""
    return _airy_pair(float(x))[1]


def airy_zero(m: int) -> float:
    """The m-th negative zero a_m of Ai (m >= 1), by Newton from the
    asymptotic seed a_m ~ -u (1 + 5/(48 u^3)), u = (3 pi (4m-1)/8)^{2/3}
    (DLMF 9.9.6 truncated).  Results are memoised per m.
    """
    if m < 1:
        raise ValueError("zero index starts at 1")
    return _airy_zero(m)


# a quasimode window enumeration asks for each m many times; 4096 entries
# (about a megabyte) cover every index below Lambda ~ 1.3e4
@functools.lru_cache(maxsize=4096)
def _airy_zero(m: int) -> float:
    u = (3.0 * math.pi * (4 * m - 1) / 8.0) ** (2.0 / 3.0)
    x = -u * (1.0 + 5.0 / (48.0 * u ** 3))
    for _ in range(30):
        ai, aip = _airy_pair(x)
        d = ai / aip
        x -= d
        if abs(d) < 1e-14 * abs(x):
            return x
    raise NumericalError(f"Airy zero {m} did not converge")


# ----------------------------------------------------------------------
# Turning-point variable of the uniform Bessel asymptotic
# ----------------------------------------------------------------------

def phase_integral(w: float) -> float:
    """g(w) = sqrt(w^2 - 1) - arccos(1/w) for w >= 1 (DLMF 10.20.3 scaled).

    This is (2/3)(-zeta)^{3/2} as a function of z = w on the oscillatory
    side.  Stable near w = 1 via the odd series of t - arctan(t).
    """
    if w < 1.0 - 1e-12:
        raise ValueError("phase integral defined for w >= 1")
    t2 = (w - 1.0) * (w + 1.0)
    return _t_minus_atan(math.sqrt(t2), t2) if t2 > 0.0 else 0.0


def _t_minus_atan(t: float, t2: float) -> float:
    """t - arctan(t) given t and t2 = t^2, by the odd series
    t^3/3 - t^5/5 + ... for t < 0.1, where the difference cancels."""
    if t >= 0.1:
        return t - math.atan(t)
    term = t * t2 / 3.0
    total = term
    for k in range(1, 24):
        term *= -t2 * (2 * k + 1) / (2 * k + 3)
        total += term
        if abs(term) <= 1e-18 * abs(total):
            break
    return total


def zeta_of_z(z: float) -> float:
    """The uniform-asymptotic variable zeta(z) for z > 0 (DLMF 10.20.2-3).

    (2/3)(-zeta)^{3/2} = sqrt(z^2-1) - arccos(1/z)          for z >= 1,
    (2/3) zeta^{3/2}   = log((1 + sqrt(1-z^2))/z) - sqrt(1-z^2)  for z <= 1.
    """
    if z <= 0.0:
        raise ValueError("zeta_of_z needs z > 0")
    if z >= 1.0:
        w = phase_integral(z)
        return -(1.5 * w) ** (2.0 / 3.0)
    s = math.sqrt((1.0 - z) * (1.0 + z))
    if s < 0.1:
        # log((1+s)/z) - s = artanh(s) - s = s^3/3 + s^5/5 + ...
        term = s ** 3 / 3.0
        w = term
        for k in range(1, 24):
            term *= s * s * (2 * k + 1) / (2 * k + 3)
            w += term
            if term <= 1e-18 * w:
                break
    else:
        w = math.log((1.0 + s) / z) - s
    return (1.5 * w) ** (2.0 / 3.0)


def z_of_zeta(zeta: float) -> float:
    """Inverse of :func:`zeta_of_z` on the oscillatory side (zeta <= 0).

    Solves t - arctan(t) = (2/3)(-zeta)^{3/2} by Newton in t = sqrt(z^2-1),
    where the equation is monotone with derivative t^2/(1+t^2).
    """
    if zeta > 0.0:
        raise ValueError("z_of_zeta implemented for zeta <= 0")
    w = (2.0 / 3.0) * (-zeta) ** 1.5
    if w == 0.0:
        return 1.0
    t = (3.0 * w) ** (1.0 / 3.0) if w < 0.5 else w + 0.5 * math.pi
    for _ in range(60):
        t2 = t * t
        f = _t_minus_atan(t, t2) - w
        fp = t2 / (1.0 + t2)
        d = f / fp
        t -= d
        if abs(d) <= 1e-15 * max(t, 1.0):
            return math.sqrt(1.0 + t * t)
    raise NumericalError(f"z_of_zeta failed at zeta = {zeta}")


# ----------------------------------------------------------------------
# Bessel J, hybrid dispatch
# ----------------------------------------------------------------------

def _bessel_series_ascending(n: int, x: float) -> float:
    """Ascending series with log-space prefactor (DLMF 10.2.2)."""
    if x == 0.0:
        return 1.0 if n == 0 else 0.0
    xl = np.longdouble(x)
    q = -xl * xl / 4.0
    term = np.longdouble(1.0)
    total = term
    for k in range(1, 400):
        term = term * q / np.longdouble(k * (n + k))
        total += term
        if abs(term) <= 1e-22 * abs(total):
            break
    log_pref = n * math.log(x / 2.0) - math.lgamma(n + 1)
    if log_pref < -700.0:
        # prefactor underflows float64; the value is indistinguishable from 0
        # at the 1e-300 scale, which satisfies the absolute tolerance
        return 0.0
    return float(total) * math.exp(log_pref)


def _hankel_pq(nu: int, x: float) -> tuple[float, float]:
    """P and Q of the Hankel expansion for nu in {0, 1} (DLMF 10.17.3)."""
    mu = 4.0 * nu * nu
    p = 1.0
    q_ = (mu - 1.0) / (8.0 * x)
    tp = 1.0      # |a_{2k}| x^{-2k}, currently k = 0
    prev = 1.0
    k = 1
    sign = -1.0
    while k < 40:
        tp = tp * (mu - (4 * k - 3) ** 2) * (mu - (4 * k - 1) ** 2) \
            / ((2 * k - 1) * 2 * k * 64.0 * x * x)
        if abs(tp) >= prev:   # asymptotic series started to diverge
            break
        p += sign * tp
        q_ += sign * tp * (mu - (4 * k + 1) ** 2) / ((2 * k + 1) * 8.0 * x)
        prev = abs(tp)
        if prev < 1e-19:
            break
        sign = -sign
        k += 1
    return p, q_


def _bessel_hankel(nu: int, x: float) -> float:
    """J_nu(x) for nu in {0, 1} and x >= 17 (DLMF 10.17.3), ~2e-15 accurate."""
    p, q = _hankel_pq(nu, x)
    w = x - 0.5 * nu * math.pi - 0.25 * math.pi
    return math.sqrt(2.0 / (math.pi * x)) * (p * math.cos(w) - q * math.sin(w))


def _bessel_recurrence_pair(n: int, x: float) -> tuple[float, float]:
    """(J_{n-1}, J_n) by forward recurrence from Hankel-seeded J_0, J_1.

    Forward recurrence is well conditioned while the order stays below the
    turning point; the dispatcher only calls this for x >= n - 4 n^{1/3}.
    """
    j_prev = _bessel_hankel(0, x)
    if n == 0:
        # caller wants (J_{-1}, J_0) = (-J_1, J_0)
        return -_bessel_hankel(1, x), j_prev
    j = _bessel_hankel(1, x)
    two_over_x = 2.0 / x
    for k in range(1, n):
        j_prev, j = j, two_over_x * k * j - j_prev
    return j_prev, j


# Orders at and above which the O(n) forward recurrence is never used.  From
# here on the truncation error of the uniform expansion is below 3e-13 of
# the scaled J; at n = 150 it is 9e-13, at n = 100 4e-12 (near z = 1.02 to
# 1.05).  Higher crossovers do not make the quasimode windows (orders up to
# 2000) faster.
_N_U = 200

# Half-width, in n^{2/3} zeta, of the strip around the turning point where the
# Maclaurin series below replace the closed forms of A_1, B_0, B_1.  Those
# cancel there: their rounding error grows like 2e-11 |n^{2/3} zeta|^{-5}
# of the scaled J, 2e-11 at 0.1 but 2e-16 at 1.0, where the eight-term series
# (|zeta| < N_U^{-2/3} < 0.03) are still exact to rounding.
_UNIFORM_STRIP = 1.0

# Maclaurin coefficients in zeta (ascending powers) of r = (zeta/(1-z^2))^{1/2}
# and of B_0, A_1, B_1.  Derived offline in 120-digit arithmetic from the
# closed forms in _bessel_uniform, by interpolation at Chebyshev nodes in
# |zeta| <= 0.2 (a second node set on |zeta| <= 0.3 agrees to 1e-42);
# r(0) = 2^{-1/3}, B_0(0) = 2^{1/3}/70, A_1(0) = -1/225.
_R_SERIES = (0.79370052598409973738, 0.25198420997897463295,
             0.045714285714285714286, -0.00040314947351573319994,
             -0.0029837091365063498076, -0.00072680081822938965796,
             0.000071988918930253531099, 0.000093046470951874072842)
_B0_SERIES = (0.017998872141355330925, 0.0088888888888888888889,
              0.0016256871626835734881, -0.00036428486521990960368,
              -0.00030206044899922450943, -0.000058443572545668708922,
              0.000016769870920170089627, 0.000013016402516458538868)
_A1_SERIES = (-0.0044444444444444444444, -0.0014637074635031449702,
              0.00070641727241968956931, 0.00067288760622093955427,
              0.00015400276720923507972, -0.000057663018476394250809,
              -0.000049886522195168320285, -0.000010429604367829555299)
_B1_SERIES = (-0.0014928295321342917205, -0.0013940630797773654917,
              -0.00038209541455316256374, 0.00016909214802859954808,
              0.00017098534913549511981, 0.000041056073909885070129,
              -0.000017066235326534381065, -0.000015505462076725412276)


def _maclaurin(coeffs: tuple[float, ...], t: float) -> float:
    total = 0.0
    for c in reversed(coeffs):
        total = total * t + c
    return total


def _bessel_uniform(n: int, x: float) -> float:
    """Olver's uniform expansion to second order (DLMF 10.20.4):

        J_n(n z) ~ (4 zeta / (1 - z^2))^{1/4}
            (Ai(n^{2/3} zeta) / n^{1/3} (1 + A_1 / n^2)
             + Ai'(n^{2/3} zeta) / n^{5/3} (B_0 + B_1 / n^2)),

    with A_1, B_0, B_1 from DLMF 10.20.10-11: sums of (3/2)^j u_j, v_j
    (DLMF 9.7.2) times zeta^{-3j/2} times the Debye polynomials U_0..U_3
    (DLMF 10.41.10) at p = (1 - z^2)^{-1/2}.  Every term pairs odd powers of
    zeta^{-1/2} and p, so with y = 1 - z^2 and r = (zeta / y)^{1/2} it is
    real on both sides of the turning point: zeta^{-1/2} p = r / zeta,
    p^2 = 1 / y.  This is the substitution zeta^{1/2} -> i (-zeta)^{1/2},
    p -> -i (z^2 - 1)^{-1/2} on the oscillatory side.  In the strip
    |n^{2/3} zeta| < _UNIFORM_STRIP, where those closed forms cancel, the
    Maclaurin series in zeta take over.
    """
    z = x / n
    zeta = zeta_of_z(z)
    arg = n ** (2.0 / 3.0) * zeta
    if arg <= -_AIRY_ASYMP:
        # the Airy phase (2/3)(-arg)^{3/2} is n g(z) exactly; taken from g
        # it skips the round trip through zeta, which costs ~n eps of phase
        ai, aip = _airy_asymp_neg(-arg, n * phase_integral(z))
    else:
        ai, aip = _airy_pair(arg)
    if abs(arg) < _UNIFORM_STRIP:
        r = _maclaurin(_R_SERIES, zeta)
        b0 = _maclaurin(_B0_SERIES, zeta)
        a1 = _maclaurin(_A1_SERIES, zeta)
        b1 = _maclaurin(_B1_SERIES, zeta)
    else:
        q = 1.0 / ((1.0 - z) * (1.0 + z))   # p^2
        r = math.sqrt(zeta * q)
        rz = r / zeta                        # zeta^{-1/2} p
        iz2 = 1.0 / (zeta * zeta)
        u1 = (3.0 - 5.0 * q) / 24.0          # U_1(p) / p
        u2 = q * (81.0 - q * (462.0 - 385.0 * q)) / 1152.0
        u3 = q * (30375.0 - q * (369603.0 - q * (765765.0 - 425425.0 * q))) \
            / 414720.0                       # U_3(p) / p
        # (3/2) u_1 = 5/48, (3/2) v_1 = -7/48, (9/4) u_2 = 385/4608,
        # (9/4) v_2 = -455/4608, (27/8) u_3 = 85085/663552
        b0 = -rz * u1 - 5.0 / 48.0 * iz2
        a1 = u2 - 7.0 / 48.0 * rz * u1 / zeta - 455.0 / 4608.0 * iz2 / zeta
        b1 = (-rz * u3 - 5.0 / 48.0 * iz2 * u2
              - 385.0 / 4608.0 * rz * u1 * iz2 / zeta
              - 85085.0 / 663552.0 * iz2 * iz2 / zeta)
    n2 = float(n) * n
    return math.sqrt(2.0 * r) * (ai / n ** (1.0 / 3.0) * (1.0 + a1 / n2)
                                 + aip / n ** (5.0 / 3.0) * (b0 + b1 / n2))


def _region(n: int, x: float) -> str:
    """Which method serves J_n(x): "series", "recurrence" or "uniform"."""
    if n < 0:
        raise ValueError("order must be nonnegative")
    if x < 0.0:
        raise ValueError("argument must be nonnegative")
    if x <= 17.0 or x * x <= 4.0 * (n + 1.0):
        return "series"
    if n < _N_U and x >= n - 4.0 * n ** (1.0 / 3.0):
        return "recurrence"
    return "uniform"


def bessel_j(n: int, x: float) -> float:
    """Bessel function J_n(x), n >= 0, uniformly accurate in large order.

    Served by the method ``_region`` picks (see the module notes); from
    n = N_U on the cost does not grow with the order.

    Relative error below 1e-8 measured against max(|J_n(x)|, n^{-1/3});
    validated for orders up to 1e6: by the oracle battery
    (``glancelab selftest``) up to 1e5, and by frozen Miller-recurrence
    values at n = 1e5 and 1e6 in the tests.
    """
    x = float(x)
    region = _region(n, x)
    if region == "series":
        return _bessel_series_ascending(n, x)
    if region == "recurrence":
        return _bessel_recurrence_pair(n, x)[1]
    return _bessel_uniform(n, x)


def bessel_j_pair(n: int, x: float) -> tuple[float, float]:
    """(J_{n-1}(x), J_n(x)), same regions and accuracy as :func:`bessel_j`.

    One recurrence pass in the recurrence region, and from N_U on two
    uniform evaluations (orders n - 1 and n): O(1) in the order.
    """
    x = float(x)
    region = _region(n, x)
    if region == "recurrence":
        return _bessel_recurrence_pair(n, x)
    if region == "uniform" and n >= _N_U:
        return _bessel_uniform(n - 1, x), _bessel_uniform(n, x)
    if n == 0:
        return -bessel_j(1, x), bessel_j(0, x)
    return bessel_j(n - 1, x), bessel_j(n, x)


def bessel_j_prime(n: int, x: float) -> float:
    """d/dx J_n(x) via J_n' = J_{n-1} - (n/x) J_n (DLMF 10.6.2)."""
    if x == 0.0:
        return 0.5 if n == 1 else 0.0
    jm1, jn = bessel_j_pair(n, x)   # for n = 0, jm1 is already -J_1
    return jm1 - (n / x) * jn


# ----------------------------------------------------------------------
# Zeros of Bessel J
# ----------------------------------------------------------------------

def bessel_zero_index(n: int, x: float) -> float:
    """Continuous zero index: the m-th positive zero of J_n has index ~m.

    m(x) = n g(x/n)/pi + 1/4 for n >= 1 (x above the turning point),
    x/pi + 1/4 for n = 0.  Accurate to O(1/n) resp. O(1/x), monotone in x.
    """
    if n == 0:
        return x / math.pi + 0.25
    if x <= n:
        return 0.0
    return n * phase_integral(x / n) / math.pi + 0.25


def bessel_zero_candidates(n: int, lo: float, hi: float) -> range:
    """Radial indices m whose zero j_{n,m} may lie in [lo, hi].

    From floor(m(lo)) to ceil(m(hi)) + 1 for the continuous zero index m(x)
    of :func:`bessel_zero_index`, whose O(1/n) error the margin covers.
    """
    return range(max(1, math.floor(bessel_zero_index(n, lo))),
                 math.ceil(bessel_zero_index(n, hi)) + 2)


def bessel_zero_seed(n: int, m: int) -> float:
    """Asymptotic estimate of the m-th positive zero of J_n (m >= 1).

    Airy-zero transplantation j_{n,m} ~ n z(n^{-2/3} a_m) for n >= 1
    (DLMF 10.21.41 leading term), McMahon's expansion for n = 0
    (DLMF 10.21.19).
    """
    if m < 1:
        raise ValueError("zero index starts at 1")
    if n < 0:
        raise ValueError("order must be nonnegative")
    if n == 0:
        beta = (m - 0.25) * math.pi
        return beta + 1.0 / (8.0 * beta) - 124.0 / (3.0 * (8.0 * beta) ** 3)
    return n * z_of_zeta(n ** (-2.0 / 3.0) * airy_zero(m))


def bessel_zero(n: int, m: int) -> float:
    """The m-th positive zero of J_n (m >= 1), to ~1e-12 relative.

    Newton on J_n from :func:`bessel_zero_seed`, with the derivative from
    the recurrence pair.
    """
    lam = bessel_zero_seed(n, m)
    # half the local zero spacing bounds the allowed Newton excursion
    spacing = math.pi / math.sqrt(max(lam * lam - n * n, 1.0)) * lam if lam > n \
        else 1.0
    lo, hi = lam - 0.75 * spacing, lam + 0.75 * spacing
    for _ in range(40):
        jm1, jn = bessel_j_pair(n, lam)
        deriv = jm1 - (n / lam) * jn
        if deriv == 0.0:
            raise NumericalError(f"flat Newton step at zero ({n}, {m})")
        d = jn / deriv
        lam_new = lam - d
        if not (lo <= lam_new <= hi):
            lam_new = 0.5 * (lam + (hi if d < 0 else lo))
        if abs(lam_new - lam) <= 1e-13 * lam:
            return lam_new
        lam = lam_new
    raise NumericalError(f"Bessel zero ({n}, {m}) did not converge")


# ----------------------------------------------------------------------
# Associated Legendre at the equator
# ----------------------------------------------------------------------

def legendre_equator(l: int, m: int) -> float:
    """Equator value of the orthonormal spherical-harmonic colatitude factor.

    Closed form (DLMF 14.5.1 with normalization):

        Nbar_l^m P_l^m(0) = (-1)^{(l+m)/2}
            sqrt((2l+1)/(4 pi) (l-m)!/(l+m)!) (l+m-1)!!/(l-m)!!

    for l + m even, 0 for l + m odd; Condon-Shortley phase included, so this
    equals Y_l^m(pi/2, 0).  Evaluated in log-Gamma space; valid to l ~ 1e6
    within ~1e-10.
    """
    if m < 0 or l < m:
        raise ValueError("need 0 <= m <= l")
    if (l + m) % 2 == 1:
        return 0.0
    a, b = l + m - 1, l - m          # a odd (or -1 when l = m = 0), b even
    log_odd = (math.lgamma(a + 2) - (a + 1) / 2 * math.log(2.0)
               - math.lgamma((a + 1) / 2 + 1)) if a >= 1 else 0.0
    log_even = b / 2 * math.log(2.0) + math.lgamma(b / 2 + 1)
    log_norm = 0.5 * (math.log(2 * l + 1) - math.log(4.0 * math.pi)
                      + math.lgamma(l - m + 1) - math.lgamma(l + m + 1))
    sign = -1.0 if ((l + m) // 2) % 2 else 1.0
    return sign * math.exp(log_norm + log_odd - log_even)
