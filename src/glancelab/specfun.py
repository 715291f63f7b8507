"""Special functions for the large-order regime, self-contained.

Everything the mode machinery needs: Bessel J of integer order accurate
uniformly in (order, argument) including orders ~1e6, Airy Ai on the real
line, zeros of both, the turning-point change of variables from the uniform
asymptotic theory, and equator values of normalized associated Legendre
functions.

Design notes
------------
Each function has one implementation, in numpy, over the elements of its
arguments: they are scalars or arrays that broadcast together.  Scalars in
give a Python float out (a tuple of two for ``bessel_j_pair``); arrays in
give an array of the broadcast shape.  Only ``airy_zero`` (one index) and
``legendre_equator`` (one degree and order) take scalars alone.  Orders,
degrees and zero indices are integers: a non-integral or non-finite one
raises ValueError rather than being truncated.

Every element is computed from its own arguments alone: series are Horner
sums, never matrix products, whose BLAS kernels order their sums by the
shapes of the operands.  So an element has the same bits in any array call
as alone, with any BLAS build, and no output downstream depends on how its
callers batch; ``tests/test_structure.py`` keeps matrix products out.

Bessel J has one dispatch, ``_bessel_j``: it splits its elements by the one
test ``_regions``, as masks, between three methods, each used strictly inside
the region where it was validated against backward-recurrence oracles.
``bessel_j`` is that dispatch at the elements of its arguments, and
``bessel_j_pair`` is it at the two orders |n - 1| and n in one call, so each
member of a pair has the bits of ``bessel_j`` at its order:

- ascending power series (DLMF 10.2.2) where x <= 17 or x^2 <= 4(n+1),
  element by element in long double;
- forward recurrence seeded by order-0/1 Hankel expansions (DLMF 10.17.3),
  only for orders n < N_U = 200 and x >= n - 4 n^{1/3}; one sweep over the
  orders serves every element, so it costs O(n);
- everywhere else Olver's uniform Airy expansion with the second-order terms
  A_1, B_0, B_1 (DLMF 10.20.4, 10.20.10-11 with the Debye polynomials of
  10.41.10), on both sides of and at the turning point.  It costs O(1) in
  the order.  Its truncation error is below 3e-13 of the scaled J from
  n = N_U on and falls like n^{-4} at fixed z (at n = 100 it is 4.5e-12,
  which sets N_U); rounding in the Airy phase adds ~n eps far above the
  turning point (4e-12 at n = 1e6, z = 2).
  The closed forms of A_1, B_0, B_1 cancel near zeta = 0, so in the strip
  |n^{2/3} zeta| < 1 their Maclaurin series in zeta replace them.

The Airy factors of ``airy_ai``, ``airy_ai_prime`` and the uniform
expansion come from the one dispatch ``_airy_pair``, keyed on the one
constant _AIRY_ASYMP = 8:

- |x| >= 8: the Poincare asymptotic series (DLMF 9.7.5-6, 9.7.9-10),
  truncated at their smallest term or after the first term below 1e-18,
  the number of terms read off the phase xi = (2/3)|x|^{3/2}, which the
  uniform expansion passes as n w; relative error ~3e-15 at |x| = 8;
- |x| < 8: Taylor transport from correctly rounded (Ai, Ai') at +8 for
  x >= 0, stepping left so that the growing Bi-direction error decays, and
  at -8 for x < 0, stepping right where neither solution grows.  Against
  30-digit values the error is below 1.3e-15 relative on [0, 8) and below
  1e-14 of the local amplitude (Ai^2 + Bi^2)^{1/2} on (-8, 0).

Accuracy target, validated by the oracle battery: relative error below 1e-8
measured against max(|J_n(x)|, n^{-1/3}).  The n^{-1/3} floor is the natural
amplitude scale at the turning point; deep in the evanescent region absolute
accuracy at that scale is what the glancing-weight computations require.
Orders up to 1e6 are certified: the oracle battery reaches 1e5, and the
tests compare with frozen Miller-recurrence values at n = 1e5 and 1e6.

Zeros of J_n: ``bessel_zero_seed`` (Airy-zero transplantation for n >= 1,
McMahon for n = 0) and ``bessel_zero_candidate_ranges`` (the indices whose
zero can lie in a window, for any orders each with its own window, from one
``bessel_zero_index`` call) are the only zero seeds and index ranges;
:mod:`glancelab.modes` computes none itself.  ``bessel_zero`` solves every
zero it is given in one Newton on ``bessel_j_pair``; selection (the top few
ranked candidates of every order of a sweep) and window enumeration (every
candidate of every order of every window of an ensemble) each make one call.
It and ``z_of_zeta`` share the module's one Newton iteration, ``_newton``.
``airy_zero`` and the seed share one rule for a_m, ``_airy_zeros``: a table
of float literals for m < 10, and the closed form of DLMF 9.9.18 (six terms
in t^-2, t = 3 pi (4m - 1)/8) from there on, within 2 ulp of a_m.

The module has no dependencies beyond numpy and never calls scipy; the
independent checks live in :mod:`glancelab.oracle`.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import NumericalFailure


class NumericalError(NumericalFailure):
    """An iteration failed to converge or left its domain of validity."""


def _flat(x):
    """The elements of a scalar or array as a 1-d float array, and its
    shape; ValueError unless every element is finite."""
    x = np.asarray(x, dtype=float)
    if not np.isfinite(x).all():
        raise ValueError(f"arguments must be finite, got {x}")
    return x.ravel(), x.shape


def _integers(v, what: str) -> np.ndarray:
    """v as an int64 array; ValueError unless every element is a finite
    integer (integer arrays pass unchecked)."""
    v = np.asarray(v)
    if v.dtype.kind not in "biu" and not (
            np.isfinite(v) & (v == np.floor(v))).all():
        raise ValueError(f"{what} must be a finite integer, got {v}")
    return v.astype(np.int64)


def _as_arrays(n, x, dtype=float):
    """Integer orders n and finite arguments x broadcast together: both as
    1-d arrays, and their shape.  With dtype int64, x holds zero indices, which
    are checked like the orders."""
    x = (_integers(x, "zero index") if dtype is np.int64
         else _flat(x)[0].reshape(np.shape(x)))
    n, x = np.broadcast_arrays(np.asarray(n), x)
    return _integers(n, "order").ravel(), x.ravel(), n.shape


def _shaped(values: np.ndarray, shape):
    """1-d results as a Python float for scalar arguments (shape ()), else
    as an array of the arguments' shape."""
    return float(values[0]) if shape == () else values.reshape(shape)


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


def _airy_thresholds() -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Where the terms u_k xi^-k of the asymptotic series stop falling and
    where they drop below 1e-18 (v_k is within a factor 1.4 of u_k).

    Term k is smaller than term k - 1 while xi exceeds the ratio
    u_k / u_{k-1} (the first tuple; increasing, ~k/2), and below 1e-18 once
    xi exceeds (1e18 u_k)^{1/k}.  That bound falls up to k = 39, where it is
    19.3, and grows after; the second tuple holds its negatives up to there,
    so that both tuples ascend.
    """
    us = [1.0] + [uk for uk, _ in _AIRY_UV]
    ratio = tuple(b / a for a, b in zip(us, us[1:]))
    tiny = [-(1e18 * uk) ** (1.0 / k) for k, uk in enumerate(us[1:], 1)]
    return ratio, tuple(tiny[:tiny.index(max(tiny)) + 1])


_AIRY_RATIO, _AIRY_TINY = _airy_thresholds()


def _airy_terms(xi: np.ndarray) -> np.ndarray:
    """How many terms k = 1..K the asymptotic series keep at each phase of
    the array xi: up to the smallest term (optimal truncation), or up to
    the first term below 1e-18, whichever comes first.
    """
    return np.minimum(np.searchsorted(_AIRY_RATIO, xi),
                      np.searchsorted(_AIRY_TINY, -xi, side="right") + 1)


@functools.cache
def _airy_asymp_signed(neg: bool) -> np.ndarray:
    """Rows k = 0..60 of the coefficients that :func:`_airy_asymps` sums
    against xi^-k: (-1)^k (u_k, v_k) on the positive axis; on the negative
    one (-1)^{floor(k/2)} (u_k, v_k), in the columns (ce, se) of the even-k
    sums and (co, so) of the odd-k sums; each row a column vector."""
    k = np.arange(len(_AIRY_UV) + 1)[:, None]
    uv = np.array(((1.0, 1.0),) + _AIRY_UV)
    if not neg:
        return np.where(k & 1, -uv, uv)[:, :, None]
    uv = np.where(k & 2, -uv, uv)
    return np.hstack([np.where(k & 1, 0.0, uv),
                      np.where(k & 1, uv, 0.0)])[:, :, None]


def _airy_asymps(x: np.ndarray, xi: np.ndarray, neg: bool):
    """(Ai, Ai') at x (neg False, DLMF 9.7.5-6) or at -x (neg True,
    DLMF 9.7.9-10) for an array of x >= 8 with phases xi = (2/3) x^{3/2},
    each element's series truncated by :func:`_airy_terms` and summed by
    Horner in 1/xi: sorted by descending term count, the elements still
    summing at term k are a prefix, and each enters at its own last term."""
    terms = _airy_terms(xi)
    order = np.argsort(-terms, kind="stable")
    s = 1.0 / xi[order]
    rows = _airy_asymp_signed(neg)
    live = np.searchsorted(-terms[order], -np.arange(terms.max() + 1),
                           side="right").tolist()
    total = np.zeros((rows.shape[1], s.size))
    for k in range(len(live) - 1, -1, -1):
        t = total[:, :live[k]]
        t *= s[:live[k]]
        t += rows[k]
    sums = total[:, np.argsort(order)]
    lo, hi = x ** -0.25, x ** 0.25
    if not neg:
        pref = np.exp(-xi) / (2.0 * math.sqrt(math.pi))
        return pref * lo * sums[0], -pref * hi * sums[1]
    ce, se, co, so = sums
    w = xi - 0.25 * math.pi
    cw, sw = np.cos(w), np.sin(w)
    pref = 1.0 / math.sqrt(math.pi)
    return pref * lo * (cw * ce + sw * co), pref * hi * (sw * se - cw * so)


# The asymptotic series serve |x| >= _AIRY_ASYMP; inside, Taylor transport
# from (Ai, Ai') at +8 or -8.  The anchors are 30-digit values computed
# offline in arbitrary precision: the asymptotic series is good only to
# ~9e-15 at x = -8, more than the transport itself adds on (-8, 0).
_AIRY_ASYMP = 8.0
_AIRY_ANCHOR_POS = (4.69220761609923162564908170349e-8,
                    -1.34143929790678657429115370793e-7)
_AIRY_ANCHOR_NEG = (-5.27050503563862026220826757939e-2,
                    9.35560938198306551025522462133e-1)


@functools.cache
def _airy_taylor(c: float) -> np.ndarray:
    """The Taylor step of :func:`_airy_transports` from c: row k of the
    (40, 4, 1) array holds the coefficients of h^k in (y(c+h), y'(c+h)) as
    linear forms in (y(c), y'(c)): y from y, y from y', y' from y, y' from y',
    from (k+2)(k+1) a_{k+2} = c a_k + a_{k-1} for y'' = (c + t) y."""
    al, be = [1.0, 0.0, c / 2.0], [0.0, 1.0, 0.0]
    for k in range(3, 40):
        al.append((c * al[k - 2] + al[k - 3]) / ((k - 1) * k))
        be.append((c * be[k - 2] + be[k - 3]) / ((k - 1) * k))
    k = np.arange(1, 40)
    out = np.zeros((40, 4))
    out[:, 0], out[:, 1] = al, be
    out[:-1, 2], out[:-1, 3] = k * al[1:], k * be[1:]
    return out[:, :, None]


def _airy_transports(x: np.ndarray):
    """(Ai, Ai') of every element of an array in (-8, 8) by Taylor
    transport from the anchor at +8 or -8.

    For x >= 0 it starts from (Ai, Ai')(8) and steps left: the growing
    (Bi-direction) error component decays that way, so the anchor's
    relative accuracy survives.  For x < 0 it starts from (Ai, Ai')(-8) and
    steps right; there neither solution grows, and the cancelling Taylor
    terms cost a few tens of ulps of the local amplitude.  The elements of
    one side still stepping stand at the same c and step by 2 (the last
    step by what is left), each by the Horner sum of :func:`_airy_taylor`
    at its own step length.  An element leaves once it has arrived.
    """
    ai, aip = np.empty_like(x), np.empty_like(x)
    for side, c, (y0, yp0) in ((x >= 0.0, _AIRY_ASYMP, _AIRY_ANCHOR_POS),
                               (x < 0.0, -_AIRY_ASYMP, _AIRY_ANCHOR_NEG)):
        idx = np.flatnonzero(side)
        ai[idx], aip[idx] = y0, yp0
        step = -2.0 if c > 0.0 else 2.0
        while True:
            idx = idx[np.abs(x[idx] - c) > 1e-12]
            if not idx.size:
                break
            gap = x[idx] - c
            q = _maclaurin(_airy_taylor(c), np.clip(gap, -2.0, 2.0))
            y, yp = ai[idx], aip[idx]
            ai[idx], aip[idx] = q[0] * y + q[1] * yp, q[2] * y + q[3] * yp
            idx = idx[np.abs(gap) > 2.0]
            c += step
    return ai, aip


def _airy_pair(x: np.ndarray, xi=None):
    """(Ai, Ai') of every element of a 1-d array, the one Airy dispatch: the
    asymptotic series for |x| >= 8 at the phases xi = (2/3)|x|^{3/2} (from
    x unless the caller knows them better), Taylor transport inside."""
    ai, aip = np.empty_like(x), np.empty_like(x)
    neg, pos = x <= -_AIRY_ASYMP, x >= _AIRY_ASYMP
    mid = ~(neg | pos)
    if xi is None:
        xi = (2.0 / 3.0) * np.abs(x) ** 1.5
    for sel, flip in ((neg, True), (pos, False)):
        if sel.any():
            ai[sel], aip[sel] = _airy_asymps(np.abs(x[sel]), xi[sel], flip)
    if mid.any():
        ai[mid], aip[mid] = _airy_transports(x[mid])
    return ai, aip


def airy_ai(x):
    """Airy function Ai(x) on the real line.

    Poincare asymptotics for |x| >= 8 (DLMF 9.7.5, 9.7.9); inside, Taylor
    transport from (Ai, Ai')(+8) leftward for x >= 0 and from (Ai, Ai')(-8)
    rightward for x < 0, all in float64.  Relative error below 1.3e-15 on
    [0, 8) and ~3e-15 at x = 8; on the negative axis the error stays below
    1e-14 of the local amplitude, so it is relative only away from zeros.
    """
    x, shape = _flat(x)
    return _shaped(_airy_pair(x)[0], shape)


def airy_ai_prime(x):
    """Derivative Ai'(x); same method regions as :func:`airy_ai`."""
    x, shape = _flat(x)
    return _shaped(_airy_pair(x)[1], shape)


def airy_zero(m: int) -> float:
    """The m-th negative zero a_m of Ai (m >= 1): a_1 ... a_9 from a table
    of float literals, within 6 ulp; from m = 10 on, the closed form of
    DLMF 9.9.18 (:func:`_airy_zero_closed`), within 2 ulp."""
    _integers(m, "zero index")
    if m < 1:
        raise ValueError("zero index starts at 1")
    return float(_airy_zeros(np.array([m], dtype=np.int64))[0])


# a_1 ... a_9, 6, 2, 3, 0, 0, 0, 1, 1 and 0 ulp from the correctly rounded
# zeros (Newton on Ai from the closed form reaches these bits).  The closed
# form below is within 1.9 ulp of a_m on m = 10 ... 1e6 (against 40-digit
# values at 167 indices); at m = 9 it is 7 ulp off, at m = 8 25.
_AIRY_ZEROS_LOW = (-2.3381074104597643, -4.0879494441309685,
                   -5.520559828095548, -6.786708090071759, -7.944133587120853,
                   -9.02265085334098, -10.040174341558087,
                   -11.008524303733264, -11.936015563236262)


def _airy_zero_closed(m):
    """a_m = -T(t), t = 3 pi (4m - 1) / 8, with six terms of DLMF 9.9.18:

        T(t) ~ t^{2/3} (1 + 5/48 t^-2 - 5/36 t^-4 + 77125/82944 t^-6
                        - 108056875/6967296 t^-8
                        + 162375596875/334430208 t^-10).

    `m` is an int or an integer array; the same arithmetic serves both.
    """
    t = 0.375 * math.pi * (4 * m - 1)
    x = t * t
    u = x ** (1.0 / 3.0)
    # one Newton step on u^3 = t^2 removes the rounding of the exponent 1/3
    u = u - (u * u * u - x) / (3.0 * u * u)
    s = 1.0 / x
    return -u * (1.0 + s * (5.0 / 48.0 + s * (-5.0 / 36.0 + s * (
        77125.0 / 82944.0 + s * (-108056875.0 / 6967296.0
                                 + s * (162375596875.0 / 334430208.0))))))


def _airy_zeros(m: np.ndarray) -> np.ndarray:
    """a_m for an integer array of m >= 1: the rule of :func:`airy_zero`."""
    a = _airy_zero_closed(m)
    low = m <= len(_AIRY_ZEROS_LOW)
    a[low] = np.take(_AIRY_ZEROS_LOW, m[low] - 1)
    return a


# ----------------------------------------------------------------------
# Turning-point variable of the uniform Bessel asymptotic
# ----------------------------------------------------------------------

def _maclaurin(coeffs, t):
    """Horner sum of coeffs[0] + coeffs[1] t + ... (two or more terms,
    floats or arrays that broadcast with t); t is left as it is."""
    total = coeffs[-1] * t + coeffs[-2]
    for c in coeffs[-3::-1]:
        total *= t
        total += c
    return total


def phase_integral(w):
    """g(w) = sqrt(w^2 - 1) - arccos(1/w) for w >= 1 (DLMF 10.20.3 scaled).

    This is (2/3)(-zeta)^{3/2} as a function of z = w on the oscillatory
    side.  Stable near w = 1 via the odd series of t - arctan(t).
    """
    w, shape = _flat(w)
    if (w < 1.0 - 1e-12).any():
        raise ValueError("phase integral defined for w >= 1")
    t2 = np.maximum((w - 1.0) * (w + 1.0), 0.0)
    return _shaped(_t_minus_atans(np.sqrt(t2), t2), shape)


# t - arctan t and artanh t - t cancel for small t: a rounding of the
# arctan or log term is amplified by about 3/t^2 (300 at t = 0.1), and
# the phase n g(w) of the uniform expansion multiplies it by the order.
# Below _TAIL_SERIES they are summed as t t^2 P(t^2) from their odd series
# t^3/3 -+ t^5/5 + ...: the 12 odd terms up to t^25 leave an error below
# 2e-18 relative for t < 0.2.  Above it the amplification is below 75.
_TAIL_SERIES = 0.2
_ATAN_TAIL = tuple((-1.0) ** j / (2 * j + 3) for j in range(12))
_ATANH_TAIL = tuple(1.0 / (2 * j + 3) for j in range(12))


def _t_minus_atans(t: np.ndarray, t2: np.ndarray) -> np.ndarray:
    """t - arctan(t) of every element of arrays (t, t2 = t^2); below
    t = _TAIL_SERIES, where the difference cancels, by its odd series."""
    g = t - np.arctan(t)
    small = t < _TAIL_SERIES
    if small.any():
        ts, t2s = t[small], t2[small]
        g[small] = ts * t2s * _maclaurin(_ATAN_TAIL, t2s)
    return g


def zeta_of_z(z):
    """The uniform-asymptotic variable zeta(z) for z > 0 (DLMF 10.20.2-3).

    (2/3)(-zeta)^{3/2} = sqrt(z^2-1) - arccos(1/z)          for z >= 1,
    (2/3) zeta^{3/2}   = log((1 + sqrt(1-z^2))/z) - sqrt(1-z^2)  for z <= 1.
    """
    z, shape = _flat(z)
    if (z <= 0.0).any():
        raise ValueError("zeta_of_z needs z > 0")
    return _shaped(_zeta_and_phase(z)[0], shape)


def _zeta_and_phase(z: np.ndarray):
    """zeta(z) of every element of an array of z > 0, with the
    w = (2/3)|zeta|^{3/2} it raises to the power 2/3; on the oscillatory
    side w is the :func:`phase_integral` of z, bit for bit."""
    t2 = (z - 1.0) * (z + 1.0)      # z^2 - 1; -s^2 on the evanescent side
    t = np.sqrt(np.abs(t2))
    osc = t2 >= 0.0
    # log((1+s)/z) - s = artanh(s) - s, by its odd series where it cancels
    w = np.log((1.0 + t) / z) - t
    w[osc] = _t_minus_atans(t[osc], t2[osc])
    small = ~osc & (t < _TAIL_SERIES)
    if small.any():
        ts, s2 = t[small], -t2[small]
        w[small] = ts * s2 * _maclaurin(_ATANH_TAIL, s2)
    return np.where(osc, -1.0, 1.0) * (1.5 * w) ** (2.0 / 3.0), w


def _newton(step, x, rtol, what, lo=None, hi=None):
    """The roots of Newton's iteration from the 1-d array of starts x, all
    at once: step(live, x) returns (f, f') at the iterates x of the starts
    `live` still iterating.  With a bracket (lo, hi), arrays like x, a step
    that would leave it goes halfway to the edge it heads for.  An element
    retires once its step f/f', or with a bracket the step x - x_new it took,
    falls to rtol max(x_new, 1) (either rule alone would move roots of the
    callers by an ulp), so its iterates and its root depend on it alone.
    NumericalError names what(position) of a start whose f' is 0, or that
    still iterates after 40 steps; every root measured takes at most 5.
    """
    root = np.empty_like(x)
    live = np.arange(x.size)
    for _ in range(40):
        if not live.size:
            break
        f, df = step(live, x)
        if not df.all():
            flat = live[np.flatnonzero(df == 0.0)[0]]
            raise NumericalError(f"flat Newton step at {what(flat)}")
        d = f / df
        new = x - d
        if lo is not None:
            edge = np.where(d < 0, hi[live], lo[live])
            new = np.where((lo[live] <= new) & (new <= hi[live]), new,
                           0.5 * (x + edge))
            d = x - new
        done = np.abs(d) <= rtol * np.maximum(new, 1.0)
        root[live[done]] = new[done]
        keep = ~done
        live, x = live[keep], new[keep]
    if live.size:
        raise NumericalError(f"{what(live[0])} did not converge")
    return root


def z_of_zeta(zeta):
    """Inverse of :func:`zeta_of_z` on the oscillatory side (zeta <= 0):
    :func:`_newton` on t - arctan(t) = (2/3)(-zeta)^{3/2} in t = sqrt(z^2-1),
    monotone with derivative t^2/(1+t^2), to a step of 1e-15."""
    zeta, shape = _flat(zeta)
    if (zeta > 0.0).any():
        raise ValueError("z_of_zeta implemented for zeta <= 0")
    w = (2.0 / 3.0) * (-zeta) ** 1.5
    z = np.ones_like(w)             # z(0) = 1, the turning point
    idx = np.flatnonzero(w != 0.0)
    w = w[idx]
    # on the convex t - arctan(t) = w, (3w)^{1/3} starts below the root and
    # w + pi/2 above it; Newton overshoots from below, then falls to the root
    t = np.where(w < 0.5, (3.0 * w) ** (1.0 / 3.0), w + 0.5 * math.pi)

    def step(live, t):
        t2 = t * t
        return _t_minus_atans(t, t2) - w[live], t2 / (1.0 + t2)

    t = _newton(step, t, 1e-15,
                lambda i: f"z_of_zeta at zeta = {zeta[idx[i]]}")
    z[idx] = np.sqrt(1.0 + t * t)
    return _shaped(z, shape)


# ----------------------------------------------------------------------
# Bessel J, hybrid dispatch
# ----------------------------------------------------------------------

def _bessel_series_ascending(n: int, x: float) -> float:
    """Ascending series with log-space prefactor (DLMF 10.2.2); at x = 0,
    and where x / 2 underflows, the limit: 1 for n = 0, else 0."""
    if x / 2.0 == 0.0:
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


def _bessel_hankels(x: np.ndarray) -> np.ndarray:
    """J_0 and J_1 (the two rows) at every element of an array of x >= 17
    by the Hankel expansion P cos w - Q sin w (DLMF 10.17.3), ~2e-15
    accurate; each element's series stops where its terms start to grow or
    fall below 1e-19."""
    nu = np.array([[0.0], [1.0]])
    mu = 4.0 * nu * nu
    x = np.broadcast_to(x, (2, x.size))
    p = np.ones_like(x)
    q_ = (mu - 1.0) / (8.0 * x)
    tp = np.ones_like(x)
    prev = np.ones_like(x)
    on = np.ones(x.shape, dtype=bool)
    sign = -1.0
    for k in range(1, 40):
        tp = tp * (mu - (4 * k - 3) ** 2) * (mu - (4 * k - 1) ** 2) \
            / ((2 * k - 1) * 2 * k * 64.0 * x * x)
        on &= np.abs(tp) < prev
        if not on.any():
            break
        p += np.where(on, sign * tp, 0.0)
        q_ += np.where(on, sign * tp * (mu - (4 * k + 1) ** 2)
                       / ((2 * k + 1) * 8.0 * x), 0.0)
        prev = np.abs(tp)
        on &= prev >= 1e-19
        sign = -sign
    w = x - 0.5 * nu * math.pi - 0.25 * math.pi
    return np.sqrt(2.0 / (math.pi * x)) * (p * np.cos(w) - q_ * np.sin(w))


def _bessel_recurrences(n: np.ndarray, x: np.ndarray) -> np.ndarray:
    """J_n of every element of arrays (n, x) by forward recurrence from
    Hankel-seeded J_0, J_1.

    Forward recurrence is well conditioned while the order stays below the
    turning point; the dispatcher only uses it for x >= n - 4 n^{1/3}.
    One forward sweep over k serves all elements.  The elements are sorted
    by descending order, so that those still recurring at step k are a
    prefix, and each leaves the sweep at its own n.  Two rows hold the
    sweep, J_k in row k % 2: the step to J_{k+1} overwrites J_{k-1} in
    place, and an element that has left keeps its J_n in row n % 2.
    """
    order = np.argsort(-n, kind="stable")
    ns = n[order]
    rows = _bessel_hankels(x)[:, order]
    two_over_x = 2.0 / x[order]
    # live[k]: how many elements still need J_{k+1} at step k
    live = np.searchsorted(-ns, -np.arange(1, ns[0] + 1), side="right")
    scratch = np.empty_like(two_over_x)
    c = 0
    for k, size in enumerate(live.tolist()[1:], 1):
        if size != c:   # the elements of order k have left
            c = size
            t, f = scratch[:c], two_over_x[:c]
            even, odd = rows[0, :c], rows[1, :c]
        j, j_prev = (even, odd) if k % 2 == 0 else (odd, even)
        # J_{k+1} = (k (2/x)) J_k - J_{k-1}, written over J_{k-1}
        np.multiply(float(k), f, t)
        np.multiply(t, j, t)
        np.subtract(t, j_prev, j_prev)
    jn = np.empty_like(two_over_x)
    jn[order] = rows[ns % 2, np.arange(ns.size)]
    return jn


# Orders at and above which the O(n) forward recurrence is never used.  The
# margins on both sides, of the scaled J against Miller's backward
# recurrence on x from the recurrence edge n - 4 n^{1/3} to 3000: just
# below, the recurrence gives J_199 within 5.9e-12 (largest at that edge,
# x = 175.6); from here on the truncation error of the uniform expansion is
# below 2.9e-13 (near z = 1.02), and it is 8.9e-13 at n = 150 and 4.5e-12 at
# n = 100.  Both sides are over 1e3 times inside the 1e-8 target.  Higher
# crossovers do not make the quasimode windows (orders up to 2000) faster.
_N_U = 200

# Half-width, in n^{2/3} zeta, of the strip around the turning point where the
# Maclaurin series below replace the closed forms of A_1, B_0, B_1.  Those
# cancel there: their rounding error grows like 2e-11 |n^{2/3} zeta|^{-5}
# of the scaled J, 2e-11 at 0.1 but 2e-16 at 1.0, where the eight-term series
# (|zeta| < N_U^{-2/3} < 0.03) are still exact to rounding.
_UNIFORM_STRIP = 1.0

# Maclaurin coefficients in zeta (ascending powers) of r = (zeta/(1-z^2))^{1/2}
# and of B_0, A_1, B_1.  Derived offline in 120-digit arithmetic from the
# closed forms in _debye_terms, by interpolation at Chebyshev nodes in
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


def _debye_terms(q, zeta, rz):
    """(B_0, A_1, B_1) of :func:`_bessel_uniforms` off the strip, from
    p^2 = q, zeta and zeta^{-1/2} p = rz."""
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
    return b0, a1, b1


def _bessel_uniforms(n: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Olver's uniform expansion to second order (DLMF 10.20.4) at every
    element of arrays (n >= 1, x):

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
    Maclaurin series in zeta take over.  Ai and Ai' come from the one Airy
    dispatch :func:`_airy_pair`, given the phase n w of the argument.
    """
    n = n.astype(float)
    z = x / n
    zeta, w = _zeta_and_phase(z)
    arg = n ** (2.0 / 3.0) * zeta
    # the Airy phase (2/3)|arg|^{3/2} is n w exactly; taken from w it skips
    # the round trip through zeta, which costs ~n eps of phase
    ai, aip = _airy_pair(arg, n * w)
    r, b0, a1, b1 = (np.empty_like(z) for _ in range(4))
    strip = np.abs(arg) < _UNIFORM_STRIP
    if strip.any():
        zs = zeta[strip]
        r[strip] = _maclaurin(_R_SERIES, zs)
        b0[strip] = _maclaurin(_B0_SERIES, zs)
        a1[strip] = _maclaurin(_A1_SERIES, zs)
        b1[strip] = _maclaurin(_B1_SERIES, zs)
    out = ~strip
    if out.any():
        zo, ze = z[out], zeta[out]
        q = 1.0 / ((1.0 - zo) * (1.0 + zo))
        r[out] = np.sqrt(ze * q)
        b0[out], a1[out], b1[out] = _debye_terms(q, ze, r[out] / ze)
    n2 = n * n
    return np.sqrt(2.0 * r) * (ai / n ** (1.0 / 3.0) * (1.0 + a1 / n2)
                               + aip / n ** (5.0 / 3.0) * (b0 + b1 / n2))


def _regions(n: np.ndarray, x: np.ndarray):
    """Which method serves J_n(x) at every element of arrays (n, x), as the
    masks (series, recurrence); the uniform expansion serves the rest."""
    if n.size and (n.min() < 0 or x.min() < 0.0):
        raise ValueError("order and argument must be nonnegative")
    series = (x <= 17.0) | (x * x <= 4.0 * (n + 1.0))
    recurrence = ~series & (n < _N_U) & (x >= n - 4.0 * n ** (1.0 / 3.0))
    return series, recurrence


def _bessel_j(n: np.ndarray, x: np.ndarray) -> np.ndarray:
    """J_n(x) of every element of checked 1-d arrays (n, x), the one Bessel
    dispatch: each element goes to the method of its :func:`_regions`."""
    series, recurrence = _regions(n, x)
    out = np.empty_like(x)
    if recurrence.any():
        out[recurrence] = _bessel_recurrences(n[recurrence], x[recurrence])
    uniform = ~(series | recurrence)
    if uniform.any():
        out[uniform] = _bessel_uniforms(n[uniform], x[uniform])
    for i in np.flatnonzero(series):
        out[i] = _bessel_series_ascending(int(n[i]), float(x[i]))
    return out


def bessel_j(n, x):
    """Bessel function J_n(x), n >= 0, uniformly accurate in large order.

    Each element is served by the method of its region (see the module
    notes): numpy passes for the uniform expansion, one recurrence sweep
    for the recurrence region, and the series element by element.  From
    n = N_U on the cost does not grow with the order.

    Relative error below 1e-8 measured against max(|J_n(x)|, n^{-1/3});
    validated for orders up to 1e6: by the oracle battery
    (``glancelab selftest``) up to 1e5, and by frozen Miller-recurrence
    values at n = 1e5 and 1e6 in the tests.
    """
    n, x, shape = _as_arrays(n, x)
    return _shaped(_bessel_j(n, x), shape)


def bessel_j_pair(n, x):
    """(J_{n-1}(x), J_n(x)): :func:`bessel_j` at the orders |n - 1| and n,
    bit for bit, from one call of its dispatch; for n = 0 the pair is
    (J_{-1}, J_0) = (-J_1, J_0).  O(1) in the order from n = N_U + 1 on."""
    n, x, shape = _as_arrays(n, x)
    jm1, jn = np.split(_bessel_j(np.concatenate([np.abs(n - 1), n]),
                                 np.concatenate([x, x])), 2)
    return _shaped(np.where(n == 0, -jm1, jm1), shape), _shaped(jn, shape)


def bessel_j_prime(n, x):
    """d/dx J_n(x) via J_n' = J_{n-1} - (n/x) J_n (DLMF 10.6.2); where
    x <= 1e-300 n, x = 0 included, the limit at 0: 1/2 for n = 1, else 0
    (within x/4 there, where n/x could overflow and J_n underflow)."""
    n, x, shape = _as_arrays(n, x)
    jm1, jn = bessel_j_pair(n, x)   # for n = 0, jm1 is already -J_1
    origin = x <= n * 1e-300
    deriv = jm1 - (n / np.where(origin, 1.0, x)) * jn
    return _shaped(np.where(origin, np.where(n == 1, 0.5, 0.0), deriv),
                   shape)


# ----------------------------------------------------------------------
# Zeros of Bessel J
# ----------------------------------------------------------------------

def bessel_zero_index(n, x):
    """Continuous zero index: the m-th positive zero of J_n has index ~m.

    m(x) = n g(x/n)/pi + 1/4 for n >= 1 (x above the turning point),
    x/pi + 1/4 for n = 0.  Accurate to O(1/n) resp. O(1/x), monotone in x.
    """
    n, x, shape = _as_arrays(n, x)
    w = np.maximum(x / np.maximum(n, 1), 1.0)
    return _shaped(np.where(n == 0, x / math.pi + 0.25,
                            np.where(x <= n, 0.0,
                                     n * phase_integral(w) / math.pi + 0.25)),
                   shape)


_INDEX_MARGIN = 0.05


def bessel_zero_candidate_ranges(n, lo, hi):
    """The radial indices m whose zero j_{n,m} can lie in [lo, hi], for
    every order of the integer array n, from one array call of
    :func:`bessel_zero_index`.

    lo and hi are numbers or arrays like n (one window per order).  Returns
    the arrays (k, m), ordered by (k, m): the position k in n of each
    candidate's order, and its radial index m.

    A zero in [lo, hi] has m(lo) <= m + e <= m(hi), where m(x) is the
    continuous index of :func:`bessel_zero_index` and e = m(j_{n,m}) - m
    its overshoot.  e > 0, with leading term 5/(48 pi t), t = 3 pi (4m-1)/8,
    in the Airy regime; measured e lies in [7.1e-6, 0.01548] on n = 0..59,
    80 and orders up to 1e5 with m = 1..11, 20, 50, 100, 300, 1000, largest
    at j_{0,1}.  So m runs from ceil(m(lo) - E) to floor(m(hi) + E) with
    the margin E = _INDEX_MARGIN = 0.05, over three times the largest e.
    m(x) grows by at most 1/pi per unit of x, so a unit window leaves most
    orders an empty range.
    """
    n = _integers(n, "order")
    lo, hi = np.broadcast_arrays(np.asarray(lo, dtype=float),
                                 np.asarray(hi, dtype=float), n)[:2]
    index = bessel_zero_index(n, np.stack([lo, hi]))
    first = np.maximum(1, np.ceil(index[0] - _INDEX_MARGIN)).astype(np.int64)
    count = np.maximum(
        np.floor(index[1] + _INDEX_MARGIN).astype(np.int64) + 1 - first, 0)
    offset = np.arange(count.sum()) - np.repeat(np.cumsum(count) - count,
                                                count)
    return (np.repeat(np.arange(n.size), count),
            np.repeat(first, count) + offset)


def bessel_zero_seed(n, m):
    """Asymptotic estimate of the m-th positive zero of J_n (m >= 1).

    Airy-zero transplantation j_{n,m} ~ n z(n^{-2/3} a_m) for n >= 1
    (DLMF 10.21.41 leading term), McMahon's expansion for n = 0
    (DLMF 10.21.19).  a_m is :func:`airy_zero`'s, bit for bit.
    """
    n, m, shape = _as_arrays(n, m, np.int64)
    if m.size and m.min() < 1:
        raise ValueError("zero index starts at 1")
    if n.size and n.min() < 0:
        raise ValueError("order must be nonnegative")
    n1 = np.maximum(n, 1)
    seeds = n1 * z_of_zeta(n1 ** (-2.0 / 3.0) * _airy_zeros(m))
    zero = n == 0
    if zero.any():
        seeds = np.where(zero, _mcmahon(m), seeds)
    return _shaped(seeds, shape)


def _mcmahon(m):
    """McMahon's expansion of j_{0,m} (DLMF 10.21.19), for an int or an
    integer array."""
    beta = (m - 0.25) * math.pi
    return beta + 1.0 / (8.0 * beta) - 124.0 / (3.0 * (8.0 * beta) ** 3)


def _zero_spacing(n: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The local spacing pi x / (x^2 - n^2)^{1/2} of the zeros of J_n near
    x > n (1 for x <= n): Newton's bracket and selection's seed slack."""
    return np.where(x > n, math.pi / np.sqrt(np.maximum(x * x - n * n, 1.0))
                    * x, 1.0)


def bessel_zero(n, m):
    """The m-th positive zero of J_n (m >= 1), to ~1e-12 relative: one
    :func:`_newton` on J_n, its derivative from :func:`bessel_j_pair`, over
    every element of (n, m), from :func:`bessel_zero_seed` in a bracket of
    0.75 local zero spacings, to a step of 1e-13 relative."""
    n, ms, shape = _as_arrays(n, m, np.int64)
    lam = bessel_zero_seed(n, ms)
    half = 0.75 * _zero_spacing(n, lam)

    def step(live, lam):
        jm1, jn = bessel_j_pair(n[live], lam)
        return jn, jm1 - (n[live] / lam) * jn

    return _shaped(_newton(step, lam, 1e-13,
                           lambda i: f"Bessel zero ({n[i]}, {ms[i]})",
                           lam - half, lam + half), shape)


# ----------------------------------------------------------------------
# Associated Legendre at the equator
# ----------------------------------------------------------------------

_LEGENDRE_MAX = 10 ** 6


def legendre_equator(l: int, m: int) -> float:
    """Equator value of the orthonormal spherical-harmonic colatitude factor.

    Closed form (DLMF 14.5.1 with normalization):

        Nbar_l^m P_l^m(0) = (-1)^{(l+m)/2}
            sqrt((2l+1)/(4 pi) (l-m)!/(l+m)!) (l+m-1)!!/(l-m)!!

    for l + m even, 0 for l + m odd; Condon-Shortley phase included, so this
    equals Y_l^m(pi/2, 0).  Evaluated in log-Gamma space, whose differences
    lose about l eps: 1.7e-9 relative at l = 1e6, 5e-8 at 1e7, past the 1e-8
    target, so degrees above _LEGENDRE_MAX = 1e6 raise ValueError.
    """
    _integers(l, "degree")
    _integers(m, "order")
    if not 0 <= m <= l <= _LEGENDRE_MAX:
        raise ValueError(f"need 0 <= m <= l <= {_LEGENDRE_MAX}: l={l}, m={m}")
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
