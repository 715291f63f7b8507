"""Spectral weights and band projections localized at the glancing scale.

For a trace on an interior circle/equator, each angular component k carries
the glancing distance

    sigma = 1 - (h k / R)^2,

the squared cosine of the incidence angle measured from tangency: sigma = 0
is exactly glancing, sigma = 1 is normal incidence, sigma < 0 is evanescent.
``glancing_distance`` computes it for the whole package; the rest weights
trace components as functions of sigma relative to the scale h^rho, where h
is the inverse frequency.

``glancing_weight`` splits a power law at that scale into two terms,

    glancing_weight(sigma, h) = sigma^s * chi1(sigma / h^rho)      (far)
                              + h^{s rho} * chi2(sigma / h^rho)    (near)

with chi1 + chi2 = 1, chi1 vanishing below 1 and equal to 1 above 2.  It
behaves like sigma^s away from glancing and freezes at h^{s rho} inside the
glancing window; for s = 0 it is identically 1.

A ``BandSpec`` instead keeps components with h^{rho2} <= sigma <= h^{rho1}
sharply (endpoints included), which isolates the dyadic-in-scale shells the
scaling experiments measure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class WeightSpec:
    """Parameters of the glancing-scale weight.

    Attributes
    ----------
    s : float
        Power of sigma away from glancing; s = 0 gives a pure cutoff pair.
    rho : float
        Localization exponent: the crossover sits at sigma ~ h^rho.

    The transition on [1, 2] is the one of :func:`cutoff_pair`.
    """
    s: float
    rho: float

    def __post_init__(self):
        if not math.isfinite(self.s):
            raise ValueError("s (--s) must be finite")
        if not (0.0 <= self.rho < math.inf):
            raise ValueError(f"rho = {self.rho} (--rho) must be nonnegative "
                             f"and finite")


@dataclass(frozen=True)
class BandSpec:
    """Sharp band h^{rho2} <= sigma <= h^{rho1}, requiring rho1 < rho2.

    Since h < 1, the exponents order the band as h^{rho2} < h^{rho1}: rho1
    controls the far (large sigma) edge and rho2 the near-glancing edge.
    """
    rho1: float
    rho2: float

    def __post_init__(self):
        if not (0.0 <= self.rho1 < self.rho2):
            raise ValueError(f"rho1 = {self.rho1}, rho2 = {self.rho2} "
                             f"(--rho1, --rho2) need 0 <= rho1 < rho2")


def _check_h(h):
    """h (a scalar or an array) as an array, each element in (0, 1)."""
    h = np.asarray(h, dtype=float)
    if not ((0.0 < h) & (h < 1.0)).all():
        raise ValueError("h must lie in (0, 1)")
    return h


def cutoff_pair(t):
    """The partition (chi1(t), chi2(t)): chi1 = 0 for t <= 1, 1 for t >= 2.

    chi1 ramps across [1, 2] as psi(t - 1), psi(u) = f(u)/(f(u) + f(1-u))
    with f(u) = exp(-1/u): glued exponentials, C^infinity flat at both ends,
    where f(0) = exp(-inf) = 0 gives exactly 0 and 1.  chi2 = 1 - chi1
    exactly, so the pair is a partition of unity by construction.  A scalar
    t gives scalars.
    """
    u = np.clip(np.asarray(t, dtype=float) - 1.0, 0.0, 1.0)
    with np.errstate(divide="ignore"):
        fa = np.exp(-1.0 / u)
        fb = np.exp(-1.0 / (1.0 - u))
    chi1 = fa / (fa + fb)
    return chi1[()], (1.0 - chi1)[()]


def glancing_distance(k, h, radius):
    """The glancing distance 1 - (h k / radius)^2 of angular wavenumbers k
    at inverse frequencies h: numbers or arrays that broadcast."""
    # t * t, not t ** 2: ** goes through pow, which can miss the correctly
    # rounded product by an ulp and change the CSV bytes
    t = h * k / radius
    return 1.0 - t * t


def glancing_weight(sigma, h, spec: WeightSpec):
    """The weight sigma^s chi1(sigma/h^rho) + h^{s rho} chi2(sigma/h^rho).

    Equal to sigma^s for sigma >= 2 h^rho, to h^{s rho} for sigma <= h^rho,
    and a smooth interpolation between the two in the crossover shell.
    Each term is only formed where its cutoff is positive: sigma^s where
    chi1 > 0, so negative (evanescent) sigma is safe, and h^{s rho} where
    chi2 > 0, so a power that overflows to inf meets no zero cutoff and
    gives no nan.  h is a scalar or an array like sigma; each element is
    the scalar call on its own, bit for bit (every power is np.power).
    """
    h = _check_h(h)
    sig = np.asarray(sigma, dtype=float)
    chi1, chi2 = cutoff_pair(sig / h ** spec.rho)
    far = np.power(sig, spec.s, out=np.zeros_like(sig), where=chi1 > 0.0)
    near = np.power(h, spec.s * spec.rho, out=np.zeros_like(chi2),
                    where=chi2 > 0.0)
    return (far * chi1 + near * chi2)[()]


def band_indicator(sigma, h, band: BandSpec):
    """Sharp indicator of h^{rho2} <= sigma <= h^{rho1}, endpoints kept; h
    is a scalar or an array like sigma, as in :func:`glancing_weight`."""
    h = _check_h(h)
    sigma = np.asarray(sigma, dtype=float)
    out = (sigma >= h ** band.rho2) & (sigma <= h ** band.rho1)
    return out if out.ndim else bool(out)


def trace_norm(amplitudes, radius: float):
    """L2 norm over the restriction circle of sum_k a_k e^{i k theta}:
    sqrt(2 pi R sum |a_k|^2) by orthogonality of the angular factors, the
    sum over the last axis of `amplitudes`; a float for a 1-d sequence.
    """
    if not (0.0 < radius < math.inf):
        raise ValueError("radius must be positive and finite")
    power = np.sum(np.abs(np.asarray(amplitudes)) ** 2, axis=-1)
    norm = np.sqrt(2.0 * math.pi * radius * power)
    return norm if norm.ndim else float(norm)
