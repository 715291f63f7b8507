"""Tests for the independent oracle paths.

Expected values here come from closed forms evaluated inline (double
factorials, Gamma-function expressions, integral representations via
scipy.integrate), from scipy.special, or from frozen high-precision
constants -- never from the fast paths the oracle exists to check.  The
oracle itself runs without scipy.
"""

import math

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from glancelab import oracle

# first zero of J_0 and the slope there
J0_ZERO_1 = 2.40482555769577276862
J1_AT_J0_ZERO_1 = 0.51914749728946678814
# first zero of Ai
AIRY_ZERO_1 = -2.33810741045976703849
# the turning-point variable at which z = 2
ZETA_AT_Z2 = -1.01810488856711602008


def bessel_by_integral(n, x):
    """J_n(x) = (1/pi) int_0^pi cos(n t - x sin t) dt, evaluated adaptively."""
    val, err = quad(lambda t: math.cos(n * t - x * math.sin(t)), 0.0, math.pi,
                    limit=400, epsabs=1e-13, epsrel=1e-12)
    assert err < 1e-9
    return val / math.pi


def legendre_equator_closed(l, m):
    """Orthonormal equator value by the double-factorial closed form."""
    if (l + m) % 2 == 1:
        return 0.0
    # (l+m-1)!!/(l-m)!! in log space; (2k-1)!! = (2k)!/(2^k k!), (2k)!! = 2^k k!
    a, b = l + m - 1, l - m   # a odd (or -1), b even
    log_odd = (math.lgamma(a + 2) - (a + 1) / 2 * math.log(2.0)
               - math.lgamma((a + 1) / 2 + 1)) if a >= 1 else 0.0
    log_even = b / 2 * math.log(2.0) + math.lgamma(b / 2 + 1)
    log_norm = 0.5 * (math.log(2 * l + 1) - math.log(4 * math.pi)
                      + math.lgamma(l - m + 1) - math.lgamma(l + m + 1))
    sign = -1.0 if ((l + m) // 2) % 2 else 1.0
    return sign * math.exp(log_norm + log_odd - log_even)


class TestBesselSeries:
    def test_frozen_anchors(self):
        assert abs(oracle.bessel_series(0, J0_ZERO_1)) < 1e-14
        assert oracle.bessel_series(1, J0_ZERO_1) == pytest.approx(
            J1_AT_J0_ZERO_1, abs=1e-14)
        assert oracle.bessel_series(100, 130.0) == pytest.approx(
            0.08084377958789141517, abs=1e-14)

    @pytest.mark.parametrize("n,x", [(0, 1.0), (3, 2.0), (10, 12.5),
                                     (40, 35.0), (100, 130.0), (7, 0.3)])
    def test_against_integral_representation(self, n, x):
        assert oracle.bessel_series(n, x) == pytest.approx(
            bessel_by_integral(n, x), abs=5e-12)

    def test_at_origin(self):
        assert oracle.bessel_series(0, 0.0) == 1.0
        assert oracle.bessel_series(5, 0.0) == 0.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            oracle.bessel_series(-1, 1.0)
        with pytest.raises(ValueError):
            oracle.bessel_series(1, -1.0)

    @settings(max_examples=25, deadline=None)
    @given(st.floats(min_value=0.5, max_value=40.0))
    def test_parseval_identity(self, x):
        # J_0^2 + 2 sum_{k>=1} J_k^2 = 1  (DLMF 10.12.5 at theta = pi/2... 10.23.3)
        total = oracle.bessel_series(0, x) ** 2
        for k in range(1, int(x) + 40):
            total += 2.0 * oracle.bessel_series(k, x) ** 2
        assert total == pytest.approx(1.0, abs=1e-11)

    def test_derivative_identity(self):
        # J_0' = -J_1 at a generic point
        x = 3.7
        assert oracle.bessel_prime_series(0, x) == pytest.approx(
            -oracle.bessel_series(1, x), abs=1e-14)


def miller_pass_per_step(n, x, start):
    """Reference Miller pass that forms each coefficient inside the loop.

    Each step computes ``two_over_x * np.longdouble(k)``, where
    `oracle._miller_pass` takes the same values from a block product.
    Returns the normalized J_n(x) and the number of 1e-4000 rescales.
    """
    two_over_x = np.longdouble(2.0) / np.longdouble(x)
    b_hi = np.longdouble(0.0)
    b = np.longdouble(1.0)
    even_sum = np.longdouble(0.0)
    b_n = np.longdouble(0.0)
    big = np.longdouble(10.0) ** 4000
    small = np.longdouble(10.0) ** -4000
    rescales = 0
    k = start
    while k >= 1:
        if k == n:
            b_n = b
        if (k & 1) == 0:
            even_sum += b
        b_lo = two_over_x * np.longdouble(k) * b - b_hi
        b_hi = b
        b = b_lo
        if abs(b) > big:
            b *= small
            b_hi *= small
            even_sum *= small
            b_n *= small
            rescales += 1
        k -= 1
    if n == 0:
        b_n = b
    return float(b_n / (b + 2.0 * even_sum)), rescales


class TestMillerPass:
    @pytest.mark.parametrize("n,x,start", [
        (6000, 6050.0, 9000),   # start and n in different 4096-step blocks
        (0, 40.0, 5000),        # n = 0 is read off after the loop
        (4096, 4100.0, 8192),   # n is the first index of the second block
        (4097, 4100.0, 8192),   # n is the last index of the first block
        (700, 1000.0, 4096),    # start exactly one block long
    ])
    def test_bit_identical_to_per_step_loop(self, n, x, start):
        want, _ = miller_pass_per_step(n, x, start)
        assert oracle._miller_pass(n, x, start) == want

    def test_bit_identical_through_rescales(self):
        # from 5000 down to x = 3 the trial solution grows past 1e4000
        want, rescales = miller_pass_per_step(7, 3.0, 5000)
        assert rescales >= 1
        assert oracle._miller_pass(7, 3.0, 5000) == want


def _count_miller_work(monkeypatch):
    """Record (passes, steps) for every `bessel_series` call from now on."""
    calls = []
    miller_pass = oracle._miller_pass
    bessel_series = oracle.bessel_series

    def counting_pass(n, x, start):
        calls[-1][0] += 1
        calls[-1][1] += start   # a pass from `start` makes `start` steps
        return miller_pass(n, x, start)

    def counting_series(n, x):
        calls.append([0, 0])
        return bessel_series(n, x)

    monkeypatch.setattr(oracle, "_miller_pass", counting_pass)
    monkeypatch.setattr(oracle, "bessel_series", counting_series)
    return calls


class TestMillerWork:
    @pytest.mark.parametrize("n,x", [(100000, 100400.0), (20000, 20600.0)])
    def test_large_order_takes_two_passes(self, monkeypatch, n, x):
        calls = _count_miller_work(monkeypatch)
        oracle.bessel_series(n, x)
        (passes, steps), = calls
        assert passes == 2
        # two passes from m + step and m + 2 step cost 2m + 3 step, which is
        # 2.051 m at m = 20600; three passes from m + 20, 1.5 m and 2.25 m
        # would cost 4.77 m
        assert steps <= 2.1 * max(n, x)

    def test_every_battery_call_takes_two_passes(self, monkeypatch):
        calls = _count_miller_work(monkeypatch)
        assert oracle.run_all().all_passed
        assert len(calls) > 100
        assert {passes for passes, _ in calls} == {2}


class TestStartRule:
    @pytest.mark.parametrize("n,x", [
        (0, 1e4), (1, 1e-3), (0, 1e-6), (5000, 10.0), (100000, 99000.0),
        (100000, 101000.0), (3, 250.0), (50000, 50000.0)])
    def test_against_scipy(self, n, x):
        # scipy's jv (Amos) shares no code with Miller's recurrence
        got = oracle.bessel_series(n, x)
        want = float(scipy.special.jv(n, x))
        assert abs(got - want) / max(abs(want), (n + 1.0) ** (-1.0 / 3.0)) <= 1e-12


class TestLegendreRecurrence:
    @pytest.mark.parametrize("l,m", [(0, 0), (1, 1), (2, 0), (2, 2), (3, 1),
                                     (4, 2), (10, 4), (31, 17), (200, 120),
                                     (1501, 1401), (8000, 7804)])
    def test_against_closed_form(self, l, m):
        # lgamma arguments reach ~1.6e4 at the largest degree, so ~1e-11
        # relative noise in the exponent is intrinsic to the closed form
        tol = 1e-12 if l < 100 else 1e-9
        assert oracle.legendre_recurrence(l, m) == pytest.approx(
            legendre_equator_closed(l, m), rel=tol, abs=0.0)

    def test_specific_values(self):
        # Pbar_2^0(0) = -(1/4) sqrt(5/pi), Pbar_3^1(0) = (3/2) sqrt(7/(48 pi))
        assert oracle.legendre_recurrence(2, 0) == pytest.approx(
            -0.25 * math.sqrt(5.0 / math.pi), rel=1e-13, abs=0.0)
        assert oracle.legendre_recurrence(3, 1) == pytest.approx(
            1.5 * math.sqrt(7.0 / (48.0 * math.pi)), rel=1e-13, abs=0.0)

    def test_odd_parity_vanishes(self):
        assert oracle.legendre_recurrence(3, 0) == 0.0
        assert oracle.legendre_recurrence(10, 7) == 0.0

    def test_rejects_bad_orders(self):
        with pytest.raises(ValueError):
            oracle.legendre_recurrence(2, 3)
        with pytest.raises(ValueError):
            oracle.legendre_recurrence(2, -1)


class TestAiryODE:
    def test_origin_constants_match_gamma(self):
        # Ai(0) = 3^{-2/3}/Gamma(2/3), Ai'(0) = -3^{-1/3}/Gamma(1/3)
        assert oracle.AIRY_AT_ZERO == pytest.approx(
            3.0 ** (-2.0 / 3.0) / math.gamma(2.0 / 3.0), rel=1e-15, abs=0.0)
        assert oracle.AIRY_PRIME_AT_ZERO == pytest.approx(
            -(3.0 ** (-1.0 / 3.0)) / math.gamma(1.0 / 3.0), rel=1e-15, abs=0.0)

    def test_first_airy_zero(self):
        xs, ais = oracle.airy_ode_check(x_lo=AIRY_ZERO_1, x_hi=0.0, n_samples=2)
        assert xs[0] == AIRY_ZERO_1
        assert abs(ais[0]) < 1e-13

    def test_frozen_values_on_default_grid(self):
        # Ai by mpmath at 40 digits, at the float grid points themselves
        # (xs[28] is -2.799999999999999, not -2.8)
        frozen = {0: -0.2659834827840777983848, 16: 0.2782502348801975242921,
                  28: -0.2950975929992081194923, 40: 0.03492413042327437913532}
        xs, ais = oracle.airy_ode_check()
        assert [xs[i] for i in frozen] == [-14.0, -7.6, -2.799999999999999, 2.0]
        for i, want in frozen.items():
            assert abs(ais[i] - want) <= 1e-12 * max(abs(want), 1e-6)


class TestTurningPointODE:
    def test_anchor_z_equals_two(self):
        zetas, zs = oracle.olver_ode_check(zeta_lo=ZETA_AT_Z2, n_samples=3)
        assert zs[-1] == pytest.approx(2.0, abs=1e-13)

    def test_frozen_values_on_default_grid(self):
        # z solving sqrt(z^2-1) - arccos(1/z) = (2/3)(-zeta)^{3/2}, by mpmath
        # at 40 digits at the float grid points
        frozen = {12: 4.933280712861822287229, 24: 11.32457477290620927433}
        zetas, zs = oracle.olver_ode_check()
        assert [zetas[i] for i in frozen] == [-3.0000500000000003, -6.0]
        for i, want in frozen.items():
            assert abs(zs[i] - want) <= 1e-13 * want

    def test_monotone_increasing_z(self):
        zetas, zs = oracle.olver_ode_check(zeta_lo=-8.0, n_samples=30)
        assert all(b > a for a, b in zip(zs, zs[1:]))


class TestODESolve:
    def test_harmonic_oscillator(self):
        # y'' = -y with y(0) = 0, y'(0) = 1 is sin
        ts = np.arange(1.0, 11.0)
        ys = oracle._ode_solve(lambda t, y: np.array([y[1], -y[0]]), 0.0,
                               [0.0, 1.0], ts)
        assert np.max(np.abs(ys[:, 0] - np.sin(ts))) <= 1e-13

    def test_turning_point_start_rejects_no_step(self, monkeypatch):
        # the first trial step comes from |df/dy| at the start, so no step
        # of the turning-point or Airy solves is rejected and re-tried
        steps = []
        gbs = oracle._gbs_step

        def logged(f, t, y, h):
            out = gbs(f, t, y, h)
            steps.append(out[0] is not None)
            return out

        monkeypatch.setattr(oracle, "_gbs_step", logged)
        oracle.olver_ode_check()
        oracle.airy_ode_check()
        assert steps and all(steps)

    def test_blow_up_raises(self):
        # y' = y^2, y(0) = 1 is 1/(1 - t), which has no value at t = 1.5
        with pytest.raises(oracle.OracleError):
            oracle._ode_solve(lambda t, y: y * y, 0.0, [1.0], [1.5])


class TestGaussLegendre:
    def test_sine(self):
        assert oracle._gauss_legendre(np.sin, 0.0, math.pi) == pytest.approx(
            2.0, abs=1e-15)

    @pytest.mark.parametrize("degree", [10, 20, 39])
    def test_exact_through_degree_39(self, degree):
        # a 20-point panel integrates degree 39 exactly, so this checks that
        # the weights are right to rounding (with numpy's leggauss weights
        # the error here is 4e-15 to 8e-15)
        got = oracle._gauss_legendre(lambda s: s ** degree, 0.0, 1.0)
        assert abs(got * (degree + 1) - 1.0) <= 1e-15

    def test_kink_inside_every_panel_raises(self):
        # 1/3 is never a panel edge, so the kink of sqrt|s - 1/3| keeps the
        # error near h^{3/2}: no two panel counts agree to 1e-14
        with pytest.raises(oracle.OracleError):
            oracle._gauss_legendre(lambda s: np.sqrt(np.abs(s - 1.0 / 3.0)),
                                   0.0, 1.0)


class TestWeylCount:
    def test_frozen_small_counts(self):
        # zeros of J_n below 10, weighted 2 for n >= 1:
        # n=0: {2.405, 5.520, 8.654}; n=1: {3.832, 7.016}; n=2: {5.136, 8.417};
        # n=3: {6.380, 9.761}; n=4: {7.588}; n=5: {8.771}; n=6: {9.936}
        assert oracle.weyl_count(10.0) == 3 + 2 * (2 + 2 + 2 + 1 + 1 + 1)
        assert oracle.weyl_count(5.0) == 1 + 2 * 1

    def test_window_consistency(self):
        assert (oracle.weyl_count(10.0, 5.0)
                == oracle.weyl_count(10.0) - oracle.weyl_count(5.0))

    def test_agrees_with_smooth_law(self):
        lam = 600.0
        smooth = lam * lam / 4.0 - lam / 2.0
        assert oracle.weyl_count(lam) == pytest.approx(smooth, rel=5e-3, abs=0.0)


class TestQuadratureNorm:
    def test_closed_form_at_first_zero(self):
        got, closed = oracle.disk_quadrature_norm(0, J0_ZERO_1)
        assert closed == pytest.approx(0.5 * J1_AT_J0_ZERO_1 ** 2, rel=1e-13,
                                       abs=0.0)
        assert got == pytest.approx(closed, rel=1e-10, abs=0.0)


class TestBattery:
    def test_results_are_python_bool_and_float(self):
        # `selftest` prints them as JSON, which takes no numpy scalar
        for check in oracle.run_all().checks:
            assert (type(check.passed), type(check.worst)) == (bool, float), \
                check.name
