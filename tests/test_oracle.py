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

from glancelab import modes, oracle

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
    """One pass of Miller's backward recurrence, each coefficient formed
    inside the loop.

    Runs B_{k-1} = (2k/x) B_k - B_{k+1} down from trial index `start`
    with trial data (0, 1), in extended precision, rescaling on the fly
    (the trial solution grows by thousands of orders of magnitude above
    the turning point), and normalizes with J_0(x) + 2 sum_{k>=1} J_{2k}(x)
    = 1 (DLMF 10.12.4).  Returns the normalized J_n(x).
    """
    two_over_x = np.longdouble(2.0) / np.longdouble(x)
    b_hi = np.longdouble(0.0)
    b = np.longdouble(1.0)
    even_sum = np.longdouble(0.0)
    b_n = np.longdouble(0.0)
    big = np.longdouble(10.0) ** 4000
    small = np.longdouble(10.0) ** -4000
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
        k -= 1
    if n == 0:
        b_n = b
    return float(b_n / (b + 2.0 * even_sum))


def miller_series(n, x):
    """J_n(x) by Miller's recurrence: the tests' relative reference, which
    resolves the deep-evanescent values that the quadrature oracle gives
    only to an absolute 1e-16.

    Start rule: with m = max(n, x) and step = 20 + ceil(12 m^{1/3}), the
    first pass starts at int(m) + step, and each further pass starts `step`
    higher, until two successive passes agree to 1e-13 relative (at most
    12 passes).  The step is sized by the Airy decay past the turning point
    k = x: the relative error of a pass at order n shrinks like
    exp(-(4/3) t^{3/2}) with t = 2^{1/3} (start - m) / m^{1/3}, so at
    start - m >= 12 m^{1/3} the first pass is already converged and the
    second only confirms it.  The constant 20 covers small m, where the
    Airy scaling does not yet apply.
    """
    if x == 0.0:
        return 1.0 if n == 0 else 0.0
    m = max(n, x)
    step = 20 + math.ceil(12.0 * m ** (1.0 / 3.0))
    start = int(m) + step
    prev = None
    for _ in range(12):
        val = miller_pass_per_step(n, x, start)
        # |J| <= 1 always, so near a zero an absolute floor of 1e-15 is the
        # honest meaning of "converged"
        if prev is not None and abs(val - prev) <= 1e-13 * max(abs(val), 0.01):
            return val
        prev = val
        start += step
    raise AssertionError(f"Miller recurrence did not stabilize for J_{n}({x})")


# (n, x) on both sides of the turning point, at the origin and far from it
SCIPY_CASES = [(0, 1e4), (1, 1e-3), (0, 1e-6), (5000, 10.0), (100000, 99000.0),
               (100000, 101000.0), (3, 250.0), (50000, 50000.0)]


class TestStartRule:
    @pytest.mark.parametrize("n,x", SCIPY_CASES)
    def test_against_scipy(self, n, x):
        # the tests' Miller reference; scipy's jv (Amos) shares no code with
        # Miller's recurrence
        got = miller_series(n, x)
        want = float(scipy.special.jv(n, x))
        assert abs(got - want) / max(abs(want), (n + 1.0) ** (-1.0 / 3.0)) <= 1e-12


def _battery_values():
    """The quadrature at every (n, x) the battery checks specfun.bessel_j
    at, and at its two frozen anchors."""
    cases = oracle.BESSEL_CASES + [(1, J0_ZERO_1), (100, 130.0)]
    return cases, np.array([oracle.bessel_series(n, x) for n, x in cases])


class TestQuadrature:
    @pytest.mark.parametrize("n,x", SCIPY_CASES)
    def test_against_scipy(self, n, x):
        # scipy's jv (Amos) shares no code with the quadrature
        got = oracle.bessel_series(n, x)
        want = float(scipy.special.jv(n, x))
        assert abs(got - want) / max(abs(want), (n + 1.0) ** (-1.0 / 3.0)) <= 1e-12

    def test_matches_miller_at_every_battery_case(self):
        # worst measured 9e-16, at (100000, 100400)
        cases, got = _battery_values()
        want = np.array([miller_series(n, x) for n, x in cases])
        n = np.array([n for n, _ in cases])
        scale = np.maximum(np.abs(want), (n + 1.0) ** (-1.0 / 3.0))
        assert np.max(np.abs(got - want) / scale) <= 1e-14

    def test_aliasing_margin_suffices(self, monkeypatch):
        # doubling the margin past (n + x)/2 moves no battery value by more
        # than rounding: the aliased terms are far below it
        _, got = _battery_values()
        intervals = oracle._intervals

        def doubled(n, x):
            return 2 * intervals(n, x) - np.floor(0.5 * (n + x)).astype(np.int64)

        monkeypatch.setattr(oracle, "_intervals", doubled)
        _, wide = _battery_values()
        assert np.max(np.abs(wide - got)) <= 4e-16

    def test_array_call_equals_scalar_calls(self):
        # elements of one run of nodes and of several (M > _CHUNK from
        # x = 8000 on), and the origin, in a 2-D array
        x = np.array([[12000.0, 3.5, 0.0], [9000.0, 20060.0, 250.25]])
        got = oracle.bessel_series(3, x)
        assert got.shape == x.shape
        want = [[oracle.bessel_series(3, v) for v in row]
                for row in x.tolist()]
        assert np.array_equal(got, want)
        assert oracle.bessel_series(3, np.zeros(0)).shape == (0,)

    @pytest.mark.parametrize("x", [math.nan, math.inf])
    def test_rejects_non_finite(self, x):
        with pytest.raises(ValueError):
            oracle.bessel_series(1, x)


class TestQuadratureWork:
    @staticmethod
    def _bound(n, x):
        # (n + x)/2 nodes plus the aliasing margin 30 + 8 ceil(m^{1/3}),
        # where Miller's recurrence took two passes of over max(n, x) steps
        return 0.5 * (n + x) + 8.0 * np.cbrt(np.maximum(n, x)) + 38.0

    @pytest.mark.parametrize("n,x", [(100000, 100400.0), (20000, 20600.0),
                                     (0, 1e4), (5000, 10.0)])
    def test_node_count(self, monkeypatch, n, x):
        # the call takes one cosine per node, M - 1 in all, and one per
        # entry of its two tables of ceil(sqrt(M)) angles
        sizes = []
        cos = np.cos
        monkeypatch.setattr(np, "cos",
                            lambda a: sizes.append(np.size(a)) or cos(a))
        oracle.bessel_series(n, x)
        monkeypatch.undo()
        bound = self._bound(n, x)
        assert sum(sizes) <= bound + 2 * math.ceil(math.sqrt(bound))

    def test_every_battery_call_within_the_bound(self, monkeypatch):
        # (n, x, M) of every call; it evaluates M - 1 nodes per element
        calls = []
        intervals = oracle._intervals

        def recording(n, x):
            m = intervals(n, x)
            calls.append((n, x.copy(), m))
            return m

        monkeypatch.setattr(oracle, "_intervals", recording)
        assert oracle.run_all().all_passed
        assert len(calls) > 50
        for n, x, m in calls:
            assert np.all(m <= self._bound(n, x)), (n, x)
        # about 1.9e5 nodes in all
        assert sum(int(m.sum()) for _, _, m in calls) <= 2.5e5


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
    def test_checks_the_package_normalization(self, monkeypatch):
        # the closed form checks the quadrature; this check holds
        # modes._normalizations, which scales every CSV amplitude, to it
        name = "modes normalization vs quadrature"
        check = {c.name: c for c in oracle.run_all().checks}[name]
        assert check.passed and check.worst < 0.1
        exact = modes._normalizations
        monkeypatch.setattr(modes, "_normalizations",
                            lambda n, lam: exact(n, lam) * (1.0 + 1e-11))
        check = {c.name: c for c in oracle.run_all().checks}[name]
        assert not check.passed

    def test_results_are_python_bool_and_float(self):
        # `selftest` prints them as JSON, which takes no numpy scalar
        for check in oracle.run_all().checks:
            assert (type(check.passed), type(check.worst)) == (bool, float), \
                check.name
