"""Unit tests for the fast special-function paths.

Frozen reference values were computed to 30 significant digits with an
arbitrary-precision library and hard-coded here; everything else is checked
through identities, interlacing, and round trips.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from glancelab import oracle, specfun

AI_AT_0 = 0.35502805388781723926
AIP_AT_0 = -0.25881940379280679841
AIRY_ZERO_1 = -2.33810741045976703849
AIRY_ZERO_2 = -4.08794944413097061664
AIRY_ZERO_5 = -7.94413358712085312314
J0_ZERO_1 = 2.40482555769577276862
J100_AT_130 = 0.08084377958789141517
ZETA_AT_Z2 = -1.01810488856711602008

# (x, Ai(x), Ai'(x)) to 30 digits across the Taylor-transport region (-8, 8),
# on both sides of x = 0, where the anchor switches from -8 to +8
AIRY_FROZEN = [
    (-7.5, 3.21775716380647875267328543680e-1,
     3.18809506698554596210062906079e-1),
    (-6.0, -3.29145173629823105231448582529e-1,
     3.45935487281342894929779434834e-1),
    (-4.0, -7.02655329492895150990843116318e-2,
     -7.90628575368581380296454445828e-1),
    (-3.0, -3.78814293677658074347243916500e-1,
     3.14583769216598813650787266066e-1),
    (-0.13, 3.88538426666550466643221813469e-1,
     -2.55630331389129215084601534649e-1),
    (0.5, 2.31693606480833489769125254510e-1,
     -2.24910532664683893135996990329e-1),
    (2.0, 3.49241304232743791353220807918e-2,
     -5.30903844336536317039991858787e-2),
    (3.0, 6.59113935746071914425744840796e-3,
     -1.19129767059513184737632325930e-2),
    (4.0, 9.51563851204801873621499968900e-4,
     -1.95864095020417890013814091841e-3),
    (4.4, 4.09973586386962156015536714223e-4,
     -8.81892086491768072474114800491e-4),
    (6.0, 9.94769436025288957023884766883e-6,
     -2.47652003970349547541818253870e-5),
    (7.9, 6.23964009728394047867901474988e-8,
     -1.77299583294303527438764342581e-7),
]

# J_n(x) by Miller's recurrence, frozen from glancelab.oracle.bessel_series:
#   PYTHONPATH=src python -c "from glancelab.oracle import bessel_series; \
#       print(repr(bessel_series(1000000, 2000000.0)))"
# (about 10 s per value at n = 1e6 on one core); they certify bessel_j past
# the orders the oracle battery reaches
MILLER_FROZEN = [
    (100000, 200000.0, -0.0010964176196624307),
    (1000000, 1000400.0, 0.004241171477590452),
    (1000000, 2000000.0, -0.00033747216262191215),
]


def scaled_error(got, want, n):
    return abs(got - want) / max(abs(want), n ** (-1.0 / 3.0))


class TestAiry:
    def test_origin(self):
        assert specfun.airy_ai(0.0) == pytest.approx(AI_AT_0, rel=1e-14)
        assert specfun.airy_ai_prime(0.0) == pytest.approx(AIP_AT_0, rel=1e-14)

    @pytest.mark.parametrize("m,a", [(1, AIRY_ZERO_1), (2, AIRY_ZERO_2),
                                     (5, AIRY_ZERO_5)])
    def test_zeros_frozen(self, m, a):
        assert specfun.airy_zero(m) == pytest.approx(a, rel=1e-13)

    def test_zero_ordering(self):
        zs = [specfun.airy_zero(m) for m in range(1, 30)]
        assert all(b < a for a, b in zip(zs, zs[1:]))
        assert all(abs(specfun.airy_ai(z)) < 1e-11 for z in zs)

    @pytest.mark.parametrize("x, ai, aip", AIRY_FROZEN)
    def test_frozen_values(self, x, ai, aip):
        assert specfun.airy_ai(x) == pytest.approx(ai, rel=1e-12, abs=0.0)
        assert specfun.airy_ai_prime(x) == pytest.approx(aip, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("x", [-8.0, 0.0, 4.5, 8.0])
    def test_region_boundaries_continuous(self, x):
        eps = 1e-7
        lo = specfun.airy_ai(x - eps)
        hi = specfun.airy_ai(x + eps)
        # |Ai'| <= 1.2 on [-8, 8], so the jump across eps must be tiny
        assert abs(hi - lo) < 3.0 * eps

    @settings(max_examples=60, deadline=None)
    @given(st.floats(min_value=-13.0, max_value=9.0))
    def test_wronskian_like_ode_residual(self, x):
        # second difference approximates Ai'' = x Ai
        h = 1e-4
        ai = specfun.airy_ai(x)
        second = (specfun.airy_ai(x + h) - 2.0 * ai + specfun.airy_ai(x - h)) / h**2
        assert second == pytest.approx(x * ai, abs=5e-5)

    def test_prime_matches_difference_quotient(self):
        for x in (-6.3, -1.0, 0.7, 3.0, 5.2, 9.0):
            h = 1e-6
            fd = (specfun.airy_ai(x + h) - specfun.airy_ai(x - h)) / (2 * h)
            assert specfun.airy_ai_prime(x) == pytest.approx(fd, rel=2e-8, abs=1e-12)


class TestTurningPointMap:
    def test_anchor(self):
        assert specfun.z_of_zeta(ZETA_AT_Z2) == pytest.approx(2.0, rel=1e-13)
        assert specfun.zeta_of_z(2.0) == pytest.approx(ZETA_AT_Z2, rel=1e-13)

    def test_at_turning_point(self):
        assert specfun.z_of_zeta(0.0) == 1.0
        assert specfun.zeta_of_z(1.0) == 0.0

    @settings(max_examples=80, deadline=None)
    @given(st.floats(min_value=-60.0, max_value=-1e-8))
    def test_roundtrip_oscillatory(self, zeta):
        z = specfun.z_of_zeta(zeta)
        assert z > 1.0
        assert specfun.zeta_of_z(z) == pytest.approx(zeta, rel=1e-11, abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(st.floats(min_value=1e-6, max_value=0.999999))
    def test_evanescent_branch_positive(self, z):
        assert specfun.zeta_of_z(z) > 0.0

    def test_slope_at_turning_point(self):
        # dz/dzeta -> -2^{-1/3} as zeta -> 0^-
        d = 1e-6
        slope = (specfun.z_of_zeta(-d) - 1.0) / d
        assert slope == pytest.approx(2.0 ** (-1.0 / 3.0), rel=1e-4)


class TestBesselJ:
    def test_trivial_and_frozen(self):
        assert specfun.bessel_j(0, 0.0) == 1.0
        assert specfun.bessel_j(3, 0.0) == 0.0
        assert specfun.bessel_j(100, 130.0) == pytest.approx(J100_AT_130, rel=1e-10)
        assert abs(specfun.bessel_j(0, J0_ZERO_1)) < 1e-13

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            specfun.bessel_j(-2, 1.0)
        with pytest.raises(ValueError):
            specfun.bessel_j(2, -1.0)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=1, max_value=1500),
           st.floats(min_value=0.1, max_value=3000.0))
    def test_three_term_recurrence(self, n, x):
        lhs = specfun.bessel_j(n - 1, x) + specfun.bessel_j(n + 1, x)
        rhs = 2.0 * n / x * specfun.bessel_j(n, x)
        scale = max(abs(rhs), abs(lhs), (n + 1.0) ** (-1.0 / 3.0))
        # the identity mixes dispatch regions, so it doubles as a seam test
        assert lhs == pytest.approx(rhs, abs=4e-8 * scale * max(1.0, 2 * n / x))

    def test_dispatch_seams_continuous(self):
        # below N_U = 200 the uniform expansion hands over to the recurrence
        # at n - 4 n^{1/3}; above it only the ascending-series seam is left
        for n in (150, 400):
            cube = 4.0 * n ** (1.0 / 3.0)
            for x0 in (2.0 * math.sqrt(n + 1.0), n - cube):
                a = specfun.bessel_j(n, x0 * (1 - 1e-9))
                b = specfun.bessel_j(n, x0 * (1 + 1e-9))
                assert a == pytest.approx(b, abs=1e-8 * n ** (-1.0 / 3.0))

    def test_pair_consistent(self):
        for n, x in [(5, 40.0), (500, 520.0), (200, 100.0), (0, 25.0)]:
            jm1, jn = specfun.bessel_j_pair(n, x)
            scale = (n + 1.0) ** (-1.0 / 3.0)
            ref = specfun.bessel_j(n - 1, x) if n >= 1 else -specfun.bessel_j(1, x)
            assert jm1 == pytest.approx(ref, abs=1e-10 * max(abs(ref), scale))
            assert jn == pytest.approx(specfun.bessel_j(n, x),
                                       abs=1e-10 * max(abs(jn), scale))

    def test_prime_matches_difference_quotient(self):
        for n, x in [(0, 5.0), (12, 9.0), (700, 730.0), (80, 50.0)]:
            h = 1e-6 * max(1.0, x)
            fd = (specfun.bessel_j(n, x + h) - specfun.bessel_j(n, x - h)) / (2 * h)
            scale = (n + 1.0) ** (-1.0 / 3.0)
            assert specfun.bessel_j_prime(n, x) == pytest.approx(
                fd, abs=1e-6 * max(abs(fd), scale))


class TestUniformExpansion:
    """The second-order uniform expansion that serves every order >= N_U."""

    @pytest.mark.parametrize("n", [specfun._N_U, 1000, 100000])
    def test_turning_point_matches_miller(self, n):
        x = float(n)
        want = oracle.bessel_series(n, x)
        want_prev = oracle.bessel_series(n - 1, x)
        got = specfun.bessel_j(n, x)
        got_prev, got_pair = specfun.bessel_j_pair(n, x)
        assert all(math.isfinite(v) for v in (got, got_prev, got_pair))
        assert scaled_error(got, want, n) < 1e-8
        assert scaled_error(got_pair, want, n) < 1e-8
        assert scaled_error(got_prev, want_prev, n) < 1e-8

    @pytest.mark.parametrize("n", [specfun._N_U, 1000, 100000])
    @pytest.mark.parametrize("side", [-1.0, 1.0])
    def test_continuous_across_strip_edge(self, n, side):
        # adjacent floats on either side of |n^{2/3} zeta| = strip, where the
        # Maclaurin series in zeta hand over to the closed forms
        def inside(x):
            return abs(n ** (2.0 / 3.0) * specfun.zeta_of_z(x / n)) \
                < specfun._UNIFORM_STRIP
        far = n * (1.0 + side * 2.0 * specfun._UNIFORM_STRIP * n ** (-2.0 / 3.0))
        a, b = float(n), far
        assert inside(a) and not inside(b)
        while True:
            mid = 0.5 * (a + b)
            if mid in (a, b):
                break
            if inside(mid):
                a = mid
            else:
                b = mid
        ja, jb = specfun.bessel_j(n, a), specfun.bessel_j(n, b)
        assert scaled_error(ja, jb, n) < 1e-12

    @pytest.mark.parametrize("n", [specfun._N_U, 1000, 100000])
    def test_no_recurrence_from_crossover_on(self, monkeypatch, n):
        def forbidden(*args):
            raise AssertionError("O(n) recurrence used at a large order")

        monkeypatch.setattr(specfun, "_bessel_recurrence_pair", forbidden)
        for z in (0.9, 1.0, 1.01, 2.0):
            x = n * z
            assert math.isfinite(specfun.bessel_j(n, x))
            assert all(math.isfinite(v) for v in specfun.bessel_j_pair(n, x))
            m = max(1, round(specfun.bessel_zero_index(n, x)))
            assert specfun.bessel_zero(n, m) > n

    @pytest.mark.parametrize("n,x,want", MILLER_FROZEN)
    def test_frozen_miller_values(self, n, x, want):
        assert scaled_error(specfun.bessel_j(n, x), want, n) < 1e-8


class TestBesselZeros:
    def test_first_zero_frozen(self):
        assert specfun.bessel_zero(0, 1) == pytest.approx(J0_ZERO_1, rel=1e-13)

    def test_residuals_tiny(self):
        for n, m in [(0, 3), (1, 1), (10, 2), (150, 1), (2000, 7), (40, 40)]:
            lam = specfun.bessel_zero(n, m)
            scale = max(abs(specfun.bessel_j_prime(n, lam)), 1e-3)
            assert abs(specfun.bessel_j(n, lam)) < 1e-10 * scale * lam ** 0.5

    def test_interlacing(self):
        # j_{n,m} < j_{n+1,m} < j_{n,m+1}
        for n in (0, 3, 57):
            for m in (1, 2, 5):
                a = specfun.bessel_zero(n, m)
                b = specfun.bessel_zero(n + 1, m)
                c = specfun.bessel_zero(n, m + 1)
                assert a < b < c

    def test_zero_index_inverts(self):
        for n, m in [(0, 2), (5, 4), (300, 1), (300, 11), (4000, 3)]:
            lam = specfun.bessel_zero(n, m)
            assert specfun.bessel_zero_index(n, lam) == pytest.approx(m, abs=0.26)
            assert m in specfun.bessel_zero_candidates(n, lam, lam)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=1, max_value=800),
           st.integers(min_value=1, max_value=12))
    def test_zeros_exceed_order(self, n, m):
        assert specfun.bessel_zero(n, m) > n

    def test_rejects_bad_index(self):
        with pytest.raises(ValueError):
            specfun.bessel_zero(3, 0)
        with pytest.raises(ValueError):
            specfun.bessel_zero_seed(0, 0)
        with pytest.raises(ValueError):
            specfun.bessel_zero_seed(-1, 1)


class TestLegendreEquator:
    def test_frozen_values(self):
        assert specfun.legendre_equator(2, 0) == pytest.approx(
            -0.25 * math.sqrt(5.0 / math.pi), rel=1e-14)
        assert specfun.legendre_equator(3, 1) == pytest.approx(
            1.5 * math.sqrt(7.0 / (48.0 * math.pi)), rel=1e-14)
        assert specfun.legendre_equator(0, 0) == pytest.approx(
            math.sqrt(1.0 / (4.0 * math.pi)), rel=1e-14)

    def test_odd_parity_zero(self):
        assert specfun.legendre_equator(5, 2) == 0.0

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=3000))
    def test_magnitude_bounded_by_normalization(self, l):
        # |Y_l^m| on the sphere is maximized off the equator only by ~l^{1/4}
        # factors; the equator value itself stays below sqrt((2l+1)/(4 pi))
        m = l - (l % 2)
        val = specfun.legendre_equator(l, m)
        assert abs(val) <= math.sqrt((2 * l + 1) / (4.0 * math.pi)) + 1e-12

    def test_sign_pattern(self):
        # sign alternates with (l+m)/2
        signs = [specfun.legendre_equator(l, 0) for l in (0, 2, 4, 6)]
        assert signs[0] > 0 > signs[1]
        assert signs[2] > 0 > signs[3]
