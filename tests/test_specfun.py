"""Unit tests for the fast special-function paths.

Frozen reference values were computed to 30 significant digits with an
arbitrary-precision library and hard-coded here.  The region-by-region
checks compare with independent references: the quadrature oracle
(:func:`glancelab.oracle.bessel_series`), Miller's recurrence where a value
must be resolved relatively, ``scipy.special.airy``, and 50-digit
``decimal`` arithmetic.  Everything else is checked through
identities, interlacing, and round trips.
"""

import inspect
import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings, strategies as st

from glancelab import modes, oracle, specfun
from test_oracle import miller_series

AI_AT_0 = 0.35502805388781723926
AIP_AT_0 = -0.25881940379280679841
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

# a_m to 30 digits, by mpmath.airyaizero at 40 digits: the nine of the
# literal table, and six at or above the closed form's threshold m = 10, up
# to the largest index of the benchmark sweeps (26211) and beyond
AIRY_ZEROS_30 = {m: Decimal(a) for m, a in [
    (1, "-2.33810741045976703848919725245"),
    (2, "-4.08794944413097061663698870146"),
    (3, "-5.52055982809555105912985551293"),
    (4, "-6.78670809007175899878024638450"),
    (5, "-7.94413358712085312313828055580"),
    (6, "-9.02265085334098038015819083988"),
    (7, "-10.0401743415580859305945567374"),
    (8, "-11.0085243037332628932354396496"),
    (9, "-11.9360155632362625170063649029"),
    (10, "-12.8287767528657572004067294072"),
    (11, "-13.6914890352107179282956967795"),
    (100, "-60.455557274116698707316143204"),
    (1000, "-281.031519612521552835336363964"),
    (26211, "-2480.16392708483257175703276588"),
    (1000000, "-28107.8319793795834876064419863"),
]}
AIRY_ZEROS_LOW = [(m, float(AIRY_ZEROS_30[m])) for m in range(1, 10)]
AIRY_ZEROS_FROZEN = [(m, float(a)) for m, a in AIRY_ZEROS_30.items()
                     if m >= 9]

# J_n(x) by Miller's recurrence, frozen from the oracle when that was its
# method (1.2 s at (1e6, 1.0004e6) and 1.8 s at (1e6, 2e6) on one core of a
# shared 2-vCPU box; `miller_series` of tests/test_oracle.py is the same
# recurrence).  They certify bessel_j past the orders the oracle battery
# reaches, and the quadrature that is now the oracle is tested against them
# (test_quadrature_oracle_reproduces_frozen_miller_values)
MILLER_FROZEN = [
    (100000, 200000.0, -0.0010964176196624307),
    (1000000, 1000400.0, 0.004241171477590452),
    (1000000, 2000000.0, -0.00033747216262191215),
]


def scaled_error(got, want, n):
    return abs(got - want) / max(abs(want), n ** (-1.0 / 3.0))


PI_50 = Decimal("3.1415926535897932384626433832795028841971693993751")


def atan_decimal(t: Decimal) -> Decimal:
    """arctan(t), t >= 0, in the current decimal context: halve the angle
    by t -> t / (1 + sqrt(1 + t^2)) until t <= 0.1, then sum the series."""
    halvings = 0
    while t > Decimal("0.1"):
        t = t / (1 + (1 + t * t).sqrt())
        halvings += 1
    total, term, k = Decimal(0), t, 0
    while abs(term) > Decimal(10) ** -55:
        total += term / (2 * k + 1)
        term *= -t * t
        k += 1
    return total * 2 ** halvings


def phase_integral_decimal(w: float) -> float:
    """g(w) = t - arctan(t), t = sqrt(w^2 - 1), to 50 digits from the
    exact float w."""
    with localcontext() as ctx:
        ctx.prec = 50
        t = (Decimal(w) ** 2 - 1).sqrt()
        return float(t - atan_decimal(t))


def zero_seed_decimal(n: int, m: int) -> float:
    """The seed of the m-th zero of J_n to 50 digits: McMahon's three terms
    for n = 0, else n sqrt(1 + t^2) with t - arctan(t) = (2/3) |a_m|^{3/2} / n
    (the transplant n z(n^{-2/3} a_m)) from the frozen Airy zero a_m."""
    with localcontext() as ctx:
        ctx.prec = 50
        if n == 0:
            beta = (Decimal(m) - Decimal("0.25")) * PI_50
            return float(beta + 1 / (8 * beta)
                         - Decimal(124) / (3 * (8 * beta) ** 3))
        w = Decimal(2) / 3 * AIRY_ZEROS_30[m].copy_abs() ** Decimal("1.5") / n
        t = (3 * w) ** (Decimal(1) / 3) if w < Decimal("0.5") \
            else w + PI_50 / 2
        for _ in range(100):
            step = (t - atan_decimal(t) - w) * (1 + t * t) / (t * t)
            t -= step
            if abs(step) < Decimal(10) ** -45 * t:
                return float(n * (1 + t * t).sqrt())
        raise AssertionError(f"reference seed ({n}, {m}) did not converge")


def z_of_zeta_loop(zeta: np.ndarray) -> np.ndarray:
    """z_of_zeta at an array of zeta <= 0 by a Newton loop of its own, which
    retires an element on its computed step: the reference whose bits the
    shared driver must keep."""
    w = (2.0 / 3.0) * (-zeta) ** 1.5
    z = np.ones_like(w)
    idx = np.flatnonzero(w != 0.0)
    w = w[idx]
    t = np.where(w < 0.5, (3.0 * w) ** (1.0 / 3.0), w + 0.5 * math.pi)
    for _ in range(60):
        if not idx.size:
            return z
        t2 = t * t
        d = (specfun._t_minus_atans(t, t2) - w) / (t2 / (1.0 + t2))
        t = t - d
        done = np.abs(d) <= 1e-15 * np.maximum(t, 1.0)
        z[idx[done]] = np.sqrt(1.0 + t[done] * t[done])
        idx, t, w = idx[~done], t[~done], w[~done]
    raise AssertionError(f"reference z_of_zeta failed at {zeta[idx[0]]}")


def bessel_zero_loop(n: np.ndarray, m: np.ndarray) -> np.ndarray:
    """bessel_zero at integer arrays (n, m) by a bracketed Newton loop of its
    own, which retires an element on the step it took: the reference whose
    bits the shared driver must keep."""
    lam = specfun.bessel_zero_seed(n, m)
    spacing = specfun._zero_spacing(n, lam)
    lo, hi = lam - 0.75 * spacing, lam + 0.75 * spacing
    out = np.empty_like(lam)
    idx = np.arange(lam.size)
    for _ in range(40):
        if not idx.size:
            return out
        jm1, jn = specfun.bessel_j_pair(n, lam)
        d = jn / (jm1 - (n / lam) * jn)
        new = lam - d
        new = np.where((lo <= new) & (new <= hi), new,
                       0.5 * (lam + np.where(d < 0, hi, lo)))
        done = np.abs(new - lam) <= 1e-13 * lam
        out[idx[done]] = new[done]
        idx, n, lam = idx[~done], n[~done], new[~done]
        lo, hi = lo[~done], hi[~done]
    raise AssertionError(f"reference zero ({n[0]}, {m[idx[0]]}) failed")


class TestAiry:
    def test_origin(self):
        assert specfun.airy_ai(0.0) == pytest.approx(AI_AT_0, rel=1e-14,
                                                     abs=0.0)
        assert specfun.airy_ai_prime(0.0) == pytest.approx(AIP_AT_0, rel=1e-14,
                                                           abs=0.0)

    @pytest.mark.parametrize("m,a", AIRY_ZEROS_LOW)
    def test_zeros_frozen(self, m, a):
        # the literal table: 6, 2, 3, 0, 0, 0, 1, 1 and 0 ulp measured
        assert abs(specfun.airy_zero(m) - a) <= 6 * math.ulp(a)

    @pytest.mark.parametrize("m,a", AIRY_ZEROS_FROZEN)
    def test_zeros_frozen_to_two_ulp(self, m, a):
        # Newton below m = 10, the closed form of DLMF 9.9.18 from there on
        assert specfun.airy_zero(m) == pytest.approx(a, rel=4.5e-16, abs=0.0)

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

    def test_truncation_rule_is_smallest_term_or_tiny(self):
        # _airy_terms, read off two threshold tuples, against the rule term
        # by term: keep u_k xi^-k while it falls, stop after it drops
        # below 1e-18; xi >= 15.08 is |x| >= 8
        def by_terms(xi):
            prev, kept = 1.0, 0
            for k, (uk, _) in enumerate(specfun._AIRY_UV, 1):
                term = uk / xi ** k
                if term >= prev:
                    break
                kept, prev = k, term
                if term < 1e-18:
                    break
            return kept

        xis = np.geomspace(15.08, 1e9, 4001)
        want = [by_terms(xi) for xi in xis.tolist()]
        assert specfun._airy_terms(xis).tolist() == want

    def test_array_pairs_match_scalar(self):
        # all three methods: asymptotic on either side, transport inside
        # (stepping from both anchors, ending on and between the 2-grid),
        # in one array call each, against scipy.special.airy on a grid and
        # against the 30-digit values inside.  Errors are relative on the
        # positive axis; on the oscillatory one against the amplitude
        # |x|^{-1/4} (Ai) and |x|^{1/4} (Ai').  Worst measured: 2.9e-14
        # against scipy (at x = 26.8, where the rounding of exp(-xi) in
        # either code is ~xi eps), 4.1e-15 against the frozen values (Ai'
        # at x = -6).
        def scaled(got, want, x, power):
            amp = np.where(x >= 0.0, np.abs(want),
                           np.maximum(1.0, -x) ** power)
            return np.abs(got - want) / amp

        x = np.concatenate([np.linspace(-30.0, 30.0, 601),
                            [-8.0, -7.999, -2.0, -1e-13, 0.0, 4.0, 7.999, 8.0]])
        want_a, want_b, _, _ = scipy.special.airy(x)
        assert scaled(specfun.airy_ai(x), want_a, x, -0.25).max() <= 4e-14
        assert scaled(specfun.airy_ai_prime(x), want_b, x, 0.25).max() \
            <= 4e-14
        x, want_a, want_b = (np.array(col) for col in zip(*AIRY_FROZEN))
        assert scaled(specfun.airy_ai(x), want_a, x, -0.25).max() <= 1e-14
        assert scaled(specfun.airy_ai_prime(x), want_b, x, 0.25).max() \
            <= 1e-14

    def test_prime_matches_difference_quotient(self):
        for x in (-6.3, -1.0, 0.7, 3.0, 5.2, 9.0):
            h = 1e-6
            fd = (specfun.airy_ai(x + h) - specfun.airy_ai(x - h)) / (2 * h)
            assert specfun.airy_ai_prime(x) == pytest.approx(fd, rel=2e-8, abs=1e-12)


class TestTurningPointMap:
    def test_anchor(self):
        assert specfun.z_of_zeta(ZETA_AT_Z2) == pytest.approx(2.0, rel=1e-13,
                                                              abs=0.0)
        assert specfun.zeta_of_z(2.0) == pytest.approx(ZETA_AT_Z2, rel=1e-13,
                                                       abs=0.0)

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

    def test_array_phase_integral_matches_scalar(self):
        # both sides of t = sqrt(w^2 - 1) = 0.1 and of t = 0.2 (w = 1.0198039),
        # where the series takes over from t - arctan(t), in one array call,
        # against 50-digit decimal arithmetic.  Worst measured: 2.5e-15
        # relative (15 ulp) at w = 1.0198040, just above the series, where
        # the rounding of t is amplified by ~3/t^2 = 75
        w = np.array([1.0, 1.0 + 1e-9, 1.001, 1.004, 1.00499, 1.00501,
                      1.0198038, 1.0198040, 1.2, 2.0, 37.0])
        got = specfun.phase_integral(w)
        assert got[0] == 0.0
        for wi, g in zip(w[1:].tolist(), got[1:].tolist()):
            want = phase_integral_decimal(wi)
            assert abs(g - want) <= 4e-15 * want, wi

    def test_odd_tails_against_long_series(self):
        # t - arctan(t) and artanh(t) - t below t = 0.2, where they take the
        # 12-term polynomial, against 30 terms summed in 50-digit decimal
        # arithmetic from the exact float t (the 31st term is below 1e-42
        # of the sum)
        def long_series(t, sign):
            with localcontext() as ctx:
                ctx.prec = 50
                d = Decimal(t)
                term, total = d ** 3, Decimal(0)
                for j in range(30):
                    total += sign ** j * term / (2 * j + 3)
                    term *= d * d
                return total

        assert specfun._TAIL_SERIES == 0.2
        t = np.concatenate([np.linspace(0.0, 0.2, 401)[1:-1],
                            np.geomspace(1e-8, 0.1999999, 100)])
        tails = {-1: specfun._t_minus_atans(t, t * t),
                 1: t * t * t * specfun._maclaurin(specfun._ATANH_TAIL, t * t)}
        for sign, got in tails.items():
            for ti, g in zip(t.tolist(), got.tolist()):
                want = long_series(ti, sign)
                assert float(abs(Decimal(g) - want)) <= 5e-16 * float(want), \
                    (sign, ti)

    def test_slope_at_turning_point(self):
        # dz/dzeta -> -2^{-1/3} as zeta -> 0^-
        d = 1e-6
        slope = (specfun.z_of_zeta(-d) - 1.0) / d
        assert slope == pytest.approx(2.0 ** (-1.0 / 3.0), rel=1e-4, abs=0.0)


class TestBesselJ:
    def test_trivial_and_frozen(self):
        assert specfun.bessel_j(0, 0.0) == 1.0
        assert specfun.bessel_j(3, 0.0) == 0.0
        # the smallest subnormal x, where x / 2 underflows to 0
        assert specfun.bessel_j_pair(1, 5e-324) == (1.0, 0.0)
        assert specfun.bessel_j(100, 130.0) == pytest.approx(J100_AT_130,
                                                             rel=1e-10, abs=0.0)
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

    # worst error of bessel_j and bessel_j_pair against the oracle, or
    # Miller's recurrence where relative, in each case group of the test
    # below, as measured, and the tolerance
    # (about twice that): against max(|J|, n^{-1/3}), but relative where
    # J lies far below n^{-1/3} (the evanescent groups)
    REGION_TOL = {
        "series": 3e-14,             # 1.7e-14
        "recurrence": 5e-12,         # 2.4e-12, at (199, 180) near the seam
        "uniform below N_U": 1e-10,  # 5.3e-11 relative, at (60, 30)
        "evanescent": 8e-13,         # 4.3e-13 relative
        "oscillatory": 5e-13,        # 2.5e-13
        "strip": 5e-13,              # 2.9e-13
        "band": 5e-13,               # 1.9e-13
    }

    def test_arrays_match_scalar_in_every_region(self):
        # (n, x) in each region of _regions, and inside the uniform one on
        # both sides of the turning point, in the strip |n^{2/3} zeta| < 1
        # and in the transport band |n^{2/3} zeta| < 8, each group in one
        # array call, against the oracle for J_n and J_{n-1}
        cases = {
            "series": [(0, 5.0), (3, 16.9), (100, 17.0), (1000, 60.0), (2, 0.0)],
            "recurrence": [(0, 17.5), (1, 30.0), (5, 500.0), (50, 41.0),
                           (150, 150.5), (199, 180.0), (199, 3000.0)],
            "uniform below N_U": [(60, 30.0), (199, 140.0)],
        }
        # the derivative sweep's pick at n = 81855 (alpha 0.5), where
        # t = sqrt((x/n)^2 - 1) = 0.132 and t - arctan t takes its series
        cases["oscillatory"] = [(81855, 82564.0), (81855, 82564.5)]
        for n in (200, 1000, 20000):
            scale = n ** (2.0 / 3.0)
            cases.setdefault("evanescent", []).append((n, 0.5 * n))
            cases.setdefault("oscillatory", []).append((n, 2.0 * n))
            for arg in (-0.9, 0.0, 0.6):
                z = (specfun.z_of_zeta(arg / scale) if arg <= 0.0
                     else 1.0 - 2.0 ** (-1.0 / 3.0) * arg / scale)
                cases.setdefault("strip", []).append((n, n * z))
            for arg in (-7.5, -3.0, 2.5, 6.5):
                z = (specfun.z_of_zeta(arg / scale) if arg <= 0.0
                     else 1.0 - 2.0 ** (-1.0 / 3.0) * arg / scale)
                cases.setdefault("band", []).append((n, n * z))
        for name, pts in cases.items():
            n, x = (np.array(col) for col in zip(*pts))
            series, recurrence = specfun._regions(n, x)
            uniform = ~(series | recurrence)
            expect = {"series": series, "recurrence": recurrence}.get(
                name, uniform)
            assert expect.all(), name
            if uniform.all():
                arg = np.abs(n ** (2.0 / 3.0) * specfun.zeta_of_z(x / n))
                assert {"strip": arg < specfun._UNIFORM_STRIP,
                        "band": (specfun._UNIFORM_STRIP <= arg) & (arg < 8.0),
                        }.get(name, arg >= 8.0).all(), name
            # Miller's recurrence resolves the evanescent values relatively,
            # which the quadrature oracle does only to 1e-16 absolutely
            relative = name in ("evanescent", "uniform below N_U")
            series = miller_series if relative else oracle.bessel_series
            want = np.array([series(*p) for p in pts])
            want_m1 = np.array([series(ni - 1, xi) if ni else -series(1, xi)
                                for ni, xi in pts])
            j = specfun.bessel_j(n, x)
            jm1, jn = specfun.bessel_j_pair(n, x)
            for got, ref in ((j, want), (jn, want), (jm1, want_m1)):
                amp = np.abs(ref)
                if not relative:
                    amp = np.maximum(amp, (n + 1.0) ** (-1.0 / 3.0))
                err = np.abs(got - ref) / np.maximum(amp, 1e-300)
                assert err.max() <= self.REGION_TOL[name], (name, err)
        # shapes broadcast, and a scalar order against an array of x
        grid = specfun.bessel_j(np.array([[3], [250]]), np.linspace(20, 400, 5))
        assert grid.shape == (2, 5)
        assert grid[1, 2] == pytest.approx(specfun.bessel_j(250, 210.0),
                                           rel=1e-14, abs=0.0)

    def test_recurrence_sweep_matches_all_rows(self):
        # the two-row sweep, each element leaving at its own order, against
        # the sweep that kept every row J_0 ... J_top of every element:
        # the same products k (2/x) J_k - J_{k-1}, so the same bits
        def all_rows(n, x):
            top = max(int(n.max()), 1)
            rows = np.empty((top + 1, n.size))
            rows[:2] = specfun._bessel_hankels(x)
            j = list(rows)
            two_k_over_x = list(np.outer(np.arange(top), 2.0 / x))
            for k in range(1, top):
                np.multiply(two_k_over_x[k], j[k], out=j[k + 1])
                np.subtract(j[k + 1], j[k - 1], out=j[k + 1])
            return rows[n, np.arange(n.size)]

        rng = np.random.default_rng(13)
        for size in (1, 2, 3, 70, 600):
            n = rng.integers(0, specfun._N_U, size)
            n[:3] = [0, 1, specfun._N_U - 1][:size]
            x = rng.uniform(17.5, 3000.0, size)
            assert np.array_equal(specfun._bessel_recurrences(n, x),
                                  all_rows(n, x)), size
        for n in ([0], [1], [0, 1, 0], [5, 5, 5]):
            n = np.array(n)
            x = np.full(n.size, 40.0)
            assert np.array_equal(specfun._bessel_recurrences(n, x),
                                  all_rows(n, x)), n

    def test_pair_is_bessel_j_at_both_orders(self):
        # each member of a pair is bessel_j at its order, bit for bit, in
        # every region, and around the crossover N_U on both sides of the
        # turning point: at n = N_U the lower member, order N_U - 1, takes
        # the recurrence from x = 175.6 on, as bessel_j(N_U - 1, x) does
        pts = [(0, 5.0), (1, 0.0), (3, 16.9), (1000, 60.0), (0, 17.5),
               (1, 30.0), (50, 41.0), (199, 3000.0), (60, 30.0),
               (1000, 500.0), (1000, 1000.0), (1000, 2000.0)]
        for n in (specfun._N_U - 1, specfun._N_U, specfun._N_U + 1):
            pts += [(n, x) for x in (0.5 * n, 0.85 * n, 0.9 * n, float(n),
                                     1.02 * n, 1.5 * n, 2.0 * n, 15.0 * n)]
        n, x = (np.array(col) for col in zip(*pts))
        series, recurrence = specfun._regions(n, x)
        assert series.any() and recurrence.any() \
            and not (series | recurrence).all()
        jm1, jn = specfun.bessel_j_pair(n, x)
        want_m1 = np.where(n == 0, -1.0, 1.0) * specfun.bessel_j(
            np.abs(n - 1), x)
        assert jn.tobytes() == specfun.bessel_j(n, x).tobytes()
        assert jm1.tobytes() == want_m1.tobytes()
        for ni, xi in pts:      # scalars, one point at a time
            sign = -1.0 if ni == 0 else 1.0
            assert specfun.bessel_j_pair(ni, xi) == (
                sign * specfun.bessel_j(abs(ni - 1), xi),
                specfun.bessel_j(ni, xi)), (ni, xi)

    def test_array_rejects_bad_input(self):
        with pytest.raises(ValueError):
            specfun.bessel_j(np.array([-2, 3]), 1.0)
        with pytest.raises(ValueError):
            specfun.bessel_j_pair(np.array([2]), np.array([-1.0]))

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
        # a pair at n = N_U may take J_{N_U - 1} from the recurrence, as
        # bessel_j does; no order from N_U on may reach it
        recurrences = specfun._bessel_recurrences

        def below_crossover(orders, x):
            if orders.max() >= specfun._N_U:
                raise AssertionError("O(n) recurrence used at a large order")
            return recurrences(orders, x)

        monkeypatch.setattr(specfun, "_bessel_recurrences", below_crossover)
        for z in (0.9, 1.0, 1.01, 2.0):
            x = n * z
            assert math.isfinite(specfun.bessel_j(n, x))
            assert all(math.isfinite(v) for v in specfun.bessel_j_pair(n, x))
            m = max(1, round(specfun.bessel_zero_index(n, x)))
            assert specfun.bessel_zero(n, m) > n

    @pytest.mark.parametrize("n,x,want", MILLER_FROZEN)
    def test_frozen_miller_values(self, n, x, want):
        assert scaled_error(specfun.bessel_j(n, x), want, n) < 1e-8


@pytest.mark.parametrize("n,x,want", MILLER_FROZEN)
def test_quadrature_oracle_reproduces_frozen_miller_values(n, x, want):
    # worst measured 6.1e-16, at (1e6, 1.0004e6)
    assert scaled_error(oracle.bessel_series(n, x), want, n) < 1e-13


class TestBesselZeros:
    def test_first_zero_frozen(self):
        assert specfun.bessel_zero(0, 1) == pytest.approx(J0_ZERO_1, rel=1e-13,
                                                          abs=0.0)

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
            assert m in specfun.bessel_zero_candidate_ranges([n], lam, lam)[1]

    @pytest.mark.parametrize("n", [0, 1, 2, 5, 50, 199, 200, 1000, 100000])
    def test_index_overshoot_within_margin(self, n):
        # the candidate range rests on 0 < e <= E/3 for the overshoot
        # e = m(j_{n,m}) - m; m = 1 is the turning-point zero, n = 0 the peak
        for m in (1, 2, 3, 10, 100):
            e = specfun.bessel_zero_index(n, specfun.bessel_zero(n, m)) - m
            assert 0.0 < e <= specfun._INDEX_MARGIN / 3.0

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=1, max_value=800),
           st.integers(min_value=1, max_value=12))
    def test_zeros_exceed_order(self, n, m):
        assert specfun.bessel_zero(n, m) > n

    @pytest.mark.parametrize("n", [1, 2, 200, 1000, 100000, 10000000])
    def test_array_seeds_match_scalar(self, n):
        # one array call over every m with a frozen Airy zero, against the
        # transplant in 50-digit decimal arithmetic: m < 10 takes the
        # literal table, m >= 10 the closed form; (1e5, 1) and (1e7, 1..2)
        # start z_of_zeta at t < 0.1, where it takes the odd polynomial of
        # t - arctan(t).  Worst measured: 10 ulp at (1, 1), where the
        # table's a_1 is 6 ulp off; elsewhere 6 ulp
        ms = np.array(sorted(AIRY_ZEROS_30))
        got = specfun.bessel_zero_seed(n, ms)
        for m, seed in zip(ms.tolist(), got.tolist()):
            want = zero_seed_decimal(n, m)
            assert abs(seed - want) <= 24 * math.ulp(want), (n, m)

    def test_seeds_take_airy_zero_bit_for_bit(self):
        # one rule for a_m serves airy_zero and the seeds alike
        ns = np.array([1, 7, 1000, 100000])
        for m in range(1, 31):
            want = ns * specfun.z_of_zeta(ns ** (-2.0 / 3.0)
                                          * specfun.airy_zero(m))
            assert specfun.bessel_zero_seed(ns, m).tobytes() == \
                want.tobytes(), m

    def test_array_seeds_reject_bad_input(self):
        assert specfun.bessel_zero_seed(5, np.arange(1, 1)).size == 0
        with pytest.raises(ValueError):
            specfun.bessel_zero_seed(5, np.array([0, 1]))
        with pytest.raises(ValueError):
            specfun.bessel_zero_seed(np.array([3, -1]), 1)

    def test_array_seeds_over_orders(self):
        # an (n, m) array, McMahon at n = 0, against the 50-digit seeds
        n = np.array([0, 0, 0, 1, 7, 7, 300, 5000])
        m = np.array([1, 2, 40, 1, 5, 11, 1, 100])
        for ni, mi, seed in zip(n.tolist(), m.tolist(),
                                specfun.bessel_zero_seed(n, m).tolist()):
            want = zero_seed_decimal(ni, mi)
            assert abs(seed - want) <= 24 * math.ulp(want), (ni, mi)

    def test_batched_zeros_match_scalar(self):
        # one Newton over zeros of every region, each against the oracle:
        # J_n / J_n' at the computed zero is its distance to the true one.
        # Worst measured: 1.1e-15 relative, at (3, 4), whose zero x = 16.2
        # lies in the series region
        n = np.array([0, 0, 1, 3, 57, 150, 199, 200, 201, 1000, 2000, 40])
        m = np.array([1, 9, 1, 4, 2, 1, 30, 1, 7, 218, 1, 40])
        got = specfun.bessel_zero(n, m)
        for ni, mi, lam in zip(n.tolist(), m.tolist(), got.tolist()):
            step = oracle.bessel_series(ni, lam) \
                / oracle.bessel_prime_series(ni, lam)
            assert abs(step) <= 2e-15 * lam, (ni, mi)
        assert specfun.bessel_zero(n[:0], m[:0]).size == 0
        assert specfun.bessel_zero(5, np.array([[1, 2], [3, 4]])).shape == (2, 2)

    @pytest.mark.parametrize("lo", [0.2, 5.0, 19.75, 536.54, 2000.0])
    def test_candidates_of_all_orders(self, lo):
        # the ranges ceil(m(lo) - E) ... floor(m(hi) + E), m >= 1, of each
        # order 0 ... floor(hi) + 1 of one window, in (n, m) order
        orders = np.arange(math.floor(lo + 1.0) + 2)
        n, m = specfun.bessel_zero_candidate_ranges(orders, lo, lo + 1.0)
        index = specfun.bessel_zero_index(orders[:, None], [lo, lo + 1.0])
        margin = specfun._INDEX_MARGIN
        want = [(k, j) for k, (a, b) in enumerate(index.tolist())
                for j in range(max(1, math.ceil(a - margin)),
                               math.floor(b + margin) + 1)]
        assert list(zip(n.tolist(), m.tolist())) == want

    def test_given_seeds_keep_the_bits(self):
        # n = 0, the recurrence region (n < 200) and the uniform expansion
        n = np.array([0, 0, 1, 3, 57, 150, 199, 200, 201, 1000, 54321])
        m = np.array([1, 9, 1, 4, 2, 1, 30, 1, 7, 218, 3])
        seeds = specfun.bessel_zero_seed(n, m)
        assert specfun.bessel_zero(n, m, seeds=seeds).tobytes() == \
            specfun.bessel_zero(n, m).tobytes()
        assert specfun.bessel_zero(7, 3, seeds=specfun.bessel_zero_seed(
            7, 3)) == specfun.bessel_zero(7, 3)
        grid = np.array([[1, 2], [3, 4]])
        assert specfun.bessel_zero(5, grid, seeds=specfun.bessel_zero_seed(
            5, grid)).tobytes() == specfun.bessel_zero(5, grid).tobytes()

    def test_seeds_of_another_shape_raise(self):
        seeds = specfun.bessel_zero_seed(np.array([3, 4]), 1)
        for n, m, given in ((np.array([3, 4, 5]), 1, seeds),
                            (3, 1, seeds), (np.array([3, 4]), 1, seeds[0]),
                            (5, np.array([[1, 2], [3, 4]]), seeds)):
            with pytest.raises(ValueError, match="seeds of shape"):
                specfun.bessel_zero(n, m, seeds=given)
        with pytest.raises(ValueError, match="finite"):
            specfun.bessel_zero(np.array([3, 4]), 1,
                                seeds=np.array([4.0, math.nan]))
        # the indices are checked whatever seeds come with them
        with pytest.raises(ValueError, match="zero index starts at 1"):
            specfun.bessel_zero(3, 0, seeds=6.0)

    def test_rejects_bad_index(self):
        with pytest.raises(ValueError):
            specfun.bessel_zero(3, 0)
        with pytest.raises(ValueError):
            specfun.bessel_zero_seed(0, 0)
        with pytest.raises(ValueError):
            specfun.bessel_zero_seed(-1, 1)


class TestNewton:
    """The one Newton iteration, ``specfun._newton``, behind z_of_zeta and
    bessel_zero: the bits of both against their own loops, and its two
    failures."""

    def test_z_of_zeta_keeps_the_bits_of_its_loop(self):
        # the driver retires z_of_zeta on its computed step; on the step it
        # took instead, 19 in 400k values move by an ulp, among them this
        # zeta
        rng = np.random.default_rng(26)
        zeta = np.append(-60.0 * rng.random(400_000),
                         [-1.8957426946682099, 0.0, -60.0])
        assert specfun.z_of_zeta(zeta).tobytes() == \
            z_of_zeta_loop(zeta).tobytes()

    def test_bessel_zero_keeps_the_bits_of_its_loop(self):
        # every zero of n < 300, m <= 30; with the bracket the driver
        # retires on the step taken, and on the computed step instead
        # (148, 10) moves by an ulp
        n, m = (a.ravel() for a in np.meshgrid(np.arange(300),
                                               np.arange(1, 31),
                                               indexing="ij"))
        assert specfun.bessel_zero(n, m).tobytes() == \
            bessel_zero_loop(n, m).tobytes()

    def test_a_step_that_never_shrinks_names_its_start(self):
        def step(live, x):      # a unit step at start 1, none elsewhere
            return (live == 1).astype(float), np.ones_like(x)

        with pytest.raises(specfun.NumericalError,
                           match="^start 1 did not converge$"):
            specfun._newton(step, np.zeros(3), 1e-13, lambda i: f"start {i}")

    def test_a_flat_step_names_its_zero(self, monkeypatch):
        # J_{n-1} = (n / x) J_n makes J_n' = 0 at the order 7; the driver
        # raises before it divides, so no RuntimeWarning (an error under
        # the test configuration) is raised
        pair = specfun.bessel_j_pair

        def flat_at_seven(n, x):
            jm1, jn = pair(n, x)
            return np.where(n == 7, (n / x) * jn, jm1), jn

        monkeypatch.setattr(specfun, "bessel_j_pair", flat_at_seven)
        with pytest.raises(specfun.NumericalError,
                           match=r"^flat Newton step at Bessel zero \(7, 2\)$"):
            specfun.bessel_zero(np.array([3, 7, 9]), np.array([1, 2, 1]))


# orders, degrees and zero indices that are not finite integers, which a
# cast to int64 used to truncate (bessel_j(2.5, 3.0) returned J_2(3))
@pytest.mark.parametrize("fn,args", [
    (specfun.bessel_j, (2.5, 3.0)),
    (specfun.bessel_j_pair, (np.array([3.0, math.nan]), 3.0)),
    (specfun.bessel_zero_index, (math.inf, 3.0)),
    (specfun.bessel_zero, (2.5, 1)),
    (specfun.bessel_zero, (2, 1.5)),
    (specfun.bessel_zero_seed, (2, math.inf)),
    (specfun.bessel_zero_candidate_ranges, ([2.5], 1.0, 9.0)),
    (specfun.airy_zero, (1.5,)),
    (specfun.legendre_equator, (3.5, 1)),
    (specfun.legendre_equator, (4, 1.5)),
    (modes._norms_and_traces, (np.array([2.5]), np.array([3.0]), 0.5)),
    (modes.select_disk_modes, (500.5, modes.ScaleTarget(alpha=0.5))),
    (modes.select_disk_modes, ([500, 700.5], modes.ScaleTarget(alpha=0.5))),
    (modes.select_sphere_modes, (100.5, modes.ScaleTarget(alpha=0.5))),
], ids=lambda v: getattr(v, "__name__", None))
def test_non_integral_orders_and_indices_raise(fn, args):
    with pytest.raises(ValueError, match="must be a finite integer"):
        fn(*args)


def test_integral_floats_are_orders():
    assert specfun.bessel_j(2.0, 3.0) == specfun.bessel_j(2, 3.0)
    assert specfun.bessel_zero(np.array([2.0]), 1.0)[0] == \
        specfun.bessel_zero(2, 1)
    assert specfun.legendre_equator(4.0, 2.0) == \
        specfun.legendre_equator(4, 2)


class TestLegendreEquator:
    def test_frozen_values(self):
        assert specfun.legendre_equator(2, 0) == pytest.approx(
            -0.25 * math.sqrt(5.0 / math.pi), rel=1e-14, abs=0.0)
        assert specfun.legendre_equator(3, 1) == pytest.approx(
            1.5 * math.sqrt(7.0 / (48.0 * math.pi)), rel=1e-14, abs=0.0)
        assert specfun.legendre_equator(0, 0) == pytest.approx(
            math.sqrt(1.0 / (4.0 * math.pi)), rel=1e-14, abs=0.0)

    def test_odd_parity_zero(self):
        assert specfun.legendre_equator(5, 2) == 0.0

    def test_degrees_past_the_certified_range_raise(self):
        # the log-Gamma differences lose about l eps: 1.7e-9 at l = 1e6,
        # 5e-8 at 1e7
        top = specfun._LEGENDRE_MAX
        assert abs(specfun.legendre_equator(top, top - 2)) > 0.0
        for l, m in ((top + 1, 1), (top + 2, 0), (10 ** 8, 10 ** 8 // 2)):
            with pytest.raises(ValueError, match="l <= 1000000"):
                specfun.legendre_equator(l, m)

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


# scalar arguments inside the domain of each public function that takes
# scalars or arrays alike; the others take scalars only (airy_zero and
# legendre_equator) or return index arrays (bessel_zero_candidate_ranges)
SCALAR_CASES = {
    "airy_ai": (-3.7,), "airy_ai_prime": (2.2,), "phase_integral": (1.3,),
    "zeta_of_z": (0.6,), "z_of_zeta": (-2.5,), "bessel_j": (250, 260.5),
    "bessel_j_pair": (7, 31.0), "bessel_j_prime": (0, 12.0),
    "bessel_zero_index": (40, 90.0), "bessel_zero_seed": (300, 4),
    "bessel_zero": (12, 3),
}
NOT_ELEMENTWISE = {"airy_zero", "legendre_equator",
                   "bessel_zero_candidate_ranges"}


# nan, inf or -inf in any argument of an elementwise function: a nan used to
# give uninitialised memory out of airy_ai, inf a RuntimeWarning out of
# bessel_j, and z_of_zeta(nan) ran its Newton to its step limit
FINITE_CASES = {**SCALAR_CASES,
                "bessel_zero_candidate_ranges": (5, 3.0, 9.0)}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name, position", [
    (name, i) for name, args in sorted(FINITE_CASES.items())
    for i in range(len(args))])
def test_non_finite_arguments_raise(name, position, bad):
    good = FINITE_CASES[name]
    # alone, and between valid elements of the same argument
    for value in (bad, np.array([good[position], bad, good[position]])):
        args = list(good)
        args[position] = value
        with pytest.raises(ValueError, match="finite"):
            getattr(specfun, name)(*args)


def _near_turning_point(n, arg):
    """(n, x) with n^{2/3} zeta(x/n) at arg (to first order when arg > 0):
    inside the strip |arg| < _UNIFORM_STRIP, in the transport band
    |arg| < 8 of the Airy factors, or beyond it."""
    scale = n ** (2.0 / 3.0)
    z = (specfun.z_of_zeta(arg / scale) if arg <= 0.0
         else 1.0 - 2.0 ** (-1.0 / 3.0) * arg / scale)
    return n, n * z


# the one-element arguments of every function of SCALAR_CASES for the batch
# invariance test: a strategy, and elements that every batch holds so that
# each batch reaches every method (see test_batch_cases_reach_every_method)
_AIRY_BATCH = (st.tuples(st.floats(-30.0, 30.0)),
               [(-20.0,), (-3.7,), (2.2,), (12.0,)])
_BESSEL_BATCH = (
    st.one_of(
        st.tuples(st.integers(0, 1000), st.floats(0.0, 17.0)),
        # the recurrence, and below n - 4 n^{1/3} uniform below N_U
        st.tuples(st.integers(0, specfun._N_U - 1), st.floats(17.5, 3000.0)),
        st.builds(_near_turning_point, st.integers(specfun._N_U, 200000),
                  st.floats(-12.0, 12.0))),
    [(3, 16.9), (50, 41.0), (60, 30.0), _near_turning_point(1000, 0.3),
     _near_turning_point(1000, -3.0), _near_turning_point(1000, 2.5),
     (20000, 40000.0), (1000, 500.0)])
_ZERO_BATCH = (st.tuples(st.integers(0, 3000), st.integers(1, 60)),
               [(0, 1), (12, 3), (300, 4), (445, 8), (1000, 218)])
BATCH_CASES = {
    "airy_ai": _AIRY_BATCH, "airy_ai_prime": _AIRY_BATCH,
    "phase_integral": (st.tuples(st.floats(1.0, 100.0)), [(1.0,), (1.3,)]),
    "zeta_of_z": (st.tuples(st.floats(1e-3, 10.0)), [(0.6,), (1.05,)]),
    "z_of_zeta": (st.tuples(st.floats(-60.0, 0.0)),
                  [(0.0,), (-1e-4,), (-2.5,)]),
    "bessel_j": _BESSEL_BATCH, "bessel_j_pair": _BESSEL_BATCH,
    "bessel_j_prime": _BESSEL_BATCH,
    "bessel_zero_index": (st.tuples(st.integers(0, 100000),
                                    st.floats(0.0, 200000.0)),
                          [(0, 5.0), (40, 90.0), (40, 30.0)]),
    "bessel_zero_seed": _ZERO_BATCH, "bessel_zero": _ZERO_BATCH,
}


class TestScalarsAndArrays:
    def test_every_public_function_listed(self):
        public = {name for name, fn in vars(specfun).items()
                  if inspect.isfunction(fn) and not name.startswith("_")
                  and fn.__module__ == specfun.__name__}
        assert public == set(SCALAR_CASES) | NOT_ELEMENTWISE

    @pytest.mark.parametrize("name", sorted(SCALAR_CASES))
    def test_scalars_give_floats_of_the_one_element_call(self, name):
        fn, args = getattr(specfun, name), SCALAR_CASES[name]
        got, one = fn(*args), fn(*(np.array([a]) for a in args))
        if name == "bessel_j_pair":
            assert [type(v) for v in got] == [float, float]
            assert got == (float(one[0][0]), float(one[1][0]))
        else:
            assert type(got) is float
            assert got == float(one[0])
        # arrays broadcast together: a column against a row, each element
        # with the scalar's bits
        grid = fn(*(np.full(shape, a) for shape, a in
                    zip(((2, 1), (1, 3)) if len(args) == 2 else ((2, 3),),
                        args)))
        for values, value in (zip(grid, got) if name == "bessel_j_pair"
                              else [(grid, got)]):
            assert values.shape == (2, 3)
            assert (values == value).all()

    @pytest.mark.parametrize("name", sorted(SCALAR_CASES))
    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_batch_invariant(self, name, data):
        # every element of a batch has the bits of its one-element call,
        # whatever else the batch holds
        fn = getattr(specfun, name)
        element, always = BATCH_CASES[name]
        batch = data.draw(st.permutations(
            always + data.draw(st.lists(element, max_size=12))))
        together = fn(*(np.array(column) for column in zip(*batch)))
        if name != "bessel_j_pair":
            together = (together,)
        for i, args in enumerate(batch):
            alone = fn(*args)
            if name != "bessel_j_pair":
                alone = (alone,)
            assert [np.float64(v[i]).tobytes() for v in together] == \
                [np.float64(v).tobytes() for v in alone], args

    def test_batch_cases_reach_every_method(self):
        # the elements every batch holds: both Airy methods (asymptotic
        # series and transport) on both sides, and every Bessel region,
        # the uniform expansion inside and outside the strip and the
        # transport band
        x = np.array(_AIRY_BATCH[1]).ravel()
        far = np.abs(x) >= specfun._AIRY_ASYMP
        assert {(bool(f), bool(v > 0)) for f, v in zip(far, x)} == \
            {(f, p) for f in (False, True) for p in (False, True)}
        n, x = (np.array(column) for column in zip(*_BESSEL_BATCH[1]))
        series, recurrence = specfun._regions(n, x)
        uniform = ~(series | recurrence)
        arg = np.abs(n ** (2.0 / 3.0) * specfun.zeta_of_z(x / n))
        reached = {"series": series, "recurrence": recurrence,
                   "uniform below N_U": uniform & (n < specfun._N_U),
                   "strip": uniform & (arg < specfun._UNIFORM_STRIP),
                   "band": uniform & (arg >= specfun._UNIFORM_STRIP)
                   & (arg < specfun._AIRY_ASYMP),
                   "asymptotic": uniform & (arg >= specfun._AIRY_ASYMP)}
        assert all(mask.any() for mask in reached.values()), reached
