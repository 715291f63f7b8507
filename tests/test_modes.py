"""Tests for mode construction, selection, and traces."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from glancelab import experiments as ex
from glancelab import modes, oracle, specfun, weights
from glancelab.experiments import SweepConfig
from glancelab.modes import NoModeError, ScaleTarget
from glancelab.weights import BandSpec

J0_ZERO_1 = 2.40482555769577276862
J1_AT_J0_ZERO_1 = 0.51914749728946678814


def _mode(n, m):
    """(lam, normalization) of the disk mode with angular order n and m-th
    radial eigenvalue: the one-element calls of the batched zero and
    normalization."""
    lam = specfun.bessel_zero([n], [m])
    return float(lam[0]), float(
        modes._norms_and_traces(np.array([n]), lam, 0.5)[0][0])


def _one_order(n, **kw):
    """A disk sweep config of the one order n at alpha = 1/2."""
    return SweepConfig(kind="disk", alpha=0.5, n_lo=n, n_hi=n, points=1, **kw)


class TestDiskMode:
    def test_fundamental_frozen(self):
        lam, norm = _mode(0, 1)
        assert lam == pytest.approx(J0_ZERO_1, rel=1e-13, abs=0.0)
        assert norm == pytest.approx(
            1.0 / (math.sqrt(math.pi) * J1_AT_J0_ZERO_1), rel=1e-12, abs=0.0)

    def test_unit_norm_against_quadrature(self):
        # 2 pi c^2 int_0^1 J_n(lam r)^2 r dr should be 1
        lam, norm = _mode(7, 3)
        integral, _ = oracle.disk_quadrature_norm(7, lam)
        assert 2.0 * math.pi * norm ** 2 * integral == \
            pytest.approx(1.0, rel=1e-9, abs=0.0)

    def test_sigma_formula(self):
        # the glancing distance and h of a sweep's row, from its columns
        r = 0.5
        row = ex.amplitude_sweep(_one_order(300)).rows[0]
        assert row.sigma == pytest.approx(
            1.0 - (row.n / (row.lam * r)) ** 2, rel=1e-15, abs=0.0)
        assert row.h == pytest.approx(1.0 / row.lam)


class TestRestriction:
    @staticmethod
    def _signed(config, derivative):
        """The selector's signed trace amplitudes of `config`'s orders; the
        sweeps keep their magnitudes, as the memo's amplitude column."""
        amp = ex._disk_traces(config, derivative, None)[5]
        signed = modes.select_disk_modes(config.orders(), config.target(),
                                         derivative=derivative).amplitude
        assert amp.tolist() == np.abs(signed).tolist()
        return signed

    def test_trace_amplitude(self):
        n, lam, *_ = ex._disk_traces(_one_order(500), False, None)
        amp = self._signed(_one_order(500), False)
        assert amp[0] == pytest.approx(
            modes._norms_and_traces(n, lam, 0.5)[0][0] * specfun.bessel_j(
                int(n[0]), lam[0] * 0.5), rel=1e-13, abs=0.0)

    def test_normal_derivative_is_h_scaled(self):
        # h d_r u at r = R equals the picked amplitude times e^{in theta}
        n, lam, *_ = ex._disk_traces(_one_order(100), True, None)
        amp = self._signed(_one_order(100), True)
        n, lam = int(n[0]), float(lam[0])
        norm = float(modes._norms_and_traces(np.array([n]), np.array([lam]),
                                             0.5)[0][0])
        eps = 1e-6
        u = lambda r: norm * specfun.bessel_j(n, lam * r)
        fd = (u(0.5 + eps) - u(0.5 - eps)) / (2 * eps) / lam
        assert amp[0] == pytest.approx(fd, rel=1e-7, abs=0.0)

    def test_radius_validated(self):
        for r in (0.0, 1.0, -0.2, 1.5):
            for derivative in (False, True):
                with pytest.raises(ValueError):
                    ex._disk_traces(_one_order(100, radius=r), derivative,
                                    None)

    def test_sphere_trace(self):
        cfg = SweepConfig(kind="sphere", alpha=0.5, n_lo=300, n_hi=300,
                          points=1)
        l, *_, amp, _, _ = ex._sphere_traces(cfg)
        m, _ = modes.select_sphere_modes(l, cfg.target())
        assert amp[0] == pytest.approx(
            abs(specfun.legendre_equator(int(l[0]), int(m[0]))), rel=1e-14,
            abs=0.0)

    def test_sphere_odd_parity_trace_vanishes(self):
        assert specfun.legendre_equator(4, 1) == 0.0

    def test_trace_norm_orthogonality(self):
        # distinct circle wavenumbers are orthogonal, so the trace norm is
        # the l2 norm of the amplitudes times sqrt(2 pi R)
        r = 0.5
        assert weights.trace_norm([3.0, 4.0], r) == pytest.approx(
            5.0 * math.sqrt(math.pi), rel=1e-13, abs=0.0)
        n = np.array([3, 5])
        lam = specfun.bessel_zero(n, 2)
        a = np.multiply(*modes._norms_and_traces(n, lam, r))
        theta = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
        u = a[0] * np.exp(3j * theta) + a[1] * np.exp(5j * theta)
        quad = math.sqrt(2.0 * math.pi * r * np.mean(np.abs(u) ** 2))
        assert weights.trace_norm(a, r) == pytest.approx(quad, rel=1e-12,
                                                         abs=0.0)

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


def _select(n, target, **kw):
    """(lam, normalization) of the mode select_disk_modes picks for the one
    order n, or its NoModeError, raised."""
    got = modes.select_disk_modes([n], target, **kw)
    if got.error[0] is not None:
        raise got.error[0]
    return float(got.lam[0]), float(got.normalization[0])


def _first_in_window(n, target):
    """(lam, normalization) of the smallest eigenvalue of the order n in the
    target window: the mode a rule blind to the trace would take."""
    lo, hi = target.disk_window(n)
    below = math.floor(specfun.bessel_zero_index(n, lo))
    ms = np.arange(max(1, below - 1), below + 3)
    zeros = specfun.bessel_zero(n, ms)
    i = np.flatnonzero(zeros >= lo)[0]
    # the zero before it, if any, lies below the window
    assert i > 0 or ms[0] == 1
    assert zeros[i] <= hi
    return _mode(n, int(ms[i]))


class TestSelection:
    @settings(max_examples=15, deadline=None)
    @given(n=st.integers(min_value=50, max_value=5000),
           alpha=st.sampled_from([0.3, 0.5, 0.8]))
    def test_selected_mode_in_window_or_certified_absent(self, n, alpha):
        # narrow windows (width below the ~3.6 zero spacing) may contain no
        # eigenvalue at all; the selector must then prove the absence
        t = ScaleTarget(alpha=alpha)
        lo, hi = t.disk_window(n)
        got = modes.select_disk_modes([n], t)
        if got.error[0] is not None:
            assert isinstance(got.error[0], NoModeError)
            m = max(1, round(specfun.bessel_zero_index(n, lo)))
            zeros = specfun.bessel_zero(n, np.arange(max(1, m - 2), m + 4))
            assert not ((lo <= zeros) & (zeros <= hi)).any()
            return
        assert lo <= got.lam[0] <= hi
        assert got.n.tolist() == [n]

    def test_restriction_beats_first(self):
        t = ScaleTarget(alpha=0.5)
        for n in (200, 700, 1500):
            best, c_best = _select(n, t)
            first, c_first = _first_in_window(n, t)
            a_best = abs(c_best * specfun.bessel_j(n, best * 0.5))
            a_first = abs(c_first * specfun.bessel_j(n, first * 0.5))
            assert a_best >= a_first - 1e-12
            assert first <= best + 1e-9  # first = smallest lam

    def test_derivative_target(self):
        t = ScaleTarget(alpha=0.5)
        lam, norm = _select(800, t, derivative=True)
        lo, hi = t.disk_window(800)
        assert lo <= lam <= hi
        d = abs(norm * specfun.bessel_j_prime(800, lam * 0.5))
        first, c_first = _first_in_window(800, t)
        d_first = abs(c_first * specfun.bessel_j_prime(800, first * 0.5))
        assert d >= d_first - 1e-12

    # the acceptance grid, and the grid of the cli benchmark's sweep-disk
    @pytest.mark.parametrize("grid", [(1000, 100000, 24), (200, 2000, 12)])
    @pytest.mark.parametrize("derivative", [False, True])
    def test_amplitude_is_the_picked_trace(self, grid, derivative):
        # the selector's amplitude is c J_n(lam / 2), or c J_n'(lam / 2),
        # with the bits of the trace evaluated afresh on the picked modes
        orders = SweepConfig(kind="disk", alpha=0.5, n_lo=grid[0],
                             n_hi=grid[1], points=grid[2]).orders()
        got = modes.select_disk_modes(orders, ScaleTarget(alpha=0.5),
                                      derivative=derivative)
        found = np.array([e is None for e in got.error])
        assert found.all()
        trace = specfun.bessel_j_prime if derivative else specfun.bessel_j
        want = got.normalization * trace(got.n, got.lam * 0.5)
        assert got.amplitude.tobytes() == want.tobytes()
        assert (np.abs(got.amplitude) == got.normalization * np.abs(
            trace(got.n, got.lam * 0.5))).all()
        # and the largest |trace| among each order's refined candidates
        for j in range(got.n.size):
            best = got.refined_quality[got.refined_k == j].max()
            assert got.normalization[j] * best == abs(got.amplitude[j])

    def test_band_constraint_respected(self):
        band = BandSpec(rho1=0.3, rho2=0.6)
        t = ScaleTarget(alpha=0.5)
        lam, _ = _select(20000, t, band=band)
        h = 1.0 / lam
        assert h ** 0.6 <= 1.0 - (20000 / (lam * 0.5)) ** 2 <= h ** 0.3

    def test_band_infeasible_raises(self):
        # at small n the whole window misses the band: sigma ~ 4 n^{-1/2}
        # sits above h^{0.3} ~ (4n)^{-0.3}
        band = BandSpec(rho1=0.3, rho2=0.6)
        t = ScaleTarget(alpha=0.5)
        with pytest.raises(NoModeError):
            _select(100, t, band=band)

    def test_diagnostics(self):
        t = ScaleTarget(alpha=0.5)
        got = modes.select_disk_modes([500], t)
        assert got.candidates[0] >= got.band_feasible[0] \
            >= got.refined_m.size >= 1
        assert (got.refined_k == 0).all()
        assert got.refined_quality.size == got.refined_m.size

    # (n, alpha, measured trace, band, picked m, candidates, band_feasible,
    # refined m in ranked order), frozen from the selector that seeded and
    # ranked one candidate at a time
    @pytest.mark.parametrize("n,alpha,trace,band,m,cands,feasible,refined", [
        (2588, 0.5, "restriction", (0.3, 0.6), 622, 15, 2, [622, 621]),
        (3000, 0.3, "normal_derivative", None, 1022, 80, 80,
         [1022, 966, 996]),
    ])
    def test_frozen_picks(self, n, alpha, trace, band, m, cands, feasible,
                          refined):
        got = modes.select_disk_modes(
            [n], ScaleTarget(alpha=alpha),
            derivative=trace == "normal_derivative",
            band=BandSpec(*band) if band else None)
        assert got.error == (None,)
        assert got.lam[0] == specfun.bessel_zero(n, m)
        assert (got.candidates[0], got.band_feasible[0]) == (cands, feasible)
        assert got.refined_m.tolist() == refined

    @pytest.mark.parametrize("alpha,trace,band", [
        (0.5, "restriction", (0.3, 0.6)),    # the upper edge h^0.3 binds
        (0.5, "restriction", (0.1, 0.3)),    # the lower edge h^0.3 binds
        (0.3, "normal_derivative", None),
    ])
    def test_array_screen_matches_scalar_loop(self, alpha, trace, band):
        # the seed, window, band and phase screens of one order, redone one
        # candidate at a time on the seeds of the order's candidates, as the
        # reference for the array pass: same counts, and the refined m in
        # ranked order
        spec = BandSpec(*band) if band else None
        t = ScaleTarget(alpha=alpha)
        for n in np.geomspace(1000, 100000, 9).astype(int).tolist():
            lo, hi = t.disk_window(n)
            spacing = math.pi * lo / math.sqrt(lo * lo - n * n)
            slo, shi = lo - 0.6 * spacing, hi + 0.6 * spacing
            ms = specfun.bessel_zero_candidate_ranges([n], slo, shi)[1]
            seeds = list(zip(ms.tolist(),
                             specfun.bessel_zero_seed(n, ms).tolist()))
            inside = [(m, s) for m, s in seeds if slo <= s <= shi]
            if spec is not None:
                inside = [(m, s) for m, s in inside
                          if (1 / s) ** spec.rho2 * (1 - 1e-6)
                          <= 1 - (n / (0.5 * s)) ** 2
                          <= (1 / s) ** spec.rho1 * (1 + 1e-6)]
            trig = math.cos if trace == "restriction" else math.sin
            g = specfun.phase_integral(
                np.array([0.5 * s / n for _, s in inside]))
            phase = dict(zip((m for m, _ in inside), g.tolist()))
            ranked = sorted((m for m, _ in inside), key=lambda m: -abs(
                trig(n * phase[m] - 0.25 * math.pi)))
            got = modes.select_disk_modes(
                [n], t, derivative=trace == "normal_derivative", band=spec)
            if got.error[0] is not None:
                assert not inside
                continue
            assert got.candidates[0] == sum(slo <= s <= shi for _, s in seeds)
            assert got.band_feasible[0] == len(inside)
            refined = got.refined_m.tolist()
            if len(refined) == min(3, len(ranked)):
                assert refined == ranked[:len(refined)]

    def test_invalid_inputs(self):
        t = ScaleTarget(alpha=0.5)
        with pytest.raises(NoModeError):
            _select(0, t)


def _norms(n, lam):
    """1/(sqrt(pi) |J_{n+1}(lam)|) at zeros lam of J_n, with
    J_{n+1} = (2n/lam) J_n - J_{n-1}, in one array call."""
    jm1, jn = specfun.bessel_j_pair(n, lam)
    return (1.0 / (math.sqrt(math.pi) * np.abs((2.0 * n / lam) * jn - jm1))
            ).tolist()


def _select_one_by_one(orders, target, radius=0.5, derivative=False,
                       band=None):
    """The selection of each order as it stood before the orders of a sweep
    were batched: array seeds and ranking of the order's candidates, then
    the ranked candidates walked one at a time, the first few and, only
    when none of those is admissible, the rest.  The walk reads every
    candidate's zero, quality and normalization from one array call each
    over all candidates of all orders.  The reference for
    select_disk_modes: per order, (mode or NoModeError, candidates,
    band-feasible, the refined (m, quality) in ranked order, whether the
    walk went past the ranked few); a mode is (n, lam, normalization)."""
    ranked_lists, out = [], []
    for n in orders:
        lam_lo, lam_hi = target.disk_window(n)
        diag = {"scores": []}
        out.append((lam_lo, lam_hi, diag))
        spacing = math.pi * lam_lo / math.sqrt(max(lam_lo * lam_lo - n * n,
                                                   1.0))
        seed_lo, seed_hi = lam_lo - 0.6 * spacing, lam_hi + 0.6 * spacing
        ms = specfun.bessel_zero_candidate_ranges([n], seed_lo, seed_hi)[1]
        lam_seed = specfun.bessel_zero_seed(n, ms)
        inside = (seed_lo <= lam_seed) & (lam_seed <= seed_hi)
        ms, lam_seed = ms[inside], lam_seed[inside]
        diag["candidates"] = diag["band_feasible"] = ms.size
        if band is not None:
            h = 1.0 / lam_seed
            sigma = 1.0 - (n / (lam_seed * radius)) ** 2
            feasible = ((h ** band.rho2 * (1.0 - 1e-6) <= sigma)
                        & (sigma <= h ** band.rho1 * (1.0 + 1e-6)))
            ms, lam_seed = ms[feasible], lam_seed[feasible]
            diag["band_feasible"] = ms.size
        score = np.full(ms.size, -1.0)
        osc = lam_seed * radius > n
        # the asymptotic phase n g(x/n) - pi/4 of J_n(x), x = lam radius
        phi = (n * specfun.phase_integral(lam_seed[osc] * radius / n)
               - 0.25 * math.pi)
        score[osc] = np.abs(np.sin(phi) if derivative else np.cos(phi))
        ranked_lists.append(ms[np.argsort(-score, kind="stable")].tolist())

    n_all = np.repeat(orders, [len(r) for r in ranked_lists])
    lam_all = specfun.bessel_zero(n_all, np.concatenate(
        [np.array(r, dtype=np.int64) for r in ranked_lists]))
    trace = specfun.bessel_j_prime if derivative else specfun.bessel_j
    quality_all = np.abs(trace(n_all, lam_all * radius)).tolist()
    norm_all = _norms(n_all, lam_all)
    lam_all = lam_all.tolist()

    picks, start = [], 0
    for n, ranked, (lam_lo, lam_hi, diag) in zip(orders, ranked_lists, out):
        lams = lam_all[start:start + len(ranked)]
        solved = zip(ranked, lams, quality_all[start:], norm_all[start:])
        start += len(ranked)
        counts = (diag["candidates"], diag["band_feasible"], diag["scores"])
        if not ranked:
            picks.append((NoModeError(
                f"no {'band-feasible ' if band is not None else ''}eigenvalue "
                f"in window [{lam_lo:.3f}, {lam_hi:.3f}] for n={n}"), *counts,
                False))
            continue
        best, second = None, False
        for i, (m, lam, quality, norm) in enumerate(solved):
            if i == modes._REFINED:
                if best is not None:
                    break
                second = True
            if not (lam_lo <= lam <= lam_hi):
                continue
            if band is not None:
                h = 1.0 / lam
                sigma = 1.0 - (n / (lam * radius)) ** 2
                if not (h ** band.rho2 <= sigma <= h ** band.rho1):
                    continue
            diag["scores"].append((m, quality))
            if best is None or quality > best[0]:
                best = (quality, (n, lam, norm))
        if best is None:
            picks.append((NoModeError(
                f"all candidates left the window/band after refinement "
                f"for n={n} (window [{lam_lo:.3f}, {lam_hi:.3f}])"), *counts,
                second))
        else:
            picks.append((best[1], *counts, second))
    return picks


# the selections of the ten sweeps of criteria 1, 3, 5 and 6 (the benchmark's
# disk-sweep), each with the trace it measures: s does not enter selection,
# so the four band sweeps make one selection, and so do the two derivative
# sweeps
_SWEEP_SELECTIONS = [(0.3, "restriction", None), (0.5, "restriction", None),
                     (0.5, "restriction", (0.3, 0.6)),
                     (0.5, "normal_derivative", None)]
# the acceptance grid, and the grid of the cli benchmark's sweep-disk
_GRIDS = [(1000, 100000, 24), (200, 2000, 12)]

def _compare_with_one_by_one(alpha, trace, band, grid):
    """Assert that select_disk_modes picks as the reference does on every
    order of the grid; return how often the reference refined past the
    ranked few."""
    target = ScaleTarget(alpha=alpha)
    spec = BandSpec(*band) if band else None
    orders = SweepConfig(kind="disk", alpha=alpha, n_lo=grid[0],
                         n_hi=grid[1], points=grid[2]).orders()
    derivative = trace == "normal_derivative"
    got = modes.select_disk_modes(orders, target, derivative=derivative,
                                  band=spec)
    assert got.n.tolist() == orders
    assert len(got.error) == len(orders)
    seconds = 0
    for j, (n, (want, candidates, feasible, scores, second)) in enumerate(
            zip(orders, _select_one_by_one(orders, target,
                                           derivative=derivative,
                                           band=spec))):
        if isinstance(want, NoModeError):
            assert isinstance(got.error[j], NoModeError), n
            assert str(got.error[j]) == str(want)
            continue
        seconds += second
        assert got.error[j] is None, n
        # batched and one by one give the same bits
        assert (n, float(got.lam[j]), float(got.normalization[j])) == want, n
        assert (got.candidates[j], got.band_feasible[j]) == (candidates,
                                                             feasible), n
        mine = got.refined_k == j
        assert got.refined_m[mine].tolist() == [m for m, _ in scores], n
        assert got.refined_quality[mine].tolist() == [q for _, q in scores], n
    return seconds


class TestBatchedSelection:
    @pytest.mark.parametrize("grid", _GRIDS)
    @pytest.mark.parametrize("alpha,trace,band", _SWEEP_SELECTIONS)
    def test_matches_one_by_one(self, alpha, trace, band, grid):
        _compare_with_one_by_one(alpha, trace, band, grid)

    def test_second_round_matches_one_by_one(self, monkeypatch):
        # with one candidate refined first, the second round, which refines
        # every other candidate of an order whose first pick left the window
        # or the band, runs often
        monkeypatch.setattr(modes, "_REFINED", 1)
        seconds = sum(_compare_with_one_by_one(*selection, grid)
                      for selection in _SWEEP_SELECTIONS for grid in _GRIDS)
        assert seconds > 0

    def test_orders_below_one_and_bad_optimize(self):
        t = ScaleTarget(alpha=0.5)
        got = modes.select_disk_modes([0, 500], t)
        assert isinstance(got.error[0], NoModeError)
        assert str(got.error[0]) == "selection needs angular order n >= 1"
        assert got.error[1] is None
        assert (got.candidates[0], got.band_feasible[0]) == (0, 0)
        assert set(got.refined_k.tolist()) == {1}
        # the same bits as the one-order call
        assert (got.lam[1], got.normalization[1]) == _select(500, t)
        assert np.isnan(got.amplitude[0])
        empty = modes.select_disk_modes([], t)
        assert empty.n.size == empty.refined_m.size == 0
        assert empty.error == ()
        # the rule is the measured trace, never an argument of its own
        with pytest.raises(TypeError):
            modes.select_disk_modes([500], t, optimize="loudest")


class TestNormsAndTraces:
    # n = 0, orders of the recurrence region (n < 200) and of the uniform
    # expansion; radius 0.9 puts some traces in the recurrence region
    N = np.array([0, 0, 1, 3, 17, 60, 150, 199, 200, 1000, 54321])
    M = np.array([1, 7, 2, 5, 3, 40, 3, 12, 1, 9, 4])

    @pytest.mark.parametrize("radius", [0.5, 0.3, 0.9])
    @pytest.mark.parametrize("derivative", [False, True])
    def test_bits_of_the_separate_calls(self, radius, derivative):
        lam = specfun.bessel_zero(self.N, self.M)
        norm, trace = modes._norms_and_traces(self.N, lam, radius,
                                              derivative)
        assert norm.tolist() == _norms(self.N, lam)
        one = specfun.bessel_j_prime if derivative else specfun.bessel_j
        assert trace.tobytes() == one(self.N, lam * radius).tobytes()
        # and each element as it is alone
        for i, n in enumerate(self.N.tolist()):
            alone = modes._norms_and_traces(self.N[i:i + 1], lam[i:i + 1],
                                            radius, derivative)
            assert (alone[0][0], alone[1][0]) == (norm[i], trace[i]), n


class TestSelectionWork:
    """Count the calls one selection or window enumeration makes, by
    wrapping the module attributes it calls through."""

    @staticmethod
    def _record(monkeypatch):
        """A list that records, in call order, each seed solve ("seed"),
        each Newton round ("zero"), each evaluation of a Newton step outside
        the seeds ("evaluation") and each Bessel dispatch call
        ("dispatch")."""
        events, seeding = [], []

        def seed(*args, **kwargs):
            events.append("seed")
            seeding.append(True)
            try:
                return seed_fn(*args, **kwargs)
            finally:
                seeding.pop()

        def zero(*args, **kwargs):
            events.append("zero")
            return zero_fn(*args, **kwargs)

        def newton(step, *args, **kwargs):
            def counted(live, x):
                if not seeding:
                    events.append("evaluation")
                return step(live, x)
            return newton_fn(counted, *args, **kwargs)

        def dispatch(*args, **kwargs):
            events.append("dispatch")
            return dispatch_fn(*args, **kwargs)

        seed_fn, zero_fn = specfun.bessel_zero_seed, specfun.bessel_zero
        newton_fn, dispatch_fn = specfun._newton, specfun._bessel_j
        monkeypatch.setattr(specfun, "bessel_zero_seed", seed)
        monkeypatch.setattr(specfun, "bessel_zero", zero)
        monkeypatch.setattr(specfun, "_newton", newton)
        monkeypatch.setattr(specfun, "_bessel_j", dispatch)
        return events

    @staticmethod
    def _rounds(events):
        """The events from each "zero" to the next, and those before."""
        cuts = [i for i, e in enumerate(events) if e == "zero"] + [None]
        return events[:cuts[0]], [events[a + 1:b]
                                  for a, b in zip(cuts, cuts[1:])]

    # with one candidate refined first, the band sweep needs a second round
    @pytest.mark.parametrize("refined,alpha,trace,band,rounds", [
        (3, *selection, 1) for selection in _SWEEP_SELECTIONS] + [
        (1, 0.5, "restriction", (0.3, 0.6), 2)])
    def test_selection_seeds_once_and_calls_once_past_the_newton(
            self, monkeypatch, refined, alpha, trace, band, rounds):
        monkeypatch.setattr(modes, "_REFINED", refined)
        events = self._record(monkeypatch)
        orders = SweepConfig(kind="disk", alpha=alpha, n_lo=1000,
                             n_hi=100000, points=24).orders()
        modes.select_disk_modes(orders, ScaleTarget(alpha=alpha),
                                derivative=trace == "normal_derivative",
                                band=BandSpec(*band) if band else None)
        before, each = self._rounds(events)
        assert before == ["seed"] and len(each) == rounds
        for r in each:
            # the Newton's evaluations, then one call for the admitted
            # zeros' normalizations and traces
            assert "seed" not in r
            assert r.count("dispatch") == r.count("evaluation") + 1
            assert r[-1] == "dispatch"

    def test_window_slice_calls_once_past_the_newton(self, monkeypatch):
        events = self._record(monkeypatch)
        monkeypatch.setattr(modes, "_BATCH_ORDERS", 500)
        lo = np.array([200.0, 536.54, 1439.37])
        modes.modes_in_frequency_windows(lo, lo + 1.0)
        before, slices = self._rounds(events)
        assert before == [] and len(slices) > 1
        for r in slices:
            assert r.count("dispatch") == r.count("evaluation") + 1


def _sphere_one_by_one(l, target):
    """The azimuthal order of degree l as the selector picked it one degree
    at a time, or the message of its NoModeError: the reference for the
    array pass of select_sphere_modes."""
    m_lo, m_hi = target.sphere_order_window(l)
    m = math.floor(m_hi)
    if (l + m) % 2 == 1:
        m -= 1
    if m < max(m_lo, 0.0):
        return (f"no even-parity order in window [{m_lo:.2f}, {m_hi:.2f}] "
                f"for l={l}")
    return m


class TestSphereSelection:
    @settings(max_examples=20, deadline=None)
    @given(l=st.integers(min_value=100, max_value=100000),
           alpha=st.sampled_from([0.5, 0.8]))
    def test_order_in_window_and_even(self, l, alpha):
        t = ScaleTarget(alpha=alpha)
        m, error = modes.select_sphere_modes([l], t)
        assert error == (None,)
        mlo, mhi = t.sphere_order_window(l)
        assert mlo <= m[0] <= mhi
        assert (l + m[0]) % 2 == 0

    def test_too_small_degree_raises(self):
        _, error = modes.select_sphere_modes([2], ScaleTarget(alpha=0.5))
        assert isinstance(error[0], NoModeError)

    def test_sigma_scales_like_power(self):
        l = np.array([1000, 100000])
        m, _ = modes.select_sphere_modes(l, ScaleTarget(alpha=0.5))
        s1, s2 = 1.0 - m * m / (l * (l + 1.0))
        # sigma ~ 2 offset l^{-1/2}: two decades in l gives one in sigma
        assert s1 / s2 == pytest.approx(10.0, rel=0.2, abs=0.0)

    @pytest.mark.parametrize("alpha,offset", [(0.5, 4.0), (0.8, 4.0),
                                              (0.3, 1.0), (0.75, 0.5)])
    def test_array_pass_matches_one_by_one(self, alpha, offset):
        # every degree of the sphere sweeps' range up to 2e4, perfect
        # squares and fourth powers included, and the certified limit 1e6:
        # the same orders and, byte for byte, the same messages
        t = ScaleTarget(alpha=alpha, offset=offset)
        degrees = np.append(np.arange(0, 20001), 1000000)
        m, errors = modes.select_sphere_modes(degrees, t)
        for l, got, error in zip(degrees.tolist(), m.tolist(), errors):
            want = _sphere_one_by_one(l, t)
            assert (str(error) if error is not None else got) == want, l

    def test_bad_degrees_rejected(self):
        t = ScaleTarget(alpha=0.5)
        for bad in ([100.5], [-4]):
            with pytest.raises(ValueError, match="degree"):
                modes.select_sphere_modes(bad, t)
        m, errors = modes.select_sphere_modes([], t)
        assert m.size == 0 and errors == ()


def _enumerate_wide(lam_lo, lam_hi):
    """The modes of every zero in [lam_lo, lam_hi], solving each index from
    floor(m(lam_lo)) to ceil(m(lam_hi)) + 1 of every order n whose index at
    lam_hi is at least 1/2, all in one bessel_zero call: the wide
    reference for the candidate range and for the batched Newton."""
    orders = np.arange(math.floor(lam_hi) + 2)
    lo, hi = specfun.bessel_zero_index(orders[:, None], [lam_lo, lam_hi]).T
    orders, lo, hi = orders[hi >= 0.5], lo[hi >= 0.5], hi[hi >= 0.5]
    pairs = [(n, m) for n, a, b in zip(orders.tolist(), lo.tolist(),
                                       hi.tolist())
             for m in range(max(1, math.floor(a)), math.ceil(b) + 2)]
    n, m = (np.array(col, dtype=np.int64) for col in zip(*pairs))
    lam = specfun.bessel_zero(n, m)
    inside = (lam_lo <= lam) & (lam <= lam_hi)
    n, lam = n[inside], lam[inside]
    return list(zip(n.tolist(), lam.tolist(), _norms(n, lam)))


def _assert_matches_wide(found, lam_lo, lam_hi):
    # the same modes, bit for bit: a zero does not depend on the other
    # zeros of its batch
    assert found == _enumerate_wide(lam_lo, lam_hi)


def _window(lam_lo, lam_hi):
    """The modes of one window as (n, lam, normalization): the one-window
    call of modes_in_frequency_windows."""
    _, n, lam, norm, _ = modes.modes_in_frequency_windows([lam_lo],
                                                          [lam_hi])
    return list(zip(n.tolist(), lam.tolist(), norm.tolist()))


class TestFrequencyWindow:
    def test_small_window_frozen(self):
        # zeros in [5, 6]: j_{2,1} = 5.1356, j_{0,2} = 5.5201
        found = _window(5.0, 6.0)
        pairs = sorted((n, round(lam, 3)) for n, lam, _ in found)
        assert pairs == [(0, 5.520), (2, 5.136)]

    def test_against_phase_count(self):
        found = _window(80.0, 82.5)
        slots = sum(2 if n >= 1 else 1 for n, _, _ in found)
        assert slots == oracle.weyl_count(82.5, 80.0)

    def test_exact_at_quasimode_windows(self):
        # criterion 4's windows, where zeros fall within 1e-3 of an edge
        # (j_{99,410} = 1439.3706 just below Lambda = 1439.3713), and small
        # windows that cover n = 0 and the last orders of the order range,
        # each against the oracle's exact count and the wide enumeration
        small = [0.5, 1.0, 2.5, 5.0, 6.0, 10.0, 19.75, 37.3, 99.9]
        for lam in small + list(np.geomspace(200.0, 2000.0, 8)):
            found = _window(lam, lam + 1.0)
            slots = sum(2 if n >= 1 else 1 for n, _, _ in found)
            assert slots == oracle.weyl_count(lam + 1.0, lam)
            _assert_matches_wide(found, lam, lam + 1.0)

    # (445, 8) and (957, 3): zeros that a batch once rounded an ulp off the
    # zero solved alone (when the Airy sums were matrix products), which
    # dropped them out of one of their windows
    @pytest.mark.parametrize("n,m", [(0, 1), (1, 1), (500, 1), (1000, 218),
                                     (40, 7), (445, 8), (957, 3)])
    def test_zero_on_window_edge(self, n, m):
        # a zero exactly on either edge is kept, with the value solved
        # alone, and each window holds the same modes as the enumeration
        # over a wide index range
        j = specfun.bessel_zero(n, m)
        for lo, hi in ((j - 1.0, j), (j, j + 1.0)):
            found = _window(lo, hi)
            assert (n, j) in [(k, lam) for k, lam, _ in found]
            _assert_matches_wide(found, lo, hi)

    def test_solves_few_zeros_per_mode(self, monkeypatch):
        # the elements of the batched Newton
        solve = specfun.bessel_zero
        solved = []

        def counted(n, m):
            solved.append(np.size(n))
            return solve(n, m)

        monkeypatch.setattr(specfun, "bessel_zero", counted)
        for lam in (200.0, 536.54, 2000.0):
            solved.clear()
            found = _window(lam, lam + 1.0)
            assert len(found) <= sum(solved) <= 1.6 * len(found)

    def test_all_inside_and_normalized(self):
        found = _window(40.0, 41.0)
        for _, lam, norm in found:
            assert 40.0 <= lam <= 41.0
            assert norm > 0.0
        assert len({(n, round(lam, 9)) for n, lam, _ in found}) == len(found)

    def test_bad_window_rejected(self):
        with pytest.raises(ValueError):
            _window(6.0, 5.0)


def _enumerate_one_window(lam_lo, lam_hi):
    """The per-window enumeration that the batched one replaced: every
    candidate of the orders 0 ... floor(lam_hi) of one window, in one
    batched Newton; the reference for
    :func:`modes.modes_in_frequency_windows`."""
    n, m = specfun.bessel_zero_candidate_ranges(
        np.arange(math.floor(lam_hi) + 1), lam_lo, lam_hi)
    lam = specfun.bessel_zero(n, m)
    inside = (lam_lo <= lam) & (lam <= lam_hi)
    n, lam = n[inside], lam[inside]
    jm1, jn = specfun.bessel_j_pair(n, lam)
    jnp1 = (2.0 * n / lam) * jn - jm1
    norm = 1.0 / (math.sqrt(math.pi) * np.abs(jnp1))
    return list(zip(n.tolist(), lam.tolist(), norm.tolist()))


def _windows(batched):
    """The columns of modes_in_frequency_windows split by window, as one
    list of (n, lam, normalization) per window index up to the last."""
    win, n, lam, norm, amp = batched
    assert len(win) == len(n) == len(lam) == len(norm) == len(amp)
    # ordered by (window, n, lam)
    assert np.lexsort((lam, n, win)).tolist() == list(range(len(win)))
    found = [[] for _ in range(win.max() + 1 if len(win) else 0)]
    for mode in zip(win.tolist(), n.tolist(), lam.tolist(), norm.tolist()):
        found[mode[0]].append(mode[1:])
    return found


def _assert_matches_one_by_one(batched, lo, hi):
    found = _windows(batched)
    assert len(found) <= len(lo)
    found += [[]] * (len(lo) - len(found))
    for modes_of, a, b in zip(found, lo, hi):
        # the same bits in a batch of many windows as in a batch of one
        assert modes_of == _enumerate_one_window(a, b), (a, b)


class TestBatchedWindows:
    def test_matches_one_window_at_a_time(self):
        # the windows of the zero-index screen's checks: small ones that
        # cover n = 0 and the last orders, and criterion 4's, where zeros
        # fall within 1e-3 of an edge
        lo = np.concatenate([np.geomspace(0.3, 3000.0, 120),
                             [536.54, 1439.37]])
        batched = modes.modes_in_frequency_windows(lo, lo + 1.0)
        assert len(batched[0]) == 10552
        _assert_matches_one_by_one(batched, lo, lo + 1.0)

    def test_overlapping_windows(self):
        # spacing 0.3 < 1: a zero in several windows is a mode of each
        lo = 100.0 + 0.3 * np.arange(10)
        batched = modes.modes_in_frequency_windows(lo, lo + 1.0)
        _assert_matches_one_by_one(batched, lo, lo + 1.0)
        first, second = ({(n, lam) for n, lam, _ in found}
                         for found in _windows(batched)[:2])
        assert first & second
        assert all(lo[1] <= lam <= lo[0] + 1.0 for _, lam in first & second)

    @pytest.mark.parametrize("n,m", [(445, 8), (957, 3)])
    def test_edge_zero_in_adjacent_windows(self, n, m):
        # j_{n,m} ends one window and starts the next, within one batch;
        # both keep it with the value solved alone
        j = specfun.bessel_zero(n, m)
        lo, hi = np.array([j - 1.0, j]), np.array([j, j + 1.0])
        batched = modes.modes_in_frequency_windows(lo, hi)
        for found in _windows(batched):
            assert (n, j) in [(k, lam) for k, lam, _ in found]
        _assert_matches_one_by_one(batched, lo, hi)

    def test_one_window_case_and_bad_windows(self):
        # the same bits in a batch of one window as among others
        assert _window(5.0, 6.0) == _windows(
            modes.modes_in_frequency_windows([5.0, 40.0], [6.0, 41.0]))[0]
        assert all(len(column) == 0 for column in
                   modes.modes_in_frequency_windows([], []))
        # an empty window among full ones keeps its place
        win = modes.modes_in_frequency_windows([5.0, 2.5, 40.0],
                                               [6.0, 3.5, 41.0])[0]
        assert (np.bincount(win, minlength=3) > 0).tolist() == \
            [True, False, True]
        for lo, hi in (([5.0, 6.0], [6.0, 5.0]), ([0.0], [1.0]),
                       ([1.0], [math.inf]), ([math.nan], [2.0])):
            with pytest.raises(ValueError, match=r"need 0 < lam_lo"):
                modes.modes_in_frequency_windows(lo, hi)

    @pytest.mark.parametrize("radius", [0.5, 0.3])
    def test_amplitude_is_the_trace_on_the_circle(self, radius):
        # c J_n(lam R), bit for bit, as the selector's amplitude column
        lo = np.array([60.0, 200.0])
        kw = {} if radius == 0.5 else {"radius": radius}
        _, n, lam, norm, amp = modes.modes_in_frequency_windows(lo, lo + 1.0,
                                                                **kw)
        assert amp.tobytes() == (
            norm * specfun.bessel_j(n, lam * radius)).tobytes()
