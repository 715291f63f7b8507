"""Tests for the scaling experiments and the exponent fitter."""

import dataclasses
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glancelab import experiments as ex
from glancelab import io, modes, specfun
from glancelab.weights import (BandSpec, WeightSpec, glancing_distance,
                               glancing_weight, trace_norm)


# ----------------------------------------------------------------------
# fit_exponent
# ----------------------------------------------------------------------

def test_fit_recovers_exact_power_law():
    x = np.geomspace(10.0, 1e4, 20)
    y = 3.0 * x ** 1.7
    f = ex.fit_exponent(x, y)
    assert abs(f.slope - 1.7) < 1e-12
    assert abs(f.intercept - math.log(3.0)) < 1e-12
    assert f.r_squared > 1.0 - 1e-12
    assert f.stderr < 1e-12
    assert f.n_points == 15  # 25% of 20 dropped


@given(slope=st.floats(-2.0, 2.0), scale=st.floats(0.1, 10.0))
@settings(max_examples=30, deadline=None)
def test_fit_exact_any_exponent(slope, scale):
    x = np.geomspace(1.0, 100.0, 12)
    f = ex.fit_exponent(x, scale * x ** slope)
    assert abs(f.slope - slope) < 1e-9


def test_fit_drop_low_discards_leading_rows():
    x = np.geomspace(1.0, 1e3, 16)
    y = x ** 0.5
    y[:4] *= 100.0  # corrupt the pre-asymptotic end
    f = ex.fit_exponent(x, y, drop_low=0.25)
    assert abs(f.slope - 0.5) < 1e-12


def test_fit_refuses_strong_trend_with_bad_r2():
    rng = np.random.default_rng(3)
    x = np.geomspace(1.0, 1e3, 24)
    y = x ** 1.0 * np.exp(rng.normal(0.0, 3.0, size=x.size))
    with pytest.raises(ex.FitError, match="unreliable"):
        ex.fit_exponent(x, y, drop_low=0.0)


def test_fit_reports_flat_data_despite_scatter():
    # bounded quantity with scatter: low r^2 but slope ~ 0 is a valid answer
    rng = np.random.default_rng(11)
    x = np.geomspace(1.0, 1e3, 40)
    y = np.exp(rng.normal(0.0, 0.05, size=x.size))
    f = ex.fit_exponent(x, y, drop_low=0.0)
    assert abs(f.slope) < 0.05


def test_fit_validation_errors():
    with pytest.raises(ex.FitError):
        ex.fit_exponent([1.0, 2.0], [1.0, 2.0])          # too few
    with pytest.raises(ex.FitError):
        ex.fit_exponent([1, 2, 3, 4], [1, -1, 1, 1], drop_low=0.0)
    with pytest.raises(ex.FitError):
        ex.fit_exponent([2, 2, 2, 2], [1, 1, 1, 1], drop_low=0.0)
    with pytest.raises(ex.FitError):
        ex.fit_exponent(np.ones((2, 2)), np.ones((2, 2)))
    for bad in (math.nan, math.inf):
        with pytest.raises(ex.FitError, match="finite"):
            ex.fit_exponent([1, 2, 3, 4], [1, bad, 3, 4], drop_low=0.0)


@pytest.mark.parametrize("drop_low", [-0.5, -1.0, 1.0, 1.5, math.nan,
                                      math.inf])
def test_fit_rejects_drop_low_outside_unit_interval(drop_low):
    # unchecked, a negative fraction would keep the last rows (-0.5) or all
    # of them (-1), and nan would fail inside math.floor
    x = np.geomspace(1.0, 1e3, 24)
    with pytest.raises(ValueError, match=r"drop_low must lie in \[0, 1\)"):
        ex.fit_exponent(x, x ** 0.5, drop_low=drop_low)


# ----------------------------------------------------------------------
# sweep configuration
# ----------------------------------------------------------------------

def test_orders_geometric_unique_sorted():
    cfg = ex.SweepConfig(kind="disk", alpha=0.5, n_lo=100, n_hi=10000,
                         points=12)
    orders = cfg.orders()
    assert orders[0] == 100 and orders[-1] == 10000
    assert orders == sorted(set(orders))
    assert len(orders) == 12


def test_orders_collapse_duplicates():
    cfg = ex.SweepConfig(kind="disk", alpha=0.5, n_lo=10, n_hi=12, points=9)
    orders = cfg.orders()
    assert orders == [10, 11, 12]


# ----------------------------------------------------------------------
# amplitude sweeps
# ----------------------------------------------------------------------

def test_disk_amplitude_sweep_scaling():
    cfg = ex.SweepConfig(kind="disk", alpha=0.5, n_lo=100, n_hi=2000,
                         points=8)
    res = ex.amplitude_sweep(cfg)
    assert len(res.rows) == 8 and not res.skipped
    for row in res.rows:
        assert row.lam > 2 * row.n           # above the glancing frequency
        assert 0.0 < row.sigma < 0.5          # near-glancing window
        assert row.weighted_norm == pytest.approx(
            row.amplitude * math.sqrt(2.0 * math.pi * cfg.radius))
    f = res.fit(x="lam")
    assert 0.05 < f.slope < 0.20              # alpha/4 = 0.125


def test_demo_table_is_criterion_1_sweep():
    # demos/disk_growth.csv is the alpha = 1/2 sweep of criterion 1, so a
    # change that moves any selected mode's bits fails here
    cfg = ex.SweepConfig(kind="disk", alpha=0.5, n_lo=1000, n_hi=100000,
                         points=24)
    demo = Path(__file__).resolve().parent.parent / "demos" / "disk_growth.csv"
    assert demo.read_bytes() == io.sweep_to_csv_text(
        ex.amplitude_sweep(cfg)).encode()


def test_disk_rows_ascend_in_order():
    cfg = ex.SweepConfig(kind="disk", alpha=0.3, n_lo=50, n_hi=500, points=5)
    res = ex.amplitude_sweep(cfg)
    ns = [row.n for row in res.rows]
    assert ns == sorted(ns)


def test_sphere_amplitude_sweep_scaling():
    cfg = ex.SweepConfig(kind="sphere", alpha=0.5, n_lo=200, n_hi=5000,
                         points=8)
    res = ex.amplitude_sweep(cfg)
    f = res.fit(x="lam")
    assert abs(f.slope - 0.125) < 0.03
    assert f.r_squared > 0.99


def test_sweep_row_matches_direct_selection():
    from glancelab import modes
    cfg = ex.SweepConfig(kind="disk", alpha=0.5, n_lo=300, n_hi=300, points=1)
    res = ex.amplitude_sweep(cfg)
    row = res.rows[0]
    got = modes.select_disk_modes([300], cfg.target())
    lam = float(got.lam[0])
    assert row.lam == lam
    assert row.h == pytest.approx(1.0 / lam)
    assert row.sigma == pytest.approx(1.0 - (300 / (lam * 0.5)) ** 2)


def test_unknown_kind_rejected():
    with pytest.raises(ValueError, match="kind"):
        ex.SweepConfig(kind="torus", alpha=0.5, n_lo=10, n_hi=20, points=2)


def test_sphere_config_rejects_a_radius():
    # the sphere's trace is the equator: a radius would be ignored
    with pytest.raises(ValueError, match="radius"):
        ex.SweepConfig(kind="sphere", alpha=0.5, n_lo=200, n_hi=5000,
                       points=8, radius=0.3)


def test_sphere_config_rejects_an_optimize_rule():
    # the measured trace picks every disk mode: no config, sphere or disk,
    # takes a rule, and the sphere's refusal names the radius alone
    for kind in ("sphere", "disk"):
        with pytest.raises(TypeError, match="optimize"):
            ex.SweepConfig(kind=kind, alpha=0.5, n_lo=200, n_hi=5000,
                           points=8, optimize="restriction")
    with pytest.raises(ValueError) as info:
        ex.SweepConfig(kind="sphere", alpha=0.5, n_lo=200, n_hi=5000,
                       points=8, radius=0.3)
    assert str(info.value) == ("a sphere sweep restricts to the equator: "
                               "radius applies to the disk only")


@pytest.mark.parametrize("kind", ["disk", "sphere"])
def test_window_reach_bound(kind):
    # n_hi^alpha may equal the offset 4: at n_hi = 16, alpha = 1/2 the order
    # window of degree 16 ends at 0; at 15 every degree's lies below 0.  The
    # disk's windows lie above 2n whatever n_hi, and it keeps no such bound
    at = dict(kind=kind, alpha=0.5, n_lo=1, points=2)
    cfg = ex.SweepConfig(**at, n_hi=16)
    assert ex.amplitude_sweep(cfg).rows[-1].n == 16
    if kind == "disk":
        assert ex.SweepConfig(**at, n_hi=15).n_hi == 15
        return
    with pytest.raises(ValueError, match="--n-max") as info:
        ex.SweepConfig(**at, n_hi=15)
    assert "--alpha" in str(info.value)


def test_normal_derivative_sweep_rejects_sphere():
    # a sphere sweep takes equator values: it would measure the amplitude
    cfg = ex.SweepConfig(kind="sphere", alpha=0.5, n_lo=200, n_hi=5000,
                         points=8)
    with pytest.raises(ValueError, match="disk"):
        ex.normal_derivative_sweep(cfg, s=0.25)


# ----------------------------------------------------------------------
# band sweep
# ----------------------------------------------------------------------

def test_sharpness_sweep_rows_inside_band():
    cfg = ex.SweepConfig(kind="disk", alpha=0.5, n_lo=4000, n_hi=30000,
                         points=6)
    band = BandSpec(0.3, 0.6)
    res = ex.sharpness_sweep(cfg, s=0.1, band=band)
    assert res.rows
    for row in res.rows:
        assert row.h ** band.rho2 <= row.sigma <= row.h ** band.rho1
        assert row.rho1 == 0.3 and row.rho2 == 0.6 and row.s == 0.1
        expect = row.sigma ** 0.1 * row.amplitude * math.sqrt(math.pi)
        assert row.weighted_norm == pytest.approx(expect, rel=1e-12, abs=0.0)


def test_sharpness_sweep_infeasible_orders_skipped():
    # at small order the window sits entirely above the band ceiling h^rho1
    cfg = ex.SweepConfig(kind="disk", alpha=0.5, n_lo=200, n_hi=800, points=4)
    with pytest.raises(ex.FitError, match="no usable rows"):
        ex.sharpness_sweep(cfg, s=0.0, band=BandSpec(0.3, 0.6))


def test_sharpness_sweep_mixed_grid_logs_skips():
    cfg = ex.SweepConfig(kind="disk", alpha=0.5, n_lo=1000, n_hi=20000,
                         points=6)
    res = ex.sharpness_sweep(cfg, s=0.0, band=BandSpec(0.3, 0.6))
    assert res.rows and res.skipped
    skipped_orders = [n for n, _ in res.skipped]
    assert min(skipped_orders) < min(row.n for row in res.rows)


@pytest.mark.parametrize("radius", [0.4, 0.5, 0.6])
@pytest.mark.parametrize("band", [(0.3, 0.6), (0.1, 0.3)])
def test_band_selection_passes_the_sweeps_band_test(radius, band):
    # selection and sweep read one glancing distance, so every mode a band
    # sweep selects is a row: an order is skipped only by the selector
    cfg = ex.SweepConfig(kind="disk", alpha=0.5, n_lo=1000, n_hi=100000,
                         points=24, radius=radius)
    try:
        res = ex.sharpness_sweep(cfg, s=0.1, band=BandSpec(*band))
    except ex.FitError:
        return      # no order has a band-feasible mode
    except ValueError as exc:
        # nor has one, and nor has the largest certified order
        assert "--rho1" in str(exc) and "--radius" in str(exc)
        edge = modes.select_disk_modes([ex._MAX_ORDER], cfg.target(),
                                       radius=radius, band=BandSpec(*band))
        assert not edge.band_feasible.any()
        return
    assert not [reason for _, reason in res.skipped
                if "outside the band" in reason]


def test_normal_band_names_evanescent_modes():
    # the windows are calibrated to R = 1/2: at R = 0.48 most selected
    # modes turn before the circle, where sqrt(xi_d) = 0
    cfg = ex.SweepConfig(kind="disk", alpha=0.5, n_lo=1000, n_hi=100000,
                         points=24, radius=0.48)
    res = ex.normal_band_check(cfg)
    n, lam, *_ = ex._disk_traces(cfg, False, None)
    sigma = dict(zip(n.tolist(),
                     glancing_distance(n, 1.0 / lam, 0.48).tolist()))
    assert len(res.skipped) == 17 and len(res.rows) == 7
    for order, reason in res.skipped:
        assert reason == ("selected mode is evanescent at the circle "
                          "(sigma <= 0)")
        assert sigma[order] <= 0.0


# ----------------------------------------------------------------------
# conormal-weighted and derivative sweeps
# ----------------------------------------------------------------------

def test_normal_band_flat():
    cfg = ex.SweepConfig(kind="disk", alpha=0.3, n_lo=500, n_hi=20000,
                         points=8)
    res = ex.normal_band_check(cfg)
    for row in res.rows:
        expect = math.sqrt(row.xi_d) * row.amplitude * math.sqrt(math.pi)
        assert row.weighted_norm == pytest.approx(expect, rel=1e-12, abs=0.0)
    assert abs(res.fit(x="lam").slope) < 0.05


def test_normal_derivative_flat_at_quarter():
    cfg = ex.SweepConfig(kind="disk", alpha=0.5, n_lo=500, n_hi=20000,
                         points=8)
    res = ex.normal_derivative_sweep(cfg, s=0.25)
    assert abs(res.fit(x="h").slope) < 0.05
    for row in res.rows:
        # far branch of the weight: pure power sigma^{-s}
        assert row.sigma > 2.0 * row.h ** (2.0 / 3.0)
        expect = row.sigma ** -0.25 * row.amplitude * math.sqrt(math.pi)
        assert row.weighted_norm == pytest.approx(expect, rel=1e-9, abs=0.0)


def test_normal_derivative_needs_far_branch():
    cfg = ex.SweepConfig(kind="disk", alpha=0.5, n_lo=100, n_hi=200, points=2)
    with pytest.raises(ValueError, match="rho > alpha"):
        ex.normal_derivative_sweep(cfg, s=0.25, rho=0.4)


def test_normal_derivative_uses_derivative_trace():
    from glancelab import modes
    cfg = ex.SweepConfig(kind="disk", alpha=0.5, n_lo=400, n_hi=400, points=1)
    res = ex.normal_derivative_sweep(cfg, s=0.25)
    row = res.rows[0]
    got = modes.select_disk_modes([400], cfg.target(), derivative=True)
    amp = got.normalization[0] * specfun.bessel_j_prime(400,
                                                        got.lam[0] * 0.5)
    assert row.amplitude == pytest.approx(abs(amp))


# ----------------------------------------------------------------------
# the per-process memo of disk traces
# ----------------------------------------------------------------------

@pytest.fixture
def fresh_traces():
    """An empty disk-trace cache, emptied again afterwards."""
    ex._disk_traces.cache_clear()
    yield ex._disk_traces.cache_info
    ex._disk_traces.cache_clear()


def _criteria_sweeps():
    """(label, run) of the ten sweeps of criteria 1, 3, 5 and 6 on a small
    grid: four distinct selections, as in the acceptance gate."""
    grid = dict(n_lo=1000, n_hi=20000, points=6)
    cfg = {a: ex.SweepConfig(kind="disk", alpha=a, **grid) for a in (0.3, 0.5)}
    band = BandSpec(0.3, 0.6)
    return (
        [(f"amplitude-a{a}", lambda a=a: ex.amplitude_sweep(cfg[a]))
         for a in (0.3, 0.5)]
        + [(f"band-s{s}",
            lambda s=s: ex.sharpness_sweep(cfg[0.5], s=s, band=band))
           for s in (0.0, 0.1, 0.25, 0.4)]
        + [(f"normal-a{a}", lambda a=a: ex.normal_band_check(cfg[a]))
           for a in (0.3, 0.5)]
        + [(f"derivative-s{s}",
            lambda s=s: ex.normal_derivative_sweep(cfg[0.5], s=s))
           for s in (0.25, 0.4)])


@pytest.mark.parametrize("order", [range(10), [9, 5, 2, 7, 0, 3, 8, 1, 6, 4]])
def test_shared_traces_give_the_same_sweeps(fresh_traces, order):
    sweeps = _criteria_sweeps()
    got = {}
    for i in order:
        label, run = sweeps[i]
        res = run()
        got[label] = (io.sweep_to_csv_text(res), res.skipped)
    info = fresh_traces()
    assert (info.misses, info.hits, info.currsize) == (4, 6, 4)
    for label, run in sweeps:
        ex._disk_traces.cache_clear()
        res = run()
        assert (io.sweep_to_csv_text(res), res.skipped) == got[label], label


def test_every_key_field_misses(fresh_traces):
    base = ex.SweepConfig(kind="disk", alpha=0.5, n_lo=300, n_hi=600,
                          points=2)
    first = ex._disk_traces(base, False, None)
    *columns, skipped = first
    # the columns and the skipped pairs account for the two orders
    assert len(columns) == 7
    assert columns[0].size + len(skipped) == 2
    assert {column.size for column in columns} == {columns[0].size}
    assert ex._disk_traces(base, False, None) is first
    assert fresh_traces().hits == 1
    keys = [(dataclasses.replace(base, **change), False, None)
            for change in (dict(n_hi=700), dict(points=3), dict(alpha=0.4),
                           dict(radius=0.4))]
    keys += [(base, False, BandSpec(0.1, 0.9)), (base, True, None)]
    for k, key in enumerate(keys, start=2):
        ex._disk_traces(*key)
        assert (fresh_traces().misses, fresh_traces().hits) == (k, 1), key


def test_errors_are_not_cached(fresh_traces):
    # a bad radius is refused when the config is built, so no sweep, and no
    # cache entry, ever sees it
    good = ex.SweepConfig(kind="disk", alpha=0.5, n_lo=300, n_hi=300,
                          points=1)
    for change, flag in ((dict(radius=1.5), "--radius"),
                         (dict(radius=0.0), "--radius"),
                         (dict(radius=math.nan), "--radius")):
        with pytest.raises(ValueError, match=flag):
            dataclasses.replace(good, **change)
    info = fresh_traces()
    assert (info.misses, info.hits, info.currsize) == (0, 0, 0)


def test_mutating_a_result_leaves_later_sweeps_alone(fresh_traces):
    cfg = ex.SweepConfig(kind="disk", alpha=0.5, n_lo=1000, n_hi=20000,
                         points=6)
    band = BandSpec(0.3, 0.6)
    first = ex.sharpness_sweep(cfg, s=0.0, band=band)
    text, skipped = io.sweep_to_csv_text(first), list(first.skipped)
    assert first.rows and skipped
    first.rows.pop()
    first.rows[0] = first.rows[0]._replace(lam=1.0)
    first.skipped.clear()
    first.skipped.append((1, "changed"))
    second = ex.sharpness_sweep(cfg, s=0.0, band=band)
    assert fresh_traces().hits == 1
    assert io.sweep_to_csv_text(second) == text
    assert second.skipped == skipped


@pytest.mark.parametrize("first, second", [
    (lambda cfg: ex.sharpness_sweep(cfg, s=0.0, band=BandSpec(0.3, 0.6)),
     lambda cfg: ex.sharpness_sweep(cfg, s=0.25, band=BandSpec(0.3, 0.6))),
    (lambda cfg: ex.normal_derivative_sweep(cfg, s=0.25),
     lambda cfg: ex.normal_derivative_sweep(cfg, s=0.4)),
    (ex.amplitude_sweep, ex.normal_band_check),
], ids=["band", "derivative", "normal-band"])
def test_a_reused_selection_does_only_its_quantitys_work(
        fresh_traces, monkeypatch, first, second):
    # the memo holds the selection's derived columns: a sweep that reuses
    # it selects nothing and recomputes neither sigma nor the trace norm
    cfg = ex.SweepConfig(kind="disk", alpha=0.5, n_lo=1000, n_hi=20000,
                         points=6)
    expect = io.sweep_to_csv_text(second(cfg))
    ex._disk_traces.cache_clear()
    first(cfg)

    def recompute(*args, **kwargs):
        raise AssertionError("a reused selection recomputed a column")

    monkeypatch.setattr(ex, "glancing_distance", recompute)
    monkeypatch.setattr(ex, "trace_norm", recompute)
    monkeypatch.setattr(ex.modes_mod, "select_disk_modes", recompute)
    assert io.sweep_to_csv_text(second(cfg)) == expect
    assert (fresh_traces().misses, fresh_traces().hits) == (1, 1)


def test_batched_paths_build_no_disk_mode(fresh_traces):
    # modes travel as columns only: the one-mode classes are gone, and the
    # quasimode ensemble and the disk sweeps run on the batched enumeration
    # and selection
    assert not hasattr(modes, "DiskMode")
    assert not hasattr(modes, "SphereMode")
    res = ex.quasimode_boundedness(windows=2, trials=2)
    assert [r.dim > 0 for r in res.rows] == [True, True]
    cfg = ex.SweepConfig(kind="disk", alpha=0.5, n_lo=1000, n_hi=20000,
                         points=6)
    assert ex.sharpness_sweep(cfg, s=0.1, band=BandSpec(0.3, 0.6)).rows
    assert fresh_traces().misses == 1


def test_trace_columns_are_read_only(fresh_traces):
    # the memoized columns are shared by every sweep that reads them
    cfg = ex.SweepConfig(kind="disk", alpha=0.5, n_lo=300, n_hi=600, points=2)
    for column in ex._disk_traces(cfg, False, None)[:-1]:
        with pytest.raises(ValueError, match="read-only"):
            column[0] = 1.0


# ----------------------------------------------------------------------
# quasimodes
# ----------------------------------------------------------------------

def test_quasimode_windows_bounded_and_weyl_consistent():
    res = ex.quasimode_boundedness(lam_lo=60.0, lam_hi=160.0, windows=3,
                                   trials=5, seed=7)
    assert len(res.rows) == 3
    for row in res.rows:
        assert abs(row.dim - row.weyl_estimate) <= 0.2 * row.weyl_estimate
        assert 0.0 < row.mean_norm <= row.max_norm
    assert res.spread < 3.0


def test_quasimode_weyl_check_catches_lost_modes(monkeypatch):
    # an enumeration that drops every other mode about halves the window's
    # dimension, 500 at Lambda = 1000, far past the Weyl remainder
    # Lambda^{2/3} = 100
    exact = modes.modes_in_frequency_windows

    def lossy(*args, **kwargs):
        return tuple(column[::2] for column in exact(*args, **kwargs))

    monkeypatch.setattr(modes, "modes_in_frequency_windows", lossy)
    with pytest.raises(specfun.NumericalError,
                       match="two-term Weyl predicts 499.8; enumeration is "
                             "broken"):
        ex.quasimode_boundedness(lam_lo=1000.0, lam_hi=1000.0, windows=1,
                                 trials=1)


def test_quasimode_empty_window_raises():
    # [2.5, 3.5] lies between j_{0,1} = 2.405 and j_{1,1} = 3.832; the first
    # window, [2, 3], holds j_{0,1}
    with pytest.raises(ex.NoModeError, match=r"window \[2\.50, 3\.50\] "
                       r"holds no mode"):
        ex.quasimode_boundedness(lam_lo=2.0, lam_hi=2.5, windows=2, trials=2)
    with pytest.raises(ex.NoModeError, match=r"\[1\.10, 2\.10\]"):
        ex.quasimode_boundedness(lam_lo=1.1, lam_hi=1.3, windows=2, trials=2)


@pytest.mark.parametrize("seed", [-1, 2.0, 0.5, "7"])
def test_quasimode_rejects_a_bad_seed_before_any_work(monkeypatch, seed):
    def enumerate_windows(*args, **kwargs):
        raise AssertionError("windows enumerated before the seed was checked")

    monkeypatch.setattr(modes, "modes_in_frequency_windows", enumerate_windows)
    with pytest.raises(ValueError, match="^seed must be a non-negative "
                       "integer, got "):
        ex.quasimode_boundedness(lam_lo=60.0, lam_hi=90.0, windows=2,
                                 trials=2, seed=seed)


def test_quasimode_deterministic():
    kw = dict(lam_lo=60.0, lam_hi=90.0, windows=2, trials=4, seed=123)
    a = ex.quasimode_boundedness(**kw)
    b = ex.quasimode_boundedness(**kw)
    assert [r.max_norm for r in a.rows] == [r.max_norm for r in b.rows]
    assert [r.mean_norm for r in a.rows] == [r.mean_norm for r in b.rows]


def test_quasimode_seed_changes_draws():
    a = ex.quasimode_boundedness(lam_lo=60.0, lam_hi=90.0, windows=2,
                                 trials=4, seed=1)
    b = ex.quasimode_boundedness(lam_lo=60.0, lam_hi=90.0, windows=2,
                                 trials=4, seed=2)
    assert [r.max_norm for r in a.rows] != [r.max_norm for r in b.rows]
    # the mode content (dimension) is seed-independent
    assert [r.dim for r in a.rows] == [r.dim for r in b.rows]


def _quasimode_one_window_at_a_time(lam_lo=200.0, lam_hi=2000.0, windows=8,
                                    trials=20, seed=2025, s=0.3,
                                    rho=2.0 / 3.0, radius=0.5):
    """The per-window loop that the batched ensemble replaced: one window
    enumeration and one trace call per window; the reference for
    quasimode_boundedness."""
    spec = WeightSpec(s=s, rho=rho)
    rows = []
    for wi, lam in enumerate(np.geomspace(lam_lo, lam_hi, windows)):
        _, ns, freqs, norms, _ = modes.modes_in_frequency_windows(
            [lam], [lam + 1.0])
        amps = norms * specfun.bessel_j(ns, freqs * radius)
        sigmas = glancing_distance(ns, 1.0 / freqs, radius)
        weighted = glancing_weight(sigmas, 1.0 / lam, spec) * amps
        amps = np.repeat(weighted, np.where(ns >= 1, 2, 1))
        dim = len(amps)
        best = total = 0.0
        for t in range(trials):
            rng = np.random.default_rng([seed, wi, t])
            c = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            c /= np.linalg.norm(c)
            nr = trace_norm(c * amps, radius)
            best = max(best, nr)
            total += nr
        rows.append(ex.QuasimodeRow(lam=float(lam), dim=dim,
                                    weyl_estimate=lam / 2.0 - 0.25,
                                    max_norm=best, mean_norm=total / trials))
    return ex.QuasimodeResult(rows=rows, spec=spec, trials=trials, seed=seed)


@pytest.mark.parametrize("seed", [1, 7, 2025])
def test_quasimode_matches_one_window_at_a_time(seed):
    # criterion 4's ensemble: the same CSV text, to the last digit
    assert io.quasimode_to_csv_text(ex.quasimode_boundedness(seed=seed)) \
        == io.quasimode_to_csv_text(_quasimode_one_window_at_a_time(seed=seed))


# 997 splits windows mid-way; 10**9 makes one slice of every ensemble (under
# the default cap, criterion 4's is one slice and the 120 windows are 12);
# 997 on the 120 windows would cost 0.8 s
@pytest.mark.parametrize("kw,caps", [
    (dict(), (997, 10 ** 9)),
    (dict(lam_lo=60.0, lam_hi=2000.0, windows=5, trials=3, seed=4),
     (997, 10 ** 9)),
    (dict(lam_lo=200.0, lam_hi=2000.0, windows=120, trials=2, seed=3),
     (10 ** 9,)),
], ids=["criterion-4", "5-windows", "120-windows"])
def test_quasimode_does_not_depend_on_the_slice_size(monkeypatch, kw, caps):
    # the same columns and the same CSV text, to the byte, whatever the
    # number of (window, order) pairs per enumeration pass
    res = ex.quasimode_boundedness(**kw)
    lams = np.array([r.lam for r in res.rows])
    assert modes._BATCH_ORDERS == 8000
    text = io.quasimode_to_csv_text(res)
    columns = modes.modes_in_frequency_windows(lams, lams + 1.0)
    for cap in caps:
        monkeypatch.setattr(modes, "_BATCH_ORDERS", cap)
        assert io.quasimode_to_csv_text(
            ex.quasimode_boundedness(**kw)) == text, cap
        again = modes.modes_in_frequency_windows(lams, lams + 1.0)
        assert [(c.dtype, c.tobytes()) for c in again] == \
            [(c.dtype, c.tobytes()) for c in columns], cap


def _traced_peak(**kw) -> int:
    """The tracemalloc peak, in bytes, of one quasimode ensemble."""
    tracemalloc.start()
    try:
        ex.quasimode_boundedness(**kw)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_quasimode_memory_stays_bounded():
    # 120 windows on [200, 2000], 12 slices: the traced peak is 4.0 MiB,
    # enumerated as one slice 18.9 MiB
    assert _traced_peak(lam_lo=200.0, lam_hi=2000.0, windows=120,
                        trials=2) < 8 * 2 ** 20


def test_quasimode_memory_stays_bounded_for_one_large_window():
    # one window at 1e5, 13 slices: the traced peak is 4.3 MiB, enumerated
    # as one slice 25.4 MiB
    assert _traced_peak(lam_lo=1e5, lam_hi=1e5, windows=1,
                        trials=2) < 8 * 2 ** 20
