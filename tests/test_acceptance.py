"""Acceptance gate: one test per shipping criterion, at stated tolerances.

Each test prints a single ``criterion N: PASS/FAIL`` line with the measured
numbers (visible with ``pytest -s`` or on failure) and asserts both the
tolerance and the runtime budget.  The exponent targets come from the
restriction theory: trace norms of modes selected at glancing scale
sigma ~ n^{-alpha} grow like n^{alpha/4}; band-filtered sigma^s-weighted
norms scale like h^{alpha(s - 1/4)}; sqrt(xi_d)-weighted norms and
critically weighted (s = 1/4) derivative traces are bounded; random
quasimodes under the glancing weight stay uniformly bounded in frequency.
"""

import json
import time
from pathlib import Path

from glancelab import experiments as ex
from glancelab import oracle
from glancelab.cli import main
from glancelab.weights import BandSpec

_GRID = dict(n_lo=1000, n_hi=100000, points=24)


def _line(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_disk_amplitude_growth():
    t0 = time.monotonic()
    details, ok = [], True
    for alpha in (0.3, 0.5):
        cfg = ex.SweepConfig(kind="disk", alpha=alpha, **_GRID)
        res = ex.amplitude_sweep(cfg)
        fit = ex.fit_exponent(res.column("n"), res.column("amplitude"))
        good = abs(fit.slope - alpha / 4.0) <= 0.05
        ok = ok and good
        details.append(f"alpha={alpha}: slope {fit.slope:+.4f} "
                       f"(target {alpha / 4.0:+.4f})")
    elapsed = time.monotonic() - t0
    ok = ok and elapsed <= 120.0
    _line(1, ok, "; ".join(details) + f"; {elapsed:.1f}s of 120s")


def test_criterion_2_sphere_amplitude_growth():
    t0 = time.monotonic()
    details, ok = [], True
    for alpha in (0.5, 0.8):
        cfg = ex.SweepConfig(kind="sphere", alpha=alpha, **_GRID)
        res = ex.amplitude_sweep(cfg)
        fit = ex.fit_exponent(res.column("n"), res.column("amplitude"))
        good = abs(fit.slope - alpha / 4.0) <= 0.05
        ok = ok and good
        details.append(f"alpha={alpha}: slope {fit.slope:+.4f} "
                       f"(target {alpha / 4.0:+.4f})")
    elapsed = time.monotonic() - t0
    ok = ok and elapsed <= 60.0
    _line(2, ok, "; ".join(details) + f"; {elapsed:.1f}s of 60s")


def test_criterion_3_weighted_band_norm_exponents():
    t0 = time.monotonic()
    alpha, band = 0.5, BandSpec(0.3, 0.6)
    cfg = ex.SweepConfig(kind="disk", alpha=alpha, **_GRID)
    details, ok = [], True
    slopes = {}
    for s in (0.0, 0.1, 0.25, 0.4):
        res = ex.sharpness_sweep(cfg, s=s, band=band)
        fit = res.fit(x="h")
        slopes[s] = fit.slope
        target = alpha * (s - 0.25)
        good = abs(fit.slope - target) <= 0.05
        ok = ok and good
        details.append(f"s={s}: slope {fit.slope:+.4f} "
                       f"(target {target:+.4f})")
    # the critical power is visibly critical: flat at 1/4, growth below it
    ok = ok and abs(slopes[0.25]) <= 0.05
    ok = ok and slopes[0.0] < 0.0 and slopes[0.1] < 0.0
    elapsed = time.monotonic() - t0
    ok = ok and elapsed <= 180.0
    _line(3, ok, "; ".join(details) + f"; {elapsed:.1f}s of 180s")


def test_criterion_4_quasimode_boundedness():
    t0 = time.monotonic()
    res = ex.quasimode_boundedness(lam_lo=200.0, lam_hi=2000.0, windows=8,
                                   trials=20, seed=2025, s=0.3,
                                   rho=2.0 / 3.0)
    fit = res.fit()
    ok = abs(fit.slope) <= 0.05 and res.spread <= 3.0
    elapsed = time.monotonic() - t0
    ok = ok and elapsed <= 600.0
    _line(4, ok, f"slope {fit.slope:+.4f} (|.| <= 0.05), "
                 f"max/min {res.spread:.3f} (<= 3); {elapsed:.1f}s of 600s")


def test_criterion_5_conormal_weighted_boundedness():
    t0 = time.monotonic()
    details, ok = [], True
    for alpha in (0.3, 0.5):
        cfg = ex.SweepConfig(kind="disk", alpha=alpha, **_GRID)
        res = ex.normal_band_check(cfg)
        fit = res.fit(x="xi_d")
        good = abs(fit.slope) <= 0.05
        ok = ok and good
        details.append(f"alpha={alpha}: slope in xi_d {fit.slope:+.4f}")
    elapsed = time.monotonic() - t0
    ok = ok and elapsed <= 120.0
    _line(5, ok, "; ".join(details) + f"; {elapsed:.1f}s of 120s")


def test_criterion_6_derivative_critical_weight():
    t0 = time.monotonic()
    alpha = 0.5
    cfg = ex.SweepConfig(kind="disk", alpha=alpha, **_GRID)
    details, ok = [], True
    for s in (0.25, 0.4):
        res = ex.normal_derivative_sweep(cfg, s=s)
        fit = res.fit(x="h")
        target = alpha * (0.25 - s)
        good = abs(fit.slope - target) <= 0.05
        ok = ok and good
        details.append(f"s={s}: slope {fit.slope:+.4f} "
                       f"(target {target:+.4f})")
    elapsed = time.monotonic() - t0
    ok = ok and elapsed <= 120.0
    _line(6, ok, "; ".join(details) + f"; {elapsed:.1f}s of 120s")


def test_criterion_7_oracle_suite():
    t0 = time.monotonic()
    report = oracle.run_all()
    elapsed = time.monotonic() - t0
    failing = [c.name for c in report.checks if not c.passed]
    ok = report.all_passed and elapsed <= 60.0
    _line(7, ok, f"{len(report.checks)} checks, "
                 + (f"failing: {failing}, " if failing else "all passing, ")
                 + f"{elapsed:.1f}s of 60s")


def test_criterion_8_byte_determinism(tmp_path, capsys):
    args = ["quasimode", "--lam-min", "200", "--lam-max", "2000",
            "--windows", "8", "--trials", "20", "--seed", "2025"]
    paths = []
    for name in ("a", "b"):
        out = str(tmp_path / name)
        assert main(args + ["--out", out]) == 0
        paths.append(out + ".csv")
    capsys.readouterr()
    blobs = [Path(p).read_bytes() for p in paths]
    same_seed = blobs[0] == blobs[1]
    _line(8, same_seed, f"same-seed reruns identical: {same_seed} "
                        f"({len(blobs[0])} bytes)")
