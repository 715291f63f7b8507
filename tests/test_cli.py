"""Tests for the command-line interface: flags, config files, exit codes."""

import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from glancelab import io
from glancelab.cli import main


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_no_subcommand_prints_help(capsys):
    code, out, _ = _run(capsys)
    assert code == 1
    assert "SUBCOMMAND" in out


def test_unknown_subcommand_is_config_error(capsys):
    code, _, err = _run(capsys, "frobnicate")
    assert code == 1 and "invalid choice" in err


def test_unknown_flag_is_config_error(capsys):
    code, _, err = _run(capsys, "selftest", "--frobnicate")
    assert code == 1 and "unrecognized" in err


def test_missing_required_flag(capsys):
    code, _, err = _run(capsys, "sweep-disk", "--n-min", "10")
    assert code == 1 and "--alpha is required" in err


def test_sweep_disk_writes_csv_and_manifest(tmp_path, capsys):
    out = str(tmp_path / "run")
    code, stdout, _ = _run(capsys, "sweep-disk", "--alpha", "0.5",
                           "--n-min", "100", "--n-max", "800",
                           "--points", "4", "--out", out)
    assert code == 0 and "wrote" in stdout
    table = io.read_table(out + ".csv")
    assert len(table["n"]) == 4
    doc = io.read_manifest(out + ".manifest.json")
    assert doc["command"] == "sweep-disk"
    assert doc["config"]["alpha"] == 0.5
    assert doc["config"]["n_min"] == 100      # fully resolved defaults too
    assert doc["config"]["offset_const"] == 4.0


def test_sweep_sphere_runs(tmp_path, capsys):
    out = str(tmp_path / "sph")
    code, _, _ = _run(capsys, "sweep-sphere", "--alpha", "0.5",
                      "--n-min", "200", "--n-max", "2000",
                      "--points", "5", "--out", out)
    assert code == 0
    table = io.read_table(out + ".csv")
    assert len(table["n"]) == 5
    assert all(v > 0 for v in table["amplitude"])


def test_manifest_lists_skipped_orders(tmp_path, capsys):
    # at n = 1000 the whole window sits above the band ceiling h^0.3
    out = str(tmp_path / "band")
    code, stdout, _ = _run(capsys, "sweep-disk", "--alpha", "0.5",
                           "--rho1", "0.3", "--rho2", "0.6",
                           "--n-min", "1000", "--n-max", "20000",
                           "--points", "6", "--out", out)
    assert code == 0
    doc = io.read_manifest(out + ".manifest.json")
    assert doc["skipped"] == len(doc["skipped_orders"]) >= 1
    assert f"{doc['skipped']} skipped" in stdout
    table = io.read_table(out + ".csv")
    orders = {int(n) for n in table["n"]}
    for n, reason in doc["skipped_orders"]:
        assert n not in orders
        assert reason.startswith("no band-feasible eigenvalue in window")
        assert reason.endswith(f"for n={n}")
    assert len(orders) + doc["skipped"] == 6
    # the skips live in the manifest only: the CSV holds the rows
    from glancelab import experiments as ex
    from glancelab.weights import BandSpec
    cfg = ex.SweepConfig(kind="disk", alpha=0.5, n_lo=1000, n_hi=20000,
                         points=6)
    ex._disk_traces.cache_clear()   # select again, not read the CLI's picks
    res = ex.sharpness_sweep(cfg, s=0.0, band=BandSpec(0.3, 0.6))
    assert [list(p) for p in res.skipped] == doc["skipped_orders"]
    assert Path(out + ".csv").read_text() == io.sweep_to_csv_text(res)


def test_quasimode_empty_window_is_numerical_error(tmp_path, capsys):
    # windows below the lowest eigenvalue j_{0,1} = 2.405 hold no mode
    out = str(tmp_path / "qm")
    code, stdout, err = _run(capsys, "quasimode", "--lam-min", "1.1",
                             "--lam-max", "1.3", "--windows", "2",
                             "--trials", "2", "--out", out)
    assert code == 2 and stdout == ""
    assert err == ("glancelab: numerical failure: window [1.10, 2.10] "
                   "holds no mode\n")
    assert not os.path.exists(out + ".csv")
    assert not os.path.exists(out + ".manifest.json")


def test_band_flags_must_pair(capsys, tmp_path):
    code, _, err = _run(capsys, "sweep-disk", "--alpha", "0.5",
                        "--rho1", "0.3", "--out", str(tmp_path / "x"))
    assert code == 1 and "together" in err


def test_infeasible_band_is_numerical_error(tmp_path, capsys):
    code, _, err = _run(capsys, "sweep-disk", "--alpha", "0.5",
                        "--rho1", "0.3", "--rho2", "0.6",
                        "--n-min", "100", "--n-max", "400", "--points", "3",
                        "--out", str(tmp_path / "x"))
    assert code == 2 and "no usable rows" in err


def test_band_beyond_every_window_is_config_error(tmp_path, capsys):
    # the band h^0.95 ... h^0.9 lies far below every window's sigma ~ 4
    # n^{-1/2}, and it excludes alpha, so no larger order would reach it:
    # the input is at fault (this exited 2, "no usable rows").  The band
    # 0.3 ... 0.6 above holds alpha, and stays a numerical failure
    out = str(tmp_path / "x")
    code, _, err = _run(capsys, "sweep-disk", *_GRID, "--rho1", "0.9",
                        "--rho2", "0.95", "--s", "0.5", "--out", out)
    assert code == 1
    assert err.startswith("glancelab: error:") and err.count("\n") == 1
    assert "--rho1" in err and "--rho2" in err
    assert not os.path.exists(out + ".csv")


def test_fit_prints_json(tmp_path, capsys):
    out = str(tmp_path / "run")
    _run(capsys, "sweep-disk", "--alpha", "0.5", "--n-min", "100",
         "--n-max", "2000", "--points", "6", "--out", out)
    code, stdout, _ = _run(capsys, "fit", "--in", out + ".csv",
                           "--x", "n", "--y", "weighted_norm",
                           "--drop-low", "0.25")
    assert code == 0
    doc = json.loads(stdout)
    assert set(doc) == {"slope", "intercept", "stderr", "r_squared",
                        "n_points"}
    assert 0.0 < doc["slope"] < 0.3


def test_fit_missing_column(tmp_path, capsys):
    csv = tmp_path / "t.csv"
    csv.write_text("a,b\n1,2\n2,4\n3,8\n4,16\n")
    code, _, err = _run(capsys, "fit", "--in", str(csv), "--x", "a",
                        "--y", "nope")
    assert code == 1 and "no column 'nope'" in err


def test_fit_refusal_is_numerical_error(tmp_path, capsys):
    # clear trend, terrible r^2: slope significant but unreliable -> refusal
    import numpy as np
    rng = np.random.default_rng(3)
    x = np.geomspace(1.0, 1e3, 24)
    y = x ** 1.0 * np.exp(rng.normal(0.0, 3.0, size=x.size))
    csv = tmp_path / "noisy.csv"
    csv.write_text("x,y\n" + "".join(f"{a:.17g},{b:.17g}\n"
                                     for a, b in zip(x, y)))
    code, _, err = _run(capsys, "fit", "--in", str(csv), "--x", "x",
                        "--y", "y", "--drop-low", "0")
    assert code == 2 and "numerical failure" in err


def test_fit_rejects_nan_cell(tmp_path, capsys):
    csv = tmp_path / "t.csv"
    csv.write_text("x,y\n1,2\n2,nan\n3,8\n4,16\n")
    code, stdout, err = _run(capsys, "fit", "--in", str(csv), "--x", "x",
                             "--y", "y", "--drop-low", "0")
    assert code == 2 and "finite" in err
    assert "NaN" not in stdout


@pytest.mark.parametrize("drop", ["-0.5", "-1", "1", "1.5", "nan", "inf"])
@pytest.mark.parametrize("command", ["fit", "plot"])
def test_drop_low_outside_unit_interval_is_config_error(tmp_path, capsys,
                                                        command, drop):
    # unchecked, -0.5 would fit the last 12 of the 24 rows and -1 every row
    csv = tmp_path / "t.csv"
    csv.write_text("n,amplitude\n" + "".join(f"{n},{n ** 0.125!r}\n"
                                             for n in range(100, 2500, 100)))
    out = str(tmp_path / "fig")
    argv = [command, "--in", str(csv), "--x", "n", "--y", "amplitude",
            "--drop-low", drop]
    code, stdout, err = _run(capsys, *argv,
                             *(["--out", out] if command == "plot" else []))
    assert code == 1 and stdout == ""
    assert err == (f"glancelab: error: drop_low must lie in [0, 1), "
                   f"got {float(drop)} (--drop-low)\n")
    assert not os.path.exists(out + ".svg")


def test_plot_writes_svg_with_input_hash(tmp_path, capsys):
    out = str(tmp_path / "run")
    _run(capsys, "sweep-disk", "--alpha", "0.5", "--n-min", "100",
         "--n-max", "1000", "--points", "5", "--out", out)
    fig = str(tmp_path / "fig")
    code, stdout, _ = _run(capsys, "plot", "--in", out + ".csv",
                           "--x", "n", "--y", "weighted_norm",
                           "--y", "amplitude", "--out", fig)
    assert code == 0
    svg = Path(fig + ".svg").read_text()
    assert svg.count("<circle ") == 10          # 5 points x 2 series
    doc = io.read_manifest(fig + ".manifest.json")
    assert doc["input_hash"] == io.hash_file(out + ".csv")


def test_plot_nonpositive_column_rejected(tmp_path, capsys):
    csv = tmp_path / "t.csv"
    csv.write_text("x,y\n1,2\n2,-1\n3,8\n")
    code, _, err = _run(capsys, "plot", "--in", str(csv), "--x", "x",
                        "--y", "y", "--out", str(tmp_path / "f"))
    assert code == 1 and "non-positive" in err
    assert not os.path.exists(str(tmp_path / "f.svg"))


def test_quasimode_deterministic_bytes(tmp_path, capsys):
    # the small windows are far from the Weyl law in relative terms
    for args in (["quasimode", "--lam-min", "50", "--lam-max", "80",
                  "--windows", "2", "--trials", "3", "--seed", "11"],
                 ["quasimode", "--lam-min", "5", "--lam-max", "8",
                  "--windows", "2", "--trials", "2"]):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        assert _run(capsys, *args, "--out", a)[0] == 0
        assert _run(capsys, *args, "--out", b)[0] == 0
        assert Path(a + ".csv").read_bytes() == Path(b + ".csv").read_bytes()


def test_normal_band_subcommand(tmp_path, capsys):
    out = str(tmp_path / "nb")
    code, _, _ = _run(capsys, "normal-band", "--alpha", "0.3",
                      "--n-min", "200", "--n-max", "2000", "--points", "5",
                      "--out", out)
    assert code == 0
    table = io.read_table(out + ".csv")
    # weighted norm should be flat: spread well under a decade
    w = table["weighted_norm"]
    assert max(w) / min(w) < 2.0


def test_normal_band_names_evanescent_skips(tmp_path, capsys):
    # the command has no band: its skipped modes are evanescent at R = 0.48
    out = str(tmp_path / "nb")
    code, stdout, _ = _run(capsys, "normal-band", "--alpha", "0.5",
                           "--radius", "0.48", "--out", out)
    assert code == 0 and "(7 rows, 17 skipped)" in stdout
    doc = io.read_manifest(out + ".manifest.json")
    assert doc["skipped"] == len(doc["skipped_orders"]) == 17
    assert {reason for _, reason in doc["skipped_orders"]} == {
        "selected mode is evanescent at the circle (sigma <= 0)"}


_SMALL = ["--n-min", "200", "--n-max", "2000", "--points", "5"]


@pytest.mark.parametrize("argv", [
    ["quasimode", "--windows", "2", "--trials", "2"],
    ["sweep-disk", "--alpha", "0.5", "--derivative", "--s", "0.25", *_SMALL],
    ["sweep-disk", "--alpha", "0.5", *_SMALL],
    ["sweep-sphere", "--alpha", "0.5", *_SMALL],
    ["normal-band", "--alpha", "0.5", *_SMALL],
], ids=["quasimode", "derivative", "amplitude", "sphere", "normal-band"])
def test_manifest_records_no_cutoff(tmp_path, capsys, argv):
    # the glancing weight has one cutoff, so no manifest names one: neither
    # the runs that apply the weight (quasimode, --derivative) nor the rest
    out = str(tmp_path / "run")
    code, _, err = _run(capsys, *argv, "--out", out)
    assert code == 0, err
    doc = io.read_manifest(out + ".manifest.json")
    assert "cutoff_shape" not in doc and "cutoff" not in doc["config"]
    if argv[0] == "normal-band":
        code, _, err = _run(capsys, "plot", "--in", out + ".csv", "--x", "n",
                            "--out", out + "-plot")
        assert code == 0, err
        assert "cutoff_shape" not in io.read_manifest(
            out + "-plot.manifest.json")


def test_derivative_sweep_via_cli(tmp_path, capsys):
    out = str(tmp_path / "dv")
    code, _, _ = _run(capsys, "sweep-disk", "--alpha", "0.5",
                      "--derivative", "--s", "0.25", "--n-min", "200",
                      "--n-max", "2000", "--points", "5", "--out", out)
    assert code == 0
    doc = io.read_manifest(out + ".manifest.json")
    assert doc["config"]["derivative"] is True
    # windows where some candidate seeds sit at or below the turning point
    # of the restriction circle, with and without the derivative weight
    near = ["--alpha", "0.5", "--radius", "0.3", "--n-min", "1000",
            "--n-max", "2000", "--points", "3"]
    for argv in (["--alpha", "0.8", "--n-min", "200", "--n-max", "2000",
                  "--points", "12", "--offset-const", "0.5"],
                 near, near + ["--derivative", "--s", "0.25"]):
        code, _, err = _run(capsys, "sweep-disk", *argv, "--out", out)
        assert code == 0, err


@pytest.mark.parametrize("flags, section", [
    (["--s", "0.25"], ""),                       # no band, no --derivative
    (["--rho", "0.7"], ""),
    (["--s", "0"], ""),                          # even at its default value
    (["--rho1", "0.3", "--rho2", "0.6", "--rho", "0.7"], ""),
    ([], "s = 0.25\n"),
    ([], "rho = 0.7\n"),
])
def test_sweep_disk_rejects_flags_that_do_not_apply(tmp_path, capsys, flags,
                                                    section):
    cfg = tmp_path / "c.ini"
    cfg.write_text("[sweep-disk]\nalpha = 0.5\n" + section)
    out = str(tmp_path / "x")
    code, _, err = _run(capsys, "sweep-disk", "--config", str(cfg), *flags,
                        "--out", out)
    assert code == 1 and "applies only with" in err
    assert not os.path.exists(out + ".csv")


_QUASIMODE = ["quasimode", "--lam-min", "200", "--lam-max", "300",
              "--windows", "2", "--trials", "2"]
_DISK = ["sweep-disk", "--alpha", "0.5", "--n-min", "200", "--n-max", "600",
         "--points", "3"]


@pytest.mark.parametrize("argv", [
    _QUASIMODE + ["--radius", "1.5"],        # a circle outside the disk
    _QUASIMODE + ["--radius", "nan"],
    _QUASIMODE + ["--s", "nan"],
    _QUASIMODE + ["--rho", "inf"],
    _QUASIMODE + ["--trials", "0"],
    _QUASIMODE + ["--windows", "0"],
    _DISK + ["--derivative", "--s", "nan"],
    _DISK + ["--derivative", "--s", "inf"],
    _DISK + ["--rho1", "0.3", "--rho2", "0.6", "--s", "nan"],
    ["sweep-sphere", "--alpha", "0.5", "--offset-const", "inf"],
    ["sweep-sphere", "--alpha", "0.5", "--offset-const", "nan"],
    # bounds are checked before numpy sees them: no warning, no file
    ["sweep-disk", "--alpha", "0.5", "--n-min", "500", "--n-max", "100"],
    _DISK + ["--points", "0"],
    ["sweep-sphere", "--alpha", "0.5", "--n-min", "-5"],
    ["quasimode", "--lam-min", "300", "--lam-max", "200"],
    ["quasimode", "--lam-max", "inf"],
    # degrees past the range where the sphere's equator values hold 1e-8
    ["sweep-sphere", "--alpha", "0.5", "--n-min", "100000", "--n-max",
     "100000000", "--points", "5"],
])
def test_bad_values_are_config_errors(tmp_path, capsys, argv):
    out = str(tmp_path / "x")
    code, _, err = _run(capsys, *argv, "--out", out)
    assert code == 1
    assert err.startswith("glancelab: error:") and "Traceback" not in err
    assert not os.path.exists(out + ".csv")


_GRID = ["--alpha", "0.5", "--n-min", "1000", "--n-max", "2000", "--points",
         "4"]
_BAND_GRID = ["--alpha", "0.5", "--rho1", "0.3", "--rho2", "0.6", "--s", "0.1",
              "--n-min", "1000", "--n-max", "100000", "--points", "24"]


# refused before any work, naming the flag at fault: an offset whose window
# overflows gave numpy RuntimeWarnings, and so did finite offsets whose zero
# indices pass int64 (1e150, 1e300); disk orders past the certified 1e6 and
# windows just past the reach bound 1e12 ran to exit 0; a bad radius failed
# inside the sweep, naming no flag; the glancing weight has one cutoff, so
# --cutoff is refused whatever shape it names, and the measured trace picks
# each disk mode, so --optimize is refused whatever rule it names; the
# quasimode checks named no flag; a sphere offset above n_max^alpha, which
# leaves every degree's order window below 0, exited 2 with no usable rows;
# one point between two orders swept n_min alone, ignoring --n-max; off
# radius 1/2, where sigma tends to 1 - 1/(4 R^2), a band that no order up to
# 1e6 reaches exited 2 with no usable rows; a nonpositive offset, an alpha
# outside (0, 1), an empty order range, a reversed band and a derivative
# weight scale below alpha were refused naming no flag
@pytest.mark.parametrize("argv, flag", [
    (["sweep-disk", *_GRID, "--offset-const", "1e308"], "--offset-const"),
    (["sweep-sphere", *_GRID, "--offset-const", "1e308"], "--offset-const"),
    (["sweep-disk", "--alpha", "0.5", "--n-min", "1000", "--n-max",
      "10000000", "--points", "3"], "--n-max"),
    (["sweep-disk", *_GRID, "--offset-const", "1e150"], "--offset-const"),
    (["sweep-sphere", *_GRID, "--offset-const", "1e300"], "--offset-const"),
    # reach (2.3e10 + 1) 2000^{1/2} = 1.03e12
    (["sweep-disk", *_GRID, "--offset-const", "2.3e10"], "--offset-const"),
    (["sweep-disk", *_GRID, "--radius", "1.5"], "--radius"),
    (["normal-band", *_GRID, "--radius", "nan"], "--radius"),
    (["sweep-disk", *_GRID, "--optimize", "largest"], "--optimize"),
    ([*_DISK, "--derivative", "--cutoff", "smoothstep"], "--cutoff"),
    ([*_QUASIMODE, "--cutoff", "exp"], "--cutoff"),
    ([*_QUASIMODE, "--radius", "1.5"], "--radius"),
    ([*_QUASIMODE, "--radius", "nan"], "--radius"),
    (["quasimode", "--lam-min", "300", "--lam-max", "200"], "--lam-max"),
    ([*_QUASIMODE, "--s", "nan"], "--s"),
    ([*_QUASIMODE, "--rho", "-1"], "--rho"),
    ([*_DISK, "--derivative", "--s", "inf"], "--s"),
    ([*_DISK, "--rho1", "0.3", "--rho2", "0.6", "--s", "nan"], "--s"),
    (["quasimode", "--windows", "0"], "--windows"),
    (["sweep-sphere", *_GRID, "--offset-const", "50"], "--offset-const"),
    (["sweep-disk", *_GRID[:-1], "1"], "--points"),
    (["sweep-sphere", *_GRID[:-1], "1"], "--points"),
    (["sweep-disk", "--radius", "0.6", *_BAND_GRID], "--radius"),
    (["sweep-disk", "--radius", "0.4", *_BAND_GRID], "--radius"),
    (["sweep-disk", *_GRID, "--offset-const", "-1"], "--offset-const"),
    (["sweep-disk", *_GRID, "--alpha", "1.5"], "--alpha"),
    (["sweep-disk", *_GRID, "--n-min", "3000"], "--n-max"),
    (["sweep-sphere", *_GRID, "--n-min", "0"], "--n-min"),
    (["sweep-disk", *_GRID, "--points", "0"], "--points"),
    ([*_DISK, "--rho1", "0.6", "--rho2", "0.3"], "--rho1"),
    ([*_DISK, "--derivative", "--rho", "0.4"], "--rho"),
])
def test_refusals_name_their_flag(tmp_path, capsys, argv, flag):
    out = str(tmp_path / "x")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = _run(capsys, *argv, "--out", out)
    assert code == 1
    assert err.startswith("glancelab: error:") and err.count("\n") == 1
    assert flag in err
    assert not os.path.exists(out + ".csv")


def test_window_past_the_certified_orders_is_refused(tmp_path, capsys,
                                                     monkeypatch):
    # a window [L, L + 1] takes the orders up to floor(L + 1), and bessel_j
    # is certified up to 1e6; one window at L = 1e9 was killed (exit 137).
    # Enumeration raises here, so a refusal that stops working fails at once
    # instead of allocating memory in proportion to L
    from glancelab import experiments, modes

    def enumerate_windows(*args, **kwargs):
        raise AssertionError("enumerated the windows")

    monkeypatch.setattr(modes, "modes_in_frequency_windows",
                        enumerate_windows)
    out = str(tmp_path / "x")
    code, _, err = _run(capsys, "quasimode", "--lam-min", "1e9", "--lam-max",
                        "1e9", "--windows", "1", "--trials", "1",
                        "--out", out)
    assert code == 1
    assert err.startswith("glancelab: error:") and err.count("\n") == 1
    assert "--lam-max" in err
    assert not os.path.exists(out + ".csv")
    # the window just under 1e6 takes order 1e6 and is enumerated; the
    # window at 1e6 takes order 1e6 + 1
    top = float(experiments._MAX_ORDER)
    below = math.nextafter(top, 0.0)
    with pytest.raises(AssertionError, match="enumerated"):
        experiments.quasimode_boundedness(lam_lo=below, lam_hi=below,
                                          windows=1)
    with pytest.raises(ValueError, match="--lam-max"):
        experiments.quasimode_boundedness(lam_lo=top, lam_hi=top, windows=1)


def test_quasimode_negative_seed_is_config_error(tmp_path, capsys):
    out = str(tmp_path / "x")
    code, _, err = _run(capsys, *_QUASIMODE, "--seed", "-1", "--out", out)
    assert code == 1
    assert err == ("glancelab: error: seed must be a non-negative integer, "
                   "got -1\n")
    assert not os.path.exists(out + ".csv")


def test_sweep_disk_accepts_derivative_weight_flags(tmp_path, capsys):
    out = str(tmp_path / "dv")
    code, _, _ = _run(capsys, "sweep-disk", "--alpha", "0.5", "--derivative",
                      "--s", "0.25", "--rho", "0.7",
                      "--n-min", "200", "--n-max", "600", "--points", "3",
                      "--out", out)
    assert code == 0
    doc = io.read_manifest(out + ".manifest.json")
    assert doc["config"]["s"] == 0.25 and doc["config"]["rho"] == 0.7


# weight powers whose weighted norms overflow to inf, meet a zero cutoff as
# inf * 0 = nan, or underflow to 0 in a whole window
@pytest.mark.parametrize("argv", [
    [*_QUASIMODE, "--s=-100"],
    [*_QUASIMODE, "--s=-500"],
    ["quasimode", "--lam-min", "200", "--lam-max", "300", "--windows", "3",
     "--trials", "2", "--s", "1e8"],
    ["sweep-disk", "--alpha", "0.5", "--n-min", "1000", "--n-max", "3000",
     "--points", "4", "--derivative", "--s", "400"],
    ["sweep-disk", "--alpha", "0.5", "--n-min", "4000", "--n-max", "30000",
     "--points", "4", "--rho1", "0.3", "--rho2", "0.6", "--s=-300"],
], ids=["quasimode-inf", "quasimode-nan", "quasimode-vanishes",
        "derivative-nan", "band-inf"])
def test_weight_overflow_is_numerical_error(tmp_path, capsys, argv):
    out = str(tmp_path / "x")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, stdout, err = _run(capsys, *argv, "--out", out)
    assert code == 2 and stdout == ""
    assert err.startswith("glancelab: numerical failure:")
    assert err.count("\n") == 1 and "--s" in err
    assert not os.path.exists(out + ".csv")
    assert not os.path.exists(out + ".manifest.json")


# extreme, non-finite and ordinary values of the weight flags
_WEIGHT_VALUES = st.sampled_from(
    [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, 1e-300,
     -1e-300, 1e300, -1e300, 1e8, -1e8]) | st.floats(-600.0, 600.0)
# small work: orders up to 2000, two windows at Lambda <= 300, two trials
_WEIGHTED = {
    "quasimode": _QUASIMODE,
    "band": ["sweep-disk", "--alpha", "0.6", "--n-min", "1000", "--n-max",
             "2000", "--points", "3", "--rho1", "0.3", "--rho2", "0.6"],
    "derivative": ["sweep-disk", *_GRID, "--derivative"],
}


@settings(max_examples=60, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(command=st.sampled_from(sorted(_WEIGHTED)), s=_WEIGHT_VALUES,
       rho=_WEIGHT_VALUES)
def test_weight_flags_exit_cleanly(tmp_path_factory, capsys, command, s,
                                   rho):
    # a band sweep takes no --rho
    argv = _WEIGHTED[command] + [f"--s={s!r}"] + (
        [] if command == "band" else [f"--rho={rho!r}"])
    out = str(tmp_path_factory.mktemp("weights") / "x")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = _run(capsys, *argv, "--out", out)
    assert code in (0, 1, 2), err
    if code == 0:
        table = io.read_table(out + ".csv")
        assert all(math.isfinite(v) for column in table.values()
                   for v in column)
    else:
        assert err.startswith("glancelab: ") and err.count("\n") == 1
        assert not os.path.exists(out + ".csv")
        assert not os.path.exists(out + ".manifest.json")


# the glancing weight has one cutoff, and the measured trace picks each disk
# mode: a cutoff or optimize key in a config file is refused whatever value
# it names, never ignored
@pytest.mark.parametrize("section, key, value, argv", [
    ("quasimode", "cutoff", "exp", _QUASIMODE),
    ("common", "cutoff", "exp", _QUASIMODE),
    ("sweep-disk", "optimize", "restriction", _DISK),
    ("common", "optimize", "restriction", _DISK),
], ids=["quasimode", "common", "sweep-disk-optimize", "common-optimize"])
def test_cutoff_config_key_is_refused(tmp_path, capsys, section, key, value,
                                      argv):
    cfg = tmp_path / "c.ini"
    cfg.write_text(f"[{section}]\n{key} = {value}\n")
    out = str(tmp_path / "x")
    code, _, err = _run(capsys, *argv, "--config", str(cfg), "--out", out)
    assert code == 1
    assert err == (f"glancelab: error: unknown config keys for {argv[0]}: "
                   f"{key}\n")
    assert not os.path.exists(out + ".csv")


def test_config_file_supplies_defaults(tmp_path, capsys):
    cfg = tmp_path / "c.ini"
    cfg.write_text("[common]\npoints = 3\n"
                   "[sweep-disk]\nalpha = 0.5\nn-min = 100\nn-max = 500\n")
    out = str(tmp_path / "run")
    code, _, _ = _run(capsys, "sweep-disk", "--config", str(cfg),
                      "--out", out)
    assert code == 0
    assert len(io.read_table(out + ".csv")["n"]) == 3


def test_flags_override_config(tmp_path, capsys):
    cfg = tmp_path / "c.ini"
    cfg.write_text("[sweep-disk]\nalpha = 0.5\nn-min = 100\nn-max = 500\n"
                   "points = 3\n")
    out = str(tmp_path / "run")
    code, _, _ = _run(capsys, "sweep-disk", "--config", str(cfg),
                      "--points", "4", "--out", out)
    assert code == 0
    assert len(io.read_table(out + ".csv")["n"]) == 4


def test_unknown_key_in_own_section_rejected(tmp_path, capsys):
    cfg = tmp_path / "c.ini"
    cfg.write_text("[sweep-disk]\nalpha = 0.5\nfrobnicate = 1\n")
    code, _, err = _run(capsys, "sweep-disk", "--config", str(cfg),
                        "--out", str(tmp_path / "x"))
    assert code == 1 and "frobnicate" in err


def test_common_keys_for_other_subcommands_ignored(tmp_path, capsys):
    cfg = tmp_path / "c.ini"
    cfg.write_text("[common]\nseed = 11\n"              # quasimode-only key
                   "s = 0.3\n"              # the amplitude sweep takes no s
                   "[sweep-disk]\nalpha = 0.5\nn-min = 100\nn-max = 400\n"
                   "points = 3\n")
    out = str(tmp_path / "run")
    code, _, _ = _run(capsys, "sweep-disk", "--config", str(cfg),
                      "--out", out)
    assert code == 0


def test_y_flags_override_config_y(tmp_path, capsys):
    cfg = tmp_path / "c.ini"
    cfg.write_text("[plot]\ny = weighted_norm\n")
    out = str(tmp_path / "fig")
    code, _, err = _run(capsys, "plot", "--config", str(cfg), "--in",
                        DEMO_CSV, "--x", "n", "--y", "amplitude",
                        "--out", out)
    assert code == 0, err
    assert io.read_manifest(out + ".manifest.json")["config"]["y"] \
        == ["amplitude"]


def test_plot_records_the_default_y(tmp_path, capsys):
    # with no --y the plot draws weighted_norm, and its manifest says so
    out = str(tmp_path / "fig")
    code, _, err = _run(capsys, "plot", "--in", DEMO_CSV, "--x", "n",
                        "--out", out)
    assert code == 0, err
    assert io.read_manifest(out + ".manifest.json")["config"]["y"] \
        == ["weighted_norm"]


def test_plot_refuses_to_overwrite_the_input_manifest(tmp_path, capsys):
    # --out run next to --in run.csv would replace the sweep's
    # run.manifest.json with the plot's
    out = str(tmp_path / "run")
    _run(capsys, "sweep-disk", "--alpha", "0.5", "--n-min", "100",
         "--n-max", "1000", "--points", "5", "--out", out)
    before = Path(out + ".manifest.json").read_bytes()
    for prefix in (out, os.path.join(str(tmp_path), ".", "run")):
        code, stdout, err = _run(capsys, "plot", "--in", out + ".csv",
                                 "--x", "n", "--y", "amplitude",
                                 "--out", prefix)
        assert code == 1 and stdout == ""
        assert "manifest of --in" in err
        assert not os.path.exists(out + ".svg")
        assert Path(out + ".manifest.json").read_bytes() == before


@pytest.mark.parametrize("command", ["fit", "plot"])
def test_repeated_column_is_config_error(tmp_path, capsys, command):
    csv = tmp_path / "t.csv"
    csv.write_text("n,amplitude,amplitude\n1,2,3\n2,4,6\n3,8,9\n4,16,12\n")
    out = str(tmp_path / "fig")
    code, stdout, err = _run(
        capsys, command, "--in", str(csv), "--x", "n", "--y", "amplitude",
        "--drop-low", "0", *(["--out", out] if command == "plot" else []))
    assert code == 1 and stdout == ""
    assert "repeated column amplitude" in err
    assert not os.path.exists(out + ".svg")


@pytest.mark.parametrize("title", ["95% band", "a %(x)s b"])
def test_config_values_are_taken_literally(tmp_path, capsys, title):
    # a % in a value is text, not interpolation syntax
    cfg = tmp_path / "c.ini"
    cfg.write_text(f"[plot]\ntitle = {title}\n")
    out = str(tmp_path / "fig")
    code, _, err = _run(capsys, "plot", "--config", str(cfg), "--in",
                        DEMO_CSV, "--x", "n", "--y", "amplitude",
                        "--out", out)
    assert code == 0, err
    assert f">{title}</text>" in Path(out + ".svg").read_text()
    assert io.read_manifest(out + ".manifest.json")["config"]["title"] \
        == title


def test_numerical_failures_share_one_base():
    # exit 2 is decided where each error is defined, by its base class
    from glancelab import NumericalFailure, fit, modes, oracle, specfun, \
        svgplot
    for exc in (specfun.NumericalError, modes.NoModeError, fit.FitError):
        assert issubclass(exc, NumericalFailure)
    for exc in (oracle.OracleError, svgplot.PlotError):
        assert not issubclass(exc, NumericalFailure)


def test_selftest_json(capsys):
    code, stdout, _ = _run(capsys, "selftest")
    assert code == 0
    doc = json.loads(stdout)
    assert doc["all_passed"] is True
    assert len(doc["checks"]) >= 10
    assert all(c["passed"] for c in doc["checks"])


def test_selftest_prints_a_non_finite_figure_as_null(capsys, monkeypatch):
    from glancelab import specfun
    monkeypatch.setattr(specfun, "legendre_equator",
                        lambda degree, order: float("nan"))

    def refuse(token):
        raise ValueError(f"{token} is not JSON")

    code, stdout, _ = _run(capsys, "selftest")
    assert code == 3
    doc = json.loads(stdout, parse_constant=refuse)
    assert doc["all_passed"] is False
    failed = [c for c in doc["checks"] if not c["passed"]]
    assert [(c["name"], c["worst"]) for c in failed] == [
        ("specfun.legendre_equator vs recurrence", None)]


def _run_fresh(code):
    """Run `code` in a fresh interpreter that imports glancelab from source."""
    src = os.path.dirname(os.path.dirname(io.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH"))
                           if p)
    return subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True,
        text=True, timeout=120)


def test_cli_import_does_not_load_scipy():
    # scipy is a test-only dependency: no command may import it
    proc = _run_fresh("import sys, glancelab.cli; print('scipy' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_selftest_runs_without_scipy():
    # a None entry in sys.modules makes every `import scipy...` fail
    proc = _run_fresh("import sys; sys.modules['scipy'] = None; "
                      "import glancelab.cli; "
                      "sys.exit(glancelab.cli.main(['selftest']))")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["all_passed"] is True


DEMO_CSV = str(Path(__file__).resolve().parent.parent / "demos"
               / "disk_growth.csv")

# hashlib loads OpenSSL; configparser serves --config alone
_DEFERRED = ("hashlib", "_hashlib", "configparser")
# dataclasses imports inspect (with ast, dis and tokenize): the bare import,
# fit and plot load neither, the numeric commands load it through their own
# modules
_INSPECT = ("dataclasses", "inspect")

# each entry point sets `code`, the exit status it would give, and loads
# none of the modules it names; `out` is a file prefix in a fresh directory
_ENTRY_POINTS = {
    "import-cli": ("import glancelab.cli; code = 0", _DEFERRED + _INSPECT),
    "fit": ("import glancelab.cli; code = glancelab.cli.main(['fit', "
            f"'--in', {DEMO_CSV!r}, '--x', 'n', '--y', 'amplitude'])",
            _DEFERRED + _INSPECT),
    # plot hashes its input into its manifest
    "plot": ("import glancelab.cli; code = glancelab.cli.main(['plot', "
             f"'--in', {DEMO_CSV!r}, '--x', 'n', '--y', 'amplitude', "
             "'--out', out])", ("configparser",) + _INSPECT),
    "selftest": ("import glancelab.cli; "
                 "code = glancelab.cli.main(['selftest'])", _DEFERRED),
    "api-sweep": (
        "from glancelab import experiments, io; "
        "result = experiments.amplitude_sweep(experiments.SweepConfig("
        "kind='disk', alpha=0.5, n_lo=1000, n_hi=4000, points=3)); "
        "io.sweep_to_csv_text(result); code = 0", _DEFERRED),
}


@pytest.mark.parametrize("entry", list(_ENTRY_POINTS))
def test_entry_point_loads_no_hashlib_or_configparser(entry, tmp_path):
    code, deferred = _ENTRY_POINTS[entry]
    out = f"out = {str(tmp_path / 'out')!r}\n"
    # a module a site-packages hook loaded before the entry point ran is
    # not the entry point's: only the difference counts
    proc = _run_fresh(out + "import sys; before = set(sys.modules)\n"
                      + code + "\n"
                      "print(code, sorted((set(sys.modules) - before) "
                      f"& set({deferred!r})))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 []"
    # and it runs with each of them impossible to import
    proc = _run_fresh(out + "import sys\n"
                      f"for name in {deferred!r}: sys.modules[name] = None\n"
                      + code + "\nsys.exit(code)")
    assert proc.returncode == 0, proc.stderr


def _main_without_numpy(*argv):
    """Import the CLI and run it in a fresh interpreter in which numpy
    cannot be imported."""
    return _run_fresh("import sys; sys.modules['numpy'] = None; "
                      "import glancelab.cli; "
                      f"sys.exit(glancelab.cli.main({list(argv)!r}))")


def test_submodules_load_on_first_use():
    proc = _run_fresh(
        "import sys, glancelab; "
        "print(sorted(m for m in sys.modules if m.startswith('glancelab'))); "
        "glancelab.specfun.bessel_j; from glancelab import fit; "
        "print(sorted(m for m in sys.modules if m.startswith('glancelab'))); "
        "glancelab.nosuch")
    assert proc.stdout.splitlines() == [
        "['glancelab']", "['glancelab', 'glancelab.fit', 'glancelab.specfun']"]
    assert proc.stderr.rstrip().endswith(
        "AttributeError: module 'glancelab' has no attribute 'nosuch'")


def test_configuration_errors_without_numpy(tmp_path):
    proc = _main_without_numpy("sweep-disk", "--out", str(tmp_path / "x"))
    assert proc.returncode == 1
    assert proc.stderr == "glancelab: error: sweep-disk: --alpha is required\n"
    # a missing input file is a configuration error, not a numerical one
    proc = _main_without_numpy("fit", "--in", str(tmp_path / "none.csv"),
                               "--x", "n", "--y", "amplitude")
    assert proc.returncode == 1
    assert proc.stderr.startswith("glancelab: error: [Errno 2] ")


def test_fit_and_plot_run_without_numpy(tmp_path):
    proc = _main_without_numpy("fit", "--in", DEMO_CSV, "--x", "n",
                               "--y", "amplitude")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["n_points"] == 18
    out = str(tmp_path / "fig")
    proc = _main_without_numpy("plot", "--in", DEMO_CSV, "--x", "n",
                               "--y", "amplitude", "--out", out)
    assert proc.returncode == 0, proc.stderr
    assert Path(out + ".svg").read_text().count("<circle ") == 24
    assert io.read_manifest(out + ".manifest.json")["rows"] == 24
    # a refused fit exits 2 although no numeric module was imported
    proc = _main_without_numpy("fit", "--in", DEMO_CSV, "--x", "n",
                               "--y", "amplitude", "--drop-low", "0.95")
    assert proc.returncode == 2
    assert proc.stderr == ("glancelab: numerical failure: only 2 points "
                           "left after dropping 22\n")


def test_numerical_failures_exit_2_in_a_fresh_process(tmp_path):
    # fit refuses a trend its scatter cannot support (FitError); the
    # quasimode windows below j_{0,1} hold no mode (NoModeError)
    csv = tmp_path / "noisy.csv"
    csv.write_text("x,y\n" + "".join(
        f"{n},{n ** 3 * (10.0 if n % 2 else 0.1)!r}\n" for n in range(1, 25)))
    for argv in (["fit", "--in", str(csv), "--x", "x", "--y", "y",
                  "--drop-low", "0"],
                 ["quasimode", "--lam-min", "1.1", "--lam-max", "1.3",
                  "--windows", "2", "--trials", "2",
                  "--out", str(tmp_path / "qm")]):
        proc = _run_fresh("import sys, glancelab.cli; "
                          f"sys.exit(glancelab.cli.main({argv!r}))")
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("glancelab: numerical failure: ")


def test_unwritable_output_path(tmp_path, capsys):
    code, _, err = _run(capsys, "sweep-disk", "--alpha", "0.5",
                        "--n-min", "100", "--n-max", "300", "--points", "3",
                        "--out", str(tmp_path / "no" / "such" / "dir" / "x"))
    assert code == 1
