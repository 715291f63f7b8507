"""Tests for the command-line interface: flags, config files, exit codes."""

import json
import os
import subprocess
import sys

import pytest

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
    assert len(table) == 4
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
    assert len(table) == 5
    assert all(table["amplitude"] > 0)


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


def test_plot_writes_svg_with_input_hash(tmp_path, capsys):
    out = str(tmp_path / "run")
    _run(capsys, "sweep-disk", "--alpha", "0.5", "--n-min", "100",
         "--n-max", "1000", "--points", "5", "--out", out)
    fig = str(tmp_path / "fig")
    code, stdout, _ = _run(capsys, "plot", "--in", out + ".csv",
                           "--x", "n", "--y", "weighted_norm",
                           "--y", "amplitude", "--out", fig)
    assert code == 0
    svg = open(fig + ".svg").read()
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
        assert open(a + ".csv", "rb").read() == open(b + ".csv", "rb").read()


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
    (["--cutoff", "smoothstep"], ""),
    (["--rho1", "0.3", "--rho2", "0.6", "--rho", "0.7"], ""),
    ([], "s = 0.25\n"),
    ([], "rho = 0.7\n"),
    ([], "cutoff = smoothstep\n"),
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
])
def test_bad_values_are_config_errors(tmp_path, capsys, argv):
    out = str(tmp_path / "x")
    code, _, err = _run(capsys, *argv, "--out", out)
    assert code == 1
    assert err.startswith("glancelab: error:") and "Traceback" not in err
    assert not os.path.exists(out + ".csv")


def test_sweep_disk_accepts_derivative_weight_flags(tmp_path, capsys):
    out = str(tmp_path / "dv")
    code, _, _ = _run(capsys, "sweep-disk", "--alpha", "0.5", "--derivative",
                      "--s", "0.25", "--rho", "0.7", "--cutoff", "smoothstep",
                      "--n-min", "200", "--n-max", "600", "--points", "3",
                      "--out", out)
    assert code == 0
    doc = io.read_manifest(out + ".manifest.json")
    assert doc["config"]["rho"] == 0.7
    assert doc["config"]["cutoff"] == "smoothstep"


def test_config_file_supplies_defaults(tmp_path, capsys):
    cfg = tmp_path / "c.ini"
    cfg.write_text("[common]\npoints = 3\n"
                   "[sweep-disk]\nalpha = 0.5\nn-min = 100\nn-max = 500\n")
    out = str(tmp_path / "run")
    code, _, _ = _run(capsys, "sweep-disk", "--config", str(cfg),
                      "--out", out)
    assert code == 0
    assert len(io.read_table(out + ".csv")) == 3


def test_flags_override_config(tmp_path, capsys):
    cfg = tmp_path / "c.ini"
    cfg.write_text("[sweep-disk]\nalpha = 0.5\nn-min = 100\nn-max = 500\n"
                   "points = 3\n")
    out = str(tmp_path / "run")
    code, _, _ = _run(capsys, "sweep-disk", "--config", str(cfg),
                      "--points", "4", "--out", out)
    assert code == 0
    assert len(io.read_table(out + ".csv")) == 4


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


def test_selftest_json(capsys):
    code, stdout, _ = _run(capsys, "selftest")
    assert code == 0
    doc = json.loads(stdout)
    assert doc["all_passed"] is True
    assert len(doc["checks"]) >= 10
    assert all(c["passed"] for c in doc["checks"])


def test_cli_import_does_not_load_scipy():
    # scipy serves only the oracle, which `selftest` imports on demand
    src = os.path.dirname(os.path.dirname(io.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH"))
                           if p)
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, glancelab.cli; print('scipy' in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True,
        text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_unwritable_output_path(tmp_path, capsys):
    code, _, err = _run(capsys, "sweep-disk", "--alpha", "0.5",
                        "--n-min", "100", "--n-max", "300", "--points", "3",
                        "--out", str(tmp_path / "no" / "such" / "dir" / "x"))
    assert code == 1
