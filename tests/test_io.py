"""Tests for CSV/manifest/config I/O: round trips and determinism."""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from glancelab import experiments as ex
from glancelab import io


def _small_sweep() -> ex.SweepResult:
    cfg = ex.SweepConfig(kind="disk", alpha=0.5, n_lo=100, n_hi=100, points=1)
    res = ex.amplitude_sweep(cfg)
    # add rows with awkward values to exercise the formatter
    res.rows.append(ex.SweepRow(n=7, lam=1.0 / 3.0, h=math.pi, sigma=1e-17,
                                xi_d=0.1, amplitude=2.0 ** -30,
                                weighted_norm=1.2345678901234567e300,
                                s=0.25, alpha=0.5, rho1=0.3, rho2=0.6))
    return res


def test_sweep_csv_round_trip_exact(tmp_path):
    res = _small_sweep()
    path = str(tmp_path / "t.csv")
    io.write_sweep_csv(path, res)
    table = io.read_table(path)
    assert tuple(table) == io.SWEEP_COLUMNS
    assert len(table["n"]) == len(res.rows)
    for j, row in enumerate(res.rows):
        assert table["n"][j] == row.n
        assert table["lambda"][j] == row.lam          # %.17g is exact
        assert table["b"][j] == row.sigma
        assert table["weighted_norm"][j] == row.weighted_norm


@given(st.floats(min_value=-1e300, max_value=1e300,
                 allow_nan=False).filter(lambda v: v == 0.0 or abs(v) > 1e-300))
def test_format_value_round_trips_doubles(v):
    assert float(io.format_value(v)) == v


def test_format_value_integers():
    assert io.format_value(42) == "42"
    assert io.format_value(np.int64(-3)) == "-3"
    assert "." in io.format_value(42.0) or "e" in io.format_value(42.0) \
        or io.format_value(42.0) == "42"


def test_written_files_use_lf_only(tmp_path):
    path = str(tmp_path / "t.csv")
    io.write_sweep_csv(path, _small_sweep())
    raw = Path(path).read_bytes()
    assert b"\r" not in raw
    assert raw.endswith(b"\n")


def test_identical_results_identical_bytes(tmp_path):
    res = _small_sweep()
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    io.write_sweep_csv(a, res)
    io.write_sweep_csv(b, res)
    assert Path(a).read_bytes() == Path(b).read_bytes()


def test_quasimode_csv_round_trip(tmp_path):
    res = ex.quasimode_boundedness(lam_lo=50.0, lam_hi=80.0, windows=2,
                                   trials=3, seed=9)
    path = str(tmp_path / "q.csv")
    io.write_quasimode_csv(path, res)
    table = io.read_table(path)
    assert tuple(table) == io.QUASIMODE_COLUMNS
    assert list(table["dim"]) == [r.dim for r in res.rows]
    assert list(table["max_norm"]) == [r.max_norm for r in res.rows]
    assert set(table["seed"]) == {9.0}


def test_read_table_rejects_bad_input(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(ValueError, match="empty"):
        io.read_table(str(empty))
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("a,b\n1,2\n3\n")
    with pytest.raises(ValueError, match="expected 2 cells"):
        io.read_table(str(ragged))
    words = tmp_path / "words.csv"
    words.write_text("a,b\n1,frog\n")
    with pytest.raises(ValueError, match="non-numeric"):
        io.read_table(str(words))
    twice = tmp_path / "twice.csv"
    twice.write_text("n,amplitude,amplitude\n1,2,3\n")
    with pytest.raises(ValueError, match="repeated column amplitude"):
        io.read_table(str(twice))


def test_manifest_contents(tmp_path):
    path = str(tmp_path / "run.manifest.json")
    io.write_manifest(path, "sweep-disk", {"alpha": 0.5, "points": 4},
                      rows=4, skipped=[(7, "no eigenvalue in window")],
                      seed=None)
    doc = io.read_manifest(path)
    assert doc["command"] == "sweep-disk"
    assert doc["config"] == {"alpha": 0.5, "points": 4}
    assert doc["rows"] == 4 and doc["skipped"] == 1
    assert doc["skipped_orders"] == [[7, "no eigenvalue in window"]]
    assert "cutoff_shape" not in doc
    # the sha256 of the sorted config as JSON: '{"alpha": 0.5, "points": 4}'
    assert doc["input_hash"] == ("sha256:8fe5ea53246a4fc5bd8f1eb7e0d70322"
                                 "86ff12d5d81a8b7130419626a8252f0c")
    assert "written" in doc and "version" in doc


def test_hash_file_is_the_sha256_of_the_bytes(tmp_path):
    path = tmp_path / "abc.csv"
    path.write_bytes(b"abc")          # the FIPS 180-2 test message
    assert io.hash_file(str(path)) == (
        "sha256:ba7816bf8f01cfea414140de5dae2223"
        "b00361a396177a9cb410ff61f20015ad")


def test_manifest_path_naming():
    assert io.manifest_path("runs/a.csv") == "runs/a.manifest.json"
    assert io.manifest_path("fig.svg") == "fig.manifest.json"


def test_config_sections_merge(tmp_path):
    cfg = tmp_path / "c.ini"
    cfg.write_text("[common]\npoints = 9\nalpha = 0.3\n"
                   "[sweep-disk]\nalpha = 0.5\n")
    loaded = io.load_config(str(cfg))
    merged = io.config_for(loaded, "sweep-disk")
    assert merged == {"points": "9", "alpha": "0.5"}
    other = io.config_for(loaded, "quasimode")
    assert other == {"points": "9", "alpha": "0.3"}


def test_config_malformed_rejected(tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text("alpha = 0.5\n")  # key before any section header
    with pytest.raises(ValueError, match="cannot read config"):
        io.load_config(str(bad))
    with pytest.raises(ValueError, match="cannot read config"):
        io.load_config(str(tmp_path / "missing.ini"))
