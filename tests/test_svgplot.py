"""Tests for the SVG log-log renderer."""

import math
from pathlib import Path

import numpy as np
import pytest

from glancelab import io, svgplot
from glancelab.experiments import fit_exponent

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def _power_law(slope=0.5, points=12):
    x = np.geomspace(10.0, 1e4, points)
    return x, 2.0 * x ** slope


def test_renders_scatter_and_fit():
    x, y = _power_law()
    svg = svgplot.render_log_log(x, [("norm", y)], xlabel="n", ylabel="norm")
    assert svg.startswith("<svg ") and svg.rstrip().endswith("</svg>")
    assert svg.count("<circle ") == len(x)
    assert "stroke-dasharray" in svg          # fitted line present
    assert ">n</text>" in svg


def test_annotation_matches_fit_exponent():
    x, y = _power_law(slope=0.3333)
    fit = fit_exponent(x, y, drop_low=0.25)
    svg = svgplot.render_log_log(x, [("norm", y)], drop_low=0.25)
    assert f"slope {fit.slope:+.4f}" in svg


def test_two_series_two_colors_with_legend():
    x, y = _power_law()
    svg = svgplot.render_log_log(x, [("raw", y), ("weighted", 3.0 * y)])
    assert svg.count("<circle ") == 2 * len(x)
    assert svgplot._COLORS[0] in svg and svgplot._COLORS[1] in svg
    assert "raw: slope" in svg and "weighted: slope" in svg


def test_deterministic_bytes():
    x, y = _power_law()
    a = svgplot.render_log_log(x, [("norm", y)], title="t")
    b = svgplot.render_log_log(x, [("norm", y)], title="t")
    assert a == b


def test_refused_fit_still_draws_points():
    rng = np.random.default_rng(5)
    x = np.geomspace(1.0, 1e3, 24)
    y = x ** 1.0 * np.exp(rng.normal(0.0, 3.0, size=x.size))
    svg = svgplot.render_log_log(x, [("mess", y)], drop_low=0.0)
    assert svg.count("<circle ") == len(x)
    assert "fit refused" in svg


def test_reproduces_the_demo_figure():
    # demos/02_amplitude_growth.py draws disk_growth.svg from the sweep
    # that disk_growth.csv holds; its columns, read back, draw it again
    table = io.read_table(str(DEMOS / "disk_growth.csv"))
    svg = svgplot.render_log_log(table["n"],
                                 [("amplitude", table["amplitude"])],
                                 xlabel="angular order n",
                                 ylabel="|trace amplitude|",
                                 title="disk, alpha = 0.5")
    assert svg == (DEMOS / "disk_growth.svg").read_text()


def test_empty_and_invalid_inputs_rejected():
    with pytest.raises(svgplot.PlotError, match="empty"):
        svgplot.render_log_log([], [("a", [])])
    with pytest.raises(svgplot.PlotError, match="non-positive"):
        svgplot.render_log_log([1.0, 2.0, 0.0], [("a", [1.0, 1.0, 1.0])])
    with pytest.raises(svgplot.PlotError, match="non-positive"):
        svgplot.render_log_log([1.0, 2.0, 3.0], [("a", [1.0, -1.0, 1.0])])
    with pytest.raises(svgplot.PlotError, match="length"):
        svgplot.render_log_log([1.0, 2.0, 3.0], [("a", [1.0, 2.0])])
    with pytest.raises(svgplot.PlotError, match="no series"):
        svgplot.render_log_log([1.0, 2.0, 3.0], [])
    # a nan or inf cell would leave its coordinates, or every one, nan
    for bad in (math.nan, math.inf):
        with pytest.raises(svgplot.PlotError, match="non-finite"):
            svgplot.render_log_log([1.0, bad, 3.0], [("a", [1.0, 2.0, 3.0])])
        with pytest.raises(svgplot.PlotError, match="non-finite"):
            svgplot.render_log_log([1.0, 2.0, 3.0], [("a", [1.0, bad, 3.0])])


def test_title_is_escaped():
    x, y = _power_law()
    svg = svgplot.render_log_log(x, [("a", y)], title="x < y & z")
    assert "x &lt; y &amp; z" in svg
    assert "x < y & z" not in svg


def test_constant_data_still_renders():
    x = np.geomspace(1.0, 100.0, 8)
    y = np.full(8, 2.5)
    svg = svgplot.render_log_log(x, [("flat", y)])
    assert svg.count("<circle ") == 8


def test_write_svg_lf(tmp_path):
    # svgplot only renders; io.write_text writes the figure, LF only
    x, y = _power_law()
    path = str(tmp_path / "p.svg")
    io.write_text(path, svgplot.render_log_log(x, [("a", y)]))
    raw = Path(path).read_bytes()
    assert b"\r" not in raw and raw.endswith(b"</svg>\n")
