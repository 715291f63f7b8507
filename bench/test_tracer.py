"""Tests of the benchmark's tracer: self-time arithmetic, the derived
ratios, wrapper coverage, and that its counts repeat exactly; and of the
seeded order of the cli workload's commands.

    PYTHONPATH=src python3 -m pytest bench
"""

import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from glancelab import experiments, modes, svgplot, weights  # noqa: E402

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import Span  # noqa: E402


def _spans(*rows):
    """Spans from (name, start, end, parent) rows."""
    return [Span(name, start, end, parent, "r") for name, start, end, parent
            in rows]


def test_self_time_of_nested_spans():
    spans = _spans(("a", 0.0, 10.0, -1), ("b", 2.0, 5.0, 0),
                   ("c", 3.0, 4.0, 1))
    assert tracing.self_times(spans) == [7.0, 2.0, 1.0]


def test_self_time_of_sibling_spans():
    spans = _spans(("a", 0.0, 10.0, -1), ("b", 1.0, 3.0, 0),
                   ("c", 4.0, 8.0, 0), ("d", 11.0, 12.0, -1))
    assert tracing.self_times(spans) == [4.0, 2.0, 4.0, 1.0]


def test_self_time_counts_overlapping_children_once_and_clips_them():
    spans = _spans(("a", 0.0, 10.0, -1), ("b", 1.0, 6.0, 0),
                   ("c", 4.0, 8.0, 0), ("d", 9.0, 12.0, 0))
    # children cover [1, 8] and [9, 10] of the parent's [0, 10]
    assert tracing.self_times(spans)[0] == pytest.approx(2.0)


def test_derived_ratios():
    rows = [("modes.modes_in_frequency_window", 0.0, 10.0, -1)]
    for k in range(4):                       # four zeros solved in the window
        zero = len(rows)
        rows.append(("specfun.bessel_zero", k + 0.1, k + 0.9, 0))
        rows.append(("specfun.bessel_j_pair", k + 0.2, k + 0.3, zero))
        rows.append(("specfun.bessel_j_pair", k + 0.4, k + 0.5, zero))
        rows.append(("specfun.airy_zero", k + 0.6, k + 0.7, zero))
    spans = _spans(*rows)
    spans[0].info = 1                        # one mode kept
    for sp, m in zip((s for s in spans if s.name == "specfun.airy_zero"),
                     (1, 1, 2, 1)):
        sp.info = m
    got = tracing.layer_metrics(spans)
    assert got["specfun.bessel_zero.calls"] == 4
    assert got["specfun.bessel_zero.newton_steps"] == 2.0
    assert got["specfun.airy_zero.distinct_frac"] == 0.5
    assert got["modes.modes_in_frequency_window.kept_frac"] == 0.25
    assert got["modes.modes_in_frequency_window.p50_s"] == 10.0
    assert got["specfun.bessel_zero.self_s"] == pytest.approx(4 * 0.5)
    assert got["modes.select_disk_mode_at_scale.calls"] == 0


def test_spans_survive_a_round_trip_through_a_file(tmp_path):
    spans = _spans(("a", 0.0, 10.0, -1), ("b", 2.0, 5.0, 0))
    spans[1].info = 7
    path = str(tmp_path / "spans.tsv")
    tracing.write_spans(path, spans)
    both = tracing.read_spans(path)
    both += tracing.read_spans(path, len(both))
    assert [(s.name, s.start, s.end, s.parent, s.info) for s in both] == [
        ("a", 0.0, 10.0, -1, None), ("b", 2.0, 5.0, 0, 7),
        ("a", 0.0, 10.0, -1, None), ("b", 2.0, 5.0, 2, 7)]


@pytest.fixture
def installed():
    tr = tracing.Tracer()
    original = weights.glancing_weight
    tr.install()
    yield tr, original
    tr.uninstall()


def test_every_namespace_binding_a_function_is_wrapped(installed):
    tr, original = installed
    assert experiments.glancing_weight is weights.glancing_weight
    assert weights.glancing_weight is not original
    assert svgplot.fit_exponent is experiments.fit_exponent
    experiments.trace_norm([3.0, 4.0], 0.5)
    svgplot.fit_exponent([1.0, 2.0, 4.0], [1.0, 2.0, 4.0], drop_low=0.0)
    assert [s.name for s in tr.spans] == ["weights.trace_norm",
                                          "experiments.fit_exponent"]


def test_uninstall_restores_the_originals():
    original = (weights.glancing_weight, experiments.glancing_weight)
    tr = tracing.Tracer()
    tr.install()
    tr.uninstall()
    assert (weights.glancing_weight, experiments.glancing_weight) == original


def test_children_carry_their_parent_and_the_window_request(installed):
    tr, _ = installed
    modes.modes_in_frequency_window(60.0, 61.0)
    window = tr.spans[0]
    assert window.name == "modes.modes_in_frequency_window"
    assert window.request == "modes.modes_in_frequency_window#1"
    zeros = [s for s in tr.spans if s.name == "specfun.bessel_zero"]
    assert zeros and all(tr.spans[s.parent] is window for s in zeros)
    assert {s.request for s in tr.spans} == {window.request}


def _small_traced_run():
    tr = tracing.Tracer()
    tr.install()
    try:
        sweep = experiments.amplitude_sweep(experiments.SweepConfig(
            kind="disk", alpha=0.5, n_lo=200, n_hi=400, points=3))
        experiments.quasimode_boundedness(lam_lo=50.0, lam_hi=60.0,
                                          windows=2, trials=2)
    finally:
        tr.uninstall()
    got = tracing.layer_metrics(tr.spans)
    got["rows"], got["rows_skipped"] = len(sweep.rows), len(sweep.skipped)
    exact = tracing.EXACT + ("rows", "rows_skipped")
    return {k: v for k, v in got.items() if k.rsplit(".", 1)[-1] in exact}


def test_counts_repeat_exactly_across_runs():
    first, second = _small_traced_run(), _small_traced_run()
    assert first == second
    for key in ("specfun.bessel_zero.calls",
                "specfun.bessel_zero.newton_steps",
                "specfun.airy_zero.distinct_frac",
                "modes.modes_in_frequency_window.kept_frac",
                "modes.select_disk_mode_at_scale.zeros_per_row", "rows"):
        assert first[key] > 0, key


def test_import_time_totals_count_nested_modules_once():
    # -X importtime prints an import when it finishes: children first
    entries = [(6, "scipy._lib", 30), (4, "scipy", 100),
               (6, "scipy.integrate._quad", 50), (4, "scipy.integrate", 80),
               (2, "glancelab.oracle", 200), (0, "glancelab", 400),
               (0, "glancelab.cli", 10)]
    assert run._import_total(entries, "scipy") == 180
    assert run._import_total(entries, "glancelab") == 410


def test_cli_seed_reorders_commands_but_keeps_their_dependencies():
    orders = set()
    for seed in range(8):
        labels = [label for label, _argv in wl.cli_commands("out", seed)]
        assert sorted(labels) == sorted(["sweep-sphere", "sweep-disk", "fit",
                                         "plot", "quasimode", "selftest"])
        start = labels.index("sweep-disk")
        assert labels[start:start + 3] == ["sweep-disk", "fit", "plot"]
        assert labels == [label for label, _ in wl.cli_commands("out", seed)]
        orders.add(tuple(labels))
    assert len(orders) > 1
