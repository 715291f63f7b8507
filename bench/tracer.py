"""Span tracer that measures glancelab's layers from outside the package.

`Tracer.install` replaces every public function of the traced modules with
a wrapper, in every glancelab namespace that binds it (``experiments``
imports ``glancing_weight`` from ``weights``, ``svgplot`` imports
``fit_exponent`` from ``experiments``).  Each call records a span: its name
(``<module>.<function>``), start and end on ``time.perf_counter``, the span
that was open when it began, and the request it serves.  Spans stay in
memory; `write_spans` saves them when the benchmark ends and
`layer_metrics` reduces them to the per-layer figures.

A span's self time is its duration minus the part of its interval that its
child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import statistics
import sys
import time

# the layers whose public functions are wrapped
LAYERS = ("specfun", "modes", "weights", "experiments", "io", "svgplot",
          "oracle", "cli")


class Span:
    """One call of a traced function.  `parent` indexes the caller's span
    in the same list (-1 at top level); `info` holds a call-specific figure
    (see `_INFO`)."""

    __slots__ = ("name", "start", "end", "parent", "request", "info")

    def __init__(self, name, start, end, parent, request, info=None):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.request = request
        self.info = info


def _file_size(args, result):
    return os.path.getsize(args[0])


# figures recorded per call, for the ratios that need more than timing
_INFO = {
    "specfun.airy_zero": lambda args, result: args[0],
    "modes.modes_in_frequency_window": lambda args, result: len(result),
    "io.write_sweep_csv": _file_size,
    "io.write_quasimode_csv": _file_size,
    "io.write_manifest": _file_size,
}


# a call of this function starts a fresh request: quasimode windows are
# enumerated inside one experiment call, so each window is its own request
OPENER = "modes.modes_in_frequency_window"


class Tracer:
    """Records spans of wrapped calls on one thread.

    `request` names the sweep or command the current calls serve; the
    caller sets it, and each call of `OPENER` starts the request of its
    window.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.request = ""
        self._stack: list[int] = []
        self._opened = 0
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        info = _INFO.get(name)
        opens = name == OPENER

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if opens:
                self._opened += 1
                self.request = f"{name}#{self._opened}"
            span = Span(name, clock(), 0.0, stack[-1] if stack else -1,
                        self.request)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if info is not None:
                span.info = info(args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap the public functions of every traced layer, in every loaded
        glancelab module that binds them.  Layers not yet imported are
        imported first, so none escapes the wrappers."""
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"glancelab.{layer}")
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrappers[obj] = self.wrap(f"{layer}.{attr}", obj)
        namespaces = [m for k, m in list(sys.modules.items())
                      if k == "glancelab" or k.startswith("glancelab.")]
        for mod in namespaces:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])
                    self._patched.append((mod, attr, obj))

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()


def self_times(spans) -> list[float]:
    """Per span: duration minus the union of its children's intervals,
    each clipped to the parent's interval."""
    children: list[list[int]] = [[] for _ in spans]
    for i, sp in enumerate(spans):
        if sp.parent >= 0:
            children[sp.parent].append(i)
    out = []
    for sp, kids in zip(spans, children):
        covered, reach = 0.0, sp.start
        for lo, hi in sorted((spans[k].start, spans[k].end) for k in kids):
            lo, hi = max(lo, reach), min(hi, sp.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((sp.end - sp.start) - covered)
    return out


def _quantile(values, q: float) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[
        round(q * 100) - 1]


# functions whose call count and self time are reported
COUNTED = {
    "specfun": ("bessel_j", "bessel_j_pair", "bessel_j_prime", "bessel_zero",
                "airy_zero", "z_of_zeta", "bessel_zero_index",
                "phase_integral", "legendre_equator"),
    "modes": ("select_disk_mode_at_scale",),
    "weights": ("glancing_weight", "trace_norm", "band_indicator"),
}

# functions whose self time alone is reported
SELF_ONLY = (
    "modes.modes_in_frequency_window", "modes.restrict_disk",
    "modes.restrict_disk_normal_derivative", "modes.restrict_sphere",
    "experiments.amplitude_sweep", "experiments.sharpness_sweep",
    "experiments.normal_band_check", "experiments.normal_derivative_sweep",
    "experiments.quasimode_boundedness", "io.write_sweep_csv",
    "io.write_quasimode_csv", "io.write_manifest", "io.read_table",
    "svgplot.render_log_log", "oracle.run_all",
)

# metrics that are counts: they must repeat exactly on identical input
EXACT = ("calls", "newton_steps", "distinct_frac", "kept_frac",
         "zeros_per_row")


def layer_metrics(spans) -> dict[str, float]:
    """The span-derived per-layer metrics (0 for a layer left idle)."""
    selfs = self_times(spans)
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    durations: dict[str, list[float]] = {}
    info: dict[str, list] = {}
    under: dict[tuple[str, str], int] = {}   # (parent name, name) -> calls
    for sp, st in zip(spans, selfs):
        calls[sp.name] = calls.get(sp.name, 0) + 1
        self_s[sp.name] = self_s.get(sp.name, 0.0) + st
        durations.setdefault(sp.name, []).append(sp.end - sp.start)
        if sp.info is not None:
            info.setdefault(sp.name, []).append(sp.info)
        if sp.parent >= 0:
            key = (spans[sp.parent].name, sp.name)
            under[key] = under.get(key, 0) + 1

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out: dict[str, float] = {}
    for layer, names in COUNTED.items():
        for fn in names:
            name = f"{layer}.{fn}"
            out[f"{name}.calls"] = calls.get(name, 0)
            out[f"{name}.self_s"] = self_s.get(name, 0.0)
    for name in SELF_ONLY:
        out[f"{name}.self_s"] = self_s.get(name, 0.0)

    zero, pair = "specfun.bessel_zero", "specfun.bessel_j_pair"
    out[f"{zero}.newton_steps"] = ratio(under.get((zero, pair), 0),
                                        calls.get(zero, 0))
    airy = info.get("specfun.airy_zero", [])
    out["specfun.airy_zero.distinct_frac"] = ratio(len(set(airy)), len(airy))

    window = "modes.modes_in_frequency_window"
    out[f"{window}.p50_s"] = _quantile(durations.get(window, []), 0.50)
    out[f"{window}.kept_frac"] = ratio(sum(info.get(window, [])),
                                       under.get((window, zero), 0))
    select = "modes.select_disk_mode_at_scale"
    out[f"{select}.p50_s"] = _quantile(durations.get(select, []), 0.50)
    out[f"{select}.p95_s"] = _quantile(durations.get(select, []), 0.95)
    out[f"{select}.zeros_per_row"] = ratio(under.get((select, zero), 0),
                                           calls.get(select, 0))
    out["io.bytes_written"] = sum(
        sum(info.get(f"io.{fn}", []))
        for fn in ("write_sweep_csv", "write_quasimode_csv", "write_manifest"))
    return out


def write_spans(path: str, spans) -> None:
    """Save spans as tab-separated lines: id, parent, request, name, start,
    end, info."""
    with open(path, "w") as fh:
        fh.write("id\tparent\trequest\tname\tstart\tend\tinfo\n")
        for i, sp in enumerate(spans):
            info = "" if sp.info is None else repr(sp.info)
            fh.write(f"{i}\t{sp.parent}\t{sp.request}\t{sp.name}\t"
                     f"{sp.start!r}\t{sp.end!r}\t{info}\n")


def read_spans(path: str, base: int = 0) -> list[Span]:
    """Inverse of `write_spans`, for appending to a list that already holds
    `base` spans (parent indices are shifted by `base`)."""
    spans = []
    with open(path) as fh:
        next(fh)
        for line in fh:
            _id, parent, request, name, start, end, info = \
                line.rstrip("\n").split("\t")
            parent = int(parent)
            spans.append(Span(name, float(start), float(end),
                              parent + base if parent >= 0 else -1,
                              request, int(info) if info else None))
    return spans
