"""Standalone SVG log-log plots: scatter, fitted power-law line, slope label.

No plotting dependency: the experiments only ever need one kind of figure,
and hand-writing it keeps the bytes deterministic — same table in, same SVG
out, which the reproducibility checks rely on.  Coordinates are formatted
with two decimals and nothing in the file depends on time, locale, or
dict iteration order.  It runs on the standard library alone, like the fit
it draws.  It only renders: ``glancelab.io.write_text`` writes the text
to a file.
"""

from __future__ import annotations

import math

from .fit import FitError, fit_exponent

_WIDTH, _HEIGHT = 640.0, 440.0
_LEFT, _RIGHT, _TOP, _BOTTOM = 72.0, 620.0, 42.0, 392.0
_COLORS = ("#336699", "#cc5500", "#2e7d32", "#7b1fa2")


def _fmt(v: float) -> str:
    return "%.2f" % v


def _tick_label(value: float) -> str:
    e = math.log10(value)
    if abs(e - round(e)) < 1e-9 and not (-3 <= round(e) <= 4):
        return "1e%d" % round(e)
    return "%g" % value


def _log_ticks(lo: float, hi: float) -> list[float]:
    """Tick positions for a log axis spanning [10^lo, 10^hi]."""
    decades = range(math.ceil(lo - 1e-9), math.floor(hi + 1e-9) + 1)
    ticks = [10.0 ** k for k in decades]
    if len(ticks) < 3:  # narrow span: add 2x and 5x mantissas
        ticks = [m * 10.0 ** k
                 for k in range(math.floor(lo) - 1, math.floor(hi) + 2)
                 for m in (1.0, 2.0, 5.0)]
        ticks = [t for t in ticks if lo - 1e-9 <= math.log10(t) <= hi + 1e-9]
    return ticks


class PlotError(ValueError):
    """The table cannot be drawn on log axes."""


def render_log_log(x, series, xlabel: str = "", ylabel: str = "",
                   title: str = "", drop_low: float = 0.25) -> str:
    """Render a log-log scatter with one fitted line per series.

    Parameters
    ----------
    x : sequence of numbers
        Common abscissa, positive and finite.
    series : list of (label, y) pairs
        Each y positive and finite, same length as x.  Each series gets its
        own color and a legend entry carrying its fitted slope (the same
        number `fit_exponent` reports with the same `drop_low`); a series
        whose fit is refused is still drawn, labelled "fit refused".
    """
    x = [float(v) for v in x]
    if not x:
        raise PlotError("empty table")
    if not all(0.0 < v < math.inf for v in x):
        raise PlotError("non-positive or non-finite values on the x log axis")
    cleaned = []
    for label, y in series:
        y = [float(v) for v in y]
        if len(y) != len(x):
            raise PlotError(f"series {label!r} has wrong length")
        if not all(0.0 < v < math.inf for v in y):
            raise PlotError(f"non-positive or non-finite values in series "
                            f"{label!r}")
        cleaned.append((str(label), y))
    if not cleaned:
        raise PlotError("no series to plot")

    lx_lo, lx_hi = math.log10(min(x)), math.log10(max(x))
    ally = [v for _, y in cleaned for v in y]
    ly_lo, ly_hi = math.log10(min(ally)), math.log10(max(ally))
    xpad = max(0.04 * (lx_hi - lx_lo), 0.05)
    ypad = max(0.04 * (ly_hi - ly_lo), 0.05)
    lx_lo, lx_hi = lx_lo - xpad, lx_hi + xpad
    ly_lo, ly_hi = ly_lo - ypad, ly_hi + ypad

    def px(v: float) -> float:
        return _LEFT + (math.log10(v) - lx_lo) / (lx_hi - lx_lo) * (_RIGHT - _LEFT)

    def py(v: float) -> float:
        return _BOTTOM - (math.log10(v) - ly_lo) / (ly_hi - ly_lo) * (_BOTTOM - _TOP)

    out = []
    out.append(f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH:.0f}" '
               f'height="{_HEIGHT:.0f}" viewBox="0 0 {_WIDTH:.0f} {_HEIGHT:.0f}">')
    out.append(f'<rect width="{_WIDTH:.0f}" height="{_HEIGHT:.0f}" fill="#ffffff"/>')
    if title:
        out.append(f'<text x="{(_LEFT + _RIGHT) / 2:.0f}" y="24" font-family="monospace" '
                   f'font-size="14" text-anchor="middle">{_escape(title)}</text>')

    # grid and ticks
    for t in _log_ticks(lx_lo, lx_hi):
        X = px(t)
        out.append(f'<line x1="{_fmt(X)}" y1="{_fmt(_TOP)}" x2="{_fmt(X)}" '
                   f'y2="{_fmt(_BOTTOM)}" stroke="#dddddd" stroke-width="1"/>')
        out.append(f'<text x="{_fmt(X)}" y="{_fmt(_BOTTOM + 16)}" font-family="monospace" '
                   f'font-size="11" text-anchor="middle">{_tick_label(t)}</text>')
    for t in _log_ticks(ly_lo, ly_hi):
        Y = py(t)
        out.append(f'<line x1="{_fmt(_LEFT)}" y1="{_fmt(Y)}" x2="{_fmt(_RIGHT)}" '
                   f'y2="{_fmt(Y)}" stroke="#dddddd" stroke-width="1"/>')
        out.append(f'<text x="{_fmt(_LEFT - 6)}" y="{_fmt(Y + 4)}" font-family="monospace" '
                   f'font-size="11" text-anchor="end">{_tick_label(t)}</text>')
    out.append(f'<rect x="{_fmt(_LEFT)}" y="{_fmt(_TOP)}" width="{_fmt(_RIGHT - _LEFT)}" '
               f'height="{_fmt(_BOTTOM - _TOP)}" fill="none" stroke="#333333"/>')

    # data and fits
    legend = []
    for idx, (label, y) in enumerate(cleaned):
        color = _COLORS[idx % len(_COLORS)]
        fit = None
        try:
            fit = fit_exponent(x, y, drop_low=drop_low)
        except FitError:
            pass
        if fit is not None:
            xa, xb = min(x), max(x)
            ya = math.exp(fit.intercept) * xa ** fit.slope
            yb = math.exp(fit.intercept) * xb ** fit.slope
            out.append(f'<line x1="{_fmt(px(xa))}" y1="{_fmt(py(ya))}" '
                       f'x2="{_fmt(px(xb))}" y2="{_fmt(py(yb))}" '
                       f'stroke="{color}" stroke-width="1.5" '
                       f'stroke-dasharray="6,4"/>')
            legend.append((color, f"{label}: slope {fit.slope:+.4f}"))
        else:
            legend.append((color, f"{label}: fit refused"))
        for vx, vy in zip(x, y):
            out.append(f'<circle cx="{_fmt(px(vx))}" cy="{_fmt(py(vy))}" r="3" '
                       f'fill="{color}" fill-opacity="0.8"/>')

    # legend (top-left, inside the axes)
    for i, (color, text) in enumerate(legend):
        ly = _TOP + 16 + 18 * i
        out.append(f'<rect x="{_fmt(_LEFT + 10)}" y="{_fmt(ly - 9)}" width="12" '
                   f'height="12" fill="{color}"/>')
        out.append(f'<text x="{_fmt(_LEFT + 28)}" y="{_fmt(ly + 1)}" '
                   f'font-family="monospace" font-size="12">{_escape(text)}</text>')

    if xlabel:
        out.append(f'<text x="{(_LEFT + _RIGHT) / 2:.0f}" y="{_HEIGHT - 8:.0f}" '
                   f'font-family="monospace" font-size="12" '
                   f'text-anchor="middle">{_escape(xlabel)}</text>')
    if ylabel:
        out.append(f'<text x="16" y="{(_TOP + _BOTTOM) / 2:.0f}" font-family="monospace" '
                   f'font-size="12" text-anchor="middle" '
                   f'transform="rotate(-90 16 {(_TOP + _BOTTOM) / 2:.0f})">'
                   f'{_escape(ylabel)}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def _escape(text: str) -> str:
    return (text.replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;"))

