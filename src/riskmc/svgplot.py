"""Standalone deterministic SVG charts for the simulation outputs.

Every data series lands in its own ``<g class="series">`` group so the
structure is checkable; axes, ticks, and legends sit outside series
groups. No timestamps or generated ids: identical data gives identical
bytes.
"""

from __future__ import annotations

import math

import numpy as np

from .control import RiskBaseline, SevmForecast
from .cpm import CpmResult
from .csvout import GRID_POINTS, _grid_times
from .errors import ShapeMismatch
from .indices import SensitivityReport
from .montecarlo import Ensemble, HistogramTable, _bin_counts

PLOT_KINDS = ("pv", "pdfcdf", "scatter", "ci_bars", "srb_crb", "triad", "sevm")

_W, _H = 760, 490
_LEFT, _RIGHT, _TOP, _BOTTOM = 70, 70, 56, 52
_BLUE = "#1565c0"
_RED = "#c62828"
_GRAY = "#607d8b"
_ORANGE = "#ef6c00"
_GREEN = "#2e7d32"
MAX_POINTS = 4000  # scatter clouds subsample deterministically above this


def plot(kind: str, data, path, grid_points: int = GRID_POINTS) -> None:
    """Render one chart kind to a standalone SVG file; grid_points sizes pv and srb_crb."""
    builder = _BUILDERS.get(kind)
    if builder is None:
        raise ShapeMismatch(f"unknown plot kind {kind!r}; expected one of {PLOT_KINDS}")
    svg = builder(data, grid_points) if kind in _GRIDDED else builder(data)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(svg)


def _require(data, kind, cls):
    if not isinstance(data, cls):
        raise ShapeMismatch(f"plot kind {kind!r} needs {cls.__name__}, "
                            f"got {type(data).__name__}")
    return data


class _Chart:
    def __init__(self, title, xlabel, ylabel, xlim, ylim, y2label=None, y2lim=None):
        self.title = title
        self.xlabel, self.ylabel, self.y2label = xlabel, ylabel, y2label
        self.xlim = _pad_range(*xlim)
        self.ylim = _pad_range(*ylim)
        self.y2lim = _pad_range(*y2lim) if y2lim is not None else None
        self.series = []
        self.legend = []

    def x(self, v):
        lo, hi = self.xlim
        return _LEFT + (np.asarray(v, float) - lo) / (hi - lo) * (_W - _LEFT - _RIGHT)

    def y(self, v, axis="left"):
        lo, hi = self.ylim if axis == "left" else self.y2lim
        return _H - _BOTTOM - (np.asarray(v, float) - lo) / (hi - lo) * (_H - _TOP - _BOTTOM)

    def add_line(self, xs, ys, color, label=None, axis="left", width=1.6):
        pts = " ".join(f"{px:.2f},{py:.2f}" for px, py in
                       zip(self.x(xs), self.y(ys, axis)))
        self.series.append(f'<polyline fill="none" stroke="{color}" '
                           f'stroke-width="{width}" points="{pts}"/>')
        if label:
            self.legend.append((label, color, "line"))

    def add_points(self, xs, ys, color, label=None, r=2.0, axis="left"):
        dots = "".join(f'<circle cx="{px:.2f}" cy="{py:.2f}" r="{r}" fill="{color}" '
                       f'fill-opacity="0.55"/>'
                       for px, py in zip(self.x(xs), self.y(ys, axis)))
        self.series.append(dots)
        if label:
            self.legend.append((label, color, "point"))

    def add_bars(self, lefts, rights, heights, color, label=None, base=0.0):
        y0 = self.y(base)
        parts = []
        for lo, hi, h in zip(self.x(lefts), self.x(rights), self.y(heights)):
            top = min(h, y0)
            parts.append(f'<rect x="{lo:.2f}" y="{top:.2f}" width="{max(hi - lo, 0.8):.2f}" '
                         f'height="{abs(y0 - h):.2f}" fill="{color}" fill-opacity="0.7"/>')
        self.series.append("".join(parts))
        if label:
            self.legend.append((label, color, "bar"))

    def add_marker(self, x, y, color, label=None, size=7.0):
        px, py = float(self.x(x)), float(self.y(y))
        self.series.append(
            f'<path d="M {px - size} {py} L {px + size} {py} M {px} {py - size} '
            f'L {px} {py + size}" stroke="{color}" stroke-width="2.5" fill="none"/>'
            f'<circle cx="{px:.2f}" cy="{py:.2f}" r="{size * 0.55:.2f}" fill="none" '
            f'stroke="{color}" stroke-width="2"/>')
        if label:
            self.legend.append((label, color, "point"))

    def render(self):
        out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
               f'viewBox="0 0 {_W} {_H}" font-family="sans-serif" font-size="12">',
               f'<rect x="0" y="0" width="{_W}" height="{_H}" fill="white"/>',
               f'<text x="{_W / 2}" y="24" text-anchor="middle" font-size="15">'
               f'{_esc(self.title)}</text>']
        out.append(self._axes())
        for k, fragment in enumerate(self.series):
            out.append(f'<g class="series" id="series-{k}">{fragment}</g>')
        out.append(self._legend_box())
        out.append("</svg>")
        return "\n".join(out) + "\n"

    def _axes(self):
        x0, x1 = _LEFT, _W - _RIGHT
        y0, y1 = _H - _BOTTOM, _TOP
        parts = [f'<g class="axes" stroke="#333">'
                 f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}"/>'
                 f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}"/>']
        if self.y2lim is not None:
            parts.append(f'<line x1="{x1}" y1="{y0}" x2="{x1}" y2="{y1}"/>')
        parts.append("</g>")
        parts.append('<g class="ticks" fill="#333">')
        for v in _ticks(*self.xlim):
            px = float(self.x(v))
            parts.append(f'<line x1="{px:.2f}" y1="{y0}" x2="{px:.2f}" y2="{y0 + 5}" '
                         f'stroke="#333"/>'
                         f'<text x="{px:.2f}" y="{y0 + 18}" text-anchor="middle">{_tick(v)}</text>')
        for v in _ticks(*self.ylim):
            py = float(self.y(v))
            parts.append(f'<line x1="{x0 - 5}" y1="{py:.2f}" x2="{x0}" y2="{py:.2f}" '
                         f'stroke="#333"/>'
                         f'<text x="{x0 - 8}" y="{py + 4:.2f}" text-anchor="end">{_tick(v)}</text>')
        if self.y2lim is not None:
            for v in _ticks(*self.y2lim):
                py = float(self.y(v, "right"))
                parts.append(f'<line x1="{x1}" y1="{py:.2f}" x2="{x1 + 5}" y2="{py:.2f}" '
                             f'stroke="#333"/>'
                             f'<text x="{x1 + 8}" y="{py + 4:.2f}" text-anchor="start">'
                             f'{_tick(v)}</text>')
        parts.append(f'<text x="{(x0 + x1) / 2}" y="{_H - 12}" text-anchor="middle">'
                     f'{_esc(self.xlabel)}</text>')
        parts.append(f'<text x="16" y="{(y0 + y1) / 2}" text-anchor="middle" '
                     f'transform="rotate(-90 16 {(y0 + y1) / 2})">{_esc(self.ylabel)}</text>')
        if self.y2label:
            parts.append(f'<text x="{_W - 14}" y="{(y0 + y1) / 2}" text-anchor="middle" '
                         f'transform="rotate(90 {_W - 14} {(y0 + y1) / 2})">'
                         f'{_esc(self.y2label)}</text>')
        parts.append("</g>")
        return "".join(parts)

    def _legend_box(self):
        if not self.legend:
            return '<g class="legend"/>'
        parts = ['<g class="legend">']
        x = _LEFT + 10
        y = _TOP - 14
        for label, color, style in self.legend:
            if style == "line":
                parts.append(f'<line x1="{x}" y1="{y - 4}" x2="{x + 18}" y2="{y - 4}" '
                             f'stroke="{color}" stroke-width="2"/>')
            elif style == "bar":
                parts.append(f'<rect x="{x}" y="{y - 10}" width="18" height="10" '
                             f'fill="{color}" fill-opacity="0.7"/>')
            else:
                parts.append(f'<circle cx="{x + 9}" cy="{y - 4}" r="4" fill="{color}"/>')
            parts.append(f'<text x="{x + 24}" y="{y}" fill="#333">{_esc(label)}</text>')
            x += 30 + 7 * len(label)
        parts.append("</g>")
        return "".join(parts)


def _pad_range(lo, hi):
    lo, hi = float(lo), float(hi)
    if not math.isfinite(lo) or not math.isfinite(hi):
        lo, hi = 0.0, 1.0
    if hi <= lo:
        span = abs(lo) if lo != 0 else 1.0
        lo, hi = lo - 0.5 * span, hi + 0.5 * span
    pad = 0.04 * (hi - lo)
    return lo - pad, hi + pad


def _ticks(lo, hi, target=6):
    span = hi - lo
    raw = span / target
    mag = 10 ** math.floor(math.log10(raw))
    step = next(s * mag for s in (1, 2, 2.5, 5, 10) if raw <= s * mag)
    first = math.ceil(lo / step) * step
    ticks = []
    v = first
    while v <= hi + 1e-12 * span:
        ticks.append(0.0 if abs(v) < 1e-12 * span else v)
        if v + step == v:  # step below the float spacing at v
            break
        v += step
    return ticks


def _tick(v):
    return f"{v:g}" if abs(v) < 1e5 else f"{v:.3g}"


def _esc(text):
    return (str(text).replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;"))


def _subsample(*arrays):
    n = len(arrays[0])
    if n <= MAX_POINTS:
        return arrays
    idx = np.linspace(0, n - 1, MAX_POINTS).astype(int)
    return tuple(a[idx] for a in arrays)


# ---------------------------------------------------------------------------
# chart builders

def _build_pv(data, grid_points):
    planned = _require(data, "pv", CpmResult)
    times = _grid_times(planned, grid_points)
    chart = _Chart("Planned value", "time", "planned value",
                   (0.0, max(planned.duration, 1e-9)), (0.0, max(planned.bac, 1e-9)))
    chart.add_line(times, planned.value_at(times), _BLUE, "PV(t)")
    return chart.render()


def _build_pdfcdf(data):
    hist = _require(data, "pdfcdf", HistogramTable)
    top = max(float(hist.pdf.max()), 1e-9)
    chart = _Chart("Distribution", "value", "probability mass",
                   (float(hist.edges[0]), float(hist.edges[-1])), (0.0, top),
                   y2label="cumulative", y2lim=(0.0, 1.0))
    chart.add_bars(hist.edges[:-1], hist.edges[1:], hist.pdf, _BLUE, "pdf")
    chart.add_line(hist.edges[1:], hist.cdf, _RED, "cdf", axis="right")
    return chart.render()


def _build_scatter(data):
    ens = _require(data, "scatter", Ensemble)
    d, c = _subsample(ens.total_duration, ens.total_cost)
    chart = _Chart("Simulated endpoints", "duration", "cost",
                   (float(d.min()), float(d.max())), (float(c.min()), float(c.max())))
    chart.add_points(d, c, _BLUE, "runs")
    chart.series.append(_margin_hist_x(chart, ens.total_duration))
    chart.series.append(_margin_hist_y(chart, ens.total_cost))
    return chart.render()


def _margin_hist_x(chart, values, bins=36):
    counts, edges = _bin_counts(values, bins)
    top = counts.max() or 1
    strip = _TOP - 26
    parts = []
    for k in range(counts.size):
        h = 22.0 * counts[k] / top
        x0, x1 = float(chart.x(edges[k])), float(chart.x(edges[k + 1]))
        parts.append(f'<rect x="{x0:.2f}" y="{strip + 22 - h:.2f}" '
                     f'width="{max(x1 - x0, 0.5):.2f}" height="{h:.2f}" '
                     f'fill="{_GRAY}" fill-opacity="0.6"/>')
    return "".join(parts)


def _margin_hist_y(chart, values, bins=36):
    counts, edges = _bin_counts(values, bins)
    top = counts.max() or 1
    strip = _W - _RIGHT + 6
    parts = []
    for k in range(counts.size):
        w = 22.0 * counts[k] / top
        y0, y1 = float(chart.y(edges[k + 1])), float(chart.y(edges[k]))
        parts.append(f'<rect x="{strip}" y="{y0:.2f}" width="{w:.2f}" '
                     f'height="{max(y1 - y0, 0.5):.2f}" fill="{_GRAY}" fill-opacity="0.6"/>')
    return "".join(parts)


def _build_ci_bars(data):
    rep = _require(data, "ci_bars", SensitivityReport)
    n = len(rep.node_ids)
    chart = _Chart("Criticality index", "activity", "CI", (-0.5, n - 0.5), (0.0, 1.0))
    centers = np.arange(n, dtype=float)
    chart.add_bars(centers - 0.35, centers + 0.35, rep.ci, _BLUE, "CI")
    labels = "".join(
        f'<text x="{float(chart.x(k)):.2f}" y="{_H - _BOTTOM + 18}" text-anchor="middle" '
        f'font-size="10">{_esc(rep.node_ids[k])}</text>' for k in range(n))
    chart.series.append(labels)
    return chart.render()


def _build_srb_crb(data, grid_points):
    base = _require(data, "srb_crb", RiskBaseline)
    times = _grid_times(base.plan, grid_points)
    srb, crb = base.srb_at(times), base.crb_at(times)
    chart = _Chart("Risk baselines", "time", "SRB (time units)",
                   (float(times[0]), float(times[-1])),
                   (0.0, max(float(srb.max()), 1e-9)),
                   y2label="CRB (money units)",
                   y2lim=(0.0, max(float(crb.max()), 1e-9)))
    chart.add_line(times, srb, _BLUE, "SRB")
    chart.add_line(times, crb, _ORANGE, "CRB", axis="right")
    return chart.render()


def _build_triad(data):
    if not isinstance(data, dict) or not {"section_t", "section_c", "observed_t",
                                          "observed_ac"} <= set(data):
        raise ShapeMismatch("plot kind 'triad' needs a dict with section_t, section_c, "
                            "observed_t, observed_ac")
    t = np.asarray(data["section_t"], float)
    c = np.asarray(data["section_c"], float)
    if t.shape != c.shape or t.ndim != 1 or t.size == 0:
        raise ShapeMismatch("triad section arrays must be equal-length 1-D and nonempty")
    ot, oc = float(data["observed_t"]), float(data["observed_ac"])
    ts, cs = _subsample(t, c)
    chart = _Chart("Control cross-section", "time at control fraction", "cost",
                   (min(float(t.min()), ot), max(float(t.max()), ot)),
                   (min(float(c.min()), oc), max(float(c.max()), oc)))
    chart.add_points(ts, cs, _GRAY, "simulated runs")
    med_t, med_c = float(np.median(t)), float(np.median(c))
    chart.add_line([med_t, med_t], [chart.ylim[0], chart.ylim[1]], _GREEN, "medians", width=1.0)
    chart.add_line([chart.xlim[0], chart.xlim[1]], [med_c, med_c], _GREEN, width=1.0)
    chart.add_marker(ot, oc, _RED, "observation")
    return chart.render()


def _build_sevm(data):
    fc = _require(data, "sevm", SevmForecast)
    t, c, late = _subsample(fc.neighbor_section_t, fc.neighbor_section_c, fc.neighbor_late)
    lo_t = min(float(fc.neighbor_section_t.min()), fc.observed_t)
    hi_t = max(float(fc.neighbor_section_t.max()), fc.observed_t)
    lo_c = min(float(fc.neighbor_section_c.min()), fc.observed_ac)
    hi_c = max(float(fc.neighbor_section_c.max()), fc.observed_ac)
    chart = _Chart("Endpoint forecast neighborhood",
                   "time at control fraction", "cost", (lo_t, hi_t), (lo_c, hi_c))
    if (~late).any():
        chart.add_points(t[~late], c[~late], _BLUE, "finishing early")
    if late.any():
        chart.add_points(t[late], c[late], _RED, "finishing late")
    chart.add_marker(fc.observed_t, fc.observed_ac, _GREEN, "observation")
    return chart.render()


_BUILDERS = {
    "pv": _build_pv,
    "pdfcdf": _build_pdfcdf,
    "scatter": _build_scatter,
    "ci_bars": _build_ci_bars,
    "srb_crb": _build_srb_crb,
    "triad": _build_triad,
    "sevm": _build_sevm,
}
_GRIDDED = ("pv", "srb_crb")  # kinds whose builders sample the plan's timeline
