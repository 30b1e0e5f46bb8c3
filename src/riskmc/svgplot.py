"""Standalone deterministic SVG charts for the simulation outputs.

Every data series lands in its own ``<g class="series">`` group so the
structure is checkable; axes, ticks, and legends sit outside series
groups. No timestamps or generated ids: identical data gives identical
bytes.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .csvout import baseline_table, pv_table
from .errors import GRID_POINTS

_W, _H = 760, 490
_LEFT, _RIGHT, _TOP, _BOTTOM = 70, 70, 56, 52
_BLUE = "#1565c0"
_RED = "#c62828"
_GRAY = "#607d8b"
_ORANGE = "#ef6c00"
_GREEN = "#2e7d32"
MAX_POINTS = 4000  # scatter clouds subsample deterministically above this
_MARKER = 7.0      # half-width of the observation marker's cross
_MARGIN_BINS = 36  # bins of the scatter chart's margin histograms
_MAX = sys.float_info.max
_TINY = sys.float_info.min  # the smallest normal double


def plot(report, path, grid_points: int = GRID_POINTS) -> None:
    """Render the chart for the report's type to a standalone SVG file.

    grid_points sizes the pv and srb_crb curves; the other charts ignore it.
    Reports dispatch by exact type name, as in csvout.tabulate.
    """
    build = _BUILDERS.get(type(report).__name__)
    if build is None:
        raise TypeError(f"no chart for {type(report).__name__}")
    svg = build(report, grid_points)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(svg)


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
        return _LEFT + _fraction(v, *self.xlim) * (_W - _LEFT - _RIGHT)

    def y(self, v, axis="left"):
        lim = self.ylim if axis == "left" else self.y2lim
        return _H - _BOTTOM - _fraction(v, *lim) * (_H - _TOP - _BOTTOM)

    def add_line(self, xs, ys, color, label=None, axis="left", width=1.6):
        pts = " ".join(f"{px:.2f},{py:.2f}" for px, py in
                       zip(self.x(xs), self.y(ys, axis)))
        self.series.append(f'<polyline fill="none" stroke="{color}" '
                           f'stroke-width="{width}" points="{pts}"/>')
        if label:
            self.legend.append((label, color, "line"))

    def add_points(self, xs, ys, color, label=None):
        dots = "".join(f'<circle cx="{px:.2f}" cy="{py:.2f}" r="2.0" fill="{color}" '
                       f'fill-opacity="0.55"/>'
                       for px, py in zip(self.x(xs), self.y(ys)))
        self.series.append(dots)
        if label:
            self.legend.append((label, color, "point"))

    def add_bars(self, lefts, rights, heights, color, label=None):
        y0 = self.y(0.0)
        parts = []
        for lo, hi, h in zip(self.x(lefts), self.x(rights), self.y(heights)):
            top = min(h, y0)
            parts.append(f'<rect x="{lo:.2f}" y="{top:.2f}" width="{max(hi - lo, 0.8):.2f}" '
                         f'height="{abs(y0 - h):.2f}" fill="{color}" fill-opacity="0.7"/>')
        self.series.append("".join(parts))
        if label:
            self.legend.append((label, color, "bar"))

    def add_marker(self, x, y, color, label=None):
        px, py = float(self.x(x)), float(self.y(y))
        self.series.append(
            f'<path d="M {px - _MARKER} {py} L {px + _MARKER} {py} M {px} {py - _MARKER} '
            f'L {px} {py + _MARKER}" stroke="{color}" stroke-width="2.5" fill="none"/>'
            f'<circle cx="{px:.2f}" cy="{py:.2f}" r="{_MARKER * 0.55:.2f}" fill="none" '
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
        for limits, side, (tx1, tx2), label_x, anchor in (
                (self.ylim, "left", (x0 - 5, x0), x0 - 8, "end"),
                (self.y2lim, "right", (x1, x1 + 5), x1 + 8, "start")):
            if limits is None:
                continue
            for v in _ticks(*limits):
                py = float(self.y(v, side))
                parts.append(f'<line x1="{tx1}" y1="{py:.2f}" x2="{tx2}" y2="{py:.2f}" '
                             f'stroke="#333"/>'
                             f'<text x="{label_x}" y="{py + 4:.2f}" '
                             f'text-anchor="{anchor}">{_tick(v)}</text>')
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
    """Axis bounds 4 % of the span beyond [lo, hi], inside the floats. A range
    whose half-span is not a positive normal double, which ticks cannot divide,
    counts as empty: it first widens by half its magnitude, or by 0.5 where that
    magnitude is subnormal too. Spans are taken in exact halves, hi / 2 - lo / 2,
    here and where drawn, so one past the largest double draws."""
    lo, hi = float(lo), float(hi)
    if not math.isfinite(lo) or not math.isfinite(hi):
        lo, hi = 0.0, 1.0
    if not hi / 2 - lo / 2 >= _TINY:
        half = abs(lo) / 2 if abs(lo) >= _TINY else 0.5
        lo, hi = max(lo - half, -_MAX), min(hi + half, _MAX)
    pad = 0.08 * (hi / 2 - lo / 2)
    return max(lo - pad, -_MAX), min(hi + pad, _MAX)


def _fraction(v, lo, hi):
    return (np.asarray(v, float) / 2 - lo / 2) / (hi / 2 - lo / 2)


def _ticks(lo, hi):
    half = hi / 2 - lo / 2
    raw = half / 3  # about six ticks
    mag = 10 ** math.floor(math.log10(raw))
    step = next(s * mag for s in (1, 2, 2.5, 5, 10) if raw <= s * mag)
    first = math.ceil(lo / step) * step
    ticks = []
    v = first
    while v / 2 <= hi / 2 + 1e-12 * half:
        ticks.append(0.0 if abs(v) / 2 < 1e-12 * half else v)
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

def _build_pv(planned, grid_points):
    _, (times, values) = pv_table(planned, grid_points)
    chart = _Chart("Planned value", "time", "planned value",
                   (0.0, planned.duration), (0.0, planned.bac))
    chart.add_line(times, values, _BLUE, "PV(t)")
    return chart.render()


def _build_pdfcdf(hist, _grid_points):
    chart = _Chart("Distribution", "value", "probability mass",
                   (float(hist.edges[0]), float(hist.edges[-1])), (0.0, float(hist.pdf.max())),
                   y2label="cumulative", y2lim=(0.0, 1.0))
    chart.add_bars(hist.edges[:-1], hist.edges[1:], hist.pdf, _BLUE, "pdf")
    chart.add_line(hist.edges[1:], hist.cdf, _RED, "cdf", axis="right")
    return chart.render()


def _build_scatter(ens, _grid_points):
    d, c = _subsample(ens.total_duration, ens.total_cost)
    chart = _Chart("Simulated endpoints", "duration", "cost",
                   (float(d.min()), float(d.max())), (float(c.min()), float(c.max())))
    chart.add_points(d, c, _BLUE, "runs")
    chart.series.append(_margin_hist(chart, ens.total_duration, vertical=False))
    chart.series.append(_margin_hist(chart, ens.total_cost, vertical=True))
    return chart.render()


def _margin_hist(chart, values, vertical):
    """The histogram of values as gray bars 22 px at the tallest, in a strip
    above the plot along its x axis or, vertical, right of it along its y axis."""
    from .montecarlo import _bin_counts  # a scatter has simulated, so this runs nothing new

    counts, edges = _bin_counts(values, _MARGIN_BINS)
    top = counts.max() or 1
    parts = []
    for k in range(counts.size):
        h = 22.0 * counts[k] / top
        if vertical:
            lo, hi = float(chart.y(edges[k + 1])), float(chart.y(edges[k]))
            x, y, width, height = _W - _RIGHT + 6, f"{lo:.2f}", h, max(hi - lo, 0.5)
        else:
            lo, hi = float(chart.x(edges[k])), float(chart.x(edges[k + 1]))
            x, y, width, height = f"{lo:.2f}", f"{_TOP - 4 - h:.2f}", max(hi - lo, 0.5), h
        parts.append(f'<rect x="{x}" y="{y}" width="{width:.2f}" height="{height:.2f}" '
                     f'fill="{_GRAY}" fill-opacity="0.6"/>')
    return "".join(parts)


def _build_ci_bars(rep, _grid_points):
    n = len(rep.node_ids)
    chart = _Chart("Criticality index", "activity", "CI", (-0.5, n - 0.5), (0.0, 1.0))
    centers = np.arange(n, dtype=float)
    chart.add_bars(centers - 0.35, centers + 0.35, rep.ci, _BLUE, "CI")
    labels = "".join(
        f'<text x="{float(chart.x(k)):.2f}" y="{_H - _BOTTOM + 18}" text-anchor="middle" '
        f'font-size="10">{_esc(rep.node_ids[k])}</text>' for k in range(n))
    chart.series.append(labels)
    return chart.render()


def _build_srb_crb(base, grid_points):
    _, (times, srb, crb) = baseline_table(base, grid_points)
    chart = _Chart("Risk baselines", "time", "SRB (time units)",
                   (float(times[0]), float(times[-1])),
                   (0.0, float(srb.max())),
                   y2label="CRB (money units)", y2lim=(0.0, float(crb.max())))
    chart.add_line(times, srb, _BLUE, "SRB")
    chart.add_line(times, crb, _ORANGE, "CRB", axis="right")
    return chart.render()


def _section_chart(title, t, c, ot, oc):
    """A chart whose axes span the cross-section points (t, c) and (ot, oc)."""
    return _Chart(title, "time at control fraction", "cost",
                  (min(float(t.min()), ot), max(float(t.max()), ot)),
                  (min(float(c.min()), oc), max(float(c.max()), oc)))


def _build_triad(rep, _grid_points):
    from .montecarlo import percentiles  # a triad has simulated, so this runs nothing new

    t, c, ot, oc = rep.section_t, rep.section_c, rep.observed_t, rep.observed_ac
    chart = _section_chart("Control cross-section", t, c, ot, oc)
    chart.add_points(*_subsample(t, c), _GRAY, "simulated runs")
    med_t, med_c = float(percentiles(t, 50)), float(percentiles(c, 50))
    chart.add_line([med_t, med_t], [chart.ylim[0], chart.ylim[1]], _GREEN, "medians", width=1.0)
    chart.add_line([chart.xlim[0], chart.xlim[1]], [med_c, med_c], _GREEN, width=1.0)
    chart.add_marker(ot, oc, _RED, "observation")
    return chart.render()


def _build_sevm(fc, _grid_points):
    chart = _section_chart("Endpoint forecast neighborhood", fc.neighbor_section_t,
                           fc.neighbor_section_c, fc.observed_t, fc.observed_ac)
    t, c, late = _subsample(fc.neighbor_section_t, fc.neighbor_section_c, fc.neighbor_late)
    if (~late).any():
        chart.add_points(t[~late], c[~late], _BLUE, "finishing early")
    if late.any():
        chart.add_points(t[late], c[late], _RED, "finishing late")
    chart.add_marker(fc.observed_t, fc.observed_ac, _GREEN, "observation")
    return chart.render()


_BUILDERS = {
    "CpmResult": _build_pv,
    "HistogramTable": _build_pdfcdf,
    "Ensemble": _build_scatter,
    "SensitivityReport": _build_ci_bars,
    "RiskBaseline": _build_srb_crb,
    "TriadReport": _build_triad,
    "SevmForecast": _build_sevm,
}
