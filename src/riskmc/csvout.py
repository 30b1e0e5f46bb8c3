"""CSV serialization of analysis reports (RFC-4180 quoting, 9 significant digits)."""

from __future__ import annotations

import csv
import io
from typing import TYPE_CHECKING

import numpy as np

from .errors import MAX_GRID_POINTS, ConfigError, check_integer

if TYPE_CHECKING:  # reports dispatch by type name, so writing one loads no other module
    from .control import AriReport, ControlIndices, RiskBaseline, SevmForecast, TriadReport
    from .cpm import CpmResult, PathMatrix
    from .indices import SensitivityReport
    from .montecarlo import Ensemble, HistogramTable

PERCENTILE_STEPS = tuple(range(5, 100, 5))
_BLOCK = 1024      # rows formatted at a time; bounds the cells held at once


def tabulate(report):
    """(header, columns) for every exportable report type; a column is one of
    the report's numpy arrays or a sequence of str."""
    handler = _TABULATORS.get(type(report).__name__)
    if handler is None:
        raise TypeError(f"no CSV form for {type(report).__name__}")
    return handler(report)


def _sensitivity(r: SensitivityReport):
    return (("id", "name", "CI", "CrI", "SSI", "sigma_i"),
            (r.node_ids, r.node_names, r.ci, r.cri, r.ssi, r.sigma))


def _cpm_table(r: CpmResult):
    return (("id", "duration", "ES", "EF", "LS", "LF", "total_float", "critical"),
            (r.node_ids, r.durations, r.es, r.ef, r.ls, r.lf, r.total_float, r.critical))


def _paths(r: PathMatrix):
    return tuple(r.node_ids), r.membership.T


def _ari(r: AriReport):
    order = np.asarray(r.ranking, dtype=int)
    return (("rank", "id", "name", "ari_percent"),
            (np.arange(1, order.size + 1), np.take(r.node_ids, order).tolist(),
             np.take(r.node_names, order).tolist(), r.ari[order]))


def metric_table(*reports):
    """The (metric, value) table of control, Triad and forecast reports,
    joined in order: floats at 9 significant digits, ints and labels as str."""
    pairs = [pair for r in reports for pair in _METRICS[type(r).__name__](r)]
    return ("metric", "value"), ([name for name, _ in pairs],
                                 [f"{v:.9g}" if isinstance(v, float) else str(v)
                                  for _, v in pairs])


def _control(r: ControlIndices):
    return [("SCoI", r.scoi), ("CCoI", r.ccoi),
            ("schedule_deviation", r.schedule_deviation),
            ("cost_deviation", r.cost_deviation),
            ("SRB_t", r.srb), ("CRB_t", r.crb), ("earned_time", r.earned_time)]


def _triad(r: TriadReport):
    return [("completion", r.completion),
            ("schedule_percentile", r.schedule_percentile),
            ("cost_percentile", r.cost_percentile),
            ("schedule_status", r.schedule_status),
            ("cost_status", r.cost_status)]


def _forecast(r: SevmForecast):
    return [("completion", r.completion), ("k", r.k),
            ("EAC_duration", r.eac_duration), ("EAC_cost", r.eac_cost),
            ("P_late", r.p_late), ("P_overrun", r.p_overrun),
            *((f"duration_p{p:g}", v) for p, v in r.duration_interval),
            *((f"cost_p{p:g}", v) for p, v in r.cost_interval)]


def _histogram(r: HistogramTable):
    return ("bin_low", "bin_high", "pdf", "cdf"), (r.edges[:-1], r.edges[1:], r.pdf, r.cdf)


_METRICS = {"ControlIndices": _control, "TriadReport": _triad, "SevmForecast": _forecast}

_TABULATORS = {
    "SensitivityReport": _sensitivity,
    "CpmResult": _cpm_table,
    "PathMatrix": _paths,
    "AriReport": _ari,
    **dict.fromkeys(_METRICS, metric_table),
    "HistogramTable": _histogram,
}


def _grid_times(plan: CpmResult, grid_points: int) -> np.ndarray:
    """The export grid: uniform times on the plan's [0, PD]."""
    check_integer("grid_points", grid_points)
    if not 2 <= grid_points <= MAX_GRID_POINTS:
        raise ConfigError(f"grid_points must be in [2, {MAX_GRID_POINTS}], got {grid_points}")
    return np.linspace(0.0, plan.duration, grid_points)


def pv_table(plan: CpmResult, grid_points: int):
    """The plan's PV(t) on the export grid; its last row is (PD, BAC)."""
    times = _grid_times(plan, grid_points)
    return ("t", "PV"), (times, plan.value_at(times))


def baseline_table(baseline: RiskBaseline, grid_points: int):
    times = _grid_times(baseline.plan, grid_points)
    return ("t", "SRB", "CRB"), (times, baseline.srb_at(times), baseline.crb_at(times))


def percentile_table(ensemble: Ensemble):
    """The 'show simulation data' table: duration and cost percentiles."""
    from .montecarlo import percentiles  # an ensemble's module, loaded with it

    return (("percentile", "duration", "cost"),
            (np.asarray(PERCENTILE_STEPS),
             percentiles(ensemble.total_duration, PERCENTILE_STEPS),
             percentiles(ensemble.total_cost, PERCENTILE_STEPS)))


def endpoint_table(ensemble: Ensemble):
    return (("run", "duration", "cost"),
            (np.arange(ensemble.n_runs), ensemble.total_duration, ensemble.total_cost))


def neighbor_table(forecast: SevmForecast):
    return (("run", "section_t", "section_c", "duration", "cost", "label"),
            (forecast.neighbor_runs, forecast.neighbor_section_t, forecast.neighbor_section_c,
             forecast.neighbor_duration, forecast.neighbor_cost,
             np.where(forecast.neighbor_late, "late", "early").tolist()))


def _template(column) -> str:
    """A column's field in the row template: %.9g for floats, %d for ints
    and bools, %s for str cells, which _cells quotes."""
    if not isinstance(column, np.ndarray):
        return "%s"
    return "%.9g" if column.dtype.kind == "f" else "%d"


def _cells(block):
    """One column's block as template values: numbers as Python numbers, and
    each str cell as the csv module quotes it in a row of two (in a row of
    one, csv writes an empty cell as "")."""
    if isinstance(block, np.ndarray):
        return block.tolist()
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    quoted = []
    for cell in block:
        writer.writerow((cell, ""))
        quoted.append(buf.getvalue()[:-2])  # less the empty cell's "," and "\n"
        buf.seek(0)
        buf.truncate()
    return quoted


def write_csv(stream, header, columns) -> None:
    """Write header and columns to a text stream as CSV: one printf template
    per row, filled _BLOCK rows at a time, so no table is ever held as rows
    or as one string."""
    csv.writer(stream, lineterminator="\n").writerow(header)
    row = ",".join(map(_template, columns)) + "\n"
    for lo in range(0, len(columns[0]), _BLOCK):
        cells = zip(*(_cells(col[lo:lo + _BLOCK]) for col in columns))
        stream.write("".join(map(row.__mod__, cells)))


def write_table(path, header, columns) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        write_csv(fh, header, columns)
