"""CSV serialization of analysis reports (RFC-4180 quoting, 9 significant digits)."""

from __future__ import annotations

import csv
import io

import numpy as np

from .control import AriReport, ControlIndices, RiskBaseline, SevmForecast, TriadReport
from .cpm import CpmResult, PathMatrix
from .errors import ConfigError
from .indices import SensitivityReport
from .montecarlo import Ensemble, HistogramTable

PERCENTILE_STEPS = tuple(range(5, 100, 5))
GRID_POINTS = 101  # default samples of the planned timeline [0, PD] at export


def fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.9g}"
    return str(value)


def rows_to_csv(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([fmt(v) for v in row])
    return buf.getvalue()


def tabulate(report):
    """(header, rows) for every exportable report type."""
    for kind, handler in _TABULATORS:
        if isinstance(report, kind):
            return handler(report)
    raise TypeError(f"no CSV form for {type(report).__name__}")


def _sensitivity(r: SensitivityReport):
    rows = [(i, n, r.ci[k], r.cri[k], r.ssi[k], r.sigma[k])
            for k, (i, n) in enumerate(zip(r.node_ids, r.node_names))]
    return ("id", "name", "CI", "CrI", "SSI", "sigma_i"), rows


def _cpm_table(r: CpmResult):
    rows = [(i, r.durations[k], r.es[k], r.ef[k], r.ls[k], r.lf[k],
             r.total_float[k], bool(r.critical[k]))
            for k, i in enumerate(r.node_ids)]
    return ("id", "duration", "ES", "EF", "LS", "LF", "total_float", "critical"), rows


def _paths(r: PathMatrix):
    rows = [[("0", "1")[v] for v in row] for row in r.membership.tolist()]
    return tuple(r.node_ids), rows


def _ari(r: AriReport):
    rows = [(rank + 1, r.node_ids[i], r.node_names[i], r.ari[i])
            for rank, i in enumerate(r.ranking)]
    return ("rank", "id", "name", "ari_percent"), rows


def _control(r: ControlIndices):
    rows = [("SCoI", r.scoi), ("CCoI", r.ccoi),
            ("schedule_deviation", r.schedule_deviation),
            ("cost_deviation", r.cost_deviation),
            ("SRB_t", r.srb), ("CRB_t", r.crb), ("earned_time", r.earned_time)]
    return ("metric", "value"), rows


def _triad(r: TriadReport):
    rows = [("completion", r.completion),
            ("schedule_percentile", r.schedule_percentile),
            ("cost_percentile", r.cost_percentile),
            ("schedule_status", r.schedule_status),
            ("cost_status", r.cost_status)]
    return ("metric", "value"), rows


def _forecast(r: SevmForecast):
    rows = [("completion", r.completion), ("k", r.k),
            ("EAC_duration", r.eac_duration), ("EAC_cost", r.eac_cost),
            ("P_late", r.p_late), ("P_overrun", r.p_overrun)]
    rows += [(f"duration_p{p:g}", v) for p, v in r.duration_interval]
    rows += [(f"cost_p{p:g}", v) for p, v in r.cost_interval]
    return ("metric", "value"), rows


def _histogram(r: HistogramTable):
    rows = [(r.edges[k], r.edges[k + 1], r.pdf[k], r.cdf[k]) for k in range(len(r.pdf))]
    return ("bin_low", "bin_high", "pdf", "cdf"), rows


_TABULATORS = (
    (SensitivityReport, _sensitivity),
    (CpmResult, _cpm_table),
    (PathMatrix, _paths),
    (AriReport, _ari),
    (ControlIndices, _control),
    (TriadReport, _triad),
    (SevmForecast, _forecast),
    (HistogramTable, _histogram),
)


def _grid_times(plan: CpmResult, grid_points: int) -> np.ndarray:
    """The export grid: uniform times on the plan's [0, PD]."""
    if grid_points < 2:
        raise ConfigError(f"grid_points must be >= 2, got {grid_points}")
    return np.linspace(0.0, plan.duration, grid_points)


def pv_table(plan: CpmResult, grid_points: int):
    """The plan's PV(t) on the export grid; its last row is (PD, BAC)."""
    times = _grid_times(plan, grid_points)
    return ("t", "PV"), list(zip(times, plan.value_at(times)))


def baseline_table(baseline: RiskBaseline, grid_points: int):
    times = _grid_times(baseline.plan, grid_points)
    return ("t", "SRB", "CRB"), list(zip(times, baseline.srb_at(times),
                                         baseline.crb_at(times)))


def percentile_table(ensemble: Ensemble, steps=PERCENTILE_STEPS):
    """The 'show simulation data' table: duration and cost percentiles."""
    duration = np.percentile(ensemble.total_duration, steps).tolist()
    cost = np.percentile(ensemble.total_cost, steps).tolist()
    return ("percentile", "duration", "cost"), list(zip(steps, duration, cost))


def endpoint_table(ensemble: Ensemble):
    rows = [(k, ensemble.total_duration[k], ensemble.total_cost[k])
            for k in range(ensemble.n_runs)]
    return ("run", "duration", "cost"), rows


def neighbor_table(forecast: SevmForecast):
    rows = [(int(forecast.neighbor_runs[k]),
             forecast.neighbor_section_t[k], forecast.neighbor_section_c[k],
             forecast.neighbor_duration[k], forecast.neighbor_cost[k],
             "late" if forecast.neighbor_late[k] else "early")
            for k in range(len(forecast.neighbor_runs))]
    return ("run", "section_t", "section_c", "duration", "cost", "label"), rows


def write_table(path, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(rows_to_csv(header, rows))
