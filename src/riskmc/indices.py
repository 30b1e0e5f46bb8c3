"""Activity sensitivity indices and contingency reserves from an ensemble."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DegenerateProject
from .montecarlo import Ensemble, empirical_percentile, sample_sd, unit_scaled


@dataclass(frozen=True)
class SensitivityReport:
    """Per-node CI / CrI / SSI with the duration standard deviations behind SSI."""

    node_ids: tuple
    node_names: tuple
    ci: np.ndarray
    cri: np.ndarray
    ssi: np.ndarray
    sigma: np.ndarray  # per-node duration sd


def criticality_index(ensemble: Ensemble) -> np.ndarray:
    """Fraction of runs in which each node sits on a critical path."""
    return ensemble.critical.mean(axis=1)


def cruciality_index(ensemble: Ensemble, method: str = "pearson") -> np.ndarray:
    """|corr(node duration, project duration)| per node; 0 for degenerate sides.

    Reduced one node's row at a time; where a row's or the totals' sums pass
    the largest double, both sides are scaled below 1 by a power of two,
    which leaves a correlation as it is.
    """
    if ensemble.n_runs < 2:
        raise ConfigError("cruciality_index needs at least 2 runs")
    if method not in ("pearson", "spearman"):
        raise ConfigError(f"unknown correlation method {method!r}")
    totals = ensemble.total_duration
    rows = ensemble.durations
    if method == "spearman":
        totals = _average_ranks(totals)
        rows = map(_average_ranks, rows)
    r = []
    with np.errstate(over="ignore", invalid="ignore"):
        plain, unit = _centered(totals), None
        for row in rows:
            rj = _correlation(row, *plain)
            if not math.isfinite(rj):
                if unit is None:
                    unit = _centered(unit_scaled(totals)[0])
                rj = _correlation(unit_scaled(row)[0], *unit)
            r.append(rj)
    return np.clip(np.abs(np.array(r)), 0.0, 1.0)


def _centered(totals):
    """(totals - mean, sum of squares of that): one side of a correlation."""
    tc = totals - totals.mean()
    return tc, (tc * tc).sum()


def _correlation(row, tc, stt):
    """Pearson r of a row with centered totals tc of sum of squares stt; 0 for
    a degenerate side, nan where a sum or their product leaves the floats."""
    dc = row - row.mean()
    denom = np.sqrt((dc * dc).sum() * stt)
    if denom == 0.0:
        return 0.0
    return (dc * tc).sum() / denom if math.isfinite(denom) else math.nan


def _average_ranks(x) -> np.ndarray:
    """1-based ranks with each tie group at its mean rank (scipy's 'average').

    Ranks are integers or exact halves, so they equal scipy.stats.rankdata
    bit for bit; -0.0 and 0.0 compare equal and so tie.
    """
    order = np.argsort(x, kind="stable")
    xs = x[order]
    starts = np.flatnonzero(np.r_[True, xs[1:] != xs[:-1]])
    ends = np.r_[starts[1:], xs.size]
    ranks = np.empty(xs.size)
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    return ranks


def schedule_sensitivity_index(ensemble: Ensemble) -> np.ndarray:
    """CI scaled by the sd ratio of node duration to project duration."""
    if ensemble.n_runs < 2:
        raise ConfigError("schedule_sensitivity_index needs at least 2 runs")
    return _ssi(criticality_index(ensemble), _row_sds(ensemble.durations),
                sample_sd(ensemble.total_duration))


def _row_sds(rows):
    """Sample sd of each row, one row at a time: a row reduces like a 1-D
    array, so one activity gets SSI 1.0 bitwise."""
    return np.array([sample_sd(row) for row in rows])


def _ssi(ci, sigma, sigma_pd):
    if sigma_pd == 0.0:
        raise DegenerateProject("project duration has zero variance")
    return ci * sigma / sigma_pd


def sensitivity_report(ensemble: Ensemble, method: str = "pearson") -> SensitivityReport:
    if ensemble.n_runs < 2:
        raise ConfigError("sensitivity indices need at least 2 runs")
    ci = criticality_index(ensemble)
    sigma = _row_sds(ensemble.durations)
    sigma_pd = sample_sd(ensemble.total_duration)
    cri = cruciality_index(ensemble, method=method)
    return SensitivityReport(node_ids=ensemble.plan.node_ids,
                             node_names=ensemble.plan.node_names,
                             ci=ci, cri=cri, ssi=_ssi(ci, sigma, sigma_pd), sigma=sigma)


def contingency_reserve(ensemble: Ensemble, p: float, dimension: str = "cost") -> float:
    """Percentile of the simulated outcome minus the planned baseline value.

    Negative for percentiles that fall below the plan.
    """
    if dimension == "cost":
        samples, planned = ensemble.total_cost, ensemble.plan.bac
    elif dimension == "duration":
        samples, planned = ensemble.total_duration, ensemble.plan.duration
    else:
        raise ConfigError(f"dimension must be 'cost' or 'duration', got {dimension!r}")
    return empirical_percentile(samples, p) - planned
