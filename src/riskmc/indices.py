"""Activity sensitivity indices and contingency reserves from an ensemble."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DegenerateProject
from .montecarlo import Ensemble, empirical_percentile


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
    """|corr(node duration, project duration)| per node; 0 for degenerate sides."""
    if ensemble.n_runs < 2:
        raise ConfigError("cruciality_index needs at least 2 runs")
    if method not in ("pearson", "spearman"):
        raise ConfigError(f"unknown correlation method {method!r}")
    totals = ensemble.total_duration
    d = ensemble.durations
    if method == "spearman":
        totals = _average_ranks(totals)
        d = np.array([_average_ranks(row) for row in d])
    tc = totals - totals.mean()
    dc = d - d.mean(axis=1, keepdims=True)
    denom = np.sqrt((dc * dc).sum(axis=1) * (tc * tc).sum())
    with np.errstate(divide="ignore", invalid="ignore"):
        r = (dc * tc).sum(axis=1) / denom
    r = np.where(denom == 0.0, 0.0, r)
    return np.clip(np.abs(r), 0.0, 1.0)


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
    return _ssi(criticality_index(ensemble), ensemble.durations.std(axis=1, ddof=1),
                float(ensemble.total_duration.std(ddof=1)))


def _ssi(ci, sigma, sigma_pd):
    if sigma_pd == 0.0:
        raise DegenerateProject("project duration has zero variance")
    return ci * sigma / sigma_pd


def sensitivity_report(ensemble: Ensemble, method: str = "pearson") -> SensitivityReport:
    if ensemble.n_runs < 2:
        raise ConfigError("sensitivity indices need at least 2 runs")
    ci = criticality_index(ensemble)
    # a row reduces like a 1-D array: one activity gets SSI 1.0 bitwise
    sigma = ensemble.durations.std(axis=1, ddof=1)
    sigma_pd = float(ensemble.total_duration.std(ddof=1))
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
