"""Activity sensitivity indices and contingency reserves from an ensemble."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DegenerateProject
from .montecarlo import Ensemble, percentiles, row_moments, sample_sd


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
    return ensemble.critical_runs / ensemble.n_runs


def cruciality_index(ensemble: Ensemble, method: str = "pearson") -> np.ndarray:
    """|corr(node duration, project duration)| per node; 0 for degenerate sides.

    Reduced one node's row at a time by `row_moments`; Spearman's is
    Pearson's on the average ranks.
    """
    if ensemble.n_runs < 2:
        raise ConfigError("cruciality_index needs at least 2 runs")
    if method not in ("pearson", "spearman"):
        raise ConfigError(f"unknown correlation method {method!r}")
    totals, rows = ensemble.total_duration, ensemble.durations
    if method == "spearman":
        totals, rows = _average_ranks(totals), map(_average_ranks, rows)
    return _abs_r(row_moments(rows, totals)[1])


def _abs_r(r):
    return np.clip(np.abs(r), 0.0, 1.0)


def _average_ranks(x) -> np.ndarray:
    """1-based ranks with each tie group at its mean rank (scipy's 'average').

    Ranks are integers or exact halves, so they equal scipy.stats.rankdata
    bit for bit; -0.0 and 0.0 compare equal and so tie. Every member of a
    tie group gets the same rank, so the sort need not be stable.
    """
    order = np.argsort(x)
    xs = x[order]
    starts = np.flatnonzero(np.r_[True, xs[1:] != xs[:-1]])
    ends = np.r_[starts[1:], xs.size]
    ranks = np.empty(xs.size)
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    return ranks


def sensitivity_report(ensemble: Ensemble, method: str = "pearson") -> SensitivityReport:
    """CI, CrI and SSI per node. Each row's sd (SSI's sigma) comes from the
    one row_moments pass that gives its Pearson CrI; a Spearman CrI takes a
    second pass, on the ranks."""
    if ensemble.n_runs < 2:
        raise ConfigError("sensitivity indices need at least 2 runs")
    ci = criticality_index(ensemble)
    sigma, r, _ = row_moments(ensemble.durations, ensemble.total_duration)
    sigma_pd = sample_sd(ensemble.total_duration)
    cri = _abs_r(r) if method == "pearson" else cruciality_index(ensemble, method=method)
    if sigma_pd == 0.0:
        raise DegenerateProject("project duration has zero variance")
    return SensitivityReport(node_ids=ensemble.plan.node_ids,
                             node_names=ensemble.plan.node_names,
                             ci=ci, cri=cri, ssi=ci * sigma / sigma_pd, sigma=sigma)


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
    return float(percentiles(samples, [p])[0]) - planned
