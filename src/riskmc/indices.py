"""Activity sensitivity indices, CI, CrI and SSI, all from `sensitivity_report`
(CrI is 0 where a node's durations are constant), and contingency reserves."""

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
    """Per node: CI, the fraction of its critical runs; CrI, |r| of its
    durations with the project's (Pearson's, or Spearman's on the average
    ranks), 0 where its durations are constant; SSI = CI * sigma_i / sigma_PD.
    One row_moments pass gives each sigma_i and Pearson r; Spearman's takes a
    second pass, on the ranks. A project duration of zero variance is
    DegenerateProject."""
    if ensemble.n_runs < 2:
        raise ConfigError("sensitivity indices need at least 2 runs")
    if method not in ("pearson", "spearman"):
        raise ConfigError(f"unknown correlation method {method!r}")
    totals, rows = ensemble.total_duration, ensemble.durations
    sigma_pd = sample_sd(totals)
    if sigma_pd == 0.0:
        raise DegenerateProject("project duration has zero variance")
    ci = ensemble.critical_runs / ensemble.n_runs
    sigma, r, _ = row_moments(rows, totals)
    if method == "spearman":
        r = row_moments(map(_average_ranks, rows), _average_ranks(totals))[1]
    return SensitivityReport(node_ids=ensemble.plan.node_ids,
                             node_names=ensemble.plan.node_names, ci=ci,
                             cri=np.clip(np.abs(r), 0.0, 1.0), ssi=ci * sigma / sigma_pd,
                             sigma=sigma)


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
    return float(percentiles(samples, p)) - planned
