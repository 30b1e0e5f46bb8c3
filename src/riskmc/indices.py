"""Activity sensitivity indices, CI, CrI and SSI, all from `sensitivity_report`
(CrI is 0 where a node's durations are constant), and contingency reserves."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DegenerateProject
from .montecarlo import Ensemble, moments_against, percentiles, sample_sd


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
    Each node's sigma_i and Pearson r come from `moments_against` the project
    durations, and Spearman's r from it on the ranks. A project duration of
    zero variance is DegenerateProject."""
    if ensemble.n_runs < 2:
        raise ConfigError("sensitivity indices need at least 2 runs")
    if method not in ("pearson", "spearman"):
        raise ConfigError(f"unknown correlation method {method!r}")
    totals = ensemble.total_duration
    sigma_pd = sample_sd(totals)
    if sigma_pd == 0.0:
        raise DegenerateProject("project duration has zero variance")
    ci = ensemble.critical_runs / ensemble.n_runs
    by_value = moments_against(totals)
    by_rank = moments_against(_average_ranks(totals)) if method == "spearman" else None

    def sd_and_r(row):
        sd, r, _ = by_value(row)
        return sd, r if by_rank is None else by_rank(_average_ranks(row))[1]

    # each node's durations are re-drawn once and feed both reductions; map
    # lets go of a node's row before the next node's is drawn
    sigma, r = np.array(list(map(sd_and_r, ensemble.duration_rows()))).T.copy()
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
