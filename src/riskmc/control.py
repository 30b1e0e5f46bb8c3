"""Stochastic monitoring: risk baselines, control indices, Triad, SEVM forecasts."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import cpm as _cpm
from .errors import (
    ConfigError,
    DegenerateProject,
    EvOutOfRange,
    EvZero,
    KTooLarge,
)
from .montecarlo import Ensemble, empirical_percentile


@dataclass(frozen=True)
class RiskBaseline:
    """Accumulated schedule/cost risk (sd units) over the planned timeline.

    SRB(t)^2 = sigma_PD^2 * sum_i w_i * fraction of planned window elapsed,
    with variance shares w_i from the run covariances; CRB analogous on the
    cost side. srb_at/crb_at evaluate the construction exactly at a scalar
    time (float out) or an array of times (array out).
    """

    node_ids: tuple
    node_names: tuple
    schedule_shares: np.ndarray
    cost_shares: np.ndarray
    sigma_duration: float
    sigma_cost: float
    plan: _cpm.CpmResult  # whose node windows the risk accrues over

    def srb_at(self, t):
        return self._at(t, self.schedule_shares, self.sigma_duration)

    def crb_at(self, t):
        return self._at(t, self.cost_shares, self.sigma_cost)

    def _at(self, t, shares, sigma):
        out = sigma * np.sqrt(_cpm.accrue(t, shares, self.plan.es, self.plan.ef))
        return float(out) if out.ndim == 0 else out


def risk_baselines(ensemble: Ensemble) -> RiskBaseline:
    """SRB/CRB over the ensemble's plan, from the runs' variance shares."""
    if ensemble.n_runs < 2:
        raise ConfigError("risk baselines need at least 2 runs")
    sigma_pd = float(ensemble.total_duration.std(ddof=1))
    sigma_c = float(ensemble.total_cost.std(ddof=1))
    if sigma_pd == 0.0 and sigma_c == 0.0:
        raise DegenerateProject("neither duration nor cost shows any variance")

    return RiskBaseline(
        node_ids=ensemble.node_ids, node_names=ensemble.node_names,
        schedule_shares=_variance_shares(ensemble.durations, ensemble.total_duration),
        cost_shares=_variance_shares(ensemble.node_cost, ensemble.total_cost),
        sigma_duration=sigma_pd, sigma_cost=sigma_c, plan=ensemble.plan)


def _variance_shares(per_node, totals):
    """Covariance of each node column with the total, clamped >= 0, normalized."""
    n = len(totals)
    tc = totals - totals.mean()
    dc = per_node - per_node.mean(axis=0)
    cov = (dc * tc[:, None]).sum(axis=0) / (n - 1)
    cov = np.maximum(cov, 0.0)  # merge-bias artifacts can push covariances negative
    total = cov.sum()
    return cov / total if total > 0.0 else np.zeros_like(cov)


@dataclass(frozen=True)
class AriReport:
    """Activity Risk Index: each node's share of project variance, in percent."""

    node_ids: tuple
    node_names: tuple
    ari: np.ndarray     # percent, node order
    ranking: tuple      # node indices, descending share


def activity_risk_index(baseline: RiskBaseline) -> AriReport:
    if baseline.schedule_shares.sum() == 0.0:
        raise DegenerateProject("no schedule variance to rank")
    ari = baseline.schedule_shares * 100.0
    ranking = tuple(int(i) for i in np.argsort(-ari, kind="stable"))
    return AriReport(node_ids=baseline.node_ids, node_names=baseline.node_names,
                     ari=ari, ranking=ranking)


@dataclass(frozen=True)
class ControlObservation:
    """Project state at a control instant: elapsed time, actual cost, earned value."""

    t: float
    ev: float
    ac: float

    def __post_init__(self):
        if not all(0.0 <= v < np.inf for v in (self.t, self.ev, self.ac)):
            raise ConfigError("observation fields t, ev, ac must all be finite and >= 0")


@dataclass(frozen=True)
class ControlIndices:
    scoi: float                 # schedule risk budget remaining (time units)
    ccoi: float                 # cost risk budget remaining (money units)
    schedule_deviation: float   # t - earned_schedule(EV); negative means ahead
    cost_deviation: float       # AC - EV
    srb: float                  # SRB at the control instant
    crb: float
    earned_time: float


def control_indices(obs: ControlObservation, baseline: RiskBaseline) -> ControlIndices:
    """SCoI/CCoI: positive means the deviation is inside the risk budget."""
    earned_time = _cpm.earned_schedule(baseline.plan, obs.ev)
    d_s = obs.t - earned_time
    d_c = obs.ac - obs.ev
    srb_t = baseline.srb_at(obs.t)
    crb_t = baseline.crb_at(obs.t)
    return ControlIndices(scoi=srb_t - d_s, ccoi=crb_t - d_c,
                          schedule_deviation=d_s, cost_deviation=d_c,
                          srb=srb_t, crb=crb_t, earned_time=earned_time)


def cross_section(ensemble: Ensemble, x: float):
    """Per run: (time, cost) when the run first reaches completion fraction x.

    T_k = inf{t : ev_k(t) >= x * BAC}, solved exactly on the piecewise-linear
    run trajectories; C_k = cost_k(T_k). x = 1 returns the endpoint scatter
    (total duration, total cost) exactly. Otherwise `cpm.first_reach`
    bisects all runs at once: O(n * m * log m) in all.
    """
    if x <= 0.0:
        raise EvZero(f"completion fraction must be positive, got {x}")
    if x > 1.0:
        raise EvOutOfRange(f"completion fraction must be <= 1, got {x}")
    if x == 1.0:
        return ensemble.total_duration.copy(), ensemble.total_cost.copy()

    times = _cpm.first_reach(x * ensemble.plan.bac, ensemble.plan.costs,
                             ensemble.starts, ensemble.finishes)
    return times, ensemble.cost_at(times)


@dataclass(frozen=True)
class TriadReport:
    """Percentile position of an observation inside the simulated cross-section."""

    completion: float
    schedule_percentile: float
    cost_percentile: float
    schedule_status: str  # ahead | on | delayed
    cost_status: str      # under | on | over


def triad(obs: ControlObservation, ensemble: Ensemble, band: float = 5.0) -> TriadReport:
    if not 0.0 <= band <= 50.0:  # also rejects nan
        raise ConfigError(f"band must be a percentile half-width in [0, 50], got {band}")
    x = completion_fraction(obs, ensemble)
    section_t, section_c = cross_section(ensemble, x)
    sp = _percentile_rank(section_t, obs.t)
    cp = _percentile_rank(section_c, obs.ac)
    return TriadReport(
        completion=x,
        schedule_percentile=sp,
        cost_percentile=cp,
        schedule_status=_status(sp, band, "ahead", "delayed"),
        cost_status=_status(cp, band, "under", "over"),
    )


def _status(percentile, band, low_label, high_label):
    if percentile < 50.0 - band:
        return low_label
    if percentile > 50.0 + band:
        return high_label
    return "on"


def _percentile_rank(samples, value):
    """Midrank empirical CDF position in [0, 100]; 50 at the sample median."""
    less = np.count_nonzero(samples < value)
    less_eq = np.count_nonzero(samples <= value)
    return 100.0 * (less + less_eq) / (2 * len(samples))


def completion_fraction(obs, ensemble) -> float:
    """EV/BAC in (0, 1]; EvZero when EV (or the budget) is zero."""
    bac = ensemble.plan.bac
    if bac <= 0.0:
        raise EvZero("project has no budget; completion fraction undefined")
    if obs.ev <= 0.0:
        raise EvZero("EV = 0: the control cross-section is undefined")
    if obs.ev > bac * (1.0 + 1e-12):
        raise EvOutOfRange(f"EV {obs.ev} exceeds BAC {bac}")
    return min(obs.ev / bac, 1.0)


@dataclass(frozen=True)
class SevmForecast:
    """Completion forecast from the k simulated runs nearest the observation."""

    completion: float
    k: int
    eac_duration: float
    eac_cost: float
    duration_interval: tuple   # ((percentile, value), ...)
    cost_interval: tuple
    p_late: float              # fraction of neighbors ending past the planned duration
    p_overrun: float
    neighbor_runs: np.ndarray  # ascending run ids
    neighbor_late: np.ndarray  # bool, aligned with neighbor_runs
    neighbor_section_t: np.ndarray
    neighbor_section_c: np.ndarray
    neighbor_duration: np.ndarray
    neighbor_cost: np.ndarray
    observed_t: float
    observed_ac: float


def default_neighbors(n_runs: int) -> int:
    return min(n_runs, max(500, round(0.05 * n_runs)))


def sevm_forecast(obs: ControlObservation, ensemble: Ensemble,
                  k_neighbors: int | None = None,
                  interval_percentiles=(5.0, 95.0),
                  estimator: str = "mean") -> SevmForecast:
    """Select neighbors on the control cross-section and forecast the endpoints.

    Distance is per-axis standardized Euclidean on (time, cost); an axis
    with zero spread drops out. Neighbors are reduced and reported in
    ascending run order, so k = n_runs reproduces the unconditional
    endpoint statistics.
    """
    if estimator not in ("mean", "linear"):
        raise ConfigError(f"unknown estimator {estimator!r}")
    x = completion_fraction(obs, ensemble)
    n = ensemble.n_runs
    k = default_neighbors(n) if k_neighbors is None else int(k_neighbors)
    if k < 1:
        raise ConfigError(f"k_neighbors must be >= 1, got {k}")
    if k > n:
        raise KTooLarge(f"k_neighbors {k} exceeds n_runs {n}")

    section_t, section_c = cross_section(ensemble, x)
    dist2 = np.zeros(n)
    for values, center in ((section_t, obs.t), (section_c, obs.ac)):
        spread = values.std(ddof=1) if n > 1 else 0.0
        if spread > 0.0:
            dist2 += ((values - center) / spread) ** 2
    order = np.argsort(dist2, kind="stable")
    chosen = np.sort(order[:k])

    pd_n = ensemble.total_duration[chosen]
    c_n = ensemble.total_cost[chosen]
    if estimator == "linear" and k >= 4:
        eac_t = _linear_predict(section_t[chosen], section_c[chosen], pd_n, obs.t, obs.ac)
        eac_c = _linear_predict(section_t[chosen], section_c[chosen], c_n, obs.t, obs.ac)
    else:
        eac_t = float(np.mean(pd_n))
        eac_c = float(np.mean(c_n))

    late = pd_n > ensemble.plan.duration
    overrun = c_n > ensemble.plan.bac
    return SevmForecast(
        completion=x, k=k, eac_duration=eac_t, eac_cost=eac_c,
        duration_interval=tuple((float(p), empirical_percentile(pd_n, p))
                                for p in interval_percentiles),
        cost_interval=tuple((float(p), empirical_percentile(c_n, p))
                            for p in interval_percentiles),
        p_late=float(late.mean()), p_overrun=float(overrun.mean()),
        neighbor_runs=chosen, neighbor_late=late,
        neighbor_section_t=section_t[chosen], neighbor_section_c=section_c[chosen],
        neighbor_duration=pd_n, neighbor_cost=c_n,
        observed_t=obs.t, observed_ac=obs.ac,
    )


def _linear_predict(t, c, y, at_t, at_c):
    design = np.column_stack([np.ones_like(t), t, c])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    return float(coef[0] + coef[1] * at_t + coef[2] * at_c)
