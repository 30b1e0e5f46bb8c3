"""Seeded, reproducible ensemble simulation and empirical statistics.

Randomness layout: every (node, purpose) pair owns a Philox stream keyed
by blake2b(seed | purpose | ident | round), and run k always reads
position k of that stream. All variants sample by inverse CDF, one
uniform per draw, so results are bitwise identical for any worker count
and toggling one risk never perturbs any other draw.
"""

from __future__ import annotations

import hashlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

from . import cpm as _cpm
from .distributions import Distribution, inv_cdf
from .errors import ConfigError, EmptySample
from .network import ValidatedNetwork

_DURATION = "dur"
_GATE = "gate"
_IMPACT = "impact"


def _uniform_block(seed, purpose, ident, round_no, start, count):
    """Uniforms at stream positions [start, start+count); start is 4-aligned."""
    msg = f"{seed}|{purpose}|{ident}|{round_no}".encode()
    key = int.from_bytes(hashlib.blake2b(msg, digest_size=16).digest(), "little")
    bit_gen = Philox(key=key)
    bit_gen.advance(start // 4)  # Philox emits 4 doubles per counter tick
    return Generator(bit_gen).random(count)


def sample_block(dist: Distribution, seed, ident, start, count, purpose=_DURATION):
    """Nonnegative draws for runs [start, start+count), chunking-independent.

    Truncation rounds for normal laws redraw rejected positions from a
    fresh round-numbered stream, so a run's value never depends on which
    chunk it was computed in.
    """
    x = inv_cdf(dist, _uniform_block(seed, purpose, ident, 0, start, count))
    round_no = 1
    while True:
        bad = x < 0.0
        if not bad.any():
            return x
        u = _uniform_block(seed, purpose, ident, round_no, start, count)
        x = np.where(bad, inv_cdf(dist, u), x)
        round_no += 1


@dataclass(frozen=True)
class SimConfig:
    n_runs: int = 20_000
    seed: int = 0

    def __post_init__(self):
        if self.n_runs < 1:
            raise ConfigError(f"n_runs must be >= 1, got {self.n_runs}")


@dataclass(frozen=True)
class Ensemble:
    """Immutable record of one simulation campaign.

    Run-level arrays are indexed (run, node). Trajectories are not stored:
    ev_at/cost_at evaluate each run's exact piecewise-linear earned-value
    and cumulative-cost trajectories at arbitrary times.
    """

    config: SimConfig
    node_ids: tuple
    node_names: tuple
    node_is_risk: np.ndarray
    risk_ids: tuple
    durations: np.ndarray       # (n_runs, n_nodes) sampled node durations
    starts: np.ndarray
    finishes: np.ndarray
    critical: np.ndarray        # bool, total float <= tolerance per run
    total_duration: np.ndarray  # (n_runs,)
    total_cost: np.ndarray      # (n_runs,) including cost-risk realizations
    node_cost: np.ndarray       # (n_runs, n_nodes) with cost risks on their target
    risk_active: np.ndarray     # (n_runs, n_risks) activation flags, spec order
    planned_value: np.ndarray   # (n_nodes,) fixed + rate * mean duration
    planned_start: np.ndarray
    planned_finish: np.ndarray
    planned_duration: float
    bac: float

    @property
    def n_runs(self) -> int:
        return self.durations.shape[0]

    @property
    def n_nodes(self) -> int:
        return self.durations.shape[1]

    def ev_at(self, times) -> np.ndarray:
        """Exact earned-value trajectory values at per-run times (or a scalar)."""
        return self._eval(times, self.planned_value)

    def cost_at(self, times) -> np.ndarray:
        """Exact cumulative-cost trajectory values at per-run times (or a scalar)."""
        return self._eval(times, self.node_cost)

    def _eval(self, times, weights):
        t = np.asarray(times, dtype=float)
        if t.ndim == 0:
            t = np.full(self.n_runs, float(t))
        total = np.zeros(self.n_runs)
        for j in range(self.n_nodes):  # weights: (n_nodes,) or (n_runs, n_nodes)
            frac = _cpm.window_fraction(t, self.starts[:, j], self.finishes[:, j])
            total += weights[..., j] * frac
        return total


def run_ensemble(network: ValidatedNetwork, cfg: SimConfig, workers: int = 1) -> Ensemble:
    """Simulate cfg.n_runs schedules of the network.

    Bitwise deterministic in (network, cfg); the worker count only splits
    the run range into aligned chunks and never changes any value.
    """
    nodes = network.nodes
    n, m = cfg.n_runs, len(nodes)
    plan = _cpm.plan(network)
    planned_value = network.fixed_costs() + network.rates() * plan.durations

    risk_ids = tuple(r.id for r in network.spec.risks)
    risk_col = {rid: c for c, rid in enumerate(risk_ids)}
    cost_risk_cols = {cr.id: risk_col[cr.id] for cr in network.cost_risks}

    durations = np.empty((n, m))
    risk_active = np.zeros((n, len(risk_ids)), dtype=bool)
    cost_risk_val = np.zeros((n, len(network.cost_risks)))

    def fill(lo, hi):
        cnt = hi - lo
        for node in nodes:
            j = node.index
            if node.gate is None:
                durations[lo:hi, j] = sample_block(node.base, cfg.seed, node.id, lo, cnt)
            else:
                gate = _uniform_block(cfg.seed, _GATE, node.id, 0, lo, cnt) < node.gate
                impact = sample_block(node.base, cfg.seed, node.id, lo, cnt, purpose=_IMPACT)
                durations[lo:hi, j] = np.where(gate, impact, 0.0)
                risk_active[lo:hi, risk_col[node.id]] = gate
        for c, cr in enumerate(network.cost_risks):
            gate = _uniform_block(cfg.seed, _GATE, cr.id, 0, lo, cnt) < cr.probability
            impact = sample_block(cr.impact, cfg.seed, cr.id, lo, cnt, purpose=_IMPACT)
            cost_risk_val[lo:hi, c] = np.where(gate, impact, 0.0)
            risk_active[lo:hi, cost_risk_cols[cr.id]] = gate

    chunks = _chunks(n, workers)
    if len(chunks) == 1:
        fill(*chunks[0])
    else:
        with ThreadPoolExecutor(max_workers=len(chunks)) as pool:
            for future in [pool.submit(fill, lo, hi) for lo, hi in chunks]:
                future.result()

    starts = np.zeros((n, m))
    finishes = np.empty((n, m))
    for node in nodes:
        j = node.index
        if node.preds:
            acc = finishes[:, node.preds[0]].copy()
            for p in node.preds[1:]:
                np.maximum(acc, finishes[:, p], out=acc)
            starts[:, j] = acc
        finishes[:, j] = starts[:, j] + durations[:, j]

    total_duration = finishes[:, network.sink].copy()
    late_start = np.empty((n, m))
    for node in reversed(nodes):
        j = node.index
        if node.succs:
            acc = late_start[:, node.succs[0]].copy()
            for s in node.succs[1:]:
                np.minimum(acc, late_start[:, s], out=acc)
            late_finish = acc
        else:
            late_finish = total_duration
        late_start[:, j] = late_finish - durations[:, j]
    critical = (late_start - starts) <= _cpm.CRIT_TOL

    node_cost = network.fixed_costs()[None, :] + network.rates()[None, :] * durations
    for c, cr in enumerate(network.cost_risks):
        node_cost[:, cr.target] += cost_risk_val[:, c]
    # accumulate in node order, matching ev_at/cost_at, so the endpoint
    # identities cost_k(PD_k) = C_k and ev_k(PD_k) = BAC hold bitwise
    total_cost = np.zeros(n)
    for j in range(m):
        total_cost += node_cost[:, j]
    bac = 0.0
    for j in range(m):
        bac += float(planned_value[j])

    arrays = dict(
        durations=durations, starts=starts, finishes=finishes, critical=critical,
        total_duration=total_duration, total_cost=total_cost, node_cost=node_cost,
        risk_active=risk_active, planned_value=planned_value,
        planned_start=plan.es.copy(), planned_finish=plan.ef.copy(),
        node_is_risk=np.array([node.is_risk for node in nodes]),
    )
    for arr in arrays.values():
        arr.flags.writeable = False
    return Ensemble(
        config=cfg, node_ids=network.ids(), node_names=network.names(),
        risk_ids=risk_ids, planned_duration=plan.duration, bac=bac, **arrays,
    )


def _chunks(n, workers):
    w = max(1, min(int(workers), n))
    size = -(-n // w)
    size = ((size + 3) // 4) * 4  # chunk starts must be 4-aligned for Philox
    return [(lo, min(lo + size, n)) for lo in range(0, n, size)]


def empirical_percentile(samples, p) -> float:
    """Linear-interpolation quantile: rank p/100 * (n-1) between order stats."""
    x = np.asarray(samples, dtype=float)
    if x.size == 0:
        raise EmptySample("empirical_percentile needs at least one sample")
    if not 0.0 <= p <= 100.0:
        raise ConfigError(f"percentile must be in [0, 100], got {p}")
    return float(np.percentile(x, p))


@dataclass(frozen=True)
class HistogramTable:
    """Equal-width histogram with bin masses (pdf) and cumulative masses (cdf)."""

    edges: np.ndarray  # (bins + 1,)
    pdf: np.ndarray    # (bins,) masses summing to 1
    cdf: np.ndarray    # (bins,) cumulative, last entry exactly 1

    @property
    def centers(self) -> np.ndarray:
        return 0.5 * (self.edges[:-1] + self.edges[1:])


def histogram_and_cdf(samples, bins: int = 40) -> HistogramTable:
    x = np.asarray(samples, dtype=float)
    if x.size == 0:
        raise EmptySample("histogram_and_cdf needs at least one sample")
    if bins < 1:
        raise ConfigError(f"bins must be >= 1, got {bins}")
    lo, hi = float(x.min()), float(x.max())
    if lo == hi:
        counts = np.array([x.size])
        edges = np.array([lo, hi])
    else:
        counts, edges = np.histogram(x, bins=bins, range=(lo, hi))
    pdf = counts / x.size
    cdf = np.cumsum(counts) / x.size
    return HistogramTable(edges=edges, pdf=pdf, cdf=cdf)
