"""Seeded, reproducible ensemble simulation and empirical statistics.

Randomness layout: every (node, purpose) pair owns a Philox stream keyed
by blake2b(seed | purpose | ident | round), and run k always reads
position k of that stream. All variants sample by inverse CDF, one
uniform per draw, so results are bitwise identical for any worker count
and toggling one risk never perturbs any other draw.
"""

from __future__ import annotations

import hashlib
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

from . import cpm as _cpm
from .distributions import Distribution, inv_cdf
from .errors import ConfigError, DegenerateProject, EmptySample
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
    plan: _cpm.CpmResult        # the baseline the runs are measured against
    node_ids: tuple
    node_names: tuple
    risk_ids: tuple
    durations: np.ndarray       # (n_runs, n_nodes) sampled node durations
    starts: np.ndarray
    finishes: np.ndarray
    critical: np.ndarray        # bool, total float <= tolerance per run
    total_duration: np.ndarray  # (n_runs,)
    total_cost: np.ndarray      # (n_runs,) including cost-risk realizations
    node_cost: np.ndarray       # (n_runs, n_nodes) with cost risks on their target
    risk_active: np.ndarray     # (n_runs, n_risks) activation flags, spec order

    @property
    def n_runs(self) -> int:
        return self.durations.shape[0]

    @property
    def n_nodes(self) -> int:
        return self.durations.shape[1]

    def ev_at(self, times) -> np.ndarray:
        """Exact earned-value trajectory values at per-run times (or a scalar)."""
        return _cpm.accrue(times, self.plan.costs, self.starts, self.finishes)

    def cost_at(self, times) -> np.ndarray:
        """Exact cumulative-cost trajectory values at per-run times (or a scalar)."""
        return _cpm.accrue(times, self.node_cost, self.starts, self.finishes)


def run_ensemble(network: ValidatedNetwork, cfg: SimConfig, workers: int = 1) -> Ensemble:
    """Simulate cfg.n_runs schedules of the network.

    Bitwise deterministic in (network, cfg); the worker count only splits
    the run range into aligned chunks and never changes any value.
    """
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    nodes = network.nodes
    n, m = cfg.n_runs, len(nodes)

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
        with ThreadPoolExecutor(min(len(chunks), os.cpu_count() or 1)) as pool:
            for future in [pool.submit(fill, lo, hi) for lo, hi in chunks]:
                future.result()

    starts, finishes, late = _cpm.passes(network, durations)
    total_duration = finishes[:, network.sink].copy()
    late -= durations  # late finish -> late start -> total float, in place
    late -= starts
    critical = late <= _cpm.CRIT_TOL
    del late

    node_cost = network.fixed_costs()[None, :] + network.rates()[None, :] * durations
    for c, cr in enumerate(network.cost_risks):
        node_cost[:, cr.target] += cost_risk_val[:, c]
    # accumulate in node order, matching ev_at/cost_at and the plan's BAC,
    # so the endpoint identities cost_k(PD_k) = C_k and ev_k(PD_k) = BAC
    # hold bitwise
    total_cost = np.zeros(n)
    for j in range(m):
        total_cost += node_cost[:, j]

    arrays = dict(
        durations=durations, starts=starts, finishes=finishes, critical=critical,
        total_duration=total_duration, total_cost=total_cost, node_cost=node_cost,
        risk_active=risk_active,
    )
    for arr in arrays.values():
        arr.flags.writeable = False
    return Ensemble(
        config=cfg, plan=_cpm.plan(network), node_ids=network.ids(),
        node_names=network.names(), risk_ids=risk_ids, **arrays,
    )


def _chunks(n, workers):
    w = min(int(workers), n)
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
        counts, edges = _bin_counts(x, bins, (lo, hi))
    pdf = counts / x.size
    cdf = np.cumsum(counts) / x.size
    return HistogramTable(edges=edges, pdf=pdf, cdf=cdf)


def _bin_counts(x, bins, value_range=None):
    """np.histogram, halving the bins while their width is below the float
    spacing of the values; one bin always fits a range with lo < hi, so only
    a range np.histogram cannot bin at all is a typed error."""
    while True:
        try:
            return np.histogram(x, bins=bins, range=value_range)
        except ValueError as exc:
            if bins == 1:
                raise DegenerateProject(str(exc)) from None
            bins //= 2
