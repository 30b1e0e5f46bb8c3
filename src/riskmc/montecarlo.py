"""Seeded, reproducible ensemble simulation and empirical statistics.

Randomness layout: every (node, purpose) pair owns a Philox stream keyed
by blake2b(seed | purpose | ident | 0), and run k always reads position k
of that stream. All variants sample by inverse CDF, one uniform per draw
(a normal law through the inverse CDF of its truncation at zero), so
results are bitwise identical for any worker count and toggling one risk
never perturbs any other draw.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

from . import cpm as _cpm
from .distributions import Distribution, inv_cdf
from .errors import (MAX_BINS, ConfigError, DegenerateProject, EmptySample, check_integer,
                     check_memory)
from .network import ValidatedNetwork

_DURATION = "dur"
_GATE = "gate"
_IMPACT = "impact"

# peak bytes that a simulating command allocates, per run and node and per
# run, on top of its cost risks' draws (8 B per run and risk). run_ensemble,
# the ensemble (8 B) plus one (nodes x chunk) CPM buffer per thread, sets the
# peak of every command: it measured <= 20.2 B per run and node (tracemalloc:
# 6 to 403 nodes, 300 to 32769 runs, 1 and 3 workers; <= 16.3 from 42 nodes
# up). The analyses after it hold no per-run-and-node array: the control
# cross-section works on blocks of runs (Ensemble.blocks) and the node costs
# are formed a row or a block at a time. The per-run part covers the analyses'
# per-run vectors and the fixed objects that weigh at a few hundred runs:
# <= 107 B beyond 22 B per run and node (tracemalloc: control and forecast
# at 300, 1000 and 8193 runs, 3 to 403 nodes); 160 keeps 3 % of the bound
# spare where it is tightest, 300 runs of 3 nodes and 200 cost risks
_PEAK_PER_RUN_NODE = 22
_PEAK_PER_RUN = 160

_CHUNK = 8192  # runs per task; a multiple of 4, so chunks start on a Philox block


def _uniform_block(seed, purpose, ident, start, count):
    """Uniforms at stream positions [start, start+count); start is 4-aligned."""
    # the constant last field keeps every key, so every draw, as it was when
    # that field numbered a normal law's redraw rounds
    msg = f"{seed}|{purpose}|{ident}|0".encode()
    key = int.from_bytes(hashlib.blake2b(msg, digest_size=16).digest(), "little")
    bit_gen = Philox(key=key)
    bit_gen.advance(start // 4)  # Philox emits 4 doubles per counter tick
    return Generator(bit_gen).random(count)


def sample_block(dist: Distribution, seed, ident, start, count, purpose=_DURATION):
    """Nonnegative draws for runs [start, start+count), chunking-independent:
    run k reads position k of the (ident, purpose) stream."""
    return inv_cdf(dist, _uniform_block(seed, purpose, ident, start, count))


@dataclass(frozen=True)
class Ensemble:
    """Immutable record of one simulation campaign.

    Its fields are what was sampled and what each run's schedule decided;
    per-node arrays are indexed (node, run), so each node's runs are one
    contiguous row, the totals are (n_runs,), and critical_runs counts each
    node's critical runs. Nothing else is stored: `blocks` derives each
    block's starts and finishes by a forward pass, bitwise as run_ensemble
    formed them, and its node costs; cost_rows forms the node costs a row at
    a time; run k's critical flags are cpm.forward_backward(network,
    durations[:, k]).critical. ev_at/cost_at evaluate each run's exact
    earned-value and cumulative-cost trajectories, a block of runs at a time.
    """

    plan: _cpm.CpmResult        # the baseline, and the node ids and names
    network: ValidatedNetwork   # whose nodes and cost risks were sampled
    durations: np.ndarray       # (n_nodes, n_runs) sampled node durations
    impacts: np.ndarray         # (n_cost_risks, n_runs) cost-risk draws, 0 where inactive
    critical_runs: np.ndarray   # (n_nodes,) runs whose total float is within tolerance
    total_duration: np.ndarray  # (n_runs,)
    total_cost: np.ndarray      # (n_runs,) including cost-risk realizations

    @property
    def n_runs(self) -> int:
        return self.durations.shape[1]

    def cost_rows(self):
        """Node j's costs per run, cost risks on their target, one row at a
        time in node order, each formed as it is read."""
        return _cost_rows(self.network, self.durations, self.impacts)

    def blocks(self):
        """(runs, start, finish, node_costs) for each block of runs in turn:
        a slice of the runs, their early starts from a forward pass on the
        block's own durations, their finishes start + durations, and their
        node costs as cost_rows forms them. These are the only per-run
        windows: every accrual over the runs reads them here.

        A run's values depend on its own column alone, so any blocking gives
        the whole ensemble's values bit for bit. A block holds at most
        cpm._BLOCK_CELLS windows and a sixteenth of the runs (at least 2),
        so what a block forms stays small beside the ensemble.
        """
        m, n = self.durations.shape
        size = max(2, min(n // 16, _cpm._BLOCK_CELLS // m))
        rates, fixed = self.network.rates()[:, None], self.network.fixed_costs()[:, None]
        for lo in range(0, n, size):
            runs = slice(lo, lo + size)
            d = self.durations[:, runs]
            start = np.empty(d.shape)
            _cpm.forward(self.network, d, start)
            node_costs = rates * d
            node_costs += fixed
            for i, cr in enumerate(self.network.cost_risks):
                node_costs[cr.target] += self.impacts[i, runs]
            yield runs, start, start + d, node_costs

    def ev_at(self, times) -> np.ndarray:
        """Exact earned-value trajectory values at per-run times (or a scalar)."""
        return self._accrue(times, costs=False)

    def cost_at(self, times) -> np.ndarray:
        """Exact cumulative-cost trajectory values at per-run times (or a scalar)."""
        return self._accrue(times, costs=True)

    def _accrue(self, times, costs):
        times = np.asarray(times, dtype=float)
        if times.shape not in ((), (self.n_runs,)):
            raise ConfigError(f"need one time or one per run, got shape {times.shape}")
        if np.isnan(times).any():
            raise ConfigError("trajectory times must not be nan")
        times = np.broadcast_to(times, (self.n_runs,))
        out = np.empty(self.n_runs)
        for runs, start, finish, node_costs in self.blocks():
            weights = node_costs if costs else self.plan.costs
            out[runs] = _cpm.accrue_runs(times[runs], weights, start, finish)
        return out


def _cost_rows(network: ValidatedNetwork, d, impacts):
    """Node j's costs per run, one row at a time in node order: rates[j] * d[j]
    + fixed[j], plus the impacts of the cost risks on j in cost_risks order."""
    on = {}
    for i, cr in enumerate(network.cost_risks):
        on.setdefault(cr.target, []).append(i)
    for j, (rate, fixed) in enumerate(zip(network.rates(), network.fixed_costs())):
        row = rate * d[j]
        row += fixed
        for i in on.get(j, ()):
            row += impacts[i]
        yield row


def run_ensemble(network: ValidatedNetwork, n_runs: int, seed: int,
                 workers: int = 1) -> Ensemble:
    """Simulate n_runs schedules of the network from `seed`.

    Each chunk of _CHUNK runs is simulated end to end, up to `workers` chunks
    at once; bitwise deterministic in (network, n_runs, seed), whatever the
    workers. A plan or run whose duration or cost leaves the floats is
    DegenerateProject. n_runs, seed and workers must be integers (ConfigError).
    """
    n_runs, seed = check_integer("n_runs", n_runs, 1), check_integer("seed", seed)
    workers = check_integer("workers", workers, 1)
    nodes = network.nodes
    n, m = n_runs, len(nodes)
    per_run = _PEAK_PER_RUN_NODE * m + 8 * len(network.cost_risks) + _PEAK_PER_RUN
    check_memory(ConfigError, n, "runs", m, per_run, need="need about")

    durations, impacts = np.empty((m, n)), np.empty((len(network.cost_risks), n))
    chunks = range(0, n, _CHUNK)
    counts = np.empty((len(chunks), m), dtype=np.int64)  # critical runs, a row per chunk
    total_duration, total_cost = np.empty(n), np.zeros(n)
    plan = _cpm.plan(network)

    def simulate(lo):
        hi = min(lo + _CHUNK, n)
        d, imp = durations[:, lo:hi], impacts[:, lo:hi]
        for node in nodes:
            d[node.index] = _draw(node.base, node.gate, seed, node.id, lo, hi)
        for i, cr in enumerate(network.cost_risks):
            imp[i] = _draw(cr.impact, cr.probability, seed, cr.id, lo, hi)

        cost_sum = total_cost[lo:hi]
        buf = np.empty(d.shape)  # early starts, then late finishes
        with np.errstate(over="ignore", invalid="ignore"):  # refused below
            # accumulate in node order, matching ev_at/cost_at and the plan's BAC,
            # so the endpoint identities cost_k(PD_k) = C_k and ev_k(PD_k) = BAC
            # hold bitwise
            for row in _cost_rows(network, d, imp):
                cost_sum += row
            _cpm.forward(network, d, buf)
            _cpm.backward(network, d, buf, counts[lo // _CHUNK])
            total_duration[lo:hi] = buf[network.sink]
        # every node reaches the sink, so a duration or finish past the float
        # range reaches the project's; a node cost past it reaches the total
        if not (np.isfinite(total_duration[lo:hi]).all() and np.isfinite(cost_sum).all()):
            raise DegenerateProject("a run's duration or cost exceeds the float range")

    threads = min(workers, len(chunks), os.cpu_count() or 1)
    if threads == 1:
        # no pool: a pool thread would draw the chunk's temporaries from a
        # malloc arena of its own, which the main thread never reuses
        for lo in chunks:
            simulate(lo)
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(threads) as pool:
            list(pool.map(simulate, chunks))  # re-raises the first chunk's error

    arrays = dict(durations=durations, impacts=impacts, critical_runs=counts.sum(axis=0),
                  total_duration=total_duration, total_cost=total_cost)
    for arr in arrays.values():
        arr.flags.writeable = False
    return Ensemble(plan=plan, network=network, **arrays)


def _draw(law, gate, seed, ident, lo, hi):
    """Draws of `law` for runs [lo, hi); with a gate, the impact where the run's
    gate uniform falls below it and 0 elsewhere. Duration-risk nodes and cost
    risks share this code, so a risk id owns one gate stream whatever its kind."""
    if gate is None:
        return sample_block(law, seed, ident, lo, hi - lo)
    active = _uniform_block(seed, _GATE, ident, lo, hi - lo) < gate
    return np.where(active, sample_block(law, seed, ident, lo, hi - lo, purpose=_IMPACT), 0.0)


def percentiles(samples, ps) -> np.ndarray:
    """The samples' percentiles at each p in ps, in the shape of ps: Hyndman
    and Fan's type 7, linear interpolation between the order statistics
    around rank p/100 * (n - 1), nan if any sample is nan. Refuses an empty
    sample (EmptySample) and any p outside [0, 100] or nan (ConfigError).

    This is np.percentile's default, bit for bit: the same index and weight
    arithmetic, the same partition, and numpy's interpolation, which steps back
    from the upper order statistic where the weight is at least 1/2. It does
    not call np.percentile, whose np.unique loads numpy.ma.
    """
    x = np.array(samples, dtype=float).ravel()  # a copy, partitioned in place
    n = x.size
    if n == 0:
        raise EmptySample("percentiles needs at least one sample")
    shape = np.shape(ps)
    ps = np.asarray(ps, dtype=float).ravel()
    bad = ps[~((ps >= 0.0) & (ps <= 100.0))]  # nan fails both comparisons
    if bad.size:
        raise ConfigError(f"percentile must be in [0, 100], got {float(bad[0])}")
    rank = (n - 1) * (ps / 100)
    # past the last order statistic both neighbours are the last one, and
    # the weight is taken from index -1, as numpy takes it
    lower = np.floor(rank).astype(np.intp)
    lower[rank >= n - 1] = -1
    upper = np.where(lower == -1, -1, lower + 1)
    # numpy's partition points, 0 and n - 1 among them: which of several equal
    # values (0.0 and -0.0) lands at an order statistic depends on them
    x.partition(sorted({0, n - 1, *(lower % n).tolist(), *(upper % n).tolist()}))
    if np.isnan(x[-1]):  # nan sorts last
        return np.full(shape, np.nan)
    a, b, t = x[lower], x[upper], rank - lower
    diff = b - a
    out = a + diff * t
    np.subtract(b, diff * (1 - t), out=out, where=t >= 0.5)
    return out.reshape(shape)


def unit_scaled(samples):
    """(samples * 2**-shift, shift) for the shift that brings the largest
    magnitude into [1/2, 1); exact where no value falls below the normal floats."""
    shift = math.frexp(float(np.abs(samples).max()))[1]
    return np.ldexp(samples, -shift), shift


def scaled(stat, samples) -> float:
    """stat(samples) for a stat that scales with the samples, such as a mean
    or an sd: stat of the samples scaled below 1 by a power of two, scaled
    back. That is the plain stat bit for bit wherever its sums stay finite,
    and finite where they would pass the largest double."""
    unit, shift = unit_scaled(samples)
    return math.ldexp(float(stat(unit)), shift)


def sample_sd(samples) -> float:
    """Sample standard deviation (ddof 1), taken on the scaled samples."""
    return scaled(lambda x: x.std(ddof=1), samples)


def row_moments(rows, totals):
    """(sd, r, cov) of each (n_runs,) row in turn against the totals: the
    row's sample sd, its Pearson r with the totals (0 where either side is
    constant) and its covariance with them.

    Rows are nonnegative and at most about the totals' largest value (a
    duration is at most its run's longest path, a node cost at most the
    run's total cost, a rank at most the run count), so one power of two,
    the totals', brings both sides below 2 and every sum stays finite. The
    sd is scaled back and r needs no scaling, so both equal the plain
    reductions bit for bit wherever those are finite; cov stays scaled, by
    2**(-2 * shift), so its ratios are the plain covariances' ratios.
    """
    tc, shift = unit_scaled(totals)
    tc -= tc.mean()
    stt = (tc * tc).sum()
    dof = len(tc) - 1
    sd, r, cov = [], [], []
    for row in rows:
        dc = np.ldexp(row, -shift)
        dc -= dc.mean()
        sxx, sxt = (dc * dc).sum(), (dc * tc).sum()
        denom = math.sqrt(sxx * stt)
        sd.append(math.ldexp(math.sqrt(sxx / dof), shift))
        r.append(sxt / denom if denom > 0.0 else 0.0)
        cov.append(sxt / dof)
    return np.array(sd), np.array(r), np.array(cov)


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
    check_integer("bins", bins)
    if not 1 <= bins <= MAX_BINS:
        raise ConfigError(f"bins must be in [1, {MAX_BINS}], got {bins}")
    counts, edges = _bin_counts(x, bins)
    pdf = counts / x.size
    cdf = np.cumsum(counts) / x.size
    return HistogramTable(edges=edges, pdf=pdf, cdf=cdf)


def _bin_counts(x, bins):
    """np.histogram over [x.min(), x.max()], halving the bins while their width
    is below the float spacing of the values. A constant sample is one bin
    [x, x]; one bin always fits a finite range with lo < hi, so only a range
    np.histogram cannot bin at all (a non-finite end) is a typed error."""
    lo, hi = float(x.min()), float(x.max())
    if lo == hi:
        return np.array([x.size]), np.array([lo, hi])
    while True:
        try:
            return np.histogram(x, bins=bins, range=(lo, hi))
        except ValueError as exc:
            if bins == 1:
                raise DegenerateProject(str(exc)) from None
            bins //= 2
