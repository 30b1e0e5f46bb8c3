"""Seeded, reproducible ensemble simulation and empirical statistics.

Randomness layout: every (node, purpose) pair owns a Philox stream keyed
by blake2b(seed | purpose | ident | 0), and run k always reads position k
of that stream. All variants sample by inverse CDF, one uniform per draw
(a normal law through the inverse CDF of its truncation at zero), so
results are bitwise identical for any worker count and toggling one risk
never perturbs any other draw. The same positions give the same draws
whenever they are read, so the ensemble keeps only its totals and the
analyses re-draw the node rows they read.
"""

from __future__ import annotations

import hashlib
import math
import os
import threading
from dataclasses import dataclass
from functools import cached_property

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

# peak bytes that a simulating command allocates, per run, per node and per
# cost risk for each run in flight, and per window of a block. A run is in
# flight while its span of _CHUNK runs is drawn: in run_ensemble one span per
# thread, its durations and CPM buffer (16 B per node) and its cost-risk draws
# (8 B per risk); in Ensemble.blocks one span, its durations and draws. A
# block's windows are its starts, finishes and node costs and the
# cross-section's events and accrual temporaries: 58 to 60 B each (tracemalloc,
# 8 to 153 nodes, blocks of 256 runs against blocks of 2^17 windows or a
# span). The per-run part is the stored totals (16 B) and the analyses'
# per-run vectors and re-drawn rows, a few at a time, and it covers one span's
# draw temporaries and the fixed objects that weigh at a few hundred runs.
# tracemalloc, 6 to 403 nodes, 300 to 131073 runs, 1 and 3 workers,
# run_ensemble alone and followed by control, forecast or Spearman indices,
# blocks up to 2^17 windows or a span: each peak is within 17 B per in-flight
# run and node, 8 per in-flight run and risk, 60 per block window and 69 per
# run; 128 keeps 3 % of the bound spare where it is tightest, 300 runs of 3
# nodes and 200 cost risks
_PEAK_PER_RUN = 128
_PEAK_PER_SPAN_NODE = 17
_PEAK_PER_SPAN_RISK = 8
_PEAK_PER_WINDOW = 60

_CHUNK = 8192  # runs per task; a multiple of 4, so chunks start on a Philox block

_local = threading.local()  # each thread's own generator, re-keyed for every stream
_EMPTY_BUFFER = np.zeros(4, dtype=np.uint64)


def _uniform_block(seed, purpose, ident, start, count):
    """Uniforms at stream positions [start, start+count); start is 4-aligned."""
    # the constant last field keeps every key, so every draw, as it was when
    # that field numbered a normal law's redraw rounds
    msg = f"{seed}|{purpose}|{ident}|0".encode()
    key = np.frombuffer(hashlib.blake2b(msg, digest_size=16).digest(), dtype="<u8")
    generator = getattr(_local, "generator", None)
    if generator is None:
        generator = _local.generator = Generator(Philox(0))
    # the state Philox(key=key).advance(start // 4) reaches (Philox emits 4
    # doubles per counter tick), set directly: Philox(key=) first reads a
    # seed from OS entropy, which the key then overrides
    generator.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": np.array([start // 4, 0, 0, 0], dtype=np.uint64), "key": key},
        "buffer": _EMPTY_BUFFER, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    return generator.random(count)


def sample_block(dist: Distribution, seed, ident, start, count, purpose=_DURATION):
    """Nonnegative draws for runs [start, start+count), chunking-independent:
    run k reads position k of the (ident, purpose) stream. A point law reads
    no stream: each stream has one owner, so no other draw moves."""
    if dist.kind == "point":
        return np.full(count, dist.params[0])
    return inv_cdf(dist, _uniform_block(seed, purpose, ident, start, count))


@dataclass(frozen=True)
class Ensemble:
    """Immutable record of one simulation campaign.

    It stores what each run's schedule decided, the two totals (n_runs,)
    and critical_runs, each node's count of critical runs, and the seed
    the runs were drawn from. Everything else is re-drawn from the seed's
    streams where it is read, bitwise as run_ensemble drew it: run k reads
    position k of each stream. duration_rows gives each node's durations one
    (n_runs,) row at a time, and node_costs its costs from that row; `blocks`
    gives each block of runs its windows and node costs; run k's critical
    flags are cpm.forward_backward(network, durations of run k).critical.
    ev_at/cost_at evaluate each run's exact earned-value and cumulative-cost
    trajectories, a block of runs at a time.
    """

    plan: _cpm.CpmResult        # the baseline, and the node ids and names
    network: ValidatedNetwork   # whose nodes and cost risks were sampled
    seed: int                   # whose streams the runs read
    critical_runs: np.ndarray   # (n_nodes,) runs whose total float is within tolerance
    total_duration: np.ndarray  # (n_runs,)
    total_cost: np.ndarray      # (n_runs,) including cost-risk realizations

    @property
    def n_runs(self) -> int:
        return self.total_duration.size

    def _spans(self):
        """(lo, hi) of each span of _CHUNK runs in turn, as run_ensemble chunks them."""
        n = self.n_runs
        return ((lo, min(lo + _CHUNK, n)) for lo in range(0, n, _CHUNK))

    def duration_rows(self):
        """Node j's durations per run, one row at a time in node order, each
        re-drawn as it is read, a span at a time, so the draw's temporaries
        stay span-sized. It keeps no reference to a row it has given out."""
        return map(self._duration_row, self.network.nodes)

    def _duration_row(self, node):
        row = np.empty(self.n_runs)
        for lo, hi in self._spans():
            row[lo:hi] = _draw(node.base, node.gate, self.seed, node.id, lo, hi)
        return row

    def node_costs(self, j, durations):
        """Node j's costs per run from its row of duration_rows, as
        run_ensemble formed them, written into that row: each cost risk on j
        is re-drawn and added a span at a time."""
        def add_impact(row, i):
            cr = self.network.cost_risks[i]
            for lo, hi in self._spans():
                row[lo:hi] += _draw(cr.impact, cr.probability, self.seed, cr.id, lo, hi)

        return _node_costs(self.network.nodes[j], durations, self._cost_risks_on[j],
                           add_impact, out=durations)

    @cached_property
    def _cost_risks_on(self):
        return _cost_risks_on(self.network)

    def blocks(self):
        """(runs, start, finish, node_costs) for each block of runs in turn:
        a slice of the runs, their early starts from a forward pass on the
        block's own durations, their finishes start + durations, and their
        node costs as node_costs forms them. These are the only per-run
        windows: every accrual over the runs reads them here.

        Each span of _CHUNK runs is re-drawn once and cut into blocks, so no
        block straddles two spans. A run's values depend on its own column
        alone, so any blocking gives the whole ensemble's values bit for
        bit. A block holds at most a sixteenth of the runs, a span and
        cpm._BLOCK_CELLS windows (_block_runs).
        """
        size = _block_runs(self.n_runs, len(self.network.nodes))
        for lo, hi in self._spans():
            # a span's draws go with its generator, before the next span's are drawn
            yield from self._span_blocks(lo, hi, size)

    def _span_blocks(self, lo, hi, size):
        durations, impacts = _draw_span(self.network, self.seed, lo, hi)
        rates, fixed = self.network.rates()[:, None], self.network.fixed_costs()[:, None]
        for b in range(0, hi - lo, size):
            cols = slice(b, min(b + size, hi - lo))
            d = durations[:, cols]
            start = np.empty(d.shape)
            _cpm.forward(self.network, d, start)
            node_costs = rates * d
            node_costs += fixed
            for i, cr in enumerate(self.network.cost_risks):
                node_costs[cr.target] += impacts[i, cols]
            yield slice(lo + cols.start, lo + cols.stop), start, start + d, node_costs

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


def _node_costs(node, d, risks, add_impact, out=None):
    """A node's costs per run from its durations d: rate * d + fixed, into
    `out` (d itself may be passed) or a new row, then add_impact(row, i) for
    each index i in risks, the cost risks on the node in cost_risks order."""
    row = np.multiply(node.variable_cost_rate, d, out=out)
    row += node.fixed_cost
    for i in risks:
        add_impact(row, i)
    return row


def _cost_risks_on(network: ValidatedNetwork):
    """Each node's cost-risk indices, in cost_risks order."""
    on = [[] for _ in network.nodes]
    for i, cr in enumerate(network.cost_risks):
        on[cr.target].append(i)
    return on


def _block_runs(n_runs, n_nodes):
    """Runs per block of Ensemble.blocks: at most a sixteenth of the runs, a
    span and cpm._BLOCK_CELLS windows, and at least 2."""
    return max(2, min(n_runs // 16, _CHUNK, _cpm._BLOCK_CELLS // n_nodes))


def _draw_span(network: ValidatedNetwork, seed, lo, hi):
    """Runs [lo, hi)'s (n_nodes, hi - lo) durations and (n_cost_risks, hi - lo)
    cost-risk draws, 0 where a risk did not fire."""
    durations = np.empty((len(network.nodes), hi - lo))
    impacts = np.empty((len(network.cost_risks), hi - lo))
    for node in network.nodes:
        durations[node.index] = _draw(node.base, node.gate, seed, node.id, lo, hi)
    for i, cr in enumerate(network.cost_risks):
        impacts[i] = _draw(cr.impact, cr.probability, seed, cr.id, lo, hi)
    return durations, impacts


def _threads(workers, n_runs):
    """Threads that simulate n_runs runs: at most one per chunk and per CPU."""
    return min(workers, -(-n_runs // _CHUNK), os.cpu_count() or 1)


def _peak_bytes(network: ValidatedNetwork, n_runs, workers=1) -> int:
    """The estimated peak of a command that simulates n_runs runs of the
    network on `workers` workers and analyses them: _PEAK_PER_RUN per run,
    per node and cost risk for each run in flight, a span per thread, and
    per window of one block of Ensemble.blocks."""
    m = len(network.nodes)
    in_flight = _threads(workers, n_runs) * min(n_runs, _CHUNK)
    per_span_run = _PEAK_PER_SPAN_NODE * m + _PEAK_PER_SPAN_RISK * len(network.cost_risks)
    return (n_runs * _PEAK_PER_RUN + in_flight * per_span_run
            + _PEAK_PER_WINDOW * m * _block_runs(n_runs, m))


def run_ensemble(network: ValidatedNetwork, n_runs: int, seed: int,
                 workers: int = 1) -> Ensemble:
    """Simulate n_runs schedules of the network from `seed`.

    Each chunk of _CHUNK runs is drawn and simulated end to end, up to
    `workers` chunks at once, and only its totals and critical counts are
    kept; bitwise deterministic in (network, n_runs, seed), whatever the
    workers. A plan or run whose duration or cost leaves the floats is
    DegenerateProject. n_runs, seed and workers must be integers (ConfigError).
    """
    n_runs, seed = check_integer("n_runs", n_runs, 1), check_integer("seed", seed)
    workers = check_integer("workers", workers, 1)
    n = n_runs
    check_memory(ConfigError, n, "runs", len(network.nodes),
                 lambda runs: _peak_bytes(network, runs, workers), need="need about")

    chunks = range(0, n, _CHUNK)
    counts = np.empty((len(chunks), len(network.nodes)), dtype=np.int64)  # a row per chunk
    total_duration, total_cost = np.empty(n), np.zeros(n)
    plan = _cpm.plan(network)
    on = _cost_risks_on(network)

    def simulate(lo):
        hi = min(lo + _CHUNK, n)
        d, impacts = _draw_span(network, seed, lo, hi)

        def add_impact(costs, i):
            costs += impacts[i]

        cost_sum = total_cost[lo:hi]
        buf = np.empty(d.shape)  # early starts, then late finishes
        with np.errstate(over="ignore", invalid="ignore"):  # refused below
            # accumulate in node order, matching ev_at/cost_at and the plan's BAC,
            # so the endpoint identities cost_k(PD_k) = C_k and ev_k(PD_k) = BAC
            # hold bitwise
            for node, row in zip(network.nodes, d):
                cost_sum += _node_costs(node, row, on[node.index], add_impact)
            _cpm.forward(network, d, buf)
            _cpm.backward(network, d, buf, counts[lo // _CHUNK])
            total_duration[lo:hi] = buf[network.sink]
        # every node reaches the sink, so a duration or finish past the float
        # range reaches the project's; a node cost past it reaches the total
        if not (np.isfinite(total_duration[lo:hi]).all() and np.isfinite(cost_sum).all()):
            raise DegenerateProject("a run's duration or cost exceeds the float range")

    threads = _threads(workers, n)
    if threads == 1:
        # no pool: a pool thread would draw the chunk's temporaries from a
        # malloc arena of its own, which the main thread never reuses
        for lo in chunks:
            simulate(lo)
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(threads) as pool:
            list(pool.map(simulate, chunks))  # re-raises the first chunk's error

    arrays = dict(critical_runs=counts.sum(axis=0), total_duration=total_duration,
                  total_cost=total_cost)
    for arr in arrays.values():
        arr.flags.writeable = False
    return Ensemble(plan=plan, network=network, seed=seed, **arrays)


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


def moments_against(totals):
    """The function of one (n_runs,) row that gives its (sd, r, cov) against
    the totals: the row's sample sd, its Pearson r with the totals (0 where
    either side is constant) and its covariance with them.

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

    def moments(row):
        dc = np.ldexp(row, -shift)
        dc -= dc.mean()
        sxx, sxt = (dc * dc).sum(), (dc * tc).sum()
        denom = math.sqrt(sxx * stt)
        return (math.ldexp(math.sqrt(sxx / dof), shift),
                sxt / denom if denom > 0.0 else 0.0, sxt / dof)
    return moments


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
