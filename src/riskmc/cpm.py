"""Deterministic critical-path analysis, path enumeration, planned value."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DegenerateProject, EvOutOfRange, PathExplosion, check_memory
from .network import ValidatedNetwork, count_paths

CRIT_TOL = 1e-9  # total float at most this share of the run's PD marks a node critical
_BLOCK_CELLS = 2**17  # windows (nodes x times) that one accrual step takes at once


def window_fraction(t, start, finish):
    """Fraction of the window [start, finish] elapsed at time t, in [0, 1].

    Windows have start <= finish, and no value is nan: the clamp below
    would take a nan to a bound, so `accrue` and `ev_at`/`cost_at` refuse them.
    Zero-length windows step from 0 to 1 at t == start and count the step
    there, so every accrual is right-continuous (first_reach alone forms a
    left limit, from this).

    The ratio (t - start) / (finish - start) is clamped to [0, 1]. Rounding
    is monotone, so the ratio is at least 1 wherever t >= finish and at
    most 0 wherever t <= start: the clamp completes a window exactly, never
    at 1 - ulp. Only a zero-length window at its step gives 0/0 = nan,
    which fmin takes to 1. Adding 0.0 last turns the -0.0 of an underflowed
    ratio into 0.0.
    """
    t = np.asarray(t, dtype=float)
    start = np.asarray(start, dtype=float)
    finish = np.asarray(finish, dtype=float)
    frac = np.empty(np.broadcast_shapes(t.shape, start.shape, finish.shape))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        np.divide(np.subtract(t, start, out=frac), finish - start, out=frac)
    np.maximum(np.fmin(frac, 1.0, out=frac), 0.0, out=frac)
    frac += 0.0
    return frac


@dataclass(frozen=True)
class CpmResult:
    """Forward/backward pass outputs for one fixed duration vector.

    At expected durations this is the baseline plan: costs accrue
    uniformly over each node's [es, ef] window, and bac is that accrual
    at the project duration, so BAC = PV(PD) bit for bit.
    """

    node_ids: tuple
    node_names: tuple
    durations: np.ndarray
    es: np.ndarray
    ef: np.ndarray
    ls: np.ndarray
    lf: np.ndarray
    total_float: np.ndarray
    critical: np.ndarray  # bool per node
    costs: np.ndarray     # fixed + rate * duration per node
    duration: float       # project duration (sink early finish)
    bac: float            # node-order sum of costs

    def critical_ids(self) -> tuple:
        return tuple(i for i, c in zip(self.node_ids, self.critical) if c)

    def value_at(self, t):
        """Exact PV at time t (right-continuous at steps); scalar or array."""
        out = accrue(t, self.costs, self.es, self.ef)
        return float(out) if out.ndim == 0 else out


def forward(network: ValidatedNetwork, durations, es):
    """Forward CPM pass over (n_nodes, n_runs) durations: fills the caller's
    `es` with early starts, one row per node; finishes es + durations are
    not stored (an ensemble's are formed a block at a time, Ensemble.blocks)."""
    for node in network.nodes:
        j = node.index
        if node.preds:
            first, *rest = node.preds
            acc = es[first] + durations[first]
            for p in rest:
                np.maximum(acc, es[p] + durations[p], out=acc)
            es[j] = acc
        else:
            es[j] = 0.0


def backward(network: ValidatedNetwork, durations, buf, critical):
    """Backward CPM pass over (n_nodes, n_runs) durations, in place.

    On entry `buf` holds the early starts (`forward`). Each reverse step
    forms node j's late finish lf_j from its successors' rows, which it has
    already overwritten, counts into critical[j] the runs that pass the
    total-float test (lf_j - d_j) - es_j <= CRIT_TOL * PD, with PD the run's
    project duration (one run's count is its flag), and then overwrites row
    j with lf_j; on return `buf` holds the late finishes, and buf[sink] PD.
    """
    tol = CRIT_TOL * (buf[network.sink] + durations[network.sink])
    for node in reversed(network.nodes):
        j = node.index
        if node.succs:
            first, *rest = node.succs
            lf = buf[first] - durations[first]
            for s in rest:
                np.minimum(lf, buf[s] - durations[s], out=lf)
        else:
            lf = buf[j] + durations[j]
        critical[j] = np.count_nonzero(lf - durations[j] - buf[j] <= tol)
        buf[j] = lf


def forward_backward(network: ValidatedNetwork, durations) -> CpmResult:
    """CPM pass for one duration vector: the one-run case of `forward` and
    `backward`.

    The result owns read-only arrays; the durations are copied first. A
    duration or cost that leaves the floats is DegenerateProject.
    """
    d = np.array(durations, dtype=float)
    if d.shape != (len(network.nodes),):
        raise ConfigError(f"expected {len(network.nodes)} durations, got shape {d.shape}")
    if not (d >= 0).all():  # also refuses nan
        raise ConfigError("durations must be nonnegative")

    es = np.empty(len(d))
    critical = np.empty(len(d), dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        forward(network, d[:, None], es[:, None])
        lf = es.copy()
        backward(network, d[:, None], lf[:, None], critical)
        ef = es + d
        costs = network.fixed_costs() + network.rates() * d
        duration = float(ef[network.sink])
        bac = float(accrue(duration, costs, es, ef))
    # every node reaches the sink, and at the project's end its accrual is
    # the sum of all costs: past the float range anywhere, one is non-finite
    if not (math.isfinite(duration) and math.isfinite(bac)):
        raise DegenerateProject(f"the plan exceeds the float range: duration {duration}, "
                                f"cost {bac}")
    ls = lf - d
    total_float = ls - es
    for arr in (d, es, ef, ls, lf, total_float, critical, costs):
        arr.flags.writeable = False
    return CpmResult(node_ids=network.ids(), node_names=network.names(), durations=d,
                     es=es, ef=ef, ls=ls, lf=lf,
                     total_float=total_float, critical=critical, costs=costs,
                     duration=duration, bac=bac)


def plan(network: ValidatedNetwork) -> CpmResult:
    """CPM baseline at expected durations (risk nodes at p * mean(impact))."""
    return forward_backward(network, network.mean_durations())


@dataclass(frozen=True)
class PathMatrix:
    """All simple source->sink paths as a binary membership matrix."""

    node_ids: tuple
    membership: np.ndarray     # (n_paths, n_nodes) uint8

    @property
    def n_paths(self) -> int:
        return self.membership.shape[0]


def enumerate_paths(network: ValidatedNetwork, cap: int = 1_000_000) -> PathMatrix:
    """Enumerate simple source->sink paths, lexicographic by topological order."""
    nodes = network.nodes

    # count first so an explosion aborts before materializing anything
    n_paths = count_paths(network)
    if n_paths > cap:
        raise PathExplosion(f"{n_paths} paths exceed the cap of {cap}")
    check_memory(PathExplosion, n_paths, "paths", len(nodes), len(nodes))  # 1 B per node

    membership = np.zeros((n_paths, len(nodes)), dtype=np.uint8)
    row = 0
    stack = [iter(nodes[network.source].succs)]
    trail = [network.source]
    while stack:
        nxt = next(stack[-1], None)
        if nxt is None:
            stack.pop()
            trail.pop()
            continue
        trail.append(nxt)
        if nxt == network.sink:
            membership[row, trail] = 1
            row += 1
            trail.pop()
        else:
            stack.append(iter(nodes[nxt].succs))
    return PathMatrix(node_ids=network.ids(), membership=membership)


def accrue(t, weights, start, finish):
    """One schedule's curve: the node-order sum of
    weights[j] * window_fraction(t, start[j], finish[j]), shaped like t.

    The windows and weights are (n_nodes,), and t a scalar or an array of
    times, none of them nan. This is the curve behind planned value, the
    BAC and the risk baselines. The times are taken in blocks of at most
    _BLOCK_CELLS windows, each accrued by accrue_runs, so the value at the
    schedule's end is the node-order sum of its weights bit for bit.
    """
    t = np.asarray(t, dtype=float)
    if np.isnan(t).any():
        raise ConfigError("accrual times must not be nan")
    times = t.reshape(-1)
    total = np.empty(times.size)
    step = max(2, _BLOCK_CELLS // len(start))
    for lo in range(0, times.size, step):
        cols = slice(lo, lo + step)
        total[cols] = accrue_runs(times[cols], weights, start[:, None], finish[:, None])
    return total.reshape(t.shape)


def accrue_runs(t, weights, start, finish):
    """Accrual of (n_nodes, k) windows at a scalar time or one time per
    column: 0.0 plus each node's weighted fraction in turn, with weights
    (n_nodes,) or (n_nodes, k). numpy sums along an axis that is not the
    fastest in memory one element at a time, so with k >= 2 add.reduce is
    that sum; with one column the node axis is the fast one, which
    add.reduce would sum pairwise, and the cumulative sum is used."""
    rows = window_fraction(t, start, finish)
    rows *= np.reshape(weights, (len(start), -1))
    if rows.shape[1] >= 2:
        return np.add.reduce(rows, axis=0, initial=0.0)
    return np.cumsum(rows, axis=0)[-1] + 0.0


def first_reach(target, weights, start, finish):
    """Per run of (n_nodes, n_runs) windows: inf{t : accrue_runs(t) >= target}.

    The windows are a CPM schedule's, as `forward` forms them: each start
    is 0.0 or the same sum start + d as a predecessor's finish, so a run's
    accrual is nondecreasing and piecewise linear between 0 and its
    finishes. All runs bisect those sorted events at once for the first
    one whose value reaches the target, then interpolate from the right
    value before it to the left limit at it: ~log2(m) accruals,
    O(n * m * log m) in all. The left limit at t1 is the accrual there
    with the zero-length windows stepping at t1 weighted zero: only their
    steps count at t1 and not before it. A run whose accrual never
    reaches the target gets its last finish. Its arrays are (n_runs, m + 1)
    events and (n_nodes, n_runs) windows, so an ensemble passes its runs a
    block at a time, with the windows Ensemble.blocks forms; weights are
    (n_nodes,) or (n_nodes, n_runs).
    """
    m, n = start.shape
    runs = np.arange(n)
    events = np.zeros((n, m + 1))  # a row per run: 0, then the finishes, sorted
    events[:, 1:] = finish.T
    events.sort(axis=1)

    # the first event reaching the target lies in [lo, hi] throughout;
    # v0 is the accrual at lo - 1
    lo, hi, v0 = np.zeros(n, dtype=int), np.full(n, m), np.zeros(n)
    while (lo < hi).any():
        mid = (lo + hi) // 2
        value = accrue_runs(events[runs, mid], weights, start, finish)
        below = value < target
        lo = np.where(below, mid + 1, lo)
        hi = np.where(below, hi, mid)
        v0 = np.where(below, value, v0)

    at_origin = lo == 0
    idx = np.maximum(lo, 1)
    t0 = events[runs, idx - 1]
    t1 = events[runs, idx]
    stepping = (start == t1) & (finish == t1)
    left_weights = np.where(stepping, 0.0, np.reshape(weights, (m, -1)))
    v1_left = accrue_runs(t1, left_weights, start, finish)

    # at the ends of the float range the step's product (target - v0) *
    # (t1 - t0) can pass the largest double or fall below the smallest
    # normal one: per run, the time span is scaled by the power of two that
    # brings the product within [2**-1023, 2**1023), and the step back. The
    # shift is 0 for every product in [2**-1021, 2**1022), so the scaling is
    # exact and those steps keep their bits
    gain, span = target - v0, t1 - t0
    e = np.frexp(gain)[1] + np.frexp(span)[1]  # the product lies in [2**(e-2), 2**e)
    shift = np.maximum(e - 1023, 0) - np.maximum(-1021 - e, 0)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        interp = t0 + np.ldexp(gain * np.ldexp(span, -shift) / (v1_left - v0), shift)
    # the crossing lies in (t0, t1]: exactly t1 when the left limit there
    # only just reaches the target, and never past t1 however interp rounds
    crosses_open = v1_left > target
    return np.where(at_origin, 0.0, np.where(crosses_open, np.minimum(interp, t1), t1))


def earned_schedule(plan: CpmResult, ev: float) -> float:
    """Planned time at which the plan's PV first reaches `ev`.

    ES(0) = 0 and ES(BAC) = PD; values that check_ev refuses raise EvOutOfRange.
    """
    check_ev(ev, plan.bac)
    if ev >= plan.bac:
        return plan.duration  # completion maps to the planned end by convention
    return float(first_reach(float(ev), plan.costs, plan.es[:, None], plan.ef[:, None])[0])


def check_ev(ev, bac):
    """Refuse an earned value outside [0, BAC * (1 + 1e-12)], nan, or inf
    (the bound is inf for a BAC near the largest double). The slack,
    relative at any scale, admits an EV that rounding carried just past the
    BAC."""
    if not 0.0 <= ev <= bac * (1.0 + 1e-12) or ev == math.inf:
        raise EvOutOfRange(f"earned value {ev} outside [0, {bac}]")
