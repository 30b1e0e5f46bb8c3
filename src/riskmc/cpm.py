"""Deterministic critical-path analysis, path enumeration, planned value."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EvOutOfRange, PathExplosion
from .network import ValidatedNetwork

CRIT_TOL = 1e-9  # absolute float tolerance marking a node critical


def window_fraction(t, start, finish, step_closed: bool = True):
    """Fraction of the window [start, finish] elapsed at time t, in [0, 1].

    Windows have start <= finish. Zero-length windows step from 0 to 1
    at t == start; `step_closed` selects whether the step counts at
    t == start (right value) or only for t > start (left limit). The
    order of the two endpoint tests decides that step: closed tests
    t >= finish first, open tests t <= start first. Endpoint comparisons
    use the bounds directly so window completion is exact, never 1 - ulp.
    """
    t = np.asarray(t, dtype=float)
    start = np.asarray(start, dtype=float)
    finish = np.asarray(finish, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        frac = (t - start) / (finish - start)
    if step_closed:
        return np.where(t >= finish, 1.0, np.where(t <= start, 0.0, frac))
    return np.where(t <= start, 0.0, np.where(t >= finish, 1.0, frac))


@dataclass(frozen=True)
class CpmResult:
    """Forward/backward pass outputs for one fixed duration vector.

    At expected durations this is the baseline plan: costs accrue
    uniformly over each node's [es, ef] window, and bac is that accrual
    at the project duration, so BAC = PV(PD) bit for bit.
    """

    node_ids: tuple
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


def passes(network: ValidatedNetwork, durations):
    """Forward and backward CPM passes over (n_runs, n_nodes) durations.

    Returns (es, ef, lf), each (n_runs, n_nodes); late starts are
    lf - durations and are recomputed per successor, not stored. The sink
    finishes late at the project duration.
    """
    n, m = durations.shape
    es = np.zeros((n, m))
    ef = np.empty((n, m))
    for node in network.nodes:
        j = node.index
        if node.preds:
            acc = ef[:, node.preds[0]].copy()
            for p in node.preds[1:]:
                np.maximum(acc, ef[:, p], out=acc)
            es[:, j] = acc
        ef[:, j] = es[:, j] + durations[:, j]

    lf = np.empty((n, m))
    for node in reversed(network.nodes):
        j = node.index
        if node.succs:
            first, *rest = node.succs
            acc = lf[:, first] - durations[:, first]
            for s in rest:
                np.minimum(acc, lf[:, s] - durations[:, s], out=acc)
            lf[:, j] = acc
        else:
            lf[:, j] = ef[:, network.sink]
    return es, ef, lf


def forward_backward(network: ValidatedNetwork, durations) -> CpmResult:
    """CPM pass for one duration vector: the one-row case of `passes`.

    The result owns read-only arrays; the durations are copied first.
    """
    d = np.array(durations, dtype=float)
    if d.shape != (len(network.nodes),):
        raise ValueError(f"expected {len(network.nodes)} durations, got shape {d.shape}")
    if (d < 0).any():
        raise ValueError("durations must be nonnegative")

    es, ef, lf = (row[0] for row in passes(network, d[None, :]))
    ls = lf - d
    total_float = ls - es
    critical = total_float <= CRIT_TOL
    costs = network.fixed_costs() + network.rates() * d
    duration = float(ef[network.sink])
    for arr in (d, es, ef, ls, lf, total_float, critical, costs):
        arr.flags.writeable = False
    return CpmResult(node_ids=network.ids(), durations=d, es=es, ef=ef, ls=ls, lf=lf,
                     total_float=total_float, critical=critical, costs=costs,
                     duration=duration, bac=float(accrue(duration, costs, es, ef)))


def plan(network: ValidatedNetwork) -> CpmResult:
    """CPM baseline at expected durations (risk nodes at p * mean(impact))."""
    return forward_backward(network, network.mean_durations())


@dataclass(frozen=True)
class PathMatrix:
    """All simple source->sink paths as a binary membership matrix."""

    node_ids: tuple
    paths: tuple               # tuples of node indices
    membership: np.ndarray     # (n_paths, n_nodes) uint8

    @property
    def n_paths(self) -> int:
        return len(self.paths)


def count_paths(network: ValidatedNetwork) -> int:
    """Number of source->sink paths, counted backwards over the DAG without listing them."""
    counts = [0] * len(network.nodes)
    counts[network.sink] = 1
    for node in reversed(network.nodes):
        if node.succs:
            counts[node.index] = sum(counts[s] for s in node.succs)
    return counts[network.source]


def enumerate_paths(network: ValidatedNetwork, cap: int = 1_000_000) -> PathMatrix:
    """Enumerate simple source->sink paths, lexicographic by topological order."""
    nodes = network.nodes
    n = len(nodes)

    # count first so an explosion aborts before materializing anything
    n_paths = count_paths(network)
    if n_paths > cap:
        raise PathExplosion(f"{n_paths} paths exceed the cap of {cap}")

    paths = []
    stack = [(network.source, iter(nodes[network.source].succs))]
    trail = [network.source]
    while stack:
        _, succ_iter = stack[-1]
        nxt = next(succ_iter, None)
        if nxt is None:
            stack.pop()
            trail.pop()
            continue
        trail.append(nxt)
        if nxt == network.sink:
            paths.append(tuple(trail))
            trail.pop()
        else:
            stack.append((nxt, iter(nodes[nxt].succs)))

    membership = np.zeros((len(paths), n), dtype=np.uint8)
    for r, path in enumerate(paths):
        membership[r, list(path)] = 1
    return PathMatrix(node_ids=network.ids(), paths=tuple(paths), membership=membership)


def accrue(t, weights, start, finish, step_closed: bool = True):
    """Node-order sum of weights[..., j] * window_fraction(t, start_j, finish_j).

    Windows are (n_nodes,) for one schedule or (n_runs, n_nodes) for an
    ensemble; weights are (n_nodes,) or (n_runs, n_nodes). This is the
    accrual behind planned value, earned value, cumulative cost and the
    risk baselines; summing in node order makes the value at a schedule's
    end equal the node-order sum of its weights bit for bit.
    """
    total = np.zeros(np.broadcast_shapes(np.shape(t), start.shape[:-1]))
    for j in range(start.shape[-1]):
        total += weights[..., j] * window_fraction(t, start[..., j], finish[..., j],
                                                   step_closed)
    return total


def first_reach(target, weights, start, finish):
    """Per row of (n_rows, n_nodes) windows: inf{t : accrue(t) >= target}.

    The accrual is nondecreasing and piecewise linear between the row's
    start/finish times, so all rows bisect their sorted event times at
    once for the first event whose value reaches the target, then
    interpolate from the right value before it to the left limit at it:
    ~log2(2m) accruals, O(n * m * log m) in all. A row whose accrual
    never reaches the target gets its last event time.
    """
    n = start.shape[0]
    rows = np.arange(n)
    events = np.column_stack([np.zeros(n), start, finish])
    events.sort(axis=1)

    # the first event reaching the target lies in [lo, hi] throughout;
    # v0 is the accrual at lo - 1
    lo, hi, v0 = np.zeros(n, dtype=int), np.full(n, events.shape[1] - 1), np.zeros(n)
    while (lo < hi).any():
        mid = (lo + hi) // 2
        value = accrue(events[rows, mid], weights, start, finish)
        below = value < target
        lo = np.where(below, mid + 1, lo)
        hi = np.where(below, hi, mid)
        v0 = np.where(below, value, v0)

    at_origin = lo == 0
    idx = np.maximum(lo, 1)
    t0 = events[rows, idx - 1]
    t1 = events[rows, idx]
    v1_left = accrue(t1, weights, start, finish, step_closed=False)

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        interp = t0 + (target - v0) * (t1 - t0) / (v1_left - v0)
    # the crossing lies in (t0, t1]: exactly t1 when the left limit there
    # only just reaches the target, and never past t1 however interp rounds
    crosses_open = v1_left > target
    return np.where(at_origin, 0.0, np.where(crosses_open, np.minimum(interp, t1), t1))


def earned_schedule(plan: CpmResult, ev: float) -> float:
    """Planned time at which the plan's PV first reaches `ev`.

    ES(0) = 0 and ES(BAC) = PD; values outside [0, BAC] raise EvOutOfRange.
    """
    tol = 1e-9 * max(1.0, abs(plan.bac))
    if ev < -tol or ev > plan.bac + tol:
        raise EvOutOfRange(f"earned value {ev} outside [0, {plan.bac}]")
    ev = min(max(float(ev), 0.0), plan.bac)
    if ev >= plan.bac:
        return plan.duration  # completion maps to the planned end by convention
    return float(first_reach(ev, plan.costs, plan.es[None, :], plan.ef[None, :])[0])
