"""Deterministic critical-path analysis, path enumeration, planned value curve."""

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
    with np.errstate(divide="ignore", invalid="ignore"):
        frac = (t - start) / (finish - start)
    if step_closed:
        return np.where(t >= finish, 1.0, np.where(t <= start, 0.0, frac))
    return np.where(t <= start, 0.0, np.where(t >= finish, 1.0, frac))


@dataclass(frozen=True)
class CpmResult:
    """Forward/backward pass outputs for one fixed duration vector."""

    node_ids: tuple
    durations: np.ndarray
    es: np.ndarray
    ef: np.ndarray
    ls: np.ndarray
    lf: np.ndarray
    total_float: np.ndarray
    critical: np.ndarray  # bool per node
    duration: float       # project duration (sink early finish)
    bac: float            # planned cost at these durations

    def critical_ids(self) -> tuple:
        return tuple(i for i, c in zip(self.node_ids, self.critical) if c)


def forward_backward(network: ValidatedNetwork, durations, crit_tol: float = CRIT_TOL) -> CpmResult:
    d = np.asarray(durations, dtype=float)
    nodes = network.nodes
    if d.shape != (len(nodes),):
        raise ValueError(f"expected {len(nodes)} durations, got shape {d.shape}")
    if (d < 0).any():
        raise ValueError("durations must be nonnegative")

    n = len(nodes)
    es = np.zeros(n)
    ef = np.zeros(n)
    for node in nodes:
        if node.preds:
            es[node.index] = max(ef[p] for p in node.preds)
        ef[node.index] = es[node.index] + d[node.index]

    project_duration = float(ef[network.sink])
    lf = np.empty(n)
    ls = np.empty(n)
    for node in reversed(nodes):
        if node.succs:
            lf[node.index] = min(ls[s] for s in node.succs)
        else:
            lf[node.index] = project_duration
        ls[node.index] = lf[node.index] - d[node.index]

    total_float = ls - es
    critical = total_float <= crit_tol
    bac = float(np.sum(network.fixed_costs() + network.rates() * d))
    return CpmResult(node_ids=network.ids(), durations=d, es=es, ef=ef, ls=ls, lf=lf,
                     total_float=total_float, critical=critical,
                     duration=project_duration, bac=bac)


def plan(network: ValidatedNetwork, crit_tol: float = CRIT_TOL) -> CpmResult:
    """CPM baseline at expected durations (risk nodes at p * mean(impact))."""
    return forward_backward(network, network.mean_durations(), crit_tol)


@dataclass(frozen=True)
class PathMatrix:
    """All simple source->sink paths as a binary membership matrix."""

    node_ids: tuple
    paths: tuple               # tuples of node indices
    membership: np.ndarray     # (n_paths, n_nodes) uint8

    @property
    def n_paths(self) -> int:
        return len(self.paths)

    def path_durations(self, durations) -> np.ndarray:
        return self.membership @ np.asarray(durations, dtype=float)


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


@dataclass(frozen=True)
class PlannedValueCurve:
    """Monotone piecewise-linear PV(t) on [0, PD], sampled on a uniform grid.

    knot_times/knot_values carry every true breakpoint; cost steps appear
    as duplicated times holding the left and right values, so linear
    interpolation between knots is exact everywhere. times/values are the
    uniform-grid view for export.
    """

    times: np.ndarray
    values: np.ndarray
    knot_times: np.ndarray
    knot_values: np.ndarray
    bac: float
    duration: float

    def value_at(self, t):
        """Exact PV at time t (right-continuous at steps); scalar or array."""
        t = np.asarray(t, dtype=float)
        scalar = t.ndim == 0
        tq = np.atleast_1d(np.clip(t, 0.0, self.duration))
        last = len(self.knot_times) - 1
        i = np.searchsorted(self.knot_times, tq, side="right") - 1
        i = np.clip(i, 0, max(last - 1, 0))
        t0, t1 = self.knot_times[i], self.knot_times[np.minimum(i + 1, last)]
        v0, v1 = self.knot_values[i], self.knot_values[np.minimum(i + 1, last)]
        with np.errstate(divide="ignore", invalid="ignore"):
            frac = (tq - t0) / (t1 - t0)
        out = np.where(tq >= t1, v1, np.where(tq <= t0, v0, v0 + (v1 - v0) * frac))
        return float(out[0]) if scalar else out


def planned_value_curve(network: ValidatedNetwork, result: CpmResult,
                        grid_points: int = 101) -> PlannedValueCurve:
    """Accrue each node's cost uniformly over its planned window.

    Zero-duration nodes step their fixed cost in at ES. PV(PD) equals the
    BAC of `result` exactly.
    """
    if grid_points < 2:
        raise ValueError("grid_points must be >= 2")
    costs = network.fixed_costs() + network.rates() * result.durations
    start, finish = result.es, result.ef
    project_duration = result.duration

    breaks = np.unique(np.concatenate([[0.0, project_duration], start, finish]))
    breaks = breaks[(breaks >= 0.0) & (breaks <= project_duration)]
    right = _accrual(breaks, costs, start, finish, step_closed=True)
    left = _accrual(breaks, costs, start, finish, step_closed=False)
    knot_times, knot_values = [], []
    for t, vl, vr in zip(breaks, left, right):
        if vl != vr:
            knot_times.append(t)
            knot_values.append(vl)
        knot_times.append(t)
        knot_values.append(vr)

    times = np.linspace(0.0, project_duration, grid_points)
    values = _accrual(times, costs, start, finish, step_closed=True)
    return PlannedValueCurve(times=times, values=values,
                             knot_times=np.array(knot_times),
                             knot_values=np.array(knot_values),
                             bac=result.bac, duration=project_duration)


def _accrual(ts, costs, start, finish, step_closed):
    out = np.zeros(len(ts))
    for j in range(len(costs)):
        if costs[j] != 0.0:
            out += costs[j] * window_fraction(ts, start[j], finish[j], step_closed)
    return out


def earned_schedule(pv: PlannedValueCurve, ev: float) -> float:
    """Planned time at which the baseline PV first reaches `ev`.

    ES(0) = 0 and ES(BAC) = PD; values outside [0, BAC] raise EvOutOfRange.
    """
    tol = 1e-9 * max(1.0, abs(pv.bac))
    if ev < -tol or ev > pv.bac + tol:
        raise EvOutOfRange(f"earned value {ev} outside [0, {pv.bac}]")
    ev = min(max(float(ev), 0.0), pv.bac)
    if ev >= pv.bac:
        return pv.duration  # completion maps to the planned end by convention
    kt, kv = pv.knot_times, pv.knot_values
    i = int(np.searchsorted(kv, ev, side="left"))
    if i == 0:
        return float(kt[0])
    t0, v0 = kt[i - 1], kv[i - 1]
    t1, v1 = kt[i], kv[i]
    if v1 == v0:
        return float(t1)
    return float(t0 + (ev - v0) * (t1 - t0) / (v1 - v0))
