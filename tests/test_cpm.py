import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from netgen import (
    DYADIC,
    chain_spec,
    ladder_spec,
    parallel_spec,
    random_dag_spec,
    with_degenerate_nodes,
)
from riskmc import (
    Activity,
    Distribution,
    ProjectSpec,
    SimConfig,
    earned_schedule,
    enumerate_paths,
    forward_backward,
    plan,
    run_ensemble,
    validate,
)
from riskmc.cpm import CRIT_TOL, count_paths, window_fraction
from riskmc.csvout import pv_table
from riskmc.errors import EvOutOfRange, PathExplosion
from netgen import dummy


def figure3_durations(network, a1=2.0, a2=3.0, a3=4.0, a4=5.0):
    values = {"A1": a1, "A2": a2, "A3": a3, "A4": a4}
    return np.array([values.get(n.id, 0.0) for n in network.nodes])


def test_figure3_pass_matches_path_oracle(figure3_network):
    net = figure3_network
    d = figure3_durations(net)
    paths = oracles.brute_paths(oracles.pred_lists(net))
    sums = sorted(oracles.brute_pd(paths[i:i + 1], d) for i in range(len(paths)))
    assert sums == [6.0, 7.0, 8.0]

    result = forward_backward(net, d)
    assert result.duration == oracles.brute_pd(paths, d) == 8.0
    assert result.critical_ids() == ("A0", "A2", "A6", "A4", "Af")
    assert result.total_float[net.index_of("A1")] == pytest.approx(1.0)
    assert result.total_float[net.index_of("A3")] == pytest.approx(2.0)


def test_all_zero_durations(figure3_network):
    result = forward_backward(figure3_network, np.zeros(8))
    assert result.duration == 0.0
    assert result.critical.all()


def test_single_chain_all_critical():
    net = validate(chain_spec([Distribution.point(1), Distribution.point(2),
                               Distribution.point(3)]))
    result = forward_backward(net, np.array([0.0, 1.0, 2.0, 3.0, 0.0]))
    assert result.duration == 6.0
    assert result.critical.all()
    assert (result.total_float == 0.0).all()


def test_cpm_result_identities(figure3_network):
    d = figure3_durations(figure3_network)
    r = forward_backward(figure3_network, d)
    assert np.allclose(r.es + d, r.ef)
    assert np.allclose(r.ls + d, r.lf)
    assert (r.total_float >= -1e-12).all()
    assert r.duration == r.ef.max()


# -- path enumeration --------------------------------------------------------

def test_figure3_paths(figure3_network):
    pm = enumerate_paths(figure3_network)
    assert pm.n_paths == 3
    ids = [tuple(figure3_network.nodes[i].id for i in p) for p in pm.paths]
    assert ids == [("A0", "A1", "A5", "A3", "Af"),
                   ("A0", "A1", "A5", "A4", "Af"),
                   ("A0", "A2", "A6", "A4", "Af")]
    assert pm.membership.shape == (3, 8)
    assert pm.membership.sum(axis=1).tolist() == [5, 5, 5]


def test_chain_has_one_path():
    net = validate(chain_spec([Distribution.point(1)] * 3))
    assert enumerate_paths(net).n_paths == 1


def test_two_parallel_activities_two_paths():
    net = validate(parallel_spec([Distribution.point(1), Distribution.point(2)]))
    assert enumerate_paths(net).n_paths == 2


def test_path_count_matches_independent_dfs():
    rng = np.random.default_rng(52)
    for _ in range(20):
        net = validate(random_dag_spec(rng, n_real=int(rng.integers(2, 8))))
        pm = enumerate_paths(net)
        assert pm.n_paths == len(oracles.brute_paths(oracles.pred_lists(net)))
        assert count_paths(net) == pm.n_paths


def test_count_paths_never_enumerates():
    # 46 activities in 22 two-wide rungs: 2^22 paths, counted without listing
    small = validate(ladder_spec(5))
    assert count_paths(small) == enumerate_paths(small).n_paths == 2 ** 5
    net = validate(ladder_spec(22))
    assert len(net.nodes) == 46
    assert count_paths(net) == 2 ** 22
    with pytest.raises(PathExplosion):
        enumerate_paths(net)


def test_path_explosion_cap():
    # k diamond stages in series give 2^k paths
    acts = [dummy("A0")]
    pairs = []
    prev = "A0"
    for k in range(12):
        up, down, join = f"U{k}", f"D{k}", f"J{k}"
        for node_id in (up, down, join):
            acts.append(Activity(id=node_id, name=node_id, duration=Distribution.point(1)))
        pairs += [(up, prev), (down, prev), (join, up), (join, down)]
        prev = join
    acts.append(dummy("Af"))
    pairs.append(("Af", prev))
    ids = [a.id for a in acts]
    pos = {i: k for k, i in enumerate(ids)}
    matrix = [[0] * len(acts) for _ in acts]
    for succ, pred in pairs:
        matrix[pos[succ]][pos[pred]] = 1
    net = validate(ProjectSpec(activities=acts, precedence=matrix))
    assert enumerate_paths(net).n_paths == 2 ** 12
    with pytest.raises(PathExplosion):
        enumerate_paths(net, cap=1000)


def test_forward_pass_equals_max_path_sum():
    rng = np.random.default_rng(53)
    for _ in range(40):
        net = validate(random_dag_spec(rng, n_real=int(rng.integers(2, 10))))
        d = rng.integers(0, 9, size=len(net.nodes)).astype(float)
        d[0] = d[-1] = 0.0
        result = forward_backward(net, d)
        paths = oracles.brute_paths(oracles.pred_lists(net))
        assert result.duration == oracles.brute_pd(paths, d)


def test_forward_backward_owns_read_only_arrays(figure3_network):
    d = figure3_network.mean_durations()
    result = forward_backward(figure3_network, d)
    d[1] += 1.0  # the caller's array stays writable and the result keeps its copy
    assert result.durations[1] == figure3_network.mean_durations()[1]
    for field in ("durations", "es", "ef", "ls", "lf", "total_float", "critical", "costs"):
        with pytest.raises(ValueError):
            getattr(result, field)[0] = 0.0


def test_critical_set_is_union_of_argmax_paths():
    rng = np.random.default_rng(54)
    for _ in range(40):
        net = validate(random_dag_spec(rng, n_real=int(rng.integers(2, 10))))
        d = rng.integers(0, 9, size=len(net.nodes)).astype(float)
        d[0] = d[-1] = 0.0
        result = forward_backward(net, d)
        paths = oracles.brute_paths(oracles.pred_lists(net))
        expected = oracles.brute_critical(paths, d, tol=0.0)
        assert set(np.flatnonzero(result.critical)) == expected


# -- planned value curve -----------------------------------------------------

def one_activity_network(dist=None, fixed=8.0, rate=1.0):
    spec = chain_spec([dist or Distribution.point(4)], fixed=fixed, rate=rate)
    return validate(spec)


def test_pv_linear_accrual():
    net = one_activity_network()
    result = forward_backward(net, np.array([0.0, 4.0, 0.0]))
    # (8 + 4) money over 4 time units accrues 3 per unit
    assert result.value_at(2.0) == pytest.approx(6.0)
    assert result.value_at(4.0) == pytest.approx(12.0)
    assert result.value_at(0.0) == 0.0
    assert result.bac == 12.0


def test_pv_zero_costs():
    net = validate(chain_spec([Distribution.point(3)]))
    result = forward_backward(net, np.array([0.0, 3.0, 0.0]))
    _, rows = pv_table(result, 101)
    assert len(rows) == 101
    assert all(value == 0.0 for _, value in rows)


def test_pv_symmetric_serial_midpoint():
    spec = chain_spec([Distribution.point(2), Distribution.point(2)], fixed=10.0, rate=0.0)
    net = validate(spec)
    result = forward_backward(net, np.array([0.0, 2.0, 2.0, 0.0]))
    assert result.value_at(result.duration / 2) == pytest.approx(result.bac / 2)


def test_pv_endpoints_exact_random_networks():
    rng = np.random.default_rng(55)
    for _ in range(25):
        net = validate(random_dag_spec(rng, n_real=int(rng.integers(2, 9)),
                                       with_risks=int(rng.integers(0, 3))))
        result = forward_backward(net, net.mean_durations())
        values = result.value_at(np.linspace(0.0, result.duration, 101))
        assert values[0] == pytest.approx(0.0, abs=1e-12)
        assert values[-1] == pytest.approx(result.bac, rel=1e-9)
        assert (np.diff(values) >= -1e-9).all()
        breaks = np.sort(np.concatenate([result.es, result.ef]))
        assert (np.diff(result.value_at(breaks)) >= 0.0).all()


def test_pv_milestone_step():
    # zero-duration costed activity: the payment steps in at its start time
    acts = [dummy("A0"),
            Activity(id="B1", name="work", duration=Distribution.point(4), fixed_cost=4),
            Activity(id="M", name="milestone", duration=Distribution.point(0), fixed_cost=6),
            dummy("Af")]
    matrix = [[0, 0, 0, 0], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]
    net = validate(ProjectSpec(activities=acts, precedence=matrix))
    result = forward_backward(net, np.array([0.0, 4.0, 0.0, 0.0]))
    assert result.value_at(3.999) == pytest.approx(3.999)
    assert result.value_at(4.0) == pytest.approx(10.0)  # 4 accrued + 6 stepped in
    assert earned_schedule(result, 7.0) == pytest.approx(4.0)


# -- earned schedule ---------------------------------------------------------

def test_earned_schedule_endpoints():
    net = one_activity_network()
    result = forward_backward(net, np.array([0.0, 4.0, 0.0]))
    assert earned_schedule(result, 0.0) == 0.0
    assert earned_schedule(result, result.bac) == result.duration
    assert earned_schedule(result, 6.0) == pytest.approx(2.0)


def test_earned_schedule_out_of_range():
    net = one_activity_network()
    result = forward_backward(net, np.array([0.0, 4.0, 0.0]))
    with pytest.raises(EvOutOfRange):
        earned_schedule(result, -1.0)
    with pytest.raises(EvOutOfRange):
        earned_schedule(result, result.bac * 1.01)


def test_earned_schedule_inverts_pv_on_grid():
    rng = np.random.default_rng(56)
    net = validate(random_dag_spec(rng, n_real=6))
    result = forward_backward(net, net.mean_durations())
    for ev in np.linspace(0.0, result.bac, 17):
        t = earned_schedule(result, ev)
        assert result.value_at(t) >= ev - 1e-9 * max(1.0, result.bac)
        if t > 0:
            assert result.value_at(t * (1 - 1e-12)) <= ev + 1e-6 * max(1.0, result.bac)


# -- window fraction ---------------------------------------------------------

def reference_window_fraction(t, start, finish, step_closed):
    """Masked form with a separate step branch for zero-length windows;
    window_fraction must match it bit for bit."""
    zero = finish == start
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        frac = (t - start) / (finish - start)
    ramp = np.where(t >= finish, 1.0, np.where(t <= start, 0.0, frac))
    step = np.where(t >= start if step_closed else t > start, 1.0, 0.0)
    return np.where(zero, step, ramp)


_times = st.floats(0.0, 1e6, allow_nan=False)
_windows = st.tuples(
    _times,
    st.one_of(st.just(0.0), st.floats(0.0, 1e3, allow_nan=False)),
    st.one_of(st.sampled_from(("start", "finish")), _times),
)
# zero-length windows before, at and after their step; t exactly at start and finish
_edges = [(1.0, 0.0, "start"), (1.0, 0.0, 0.5), (1.0, 0.0, 1.5),
          (0.5, 1.0, "start"), (0.5, 1.0, "finish"), (0.5, 1.0, 1.0), (0.0, 0.0, 0.0)]


@settings(max_examples=200, deadline=None)
@given(st.lists(_windows, min_size=1, max_size=40), st.booleans())
@example(_edges, True)
@example(_edges, False)
@example([(0.0, 2.225073858507e-311, 1.0)], False)  # subnormal length: the ramp overflows
def test_window_fraction_matches_reference_bitwise(windows, step_closed):
    start = np.array([s for s, _, _ in windows])
    finish = start + np.array([length for _, length, _ in windows])
    t = np.array([s if at == "start" else f if at == "finish" else at
                  for (s, _, at), f in zip(windows, finish)])
    got = window_fraction(t, start, finish, step_closed)
    want = reference_window_fraction(t, start, finish, step_closed)
    assert got.tobytes() == want.tobytes()


# -- one implementation against the code it replaced -------------------------

def reference_forward_backward(network, d):
    """The scalar CPM loops that cpm.passes replaced, as a dict of the
    CpmResult fields they set; every pass must match them bit for bit."""
    nodes = network.nodes
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
    return dict(es=es, ef=ef, ls=ls, lf=lf, total_float=total_float,
                critical=total_float <= CRIT_TOL, duration=project_duration)


def _reference_accrual(ts, costs, start, finish, step_closed):
    out = np.zeros(len(ts))
    for j in range(len(costs)):
        if costs[j] != 0.0:
            out += costs[j] * window_fraction(ts, start[j], finish[j], step_closed)
    return out


def reference_planned_value(network, result, grid_points):
    """The knot-based planned value that the window accrual replaced:
    (grid values, knot times, knot values). Cost steps appear as duplicated
    knot times holding the left and right values."""
    costs = network.fixed_costs() + network.rates() * result.durations
    start, finish = result.es, result.ef
    project_duration = result.duration

    breaks = np.unique(np.concatenate([[0.0, project_duration], start, finish]))
    breaks = breaks[(breaks >= 0.0) & (breaks <= project_duration)]
    right = _reference_accrual(breaks, costs, start, finish, step_closed=True)
    left = _reference_accrual(breaks, costs, start, finish, step_closed=False)
    knot_times, knot_values = [], []
    for t, vl, vr in zip(breaks, left, right):
        if vl != vr:
            knot_times.append(t)
            knot_values.append(vl)
        knot_times.append(t)
        knot_values.append(vr)

    times = np.linspace(0.0, project_duration, grid_points)
    values = _reference_accrual(times, costs, start, finish, step_closed=True)
    return values, np.array(knot_times), np.array(knot_values)


def reference_value_at(kt, kv, duration, t):
    """Linear interpolation between the knots (right-continuous at steps)."""
    tq = np.atleast_1d(np.clip(np.asarray(t, dtype=float), 0.0, duration))
    last = len(kt) - 1
    i = np.searchsorted(kt, tq, side="right") - 1
    i = np.clip(i, 0, max(last - 1, 0))
    t0, t1 = kt[i], kt[np.minimum(i + 1, last)]
    v0, v1 = kv[i], kv[np.minimum(i + 1, last)]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        frac = (tq - t0) / (t1 - t0)
    return np.where(tq >= t1, v1, np.where(tq <= t0, v0, v0 + (v1 - v0) * frac))


def reference_earned_schedule(kt, kv, bac, duration, ev):
    """The knot search that first_reach replaced in earned_schedule, with
    first_reach's last step: a knot value equal to `ev` is reached at its
    knot time exactly, and the interpolation is clamped to that time."""
    if ev >= bac:
        return duration
    i = int(np.searchsorted(kv, ev, side="left"))
    if i == 0:
        return float(kt[0])
    t0, v0 = kt[i - 1], kv[i - 1]
    t1, v1 = kt[i], kv[i]
    if v1 == ev:
        return float(t1)
    return float(min(t0 + (ev - v0) * (t1 - t0) / (v1 - v0), t1))


def _degenerate_network(seed, n_real, with_risks):
    rng = np.random.default_rng(seed)
    spec = random_dag_spec(rng, n_real=n_real, with_risks=with_risks)
    return validate(with_degenerate_nodes(rng, spec)), rng


def _bits(value):
    return np.asarray(value).tobytes()


_networks = (st.integers(0, 2**32 - 1), st.integers(1, 12), st.integers(0, 3))


@settings(max_examples=60, deadline=None)
@given(*_networks)
@example(0, 1, 0)
@example(7, 12, 3)
def test_plan_and_forward_backward_match_scalar_reference_bitwise(seed, n_real, with_risks):
    net, rng = _degenerate_network(seed, n_real, with_risks)
    sampled = rng.choice(DYADIC, size=len(net.nodes)) * (rng.random(len(net.nodes)) < 0.7)
    for durations, result in ((net.mean_durations(), plan(net)),
                              (sampled, forward_backward(net, sampled))):
        want = reference_forward_backward(net, durations)
        for field, value in want.items():
            assert _bits(getattr(result, field)) == _bits(value), field
        assert result.durations.tobytes() == durations.tobytes()


@settings(max_examples=25, deadline=None)
@given(*_networks, st.integers(1, 60), st.integers(1, 3))
@example(3, 6, 2, 1, 1)
def test_ensemble_passes_match_scalar_reference_bitwise(seed, n_real, with_risks,
                                                        n_runs, workers):
    net, _ = _degenerate_network(seed, n_real, with_risks)
    ens = run_ensemble(net, SimConfig(n_runs=n_runs, seed=seed % 1000), workers=workers)
    planned = reference_forward_backward(net, net.mean_durations())
    assert ens.plan.es.tobytes() == planned["es"].tobytes()
    assert ens.plan.ef.tobytes() == planned["ef"].tobytes()
    assert ens.plan.duration == planned["duration"]
    for k in range(n_runs):
        want = reference_forward_backward(net, ens.durations[k])
        assert ens.starts[k].tobytes() == want["es"].tobytes()
        assert ens.finishes[k].tobytes() == want["ef"].tobytes()
        assert ens.critical[k].tobytes() == want["critical"].tobytes()
        assert _bits(ens.total_duration[k]) == _bits(want["duration"])


@settings(max_examples=60, deadline=None)
@given(*_networks, st.integers(2, 150), st.floats(0.0, 1.0))
@example(0, 1, 0, 2, 0.5)
@example(5, 9, 3, 101, 1.0)
def test_planned_value_matches_knot_reference(seed, n_real, with_risks, grid_points, x):
    net, _ = _degenerate_network(seed, n_real, with_risks)
    result = plan(net)
    times = np.linspace(0.0, result.duration, grid_points)
    values, kt, kv = reference_planned_value(net, result, grid_points)
    assert result.value_at(times).tobytes() == values.tobytes()
    # the exported table is the same grid, bit for bit
    _, rows = pv_table(result, grid_points)
    assert np.array(rows).tobytes() == np.column_stack([times, values]).tobytes()

    # earned schedule bit for bit at every knot value, between knots and at
    # a drawn fraction; the knot search cannot look past PV(PD), the last knot
    top = min(result.bac, kv[-1])
    evs = [0.0, x * top, top, result.bac, *kv, *((kv[:-1] + kv[1:]) / 2)]
    for ev in evs:
        if kv[-1] < ev < result.bac:
            continue
        got = earned_schedule(result, ev)
        want = reference_earned_schedule(kt, kv, result.bac, result.duration, ev)
        assert _bits(got) == _bits(want), ev
        assert 0.0 <= got <= result.duration

    # on [0, PD] and past it, the exact accrual agrees with interpolation
    # between the knots (which clipped t < 0 up to PV(0); the accrual reads 0)
    ts = np.concatenate([kt, times, [2.0 * result.duration + 1.0]])
    tol = 1e-12 * max(1.0, result.bac)
    assert np.allclose(result.value_at(ts), reference_value_at(kt, kv, result.duration, ts),
                       rtol=0.0, atol=tol)


def test_plan_bac_is_planned_value_at_planned_end():
    # one BAC: the node-order sum of the plan's costs is PV(PD) bit for bit,
    # wherever it is read (pairwise summation misses it by an ulp on 137,
    # 606 and 723, among others), so an EV an ulp short of BAC is reached
    # inside the plan
    for seed in (*range(400), 606, 723):
        rng = np.random.default_rng(seed)
        net = validate(random_dag_spec(rng, n_real=int(rng.integers(6, 30))))
        result = plan(net)
        ens = run_ensemble(net, SimConfig(n_runs=1, seed=seed))
        values = (result.value_at(result.duration), pv_table(result, 101)[1][-1][1],
                  ens.plan.bac)
        assert [_bits(v) for v in values] == [_bits(result.bac)] * 3, seed
        earned = earned_schedule(result, float(np.nextafter(result.bac, 0.0)))
        assert 0.0 < earned <= result.duration, seed
