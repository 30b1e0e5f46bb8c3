import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from netgen import chain_spec, ladder_spec, parallel_spec, random_dag_spec
from riskmc import (
    Activity,
    Distribution,
    ProjectSpec,
    earned_schedule,
    enumerate_paths,
    forward_backward,
    planned_value_curve,
    validate,
)
from riskmc.cpm import count_paths, window_fraction
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


def test_critical_set_is_union_of_argmax_paths():
    rng = np.random.default_rng(54)
    for _ in range(40):
        net = validate(random_dag_spec(rng, n_real=int(rng.integers(2, 10))))
        d = rng.integers(0, 9, size=len(net.nodes)).astype(float)
        d[0] = d[-1] = 0.0
        result = forward_backward(net, d, crit_tol=0.0)
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
    pv = planned_value_curve(net, result)
    # (8 + 4) money over 4 time units accrues 3 per unit
    assert pv.value_at(2.0) == pytest.approx(6.0)
    assert pv.value_at(4.0) == pytest.approx(12.0)
    assert pv.value_at(0.0) == 0.0
    assert pv.bac == 12.0


def test_pv_zero_costs():
    net = validate(chain_spec([Distribution.point(3)]))
    result = forward_backward(net, np.array([0.0, 3.0, 0.0]))
    pv = planned_value_curve(net, result)
    assert (pv.values == 0.0).all()


def test_pv_symmetric_serial_midpoint():
    spec = chain_spec([Distribution.point(2), Distribution.point(2)], fixed=10.0, rate=0.0)
    net = validate(spec)
    result = forward_backward(net, np.array([0.0, 2.0, 2.0, 0.0]))
    pv = planned_value_curve(net, result)
    assert pv.value_at(result.duration / 2) == pytest.approx(pv.bac / 2)


def test_pv_endpoints_exact_random_networks():
    rng = np.random.default_rng(55)
    for _ in range(25):
        net = validate(random_dag_spec(rng, n_real=int(rng.integers(2, 9)),
                                       with_risks=int(rng.integers(0, 3))))
        result = forward_backward(net, net.mean_durations())
        pv = planned_value_curve(net, result)
        assert pv.values[0] == pytest.approx(0.0, abs=1e-12)
        assert pv.values[-1] == pytest.approx(result.bac, rel=1e-9)
        assert (np.diff(pv.values) >= -1e-9).all()
        assert (np.diff(pv.knot_values) >= -1e-12).all()


def test_pv_milestone_step():
    # zero-duration costed activity: the payment steps in at its start time
    acts = [dummy("A0"),
            Activity(id="B1", name="work", duration=Distribution.point(4), fixed_cost=4),
            Activity(id="M", name="milestone", duration=Distribution.point(0), fixed_cost=6),
            dummy("Af")]
    matrix = [[0, 0, 0, 0], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]
    net = validate(ProjectSpec(activities=acts, precedence=matrix))
    result = forward_backward(net, np.array([0.0, 4.0, 0.0, 0.0]))
    pv = planned_value_curve(net, result)
    assert pv.value_at(3.999) == pytest.approx(3.999)
    assert pv.value_at(4.0) == pytest.approx(10.0)  # 4 accrued + 6 stepped in
    assert earned_schedule(pv, 7.0) == pytest.approx(4.0)


# -- earned schedule ---------------------------------------------------------

def test_earned_schedule_endpoints():
    net = one_activity_network()
    result = forward_backward(net, np.array([0.0, 4.0, 0.0]))
    pv = planned_value_curve(net, result)
    assert earned_schedule(pv, 0.0) == 0.0
    assert earned_schedule(pv, pv.bac) == result.duration
    assert earned_schedule(pv, 6.0) == pytest.approx(2.0)


def test_earned_schedule_out_of_range():
    net = one_activity_network()
    result = forward_backward(net, np.array([0.0, 4.0, 0.0]))
    pv = planned_value_curve(net, result)
    with pytest.raises(EvOutOfRange):
        earned_schedule(pv, -1.0)
    with pytest.raises(EvOutOfRange):
        earned_schedule(pv, pv.bac * 1.01)


def test_earned_schedule_inverts_pv_on_grid():
    rng = np.random.default_rng(56)
    net = validate(random_dag_spec(rng, n_real=6))
    result = forward_backward(net, net.mean_durations())
    pv = planned_value_curve(net, result)
    for ev in np.linspace(0.0, result.bac, 17):
        t = earned_schedule(pv, ev)
        assert pv.value_at(t) >= ev - 1e-9 * max(1.0, result.bac)
        if t > 0:
            assert pv.value_at(t * (1 - 1e-12)) <= ev + 1e-6 * max(1.0, result.bac)


# -- window fraction ---------------------------------------------------------

def reference_window_fraction(t, start, finish, step_closed):
    """Masked form with a separate step branch for zero-length windows;
    window_fraction must match it bit for bit."""
    zero = finish == start
    with np.errstate(divide="ignore", invalid="ignore"):
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
def test_window_fraction_matches_reference_bitwise(windows, step_closed):
    start = np.array([s for s, _, _ in windows])
    finish = start + np.array([length for _, length, _ in windows])
    t = np.array([s if at == "start" else f if at == "finish" else at
                  for (s, _, at), f in zip(windows, finish)])
    got = window_fraction(t, start, finish, step_closed)
    want = reference_window_fraction(t, start, finish, step_closed)
    assert got.tobytes() == want.tobytes()
