import numpy as np
import pytest

from netgen import chain_spec
from riskmc import (
    ControlObservation,
    Distribution,
    ProjectSpec,
    RiskEvent,
    SimConfig,
    activity_risk_index,
    control_indices,
    cross_section,
    plan,
    planned_value_curve,
    risk_baselines,
    run_ensemble,
    sevm_forecast,
    triad,
    validate,
)
from riskmc.errors import DegenerateProject, EvOutOfRange, EvZero, KTooLarge


def build(spec, n=20_000, seed=301):
    net = validate(spec)
    ens = run_ensemble(net, SimConfig(n_runs=n, seed=seed))
    return net, ens, plan(net)


@pytest.fixture(scope="module")
def serial_iid():
    # two iid symmetric activities with equal planned value
    spec = chain_spec([Distribution.triangular(1, 2, 3)] * 2, fixed=10, rate=0)
    return build(spec, n=100_000)


# -- risk baselines ----------------------------------------------------------

def test_srb_endpoints(serial_iid):
    _, ens, planned = serial_iid
    base = risk_baselines(ens, planned)
    assert base.srb[0] == 0.0
    assert base.srb[-1] == pytest.approx(base.sigma_duration, rel=1e-6)
    assert base.crb[-1] == pytest.approx(base.sigma_cost, rel=1e-6)
    assert (np.diff(base.srb) >= -1e-12).all()
    assert (np.diff(base.crb) >= -1e-12).all()


def test_srb_halfway_two_equal_activities(serial_iid):
    # equal shares: at the end of the first window SRB = sigma * sqrt(1/2)
    _, ens, planned = serial_iid
    base = risk_baselines(ens, planned)
    assert base.srb_at(planned.duration / 2) == pytest.approx(
        base.sigma_duration * np.sqrt(0.5), rel=0.02)


def test_baseline_degenerate_project():
    _, ens, planned = build(chain_spec([Distribution.point(4)], fixed=3, rate=1), n=200)
    with pytest.raises(DegenerateProject):
        risk_baselines(ens, planned)


def test_baseline_exact_evaluator_matches_grid(serial_iid):
    _, ens, planned = serial_iid
    base = risk_baselines(ens, planned, grid_points=41)
    for i in (0, 7, 20, 40):
        assert base.srb_at(base.times[i]) == pytest.approx(base.srb[i], abs=1e-12)
        assert base.crb_at(base.times[i]) == pytest.approx(base.crb[i], abs=1e-12)
    # flat extension past the planned end
    assert base.srb_at(planned.duration * 2) == pytest.approx(base.sigma_duration, rel=1e-9)


# -- activity risk index -----------------------------------------------------

def test_ari_single_stochastic_activity():
    _, ens, planned = build(chain_spec([Distribution.uniform(1, 3)]), n=2000)
    ari = activity_risk_index(risk_baselines(ens, planned))
    by_id = dict(zip(ari.node_ids, ari.ari))
    assert by_id["B1"] == pytest.approx(100.0)
    assert ari.node_ids[ari.ranking[0]] == "B1"


def test_ari_two_serial_iid_split(serial_iid):
    _, ens, planned = serial_iid
    ari = activity_risk_index(risk_baselines(ens, planned))
    by_id = dict(zip(ari.node_ids, ari.ari))
    assert by_id["B1"] == pytest.approx(50.0, abs=2.0)
    assert by_id["B2"] == pytest.approx(50.0, abs=2.0)
    assert by_id["A0"] == 0.0
    assert ari.ari.sum() == pytest.approx(100.0, abs=1e-9)


def test_ari_degenerate_schedule():
    spec = chain_spec([Distribution.point(2)], fixed=0, rate=0)
    risky = ProjectSpec(spec.activities, spec.precedence,
                        (RiskEvent(id="RC", name="c", probability=0.5, kind="cost",
                                   target="B1", impact=Distribution.point(10)),))
    _, ens, planned = build(risky, n=500)
    base = risk_baselines(ens, planned)  # cost variance keeps this legal
    with pytest.raises(DegenerateProject):
        activity_risk_index(base)


# -- control indices ---------------------------------------------------------

def test_on_plan_observation(serial_iid):
    net, ens, planned = serial_iid
    base = risk_baselines(ens, planned)
    pv = planned_value_curve(net, planned)
    t = planned.duration / 2
    value = pv.value_at(t)
    ci = control_indices(ControlObservation(t=t, ev=value, ac=value), base, pv)
    assert ci.schedule_deviation == pytest.approx(0.0, abs=1e-9)
    assert ci.cost_deviation == 0.0
    assert ci.scoi == pytest.approx(base.srb_at(t), abs=1e-9)
    assert ci.ccoi == pytest.approx(base.crb_at(t), abs=1e-9)
    assert ci.scoi >= 0.0 and ci.ccoi >= 0.0


def test_zero_ev_measures_pure_delay(serial_iid):
    net, ens, planned = serial_iid
    base = risk_baselines(ens, planned)
    pv = planned_value_curve(net, planned)
    ci = control_indices(ControlObservation(t=1.5, ev=0.0, ac=0.0), base, pv)
    assert ci.earned_time == 0.0
    assert ci.schedule_deviation == 1.5


def test_deterministic_schedule_deviation_eats_no_budget():
    # point durations + a cost risk: schedule baseline is identically zero
    spec = chain_spec([Distribution.point(2)] * 2, fixed=10, rate=0)
    risky = ProjectSpec(spec.activities, spec.precedence,
                        (RiskEvent(id="RC", name="c", probability=0.5, kind="cost",
                                   target="B1", impact=Distribution.point(10)),))
    net, ens, planned = build(risky, n=500)
    base = risk_baselines(ens, planned)
    pv = planned_value_curve(net, planned)
    delay = 0.75
    obs = ControlObservation(t=2.0 + delay, ev=pv.value_at(2.0), ac=pv.value_at(2.0))
    ci = control_indices(obs, base, pv)
    assert ci.srb == 0.0
    assert ci.scoi == pytest.approx(-delay)


def test_ev_out_of_range(serial_iid):
    net, ens, planned = serial_iid
    base = risk_baselines(ens, planned)
    pv = planned_value_curve(net, planned)
    with pytest.raises(EvOutOfRange):
        control_indices(ControlObservation(t=1, ev=pv.bac * 2, ac=0), base, pv)


# -- cross sections ----------------------------------------------------------

def test_cross_section_endpoint_recovery(figure3_network):
    ens = run_ensemble(figure3_network, SimConfig(n_runs=3000, seed=5))
    section_t, section_c = cross_section(ens, 1.0)
    assert np.array_equal(section_t, ens.total_duration)
    assert np.array_equal(section_c, ens.total_cost)


def test_cross_section_point_project_constant():
    _, ens, _ = build(chain_spec([Distribution.point(2), Distribution.point(3)],
                                 fixed=6, rate=1), n=300)
    for x in (0.25, 0.5, 0.9):
        section_t, section_c = cross_section(ens, x)
        assert np.ptp(section_t) == 0.0
        assert np.ptp(section_c) == 0.0


def test_cross_section_half_is_first_activity_finish(serial_iid):
    net, ens, _ = serial_iid
    section_t, section_c = cross_section(ens, 0.5)
    first = net.index_of("B1")
    assert np.allclose(section_t, ens.durations[:, first], atol=1e-12)
    # the first activity's full fixed cost is in by then, the second not started
    assert np.allclose(section_c, 10.0, atol=1e-12)


def test_cross_section_handles_value_jumps():
    # a zero-duration costed milestone makes the EV trajectory jump; the
    # inversion must land crossings before, at, and after the jump exactly
    from netgen import dummy
    from riskmc import Activity

    acts = [dummy("A0"),
            Activity(id="B1", name="b1", duration=Distribution.point(2), fixed_cost=4),
            Activity(id="M", name="pay", duration=Distribution.point(0), fixed_cost=6),
            Activity(id="B2", name="b2", duration=Distribution.point(2), fixed_cost=10),
            dummy("Af")]
    matrix = [[0] * 5 for _ in range(5)]
    for succ, pred in ((1, 0), (2, 1), (3, 2), (4, 3)):
        matrix[succ][pred] = 1
    from riskmc import ProjectSpec
    net = validate(ProjectSpec(activities=acts, precedence=matrix))
    ens = run_ensemble(net, SimConfig(n_runs=8, seed=1))
    assert ens.bac == 20.0
    # EV ramps 0->4 on [0,2], jumps to 10 at t=2, ramps 10->20 on [2,4]
    for x, expected_t in ((0.2, 2.0), (0.25, 2.0), (0.5, 2.0), (0.75, 3.0), (0.1, 1.0)):
        section_t, _ = cross_section(ens, x)
        assert (section_t == expected_t).all(), x


def test_cross_section_monotone_in_x(figure3_network):
    ens = run_ensemble(figure3_network, SimConfig(n_runs=2000, seed=8))
    previous = np.zeros(ens.n_runs)
    for x in (0.2, 0.4, 0.6, 0.8, 1.0):
        section_t, _ = cross_section(ens, x)
        assert (section_t >= previous - 1e-12).all()
        previous = section_t


def test_cross_section_rejects_bad_fraction(figure3_network):
    ens = run_ensemble(figure3_network, SimConfig(n_runs=100, seed=8))
    with pytest.raises(EvZero):
        cross_section(ens, 0.0)
    with pytest.raises(EvOutOfRange):
        cross_section(ens, 1.5)


# -- triad -------------------------------------------------------------------

def test_triad_at_medians_reads_on(serial_iid):
    _, ens, _ = serial_iid
    section_t, section_c = cross_section(ens, 0.5)
    obs = ControlObservation(t=float(np.median(section_t)),
                             ev=0.5 * ens.bac, ac=float(np.median(section_c)))
    report = triad(obs, ens)
    assert report.schedule_percentile == pytest.approx(50.0, abs=1.0)
    assert report.cost_percentile == pytest.approx(50.0, abs=1.0)
    assert report.schedule_status == "on"
    assert report.cost_status == "on"


def test_triad_beyond_every_run_is_delayed(serial_iid):
    _, ens, _ = serial_iid
    section_t, _ = cross_section(ens, 0.5)
    obs = ControlObservation(t=float(section_t.max()) + 1.0, ev=0.5 * ens.bac,
                             ac=10.0)
    report = triad(obs, ens)
    assert report.schedule_percentile == 100.0
    assert report.schedule_status == "delayed"


def test_triad_on_plan_symmetric_project(serial_iid):
    net, ens, planned = serial_iid
    pv = planned_value_curve(net, planned)
    t = planned.duration / 2
    obs = ControlObservation(t=t, ev=pv.value_at(t), ac=pv.value_at(t))
    report = triad(obs, ens)
    assert report.completion == pytest.approx(0.5)
    assert report.schedule_percentile == pytest.approx(50.0, abs=3.0)
    assert report.cost_percentile == pytest.approx(50.0, abs=3.0)


def test_triad_ev_zero(serial_iid):
    _, ens, _ = serial_iid
    with pytest.raises(EvZero):
        triad(ControlObservation(t=1.0, ev=0.0, ac=5.0), ens)


def test_triad_invariant_under_money_rescaling():
    spec = chain_spec([Distribution.uniform(1, 3)] * 2, fixed=8, rate=2)
    doubled = chain_spec([Distribution.uniform(1, 3)] * 2, fixed=16, rate=4)
    cfg = SimConfig(n_runs=5000, seed=77)
    ens = run_ensemble(validate(spec), cfg)
    ens2 = run_ensemble(validate(doubled), cfg)
    obs = ControlObservation(t=2.1, ev=0.4 * ens.bac, ac=0.45 * ens.bac)
    obs2 = ControlObservation(t=2.1, ev=0.4 * ens2.bac, ac=0.45 * ens2.bac)
    a, b = triad(obs, ens), triad(obs2, ens2)
    assert a.schedule_percentile == b.schedule_percentile
    assert a.cost_percentile == b.cost_percentile
    assert (a.schedule_status, a.cost_status) == (b.schedule_status, b.cost_status)


# -- SEVM forecast -----------------------------------------------------------

def test_sevm_nearest_run_recovers_itself(figure3_network):
    ens = run_ensemble(figure3_network, SimConfig(n_runs=2000, seed=15))
    x = 0.999
    section_t, section_c = cross_section(ens, x)
    run = 123
    obs = ControlObservation(t=float(section_t[run]), ev=x * ens.bac,
                             ac=float(section_c[run]))
    forecast = sevm_forecast(obs, ens, k_neighbors=1)
    assert forecast.neighbor_runs.tolist() == [run]
    assert forecast.eac_duration == ens.total_duration[run]
    assert forecast.eac_cost == ens.total_cost[run]


def test_sevm_whole_ensemble_reproduces_unconditional_stats(figure3_network):
    ens = run_ensemble(figure3_network, SimConfig(n_runs=5000, seed=16))
    obs = ControlObservation(t=4.0, ev=0.5 * ens.bac, ac=0.5 * ens.bac)
    forecast = sevm_forecast(obs, ens, k_neighbors=ens.n_runs)
    assert forecast.eac_duration == pytest.approx(ens.total_duration.mean(), rel=1e-12)
    assert forecast.eac_cost == pytest.approx(ens.total_cost.mean(), rel=1e-12)


def test_sevm_deterministic_project():
    _, ens, _ = build(chain_spec([Distribution.point(3)] * 2, fixed=5, rate=1), n=400)
    obs = ControlObservation(t=3.0, ev=0.5 * ens.bac, ac=0.5 * ens.bac)
    forecast = sevm_forecast(obs, ens, k_neighbors=100)
    assert forecast.p_late == 0.0
    assert all(v == ens.planned_duration for _, v in forecast.duration_interval)
    assert all(v == ens.bac for _, v in forecast.cost_interval)
    assert not forecast.neighbor_late.any()


def test_sevm_labels_partition_by_planned_duration(figure3_network):
    ens = run_ensemble(figure3_network, SimConfig(n_runs=3000, seed=19))
    obs = ControlObservation(t=4.0, ev=0.5 * ens.bac, ac=0.5 * ens.bac)
    forecast = sevm_forecast(obs, ens)
    late = ens.total_duration[forecast.neighbor_runs] > ens.planned_duration
    assert np.array_equal(forecast.neighbor_late, late)
    assert forecast.p_late == late.mean()


def test_sevm_k_too_large_and_ev_zero(figure3_network):
    ens = run_ensemble(figure3_network, SimConfig(n_runs=200, seed=20))
    obs = ControlObservation(t=4.0, ev=0.5 * ens.bac, ac=0.5 * ens.bac)
    with pytest.raises(KTooLarge):
        sevm_forecast(obs, ens, k_neighbors=201)
    with pytest.raises(EvZero):
        sevm_forecast(ControlObservation(t=4.0, ev=0.0, ac=1.0), ens)


def test_sevm_linear_estimator_runs(figure3_network):
    ens = run_ensemble(figure3_network, SimConfig(n_runs=2000, seed=21))
    obs = ControlObservation(t=4.0, ev=0.5 * ens.bac, ac=0.5 * ens.bac)
    forecast = sevm_forecast(obs, ens, k_neighbors=500, estimator="linear")
    assert np.isfinite(forecast.eac_duration) and np.isfinite(forecast.eac_cost)
    lo, hi = forecast.duration_interval[0][1], forecast.duration_interval[-1][1]
    assert lo <= hi
