import math
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from netgen import block_windows, chain_spec, random_dag_spec, scaled_spec, with_degenerate_nodes
from test_cpm import reference_accrue, reference_interpolate, reference_window_fraction
from riskmc import (
    ControlObservation,
    Distribution,
    ProjectSpec,
    RiskEvent,
    activity_risk_index,
    control_indices,
    cross_section,
    earned_schedule,
    histogram_and_cdf,
    parse_project_text,
    plan,
    risk_baselines,
    run_ensemble,
    sensitivity_report,
    sevm_forecast,
    triad,
    validate,
)
import riskmc.montecarlo as montecarlo
from riskmc.control import _linear_predict, check_neighbors, completion_fraction
from riskmc.cpm import _BLOCK_CELLS, forward, window_fraction
from riskmc.csvout import baseline_table, pv_table
from riskmc.errors import (
    BadDefinition,
    BadDistributionParams,
    ConfigError,
    DegenerateProject,
    EmptySample,
    EvOutOfRange,
    EvZero,
    KTooLarge,
)


def build(spec, n=20_000, seed=301):
    net = validate(spec)
    ens = run_ensemble(net, n, seed)
    return net, ens, ens.plan


@pytest.fixture(scope="module")
def serial_iid():
    # two iid symmetric activities with equal planned value
    spec = chain_spec([Distribution.triangular(1, 2, 3)] * 2, fixed=10, rate=0)
    return build(spec, n=100_000)


# -- risk baselines ----------------------------------------------------------

def test_srb_endpoints(serial_iid):
    _, ens, planned = serial_iid
    base = risk_baselines(ens)
    times = np.linspace(0.0, planned.duration, 101)
    srb, crb = base.srb_at(times), base.crb_at(times)
    assert srb[0] == 0.0
    assert srb[-1] == pytest.approx(base.sigma_duration, rel=1e-6)
    assert crb[-1] == pytest.approx(base.sigma_cost, rel=1e-6)
    assert (np.diff(srb) >= -1e-12).all()
    assert (np.diff(crb) >= -1e-12).all()


def test_srb_halfway_two_equal_activities(serial_iid):
    # equal shares: at the end of the first window SRB = sigma * sqrt(1/2)
    _, ens, planned = serial_iid
    base = risk_baselines(ens)
    assert base.srb_at(planned.duration / 2) == pytest.approx(
        base.sigma_duration * np.sqrt(0.5), rel=0.02)


def test_baseline_degenerate_project():
    _, ens, _ = build(chain_spec([Distribution.point(4)], fixed=3, rate=1), n=200)
    with pytest.raises(DegenerateProject):
        risk_baselines(ens)


def test_baseline_exact_evaluator_matches_grid(serial_iid):
    _, ens, planned = serial_iid
    base = risk_baselines(ens)
    times = np.linspace(0.0, planned.duration, 41)
    srb, crb = base.srb_at(times), base.crb_at(times)
    assert srb.shape == crb.shape == times.shape
    for i in (0, 7, 20, 40):
        assert type(base.srb_at(times[i])) is float
        assert base.srb_at(times[i]) == srb[i]
        assert base.crb_at(times[i]) == crb[i]
    # flat extension past the planned end
    assert base.srb_at(planned.duration * 2) == pytest.approx(base.sigma_duration, rel=1e-9)


def _reference_baselines(base, planned, times):
    """The `elapsed @ shares` grid that the node-order accrual replaced."""
    elapsed = np.zeros((len(times), len(planned.node_ids)))
    for j in range(len(planned.node_ids)):
        elapsed[:, j] = window_fraction(times, planned.es[j], planned.ef[j])
    return (base.sigma_duration * np.sqrt(elapsed @ base.schedule_shares),
            base.sigma_cost * np.sqrt(elapsed @ base.cost_shares))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.integers(0, 3),
       st.integers(2, 80), st.integers(2, 120))
@example(3, 5, 2, 2, 2)
def test_baselines_match_matrix_reference(seed, n_real, with_risks, n_runs, grid_points):
    rng = np.random.default_rng(seed)
    spec = random_dag_spec(rng, n_real=n_real, with_risks=with_risks)
    net = validate(with_degenerate_nodes(rng, spec))
    ens = run_ensemble(net, n_runs, seed % 1000)
    planned = plan(net)
    try:
        base = risk_baselines(ens)
    except DegenerateProject:
        return
    times = np.linspace(0.0, planned.duration, grid_points)
    srb, crb = base.srb_at(times), base.crb_at(times)
    # summation moved from BLAS order to node order: equal to within 1e-15
    for got, want in zip((srb, crb), _reference_baselines(base, planned, times)):
        assert (np.abs(got - want) <= 1e-15 * want).all()
    # the vector evaluators are the scalar ones, bit for bit
    assert srb.tobytes() == np.array([base.srb_at(t) for t in times]).tobytes()
    assert crb.tobytes() == np.array([base.crb_at(t) for t in times]).tobytes()
    # and the exported table is them at the same grid
    _, columns = baseline_table(base, grid_points)
    assert np.array(columns).tobytes() == np.array([times, srb, crb]).tobytes()


def test_plan_curves_span_several_time_blocks(figure3_network):
    # 40 000 times of the 8-node plan are three blocks of 2**17 // 8 times
    ens = run_ensemble(figure3_network, 500, 12)
    p, base = ens.plan, risk_baselines(ens)
    times = np.linspace(0.0, p.duration, 40_000)
    assert -(-len(times) // (_BLOCK_CELLS // len(p.node_ids))) == 3
    assert p.value_at(times).tobytes() == reference_accrue(times, p.costs, p.es, p.ef).tobytes()
    _, (t, srb, crb) = baseline_table(base, len(times))
    assert t.tobytes() == times.tobytes()
    for got, shares, sigma in ((srb, base.schedule_shares, base.sigma_duration),
                               (crb, base.cost_shares, base.sigma_cost)):
        want = sigma * np.sqrt(reference_accrue(times, shares, p.es, p.ef))
        assert got.tobytes() == want.tobytes()
    edges = [0, 16_383, 16_384, 32_767, 32_768, 39_999]  # each side of a block's end
    assert [base.srb_at(times[i]) for i in edges] == srb[edges].tolist()
    assert [base.crb_at(times[i]) for i in edges] == crb[edges].tolist()


def test_nan_times_are_refused(figure3_network):
    # the accrual's clamp would take a nan ratio to a bound: a plausible
    # wrong value (the BAC, sigma, each run's total cost) instead of an error
    ens = run_ensemble(figure3_network, 50, 6)
    base = risk_baselines(ens)
    per_run = ens.total_duration / 2
    per_run[7] = math.nan
    for evaluate in (ens.plan.value_at, base.srb_at, base.crb_at):
        for t in (math.nan, np.array([1.0, math.nan])):
            with pytest.raises(ConfigError, match="nan"):
                evaluate(t)
    for evaluate in (ens.ev_at, ens.cost_at):
        for t in (math.nan, per_run):
            with pytest.raises(ConfigError, match="nan"):
                evaluate(t)
        for t in (np.ones(ens.n_runs - 1), np.ones((2, ens.n_runs)), np.ones(1)):
            with pytest.raises(ConfigError, match="one per run"):
                evaluate(t)


# -- activity risk index -----------------------------------------------------

def test_ari_single_stochastic_activity():
    _, ens, _ = build(chain_spec([Distribution.uniform(1, 3)]), n=2000)
    ari = activity_risk_index(risk_baselines(ens))
    by_id = dict(zip(ari.node_ids, ari.ari))
    assert by_id["B1"] == pytest.approx(100.0)
    assert ari.node_ids[ari.ranking[0]] == "B1"


def test_ari_two_serial_iid_split(serial_iid):
    _, ens, _ = serial_iid
    ari = activity_risk_index(risk_baselines(ens))
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
    _, ens, _ = build(risky, n=500)
    base = risk_baselines(ens)  # cost variance keeps this legal
    with pytest.raises(DegenerateProject):
        activity_risk_index(base)


# -- control indices ---------------------------------------------------------

def test_on_plan_observation(serial_iid):
    _, ens, planned = serial_iid
    base = risk_baselines(ens)
    t = planned.duration / 2
    value = planned.value_at(t)
    ci = control_indices(ControlObservation(t=t, ev=value, ac=value), base)
    assert ci.schedule_deviation == pytest.approx(0.0, abs=1e-9)
    assert ci.cost_deviation == 0.0
    assert ci.scoi == pytest.approx(base.srb_at(t), abs=1e-9)
    assert ci.ccoi == pytest.approx(base.crb_at(t), abs=1e-9)
    assert ci.scoi >= 0.0 and ci.ccoi >= 0.0


def test_zero_ev_measures_pure_delay(serial_iid):
    _, ens, _ = serial_iid
    base = risk_baselines(ens)
    ci = control_indices(ControlObservation(t=1.5, ev=0.0, ac=0.0), base)
    assert ci.earned_time == 0.0
    assert ci.schedule_deviation == 1.5


def test_deterministic_schedule_deviation_eats_no_budget():
    # point durations + a cost risk: schedule baseline is identically zero
    spec = chain_spec([Distribution.point(2)] * 2, fixed=10, rate=0)
    risky = ProjectSpec(spec.activities, spec.precedence,
                        (RiskEvent(id="RC", name="c", probability=0.5, kind="cost",
                                   target="B1", impact=Distribution.point(10)),))
    _, ens, planned = build(risky, n=500)
    base = risk_baselines(ens)
    delay = 0.75
    obs = ControlObservation(t=2.0 + delay, ev=planned.value_at(2.0), ac=planned.value_at(2.0))
    ci = control_indices(obs, base)
    assert ci.srb == 0.0
    assert ci.scoi == pytest.approx(-delay)


def test_ev_out_of_range(serial_iid):
    _, ens, planned = serial_iid
    base = risk_baselines(ens)
    with pytest.raises(EvOutOfRange):
        control_indices(ControlObservation(t=1, ev=planned.bac * 2, ac=0), base)


# -- cross sections ----------------------------------------------------------

def test_cross_section_endpoint_recovery(figure3_network):
    ens = run_ensemble(figure3_network, 3000, 5)
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
    first = net.ids().index("B1")
    assert np.allclose(section_t, ens.durations[first], atol=1e-12)
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
    chain = [(acts[k].id, acts[k - 1].id) for k in range(1, 5)]
    from riskmc import ProjectSpec
    net = validate(ProjectSpec(activities=acts, precedence=chain))
    ens = run_ensemble(net, 8, 1)
    assert ens.plan.bac == 20.0
    # EV ramps 0->4 on [0,2], jumps to 10 at t=2, ramps 10->20 on [2,4]
    for x, expected_t in ((0.2, 2.0), (0.25, 2.0), (0.5, 2.0), (0.75, 3.0), (0.1, 1.0)):
        section_t, _ = cross_section(ens, x)
        assert (section_t == expected_t).all(), x


def test_cross_section_near_the_float_range_is_where_the_runs_reach_it():
    # one activity near 1e308 that costs its duration is half done at half
    # its duration; the interpolation's product of value and time spans
    # passes the largest double there, and used to give each run's finish
    net = validate(chain_spec([Distribution.normal(1e308, 1e300)], fixed=0, rate=1))
    ens = run_ensemble(net, 200, 0)
    section_t, section_c = cross_section(ens, 0.5)
    assert section_t == pytest.approx(0.5 * ens.total_duration, rel=1e-12, abs=0.0)
    assert section_c == pytest.approx(0.5 * ens.total_cost, rel=1e-12, abs=0.0)


def test_cross_section_monotone_in_x(figure3_network):
    ens = run_ensemble(figure3_network, 2000, 8)
    previous = np.zeros(ens.n_runs)
    for x in (0.2, 0.4, 0.6, 0.8, 1.0):
        section_t, _ = cross_section(ens, x)
        assert (section_t >= previous - 1e-12).all()
        previous = section_t


def test_cross_section_rejects_bad_fraction(figure3_network):
    ens = run_ensemble(figure3_network, 100, 8)
    with pytest.raises(EvZero):
        cross_section(ens, 0.0)
    with pytest.raises(EvOutOfRange):
        cross_section(ens, 1.5)
    with pytest.raises(EvOutOfRange):
        cross_section(ens, math.nan)


def test_cross_section_keeps_its_interpolation_at_tiny_scales(figure3_spec):
    # at 2**-1000 in time and money a step's product (target - v0) * (t1 - t0)
    # is near 2**-2000, below the smallest double; unscaled it would round to
    # 0 and the crossing to the step's first event
    unit = run_ensemble(validate(figure3_spec), 2000, 3)
    tiny = run_ensemble(validate(scaled_spec(figure3_spec, -1000, -1000)), 2000, 3)
    for want, got in zip(cross_section(unit, 0.5), cross_section(tiny, 0.5)):
        np.testing.assert_allclose(got, np.ldexp(want, -1000), rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("scale", [0, -1000])
def test_earned_value_range_is_one_rule_relative_to_the_bac(figure3_spec, scale):
    # earned_schedule and the control cross-section refuse the same EVs:
    # outside [0, BAC * (1 + 1e-12)] at any scale. At 2**-1000 the BAC is
    # 8.2e-299, where an absolute slack would admit 1.5 BAC
    ens = run_ensemble(validate(scaled_spec(figure3_spec, scale, scale)), 10, 1)
    p = ens.plan
    edge = p.bac * (1.0 + 1e-12)
    assert earned_schedule(p, edge) == p.duration
    assert completion_fraction(ControlObservation(t=0.0, ev=edge, ac=0.0), ens) == 1.0
    for ev in (math.nextafter(edge, math.inf), 1.5 * p.bac, 1e6 * p.bac):
        with pytest.raises(EvOutOfRange):
            earned_schedule(p, ev)
        with pytest.raises(EvOutOfRange):
            completion_fraction(ControlObservation(t=0.0, ev=ev, ac=0.0), ens)
    with pytest.raises(EvOutOfRange):
        earned_schedule(p, -math.ulp(0.0))


def test_an_infinite_earned_value_is_refused_at_the_largest_bac():
    # BAC * (1 + 1e-12) is inf here, so the bound alone would admit EV = inf
    p = plan(validate(chain_spec([Distribution.point(1)], fixed=np.finfo(float).max)))
    assert p.bac == np.finfo(float).max
    assert earned_schedule(p, p.bac) == p.duration
    with pytest.raises(EvOutOfRange):
        earned_schedule(p, math.inf)


def _reference_cross_section(ensemble, x):
    """The O(n*m^2) scan over full (n, 2m+1) event matrices that
    cross_section replaced; cross_section must match it bit for bit. Its
    last step is first_reach's: a left limit equal to the target crosses at
    t1 exactly, and the interpolation is clamped to t1 (unclamped, rounding
    could land an ulp past the crossing event, even past the run's end)."""
    if x == 1.0:
        return ensemble.total_duration.copy(), ensemble.total_cost.copy()

    target = x * ensemble.plan.bac
    start, finish, _ = block_windows(ensemble)
    starts, finishes = start.T, finish.T  # (run, node), so each run's events form a row
    n, m = starts.shape
    events = np.concatenate([np.zeros((n, 1)), starts, finishes], axis=1)
    events.sort(axis=1)

    ev_right = np.zeros_like(events)
    ev_left = np.zeros_like(events)
    for j in range(m):
        pv_j = ensemble.plan.costs[j]
        if pv_j == 0.0:
            continue
        s, f = starts[:, j, None], finishes[:, j, None]
        ev_right += pv_j * reference_window_fraction(events, s, f, True)
        ev_left += pv_j * reference_window_fraction(events, s, f, False)

    idx = (ev_right < target).sum(axis=1)  # first event with ev >= target
    rows = np.arange(n)
    at_origin = idx == 0
    idx = np.maximum(idx, 1)
    t0 = events[rows, idx - 1]
    t1 = events[rows, idx]
    v0 = ev_right[rows, idx - 1]
    v1_left = ev_left[rows, idx]

    interp = reference_interpolate(target, t0, t1, v0, v1_left)
    crosses_open = v1_left > target
    times = np.where(at_origin, 0.0, np.where(crosses_open, np.minimum(interp, t1), t1))
    return times, ensemble.cost_at(times)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.integers(0, 3),
       st.floats(0.0, 1.0, exclude_min=True))
@example(0, 1, 0, 0.5)
@example(4, 6, 3, 1.0)
@example(11, 8, 2, 5e-324)
@example(617, 2, 0, 0.5)  # unclamped, a crossing lands an ulp past its run's end
def test_cross_section_matches_reference_bitwise(seed, n_real, with_risks, x):
    # random laws include point(0) nodes (value jumps, zero-length windows),
    # zero-cost nodes (pv_j == 0) and gated duration risks
    rng = np.random.default_rng(seed)
    spec = random_dag_spec(rng, n_real=n_real, edge_prob=0.4, with_risks=with_risks)
    ens = run_ensemble(validate(spec), 40, seed % 1000)
    fractions = [x, float(np.nextafter(1.0, 0.0))]
    if ens.plan.bac > 0.0:  # every node-prefix breakpoint of the planned value
        prefix = np.cumsum(ens.plan.costs) / ens.plan.bac
        fractions += [float(f) for f in prefix if 0.0 < f <= 1.0]
    for fraction in fractions:
        section_t, section_c = cross_section(ens, fraction)
        want_t, want_c = _reference_cross_section(ens, fraction)
        assert np.array_equal(section_t, want_t), fraction
        assert np.array_equal(section_c, want_c), fraction
        assert (section_t >= 0.0).all()
        assert (section_t <= ens.total_duration).all()
        # relative slack, plus an absolute floor for subnormal targets (x ~ 5e-324),
        # where float64 keeps no relative precision
        floor = fraction * ens.plan.bac * (1.0 - 1e-12) - np.finfo(float).tiny
        assert (ens.ev_at(section_t) >= floor).all()
        assert section_c.tobytes() == ens.cost_at(section_t).tobytes()


def _whole_ensemble_section(ensemble, x):
    """The cross-section over the whole ensemble at once, as it was before
    the blocks: one forward pass over every run, every run's (2m+1) events
    sorted in one (2m+1, n) array, one bisection of all runs through the
    node loop, then the node costs, a row at a time, accrued by the node
    loop at the times found. The blocked cross-section must match it bit
    for bit."""
    target = x * ensemble.plan.bac
    costs, d = ensemble.plan.costs, ensemble.durations
    starts = np.empty(d.shape)
    forward(ensemble.network, d, starts)
    finishes = starts + d
    m, n = starts.shape
    runs = np.arange(n)
    events = np.concatenate([np.zeros((1, n)), starts, finishes])
    events.sort(axis=0)
    lo, hi, v0 = np.zeros(n, dtype=int), np.full(n, 2 * m), np.zeros(n)
    while (lo < hi).any():
        mid = (lo + hi) // 2
        value = reference_accrue(events[mid, runs], costs, starts, finishes)
        below = value < target
        lo, hi = np.where(below, mid + 1, lo), np.where(below, hi, mid)
        v0 = np.where(below, value, v0)
    idx = np.maximum(lo, 1)
    t0, t1 = events[idx - 1, runs], events[idx, runs]
    v1_left = reference_accrue(t1, costs, starts, finishes, step_closed=False)
    interp = reference_interpolate(target, t0, t1, v0, v1_left)
    times = np.where(lo == 0, 0.0, np.where(v1_left > target, np.minimum(interp, t1), t1))
    return times, reference_accrue(times, list(ensemble.cost_rows()), starts, finishes)


def _block_sizes(ensemble):
    return [len(range(ensemble.n_runs)[runs]) for runs, *_ in ensemble.blocks()]


C = montecarlo._CHUNK


@pytest.mark.parametrize("n", [1, 2, 3, 31, 32, 33, 48, 49, C + 1])
def test_blocked_cross_section_matches_the_whole_ensemble_bitwise(n):
    # a block holds n // 16 runs (at least 2), so these run counts end on a
    # full block, one run past it (a block of one) or one short of it
    rng = np.random.default_rng(n)
    spec = random_dag_spec(rng, n_real=9, edge_prob=0.4, with_risks=3)
    ens = run_ensemble(validate(with_degenerate_nodes(rng, spec)), n, n)
    sizes = _block_sizes(ens)
    assert sum(sizes) == n and sizes[0] == min(n, max(2, n // 16))
    start, finish, _ = block_windows(ens)
    for x in (0.3, 0.5, 0.999):
        got, want = cross_section(ens, x), _whole_ensemble_section(ens, x)
        assert got[0].tobytes() == want[0].tobytes(), x
        assert got[1].tobytes() == want[1].tobytes(), x
        assert ens.ev_at(got[0]).tobytes() == reference_accrue(
            got[0], ens.plan.costs, start, finish).tobytes()


def test_blocked_cross_section_matches_the_whole_ensemble_at_the_block_cap():
    # 403 nodes cap a block at 2**17 // 403 = 325 runs, below n // 16; 16
    # full blocks and a last one of one run. Its point(0) and cost-free
    # nodes make starts and finishes coincide often, at 177 joins
    rng = np.random.default_rng(402)
    spec = random_dag_spec(rng, n_real=400, edge_prob=3 / 402, with_risks=2)
    net = validate(with_degenerate_nodes(rng, spec))
    cap = _BLOCK_CELLS // len(net.nodes)
    ens = run_ensemble(net, 16 * cap + 1, 4)
    assert _block_sizes(ens) == [cap] * 16 + [1]
    for x in (0.05, 0.5, 0.95):
        got, want = cross_section(ens, x), _whole_ensemble_section(ens, x)
        assert got[0].tobytes() == want[0].tobytes(), x
        assert got[1].tobytes() == want[1].tobytes(), x


# -- triad -------------------------------------------------------------------

def test_triad_at_medians_reads_on(serial_iid):
    _, ens, _ = serial_iid
    section_t, section_c = cross_section(ens, 0.5)
    obs = ControlObservation(t=float(np.median(section_t)),
                             ev=0.5 * ens.plan.bac, ac=float(np.median(section_c)))
    report = triad(obs, ens)
    assert report.schedule_percentile == pytest.approx(50.0, abs=1.0)
    assert report.cost_percentile == pytest.approx(50.0, abs=1.0)
    assert report.schedule_status == "on"
    assert report.cost_status == "on"


def test_triad_beyond_every_run_is_delayed(serial_iid):
    _, ens, _ = serial_iid
    section_t, _ = cross_section(ens, 0.5)
    obs = ControlObservation(t=float(section_t.max()) + 1.0, ev=0.5 * ens.plan.bac,
                             ac=10.0)
    report = triad(obs, ens)
    assert report.schedule_percentile == 100.0
    assert report.schedule_status == "delayed"


def test_triad_on_plan_symmetric_project(serial_iid):
    _, ens, planned = serial_iid
    t = planned.duration / 2
    obs = ControlObservation(t=t, ev=planned.value_at(t), ac=planned.value_at(t))
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
    n_runs, seed = 5000, 77
    ens = run_ensemble(validate(spec), n_runs, seed)
    ens2 = run_ensemble(validate(doubled), n_runs, seed)
    obs = ControlObservation(t=2.1, ev=0.4 * ens.plan.bac, ac=0.45 * ens.plan.bac)
    obs2 = ControlObservation(t=2.1, ev=0.4 * ens2.plan.bac, ac=0.45 * ens2.plan.bac)
    a, b = triad(obs, ens), triad(obs2, ens2)
    assert a.schedule_percentile == b.schedule_percentile
    assert a.cost_percentile == b.cost_percentile
    assert (a.schedule_status, a.cost_status) == (b.schedule_status, b.cost_status)


# -- SEVM forecast -----------------------------------------------------------

def test_sevm_nearest_run_recovers_itself(figure3_network):
    ens = run_ensemble(figure3_network, 2000, 15)
    x = 0.999
    section_t, section_c = cross_section(ens, x)
    run = 123
    obs = ControlObservation(t=float(section_t[run]), ev=x * ens.plan.bac,
                             ac=float(section_c[run]))
    forecast = sevm_forecast(obs, ens, k_neighbors=1)
    assert forecast.neighbor_runs.tolist() == [run]
    assert forecast.eac_duration == ens.total_duration[run]
    assert forecast.eac_cost == ens.total_cost[run]


def test_sevm_whole_ensemble_reproduces_unconditional_stats(figure3_network):
    ens = run_ensemble(figure3_network, 5000, 16)
    obs = ControlObservation(t=4.0, ev=0.5 * ens.plan.bac, ac=0.5 * ens.plan.bac)
    forecast = sevm_forecast(obs, ens, k_neighbors=ens.n_runs)
    assert forecast.eac_duration == pytest.approx(ens.total_duration.mean(), rel=1e-12)
    assert forecast.eac_cost == pytest.approx(ens.total_cost.mean(), rel=1e-12)


def test_sevm_deterministic_project():
    _, ens, _ = build(chain_spec([Distribution.point(3)] * 2, fixed=5, rate=1), n=400)
    obs = ControlObservation(t=3.0, ev=0.5 * ens.plan.bac, ac=0.5 * ens.plan.bac)
    forecast = sevm_forecast(obs, ens, k_neighbors=100)
    assert forecast.p_late == 0.0
    assert all(v == ens.plan.duration for _, v in forecast.duration_interval)
    assert all(v == ens.plan.bac for _, v in forecast.cost_interval)
    assert not forecast.neighbor_late.any()


def test_sevm_labels_partition_by_planned_duration(figure3_network):
    ens = run_ensemble(figure3_network, 3000, 19)
    obs = ControlObservation(t=4.0, ev=0.5 * ens.plan.bac, ac=0.5 * ens.plan.bac)
    forecast = sevm_forecast(obs, ens)
    late = ens.total_duration[forecast.neighbor_runs] > ens.plan.duration
    assert np.array_equal(forecast.neighbor_late, late)
    assert forecast.p_late == late.mean()


def test_sevm_k_too_large_and_ev_zero(figure3_network):
    ens = run_ensemble(figure3_network, 200, 20)
    obs = ControlObservation(t=4.0, ev=0.5 * ens.plan.bac, ac=0.5 * ens.plan.bac)
    with pytest.raises(KTooLarge):
        sevm_forecast(obs, ens, k_neighbors=201)
    with pytest.raises(EvZero):
        sevm_forecast(ControlObservation(t=4.0, ev=0.0, ac=1.0), ens)


def test_sevm_linear_estimator_runs(figure3_network):
    ens = run_ensemble(figure3_network, 2000, 21)
    obs = ControlObservation(t=4.0, ev=0.5 * ens.plan.bac, ac=0.5 * ens.plan.bac)
    forecast = sevm_forecast(obs, ens, k_neighbors=500, estimator="linear")
    assert np.isfinite(forecast.eac_duration) and np.isfinite(forecast.eac_cost)
    lo, hi = forecast.duration_interval[0][1], forecast.duration_interval[-1][1]
    assert lo <= hi


def test_sevm_linear_estimator_needs_four_neighbors(figure3_network):
    # three coefficients need a fourth point; below that it is refused, not
    # silently replaced by the mean
    ens = run_ensemble(figure3_network, 200, 21)
    obs = ControlObservation(t=4.0, ev=0.5 * ens.plan.bac, ac=0.5 * ens.plan.bac)
    for k in (1, 3):
        with pytest.raises(ConfigError, match="at least 4 neighbors"):
            sevm_forecast(obs, ens, k_neighbors=k, estimator="linear")
    linear = sevm_forecast(obs, ens, k_neighbors=4, estimator="linear")
    mean = sevm_forecast(obs, ens, k_neighbors=4)
    assert np.isfinite(linear.eac_duration) and linear.eac_duration != mean.eac_duration


def test_linear_fit_near_the_float_range_matches_the_fit_scaled_down():
    # y = 2.7e308 - t: the intercept lies past the largest double, where a
    # fit on the plain columns goes wrong; on columns scaled by powers of
    # two it predicts what the same runs scaled down by 2**4 predict
    rng = np.random.default_rng(7)
    t = rng.uniform(1.0, 1.7, 500) * 1e308
    c = rng.uniform(0.0, 1.0, 500)
    y = 2 * (1.35e308 - t / 2)
    got = _linear_predict(t, c, y, 1.2e308, 0.5)
    assert got == pytest.approx(1.5e308, rel=1e-9)
    assert got == math.ldexp(_linear_predict(t / 16, c, y / 16, 1.2e308 / 16, 0.5), 4)


# -- scale -------------------------------------------------------------------

@pytest.fixture(scope="module")
def thousand_activities():
    rng = np.random.default_rng(1000)
    spec = random_dag_spec(rng, n_real=1000, edge_prob=0.004, with_risks=10)
    net = validate(spec)
    ens = run_ensemble(net, 1000, 1)
    return ens, ControlObservation(t=0.55 * ens.plan.duration, ev=0.5 * ens.plan.bac,
                                   ac=0.55 * ens.plan.bac)


@pytest.mark.parametrize("analysis", [triad, sevm_forecast], ids=["triad", "sevm"])
def test_control_scales_to_a_thousand_activities(thousand_activities, analysis):
    ens, obs = thousand_activities
    assert len(ens.network.nodes) > 1000
    start = time.perf_counter()
    analysis(obs, ens)
    elapsed = time.perf_counter() - start
    print(f"  [{len(ens.network.nodes)} nodes, 1000 runs, {analysis.__name__}: {elapsed:.2f}s]", end="")
    assert elapsed <= 10.0


ZERO_COST = """[activities]
A0 "start" point(0) fixed=0 rate=0
A1 "work" uniform(1,2) fixed=0 rate=0
Af "finish" point(0) fixed=0 rate=0

[risks]
R1 "slip" p=0.5 kind=duration target=A1 impact=uniform(1,2)

[precedence]
A1 <- A0
Af <- A1
"""
OBSERVED = ControlObservation(t=4.0, ev=430.0, ac=440.0)

# (call on the figure3 network, error type, exact message): raise sites that
# no other in-process test reaches
REFUSALS = {
    "baselines on one run": (lambda net: risk_baselines(run_ensemble(net, 1, 0)),
                             ConfigError, "risk baselines need at least 2 runs"),
    "sensitivity on one run": (lambda net: sensitivity_report(run_ensemble(net, 1, 0)),
                               ConfigError, "sensitivity indices need at least 2 runs"),
    # before the zero-variance project's DegenerateProject
    "kendall": (lambda net: sensitivity_report(
                    run_ensemble(validate(chain_spec([Distribution.point(2)])), 10, 0), "kendall"),
                ConfigError, "unknown correlation method 'kendall'"),
    "float run count": (lambda net: run_ensemble(net, 1e3, 1),
                        ConfigError, "n_runs must be an integer, got 1000.0"),
    "float seed": (lambda net: run_ensemble(net, 10, 1.0),
                   ConfigError, "seed must be an integer, got 1.0"),
    "fractional neighbors": (lambda net: check_neighbors(2.5, 100),
                             ConfigError, "k_neighbors must be an integer, got 2.5"),
    "nan neighbors": (lambda net: check_neighbors(math.nan, 100),
                      ConfigError, "k_neighbors must be an integer, got nan"),
    "triad band above 50": (lambda net: triad(OBSERVED, run_ensemble(net, 100, 0), band=60),
                            ConfigError, "band must be a percentile half-width in [0, 50], got 60"),
    "zero neighbors": (lambda net: check_neighbors(0, 100),
                       ConfigError, "k_neighbors must be >= 1, got 0"),
    "median estimator": (lambda net: check_neighbors(5, 100, "median"),
                         ConfigError, "unknown estimator 'median'"),
    "empty histogram": (lambda net: histogram_and_cdf([]),
                        EmptySample, "histogram_and_cdf needs at least one sample"),
    "float bins": (lambda net: histogram_and_cdf([1.0, 2.0], bins=40.0),
                   ConfigError, "bins must be an integer, got 40.0"),
    "float grid": (lambda net: pv_table(plan(net), 101.0),
                   ConfigError, "grid_points must be an integer, got 101.0"),
    "risk probability above 1": (
        lambda net: parse_project_text(ZERO_COST.replace("p=0.5", "p=1.5"), source="p.project"),
        BadDefinition, "p.project:7: risk R1: probability must be in [0, 1]"),
    "point of two values": (lambda net: Distribution("point", (1.0, 2.0)),
                            BadDistributionParams, "point takes exactly one value"),
    "discrete atom of three": (lambda net: Distribution("discrete", ((1.0, 0.5, 0.5),)),
                               BadDistributionParams, "discrete atoms are (value, prob) pairs"),
    "triangular of two": (lambda net: Distribution("triangular", (1.0, 2.0)),
                          BadDistributionParams, "triangular takes (a, m, b)"),
    "normal of one": (lambda net: Distribution("normal", (1.0,)),
                      BadDistributionParams, "normal takes (mu, sigma)"),
    "triad without budget": (
        lambda net: triad(OBSERVED, run_ensemble(validate(parse_project_text(ZERO_COST)), 10, 0)),
        EvZero, "project has no budget; completion fraction undefined"),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_each_refusal_raises_its_typed_error(figure3_network, case):
    call, error, message = REFUSALS[case]
    with pytest.raises(error) as err:
        call(figure3_network)
    assert type(err.value) is error and str(err.value) == message
