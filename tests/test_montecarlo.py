import threading
from concurrent.futures import Future

import numpy as np
import pytest

import oracles
import riskmc.montecarlo as montecarlo
from netgen import chain_spec, parallel_spec, random_dag_spec, trajectories
from riskmc import (
    Distribution,
    ProjectSpec,
    RiskEvent,
    SimConfig,
    empirical_percentile,
    forward_backward,
    histogram_and_cdf,
    run_ensemble,
    validate,
)
from riskmc.errors import ConfigError, EmptySample
from riskmc.montecarlo import sample_block


def test_config_validation():
    with pytest.raises(ConfigError):
        SimConfig(n_runs=0)


def test_point_network_reproduces_cpm():
    spec = chain_spec([Distribution.point(2), Distribution.point(5)], fixed=3, rate=1)
    net = validate(spec)
    ens = run_ensemble(net, SimConfig(n_runs=200, seed=9))
    expected = forward_backward(net, net.mean_durations())
    assert (ens.total_duration == expected.duration).all()
    assert ens.total_duration.std() == 0.0
    assert (ens.total_cost == ens.plan.bac).all()
    assert (ens.critical == expected.critical[None, :]).all()


def test_serial_normals_match_analytic_sum():
    # five normal(10, 2) in series: sum is normal(50, sqrt(20)); truncation
    # below zero is 5-sigma mass and negligible
    net = validate(chain_spec([Distribution.normal(10, 2)] * 5))
    ens = run_ensemble(net, SimConfig(n_runs=100_000, seed=13))
    assert ens.total_duration.mean() == pytest.approx(50.0, abs=0.06)
    assert ens.total_duration.std(ddof=1) == pytest.approx(np.sqrt(20.0), rel=0.02)


def test_parallel_uniform_merge_bias():
    # E max(U1, U2) for iid uniform(4, 6) is 4 + 2 * 2/3
    net = validate(parallel_spec([Distribution.uniform(4, 6)] * 2))
    ens = run_ensemble(net, SimConfig(n_runs=100_000, seed=17))
    assert ens.total_duration.mean() == pytest.approx(4 + 2 * 2 / 3, abs=0.02)


def test_bitwise_determinism(figure3_network):
    cfg = SimConfig(n_runs=3000, seed=99)
    a = run_ensemble(figure3_network, cfg)
    b = run_ensemble(figure3_network, cfg)
    for field in ("durations", "starts", "finishes", "critical", "total_duration",
                  "total_cost", "node_cost", "risk_active"):
        assert np.array_equal(getattr(a, field), getattr(b, field)), field
    for curve_a, curve_b in zip(trajectories(a, 11), trajectories(b, 11)):
        assert np.array_equal(curve_a, curve_b)


def test_worker_count_never_changes_results(figure3_network):
    cfg = SimConfig(n_runs=2500, seed=4)
    base = run_ensemble(figure3_network, cfg, workers=1)
    _, base_ev = trajectories(base, 7)
    for workers in range(2, 9):
        other = run_ensemble(figure3_network, cfg, workers=workers)
        assert np.array_equal(base.durations, other.durations)
        assert np.array_equal(base.total_cost, other.total_cost)
        assert np.array_equal(base_ev, trajectories(other, 7)[1])


@pytest.mark.parametrize("workers", [0, -7])
def test_workers_below_one_is_a_config_error(figure3_network, workers):
    with pytest.raises(ConfigError):
        run_ensemble(figure3_network, SimConfig(n_runs=10), workers=workers)


def test_pool_has_at_most_one_thread_per_cpu(figure3_network, monkeypatch):
    # any worker count still splits the runs into aligned chunks, as many as
    # requested down to 4 runs each, but the pool never asks for more threads
    # than CPUs; the stand-in pool records its size, runs each chunk at
    # submit and starts no thread
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", SerialPool)
    threads = threading.active_count()
    cfg = SimConfig(n_runs=150, seed=5)
    base = run_ensemble(figure3_network, cfg, workers=1)
    assert sizes == []  # one chunk runs inline
    # 10**6 workers on 150 runs: 38 chunks of 4 runs (the last of 2)
    for cpus, workers, want in ((3, 10**6, 3), (None, 10**6, 1), (64, 10**6, 38),
                                (64, 2, 2), (1, 8, 1)):
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: cpus)
        other = run_ensemble(figure3_network, cfg, workers=workers)
        assert sizes[-1] == want, (cpus, workers)
        for field in ("durations", "total_duration", "total_cost", "risk_active"):
            assert getattr(base, field).tobytes() == getattr(other, field).tobytes(), field
    assert len(sizes) == 5
    assert threading.active_count() == threads


def test_seed_changes_results(figure3_network):
    a = run_ensemble(figure3_network, SimConfig(n_runs=100, seed=1))
    b = run_ensemble(figure3_network, SimConfig(n_runs=100, seed=2))
    assert not np.array_equal(a.total_duration, b.total_duration)


def test_exact_discrete_oracle_ks():
    # exhaustive enumeration vs the sampler on small discrete networks
    rng = np.random.default_rng(77)
    n = 20_000
    bound = 3.0 * np.sqrt(np.log(2.0) / (2 * n))
    for _ in range(3):
        spec = random_dag_spec(rng, n_real=4, discrete_only=True, with_risks=2)
        net = validate(spec)
        pd_dist, cost_dist, crit = oracles.enumerate_exact(net)
        ens = run_ensemble(net, SimConfig(n_runs=n, seed=int(rng.integers(1 << 30))))
        assert oracles.ks_distance(pd_dist, ens.total_duration) < bound
        assert oracles.ks_distance(cost_dist, ens.total_cost) < bound


def test_risk_probability_zero_matches_riskfree_network():
    base_spec = chain_spec([Distribution.triangular(1, 2, 4), Distribution.uniform(2, 5)],
                           fixed=10, rate=2)
    risky_spec = ProjectSpec(
        base_spec.activities, base_spec.precedence,
        risks=(RiskEvent(id="R1", name="never", probability=0.0, kind="duration",
                         target="B1", impact=Distribution.uniform(1, 2)),
               RiskEvent(id="R2", name="never2", probability=0.0, kind="cost",
                         target="B2", impact=Distribution.point(100))))
    cfg = SimConfig(n_runs=4000, seed=23)
    free = run_ensemble(validate(base_spec), cfg)
    gated = run_ensemble(validate(risky_spec), cfg)
    assert np.array_equal(free.total_duration, gated.total_duration)
    assert np.array_equal(free.total_cost, gated.total_cost)
    assert not gated.risk_active.any()
    # per-activity draws are keyed by id, so shared columns agree exactly
    for node_id in ("B1", "B2"):
        i = validate(base_spec).index_of(node_id)
        j = validate(risky_spec).index_of(node_id)
        assert np.array_equal(free.durations[:, i], gated.durations[:, j])


def test_each_run_matches_scalar_cpm(figure3_network):
    # the vectorized per-run pass must agree with the one-shot CPM
    ens = run_ensemble(figure3_network, SimConfig(n_runs=400, seed=29))
    for k in range(0, ens.n_runs, 37):
        result = forward_backward(figure3_network, ens.durations[k])
        assert ens.total_duration[k] == result.duration
        assert np.array_equal(ens.starts[k], result.es)
        assert np.array_equal(ens.critical[k], result.critical)


def test_trajectory_invariants(figure3_network):
    ens = run_ensemble(figure3_network, SimConfig(n_runs=2000, seed=31))
    cost, ev = trajectories(ens, 101)
    assert (np.diff(cost, axis=1) >= -1e-9).all()
    assert (np.diff(ev, axis=1) >= -1e-9).all()
    # the last grid time is at or past every run's finish
    assert (cost[:, -1] == ens.total_cost).all()
    assert (ev[:, -1] == ens.plan.bac).all()
    # exact endpoint identities on the piecewise-linear trajectories
    assert (ens.cost_at(ens.total_duration) == ens.total_cost).all()
    assert (ens.ev_at(ens.total_duration) == ens.plan.bac).all()
    # constant after completion
    late = ens.total_duration * 1.25
    assert (ens.cost_at(late) == ens.total_cost).all()
    assert (ens.ev_at(late) == ens.plan.bac).all()


def test_ensemble_is_read_only(figure3_network):
    ens = run_ensemble(figure3_network, SimConfig(n_runs=50, seed=1))
    with pytest.raises(ValueError):
        ens.durations[0, 0] = 1.0
    with pytest.raises(ValueError):  # the plan it carries is read-only too
        ens.plan.costs[0] = 1.0


def test_run_cost_identity(figure3_network):
    ens = run_ensemble(figure3_network, SimConfig(n_runs=500, seed=37))
    fixed = np.array([n.fixed_cost for n in figure3_network.nodes])
    rate = np.array([n.variable_cost_rate for n in figure3_network.nodes])
    base = (fixed[None, :] + rate[None, :] * ens.durations).sum(axis=1)
    risk_part = ens.total_cost - base
    active = ens.risk_active[:, list(ens.risk_ids).index("R3")]
    assert (risk_part[~active] == pytest.approx(0.0, abs=1e-9))
    assert (risk_part[active] >= 10.0 - 1e-9).all()
    assert (risk_part[active] <= 40.0 + 1e-9).all()


# -- empirical statistics ----------------------------------------------------

def test_percentile_examples():
    assert empirical_percentile([1, 2, 3, 4, 5], 50) == 3.0
    assert empirical_percentile([1, 3], 50) == 2.0
    assert empirical_percentile([4, 1, 9, 2], 100) == 9.0
    assert empirical_percentile([4, 1, 9, 2], 0) == 1.0


def test_percentile_errors():
    with pytest.raises(EmptySample):
        empirical_percentile([], 50)
    with pytest.raises(ConfigError):
        empirical_percentile([1.0], 101)


def test_percentile_monotone_in_p():
    rng = np.random.default_rng(3)
    samples = rng.normal(size=501)
    values = [empirical_percentile(samples, p) for p in np.linspace(0, 100, 41)]
    assert (np.diff(values) >= 0).all()


def test_histogram_constant_sample():
    table = histogram_and_cdf(np.full(100, 7.25), bins=10)
    assert len(table.pdf) == 1
    assert table.pdf[0] == 1.0
    assert table.cdf[0] == 1.0
    assert table.edges[0] == table.edges[-1] == 7.25


def test_histogram_uniform_masses():
    u = sample_block(Distribution.uniform(0, 1), seed=41, ident="hist", start=0,
                     count=1_000_000)
    table = histogram_and_cdf(u, bins=10)
    assert np.allclose(table.pdf, 0.1, atol=0.001)
    assert table.cdf[-1] == 1.0


def test_histogram_cdf_last_exact():
    rng = np.random.default_rng(8)
    table = histogram_and_cdf(rng.normal(size=12345), bins=17)
    assert table.cdf[-1] == 1.0
    assert table.pdf.sum() == pytest.approx(1.0, abs=1e-12)
