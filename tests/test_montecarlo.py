import concurrent.futures
import dataclasses
import functools
import hashlib
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
import riskmc.errors as errors
import riskmc.montecarlo as montecarlo
from netgen import (block_windows, chain_spec, critical_flags, normal_pert_spec, parallel_spec,
                    random_dag_spec, trajectories)
from riskmc import (
    ControlObservation,
    Distribution,
    ProjectSpec,
    RiskEvent,
    control_indices,
    forward_backward,
    histogram_and_cdf,
    percentiles,
    risk_baselines,
    run_ensemble,
    sevm_forecast,
    triad,
    validate,
)
from riskmc.errors import ConfigError, DegenerateProject, EmptySample
from riskmc.montecarlo import sample_block
from test_cpm import reference_forward_backward


def test_config_validation(figure3_network):
    with pytest.raises(ConfigError, match=r"^n_runs must be >= 1, got 0$"):
        run_ensemble(figure3_network, 0, 1)


def test_point_network_reproduces_cpm():
    spec = chain_spec([Distribution.point(2), Distribution.point(5)], fixed=3, rate=1)
    net = validate(spec)
    ens = run_ensemble(net, 200, 9)
    expected = forward_backward(net, net.mean_durations())
    assert (ens.total_duration == expected.duration).all()
    assert ens.total_duration.std() == 0.0
    assert (ens.total_cost == ens.plan.bac).all()
    assert (critical_flags(ens) == expected.critical[:, None]).all()


def test_serial_normals_match_analytic_sum():
    # five normal(10, 2) in series: sum is normal(50, sqrt(20)); truncation
    # below zero is 5-sigma mass and negligible
    net = validate(chain_spec([Distribution.normal(10, 2)] * 5))
    ens = run_ensemble(net, 100_000, 13)
    assert ens.total_duration.mean() == pytest.approx(50.0, abs=0.06)
    assert ens.total_duration.std(ddof=1) == pytest.approx(np.sqrt(20.0), rel=0.02)


def test_parallel_uniform_merge_bias():
    # E max(U1, U2) for iid uniform(4, 6) is 4 + 2 * 2/3
    net = validate(parallel_spec([Distribution.uniform(4, 6)] * 2))
    ens = run_ensemble(net, 100_000, 17)
    assert ens.total_duration.mean() == pytest.approx(4 + 2 * 2 / 3, abs=0.02)


def test_bitwise_determinism(figure3_network):
    n_runs, seed = 3000, 99
    a = run_ensemble(figure3_network, n_runs, seed)
    b = run_ensemble(figure3_network, n_runs, seed)
    for field in ENSEMBLE_FIELDS:
        assert np.array_equal(_field(a, field), _field(b, field)), field
    for curve_a, curve_b in zip(trajectories(a, 11), trajectories(b, 11)):
        assert np.array_equal(curve_a, curve_b)
    # numpy integers are the same count and seed: the stream keys print alike
    c = run_ensemble(figure3_network, np.int64(n_runs), np.int64(seed))
    for field in ENSEMBLE_FIELDS:
        assert _field(a, field).tobytes() == _field(c, field).tobytes(), field


def test_worker_count_never_changes_results(figure3_network):
    n_runs, seed = 2500, 4
    base = run_ensemble(figure3_network, n_runs, seed, workers=1)
    _, base_ev = trajectories(base, 7)
    for workers in range(2, 9):
        other = run_ensemble(figure3_network, n_runs, seed, workers=workers)
        assert np.array_equal(base.durations, other.durations)
        assert np.array_equal(base.total_cost, other.total_cost)
        assert np.array_equal(base_ev, trajectories(other, 7)[1])


RUN_FIELDS = ("durations", "starts", "total_duration", "total_cost", "node_cost")
# compared wherever two ensembles hold the same runs; critical_runs counts
# over all of them, so it is no per-run field
ENSEMBLE_FIELDS = (*RUN_FIELDS, "critical_runs")


def _field(ens, field):
    """An ensemble array, the starts joined from Ensemble.blocks(), or the
    node costs, read row by row through cost_rows()."""
    if field == "starts":
        return block_windows(ens)[0]
    if field == "node_cost":
        return np.array(list(ens.cost_rows()))
    return getattr(ens, field)


def test_worker_count_never_changes_normal_and_pert_results():
    # normal laws are truncated at zero, PERT laws read their shape's table
    net = validate(normal_pert_spec())
    n_runs, seed = 2500, 4
    base = run_ensemble(net, n_runs, seed, workers=1)
    for workers in range(2, 9):
        other = run_ensemble(net, n_runs, seed, workers=workers)
        for field in ENSEMBLE_FIELDS:
            assert _field(base, field).tobytes() == _field(other, field).tobytes(), field


@pytest.mark.parametrize("workers", [1, 3])
def test_first_runs_do_not_depend_on_the_run_count(workers):
    # run k reads position k of every stream, whatever the run count and
    # however the runs are chunked
    net = validate(normal_pert_spec())
    short = run_ensemble(net, 1000, 21, workers=workers)
    long = run_ensemble(net, 5000, 21, workers=workers)
    for field in RUN_FIELDS:
        assert _field(short, field).tobytes() == _field(long, field)[..., :1000].tobytes(), field


@pytest.mark.parametrize("workers", [0, -7])
def test_workers_below_one_is_a_config_error(figure3_network, workers):
    with pytest.raises(ConfigError):
        run_ensemble(figure3_network, 10, 0, workers=workers)


def test_pool_has_at_most_one_thread_per_cpu(figure3_network, monkeypatch):
    # every run count is simulated in chunks of _CHUNK runs, up to `workers`
    # of them at once, on a pool that never asks for more threads than
    # chunks or CPUs; where that is one thread, no pool is built and every
    # chunk runs on the calling thread. The stand-in pool records its size,
    # runs each chunk in order and starts no thread
    sizes, runners = [], []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    cost_rows_of_chunk = montecarlo._cost_rows

    def cost_rows(*args):  # read once per chunk, on the thread simulating it
        runners.append(threading.current_thread())
        return cost_rows_of_chunk(*args)

    threads = threading.active_count()
    n_runs, seed = 150, 5
    base = run_ensemble(figure3_network, n_runs, seed, workers=1)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", SerialPool)
    monkeypatch.setattr(montecarlo, "_cost_rows", cost_rows)
    monkeypatch.setattr(montecarlo, "_CHUNK", 4)  # 150 runs: 38 chunks, the last of 2
    grid = ((3, 10**6), (None, 10**6), (64, 10**6), (64, 2), (1, 8), (64, 1))
    for cpus, workers in grid:
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: cpus)
        pools = len(sizes)
        runners.clear()
        other = run_ensemble(figure3_network, n_runs, seed, workers=workers)
        want = min(workers, 38, cpus or 1)
        if want == 1:
            assert len(sizes) == pools, (cpus, workers)
            assert runners == [threading.main_thread()] * 38, (cpus, workers)
        else:
            assert sizes[pools:] == [want], (cpus, workers)
        for field in ENSEMBLE_FIELDS:
            assert _field(base, field).tobytes() == _field(other, field).tobytes(), field
    assert sizes == [3, 38, 2]
    assert threading.active_count() == threads


C = montecarlo._CHUNK


def _normal_pert_ensemble(n_runs, workers):
    return run_ensemble(validate(normal_pert_spec()), n_runs, 8,
                        workers=workers)


@functools.cache
def _one_worker_ensemble(n_runs, chunk=C):
    with mock.patch.object(montecarlo, "_CHUNK", chunk):
        return _normal_pert_ensemble(n_runs, 1)


@pytest.mark.parametrize("workers", [1, 2, 3, 8])
@pytest.mark.parametrize("n_runs", [C - 1, C, C + 1, 2 * C + 1])
def test_chunk_boundaries_never_change_a_run(n_runs, workers):
    # normal laws are truncated at zero and PERT laws read their tables
    # inside the worker threads; a run's values depend on neither the worker
    # count nor the run count nor the chunking (chunks of 1028 runs start on
    # other stream positions)
    ens = _normal_pert_ensemble(n_runs, workers)
    base = _one_worker_ensemble(n_runs)
    rechunked = _one_worker_ensemble(n_runs, chunk=1028)
    prefix = _one_worker_ensemble(C - 1)
    for field in ENSEMBLE_FIELDS:
        assert _field(ens, field).tobytes() == _field(base, field).tobytes(), field
        assert _field(ens, field).tobytes() == _field(rechunked, field).tobytes(), field
    for field in RUN_FIELDS:
        assert _field(ens, field)[..., :C - 1].tobytes() == _field(prefix, field).tobytes(), field
    net = validate(normal_pert_spec())
    start, finish, _ = block_windows(ens)
    for k in sorted({0, C - 2, *range(C, n_runs, 2731), n_runs - 1}):
        want = reference_forward_backward(net, ens.durations[:, k])
        assert start[:, k].tobytes() == want["es"].tobytes(), k
        assert finish[:, k].tobytes() == want["ef"].tobytes(), k
        assert ens.total_duration[k] == want["duration"], k


# sha256 of each array of the normal_pert_spec ensemble of 3 * C + 5 runs at
# seed 14, in (run, node) order (critical_runs as int64): no golden output
# holds a normal law, so these pin its draws
NORMAL_PERT_SHA256 = {
    "durations": "ee6af84bab908d738d6c6310378b49cb7da60d2138c08f56b290fb515ff41e27",
    "starts": "a8ef2a0a8b466de3805c6bd94a75be20eb8e5022e3976034cc1290e1a026768d",
    "total_duration": "f78a50ea0001be063a805ae3eae5ba403b380cdeb61a6067cfe96fffa8e4ed15",
    "total_cost": "969081e2335c74ae6b50fc11272ce0b0ed3195201dab9fce8b5bbba64275ea2e",
    "node_cost": "67013773f6c56f9e18eec8304dfd96c328255791a2452b932c411319cd22e4d5",
    "critical_runs": "300cb1a5f0061b491e27cd8877ea1e4b382bb5c20e30fcb7f48fe24e9fe73983",
}


def test_normal_and_pert_draws_are_pinned():
    ens = run_ensemble(validate(normal_pert_spec()), 3 * C + 5, 14)
    for field in ENSEMBLE_FIELDS:
        digest = hashlib.sha256(_field(ens, field).T.tobytes()).hexdigest()
        assert digest == NORMAL_PERT_SHA256[field], field


@pytest.mark.parametrize("dist", [Distribution.normal(0.5, 2.0), Distribution.normal(5, 2)])
def test_normal_block_reads_one_uniform_block(dist):
    # one uniform per draw: a block of normal draws reads its stream once
    with mock.patch.object(montecarlo, "_uniform_block",
                           wraps=montecarlo._uniform_block) as uniforms:
        sample_block(dist, seed=3, ident="once", start=0, count=C)
    assert uniforms.call_count == 1


def many_cost_risks_spec():
    """3 nodes and 200 cost risks on one of them: the risks' draws, 8 B per
    run each, are most of the ensemble."""
    base = chain_spec([Distribution.uniform(1, 3)], fixed=10, rate=2)
    risks = tuple(RiskEvent(id=f"C{i}", name=f"cost {i}", probability=0.5, kind="cost",
                            target="B1", impact=Distribution.uniform(0, 5))
                  for i in range(200))
    return ProjectSpec(base.activities, base.precedence, risks)


@pytest.mark.parametrize("n_nodes", [3, 4, 42, 152, 402])
def test_memory_guard_bounds_the_traced_peak(n_nodes):
    # the guard's per-run estimate covers what a simulating command really
    # allocates: run_ensemble with one chunk or several and with several
    # chunks in flight, and the simulation followed by the control and the
    # forecast analyses, whose cross-section works in blocks of runs, one
    # block or many (C + 1 runs). A handful of runs is left out, where
    # ~25 KiB of pool and generator objects dominate.
    # 3 nodes is the many-cost-risk network; the others are random DAGs
    if n_nodes == 3:
        net = validate(many_cost_risks_spec())
    else:
        rng = np.random.default_rng(n_nodes)
        net = validate(random_dag_spec(rng, n_real=n_nodes - 2,
                                       edge_prob=min(0.4, 3 / n_nodes), with_risks=2))
    m, k = len(net.nodes), len(net.cost_risks)
    plan = forward_backward(net, net.mean_durations())
    obs = ControlObservation(t=plan.duration / 2, ev=plan.bac / 2, ac=plan.bac / 2)

    def control(n_runs, seed, workers):
        ens = run_ensemble(net, n_runs, seed, workers=workers)
        control_indices(obs, risk_baselines(ens))
        triad(obs, ens)

    def forecast(n_runs, seed, workers):
        ens = run_ensemble(net, n_runs, seed, workers=workers)
        for estimator in ("mean", "linear"):
            sevm_forecast(obs, ens, estimator=estimator)

    sim_sizes = [(n, workers) for n in (300, 1000, C - 1, C + 1, 4 * C + 1)
                 for workers in (1, 3)]
    for sequence, sizes in ((functools.partial(run_ensemble, net), sim_sizes),
                            (control, [(300, 1), (1000, 1), (C + 1, 1)]),
                            (forecast, [(300, 1), (1000, 1), (C + 1, 1)])):
        # a first, small run builds the PERT tables, which the network's laws
        # then hold
        sequence(8, 0, workers=1)
        for n, workers in sizes:
            tracemalloc.start()
            try:
                sequence(n, 3, workers=workers)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            per_run = montecarlo._PEAK_PER_RUN_NODE * m + 8 * k + montecarlo._PEAK_PER_RUN
            assert peak <= n * per_run, (m, k, n, workers, sequence, peak / (n * per_run))


def test_runs_beyond_the_memory_ceiling_are_refused(figure3_network, monkeypatch):
    # a 64 KiB address-space limit; the largest run count that fits still
    # runs, one more is refused before anything is allocated. The guard
    # counts 8 B per run for each cost risk's draws, most of what the
    # many-cost-risk network stores
    resource = errors.resource
    monkeypatch.setattr(resource, "getrlimit", lambda which: (2**16, resource.RLIM_INFINITY))
    assert errors._memory_ceiling() == 2**16
    for net in (figure3_network, validate(many_cost_risks_spec())):
        m = len(net.nodes)
        per_run = (montecarlo._PEAK_PER_RUN_NODE * m + 8 * len(net.cost_risks)
                   + montecarlo._PEAK_PER_RUN)
        fit = 2**16 // per_run
        assert run_ensemble(net, fit, 0).n_runs == fit
        for runs in (fit + 1, 10**12):
            with pytest.raises(ConfigError,
                               match=rf"^{runs} runs of {m} nodes .* at most {fit} runs fit$"):
                run_ensemble(net, runs, 0)


def test_memory_ceiling_respects_a_cgroup_limit(figure3_network, monkeypatch, tmp_path):
    # a cgroup v2 memory.max holds a byte count, or "max" for no limit; an
    # absent file, as outside a cgroup v2 hierarchy, is no limit either
    resource = errors.resource
    monkeypatch.setattr(resource, "getrlimit", lambda which: (resource.RLIM_INFINITY,) * 2)
    physical = errors.os.sysconf("SC_PAGE_SIZE") * errors.os.sysconf("SC_PHYS_PAGES")
    limit = tmp_path / "memory.max"
    monkeypatch.setattr(errors, "_CGROUP_MEMORY_MAX", str(limit))
    monkeypatch.setattr(errors, "_CGROUP_V1_LIMIT", str(tmp_path / "absent"))
    assert errors._memory_ceiling() == physical
    for text, want in (("max\n", physical), (f"{2 * physical}\n", physical), ("65536\n", 2**16)):
        limit.write_text(text)
        assert errors._memory_ceiling() == want, text
    with pytest.raises(ConfigError, match="above the 6.1e-05 GiB memory ceiling"):
        run_ensemble(figure3_network, 10**4, 0)


def test_memory_ceiling_respects_a_cgroup_v1_limit(monkeypatch, tmp_path):
    # cgroup v1 writes no limit as a huge byte count; an absent or
    # non-numeric file is no limit; the lower of a v1 and a v2 limit holds
    resource = errors.resource
    monkeypatch.setattr(resource, "getrlimit", lambda which: (resource.RLIM_INFINITY,) * 2)
    physical = errors.os.sysconf("SC_PAGE_SIZE") * errors.os.sysconf("SC_PHYS_PAGES")
    v1, v2 = tmp_path / "memory.limit_in_bytes", tmp_path / "memory.max"
    monkeypatch.setattr(errors, "_CGROUP_V1_LIMIT", str(v1))
    monkeypatch.setattr(errors, "_CGROUP_MEMORY_MAX", str(v2))
    assert errors._memory_ceiling() == physical
    for text, want in (("9223372036854771712\n", physical), ("65536\n", 2**16),
                       ("-1\n", physical), ("\xff\n", physical), ("", physical)):
        v1.write_text(text, encoding="latin-1")
        assert errors._memory_ceiling() == want, text
    v1.write_text("65536\n")
    v2.write_text("4096\n")
    assert errors._memory_ceiling() == 4096
    v2.write_text("max\n")
    assert errors._memory_ceiling() == 2**16


def test_seed_changes_results(figure3_network):
    a = run_ensemble(figure3_network, 100, 1)
    b = run_ensemble(figure3_network, 100, 2)
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
        ens = run_ensemble(net, n, int(rng.integers(1 << 30)))
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
    n_runs, seed = 4000, 23
    free = run_ensemble(validate(base_spec), n_runs, seed)
    gated = run_ensemble(validate(risky_spec), n_runs, seed)
    assert np.array_equal(free.total_duration, gated.total_duration)
    assert np.array_equal(free.total_cost, gated.total_cost)
    assert not gated.durations[validate(risky_spec).ids().index("R1")].any()
    # per-activity draws are keyed by id, so shared rows agree exactly
    for node_id in ("B1", "B2"):
        i = validate(base_spec).ids().index(node_id)
        j = validate(risky_spec).ids().index(node_id)
        assert np.array_equal(free.durations[i], gated.durations[j])


def test_a_risk_id_owns_one_gate_stream_whatever_its_kind():
    # the same risk as a duration risk and as a cost risk on B1 is active in
    # exactly the same runs: the gate uniforms are keyed by the risk id alone
    base = chain_spec([Distribution.uniform(2, 5), Distribution.triangular(1, 2, 4)],
                      fixed=10, rate=2)
    n_runs, seed = 2000, 41
    ens = {}
    for kind in ("duration", "cost"):
        risk = RiskEvent(id="R", name="slip", probability=0.3, kind=kind, target="B1",
                         impact=Distribution.point(3))
        net = validate(ProjectSpec(base.activities, base.precedence, risks=(risk,)))
        ens[kind] = (net, run_ensemble(net, n_runs, seed))
    net, dur = ens["duration"]
    delayed = dur.durations[net.ids().index("R")] > 0.0
    net, cost = ens["cost"]
    b1 = net.ids().index("B1")
    overrun = list(cost.cost_rows())[b1] > 10 + 2 * cost.durations[b1]
    assert 0 < delayed.sum() < n_runs
    assert np.array_equal(delayed, overrun)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.integers(0, 3), st.integers(1, 40))
@example(3, 6, 2, 1)
@example(5, 9, 3, 40)  # 20 blocks of 2 runs
def test_derived_starts_and_node_costs_match_their_references_bitwise(seed, n_real,
                                                                      with_risks, n_runs):
    # two more cost risks on one target, whose impacts add in declaration order
    rng = np.random.default_rng(seed)
    spec = random_dag_spec(rng, n_real=n_real, with_risks=with_risks)
    target = f"B{int(rng.integers(1, n_real + 1))}"
    extra = tuple(RiskEvent(id=f"C{k}", name=f"cost {k}", probability=0.5, kind="cost",
                            target=target, impact=Distribution.uniform(0.25, 3.0 + k))
                  for k in (1, 2))
    net = validate(ProjectSpec(spec.activities, spec.precedence, spec.risks + extra))
    ens = run_ensemble(net, n_runs, seed % 1000)
    # the blocks take the runs in order, each once
    runs = [k for block in ens.blocks() for k in range(n_runs)[block[0]]]
    assert runs == list(range(n_runs))
    start, finish, node_costs = block_windows(ens)
    for k in range(n_runs):
        want = reference_forward_backward(net, ens.durations[:, k])
        assert start[:, k].tobytes() == want["es"].tobytes(), k
        assert finish[:, k].tobytes() == want["ef"].tobytes(), k

    cost = net.fixed_costs()[:, None] + net.rates()[:, None] * ens.durations
    for cr in net.cost_risks:
        cost[cr.target] += montecarlo._draw(cr.impact, cr.probability, seed % 1000, cr.id,
                                            0, n_runs)
    assert node_costs.tobytes() == cost.tobytes()
    assert np.array(list(ens.cost_rows())).tobytes() == cost.tobytes()
    total = np.zeros(n_runs)
    for row in cost:
        total += row
    assert ens.total_cost.tobytes() == total.tobytes()


def test_the_ensemble_stores_only_what_was_sampled():
    # durations (8 B) and cost-risk impacts (8 B) per run and node or risk,
    # the two totals, and one count of critical runs per node; starts, node
    # costs and per-run critical flags are formed a block or a row at a
    # time, and no analysis stores any of them
    net = validate(normal_pert_spec())
    n = 3 * C + 5
    ens = run_ensemble(net, n, 14)
    m, k = len(net.nodes), len(net.cost_risks)
    arrays = [getattr(ens, f.name) for f in dataclasses.fields(ens)]
    stored = sum(a.nbytes for a in arrays if isinstance(a, np.ndarray))
    assert stored == (8 * m + 16 + 8 * k) * n + 8 * m
    fields = {f.name for f in dataclasses.fields(ens)}
    assert not {"starts", "node_cost", "critical"} & fields
    obs = ControlObservation(t=6, ev=30, ac=33)
    triad(obs, ens)
    sevm_forecast(obs, ens)
    ens.ev_at(6.0)
    ens.cost_at(6.0)
    assert set(vars(ens)) == fields


def test_each_run_matches_scalar_cpm(figure3_network):
    # the vectorized per-run pass must agree with the one-shot CPM
    ens = run_ensemble(figure3_network, 400, 29)
    start = block_windows(ens)[0]
    for k in range(0, ens.n_runs, 37):
        result = forward_backward(figure3_network, ens.durations[:, k])
        assert ens.total_duration[k] == result.duration
        assert np.array_equal(start[:, k], result.es)
    critical_flags(ens)  # the scalar passes' flags count to critical_runs


def test_trajectory_invariants(figure3_network):
    ens = run_ensemble(figure3_network, 2000, 31)
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
    ens = run_ensemble(figure3_network, 50, 1)
    with pytest.raises(ValueError):
        ens.durations[0, 0] = 1.0
    with pytest.raises(ValueError):  # the plan it carries is read-only too
        ens.plan.costs[0] = 1.0


def test_run_cost_identity(figure3_network):
    ens = run_ensemble(figure3_network, 500, 37)
    fixed = np.array([n.fixed_cost for n in figure3_network.nodes])
    rate = np.array([n.variable_cost_rate for n in figure3_network.nodes])
    base = (fixed[:, None] + rate[:, None] * ens.durations).sum(axis=0)
    risk_part = ens.total_cost - base
    active = montecarlo._uniform_block(37, "gate", "R3", 0, ens.n_runs) < 0.25
    assert (risk_part[~active] == pytest.approx(0.0, abs=1e-9))
    assert (risk_part[active] >= 10.0 - 1e-9).all()
    assert (risk_part[active] <= 40.0 + 1e-9).all()


# -- empirical statistics ----------------------------------------------------

def test_percentile_examples():
    assert percentiles([1, 2, 3, 4, 5], [50])[0] == 3.0
    assert percentiles([1, 3], [50])[0] == 2.0
    assert percentiles([4, 1, 9, 2], [100])[0] == 9.0
    assert percentiles([4, 1, 9, 2], [0])[0] == 1.0


def test_percentile_errors():
    with pytest.raises(EmptySample):
        percentiles([], [50])
    for ps in ([101], [-10], [150], [np.nan], [5, 50, 100.5, 95]):  # p < 0 must not index from the end
        with pytest.raises(ConfigError, match=r"must be in \[0, 100\]"):
            percentiles([1, 2, 3], ps)


def test_percentile_monotone_in_p():
    rng = np.random.default_rng(3)
    samples = rng.normal(size=501)
    values = [percentiles(samples, [p])[0] for p in np.linspace(0, 100, 41)]
    assert (np.diff(values) >= 0).all()


_SAMPLES = st.lists(st.one_of(st.floats(-1e307, 1e307, allow_nan=False),
                              st.sampled_from([0.0, -0.0, 1.0, 2.5, 5e-324])),
                    min_size=1, max_size=300)
_PERCENTS = st.lists(st.one_of(st.floats(0.0, 100.0), st.sampled_from([0, 5, 50, 90, 100])),
                     min_size=1, max_size=25)


@settings(max_examples=300, deadline=None)
@given(_SAMPLES, _PERCENTS)
@example([7.0], [0, 50, 100])
@example([1.0, 2.0], [49.999999999999, 50.0, 50.000000000001])  # either side of weight 1/2
@example([-0.0, -0.0, 3.0], [0, 25, 100])
# which of the equal zeros lands at an order statistic depends on the partition
@example([0.0, 0.0, 0.0, -0.0, -0.0, 0.0, 0.0, 0.0, 0.0], [0.0, 44.0])
def test_percentiles_are_numpys_bit_for_bit(samples, ps):
    x = np.array(samples)
    assert percentiles(x, ps).tobytes() == np.percentile(x, ps).tobytes()
    assert percentiles(x, list(range(5, 100, 5))).tobytes() == \
        np.percentile(x, range(5, 100, 5)).tobytes()
    for p in ps[:3]:
        want = np.percentile(x, p)
        assert percentiles(x, [p])[0].tobytes() == want.tobytes()
        got = percentiles(x, p)  # a scalar p gives a 0-d result
        assert got.shape == () and got.tobytes() == want.tobytes()
    ps2d = np.resize(ps, (2, len(ps)))
    got, want = percentiles(x, ps2d), np.percentile(x, ps2d)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert x.tobytes() == np.array(samples).tobytes()  # the samples are not reordered


def test_percentiles_of_a_sample_with_nan_are_nan():
    assert np.isnan(percentiles([1.0, np.nan, 3.0], [0, 50, 100])).all()


@pytest.mark.parametrize("bins", [0, montecarlo.MAX_BINS + 1, 10**12])
def test_histogram_bins_out_of_range_is_a_config_error(bins):
    with pytest.raises(ConfigError, match="bins must be in"):
        histogram_and_cdf(np.arange(10.0), bins=bins)


def test_histogram_constant_sample():
    table = histogram_and_cdf(np.full(100, 7.25), bins=10)
    assert len(table.pdf) == 1
    assert table.pdf[0] == 1.0
    assert table.cdf[0] == 1.0
    assert table.edges[0] == table.edges[-1] == 7.25


def test_bin_counts_refuse_a_range_with_a_non_finite_end():
    # np.histogram refuses [0, inf] at every bin count; the halving stops at one bin
    with pytest.raises(DegenerateProject):
        montecarlo._bin_counts(np.array([0.0, np.inf]), 36)


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
