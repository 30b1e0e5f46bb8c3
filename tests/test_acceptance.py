"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete. Statistical bounds use fixed seeds, so outcomes are stable.
"""

import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np
import pytest

import oracles
from netgen import chain_spec, parallel_spec, random_dag_spec, trajectories
from riskmc import (
    Activity,
    ControlObservation,
    Distribution,
    ProjectSpec,
    RiskEvent,
    activity_risk_index,
    contingency_reserve,
    control_indices,
    risk_baselines,
    run_ensemble,
    sensitivity_report,
    sevm_forecast,
    triad,
    validate,
)

N = 100_000


@contextmanager
def criterion(number, text):
    try:
        yield
    except Exception:
        print(f"\ncriterion {number:2d} FAIL  {text}")
        raise
    print(f"\ncriterion {number:2d} PASS  {text}")


def fast(spec_or_net, n=N, seed=1):
    net = spec_or_net if hasattr(spec_or_net, "nodes") else validate(spec_or_net)
    return net, run_ensemble(net, n, seed)


def ten_node_network():
    """Ten nodes after expansion: dummies + 6 activities + 2 duration risks."""
    acts = [Activity(id="A0", name="start", duration=Distribution.point(0))]
    laws = [Distribution.triangular(1, 2, 3), Distribution.normal(4, 1),
            Distribution.uniform(2, 5), Distribution.pert(2, 4, 8),
            Distribution.discrete([(1, 0.5), (3, 0.5)]), Distribution.uniform(1, 2)]
    for k, law in enumerate(laws, start=1):
        acts.append(Activity(id=f"B{k}", name=f"task {k}", duration=law,
                             fixed_cost=10.0 * k, variable_cost_rate=float(k)))
    acts.append(Activity(id="Af", name="finish", duration=Distribution.point(0)))
    edges = [("B1", "A0"), ("B2", "A0"), ("B3", "B1"), ("B4", "B2"), ("B4", "B3"),
             ("B5", "B3"), ("B6", "B4"), ("B6", "B5"), ("Af", "B6")]
    risks = (RiskEvent(id="R1", name="slip", probability=0.3, kind="duration",
                       target="B2", impact=Distribution.uniform(1, 3)),
             RiskEvent(id="R2", name="slide", probability=0.2, kind="duration",
                       target="B4", impact=Distribution.triangular(0.5, 1, 2)),
             RiskEvent(id="R3", name="hit", probability=0.25, kind="cost",
                       target="B3", impact=Distribution.triangular(5, 10, 20)))
    return validate(ProjectSpec(activities=acts, precedence=edges, risks=risks))


def test_criterion_1_determinism_and_runtime(figure3_path, tmp_path):
    with criterion(1, "determinism across reruns and worker counts; runtime budget"):
        outs = []
        for name in ("one", "two"):
            out = tmp_path / name
            result = subprocess.run(
                [sys.executable, "-m", "riskmc", "simulate", "--project",
                 str(figure3_path), "--runs", "20000", "--seed", "42",
                 "--out", str(out)],
                capture_output=True, text=True)
            assert result.returncode == 0, result.stderr
            outs.append(out)
        for name in ("percentiles.csv", "endpoints.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

        net = ten_node_network()
        assert len(net.nodes) == 10
        n_runs, seed = 8192, 11
        reference = run_ensemble(net, n_runs, seed, workers=1)
        reference_cost, reference_ev = trajectories(reference, 51)
        for workers in range(2, 9):
            other = run_ensemble(net, n_runs, seed, workers=workers)
            assert np.array_equal(reference.durations, other.durations)
            assert np.array_equal(reference.total_cost, other.total_cost)
            other_cost, other_ev = trajectories(other, 51)
            assert np.array_equal(reference_cost, other_cost)
            assert np.array_equal(reference_ev, other_ev)

        # trajectories are exact functions of starts/durations (ev_at/cost_at),
        # evaluated on demand, so the budget covers run_ensemble alone
        start = time.perf_counter()
        run_ensemble(net, N, 1)
        elapsed = time.perf_counter() - start
        print(f"  [10 nodes, 1e5 runs, run_ensemble: {elapsed:.2f}s]", end="")
        assert elapsed <= 5.0


def test_criterion_2_exact_oracle_equivalence():
    with criterion(2, "25 discrete networks: KS vs exhaustive enumeration, CI within 0.01"):
        rng = np.random.default_rng(2025)
        dkw = np.sqrt(np.log(2 / 0.01) / (2 * N))  # 99% band, ~0.00515
        for trial in range(25):
            spec = random_dag_spec(rng, n_real=int(rng.integers(3, 5)),
                                   discrete_only=True,
                                   with_risks=int(rng.integers(0, 3)))
            net = validate(spec)
            assert len(net.nodes) <= 10
            pd_dist, cost_dist, crit = oracles.enumerate_exact(net)
            _, ens = fast(net, seed=9000 + trial)
            assert oracles.ks_distance(pd_dist, ens.total_duration) < dkw
            assert oracles.ks_distance(cost_dist, ens.total_cost) < dkw
            assert np.abs(sensitivity_report(ens).ci - np.array(crit)).max() < 0.01


def test_criterion_3_serial_normal_sum():
    with criterion(3, "5 serial normal(10,2): mean 50 +- 0.06, sd 4.472 +- 2%"):
        _, ens = fast(chain_spec([Distribution.normal(10, 2)] * 5), seed=33)
        assert abs(ens.total_duration.mean() - 50.0) < 0.06
        assert abs(ens.total_duration.std(ddof=1) - np.sqrt(20)) < 0.02 * np.sqrt(20)


def test_criterion_4_merge_bias():
    with criterion(4, "two parallel uniform(4,6): mean 5.3333 +- 0.02, CI 0.5 +- 0.02"):
        net, ens = fast(parallel_spec([Distribution.uniform(4, 6)] * 2), seed=44)
        assert abs(ens.total_duration.mean() - 16 / 3) < 0.02
        ci = sensitivity_report(ens).ci
        for branch in ("B1", "B2"):
            assert abs(ci[net.ids().index(branch)] - 0.5) < 0.02


def test_criterion_5_index_identities():
    with criterion(5, "single activity CI=CrI=SSI=1; two serial iid CrI=SSI=0.707 +- 0.02"):
        net, ens = fast(chain_spec([Distribution.uniform(2, 6)]), n=20_000, seed=55)
        i, rep = net.ids().index("B1"), sensitivity_report(ens)
        assert rep.ci[i] == 1.0
        assert abs(rep.cri[i] - 1.0) < 1e-12
        assert rep.ssi[i] == 1.0

        net, ens = fast(chain_spec([Distribution.uniform(1, 3)] * 2), seed=56)
        rep = sensitivity_report(ens)
        for node_id in ("B1", "B2"):
            j = net.ids().index(node_id)
            assert abs(rep.cri[j] - 1 / np.sqrt(2)) < 0.02
            assert abs(rep.ssi[j] - 1 / np.sqrt(2)) < 0.02


def test_criterion_6_risk_arithmetic():
    with criterion(6, "p=1 point-5 risk shifts PD by exactly 5; p=0 changes nothing"):
        base = chain_spec([Distribution.uniform(1, 3), Distribution.triangular(2, 3, 5)],
                          fixed=10, rate=2)
        cfg_n, seed = 20_000, 66
        net_free, ens_free = fast(base, n=cfg_n, seed=seed)

        def with_risk(p):
            risk = RiskEvent(id="RX", name="shift", probability=p, kind="duration",
                             target="B2", impact=Distribution.point(5))
            return fast(ProjectSpec(base.activities, base.precedence, (risk,)),
                        n=cfg_n, seed=seed)

        _, ens_hit = with_risk(1.0)
        assert np.array_equal(ens_hit.total_duration, ens_free.total_duration + 5.0)

        net_noop, ens_noop = with_risk(0.0)
        assert np.array_equal(ens_noop.total_duration, ens_free.total_duration)
        assert np.array_equal(ens_noop.total_cost, ens_free.total_cost)
        for node_id in ("B1", "B2"):
            a = ens_free.durations[net_free.ids().index(node_id)]
            b = ens_noop.durations[net_noop.ids().index(node_id)]
            assert np.array_equal(a, b)


def test_criterion_7_baseline_identities(figure3_network):
    with criterion(7, "SRB endpoints and monotonicity; ARI sums to 100%"):
        _, ens = fast(figure3_network, n=20_000, seed=77)
        baseline = risk_baselines(ens)
        srb = baseline.srb_at(np.linspace(0.0, ens.plan.duration, 101))
        assert srb[0] == 0.0
        sigma = baseline.sigma_duration
        assert abs(srb[-1] - sigma) <= 1e-6 * sigma
        assert (np.diff(srb) >= -1e-12).all()
        ari = activity_risk_index(baseline)
        assert abs(ari.ari.sum() - 100.0) <= 1e-9


def test_criterion_8_control_sanity():
    with criterion(8, "on-plan observation: zero deviations, full budget, Triad ~50"):
        spec = chain_spec([Distribution.triangular(1, 2, 3)] * 2, fixed=10, rate=0)
        _, ens = fast(spec, seed=88)
        planned = ens.plan
        baseline = risk_baselines(ens)
        t = planned.duration / 2
        obs = ControlObservation(t=t, ev=planned.value_at(t), ac=planned.value_at(t))
        indices = control_indices(obs, baseline)
        assert abs(indices.schedule_deviation) < 1e-9
        assert indices.cost_deviation == 0.0
        assert indices.scoi == pytest.approx(baseline.srb_at(t), abs=1e-9)
        assert indices.ccoi == pytest.approx(baseline.crb_at(t), abs=1e-9)

        report = triad(obs, ens)
        assert report.completion == pytest.approx(0.5)
        assert abs(report.schedule_percentile - 50.0) <= 3.0
        assert abs(report.cost_percentile - 50.0) <= 3.0


def test_criterion_9_sevm_limits(figure3_network):
    with criterion(9, "SEVM: k=n reproduces endpoint means; deterministic degenerate"):
        _, ens = fast(figure3_network, n=20_000, seed=99)
        obs = ControlObservation(t=4.0, ev=0.5 * ens.plan.bac, ac=0.5 * ens.plan.bac)
        forecast = sevm_forecast(obs, ens, k_neighbors=ens.n_runs)
        assert forecast.eac_duration == pytest.approx(ens.total_duration.mean(), rel=1e-12)
        assert forecast.eac_cost == pytest.approx(ens.total_cost.mean(), rel=1e-12)

        _, fixed_ens = fast(chain_spec([Distribution.point(3)] * 2, fixed=5, rate=1),
                            n=1000, seed=98)
        obs2 = ControlObservation(t=3.0, ev=0.5 * fixed_ens.plan.bac,
                                  ac=0.5 * fixed_ens.plan.bac)
        degenerate = sevm_forecast(obs2, fixed_ens, k_neighbors=200)
        assert degenerate.p_late == 0.0
        assert all(v == fixed_ens.plan.duration for _, v in degenerate.duration_interval)
        assert all(v == fixed_ens.plan.bac for _, v in degenerate.cost_interval)

        mid = sevm_forecast(obs, ens)
        expected = ens.total_duration[mid.neighbor_runs] > ens.plan.duration
        assert np.array_equal(mid.neighbor_late, expected)


def test_criterion_10_contingency():
    with criterion(10, "median reserve near zero on a symmetric project; monotone in p"):
        spec = chain_spec([Distribution.triangular(2, 4, 6)] * 4, fixed=5, rate=1)
        _, ens = fast(spec, seed=110)
        for dimension, sigma in (("duration", ens.total_duration.std(ddof=1)),
                                 ("cost", ens.total_cost.std(ddof=1))):
            se_median = 1.2533 * sigma / np.sqrt(ens.n_runs)
            assert abs(contingency_reserve(ens, 50, dimension)) <= 3 * se_median
            reserves = [contingency_reserve(ens, p, dimension)
                        for p in (50, 75, 90, 95, 99)]
            assert (np.diff(reserves) >= 0).all()
