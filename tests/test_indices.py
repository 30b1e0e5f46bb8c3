import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import rankdata

import riskmc.indices
from netgen import chain_spec, parallel_spec, random_dag_spec
from riskmc import (
    Distribution,
    SimConfig,
    contingency_reserve,
    criticality_index,
    cruciality_index,
    enumerate_paths,
    run_ensemble,
    schedule_sensitivity_index,
    sensitivity_report,
    validate,
)
from riskmc.errors import ConfigError, DegenerateProject


def simulate(spec, n=100_000, seed=101):
    net = validate(spec)
    return net, run_ensemble(net, SimConfig(n_runs=n, seed=seed))


def test_ci_symmetric_parallel_branches():
    net, ens = simulate(parallel_spec([Distribution.uniform(1, 2)] * 2))
    ci = criticality_index(ens)
    assert ci[net.index_of("B1")] == pytest.approx(0.5, abs=0.02)
    assert ci[net.index_of("B2")] == pytest.approx(0.5, abs=0.02)
    assert ci[net.source] == 1.0 and ci[net.sink] == 1.0


def test_ci_single_chain_everything_critical():
    _, ens = simulate(chain_spec([Distribution.uniform(1, 3), Distribution.triangular(1, 2, 3)]),
                      n=2000)
    assert (criticality_index(ens) == 1.0).all()


def test_ci_point_durations_match_hand_cpm(figure3_spec):
    # point durations 2/3/4/5 with inert risks: the longest path enumerates to
    # A0-A2-A6-A4-Af (3+5=8 beats 2+5=7 and 2+4=6), so CI is exactly its
    # indicator
    from riskmc import Activity, ProjectSpec, RiskEvent

    acts = []
    for a, d in zip(figure3_spec.activities, (0, 2, 3, 4, 5, 0)):
        acts.append(Activity(id=a.id, name=a.name, duration=Distribution.point(d),
                             fixed_cost=a.fixed_cost,
                             variable_cost_rate=a.variable_cost_rate))
    risks = tuple(RiskEvent(id=r.id, name=r.name, probability=0.0, kind=r.kind,
                            target=r.target, impact=r.impact)
                  for r in figure3_spec.risks)
    _, ens = simulate(ProjectSpec(acts, figure3_spec.precedence, risks), n=300)
    ci = dict(zip(ens.node_ids, criticality_index(ens)))
    assert ci == {"A0": 1.0, "A1": 0.0, "A2": 1.0, "A5": 0.0, "A6": 1.0,
                  "A3": 0.0, "A4": 1.0, "Af": 1.0}


def test_ci_exact_for_point_network():
    spec = chain_spec([Distribution.point(2), Distribution.point(3)])
    _, ens = simulate(spec, n=200)
    assert (criticality_index(ens) == 1.0).all()


def test_cri_two_serial_iid():
    # corr(X, X + Y) = 1/sqrt(2) for iid X, Y
    net, ens = simulate(chain_spec([Distribution.uniform(1, 3)] * 2))
    cri = cruciality_index(ens)
    assert cri[net.index_of("B1")] == pytest.approx(1 / np.sqrt(2), abs=0.02)
    assert cri[net.index_of("B2")] == pytest.approx(1 / np.sqrt(2), abs=0.02)


def test_cri_zero_variance_convention():
    net, ens = simulate(chain_spec([Distribution.point(3), Distribution.uniform(1, 2)]),
                        n=4000)
    cri = cruciality_index(ens)
    assert cri[net.index_of("B1")] == 0.0
    assert cri[net.index_of("B2")] > 0.99


def test_cri_single_stochastic_activity():
    net, ens = simulate(chain_spec([Distribution.uniform(2, 6)]), n=4000)
    assert cruciality_index(ens)[net.index_of("B1")] == pytest.approx(1.0, abs=1e-12)


def test_cri_spearman_flag():
    net, ens = simulate(chain_spec([Distribution.uniform(1, 3)] * 2), n=4000)
    rho = cruciality_index(ens, method="spearman")
    assert rho[net.index_of("B1")] == pytest.approx(0.707, abs=0.05)
    with pytest.raises(ConfigError):
        cruciality_index(ens, method="kendall")


_RANK_INPUTS = st.one_of(
    st.lists(st.floats(allow_nan=False), min_size=1, max_size=500, unique=True),
    st.lists(st.integers(-3, 3).map(float), min_size=1, max_size=500),
    st.lists(st.sampled_from([-0.0, 0.0, 1.0]), min_size=1, max_size=500),
)


@settings(max_examples=300, deadline=None)
@given(_RANK_INPUTS)
@example([2.5])
@example([0.0, -0.0, -0.0, 0.0])
def test_average_ranks_equal_scipy_rankdata_bitwise(values):
    x = np.array(values)
    ours, ref = riskmc.indices._average_ranks(x), rankdata(x)
    assert ours.dtype == ref.dtype and ours.tobytes() == ref.tobytes()


@pytest.mark.parametrize("seed", range(24))
def test_spearman_cri_matches_rankdata_reference_bitwise(seed, monkeypatch):
    rng = np.random.default_rng(seed)
    # discrete-only networks tie heavily; the mixed laws add untied columns
    spec = random_dag_spec(rng, n_real=int(rng.integers(1, 9)),
                           discrete_only=seed % 2 == 0, with_risks=int(rng.integers(0, 3)))
    ens = run_ensemble(validate(spec), SimConfig(n_runs=int(rng.integers(2, 400)), seed=seed))
    ours = cruciality_index(ens, "spearman")
    monkeypatch.setattr(riskmc.indices, "_average_ranks", rankdata)
    ref = cruciality_index(ens, "spearman")
    assert ours.tobytes() == ref.tobytes()


def test_ssi_identities():
    net, ens = simulate(chain_spec([Distribution.uniform(2, 6)]), n=4000)
    ssi = schedule_sensitivity_index(ens)
    assert ssi[net.index_of("B1")] == 1.0  # CI = 1 and sigma_i = sigma_PD exactly
    assert ssi[net.source] == 0.0


def test_ssi_two_serial_iid():
    net, ens = simulate(chain_spec([Distribution.uniform(1, 3)] * 2))
    ssi = schedule_sensitivity_index(ens)
    assert ssi[net.index_of("B1")] == pytest.approx(1 / np.sqrt(2), abs=0.02)


def test_ssi_degenerate_project():
    _, ens = simulate(chain_spec([Distribution.point(5)]), n=100)
    with pytest.raises(DegenerateProject):
        schedule_sensitivity_index(ens)


def test_report_identity_ssi_equals_ci_sigma_ratio(figure3_network):
    ens = run_ensemble(figure3_network, SimConfig(n_runs=5000, seed=5))
    rep = sensitivity_report(ens)
    assert np.allclose(rep.ssi, rep.ci * rep.sigma / rep.sigma_duration, rtol=1e-12)
    assert rep.ssi.tobytes() == schedule_sensitivity_index(ens).tobytes()
    assert ((rep.ci >= 0) & (rep.ci <= 1)).all()
    assert ((rep.cri >= 0) & (rep.cri <= 1)).all()


def test_every_run_has_a_fully_critical_path():
    rng = np.random.default_rng(67)
    for _ in range(5):
        spec = random_dag_spec(rng, n_real=5, with_risks=1)
        net = validate(spec)
        ens = run_ensemble(net, SimConfig(n_runs=300, seed=int(rng.integers(1 << 30))))
        membership = enumerate_paths(net).membership.astype(bool)
        # each run: some path with every node flagged critical
        full = (ens.critical[:, None, :] | ~membership[None, :, :]).all(axis=2)
        assert full.any(axis=1).all()
        # consequently path criticality probabilities sum to at least 1
        assert full.mean(axis=0).sum() >= 1.0 - 1e-9


def test_indices_invariant_under_relabeling():
    rng = np.random.default_rng(68)
    spec = random_dag_spec(rng, n_real=5, with_risks=1)
    net = validate(spec)
    ens = run_ensemble(net, SimConfig(n_runs=3000, seed=11))
    rep = sensitivity_report(ens)

    # permute the middle activities in the declaration list (matrix rows follow)
    perm = [0, 3, 1, 4, 2, 5, 6]
    acts = [spec.activities[i] for i in perm]
    matrix = [[spec.precedence[i][j] for j in perm] for i in perm]
    from riskmc import ProjectSpec
    net2 = validate(ProjectSpec(acts, matrix, spec.risks))
    ens2 = run_ensemble(net2, SimConfig(n_runs=3000, seed=11))
    rep2 = sensitivity_report(ens2)
    for node_id in net.ids():
        i, j = list(rep.node_ids).index(node_id), list(rep2.node_ids).index(node_id)
        assert rep.ci[i] == rep2.ci[j]
        assert abs(rep.cri[i] - rep2.cri[j]) < 1e-12
        assert abs(rep.ssi[i] - rep2.ssi[j]) < 1e-12


def test_indices_invariant_under_time_scaling():
    # doubling every duration is exact in binary floating point
    spec = chain_spec([Distribution.uniform(1, 3), Distribution.triangular(1, 2, 4)])
    doubled = chain_spec([Distribution.uniform(2, 6), Distribution.triangular(2, 4, 8)])
    cfg = SimConfig(n_runs=4000, seed=21)
    rep = sensitivity_report(run_ensemble(validate(spec), cfg))
    rep2 = sensitivity_report(run_ensemble(validate(doubled), cfg))
    assert np.array_equal(rep.ci, rep2.ci)
    assert np.allclose(rep.cri, rep2.cri, atol=1e-12)
    assert np.allclose(rep.ssi, rep2.ssi, atol=1e-12)


# -- contingency reserves ----------------------------------------------------

def test_reserve_median_of_symmetric_serial_project_is_small():
    spec = chain_spec([Distribution.triangular(2, 4, 6)] * 4, fixed=5, rate=1)
    _, ens = simulate(spec, n=100_000)
    sigma = ens.total_duration.std(ddof=1)
    se_median = 1.2533 * sigma / np.sqrt(ens.n_runs)
    assert abs(contingency_reserve(ens, 50, "duration")) < 3 * se_median


def test_reserve_point_distributions_zero():
    spec = chain_spec([Distribution.point(3)] * 2, fixed=4, rate=2)
    _, ens = simulate(spec, n=500)
    assert contingency_reserve(ens, 100, "cost") == 0.0
    assert contingency_reserve(ens, 100, "duration") == 0.0


def test_reserve_uniform_cost_quantile():
    # single uniform(4,6) activity at rate 1: cost p90 = 5.8, planned 5
    spec = chain_spec([Distribution.uniform(4, 6)], fixed=0, rate=1)
    _, ens = simulate(spec, n=100_000)
    assert contingency_reserve(ens, 90, "cost") == pytest.approx(0.8, abs=0.01)


def test_reserve_monotone_in_percentile(figure3_network):
    ens = run_ensemble(figure3_network, SimConfig(n_runs=20_000, seed=3))
    for dimension in ("cost", "duration"):
        values = [contingency_reserve(ens, p, dimension) for p in (50, 75, 90, 95, 99)]
        assert (np.diff(values) >= 0).all()


def test_reserve_dimension_validation(figure3_network):
    ens = run_ensemble(figure3_network, SimConfig(n_runs=100, seed=3))
    with pytest.raises(ConfigError):
        contingency_reserve(ens, 50, "scope")
