import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import rankdata

import riskmc.indices
from netgen import chain_spec, critical_flags, normal_pert_spec, parallel_spec, random_dag_spec
from riskmc import (
    Distribution,
    contingency_reserve,
    enumerate_paths,
    run_ensemble,
    sensitivity_report,
    validate,
)
from riskmc.control import _variance_shares, risk_baselines
from riskmc.montecarlo import row_moments, sample_sd, scaled, unit_scaled
from riskmc.errors import ConfigError, DegenerateProject


def simulate(spec, n=100_000, seed=101):
    net = validate(spec)
    return net, run_ensemble(net, n, seed)


def test_ci_symmetric_parallel_branches():
    net, ens = simulate(parallel_spec([Distribution.uniform(1, 2)] * 2))
    ci = sensitivity_report(ens).ci
    assert ci[net.ids().index("B1")] == pytest.approx(0.5, abs=0.02)
    assert ci[net.ids().index("B2")] == pytest.approx(0.5, abs=0.02)
    assert ci[net.source] == 1.0 and ci[net.sink] == 1.0


def test_ci_single_chain_everything_critical():
    _, ens = simulate(chain_spec([Distribution.uniform(1, 3), Distribution.triangular(1, 2, 3)]),
                      n=2000)
    assert (sensitivity_report(ens).ci == 1.0).all()


def test_ci_point_durations_match_hand_cpm(figure3_spec):
    # point durations 2/3/4/5 with inert risks: the longest path enumerates to
    # A0-A2-A6-A4-Af (3+5=8 beats 2+5=7 and 2+4=6), so CI is exactly its
    # indicator; the project duration is constant, which sensitivity_report
    # refuses, so CI is taken as README states it
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
    ci = dict(zip(ens.plan.node_ids, ens.critical_runs / ens.n_runs))
    assert ci == {"A0": 1.0, "A1": 0.0, "A2": 1.0, "A5": 0.0, "A6": 1.0,
                  "A3": 0.0, "A4": 1.0, "Af": 1.0}


def test_ci_exact_for_point_network():
    spec = chain_spec([Distribution.point(2), Distribution.point(3)])
    _, ens = simulate(spec, n=200)
    assert (ens.critical_runs / ens.n_runs == 1.0).all()


def test_cri_two_serial_iid():
    # corr(X, X + Y) = 1/sqrt(2) for iid X, Y
    net, ens = simulate(chain_spec([Distribution.uniform(1, 3)] * 2))
    cri = sensitivity_report(ens).cri
    assert cri[net.ids().index("B1")] == pytest.approx(1 / np.sqrt(2), abs=0.02)
    assert cri[net.ids().index("B2")] == pytest.approx(1 / np.sqrt(2), abs=0.02)


def test_cri_zero_variance_convention():
    net, ens = simulate(chain_spec([Distribution.point(3), Distribution.uniform(1, 2)]),
                        n=4000)
    cri = sensitivity_report(ens).cri
    assert cri[net.ids().index("B1")] == 0.0
    assert cri[net.ids().index("B2")] > 0.99


def test_cri_single_stochastic_activity():
    net, ens = simulate(chain_spec([Distribution.uniform(2, 6)]), n=4000)
    assert sensitivity_report(ens).cri[net.ids().index("B1")] == pytest.approx(1.0, abs=1e-12)


def test_cri_spearman_flag():
    net, ens = simulate(chain_spec([Distribution.uniform(1, 3)] * 2), n=4000)
    rho = sensitivity_report(ens, method="spearman").cri
    assert rho[net.ids().index("B1")] == pytest.approx(0.707, abs=0.05)
    with pytest.raises(ConfigError):
        sensitivity_report(ens, method="kendall")


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
    ens = run_ensemble(validate(spec), int(rng.integers(2, 400)), seed)
    ours = sensitivity_report(ens, "spearman").cri
    monkeypatch.setattr(riskmc.indices, "_average_ranks", rankdata)
    ref = sensitivity_report(ens, "spearman").cri
    assert ours.tobytes() == ref.tobytes()


def _fsum_moments(x, t):
    """(sum dx dt, sum dx^2, sum dt^2) about the means, with math.fsum sums."""
    dx = x - math.fsum(x) / len(x)
    dt = t - math.fsum(t) / len(t)
    return math.fsum(dx * dt), math.fsum(dx * dx), math.fsum(dt * dt)


def test_pearson_and_variance_shares_match_fsum_reference():
    # both reduce each node's runs with numpy's pairwise sums; a reference
    # summing with math.fsum bounds their rounding
    ens = run_ensemble(validate(normal_pert_spec()), 30_000, 14)
    cri = []
    for row in ens.durations:
        sxt, sxx, stt = _fsum_moments(row, ens.total_duration)
        cri.append(abs(sxt) / math.sqrt(sxx * stt) if sxx > 0.0 else 0.0)
    assert sensitivity_report(ens).cri == pytest.approx(cri, rel=1e-12, abs=0.0)
    for rows, totals in ((lambda: ens.durations, ens.total_duration),
                         (ens.cost_rows, ens.total_cost)):
        cov = [max(_fsum_moments(row, totals)[0], 0.0) for row in rows()]
        shares = np.array(cov) / math.fsum(cov)
        assert _variance_shares(rows(), totals) == pytest.approx(shares, rel=1e-12, abs=0.0)


def test_overflowing_sums_reduce_as_the_unscaled_runs_bitwise():
    # durations scaled by 2**1015 stay finite, but every plain sum of their
    # runs passes the largest double; the reductions scale each side back
    # below 1 by a power of two, so CrI (Pearson and Spearman), SSI and the
    # variance shares equal the unscaled ensemble's bit for bit, and each
    # sigma is 2**1015 times its own
    ens = run_ensemble(validate(normal_pert_spec()), 3000, 14)
    big = dataclasses.replace(ens, durations=np.ldexp(ens.durations, 1015),
                              total_duration=np.ldexp(ens.total_duration, 1015))
    plain, scaled = sensitivity_report(ens), sensitivity_report(big)
    for field in ("ci", "cri", "ssi"):
        assert getattr(scaled, field).tobytes() == getattr(plain, field).tobytes(), field
    assert scaled.sigma.tobytes() == np.ldexp(plain.sigma, 1015).tobytes()
    spearman = sensitivity_report(big, "spearman").cri
    assert spearman.tobytes() == sensitivity_report(ens, "spearman").cri.tobytes()
    for rows, totals in ((lambda: ens.durations, ens.total_duration),
                         (ens.cost_rows, ens.total_cost)):
        want = _variance_shares(rows(), totals)
        got = _variance_shares((np.ldexp(row, 1015) for row in rows()), np.ldexp(totals, 1015))
        assert got.tobytes() == want.tobytes()


def _plain_moments(row, totals):
    """(sd, r, cov) of a row against the totals with plain numpy sums; r is
    nan where its denominator passes the largest double."""
    dc, tc = row - row.mean(), totals - totals.mean()
    sxx, stt, sxt = (dc * dc).sum(), (tc * tc).sum(), (dc * tc).sum()
    denom = np.sqrt(sxx * stt)
    r = (sxt / denom if denom != 0.0 else 0.0) if np.isfinite(denom) else np.nan
    return row.std(ddof=1), r, sxt / (len(row) - 1)


@settings(max_examples=200, deadline=None)
@given(st.integers(-200, 1000), st.integers(2, 40), st.integers(1, 4), st.integers(0, 2**32 - 1))
@example(1000, 40, 4, 0)
@example(-200, 2, 1, 1)
def test_scaled_reductions_equal_the_plain_ones_wherever_those_are_finite(exponent, n, m,
                                                                          seed):
    # nonnegative rows of magnitude 2**exponent, each a few powers of two
    # apart, with totals that no row exceeds, as durations against their
    # longest paths: scaling by powers of two is exact in that range, so every
    # scaled reduction is the plain one bit for bit wherever the plain one is
    # finite; the covariance stays scaled by 2**(-2 * shift)
    rng = np.random.default_rng(seed)
    rows = np.ldexp(rng.integers(0, 2**20, size=(m, n)) / 2**20,
                    exponent - rng.integers(0, 8, size=(m, 1)))
    totals = rows.sum(axis=0)
    shift = unit_scaled(totals)[1]
    sd, r, cov = row_moments(iter(rows), totals)
    with np.errstate(over="ignore", invalid="ignore"):
        for j, row in enumerate(rows):
            for got, want in zip((sd[j], r[j], np.ldexp(cov[j], 2 * shift)),
                                 _plain_moments(row, totals)):
                if np.isfinite(want):
                    assert np.float64(got).tobytes() == np.float64(want).tobytes(), j
        for got, want in ((scaled(np.mean, totals), totals.mean()),
                          (sample_sd(totals), totals.std(ddof=1))):
            if np.isfinite(want):
                assert np.float64(got).tobytes() == want.tobytes()


def test_analysis_reduces_one_row_at_a_time():
    # beyond the ensemble, the indices, the baselines and the reserve hold a
    # few run-sized arrays at once, never one per node: 42 nodes here. The
    # Spearman report holds the ranked totals and one row's ranking
    # temporaries (sort order, tie groups) beside them
    rng = np.random.default_rng(40)
    net = validate(random_dag_spec(rng, n_real=40, edge_prob=0.1, with_risks=4))
    n = 20_000
    ens = run_ensemble(net, n, 5)
    for analysis, runs in ((sensitivity_report, 5), (risk_baselines, 5),
                           (lambda e: contingency_reserve(e, 90), 5),
                           (lambda e: sensitivity_report(e, "spearman"), 16)):
        tracemalloc.start()
        try:
            analysis(ens)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= runs * 8 * n, (analysis, peak / (8 * n))


def test_ssi_identities():
    net, ens = simulate(chain_spec([Distribution.uniform(2, 6)]), n=4000)
    ssi = sensitivity_report(ens).ssi
    assert ssi[net.ids().index("B1")] == 1.0  # CI = 1 and sigma_i = sigma_PD exactly
    assert ssi[net.source] == 0.0


def test_ssi_two_serial_iid():
    net, ens = simulate(chain_spec([Distribution.uniform(1, 3)] * 2))
    ssi = sensitivity_report(ens).ssi
    assert ssi[net.ids().index("B1")] == pytest.approx(1 / np.sqrt(2), abs=0.02)


def test_ssi_degenerate_project():
    _, ens = simulate(chain_spec([Distribution.point(5)]), n=100)
    with pytest.raises(DegenerateProject):
        sensitivity_report(ens).ssi


def test_report_identity_ssi_equals_ci_sigma_ratio(figure3_network):
    ens = run_ensemble(figure3_network, 5000, 5)
    rep = sensitivity_report(ens)
    assert np.allclose(rep.ssi, rep.ci * rep.sigma / ens.total_duration.std(ddof=1),
                       rtol=1e-12)
    assert ((rep.ci >= 0) & (rep.ci <= 1)).all()
    assert ((rep.cri >= 0) & (rep.cri <= 1)).all()


def test_every_run_has_a_fully_critical_path():
    rng = np.random.default_rng(67)
    for _ in range(5):
        spec = random_dag_spec(rng, n_real=5, with_risks=1)
        net = validate(spec)
        ens = run_ensemble(net, 300, int(rng.integers(1 << 30)))
        membership = enumerate_paths(net).membership.astype(bool)
        # each run: some path with every node flagged critical
        full = (critical_flags(ens).T[:, None, :] | ~membership[None, :, :]).all(axis=2)
        assert full.any(axis=1).all()
        # consequently path criticality probabilities sum to at least 1
        assert full.mean(axis=0).sum() >= 1.0 - 1e-9


def test_indices_invariant_under_relabeling():
    rng = np.random.default_rng(68)
    spec = random_dag_spec(rng, n_real=5, with_risks=1)
    net = validate(spec)
    ens = run_ensemble(net, 3000, 11)
    rep = sensitivity_report(ens)

    # permute the middle activities in the declaration list (same edges)
    perm = [0, 3, 1, 4, 2, 5, 6]
    acts = [spec.activities[i] for i in perm]
    from riskmc import ProjectSpec
    net2 = validate(ProjectSpec(acts, spec.precedence, spec.risks))
    ens2 = run_ensemble(net2, 3000, 11)
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
    n_runs, seed = 4000, 21
    rep = sensitivity_report(run_ensemble(validate(spec), n_runs, seed))
    rep2 = sensitivity_report(run_ensemble(validate(doubled), n_runs, seed))
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
    ens = run_ensemble(figure3_network, 20_000, 3)
    for dimension in ("cost", "duration"):
        values = [contingency_reserve(ens, p, dimension) for p in (50, 75, 90, 95, 99)]
        assert (np.diff(values) >= 0).all()


def test_reserve_dimension_validation(figure3_network):
    ens = run_ensemble(figure3_network, 100, 3)
    with pytest.raises(ConfigError):
        contingency_reserve(ens, 50, "scope")
