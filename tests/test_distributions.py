import math

import numpy as np
import pytest

from riskmc import Distribution, mean
from riskmc.distributions import inv_cdf
from riskmc.errors import BadDistributionParams
from riskmc.montecarlo import sample_block

ONE_OF_EACH = [
    Distribution.point(3.5),
    Distribution.discrete([(2, 0.5), (4, 0.5)]),
    Distribution.uniform(4, 6),
    Distribution.triangular(1, 2, 4),
    Distribution.normal(10, 2),
    Distribution.pert(3, 5, 7),
]


def test_analytic_means():
    assert mean(Distribution.triangular(0, 1, 2)) == pytest.approx(1.0)
    assert mean(Distribution.pert(0, 1, 2)) == pytest.approx(1.0)
    assert mean(Distribution.discrete([(2, 0.5), (4, 0.5)])) == pytest.approx(3.0)
    assert mean(Distribution.point(7)) == 7.0
    assert mean(Distribution.uniform(4, 6)) == 5.0
    assert mean(Distribution.normal(10, 2)) == 10.0


@pytest.mark.parametrize("bad", [
    lambda: Distribution.uniform(3, 2),
    lambda: Distribution.uniform(-1, 2),
    lambda: Distribution.triangular(1, 5, 3),
    lambda: Distribution.triangular(2, 1, 3),
    lambda: Distribution.pert(3, 2, 5),
    lambda: Distribution.normal(5, -1),
    lambda: Distribution.normal(-2, 1),
    lambda: Distribution.point(-1),
    lambda: Distribution.point(math.inf),
    lambda: Distribution.discrete([]),
    lambda: Distribution.discrete([(1, 0.5), (2, 0.6)]),
    lambda: Distribution.discrete([(1, 0.0), (2, 1.0)]),
    lambda: Distribution.discrete([(-1, 1.0)]),
    lambda: Distribution("weibull", (1.0, 2.0)),
])
def test_bad_params_rejected(bad):
    with pytest.raises(BadDistributionParams):
        bad()


@pytest.mark.parametrize("dist", ONE_OF_EACH, ids=lambda d: d.kind)
def test_mean_matches_sample_mean_of_1e6_draws(dist):
    # sample mean within 4 standard errors of the analytic mean
    n = 1_000_000
    draws = sample_block(dist, seed=2024, ident=f"mean-{dist.kind}", start=0, count=n)
    se = draws.std(ddof=1) / math.sqrt(n)
    if se == 0.0:
        assert draws.mean() == mean(dist)
    else:
        assert abs(draws.mean() - mean(dist)) < 4.0 * se


@pytest.mark.parametrize("dist", ONE_OF_EACH, ids=lambda d: d.kind)
def test_inv_cdf_monotone_and_in_support(dist):
    u = np.linspace(0.0, 0.999999, 2001)
    x = inv_cdf(dist, u)
    assert (np.diff(x) >= 0).all()
    if dist.kind != "normal":
        assert (x >= 0).all()


def test_point_sampling_constant():
    draws = sample_block(Distribution.point(7), seed=1, ident="point", start=0, count=10)
    assert (draws == 7.0).all()


def test_uniform_degenerate_support():
    draws = sample_block(Distribution.uniform(5, 5), seed=2, ident="flat", start=0, count=10)
    assert (draws == 5.0).all()


def test_triangular_sample_mean_clt_bound():
    # sd of triangular(0,1,2) is sqrt(1/6) ~ 0.408; 1e6 draws give se ~ 4e-4
    draws = sample_block(Distribution.triangular(0, 1, 2), seed=7, ident="tri", start=0,
                         count=1_000_000)
    assert abs(draws.mean() - 1.0) < 0.004


def test_normal_truncated_at_zero():
    draws = sample_block(Distribution.normal(0.5, 2.0), seed=11, ident="trunc", start=0,
                         count=200_000)
    assert (draws >= 0.0).all()
    assert draws.min() < 0.05  # mass near the boundary actually appears


def test_discrete_probabilities_respected():
    dist = Distribution.discrete([(1, 0.25), (2, 0.25), (5, 0.5)])
    draws = sample_block(dist, seed=3, ident="disc", start=0, count=400_000)
    values, counts = np.unique(draws, return_counts=True)
    assert list(values) == [1.0, 2.0, 5.0]
    freqs = counts / draws.size
    assert np.allclose(freqs, [0.25, 0.25, 0.5], atol=0.005)


def test_normal_sigma_zero_is_point_mass():
    draws = sample_block(Distribution.normal(4.0, 0.0), seed=5, ident="sig0", start=0,
                         count=100)
    assert (draws == 4.0).all()


def test_pert_shape_between_bounds():
    draws = sample_block(Distribution.pert(3, 5, 7), seed=9, ident="pert", start=0,
                         count=100_000)
    assert draws.min() >= 3.0 and draws.max() <= 7.0
    assert abs(draws.mean() - 5.0) < 0.01
