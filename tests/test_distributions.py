import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from riskmc import Distribution
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
    assert Distribution.triangular(0, 1, 2).mean() == pytest.approx(1.0)
    assert Distribution.pert(0, 1, 2).mean() == pytest.approx(1.0)
    assert Distribution.discrete([(2, 0.5), (4, 0.5)]).mean() == pytest.approx(3.0)
    assert Distribution.point(7).mean() == 7.0
    assert Distribution.uniform(4, 6).mean() == 5.0
    assert Distribution.normal(10, 2).mean() == 10.0
    # the ends sum past the largest double, the mean does not
    assert Distribution.uniform(1e308, 1.5e308).mean() == 1.25e308
    assert Distribution.triangular(1.5e308, 1.5e308, 1.5e308).mean() == 1.5e308
    assert Distribution.pert(1.5e308, 1.5e308, 1.5e308).mean() == 1.5e308


PLAIN_MEANS = {
    "uniform": lambda a, b: (a + b) / 2.0,
    "triangular": lambda a, m, b: (a + m + b) / 3.0,
    "pert": lambda a, m, b: (a + 4.0 * m + b) / 6.0,
}
ENDS = st.one_of(st.floats(0.0, 1.7976931348623157e308),
                 st.sampled_from([0.0, 5e-324, 2.5e-310, 1e308, 1.7976931348623157e308]))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(PLAIN_MEANS)), st.lists(ENDS, min_size=3, max_size=3))
@example("uniform", [5e-324, 1e-323, 0.0])
@example("pert", [1e308, 1.5e308, 1.7e308])
@example("pert", [1.2716471787998418e308] * 3)
def test_mean_is_the_plain_formula_or_its_finite_scaled_form(kind, ends):
    # bitwise the plain formula wherever it is finite, subnormal ends too;
    # where its sum overflows, finite and within 4e-16 of the exact mean
    params = sorted(ends)[:2] if kind == "uniform" else sorted(ends)
    dist = Distribution(kind, tuple(params))
    plain = PLAIN_MEANS[kind](*params)
    if plain < math.inf:
        assert dist.mean() == plain
        return
    weights = {"uniform": (1, 1), "triangular": (1, 1, 1), "pert": (1, 4, 1)}[kind]
    exact = sum(w * Fraction(x) for w, x in zip(weights, params)) / sum(weights)
    assert dist.mean() == pytest.approx(float(exact), rel=4e-16)


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
        assert draws.mean() == dist.mean()
    else:
        assert abs(draws.mean() - dist.mean()) < 4.0 * se


@pytest.mark.parametrize("dist", ONE_OF_EACH, ids=lambda d: d.kind)
def test_inv_cdf_monotone_and_in_support(dist):
    u = np.linspace(0.0, 0.999999, 2001)
    x = inv_cdf(dist, u)
    assert (np.diff(x) >= 0).all()
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
