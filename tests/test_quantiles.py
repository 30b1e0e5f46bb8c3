"""The numpy-only normal and PERT quantiles against scipy.special, which
riskmc uses only here, as a test-time oracle."""

import gc
import hashlib
import math
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.special import betaincinv, ndtr, ndtri

from riskmc import Distribution, quantiles
from riskmc.distributions import inv_cdf
from riskmc.montecarlo import sample_block

EDGES = np.array([5e-324, 1e-300, 1e-12, 0.5, 1 - 1e-12, np.nextafter(1.0, 0.0)])
UNIFORMS = np.concatenate([np.random.default_rng(2024).random(100_000), EDGES])
ALPHAS = (1.0, 1.0001, 1.4, 2.0, 3.0, 4.0, 4.9, 5.0)


@pytest.mark.parametrize("alpha", ALPHAS)
def test_pert_within_1e_12_of_betaincinv(alpha):
    # pert(a, a + (alpha - 1)(b - a)/4, b) has shape alpha
    a, b = 2.0, 6.0
    x = inv_cdf(Distribution.pert(a, a + (alpha - 1.0), b), UNIFORMS)
    beta = 6.0 - alpha
    unit = betaincinv(alpha, beta, UNIFORMS)
    # betaincinv gives nan where u underflows its series; there x is the
    # leading term (alpha B u)^(1/alpha) to far better than 1e-12
    tiny = np.isnan(unit)
    assert UNIFORMS[tiny].max(initial=0.0) <= 1e-300
    b_ab = math.exp(math.lgamma(alpha) + math.lgamma(beta) - math.lgamma(6.0))
    unit[tiny] = (alpha * b_ab * UNIFORMS[tiny]) ** (1.0 / alpha)
    assert np.abs(x - (a + (b - a) * unit)).max() <= 1e-12 * (b - a)


def test_normal_within_8_ulp_of_ndtri():
    z = quantiles.ndtri(UNIFORMS)
    ref = ndtri(UNIFORMS)
    err = np.abs(z - ref)
    near_half = np.abs(UNIFORMS - 0.5) < 1e-3
    assert ((err <= 8 * np.spacing(np.abs(ref))) | (near_half & (err <= 1e-15))).all()
    assert quantiles.ndtri(np.array([0.0]))[0] == -np.inf


def _ulp_key(x):
    """Integers in the order of the doubles x, one apart for adjacent doubles."""
    bits = x.view(np.int64)
    return np.where(bits < 0, -(bits & 0x7FFF_FFFF_FFFF_FFFF), bits)


def test_ndtri_steps_down_at_most_8_ulp_on_adjacent_doubles():
    # runs of 64 consecutive doubles in the central region, in both tails and
    # across the branch switches at |u - 1/2| = 0.425 and r = 5; AS 241
    # rounds to a few ulp, so a step between adjacent doubles can go down,
    # by at most 5 ulp in 63 million measured steps
    rng = np.random.default_rng(16)
    centers = np.concatenate([
        rng.uniform(0.075, 0.925, 2000),
        np.exp(rng.uniform(math.log(1e-320), math.log(0.075), 2000)),
        1.0 - np.exp(rng.uniform(math.log(2.0**-40), math.log(0.075), 2000)),
        [0.075, 0.925, math.exp(-25.0), 1.0 - math.exp(-25.0), 0.5],
    ])
    u = (centers.view(np.int64)[:, None] + np.arange(-32, 32)).view(np.float64)
    assert ((u > 0.0) & (u < 1.0)).all()
    steps = np.diff(_ulp_key(quantiles.ndtri(u)), axis=1)
    assert steps.min() >= -8


# sha256 of each table's split and its halves' six cubic fields, in order. A table
# must not move by a bit, and numpy's shortcuts for exponents such as 0.5
# and -1 depend on the shapes of the arrays it is built from
TABLE_SHA256 = {
    1.0: "bb612453076c474ce90d068c2864ebaf056652b9672fe5ae1567175b00fbc60a",
    1.0001: "236cc0dae2b5847bfbd143ae4ea2048d789e8c91e01db324d26ed96705df8bda",
    2.0: "ab79ce685360e6fcdf57f45cb7a9f4c3661df4f76ed2179cf48b5ee20ecb4c50",
    3.0: "3d29ac367e0482c00d8f0c39cf2dcbb91a4988992eb4d58659e5c84079d3cd40",
    4.0: "3263c9cd15e2b9a2d421b7f7f91fde4a1d47e684e75e45279ddbcdf2b588b570",
    4.9: "b9cc14085fee02c0028c0bf5a7e04bf7998e49d7a03d763f0fc2b51eb62e8bbf",
    5.0: "601b2e7f3ad9ca02e23589ffcfcdb01400e5dbb37edc945fe1de8b2ee6e3b2b6",
}


def _table_digest(table):
    digest = hashlib.sha256(np.float64(table.split).tobytes())
    for half in (table.lower, table.upper):
        for part in (half.inv_p, half.knots, half.r, half.c1, half.c2, half.c3):
            digest.update(np.asarray(part, dtype=float).tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("alpha", TABLE_SHA256)
def test_pert_table_is_pinned(alpha):
    assert _table_digest(quantiles.pert_table(alpha)) == TABLE_SHA256[alpha]


def test_pert_tables_live_as_long_as_their_laws():
    # 300 laws of distinct shapes; laws alive elsewhere in the session may
    # hold tables of their own, so the count is taken relative to theirs
    gc.collect()
    held = len(quantiles._TABLES)
    laws = [Distribution.pert(0.0, (k + 0.5) / 300, 1.0) for k in range(300)]
    for law in laws:
        inv_cdf(law, np.array([0.5]))
    assert len(quantiles._TABLES) == held + 300
    del law, laws
    gc.collect()
    assert len(quantiles._TABLES) == held


def test_equal_pert_laws_share_one_table():
    a, b = Distribution.pert(1, 2, 6), Distribution.pert(1, 2, 6)
    assert a is not b
    inv_cdf(a, UNIFORMS[:10])
    inv_cdf(b, UNIFORMS[:10])
    assert a._pert_table is b._pert_table


def test_threads_sampling_one_shape_share_one_table():
    # more threads than cores, switching often, each with its own laws of the
    # same four shapes: a shape built twice would leave two tables
    shapes = [(1.0, 1.0 + k / 7.0, 2.0) for k in range(1, 5)]

    def sample(_):
        laws = [Distribution.pert(*points) for points in shapes]
        for law in laws:
            inv_cdf(law, UNIFORMS[:100])
        return [law._pert_table for law in laws]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(8) as pool:
            tables = [f.result(timeout=60) for f in [pool.submit(sample, t) for t in range(8)]]
    finally:
        sys.setswitchinterval(interval)
    for k in range(len(shapes)):
        assert len({id(held[k]) for held in tables}) == 1


def test_threads_drawing_one_new_shape_build_it_once(monkeypatch):
    # eight threads ask at once for a shape no law holds yet; its build
    # sleeps, while the other threads queue on the lock
    build, builds = quantiles._build, []

    def slow_build(alpha):
        builds.append(alpha)
        time.sleep(0.05)
        return build(alpha)

    monkeypatch.setattr(quantiles, "_build", slow_build)
    laws = [Distribution.pert(0.0, 0.3456789, 1.0) for _ in range(8)]
    with ThreadPoolExecutor(8) as pool:
        tables = list(pool.map(lambda law: law._pert_table, laws))
    assert len(builds) == 1 and len({id(t) for t in tables}) == 1


def test_pert_is_non_decreasing_on_adjacent_floats():
    # runs of consecutive doubles at random points, at the split F(1/2) and
    # at the knots, where a rounding slip would show first; at alpha = 1.002
    # the upper table's last knot falls just short of 1 - F(1/2)
    rng = np.random.default_rng(7)
    for alpha in ALPHAS + (1.002,):
        table = quantiles.pert_table(alpha)
        centers = np.concatenate([rng.random(20), [table.split],
                                  table.lower.knots[1:40] ** alpha])
        bits = np.array(centers).view(np.int64)[:, None] + np.arange(-200, 200)
        u = bits.ravel().view(np.float64)
        u = np.sort(u[(u >= 0.0) & (u < 1.0)])
        x = quantiles.pert_unit(table, u)
        assert (np.diff(x) >= 0.0).all(), alpha
        lower = u < table.split
        assert (x[lower] <= 0.5).all() and (x[~lower] >= 0.5).all(), alpha


def _binary_search_unit(table, u):
    """pert_unit with the binary search of the knots that the guide replaced;
    pert_unit must match it bit for bit."""
    def half_quantile(half, v):
        s = v ** half.inv_p
        j = np.minimum(np.searchsorted(half.knots, s, side="right") - 1,
                       quantiles._CELLS - 1)
        t = (s - half.knots[j]) * half.r[j]
        y = (j + t * (half.c1[j] + t * (half.c2[j] + t * half.c3[j]))) * quantiles._H
        return np.minimum(y, 0.5)

    x = np.empty_like(u)
    lower = u < table.split
    x[lower] = half_quantile(table.lower, u[lower])
    x[~lower] = 1.0 - half_quantile(table.upper, 1.0 - u[~lower])
    return x


def test_guide_finds_the_cell_that_binary_search_finds():
    # 67 shapes; random uniforms, the ends, the split and its neighbours, and
    # the uniforms whose s lands on a knot, where a short guide would stop
    rng = np.random.default_rng(67)
    for alpha in ALPHAS + (1.002, 4.9999) + tuple(rng.uniform(1.0, 5.0, 57)):
        table = quantiles.pert_table(alpha)
        at_knots = [table.lower.knots[1:-1] ** alpha,
                    1.0 - table.upper.knots[1:-1] ** (6.0 - alpha)]
        u = np.concatenate([rng.random(2000), EDGES, [0.0, table.split], *at_knots,
                            np.nextafter(table.split, [0.0, 1.0])])
        u = u[(u >= 0.0) & (u < 1.0)]
        assert quantiles.pert_unit(table, u).tobytes() == \
            _binary_search_unit(table, u).tobytes(), alpha
        assert all(1 <= half.steps <= 8 for half in (table.lower, table.upper)), alpha


values = st.floats(min_value=0.0, max_value=1e300)
three_points = st.one_of(
    st.tuples(values, values, values).map(sorted),
    st.tuples(values, values).map(sorted).map(lambda p: (p[0], p[0], p[1])),  # m = a
    st.tuples(values, values).map(sorted).map(lambda p: (p[0], p[1], p[1])),  # m = b
    values.map(lambda v: (v, v, v)),
)


@given(st.sampled_from(("pert", "triangular")), three_points,
       st.lists(st.floats(min_value=0.0, max_value=1.0, exclude_max=True), max_size=40))
# 0.3 + (0.9 - 0.3) rounds above 0.9, which x = 1 at u = nextafter(1, 0) reaches
@example(kind="pert", points=(0.3, 0.9, 0.9), uniforms=[])
# triangular: 0.3 + sqrt(u * 0.6000000000000001 * 0.6000000000000001) rounds
# above b near u = 1, and 0.9 - 0.6000000000000001 below a at u = 0
@example(kind="triangular", points=(0.3, 0.9, 0.9), uniforms=[])
@example(kind="triangular", points=(0.3, 0.3, 0.9), uniforms=[])
# (b - a)(m - a) overflows
@example(kind="triangular", points=(0.0, 1e300, 1e300), uniforms=[0.5])
def test_pert_sampler_properties(kind, points, uniforms):
    # the same properties hold for the triangular sampler
    a, m, b = points
    u = np.sort(np.array(uniforms + [0.0, np.nextafter(1.0, 0.0)]))
    x = inv_cdf(getattr(Distribution, kind)(a, m, b), u)
    assert np.isfinite(x).all()
    assert (np.diff(x) >= 0.0).all()
    assert (x >= a).all() and (x <= b).all()
    if kind == "pert":  # a triangular law with m = a reaches a from b, within an ulp of b
        assert x[0] == a


TOP = np.nextafter(1.0, 0.0)


@given(st.one_of(st.just(0.0), values),
       st.floats(min_value=0.0, max_value=1e300, exclude_min=True),
       st.floats(min_value=37.0, max_value=41.0),
       st.lists(st.floats(min_value=0.0, max_value=1.0, exclude_max=True), max_size=40))
# mu = 0: p0 + (1 - p0) u rounds to 1 at u = nextafter(1, 0), where ndtri is nan
@example(mu=0.0, sigma=1.0, ratio=37.0, uniforms=[])
# mu / sigma >= ~37.5: p0 underflows to 0, so u = 0 reaches ndtri(0) = -inf
@example(mu=40.0, sigma=1.0, ratio=40.0, uniforms=[])
# mu / sigma = 38: p0 is subnormal and mu + sigma z rounds below 0
@example(mu=38.0, sigma=1.0, ratio=38.0, uniforms=[])
def test_truncated_normal_sampler_properties(mu, sigma, ratio, uniforms):
    # at the drawn (mu, sigma) and at mu = ratio * sigma, about where the mass
    # below 0 underflows: finite, nonnegative and non-decreasing in u
    u = np.sort(np.array(uniforms + [0.0, TOP]))
    for law in (Distribution.normal(mu, sigma), Distribution.normal(ratio * sigma, sigma)):
        x = inv_cdf(law, u)
        assert np.isfinite(x).all() and (x >= 0.0).all(), law
        assert (np.diff(x) >= 0.0).all(), law


@pytest.mark.parametrize("mu, sigma", [(0.0, 1.0), (0.5, 2.0)])
def test_truncated_normal_within_the_dkw_band(mu, sigma):
    # KS distance of 1e5 draws to the exact CDF of the normal conditioned
    # on x >= 0, inside the 99% DKW band sqrt(ln(2/0.01)/(2n))
    n = 100_000
    x = np.sort(sample_block(Distribution.normal(mu, sigma), seed=5, ident="dkw",
                             start=0, count=n))
    p0 = ndtr(-mu / sigma)
    cdf = (ndtr((x - mu) / sigma) - p0) / (1.0 - p0)
    ranks = np.arange(1, n + 1) / n
    ks = max((ranks - cdf).max(), (cdf - (ranks - 1.0 / n)).max())
    assert ks < math.sqrt(math.log(2 / 0.01) / (2 * n))


def test_triangular_is_non_decreasing_on_adjacent_floats():
    # runs of consecutive doubles around the split u = (m - a)/(b - a), where
    # the two branches meet at the mode; m = a and m = b included
    rng = np.random.default_rng(11)
    shapes = np.sort(rng.random((2000, 3)) * 10.0, axis=1)
    shapes[::3, 1] = shapes[::3, 0]
    shapes[1::3, 1] = shapes[1::3, 2]
    for a, m, b in shapes:
        split = (m - a) / (b - a)
        bits = np.array([split]).view(np.int64) + np.arange(-50, 51)
        u = bits.view(np.float64)
        u = np.sort(u[(u >= 0.0) & (u < 1.0)])
        x = inv_cdf(Distribution.triangular(a, m, b), u)
        assert (np.diff(x) >= 0.0).all(), (a, m, b)
        assert (x >= a).all() and (x <= b).all(), (a, m, b)
        assert (x[u < split] <= m).all() and (x[u >= split] >= m).all(), (a, m, b)


def test_triangular_is_scale_free_at_extreme_magnitudes():
    # (b - a)(m - a) overflows at 1e300 and underflows past the normal
    # floats at 1e-170; the draws still scale with the law
    u = np.linspace(0.0, 1.0, 20, endpoint=False)
    unit = inv_cdf(Distribution.triangular(0.0, 0.25, 1.0), u)
    for scale in (1e-170, 1e300):
        x = inv_cdf(Distribution.triangular(0.0, 0.25 * scale, scale), u)
        assert np.allclose(x / scale, unit, rtol=1e-14, atol=0.0), scale
