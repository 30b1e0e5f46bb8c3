"""Sampleable univariate laws for activity durations and risk impacts."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import BadDistributionParams

VARIANTS = ("point", "discrete", "uniform", "triangular", "normal", "pert")
_BELOW_ONE = math.nextafter(1.0, 0.0)


@dataclass(frozen=True)
class Distribution:
    """A univariate law tagged by variant.

    Variants and parameters:
      point(v); discrete((v1, p1), (v2, p2), ...); uniform(a, b);
      triangular(a, m, b); normal(mu, sigma); pert(a, m, b).

    Laws model durations and impacts, so the support must be nonnegative.
    Normal laws are sampled truncated at zero, as the normal conditioned
    on x >= 0; ``mean()`` reports the untruncated mu and the small
    truncation bias is accepted.
    """

    kind: str
    params: tuple

    def __post_init__(self):
        check = _CHECKS.get(self.kind)
        if check is None:
            raise BadDistributionParams(f"unknown distribution variant {self.kind!r}")
        check(self.params)

    @classmethod
    def point(cls, v) -> "Distribution":
        return cls("point", (float(v),))

    @classmethod
    def discrete(cls, atoms) -> "Distribution":
        return cls("discrete", tuple((float(v), float(p)) for v, p in atoms))

    @classmethod
    def uniform(cls, a, b) -> "Distribution":
        return cls("uniform", (float(a), float(b)))

    @classmethod
    def triangular(cls, a, m, b) -> "Distribution":
        return cls("triangular", (float(a), float(m), float(b)))

    @classmethod
    def normal(cls, mu, sigma) -> "Distribution":
        return cls("normal", (float(mu), float(sigma)))

    @classmethod
    def pert(cls, a, m, b) -> "Distribution":
        return cls("pert", (float(a), float(m), float(b)))

    def mean(self) -> float:
        """Analytic mean (untruncated mu for normal laws)."""
        k, p = self.kind, self.params
        if k == "discrete":
            return math.fsum(v * q for v, q in p)
        if k not in _MEANS:
            return p[0]  # point, normal
        mean = _MEANS[k](*p)
        if mean == math.inf:
            # the sum passed the largest double, the mean cannot: the same
            # formula on parameters scaled by 2^-3 keeps its sum below it
            mean = math.ldexp(_MEANS[k](*(math.ldexp(x, -3) for x in p)), 3)
        return mean

    @property
    def _pert_table(self):
        """The inverse table of pert(a, m, b), a < b: beta(alpha, 6 - alpha) on
        [a, b], set on first use. The ratio comes first, so 4 (m - a) cannot
        overflow. Threads racing here get the same table from pert_table."""
        table = self.__dict__.get("_table")
        if table is None:
            from . import quantiles

            a, m, b = self.params
            table = quantiles.pert_table(1.0 + 4.0 * ((m - a) / (b - a)))
            object.__setattr__(self, "_table", table)
        return table


def inv_cdf(dist: Distribution, u):
    """Map uniforms in [0, 1) through the inverse CDF, elementwise.

    Every variant consumes exactly one uniform per draw, which the
    simulation engine relies on for stream positioning; a normal law
    returns the quantile of its truncation at zero. Normal and PERT
    quantiles come from riskmc.quantiles (numpy only): AS 241 for the
    normal law, for a PERT law the inverse table of its shape, held by the law.
    Non-decreasing in u, a normal law only to within ndtri's 8 ulp.
    """
    # imported here, so a law can be parsed without numpy; the import lock
    # makes these safe in the pool's threads
    import numpy as np

    from . import quantiles

    u = np.asarray(u, dtype=float)
    k, p = dist.kind, dist.params
    if k == "point":
        return np.full_like(u, p[0])
    if k == "uniform":
        a, b = p
        return a + (b - a) * u
    if k == "triangular":
        a, m, b = p
        if b == a:
            return np.full_like(u, a)
        out = np.empty_like(u)
        fc = (m - a) / (b - a)
        left = u < fc
        # each branch can round past the mode (or past a and b when m is one)
        out[left] = np.minimum(a + _sqrt_product(u[left], b - a, m - a), m)
        out[~left] = np.maximum(b - _sqrt_product(1.0 - u[~left], b - a, b - m), m)
        return out
    if k == "discrete":
        values = np.array([v for v, _ in p])
        cum = np.cumsum([q for _, q in p])
        idx = np.minimum(np.searchsorted(cum, u, side="right"), len(values) - 1)
        return values[idx]
    if k == "normal":
        mu, sigma = p
        if sigma == 0.0:
            return np.full_like(u, mu)
        # the normal conditioned on x >= 0, with p0 = P(x < 0); v stays below 1,
        # where ndtri is finite, and the clip at 0 takes mu + sigma z rounding
        # below 0 near the truncation point, or -inf at u = 0 once p0 underflows
        p0 = 0.5 * math.erfc(mu / sigma / math.sqrt(2.0))
        v = np.minimum(p0 + (1.0 - p0) * u, _BELOW_ONE)
        with np.errstate(over="ignore"):  # inf past the float range; run_ensemble refuses it
            return np.maximum(mu + sigma * quantiles.ndtri(v), 0.0)
    a, m, b = p
    if b == a:
        return np.full_like(u, a)
    # a + (b - a) can round above b
    return np.minimum(a + (b - a) * quantiles.pert_unit(dist._pert_table, u), b)


_MEANS = {
    "uniform": lambda a, b: (a + b) / 2.0,
    "triangular": lambda a, m, b: (a + m + b) / 3.0,
    "pert": lambda a, m, b: (a + 4.0 * m + b) / 6.0,
}


def _sqrt_product(u, x, y):
    """sqrt(u * x * y) for u in [0, 1], split where x * y leaves the normal floats."""
    import numpy as np

    if 2.0 ** -1022 <= x * y < math.inf:
        return np.sqrt(u * x * y)
    return np.sqrt(u * x) * np.sqrt(y)


def _finite(*xs):
    return all(math.isfinite(x) for x in xs)


def _check_point(p):
    if len(p) != 1:
        raise BadDistributionParams("point takes exactly one value")
    if not _finite(p[0]) or p[0] < 0:
        raise BadDistributionParams(f"point value must be finite and >= 0, got {p[0]}")


def _check_discrete(p):
    if len(p) == 0:
        raise BadDistributionParams("discrete needs at least one atom")
    total = 0.0
    for atom in p:
        if len(atom) != 2:
            raise BadDistributionParams("discrete atoms are (value, prob) pairs")
        v, q = atom
        if not _finite(v, q) or v < 0:
            raise BadDistributionParams(f"discrete value must be finite and >= 0, got {v}")
        if q <= 0:
            raise BadDistributionParams(f"discrete prob must be > 0, got {q}")
        total += q
    if abs(total - 1.0) > 1e-9:
        raise BadDistributionParams(f"discrete probs must sum to 1, got {total!r}")


def _check_uniform(p):
    if len(p) != 2:
        raise BadDistributionParams("uniform takes (a, b)")
    a, b = p
    if not _finite(a, b) or a < 0 or a > b:
        raise BadDistributionParams(f"uniform needs 0 <= a <= b, got ({a}, {b})")


def _check_three_point(name):
    def check(p):
        if len(p) != 3:
            raise BadDistributionParams(f"{name} takes (a, m, b)")
        a, m, b = p
        if not _finite(a, m, b) or a < 0 or not a <= m <= b:
            raise BadDistributionParams(f"{name} needs 0 <= a <= m <= b, got ({a}, {m}, {b})")
    return check


def _check_normal(p):
    if len(p) != 2:
        raise BadDistributionParams("normal takes (mu, sigma)")
    mu, sigma = p
    if not _finite(mu, sigma) or sigma < 0:
        raise BadDistributionParams(f"normal needs finite mu and sigma >= 0, got ({mu}, {sigma})")
    if mu < 0:
        # durations/impacts are nonnegative; truncation at 0 assumes mu >= 0
        raise BadDistributionParams(f"normal mu must be >= 0 for duration/impact laws, got {mu}")


_CHECKS = {
    "point": _check_point,
    "discrete": _check_discrete,
    "uniform": _check_uniform,
    "triangular": _check_three_point("triangular"),
    "pert": _check_three_point("pert"),
    "normal": _check_normal,
}
