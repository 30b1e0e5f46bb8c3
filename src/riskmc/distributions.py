"""Sampleable univariate laws for activity durations and risk impacts."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadDistributionParams

VARIANTS = ("point", "discrete", "uniform", "triangular", "normal", "pert")


@dataclass(frozen=True)
class Distribution:
    """A univariate law tagged by variant.

    Variants and parameters:
      point(v); discrete((v1, p1), (v2, p2), ...); uniform(a, b);
      triangular(a, m, b); normal(mu, sigma); pert(a, m, b).

    Laws model durations and impacts, so the support must be nonnegative.
    Normal laws are truncated at zero when sampled (resample until
    nonnegative); ``mean()`` reports the untruncated mu and the small
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
        if k == "point":
            return p[0]
        if k == "discrete":
            return math.fsum(v * q for v, q in p)
        if k == "uniform":
            return (p[0] + p[1]) / 2.0
        if k == "triangular":
            return (p[0] + p[1] + p[2]) / 3.0
        if k == "pert":
            return (p[0] + 4.0 * p[1] + p[2]) / 6.0
        return p[0]  # normal


def inv_cdf(dist: Distribution, u):
    """Map uniforms in [0, 1) through the inverse CDF, elementwise.

    Normal laws are not truncated here; callers must resample negatives.
    Every variant consumes exactly one uniform per draw, which the
    simulation engine relies on for stream positioning. scipy.special is
    imported only by the normal and PERT branches, so commands that never
    sample those laws start without it.
    """
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
        out[left] = a + np.sqrt(u[left] * (b - a) * (m - a))
        out[~left] = b - np.sqrt((1.0 - u[~left]) * (b - a) * (b - m))
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
        from scipy.special import ndtri
        return mu + sigma * ndtri(u)
    # pert: beta(1 + 4(m-a)/(b-a), 1 + 4(b-m)/(b-a)) stretched onto [a, b]
    a, m, b = p
    if b == a:
        return np.full_like(u, a)
    alpha = 1.0 + 4.0 * (m - a) / (b - a)
    beta = 1.0 + 4.0 * (b - m) / (b - a)
    from scipy.special import betaincinv
    return a + (b - a) * betaincinv(alpha, beta, u)


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
