"""Quantile functions of the normal and PERT laws, with numpy alone.

ndtri is Wichura's algorithm AS 241 (PPND16, Appl. Statist. 37, 1988):
rational approximations accurate to about 1e-16 relative.

PERT laws are beta(alpha, beta) laws stretched onto [a, b] with
alpha + beta = 6, so every shape lies on the segment alpha in [1, 5].
Each shape gets an inverse table, pert_table(alpha), which lives as long
as some PERT law of that shape holds it:

- The forward CDF F = I_x(alpha, beta) comes at the knots x = j/4096
  from the incomplete-beta continued fraction (Numerical Recipes'
  ``betacf``, modified Lentz), taken at 1 - x past (alpha + 1)/8 where
  it converges slowly.
- Below F(1/2), x is a cubic Hermite function of s = u^(1/alpha), which
  is close to linear in x near 0; above it, 1 - x is one of
  s = (1 - u)^(1/beta). Slopes come from the closed-form pdf, and the
  end slope is (alpha B)^(1/alpha), resp. (beta B)^(1/beta).
- A draw finds its cell by indexed search (Chen and Asau 1974): each
  half keeps a guide of _BUCKETS equal buckets on s in [0, 1], holding
  the cell at each bucket's left edge. A draw starts at its bucket's
  cell and steps past the knots that its bucket holds, a fixed number of
  times per table (the most knots in one bucket). _BUCKETS is a power of
  two, so the buckets' edges and a draw's bucket are exact, and the cell
  is the one a binary search of the knots finds.

A table is a function of alpha alone: neither a chunk nor the number of
workers ever reaches it.
"""

from __future__ import annotations

import math
import threading
import weakref
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# AS 241 coefficients, constant term first; numerators A, C, E and
# denominators B, D, F for |u - 1/2| <= 0.425, r <= 5 and r > 5
_A = (3.3871328727963666080e0, 1.3314166789178437745e+2, 1.9715909503065514427e+3,
      1.3731693765509461125e+4, 4.5921953931549871457e+4, 6.7265770927008700853e+4,
      3.3430575583588128105e+4, 2.5090809287301226727e+3)
_B = (1.0, 4.2313330701600911252e+1, 6.8718700749205790830e+2, 5.3941960214247511077e+3,
      2.1213794301586595867e+4, 3.9307895800092710610e+4, 2.8729085735721942674e+4,
      5.2264952788528545610e+3)
_C = (1.42343711074968357734e0, 4.63033784615654529590e0, 5.76949722146069140550e0,
      3.64784832476320460504e0, 1.27045825245236838258e0, 2.41780725177450611770e-1,
      2.27238449892691845833e-2, 7.74545014278341407640e-4)
_D = (1.0, 2.05319162663775882187e0, 1.67638483018380384940e0, 6.89767334985100004550e-1,
      1.48103976427480074590e-1, 1.51986665636164571966e-2, 5.47593808499534494600e-4,
      1.05075007164441684324e-9)
_E = (6.65790464350110377720e0, 5.46378491116411436990e0, 1.78482653991729133580e0,
      2.96560571828504891230e-1, 2.65321895265761230930e-2, 1.24266094738807843860e-3,
      2.71155556874348757815e-5, 2.01033439929228813265e-7)
_F = (1.0, 5.99832206555887937690e-1, 1.36929880922735805310e-1, 1.48753612908506148525e-2,
      7.86869131145613259100e-4, 1.84631831751005468180e-5, 1.42151175831644588870e-7,
      2.04426310338993978564e-15)


def _poly(coeffs, r):
    acc = coeffs[-1]
    for c in coeffs[-2::-1]:
        acc = acc * r + c
    return acc


def ndtri(u):
    """Standard normal quantile of u in [0, 1); -inf at 0. Monotone only to
    within 8 ulp: between adjacent doubles it can step down by a few ulp."""
    u = np.asarray(u, dtype=float)
    q = u - 0.5
    out = np.empty_like(q)
    mid = np.abs(q) <= 0.425
    qm = q[mid]
    r = 0.180625 - qm * qm
    out[mid] = qm * _poly(_A, r) / _poly(_B, r)
    tail = ~mid
    qt = q[tail]
    with np.errstate(divide="ignore", invalid="ignore"):  # u = 0: r = inf, inf/inf
        r = np.sqrt(-np.log(np.where(qt < 0.0, u[tail], 1.0 - u[tail])))
        z = np.where(r <= 5.0, _poly(_C, r - 1.6) / _poly(_D, r - 1.6),
                     _poly(_E, r - 5.0) / _poly(_F, r - 5.0))
    out[tail] = np.where(qt < 0.0, -z, z)
    out[u == 0.0] = -np.inf
    return out


_CELLS = 2048           # Hermite cells on each half of [0, 1]
_H = 0.5 / _CELLS       # knot spacing in x; a power of two, so knots are exact
_CF_TERMS = 14          # continued-fraction steps; within ~2e-15 of betainc
_BUCKETS = 4096         # guide buckets on s in [0, 1]; a power of two, so exact


class _Half(NamedTuple):
    """y = x (or 1 - x) as a cubic in s = v^(1/p) on y in [0, 1/2], where
    v = I_y(p, 6 - p). Cell j spans knots[j] <= s <= knots[j + 1]; there
    y = (j + t (c1 + t (c2 + t c3))) * _H with t = (s - knots[j]) * r[j].

    The search for j starts at first[i], the cell holding s = i / _BUCKETS,
    and `steps` advances reach the cell of any s in that bucket below `last`,
    the double below the last knot."""

    inv_p: float
    knots: np.ndarray   # (_CELLS + 1,) s at y = j * _H, increasing from 0
    r: np.ndarray       # (_CELLS,) inverse cell widths in s
    c1: np.ndarray
    c2: np.ndarray
    c3: np.ndarray
    first: np.ndarray   # (_BUCKETS,) int16 cell indices
    steps: int
    last: float


@dataclass(frozen=True)  # not a NamedTuple: a tuple cannot be weakly referenced
class _Table:
    split: float        # F(1/2)
    lower: _Half        # x for u < split, from v = u
    upper: _Half        # 1 - x for u >= split, from v = 1 - u


_TABLES = weakref.WeakValueDictionary()  # alpha -> _Table, while some law holds it
_GUARD = threading.Lock()                # held across a lookup and the build it needs


def pert_table(alpha: float) -> _Table:
    """The inverse table of beta(alpha, 6 - alpha), alpha in [1, 5]; laws of
    one shape share it, and it is freed with the last of them.

    One lock covers the lookup and the build, so each shape is built once,
    by the first thread that asks for it.
    """
    with _GUARD:
        table = _TABLES.get(alpha)
        if table is None:
            table = _TABLES[alpha] = _build(alpha)
    return table


def pert_unit(table: _Table, u):
    """Quantile of beta(alpha, 6 - alpha) at u in [0, 1), from pert_table(alpha).

    Non-decreasing in u, 0 at u = 0 and inside [0, 1]; within 4e-14 of
    scipy.special.betaincinv.
    """
    u = np.asarray(u, dtype=float)
    x = np.empty_like(u)
    lower = u < table.split
    x[lower] = _half_quantile(table.lower, u[lower])
    upper = ~lower
    x[upper] = 1.0 - _half_quantile(table.upper, 1.0 - u[upper])
    return x


def _half_quantile(half: _Half, v):
    s = v ** half.inv_p
    # the last cell j with knots[j] <= s, or the last cell for s past the
    # last knot, which the search sees as `last`
    key = np.minimum(s, half.last)
    j = half.first[(key * _BUCKETS).astype(np.intp)].astype(np.intp)
    for _ in range(half.steps):
        j += half.knots[j + 1] <= key
    t = (s - half.knots[j]) * half.r[j]
    y = (j + t * (half.c1[j] + t * (half.c2[j] + t * half.c3[j]))) * _H
    return np.minimum(y, 0.5)


def _build(alpha):
    """The table of shape alpha: its lower half is beta(alpha, beta) in x, its upper
    beta(beta, alpha) in 1 - x. Both come from one (2, 1) array p: numpy's shortcuts
    for exponents like 0.5 and -1, and so a table's last bits, depend on array shapes."""
    p = np.array([[alpha], [6.0 - alpha]])
    q = 6.0 - p
    ln_b = np.array([[math.lgamma(a) + math.lgamma(6.0 - a) - math.lgamma(6.0)]
                     for a in p[:, 0]])
    y = np.arange(1, _CELLS + 1) * _H
    swap = y > (p + 1.0) / 8.0
    a, b = np.where(swap, q, p), np.where(swap, p, q)
    x = np.where(swap, 1.0 - y, y)
    part = np.exp(a * np.log(x) + b * np.log1p(-x) - ln_b) / a * _betacf(a, b, x)
    v = np.where(swap, 1.0 - part, part)  # I_y(p, q)
    s = v ** (1.0 / p)
    # dy/ds = p v^(1 - 1/p) / pdf(y), written with s/y, which stays finite at 0
    slope = p * np.exp(ln_b) * (s / y) ** (p - 1.0) * (1.0 - y) ** (1.0 - q)
    s = np.hstack([np.zeros_like(p), s])
    slope = np.hstack([np.exp((np.log(p) + ln_b) / p), slope])
    width = np.diff(s, axis=1)
    d0 = slope[:, :-1] * width / _H     # cell end slopes in units of the cell
    d1 = slope[:, 1:] * width / _H
    c2, c3 = 3.0 - 2.0 * d0 - d1, d0 + d1 - 2.0
    lower, upper = (_Half(1.0 / p[k, 0], s[k], 1.0 / width[k], d0[k], c2[k], c3[k],
                          *_guide(s[k]))
                    for k in (0, 1))
    return _Table(float(v[0, -1]), lower, upper)


def _guide(knots):
    """A half's (first, steps, last), found from its knots (increasing from
    0, the last below 1)."""
    edges = np.arange(_BUCKETS + 1) / _BUCKETS
    at_or_below = np.searchsorted(knots, edges, side="right")
    first = np.minimum(at_or_below[:-1] - 1, _CELLS - 1)
    inside = np.searchsorted(knots, edges[1:], side="left") - at_or_below[:-1]
    return first.astype(np.int16), int(inside.max()), float(np.nextafter(knots[-1], 0.0))


def _betacf(a, b, x):
    """Continued fraction of I_x(a, b) (modified Lentz, _CF_TERMS steps).

    For a + b = 6, a, b >= 1 and x <= (a + 1)/8, every Lentz denominator
    stays above 1/4 in magnitude, so no guard against zero is needed.
    """
    d = 1.0 / (1.0 - 6.0 * x / (a + 1.0))
    c = np.ones_like(x)
    h = d
    for m in range(1, _CF_TERMS + 1):
        for coef in _cf_coefs(m, a, b):
            aa = x * coef
            d = 1.0 / (1.0 + aa * d)
            c = 1.0 + aa / c
            h = h * (d * c)
    return h


def _cf_coefs(m, a, b):
    """The coefficients of x in the continued fraction's terms 2m and 2m + 1."""
    return (m * (b - m) / ((a - 1.0 + 2 * m) * (a + 2 * m)),
            -(a + m) * (a + b + m) / ((a + 2 * m) * (a + 1.0 + 2 * m)))
