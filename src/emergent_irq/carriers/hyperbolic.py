r"""Hyperbolic upper half-plane carrier.

Points are (x, y) with y > 0 and metric ds^2 = (dx^2 + dy^2) / y^2.  The
half-plane is the group of isometries z -> b + e^t z (the AN factor of
SL(2, R)), with law (b1, t1)(b2, t2) = (b1 + e^t1 b2, t1 + t2) in the
chart (b, t) = (x, log y) and neutral element i = (0, 0).  With delta the
geodesic scaling about i by eps, the carrier's chart is that group, and
its star x delta(x^-1 u) = exp_x(eps log_x u) has the geodesic point
reflection as limit inverse.  delta is not a morphism, so the carrier is
not distributive and exposes no ``group`` (limits extrapolated in (x, y)
would leave the half-plane).  delta scales the distance s from i: the
point at distance s in the unit direction (c, n), whose tangent at i is
s (-n, c), has

    (b^2 + e^2t - 1, -2b) = 2 e^t sinh(s) (c, n),
    e^-t = cosh s - c sinh s,    b = -n e^t sinh s.
"""

from __future__ import annotations

import numpy as np

from ..core import Chart, Irq, _level_power
from ..errors import CarrierConstructionError, InvalidPointError
from .group import GroupOps

__all__ = ["make_hyperbolic", "exp_map", "log_map", "geodesic_distance",
           "reflect"]

# A subnormal tangent vector has too few bits for a unit direction and
# moves no coordinate above ~1e-292 by an ulp, so exp_map treats it as 0.
_TINY = np.finfo(float).tiny

# A point past float range comes out non-finite, and _from_chart rejects it.
_QUIET = {"over": "ignore", "divide": "ignore", "invalid": "ignore"}


def _check_points(*pts):
    for p in pts:
        p = np.asarray(p)
        if p.shape[-1] != 2:
            raise InvalidPointError(f"half-plane points are pairs, got shape {p.shape}")
        if not np.all(np.isfinite(p)):
            raise InvalidPointError("point has non-finite coordinates")
        if not np.all(p[..., 1] > 0):
            raise InvalidPointError("point lies outside the upper half-plane")


def geodesic_distance(p, q):
    """Hyperbolic distance, 2 arcsinh(sqrt((dx^2 + dy^2) / (4 y_p y_q)))."""
    _check_points(p, q)
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    dx = q[..., 0] - p[..., 0]
    dy = q[..., 1] - p[..., 1]
    # Near-boundary points overflow the intermediate quotient; the distance
    # saturating to inf is the correct answer there.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        return 2.0 * np.arcsinh(0.5 * np.sqrt((dx * dx + dy * dy)
                                              / (p[..., 1] * q[..., 1])))


@np.errstate(**_QUIET)
def _to_chart(x, u):
    """x^-1 u in the chart, for public points x and u."""
    x, u = np.asarray(x, dtype=float), np.asarray(u, dtype=float)
    return np.stack([(u[..., 0] - x[..., 0]) / x[..., 1],
                     np.log(u[..., 1] / x[..., 1])], axis=-1)


@np.errstate(**_QUIET)
def _from_chart(x, g):
    """The public point x g, which is x itself at g = (0, 0)."""
    x = np.asarray(x, dtype=float)
    out = np.stack([x[..., 0] + x[..., 1] * g[..., 0],
                    x[..., 1] * np.exp(g[..., 1])], axis=-1)
    _check_points(out)
    return out


def _polar(g):
    """Distance s from i and unit direction (c, n) of g, (0, 0) at i."""
    b, t = g[..., 0], g[..., 1]
    y = np.exp(t)
    # b^2 - 1 cancels near |b| = 1 far below i, e^2t - 1 near t = 0.
    a = np.where(t < -1.0, (b - 1.0) * (b + 1.0) + y * y,
                 b * b + np.expm1(2.0 * t))
    h = np.hypot(a, 2.0 * b)
    s = np.arcsinh(h / (2.0 * y))
    h = np.where(h > 0.0, h, 1.0)
    return s, a / h, -2.0 * b / h


def _from_polar(s, c, n):
    """The chart point at distance s from i in direction (c, n); a negative
    s walks the opposite direction."""
    big, em = np.exp(s), np.expm1(s)
    # (1 - c, 1 + c), the smaller one as n^2 / (1 + |c|) to keep the digits
    # of n as |c| nears 1.
    far, ahead = 1.0 + np.abs(c), c > 0.0
    near = n * n / far
    lo, hi = np.where(ahead, near, far), np.where(ahead, far, near)
    # D = e^-t = cosh s - c sinh s as a sum of two non-negative terms, and
    # D - 1 in a form that keeps its digits at small s.
    d = 0.5 * (lo * big + hi / big)
    dm1 = em * (lo * em - 2.0 * c) / (2.0 * big)
    t = np.where(dm1 < -0.5, -np.log(d), -np.log1p(np.maximum(dm1, -0.5)))
    return np.stack([-n * em * (1.0 + 1.0 / big) / (2.0 * d), t], axis=-1)


def _scale(g, f):
    """The chart point f times as far from i as g, on their geodesic."""
    s, c, n = _polar(g)
    return _from_polar(f * s, c, n)


@np.errstate(**_QUIET)
def _mul(g, h):
    return np.stack([g[..., 0] + np.exp(g[..., 1]) * h[..., 0],
                     g[..., 1] + h[..., 1]], axis=-1)


@np.errstate(**_QUIET)
def _inv(g):
    return np.stack([-g[..., 0] * np.exp(-g[..., 1]), -g[..., 1]], axis=-1)


def log_map(p, q):
    """Tangent vector at p (Euclidean coordinates) reaching q at time 1.

    Its Euclidean length divided by y_p is the hyperbolic distance.
    """
    _check_points(p, q)
    with np.errstate(**_QUIET):
        s, c, n = _polar(_to_chart(p, q))
    r = np.asarray(p, dtype=float)[..., 1] * s
    return np.stack([-r * n, r * c], axis=-1)


def exp_map(p, v):
    """Geodesic flow from p with initial tangent v for unit time."""
    _check_points(p)
    p, v = np.asarray(p, dtype=float), np.asarray(v, dtype=float)
    if not np.all(np.isfinite(v)):
        raise InvalidPointError("tangent vector has non-finite coordinates")
    norm = np.hypot(v[..., 0], v[..., 1])
    still = norm < _TINY
    unit = v / np.where(still, 1.0, norm)[..., None]
    s = np.where(still, 0.0, norm) / p[..., 1]
    with np.errstate(**_QUIET):
        return _from_chart(p, _from_polar(s, unit[..., 1], -unit[..., 0]))


def reflect(p, q):
    """Geodesic point reflection of q through p."""
    return exp_map(p, -log_map(p, q))


def make_hyperbolic(epsilon, name="hyperbolic"):
    """Geodesic-contraction irq on the upper half-plane, 0 < epsilon < 1.

    Its chart is the ax+b group, entered and left by the isometries x:
    op_k(x, u, v) = x op_k(i, x^-1 u, x^-1 v).
    """
    epsilon = float(epsilon)
    if not 0.0 < epsilon < 1.0:
        raise CarrierConstructionError(f"epsilon must lie in (0, 1), got {epsilon}")
    # Float64 powers overflow to inf instead of raising OverflowError.
    eps = np.float64(epsilon)
    base = np.array([0.0, 1.0])

    @np.errstate(**_QUIET)
    def delta_power(m, g):
        # A block's levels broadcast against g, and s has no pair axis.
        f = _level_power(eps, m)
        return _scale(g, f[..., 0] if f.ndim else f)

    chart = Chart(GroupOps(mul=_mul, inv=_inv, neutral=np.zeros(2),
                           delta_power=delta_power), _to_chart, _from_chart)

    def sample(seed, count, radius):
        rng = np.random.default_rng(seed)
        theta = rng.uniform(0.0, 2.0 * np.pi, size=count)
        t = radius * np.sqrt(rng.random(count))
        v = np.stack([t * np.cos(theta), t * np.sin(theta)], axis=-1)
        return exp_map(base, v)

    def divide(k, b, a):
        with np.errstate(**_QUIET):
            return _from_chart(a, _scale(_to_chart(a, b),
                                         1.0 / (1.0 - eps ** k)))

    return Irq(name=name, metric=geodesic_distance, sample=sample, base=base,
               epsilon=epsilon, divide=divide, point_reflection=reflect,
               reflection_isometry=True, chart=chart)
