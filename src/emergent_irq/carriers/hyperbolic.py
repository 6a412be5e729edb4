"""Hyperbolic upper half-plane carrier.

Points are (x, y) with y > 0 and metric ds^2 = (dx^2 + dy^2) / y^2.
Geodesics are vertical rays and semicircles centered on the x-axis; both
exponential and logarithm maps have closed forms, parameterizing circle
geodesics by the angle phi in (0, pi) with arc-length coordinate
log tan(phi/2).  The irq operations move points along geodesics,

    star(x, u) = exp_x(eps log_x u)      back(x, u) = exp_x(log_x u / eps)

which is a uniform irq whose emergent operations recover the symmetric
space structure: the limit inverse is the geodesic point reflection.
Unlike the group carriers, this one is not distributive, so it has no
underlying contractible group to reconstruct.
"""

from __future__ import annotations

import numpy as np

from ..core import Irq, _level_power
from ..errors import CarrierConstructionError, InvalidPointError

__all__ = ["make_hyperbolic", "exp_map", "log_map", "geodesic_distance",
           "reflect"]

# Below this fraction of the scale, a geodesic counts as vertical.
_VERTICAL = 1e-13

# A subnormal tangent vector has too few bits for v / |v| to be a unit
# vector, and moves any coordinate above ~1e-292 by less than an ulp, so
# exp_map treats one as zero.
_TINY = np.finfo(float).tiny


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


def log_map(p, q):
    """Tangent vector at p (Euclidean coordinates) reaching q at time 1.

    Its Euclidean length divided by y_p is the hyperbolic distance.
    """
    _check_points(p, q)
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    x0, y0 = p[..., 0], p[..., 1]
    x1, y1 = q[..., 0], q[..., 1]
    dx = x1 - x0
    scale = np.abs(x0) + np.abs(x1) + y0 + y1
    vertical = np.abs(dx) <= _VERTICAL * scale

    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        s_vert = np.log(y1 / y0)

        dx_safe = np.where(vertical, 1.0, dx)
        c = 0.5 * (x0 + x1) + (y1 - y0) * (y1 + y0) / (2.0 * dx_safe)
        phi0 = np.arctan2(y0, x0 - c)
        phi1 = np.arctan2(y1, x1 - c)
        s_circ = np.log(np.tan(0.5 * phi1)) - np.log(np.tan(0.5 * phi0))

    s = np.where(vertical, s_vert, s_circ)
    ux = np.where(vertical, 0.0, -np.sin(phi0))
    uy = np.where(vertical, 1.0, np.cos(phi0))
    return np.stack([s * y0 * ux, s * y0 * uy], axis=-1)


def exp_map(p, v):
    """Geodesic flow from p with initial tangent v for unit time."""
    _check_points(p)
    p = np.asarray(p, dtype=float)
    v = np.asarray(v, dtype=float)
    if not np.all(np.isfinite(v)):
        raise InvalidPointError("tangent vector has non-finite coordinates")
    x0, y0 = p[..., 0], p[..., 1]
    nv = np.hypot(v[..., 0], v[..., 1])
    s = nv / y0
    zero = nv < _TINY
    nv_safe = np.where(zero, 1.0, nv)
    ux = np.where(zero, 0.0, v[..., 0] / nv_safe)
    uy = np.where(zero, 1.0, v[..., 1] / nv_safe)
    vertical = np.abs(ux) <= _VERTICAL

    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        y_vert = y0 * np.exp(np.sign(uy) * s)

        ux_safe = np.where(vertical, 1.0, ux)
        c = x0 + y0 * uy / ux_safe
        r = y0 / np.abs(ux_safe)
        phi0 = np.arctan2(y0, x0 - c)
        t1 = np.tan(0.5 * phi0) * np.exp(-np.sign(ux_safe) * s)
        phi1 = 2.0 * np.arctan(t1)
        x_circ = c + r * np.cos(phi1)
        y_circ = r * np.sin(phi1)

    x = np.where(vertical, x0, x_circ)
    y = np.where(vertical, y_vert, y_circ)
    out = np.stack([x, y], axis=-1)
    _check_points(out)
    return out


def reflect(p, q):
    """Geodesic point reflection of q through p."""
    return exp_map(p, -log_map(p, q))


def make_hyperbolic(epsilon, name="hyperbolic"):
    """Geodesic-contraction irq on the upper half-plane, 0 < epsilon < 1.

    Right division also solves in closed form along the geodesic through
    a and b: y = exp_a(log_a(b) / (1 - epsilon^k)).
    """
    epsilon = float(epsilon)
    if not 0.0 < epsilon < 1.0:
        raise CarrierConstructionError(f"epsilon must lie in (0, 1), got {epsilon}")
    # Float64 powers overflow to inf instead of raising OverflowError.
    eps = np.float64(epsilon)
    base = np.array([0.0, 1.0])

    def sample(seed, count, radius):
        rng = np.random.default_rng(seed)
        theta = rng.uniform(0.0, 2.0 * np.pi, size=count)
        t = radius * np.sqrt(rng.random(count))
        v = np.stack([t * np.cos(theta), t * np.sin(theta)], axis=-1)
        return exp_map(base, v)

    def divide(k, b, a):
        return exp_map(a, log_map(a, b) / (1.0 - eps ** k))

    # Geodesic scalings at x keep every composite on the geodesic through
    # x and u, so in the arclength chart at x the k-fold star is one
    # scaling by eps^k and the level-k inverse is the affine expression
    # eps^k t - t; composing the point operations instead would recover the
    # eps^k-small displacement from full-magnitude coordinates and
    # re-amplify its rounding by eps^-k.
    def level_star(k, x, u):
        return exp_map(x, _level_power(eps, k) * log_map(x, u))

    def level_inverse(k, x, u):
        return exp_map(x, (_level_power(eps, k) - 1.0) * log_map(x, u))

    return Irq(name=name, star=lambda x, u: level_star(1, x, u),
               back=lambda x, u: level_star(-1, x, u),
               metric=geodesic_distance, sample=sample, base=base, dim=2,
               is_uniform=True, epsilon=epsilon, divide=divide,
               point_reflection=reflect, reflection_isometry=True,
               level_inverse=level_inverse, level_star=level_star)
