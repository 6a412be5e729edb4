"""Euclidean dilation carrier: the model uniform irq on R^n."""

from __future__ import annotations

import numpy as np

from ..core import _level_power
from ..errors import CarrierConstructionError
from .group import GroupOps, make_group_irq

__all__ = ["make_euclidean"]


def make_euclidean(dim, epsilon, name=None):
    """Irq on R^dim with star(x, u) = x + epsilon (u - x).

    The carrier is the abelian group (R^dim, +) with the linear morphism
    delta = epsilon * id, so every level-k operation has a closed form:
    star_k contracts by epsilon^k toward x, back_k expands by epsilon^-k,
    and right division solves exactly,

        y = (b - epsilon^k a) / (1 - epsilon^k).

    Requires dim >= 1 and 0 < epsilon < 1.
    """
    dim = int(dim)
    epsilon = float(epsilon)
    if dim < 1:
        raise CarrierConstructionError(f"dim must be >= 1, got {dim}")
    if not 0.0 < epsilon < 1.0:
        raise CarrierConstructionError(f"epsilon must lie in (0, 1), got {epsilon}")
    # Float64 powers overflow to inf instead of raising OverflowError.
    eps = np.float64(epsilon)

    def delta(g):
        return epsilon * np.asarray(g, dtype=float)

    def delta_inverse(g):
        return np.asarray(g, dtype=float) / epsilon

    def delta_power(m, g):
        return _level_power(eps, m) * np.asarray(g, dtype=float)

    def divide(k, b, a):
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        w = eps ** k
        return (b - w * a) / (1.0 - w)

    def point_reflection(x, y):
        return 2.0 * np.asarray(x, dtype=float) - y

    group = GroupOps(mul=lambda a, b: np.asarray(a, dtype=float) + b,
                     inv=lambda a: -np.asarray(a, dtype=float),
                     neutral=np.zeros(dim))
    return make_group_irq(group, delta, delta_inverse,
                          name=name or f"euclidean{dim}", dim=dim,
                          contractive=True, epsilon=epsilon, is_morphism=True,
                          delta_power=delta_power, layer_dims=(dim,),
                          divide=divide, point_reflection=point_reflection,
                          reflection_isometry=True)
