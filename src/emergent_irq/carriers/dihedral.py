"""Dihedral quandle on Z/n: an exact, non-uniform irq."""

from __future__ import annotations

import numpy as np

from ..core import Chart, Irq
from ..errors import CarrierConstructionError, UnsupportedCarrierError
from .group import GroupOps

__all__ = ["make_dihedral_quandle"]


def make_dihedral_quandle(n, name=None):
    """Quandle on Z/n with star(x, u) = back(x, u) = (2x - u) mod n.

    In the chart Z/n, delta(g) = -g, so star_k depends only on the parity
    of k: odd levels reflect through x, even levels are the identity in u.
    Right division y *_k a = b therefore exists only for odd k, and uniquely
    only for odd n, where 2 is invertible and y = (a + b) / 2 mod n.

    Exact integer carrier with the discrete 0/1 metric; not uniform.
    """
    n = int(n)
    if n < 3:
        raise CarrierConstructionError(f"n must be >= 3, got {n}")

    def power(m, g):
        # Elementwise in m, so a block of levels evaluates in one call.
        return np.where(np.mod(m, 2), np.mod(np.negative(g), n), g)

    group = GroupOps(mul=lambda a, b: np.mod(np.add(a, b), n),
                     inv=lambda a: np.mod(np.negative(a), n),
                     neutral=np.int64(0), delta_power=power)

    def metric(x, y):
        return (np.asarray(x) != np.asarray(y)).astype(float)

    def sample(seed, count, radius):
        rng = np.random.default_rng(seed)
        return rng.integers(0, n, size=count)

    def divide(k, b, a):
        if k % 2 == 0:
            raise UnsupportedCarrierError(
                "dihedral star_k is the identity in u for even k; "
                "right division needs odd k")
        if n % 2 == 0:
            raise UnsupportedCarrierError(
                f"2 is not invertible mod {n}; right division needs odd n")
        half = pow(2, -1, n)
        return np.mod((np.asarray(a) + np.asarray(b)) * half, n)

    return Irq(name=name or f"dihedral{n}", metric=metric, sample=sample,
               base=np.int64(0), size=n, divide=divide, chart=Chart(group))
