"""Dihedral quandle on Z/n: an exact, non-uniform irq."""

from __future__ import annotations

import numpy as np

from ..core import Irq
from ..errors import CarrierConstructionError, UnsupportedCarrierError

__all__ = ["make_dihedral_quandle"]


def make_dihedral_quandle(n, name=None):
    """Quandle on Z/n with star(x, u) = back(x, u) = (2x - u) mod n.

    star(x, .) is an involution, so star_k depends only on the parity of k:
    odd levels reflect through x, even levels are the identity in u.  Right
    division y *_k a = b therefore exists only for odd k, and uniquely only
    when 2 is invertible mod n, i.e. for odd n, where y = (a + b) / 2 mod n.

    Exact integer carrier with the discrete 0/1 metric; not uniform.
    """
    n = int(n)
    if n < 3:
        raise CarrierConstructionError(f"n must be >= 3, got {n}")

    def star(x, u):
        return np.mod(2 * np.asarray(x) - u, n)

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

    def level_star(k, x, u):
        if k % 2:
            return star(x, u)
        return np.mod(np.broadcast_arrays(x, u)[1], n)

    return Irq(name=name or f"dihedral{n}", star=star, back=star,
               metric=metric, sample=sample, base=np.int64(0), size=n,
               divide=divide, level_star=level_star)
