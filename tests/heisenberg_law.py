"""The Heisenberg group law written out, an oracle independent of the BCH
product and the structure constants:

    (a, b, c)(a', b', c') = (a + a', b + b', c + c' + (a b' - a' b) / 2)
"""

import numpy as np


def heis_mul(p, q):
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    a, b = p[..., 0], p[..., 1]
    ap, bp = q[..., 0], q[..., 1]
    c = p[..., 2] + q[..., 2] + 0.5 * (a * bp - ap * b)
    return np.stack([a + ap, b + bp, c], axis=-1)


def heis_inv(p):
    return -np.asarray(p, dtype=float)


def heis_dilate(eps, m, p):
    """delta_eps^m (a, b, c) = (eps^m a, eps^m b, eps^(2m) c)."""
    p = np.asarray(p, dtype=float)
    return np.stack([eps ** m * p[..., 0], eps ** m * p[..., 1],
                     eps ** (2 * m) * p[..., 2]], axis=-1)
