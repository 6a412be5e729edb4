r"""Right division, loop isotopes, and the symmetric-space layer.

Right division upgrades the irq to a quasigroup at every level: y = b /_k a
is the solution of y *_k a = b.  Two methods are supported:

* ``closed_form``: the carrier solves directly (Euclidean, hyperbolic,
  dihedral, Carnot).  On a Carnot group, y = b m^-1 with c = b^-1 a and
  m = delta^k(m c) solved layer by layer: layer j of m c is m_j plus
  brackets of lower layers, so m_j = eps^(jk) q_j / (1 - eps^(jk)) with
  q = m_{<j} c, exact in real arithmetic;
* ``fixed_point``: on a uniform group carrier, y = b m^-1 where m is the
  fixed point of the contraction m <- delta^k(m b^-1 a), iterated from
  delta^k(b^-1 a).  For a morphism delta the iterates are the partial
  products delta^(pk)(b^-1 a) ... delta^k(b^-1 a).  It is the default on
  a group carrier without a closed form (the perturbed plane).

Negative levels reduce to positive ones through b /_k a = a /_(-k) b.
Every method ends with the residual check d(star_k(y, a), b) <= tol.

From division, the loop isotope u o_k^x v = (u /_k x) *_k (x \_k v), a loop
with identity x that converges to the tangent-group sum, and the
symmetric-space operations, built on the level-k inversion
inverse_k(x, y) = (x *_k y) \_k x of :mod:`emergent_irq.core`,

    underline_inv_k(u, v) = inverse_k(u, v /_k u)
    t_map(y, x) = (inverse_1(x, y), x * y)      (an involution of X x X)

with the Loos axiom checks L1-L4 for the limit inversion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (AxiomReport, _require_level, back_k, inverse_k,
                   sample_tuples, star_k)
from .errors import NonConvergenceError, UnsupportedCarrierError
from .limits import LimitConfig, emergent_inverse

__all__ = [
    "DivisionMethod",
    "default_division_method",
    "right_divide_k",
    "loop_isotope_k",
    "underline_inv_k",
    "t_map",
    "check_involution",
    "check_loos_axioms",
    "loos_identity_names",
]

# A fixed-point step within 4 ulps of the iterate's largest coordinate ends
# the iteration.
_STEP_RTOL = 4.0 * np.finfo(float).eps

# The fewest fixed-point iterations a division without ``max_terms`` allows.
_MIN_TERMS = 200


@dataclass(frozen=True)
class DivisionMethod:
    """How to solve y *_k a = b, and to what residual tolerance.

    ``max_terms`` caps the fixed-point iterations; left at None, the cap is
    the number of steps a contraction with the carrier's ratio eps^|k|
    needs to shrink a unit step to 4 ulps, and at least 200.
    """

    kind: str
    max_terms: int | None = None
    tol: float = 1e-10

    def __post_init__(self):
        if self.kind not in ("closed_form", "fixed_point"):
            raise UnsupportedCarrierError(
                f"unknown division method kind {self.kind!r}")
        if self.max_terms is not None and int(self.max_terms) < 1:
            raise ValueError(f"max_terms must be >= 1, got {self.max_terms}")
        if not self.tol > 0.0:
            raise ValueError(f"tol must be positive, got {self.tol}")


def default_division_method(irq):
    """Pick the cheapest supported method for a carrier."""
    if irq.divide is not None:
        return DivisionMethod("closed_form")
    if irq.group is not None and irq.is_uniform:
        return DivisionMethod("fixed_point")
    raise UnsupportedCarrierError(
        f"carrier {irq.name!r} supports no division method")


def _term_budget(irq, k, method):
    if method.max_terms is not None:
        return int(method.max_terms)
    ratio = (irq.epsilon or 0.0) ** abs(k)
    if not 0.0 < ratio < 1.0:
        return _MIN_TERMS
    return max(_MIN_TERMS, math.ceil(math.log(_STEP_RTOL) / math.log(ratio)))


def _fixed_point(irq, k, b, a, method):
    # On a group carrier y *_k a = b reads y delta^k(y^-1 a) = b.  Putting
    # y = b m^-1 and c = b^-1 a turns it into m = delta^k(m c), a contraction
    # with ratio eps^k whether or not delta is a morphism.
    g = irq.group
    if g is None or not irq.is_uniform:
        raise UnsupportedCarrierError(
            "fixed_point division needs a uniform group carrier")
    if k < 0:
        k, b, a = -k, a, b
    c = g.mul(g.inv(b), a)
    m = g.power(k, c)
    for _ in range(_term_budget(irq, k, method)):
        nxt = g.power(k, g.mul(m, c))
        step = float(np.max(np.abs(nxt - m)))
        m = nxt
        # Coordinate steps on Carnot carriers can grow for several
        # iterations before they shrink, so stop only once the step is
        # rounding noise on the iterate.
        if step <= _STEP_RTOL * max(1.0, float(np.max(np.abs(m)))):
            break
    return g.mul(b, g.inv(m))


def right_divide_k(irq, k, b, a, method=None):
    """Solve y *_k a = b; the post-condition d(star_k(y, a), b) <= tol is
    always verified on the returned value.

    :raises InvalidExponentError: for a level that is not a nonzero int,
        before any solve runs.
    :raises NonConvergenceError: when the residual check fails.
    :raises UnsupportedCarrierError: for a method the carrier cannot run.
    """
    _require_level(k)
    method = method or default_division_method(irq)
    if method.kind == "closed_form":
        if irq.divide is None:
            raise UnsupportedCarrierError(
                f"carrier {irq.name!r} has no closed-form division")
        y = irq.divide(k, b, a)
    else:
        y = _fixed_point(irq, k, b, a, method)
    residual = float(np.max(irq.metric(star_k(irq, k, y, a), b)))
    if not np.isfinite(residual) or residual > method.tol:
        raise NonConvergenceError(
            f"division residual {residual:.3e} exceeds tol {method.tol:.1e} "
            f"on {irq.name!r} at k={k}", [residual])
    return y


def loop_isotope_k(irq, k, x, u, v, method=None):
    """Loop operation u o_k^x v = (u /_k x) *_k (x \\_k v), identity x.

    Converges to the tangent-group sum u +_inf^x v as k grows.
    """
    return star_k(irq, k, right_divide_k(irq, k, u, x, method),
                  back_k(irq, k, x, v))


def underline_inv_k(irq, k, u, v, method=None):
    """Division-corrected inversion inverse_k(u, v /_k u).

    On symmetric carriers this is independent of k and equals the geodesic
    point reflection of v through u.
    """
    return inverse_k(irq, k, u, right_divide_k(irq, k, v, u, method))


def t_map(irq, y, x):
    """The pair map T(y, x) = (inv(x, y), x * y) at level one."""
    return inverse_k(irq, 1, x, y), irq.star(x, y)


def check_involution(irq, samples=200, tol=1e-12, seed=0, radius=2.0):
    """Check t_map o t_map = id; returns an AxiomReport labeled 6.5.

    Exact carriers are enumerated over all pairs and held to zero residual.
    """
    y, x = sample_tuples(irq, seed, samples, radius, 2)
    y1, x1 = t_map(irq, y, x)
    y2, x2 = t_map(irq, y1, x1)
    return AxiomReport.judge(irq, "6.5", np.shape(x)[0], [(y2, y), (x2, x)],
                             tol)


def loos_identity_names(irq):
    """Identities :func:`check_loos_axioms` reports on ``irq``, in order."""
    return (["L1", "L2", "L3", "L4", "L2-underline", "6.6", "6.8"]
            + ["6.8-oracle"] * (irq.point_reflection is not None)
            + ["6.8-iso"] * irq.reflection_isometry)


def check_loos_axioms(irq, cfg=None, samples=100, tol=1e-8, seed=0,
                      radius=2.0):
    """Check the symmetric-space axioms for the limit inversion inv_inf.

    The inversion limits run at ``cfg``, by default at a quarter of the
    check tolerance (:meth:`LimitConfig.within`).

    Reports:

    * ``L1``: inv(x, x) = x;
    * ``L2``: inv(x, inv(y, z)) = inv(inv(x, y), inv(x, z));
    * ``L3``: inv(x, inv(x, y)) = y;
    * ``L4``: quantitative non-degeneracy: over sampled y with
      1e-3 * 0.5 <= d(x, y) <= 0.5, the ratio d(inv(x, y), y) / d(x, y)
      stays above 1e-3 (the measured minimum rides in the report note);
    * ``L2-underline``: L2 with underline_inv_k at levels 1, 2 and 3, each
      dividing by the carrier's default method;
    * ``6.6``: underline_inv_k(u, v) = inv_inf(u, v) at each level, the
      k-independence making the carrier a uniform symmetric quasigroup;
    * ``6.8``: the equivalent k-indexed form inverse_k(u, v) =
      inv_inf(u, v *_k u);
    * ``6.8-oracle`` (when the carrier has a closed-form
      ``point_reflection``): the limit inversion matches it;
    * ``6.8-iso`` (when the carrier sets ``reflection_isometry``):
      d(inv(x, u), inv(x, v)) = d(u, v).
    """
    if not irq.is_uniform:
        raise UnsupportedCarrierError(
            f"check_loos_axioms needs a uniform carrier; {irq.name!r} is not")
    cfg = cfg or LimitConfig.within(tol, 4.0)
    x, y, z = sample_tuples(irq, seed, samples, radius, 3)
    n = int(np.shape(x)[0])

    def inv(a, b):
        return emergent_inverse(irq, a, b, cfg)[0]

    reports = [AxiomReport.judge(irq, "L1", n, [(inv(x, x), x)], tol)]
    i_xy, i_xz = inv(x, y), inv(x, z)
    reports.append(AxiomReport.judge(
        irq, "L2", n, [(inv(x, inv(y, z)), inv(i_xy, i_xz))], tol))
    reports.append(AxiomReport.judge(irq, "L3", n, [(inv(x, i_xy), y)], tol))

    # L4 audit: pull the y-batch into the 0.5-ball around each x by star
    # contractions, drop pairs closer than delta_min, bound the ratio below.
    ball, delta_min, expansion_floor = 0.5, 1e-3 * 0.5, 1e-3
    near = y
    for _ in range(60):
        d = irq.metric(x, near)
        if float(np.max(d)) <= ball:
            break
        near = irq.star(x, near)
    d = np.asarray(irq.metric(x, near))
    keep = d >= delta_min
    if np.any(keep):
        ratios = (np.asarray(irq.metric(inv(x, near), near))[keep]) / d[keep]
        c = float(np.min(ratios))
    else:
        c = float("nan")
    residual = max(0.0, expansion_floor - c) if np.isfinite(c) else float("inf")
    reports.append(AxiomReport(
        "L4", int(np.count_nonzero(keep)), residual, 0.0,
        bool(residual <= 0.0),
        note=f"min ratio d(inv(x,y),y)/d(x,y) = {c:.6g}, floor {expansion_floor:g}"))

    l2u, r66, r68 = [], [], []
    for k in (1, 2, 3):
        def und(a, b):
            return underline_inv_k(irq, k, a, b)

        u_xy = und(x, y)
        l2u.append((und(x, und(y, z)), und(u_xy, und(x, z))))
        r66.append((u_xy, i_xy))
        r68.append((inverse_k(irq, k, x, y), inv(x, star_k(irq, k, y, x))))
    reports.append(AxiomReport.judge(irq, "L2-underline", n, l2u, tol))
    reports.append(AxiomReport.judge(irq, "6.6", n, r66, tol))
    reports.append(AxiomReport.judge(irq, "6.8", n, r68, tol))

    if irq.point_reflection is not None:
        reports.append(AxiomReport.judge(
            irq, "6.8-oracle", n, [(i_xy, irq.point_reflection(x, y))], tol))

    if irq.reflection_isometry:
        pres = float(np.max(np.abs(np.asarray(irq.metric(i_xy, i_xz))
                                   - np.asarray(irq.metric(y, z)))))
        reports.append(AxiomReport.from_residual("6.8-iso", n, pres, tol))
    return reports
