"""Derivatives of maps between uniform irqs.

A map f between uniform carriers is differentiable at x in the direction u
when the iterates

    back_k(f(x), f(star_k(x, u)))     (back_k in the target carrier)

converge; the limit is the derivative Tf(x, u).  Differentiability is
reported, never assumed: a map without a derivative at the sampled scale
surfaces as :class:`NonConvergenceError` carrying the residual trail.
When the derivative exists, Tf(x, .) should carry the tangent group at x
to the tangent group at f(x); ``check_derivative_morphism`` measures that.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from .core import AxiomReport, _at_levels, _back, _star, sample_tuples
from .errors import CarrierConstructionError, UnsupportedCarrierError
from .limits import emergent_sum, limit

__all__ = ["MapBetweenCarriers", "derivative", "check_derivative_morphism"]


@dataclass(frozen=True)
class MapBetweenCarriers:
    """A function between carriers, with a probe-point dimension check."""

    source: Any
    target: Any
    fn: Callable[..., Any]
    name: str = "f"

    def __post_init__(self):
        probe = self.source.sample(0, 1, 1.0)
        image = np.asarray(self.fn(probe))
        if not np.all(np.isfinite(image)):
            raise CarrierConstructionError(
                f"map {self.name!r} sends a probe point to non-finite values")
        if self.target.dim is not None and image.shape[-1] != self.target.dim:
            raise CarrierConstructionError(
                f"map {self.name!r} lands in dimension {image.shape[-1]}, "
                f"target carrier has dimension {self.target.dim}")

    def __call__(self, x):
        return self.fn(x)


def _require_uniform_pair(m):
    for side, irq in (("source", m.source), ("target", m.target)):
        if not irq.is_uniform:
            raise UnsupportedCarrierError(
                f"derivative needs uniform carriers; {side} {irq.name!r} is not")


def derivative(m, x, u, cfg=None):
    """Derivative Tf(x, u) of a map between uniform irqs.

    The limit evaluates its levels in blocks, so ``m.fn`` receives points
    with the levels stacked on leading axes and must broadcast over them,
    as carrier operations do.

    :returns: (value, ConvergenceReport).
    :raises NonConvergenceError: when the iterates do not settle, i.e. the
        map is not differentiable there at the configured depth.
    """
    _require_uniform_pair(m)
    fx = m.fn(x)

    def level(k, x, u):
        return _back(m.target, k, fx, m.fn(_star(m.source, k, x, u)))

    return limit(m.target,
                 lambda ks: _at_levels((m.source, m.target), level, ks, x, u),
                 cfg, f"derivative of {m.name!r}")


def check_derivative_morphism(m, x, cfg=None, samples=100, tol=1e-7, seed=0,
                              radius=2.0):
    """Check that Tf(x, .) is a morphism of tangent groups on samples.

    Residual of Tf(x, u +_inf^x v) against Tf(x, u) +_inf^f(x) Tf(x, v).
    """
    _require_uniform_pair(m)
    u, v = sample_tuples(m.source, seed, samples, radius, 2)
    fx = m.fn(x)
    s_uv = emergent_sum(m.source, x, u, v, cfg)[0]
    lhs = derivative(m, x, s_uv, cfg)[0]
    rhs = emergent_sum(m.target, fx, derivative(m, x, u, cfg)[0],
                       derivative(m, x, v, cfg)[0], cfg)[0]
    return AxiomReport.judge(m.target, "Tf-morphism", samples, [(lhs, rhs)],
                             tol)
