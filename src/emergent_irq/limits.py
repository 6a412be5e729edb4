r"""Emergent operations: limits of the level-k irq operations.

On a uniform irq the level-k difference, sum and inverse converge as
k -> infinity, uniformly on compact sets:

    difference_k(x, u, v) -> v -_inf^x u
    sum_k(x, u, v)        -> u +_inf^x v
    inverse_k(x, u)       -> -_inf^x u

The limit operations based at x make the carrier a contractible group with
neutral element x, inverse -_inf^x, and contraction alpha(u) = star(x, u),
which is a group automorphism.  This module computes the limits with a
windowed Cauchy stopping rule, reports their convergence trails, verifies
the tangent-group laws, and reconstructs the underlying group of a
distributive carrier from the limits alone:

    product(u, v) = u +_inf^e v,   u^-1 = -_inf^e u,
    star(x, y) = product(x, star(e, product(inverse(x), y))).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable

import numpy as np

from .core import (AxiomReport, _at_levels, _difference, _inverse, _sum,
                   sample_tuples)
from .errors import (DistributivityError, EmergentAlgebraError,
                     InvalidPointError, NonConvergenceError,
                     UnsupportedCarrierError)

__all__ = [
    "LimitConfig",
    "ConvergenceReport",
    "TangentGroup",
    "ReconstructedGroup",
    "limit",
    "emergent_difference",
    "emergent_sum",
    "emergent_inverse",
    "tangent_group",
    "verify_tangent_group",
    "check_distributive",
    "reconstruct_group",
]


@dataclass(frozen=True)
class LimitConfig:
    """Stopping rule for iterated-operation limits.

    The iteration stops at level k when the last ``cauchy_window``
    successive distances d(value_k, value_{k+1}) all fall at or below
    ``tol`` (max over the batch); exceeding ``max_k`` first raises
    :class:`NonConvergenceError`.

    ``extrapolate`` judges, on a carrier with a ``group`` and an
    ``epsilon``, the Richardson sequence w_k = (v_{k+1} - eps v_k) / (1 -
    eps) of the level-k values v_k in group coordinates instead of v_k
    itself.  It removes the leading error term C eps^k, so the value lands
    closer to the limit and the window closes at a shallower level; the
    stop level and rate then describe w, not v.  It has no effect on a
    carrier without a group.
    """

    tol: float = 1e-11
    max_k: int = 200
    cauchy_window: int = 3
    extrapolate: bool = False

    def __post_init__(self):
        if not self.tol > 0.0:
            raise ValueError(f"tol must be positive, got {self.tol}")
        if int(self.cauchy_window) < 1:
            raise ValueError(f"cauchy_window must be >= 1, got {self.cauchy_window}")
        if int(self.max_k) < int(self.cauchy_window) + 1:
            raise ValueError(
                f"max_k = {self.max_k} leaves no room for a window of "
                f"{self.cauchy_window}")

    @classmethod
    def within(cls, tol, margin, **fields):
        """Config for inner limits whose values are judged at ``tol``.

        They only need to land well inside that tolerance, at ``tol /
        margin`` floored at 1e-11; insisting on the global default can sit
        below a carrier's numerical floor and turn every row into a
        non-convergence.  ``fields`` set the other fields.
        """
        return cls(tol=max(float(tol) / margin, 1e-11), **fields)


@dataclass(frozen=True)
class ConvergenceReport:
    """Trail of one limit computation.

    ``residual_trail[i]`` is the batch-max distance between the values at
    levels i+1 and i+2; ``estimated_rate`` is the geometric mean of the
    last few successive trail ratios (nan when the trail bottoms out at
    exact zeros too quickly to estimate).
    """

    converged: bool
    stop_k: int
    residual_trail: tuple[float, ...]
    estimated_rate: float


def _estimate_rate(trail, span=5):
    tail = trail[-(span + 1):]
    ratios = [b / a for a, b in zip(tail, tail[1:]) if a > 0.0 and b > 0.0]
    if not ratios:
        return float("nan")
    return float(np.exp(np.mean(np.log(ratios))))


def _block_size(trail, done, window, tol, floor):
    """Levels to evaluate after level ``done``, at most ``done`` of them.

    While the trail is under ``tol``, the levels left to fill the window.
    When the last step is a new low (``floor`` is the least step so far),
    up to the stop level its ratio to the step before predicts; otherwise
    the trail is not shrinking, or has bottomed out and may be about to
    raise, and there is nothing to extrapolate: window + 1 levels, the
    size of the first block."""
    under = 0
    for step in reversed(trail):
        if not step <= tol:
            break
        under += 1
    if under:
        need = window - under
    elif len(trail) > 1 and trail[-1] < trail[-2] and trail[-1] <= floor:
        need = (math.ceil(math.log(tol / trail[-1])
                          / math.log(trail[-1] / trail[-2])) + window - 1)
    else:
        need = window + 1
    return min(need, done)


def _cauchy_steps(irq, chain):
    """Batch-max d(chain[i], chain[i + 1]) over consecutive values."""
    if len(chain) < 2:
        return ()
    d = irq.metric(chain[:-1], chain[1:])
    return np.max(np.reshape(d, (len(chain) - 1, -1)), axis=1)


def _richardson(value_at, eps):
    """``value_at`` turned into the Richardson values of its levels.

    Levels a .. b of the result need the raw levels a .. b + 1; the raw
    value at a is the one the previous call ended on, when that call
    covered a - 1 (a re-run of the same range reuses it as well).
    """
    last = {}

    def extrapolated(ks):
        a, b = int(ks[0]), int(ks[-1])
        if a in last:
            raw = np.concatenate([last[a][None], value_at(ks + 1)])
        else:
            raw = value_at(np.arange(a, b + 2))
        last.clear()
        last[b + 1] = raw[-1]
        return (raw[1:] - eps * raw[:-1]) / (1.0 - eps)

    return extrapolated


def limit(irq, value_at, cfg, what):
    """Limit of the level-k values ``value_at`` gives as k grows.

    ``value_at(ks)`` takes a 1-D int array of consecutive levels and
    returns their values along a new leading axis.  The loop stops
    at the first level k where the last ``cfg.cauchy_window`` steps
    d(value_{k-1}, value_k) are all within ``cfg.tol``; ``what`` names the
    limit in error messages.

    With ``cfg.extrapolate`` on a carrier with a group, value_k is the
    Richardson value w_k built from the raw levels k and k + 1 (see
    :class:`LimitConfig`), and everything below judges w.  A block of
    levels a .. b asks ``value_at`` for raw levels up to b + 1, reusing the
    previous block's last raw level, so the highest raw level requested is
    ``cfg.max_k + 1``.

    Levels are requested in blocks, never past twice the depth reached.
    The first is 1 .. window + 1.  When the last step is a new low of the
    trail, the next block runs to the stop level its ratio to the step
    before predicts; otherwise it has window + 1 levels, so a trail that
    bottoms out and regrows is not extrapolated past where it raises.
    The loop asks for one level at a time on carriers without a chart,
    whose own star and back may judge convergence over the whole block,
    and from the first block that raises a library error on: that block's
    levels are evaluated again one by one, so the error comes from the
    level where a one-level loop meets it.

    A group carrier without a closed-form dilation power (the perturbed
    plane) runs each block as one chain of dilation steps, and a block
    whose input has no level axis as the int-level chain.  The steps are
    scanned level by level, so the value, stop level, trail and errors are
    those of evaluating one level at a time.

    :returns: (value, :class:`ConvergenceReport`).
    :raises NonConvergenceError: when the trail bottoms out and regrows
        a thousandfold above the larger of its floor and the tolerance
        (the message names both levels, and says whether the floor lay
        above the tolerance), or does not settle by ``cfg.max_k``.
    :raises InvalidPointError: when a level's value leaves the carrier;
        the message names the limit, the carrier and the level.
    """
    cfg = cfg or LimitConfig()
    window, max_k = int(cfg.cauchy_window), int(cfg.max_k)
    if cfg.extrapolate and irq.group is not None and irq.is_uniform:
        value_at = _richardson(value_at, float(irq.epsilon))
    one_level = irq.level_star is None
    trail = []
    floor, floor_k = float("inf"), 0
    prev = None
    done = 0
    while done < max_k:
        if one_level:
            size = 1
        elif done == 0:
            size = window + 1
        else:
            size = _block_size(trail, done, window, cfg.tol, floor)
        ks = np.arange(done + 1, min(done + size, max_k) + 1)
        try:
            values = value_at(ks)
            chain = values if prev is None else np.concatenate([prev[None], values])
            steps = _cauchy_steps(irq, chain)
        except EmergentAlgebraError as err:
            if len(ks) > 1:
                one_level = True
                continue
            if isinstance(err, InvalidPointError):
                raise InvalidPointError(
                    f"{what} on {irq.name!r} at level {ks[0]}: {err}") from err
            raise
        for value, step in zip(chain[1:], steps):
            step = float(step)
            trail.append(step)
            if len(trail) >= window and all(r <= cfg.tol
                                            for r in trail[-window:]):
                report = ConvergenceReport(True, len(trail) + 1,
                                           tuple(trail), _estimate_rate(trail))
                return value.copy(), report
            if step < floor:
                floor, floor_k = step, len(trail) + 1
            # Rounding noise in deep-level iterates grows geometrically and
            # can later saturate into a spuriously constant value; a Cauchy
            # window would then close on that artifact.  A trail that
            # bottoms out and regrows a thousandfold above tol is past its
            # usable depth, so fail loudly with the achievable floor
            # instead.  A dip to or below tol does not disarm this: the
            # window has not closed, and the trail may still regrow; the
            # message then names the regrowth past tol, as such a floor
            # says nothing of the carrier's precision.
            if step > 1e3 * max(floor, cfg.tol):
                level = len(trail) + 1
                if floor > cfg.tol:
                    how = (f"1000-fold by level {level}; either no limit "
                           f"exists here or tol {cfg.tol:.1e} is below the "
                           f"carrier's numerical floor")
                else:
                    how = (f"1000-fold past tol {cfg.tol:.1e} by level "
                           f"{level}, before the Cauchy window closed")
                raise NonConvergenceError(
                    f"{what} on {irq.name!r}: residual trail bottomed out "
                    f"near {floor:.3e} at level {floor_k} and regrew {how}",
                    trail)
        prev = chain[-1]
        done = int(ks[-1])
    raise NonConvergenceError(
        f"{what} on {irq.name!r} did not settle within max_k={cfg.max_k} "
        f"(last residual {trail[-1]:.3e}, tol {cfg.tol:.1e})", trail)


# The old private name; perfbench/tracing.py hooks the limit loop through it.
_limit = limit


def _require_uniform(irq, what):
    if not irq.is_uniform:
        raise UnsupportedCarrierError(
            f"{what} needs a uniform carrier; {irq.name!r} is not")


def _emergent(irq, level, points, cfg, what):
    _require_uniform(irq, what)
    return limit(irq, lambda ks: _at_levels((irq,), partial(level, irq), ks,
                                            *points), cfg, what)


def emergent_difference(irq, x, u, v, cfg=None):
    """Limit of difference_k(x, u, v): the tangent difference v -_inf^x u.

    :returns: (value, :class:`ConvergenceReport`).
    """
    return _emergent(irq, _difference, (x, u, v), cfg, "emergent_difference")


def emergent_sum(irq, x, u, v, cfg=None):
    """Limit of sum_k(x, u, v): the tangent sum u +_inf^x v."""
    return _emergent(irq, _sum, (x, u, v), cfg, "emergent_sum")


def emergent_inverse(irq, x, u, cfg=None):
    """Limit of inverse_k(x, u): the tangent inverse -_inf^x u."""
    return _emergent(irq, _inverse, (x, u), cfg, "emergent_inverse")


@dataclass(frozen=True)
class TangentGroup:
    """The contractible group emerging at a basepoint.

    ``product``/``inverse`` evaluate the limit operations (dropping their
    convergence reports); ``contraction`` is alpha(u) = star(basepoint, u).
    """

    irq: Any
    basepoint: Any
    cfg: LimitConfig

    def product(self, u, v):
        return emergent_sum(self.irq, self.basepoint, u, v, self.cfg)[0]

    def inverse(self, u):
        return emergent_inverse(self.irq, self.basepoint, u, self.cfg)[0]

    def difference(self, u, v):
        return emergent_difference(self.irq, self.basepoint, u, v, self.cfg)[0]

    def contraction(self, u):
        return self.irq.star(self.basepoint, u)


def tangent_group(irq, x, cfg=None):
    """Tangent contractible group of a uniform irq at basepoint x."""
    _require_uniform(irq, "tangent_group")
    return TangentGroup(irq, x, cfg or LimitConfig())


def verify_tangent_group(irq, x, cfg=None, samples=100, tol=1e-7, seed=0,
                         radius=2.0):
    """Check the tangent-group laws at basepoint x on sampled points.

    Checks the limit identities 5.2a-5.2g, the two-sided inverse and
    neutral laws they entail, and that the contraction alpha = star(x, .)
    is an automorphism of the tangent group.

    :returns: one :class:`AxiomReport` per law.
    """
    _require_uniform(irq, "verify_tangent_group")
    u, v, w = sample_tuples(irq, seed, samples, radius, 3)
    xs = np.broadcast_to(np.asarray(x), np.shape(u)).copy()
    g = TangentGroup(irq, xs, cfg or LimitConfig())
    add, dif, alpha = g.product, g.difference, g.contraction
    s_uv = add(u, v)
    d_uv = dif(u, v)
    i_u = g.inverse(u)

    checks = [
        ("5.2a", [(dif(u, s_uv), v)]),
        ("5.2b", [(add(u, d_uv), v)]),
        ("5.2c", [(d_uv, add(i_u, v))]),
        ("5.2d", [(g.inverse(i_u), u)]),
        ("5.2e", [(add(u, add(v, w)), add(s_uv, w))]),
        ("5.2f", [(i_u, dif(u, xs))]),
        ("5.2g", [(add(xs, u), u), (add(u, xs), u)]),
        ("5.2-inverse", [(add(u, i_u), xs), (add(i_u, u), xs)]),
        ("5.2-alpha", [(alpha(s_uv), add(alpha(u), alpha(v)))]),
    ]
    return [AxiomReport.judge(irq, name, samples, pairs, tol)
            for name, pairs in checks]


def check_distributive(irq, samples=200, tol=1e-6, seed=0, radius=2.0):
    """Check left self-distributivity of star and back over each other.

    The four mixed forms at level one,

        x * (u * v) = (x * u) * (x * v)      x * (u \\ v) = (x * u) \\ (x * v)
        x \\ (u * v) = (x \\ u) * (x \\ v)   x \\ (u \\ v) = (x \\ u) \\ (x \\ v)

    propagate to every level, so this is the full distributivity condition
    separating group-like carriers from merely uniform ones.

    Exact carriers are enumerated when small and held to zero residual.

    :returns: a single :class:`AxiomReport` labeled 6.1.
    """
    x, u, v = sample_tuples(irq, seed, samples, radius, 3)
    ops = (irq.star, irq.back)
    pairs = ((outer(x, inner(u, v)), inner(outer(x, u), outer(x, v)))
             for outer in ops for inner in ops)
    return AxiomReport.judge(irq, "6.1", np.shape(x)[0], pairs, tol)


@dataclass(frozen=True)
class ReconstructedGroup:
    """Group recovered from the emergent operations of a distributive carrier.

    ``star``/``back`` rebuild the original irq operations from the group
    and the basepoint contraction, closing the loop between the two
    presentations.
    """

    neutral: Any
    product: Callable[..., Any]
    inverse: Callable[..., Any]
    star: Callable[..., Any]
    back: Callable[..., Any]
    distributivity: AxiomReport


def reconstruct_group(irq, e, cfg=None, samples=200, tol=1e-6, seed=0,
                      radius=2.0):
    """Reconstruct the contractible group of a distributive uniform irq.

    The product is u +_inf^e v, the inverse is -_inf^e, and the irq
    operations are recovered as x * y = product(x, star(e, product(
    inverse(x), y))) and likewise for back.

    :raises DistributivityError: when the level-one distributivity check
        fails at ``tol``; the failing report rides on the exception.
    """
    _require_uniform(irq, "reconstruct_group")
    report = check_distributive(irq, samples=samples, tol=tol, seed=seed,
                                radius=radius)
    if not report.passed:
        raise DistributivityError(
            f"carrier {irq.name!r} is not distributive "
            f"(residual {report.max_residual:.3e} > tol {report.tolerance:.1e}); "
            "no group to reconstruct", report)
    g = TangentGroup(irq, e, cfg or LimitConfig())

    def star(x, y):
        return g.product(x, irq.star(e, g.product(g.inverse(x), y)))

    def back(x, y):
        return g.product(x, irq.back(e, g.product(g.inverse(x), y)))

    return ReconstructedGroup(neutral=e, product=g.product,
                              inverse=g.inverse, star=star, back=back,
                              distributivity=report)
