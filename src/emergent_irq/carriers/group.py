r"""Irq carriers built from a group with a distinguished endomorphism.

Given a group (G, mul, inv, e) and an injective map ``delta`` fixing e, the
operations

    x * u = x delta(x^-1 u)          x \ u = x delta^-1(x^-1 u)

form an irq.  When delta is contractive the carrier is uniform; when delta
is additionally a group morphism, the emergent operations have closed forms
in the group (sum u x^-1 v, difference x u^-1 v, inverse x u^-1 x) that the
numerical limits must reproduce, which makes these carriers the main oracle
family.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable

import numpy as np

from ..core import Chart, Irq
from ..errors import (CarrierConstructionError, NonConvergenceError,
                      UnsupportedCarrierError)

__all__ = [
    "GroupOps",
    "make_group_irq",
    "make_perturbed_plane",
]


@dataclass(frozen=True, eq=False)
class GroupOps:
    """Group structure with an optional endomorphism delta.

    ``delta_power(m, g)`` applies delta m times (m may be negative when the
    inverse exists); carriers with dilations supply an exact closed form,
    which must also take m as an int array of levels that broadcasts
    against g, as the limits pass a block of levels.  ``is_morphism``
    declares delta(gh) = delta(g)delta(h), and ``commutes_with_inv``
    declares delta(g^-1) = delta(g)^-1 for a delta that need not be a
    morphism; :attr:`inverse_equivariant` reads either.  A carrier states
    these facts here, on its :class:`~emergent_irq.core.Chart`'s group
    (:func:`make_group_irq` sets that group's ``delta`` and ``delta_inv``).

    Without ``delta_power``, :meth:`power` iterates delta or ``delta_inv``
    and hands them an input whose leading axis holds independent inputs:
    the levels of a block, run as one chain of max|m| steps, or at an int
    level a single slice holding the whole of g.  A block whose g has no
    level axis starts every level from the same g, so it runs the
    int-level chain once and takes level m from its step |m|.  A map that
    judges convergence judges each leading slice on its own, so a level of
    a block comes out as its one-level call does.  Groups compare and hash
    by identity.
    """

    mul: Callable[..., Any]
    inv: Callable[..., Any]
    neutral: Any
    delta: Callable[..., Any] | None = None
    delta_inv: Callable[..., Any] | None = None
    delta_power: Callable[..., Any] | None = None
    is_morphism: bool = False
    commutes_with_inv: bool = False

    @property
    def inverse_equivariant(self):
        """Whether delta(g^-1) = delta(g)^-1, which every morphism
        satisfies: the level inverse then needs no power of delta^-1."""
        return self.is_morphism or self.commutes_with_inv

    def power(self, m, g):
        if self.delta_power is not None:
            return self.delta_power(m, g)
        block = isinstance(m, np.ndarray)
        sign = m.flat[0] if block else m
        fn = self.delta if sign >= 0 else self.delta_inv
        if fn is None:
            raise UnsupportedCarrierError("carrier has no delta in that direction")
        if not block:
            out = np.asarray(g)[None]
            for _ in range(abs(m)):
                out = fn(out)
            return out[0]
        # A block of consecutive same-sign levels, sorted by |m|, on the
        # leading axis: step j of one chain of max|m| steps applies fn to
        # the levels with |m| >= j, a suffix of the block.
        steps = np.abs(m.ravel())
        shape = np.broadcast_shapes(np.shape(m), np.shape(g))
        if np.ndim(g) < len(shape):
            # Every level starts from the same g: run the int-level chain
            # once and take level m from its step |m|.
            chain = [np.asarray(g)[None]]
            for _ in range(int(steps[-1])):
                chain.append(fn(chain[-1]))
            return np.concatenate(chain)[steps].reshape(shape)
        out = np.array(fn(np.broadcast_to(g, shape)))
        for j in range(2, int(steps[-1]) + 1):
            first = int(np.searchsorted(steps, j))
            out[first:] = fn(out[first:])
        return out


def _additive_group(dim, **delta_fields):
    """The abelian group (R^dim, +), with the given delta fields."""
    return GroupOps(mul=lambda a, b: np.asarray(a, dtype=float) + b,
                    inv=lambda a: -np.asarray(a, dtype=float),
                    neutral=np.zeros(dim), **delta_fields)


def make_group_irq(group, delta, delta_inverse, *, name, metric=None,
                   sample=None, epsilon=None, layer_dims=None, divide=None,
                   point_reflection=None, reflection_isometry=False):
    r"""Build the irq ``x * u = x delta(x^-1 u)`` over a coordinate group.

    The carrier's group, and its :class:`~emergent_irq.core.Chart`'s, is
    ``group`` with ``delta`` and ``delta_inverse`` as its dilation and
    inverse; its ``delta_power`` and ``is_morphism`` state what else is
    known of delta.  Its dimension is the last axis of the neutral element,
    and it is uniform when given an ``epsilon``.

    :param group: :class:`GroupOps`; its own ``delta`` and ``delta_inv``,
        if any, are replaced by the two maps below.
    :param delta: the endomorphism; must fix the neutral element.
    :param delta_inverse: its inverse map.  Both maps follow the contract
        of :class:`GroupOps`: the leading axis of their input holds
        independent inputs.  :meth:`GroupOps.power` is the only caller of
        ``delta_inverse`` (``star`` and ``back`` are the level star at 1
        and -1).
    :param metric: distance; defaults to Euclidean on coordinates.
    :param sample: seeded ball sampler; defaults to a Euclidean ball
        around the neutral element.
    :param epsilon: contraction ratio of delta; makes the carrier uniform.
    :raises CarrierConstructionError: if delta moves the neutral element.
    """
    neutral = np.asarray(group.neutral, dtype=float)
    ops = replace(group, neutral=neutral, delta=delta, delta_inv=delta_inverse)

    if metric is None:
        def metric(x, y):
            return np.linalg.norm(np.asarray(x) - np.asarray(y), axis=-1)

    if sample is None:
        def sample(seed, count, radius):
            rng = np.random.default_rng(seed)
            dim = neutral.shape[-1]
            direction = rng.standard_normal((count, dim))
            direction /= np.linalg.norm(direction, axis=-1, keepdims=True)
            r = radius * rng.random((count, 1)) ** (1.0 / dim)
            return neutral + direction * r

    return Irq(name=name, metric=metric, sample=sample, base=neutral,
               epsilon=epsilon, group=ops, layer_dims=layer_dims,
               divide=divide, point_reflection=point_reflection,
               reflection_isometry=reflection_isometry, chart=Chart(ops))


def make_perturbed_plane(epsilon=0.5, eta=0.1, name="perturbed"):
    r"""Uniform but non-distributive irq on R^2.

    Uses the abelian group (R^2, +) with the non-linear, non-morphism
    contraction

        delta(x1, x2) = (eps x1 + eta sin x2, eps x2 + eta sin x1)

    which fixes 0 and is inverted by Newton's method on its closed-form
    Jacobian.  Limits of iterated operations exist, but the level-k
    operations are not distributive, so group reconstruction must reject
    this carrier.  delta is odd, so it commutes with the group inverse: a
    level inverse costs one delta^k chain, and its limit is the point
    reflection 2x - u, an isometry, which the carrier gives as its oracle.

    Requires 0 < eta < eps and eps + eta < 1.
    """
    epsilon = float(epsilon)
    eta = float(eta)
    if not 0.0 < epsilon < 1.0:
        raise CarrierConstructionError(f"epsilon must lie in (0, 1), got {epsilon}")
    if not 0.0 < eta < epsilon or epsilon + eta >= 1.0:
        raise CarrierConstructionError(
            f"need 0 < eta < epsilon and epsilon + eta < 1, got {epsilon}, {eta}")

    # Newton's method on delta(x) = q.  The Jacobian [[eps, eta cos x2],
    # [eta cos x1, eps]] has determinant >= eps^2 - eta^2 > 0 and condition
    # number cond <= (eps + eta)/(eps - eta): each step is a closed-form 2x2
    # solve, and rounding leaves the last steps near cond ulps of |x|.
    eps2, eta2 = epsilon * epsilon, eta * eta
    step_tol = 1e-15 * (epsilon + eta) / (epsilon - eta)
    # Below this step size a full step at least halves the error: the error
    # is within cond |step|, and across it the Jacobian moves by at most
    # eta |error| / 2 against an inverse bounded by 1 / (eps - eta).
    full_step = (epsilon - eta) ** 2 / (eta * (epsilon + eta))

    def delta(p):
        p = np.asarray(p, dtype=float)
        return epsilon * p + eta * np.sin(p[..., ::-1])

    def newton_step(x, r):
        c = np.cos(x)
        det = eps2 - eta2 * c[..., 0] * c[..., 1]
        return (epsilon * r - eta * (c * r)[..., ::-1]) / det[..., None]

    def sq_norm(v):
        return v[..., 0] * v[..., 0] + v[..., 1] * v[..., 1]

    def backtrack(x, q, r, step, new, r_new, limit):
        # Armijo backtracking: halve the step on the rows whose squared
        # residual it does not cut by the factor 1 - t/2, until the halved
        # step is negligible against ``limit``, which broadcasts against
        # the rows.
        sq = sq_norm(r)
        rows = np.maximum(np.abs(step[..., 0]), np.abs(step[..., 1]))
        t = np.ones(sq.shape)
        while True:
            worse = (sq_norm(r_new) > (1 - t / 2) * sq) & (t * rows > limit)
            if not worse.any():
                return new, r_new
            t = np.where(worse, t / 2, t)
            new = x - t[..., None] * step
            r_new = delta(new) - q

    def delta_inverse(q):
        # q's leading axis holds independent slices (see GroupOps), and a
        # single point is one slice: the stop rule, the full-step gate and
        # the backtracking floor are judged per slice, and a slice leaves
        # the iteration once it has converged.
        q = np.asarray(q, dtype=float)
        if q.ndim == 1:
            return delta_inverse(q[None])[0]
        if not np.isfinite(q).all():
            # A row with a non-finite coordinate has no preimage.
            finite = np.isfinite(q).all(axis=-1, keepdims=True)
            return np.where(finite, delta_inverse(np.where(finite, q, 0.0)),
                            np.nan)
        out = np.empty_like(q)
        todo = np.arange(len(q))
        axes = tuple(range(1, q.ndim))
        x = q / epsilon
        r = delta(x) - q
        for _ in range(50):
            step = newton_step(x, r)
            size = np.abs(step).max(axis=axes)
            # The stop must be relative to the scale: iterated delta^-k
            # chains feed tiny intermediate values through here, and an
            # absolute floor would inject errors that later inverse steps
            # amplify.
            limit = step_tol * np.abs(x).max(axis=axes)
            new = x - step
            done = size <= limit
            if done.any():
                out[todo[done]] = new[done]
                if done.all():
                    return out
                todo, q, x, r, step, new, size, limit = (
                    a[~done] for a in (todo, q, x, r, step, new, size, limit))
            r_new = delta(new) - q
            big = size > full_step
            if big.any():
                floor = np.where(big, limit, np.inf)
                new, r_new = backtrack(
                    x, q, r, step, new, r_new,
                    floor.reshape(floor.shape + (1,) * (q.ndim - 2)))
            x, r = new, r_new
        raise NonConvergenceError(
            f"inverse dilation on {name!r}: Newton step {size[0]:.3e} above "
            f"{limit[0]:.3e} after 50 iterations")

    def point_reflection(x, u):
        return 2.0 * np.asarray(x, dtype=float) - u

    return make_group_irq(_additive_group(2, commutes_with_inv=True), delta,
                          delta_inverse, name=name, epsilon=epsilon + eta,
                          layer_dims=(2,), point_reflection=point_reflection,
                          reflection_isometry=True)
