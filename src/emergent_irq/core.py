r"""Idempotent right quasigroups (irqs) and their iterated operations.

An irq is a set X with two binary operations, ``star`` (written ``*``) and
``back`` (written ``\``), satisfying

    x * (x \ y) = x \ (x * y) = y        (P1)
    x * x = x \ x = x                    (P2)

so for each x the map ``star(x, .)`` is a bijection with inverse
``back(x, .)`` and x is a fixed point of both.

A carrier (:class:`Irq`) bundles the two operations with a metric, used to
measure identity residuals and convergence, and a seeded sampler drawing
points from a compact ball.  All operations broadcast over leading axes, so
one point and a batch of points take the same code path.

Iterating the operations gives, for a nonzero integer level k,

    x *_k u = star(x, .) applied |k| times to u     (k > 0)
    x *_k u = back(x, .) applied |k| times to u     (k < 0)

and ``back_k`` is the same with the roles of star and back exchanged, so
``star_k(x, .)`` and ``back_k(x, .)`` are mutually inverse at every level.
From these, three derived operations at level k:

    difference_k(x, u, v) = back_k(star_k(x, u), star_k(x, v))
    sum_k(x, u, v)        = back_k(x, star_k(star_k(x, u), v))
    inverse_k(x, u)       = back_k(star_k(x, u), x)

The level-k identities checked by :func:`check_irq_axioms` (labels P1, P2,
3.4a-g, 3.5h-k match the names used in experiment reports) are algebraic
consequences of P1 and P2, so they hold on every carrier up to numerical
error; their residuals are a direct measure of implementation fidelity.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable

import numpy as np

from .errors import CarrierConstructionError, InvalidExponentError

__all__ = [
    "MAX_ITER_EXPONENT",
    "DEFAULT_LEVELS",
    "Chart",
    "Irq",
    "AxiomReport",
    "star_k",
    "back_k",
    "difference_k",
    "sum_k",
    "inverse_k",
    "check_irq_axioms",
    "identity_names",
    "sample_tuples",
]

# Iteration levels are plain nonzero ints; the cap keeps runaway loops out.
MAX_ITER_EXPONENT = 10**6

# Level grid used by the identity checks (zero excluded by definition).
DEFAULT_LEVELS = (-2, -1, 1, 2, 3)


@dataclass(frozen=True, eq=False)
class Chart:
    """The level operations of a carrier whose star is x delta(x^-1 u) in
    a group, evaluated from that group alone.

    Iterating star cancels the basepoint inside each step, so
    x *_k u = x delta^k(x^-1 u) for any delta, and with s = delta^k(x^-1 u)
    and t = delta^k(x^-1 v) the derived operations rearrange to

        difference_k(x, u, v) = x (s delta^-k(s^-1 t))
        sum_k(x, u, v)        = x delta^-k(s delta^k((x s)^-1 v))
        inverse_k(x, u)       = x (s delta^-k(s^-1))

    the composed definitions in real arithmetic, with every small factor
    kept at its own scale rather than rounded at the basepoint's magnitude
    and re-amplified by delta^-k.  k is a nonzero int or a block of levels,
    handed on to ``group.power``.

    :param group: a ``carriers.group.GroupOps``; the forms use its ``mul``,
        ``inv`` and ``power``.
    :param enter, leave: optional ``(x, u) -> x^-1 u`` and ``(x, g) -> x g``
        between public points and the chart (the half-plane's (x, y));
        the group product by default.
    :raises CarrierConstructionError: if delta moves the neutral element.
    """

    group: Any
    enter: Callable[..., Any] | None = None
    leave: Callable[..., Any] | None = None

    def __post_init__(self):
        neutral = np.asarray(self.group.neutral, dtype=float)
        moved = float(np.max(np.abs(self.group.power(1, neutral) - neutral)))
        if not np.isfinite(moved) or moved > 1e-12:
            raise CarrierConstructionError(
                f"delta must fix the neutral element; moved it by {moved:.3e}")

    def _leave(self, x, g):
        return (self.leave or self.group.mul)(x, g)

    def _step(self, k, x, u):
        grp = self.group
        g = grp.mul(grp.inv(x), u) if self.enter is None else self.enter(x, u)
        return grp.power(k, g)

    def star(self, k, x, u):
        return self._leave(x, self._step(k, x, u))

    def difference(self, k, x, u, v):
        grp, s, t = self.group, self._step(k, x, u), self._step(k, x, v)
        return self._leave(x, grp.mul(s, grp.power(-k, grp.mul(grp.inv(s), t))))

    def sum(self, k, x, u, v):
        grp, s = self.group, self._step(k, x, u)
        w = self._step(k, self._leave(x, s), v)
        return self._leave(x, grp.power(-k, grp.mul(s, w)))

    def inverse(self, k, x, u):
        grp, s = self.group, self._step(k, x, u)
        return self._leave(x, grp.mul(s, grp.power(-k, grp.inv(s))))


@dataclass(frozen=True, eq=False)
class Irq:
    """An idempotent right quasigroup carrier.

    :param name: short identifier used in reports.
    :param metric: ``(x, y) -> float array``, distance on the carrier.
    :param sample: ``(seed, count, radius) -> points`` in the metric ball of
        the given radius around ``base``; deterministic in the seed.
    :param base: distinguished point (group neutral, ball center).
    :param star: ``(x, u) -> x * u``, broadcasting over leading axes;
        defaults to the chart's level star at 1.
    :param back: ``(x, u) -> x \\ u``, inverse of ``star`` in u; defaults
        to the chart's level star at -1.
    :param size: cardinality for finite carriers, else None.
    :param epsilon: contraction ratio of ``star(x, .)`` when there is one.
    :param group: optional group structure behind the operations
        (a ``carriers.group.GroupOps``), used by oracles and division.
    :param layer_dims: graded-coordinate layout for carriers with dilations
        (Euclidean: one layer; Carnot: one entry per layer).
    :param divide: optional closed-form right division ``(k, b, a) -> y``
        with ``star_k(y, a) = b``.
    :param point_reflection: optional closed-form reflection oracle
        ``(x, y) -> y reflected through x``, an independent check of the
        limit-based symmetric-space inversion.
    :param reflection_isometry: whether that reflection preserves the
        carrier metric exactly (geodesic symmetry), enabling the isometry
        check in the symmetric-space reports.
    :param chart: optional :class:`Chart` in which star is
        ``x delta(x^-1 u)``: a level then costs one power of delta, not |k|
        steps.  Without it, the level operations iterate and compose as
        the definitions read.
    :raises CarrierConstructionError: when ``star`` or ``back`` is omitted
        and there is no chart to take it from.

    The carrier's dimension, uniformity and exactness follow from the
    fields above (see :attr:`dim`, :attr:`is_uniform`, :attr:`is_exact`),
    and ``level_star``, ``level_difference``, ``level_sum`` and
    ``level_inverse`` are the chart's four methods, None without a chart.

    On a uniform carrier with a chart, the limits hand the level operations
    a block of levels at once: k is then an int array shaped to broadcast
    against the points, with the levels on its leading axis, and the
    operation returns the values along it (see ``GroupOps.power``).

    Carriers compare and hash by identity, as their fields hold arrays.
    """

    name: str
    metric: Callable[..., Any]
    sample: Callable[..., Any]
    base: Any
    star: Callable[..., Any] | None = None
    back: Callable[..., Any] | None = None
    size: int | None = None
    epsilon: float | None = None
    group: Any = None
    layer_dims: tuple[int, ...] | None = None
    divide: Callable[..., Any] | None = None
    point_reflection: Callable[..., Any] | None = None
    reflection_isometry: bool = False
    chart: Chart | None = None
    level_star: Callable[..., Any] | None = field(init=False, repr=False)
    level_difference: Callable[..., Any] | None = field(init=False, repr=False)
    level_sum: Callable[..., Any] | None = field(init=False, repr=False)
    level_inverse: Callable[..., Any] | None = field(init=False, repr=False)

    def __post_init__(self):
        for op in ("star", "difference", "sum", "inverse"):
            chart_op = getattr(self.chart, op, None)  # None without a chart
            object.__setattr__(self, f"level_{op}", chart_op)
        for op, k in (("star", 1), ("back", -1)):
            if getattr(self, op) is None:
                if self.chart is None:
                    raise CarrierConstructionError(
                        f"carrier {self.name!r} needs {op} or a chart")
                object.__setattr__(self, op, partial(self.chart.star, k))

    @property
    def dim(self):
        """Coordinate dimension, the last axis of ``base``; None for a
        labeled finite carrier, whose base is a scalar label."""
        shape = np.shape(self.base)
        return shape[-1] if shape else None

    @property
    def is_uniform(self):
        """Whether ``star(x, .)`` contracts with a ratio ``epsilon``, so the
        iterated operations admit limits and the emergent operations exist."""
        return self.epsilon is not None

    @property
    def is_exact(self):
        """Whether the carrier is finite (it has a ``size``): its operations
        are exact integer arithmetic, so identity checks demand zero
        residual and may enumerate."""
        return self.size is not None


def _require_level(k):
    if not isinstance(k, (int, np.integer)) or isinstance(k, bool):
        raise InvalidExponentError(f"iteration level must be an int, got {k!r}")
    if k == 0:
        raise InvalidExponentError("iteration level 0 is not defined")
    if abs(int(k)) > MAX_ITER_EXPONENT:
        raise InvalidExponentError(
            f"|k| = {abs(int(k))} exceeds the supported cap {MAX_ITER_EXPONENT}")
    return int(k)


def _iterate(op, x, u, times):
    out = u
    for _ in range(times):
        out = op(x, out)
    return out


# The level operations below take k unchecked: a nonzero int, or an int
# array of levels that broadcasts against the points and puts the levels
# on a new leading axis (see _at_levels).

def _star(irq, k, x, u):
    if irq.level_star is not None:
        return irq.level_star(k, x, u)
    return _iterate(irq.star if k > 0 else irq.back, x, u, abs(k))


def _back(irq, k, x, u):
    return _star(irq, -k, x, u)


def _difference(irq, k, x, u, v):
    if irq.level_difference is not None:
        return irq.level_difference(k, x, u, v)
    return _back(irq, k, _star(irq, k, x, u), _star(irq, k, x, v))


def _sum(irq, k, x, u, v):
    if irq.level_sum is not None:
        return irq.level_sum(k, x, u, v)
    return _back(irq, k, x, _star(irq, k, _star(irq, k, x, u), v))


def _inverse(irq, k, x, u):
    if irq.level_inverse is not None:
        return irq.level_inverse(k, x, u)
    return _back(irq, k, _star(irq, k, x, u), x)


def star_k(irq, k, x, u):
    """Level-k star: |k|-fold star for k > 0, |k|-fold back for k < 0,
    in one step when the carrier has a chart."""
    return _star(irq, _require_level(k), x, u)


def back_k(irq, k, x, u):
    """Level-k back, the inverse of ``star_k(x, .)``."""
    return _back(irq, _require_level(k), x, u)


def difference_k(irq, k, x, u, v):
    """Level-k difference of v and u based at x: back_k(x *_k u, x *_k v)."""
    return _difference(irq, _require_level(k), x, u, v)


def sum_k(irq, k, x, u, v):
    """Level-k sum of u and v based at x: back_k(x, (x *_k u) *_k v)."""
    return _sum(irq, _require_level(k), x, u, v)


def inverse_k(irq, k, x, u):
    """Level-k inverse of u based at x: back_k(x *_k u, x)."""
    return _inverse(irq, _require_level(k), x, u)


def _level_power(eps, k):
    """``eps ** k`` at an int level or an array of levels, rounded alike
    however many levels are evaluated together.

    NumPy rounds a scalar power, and one whose exponent it sees as a
    single broadcast value (a 0-d array or a one-level block takes x*x at 2
    and 1/x at -1), apart from the vectorised pow of a 1-D exponent; they
    differ in the last bit for most eps other than powers of two.  So the
    exponent is always flattened to 1-D first.
    """
    k = np.asarray(k)
    return (np.float64(eps) ** k.ravel()).reshape(k.shape)


def _at_levels(irqs, level, ks, *points):
    """``level(k, *points)`` at each level of the 1-D int array ``ks`` of
    consecutive levels, along a new leading axis.

    The carriers in ``irqs`` see the levels as one array shaped
    (B,) + (1,) * ndim, one axis more than the points have, so their
    level operations broadcast the whole block at once.  The bundled charts
    treat each level on its own (the Carnot bracket works row by row), so
    a level rounds as its one-level call does.  A carrier without a chart
    iterates its own star and back, which may judge convergence over their
    whole input; there each level is evaluated on its own at an int k, as
    ``star_k`` and its kin evaluate it.
    """
    _require_level(int(ks[0]))
    _require_level(int(ks[-1]))
    if any(irq.level_star is None for irq in irqs):
        return np.stack([level(int(k), *points) for k in ks])
    ndim = max(np.ndim(p) for p in points)
    return level(np.reshape(ks, (-1,) + (1,) * ndim), *points)


@dataclass(frozen=True)
class AxiomReport:
    """Result of checking one identity over a sample set.

    ``passed`` is ``max_residual <= tolerance``; ``note`` carries optional
    measured context (for example an observed expansion constant).
    """

    identity: str
    samples: int
    max_residual: float
    tolerance: float
    passed: bool = field(default=False)
    note: str = ""

    @staticmethod
    def from_residual(identity, samples, max_residual, tolerance, note=""):
        max_residual = float(max_residual)
        return AxiomReport(identity, int(samples), max_residual,
                           float(tolerance), max_residual <= tolerance, note)

    @staticmethod
    def judge(irq, identity, samples, pairs, tol):
        """Judge an identity by its worst residual over ``(lhs, rhs)`` pairs.

        The residual is the ``np.max`` of ``irq.metric(lhs, rhs)`` over
        every pair, so a NaN anywhere fails the identity.  Exact carriers
        are held to zero residual whatever ``tol`` says.
        """
        worst = np.max([np.max(irq.metric(lhs, rhs)) for lhs, rhs in pairs])
        return AxiomReport.from_residual(
            identity, samples, worst, 0.0 if irq.is_exact else tol)


class _Level:
    """Operations of one irq bound to one iteration level."""

    __slots__ = ("irq", "k")

    def __init__(self, irq, k):
        self.irq = irq
        self.k = k

    def star(self, x, u):
        return star_k(self.irq, self.k, x, u)

    def back(self, x, u):
        return back_k(self.irq, self.k, x, u)

    def dif(self, x, u, v):
        return difference_k(self.irq, self.k, x, u, v)

    def sum(self, x, u, v):
        return sum_k(self.irq, self.k, x, u, v)

    def inv(self, x, u):
        return inverse_k(self.irq, self.k, x, u)


# Each identity maps bound level operations and a point tuple to a list of
# (lhs, rhs) pairs that should coincide.  Arity is the tuple length.
_IDENTITIES = (
    ("P1", 2, lambda o, x, u: [(o.star(x, o.back(x, u)), u),
                               (o.back(x, o.star(x, u)), u)]),
    ("P2", 1, lambda o, x: [(o.star(x, x), x), (o.back(x, x), x)]),
    ("3.4a", 3, lambda o, x, u, v: [(o.dif(x, u, o.sum(x, u, v)), v)]),
    ("3.4b", 3, lambda o, x, u, v: [(o.sum(x, u, o.dif(x, u, v)), v)]),
    ("3.4c", 3, lambda o, x, u, v: [
        (o.dif(x, u, v), o.sum(o.star(x, u), o.inv(x, u), v))]),
    ("3.4d", 2, lambda o, x, u: [(o.inv(o.star(x, u), o.inv(x, u)), u)]),
    ("3.4e", 4, lambda o, x, u, v, w: [
        (o.sum(x, u, o.sum(o.star(x, u), v, w)), o.sum(x, o.sum(x, u, v), w))]),
    ("3.4f", 2, lambda o, x, u: [(o.inv(x, u), o.dif(x, u, x))]),
    ("3.4g", 2, lambda o, x, u: [(o.sum(x, x, u), u)]),
    ("3.5h", 2, lambda o, x, u: [(o.dif(x, u, u), o.star(x, u))]),
    ("3.5i", 2, lambda o, x, u: [(o.dif(x, x, u), u)]),
    ("3.5j", 4, lambda o, x, u, v, w: [
        (o.dif(o.dif(x, u, u), o.dif(x, u, v), o.dif(x, u, w)),
         o.dif(x, v, w))]),
)


def identity_names():
    """Names of all checked identities, in report order."""
    return [name for name, _, _ in _IDENTITIES] + ["3.5k"]


def sample_tuples(irq, seed, count, radius, arity):
    """Point batches for a check: ``arity`` arrays with one tuple per row.

    A small exact carrier (``size ** arity <= 20000``) yields every tuple of
    labels; any other carrier splits one ``irq.sample(seed, arity * count,
    radius)`` draw into ``arity`` batches of ``count`` points.
    """
    if irq.is_exact and irq.size ** arity <= 20000:
        grids = np.meshgrid(*([np.arange(irq.size)] * arity), indexing="ij")
        return [g.reshape(-1) for g in grids]
    pts = irq.sample(seed, arity * count, radius)
    return [pts[i * count:(i + 1) * count] for i in range(arity)]


def check_irq_axioms(irq, seed=0, count=250, radius=2.0, tol=1e-9,
                     levels=DEFAULT_LEVELS):
    """Check every level-k irq identity on sampled (or enumerated) tuples.

    Levels run over ``levels`` for the single-level identities and over all
    ordered pairs from ``levels`` for the two-level identity 3.5k.  Exact
    carriers are held to zero residual and are enumerated exhaustively when
    the tuple space is small; float carriers use ``count`` seeded tuples per
    identity.

    :returns: one :class:`AxiomReport` per identity, in declaration order.
    """
    for k in levels:
        _require_level(k)
    reports = []
    for name, arity, fn in _IDENTITIES:
        pts = sample_tuples(irq, seed, count, radius, arity)
        pairs = (pair for k in levels for pair in fn(_Level(irq, k), *pts))
        reports.append(AxiomReport.judge(irq, name, np.shape(pts[0])[0],
                                         pairs, tol))

    # 3.5k, the two-level grid identity.  Iterated operations at a common
    # basepoint compose additively, star_p(x, star_q(x, u)) = star_{p+q}(x, u),
    # so the compound level is p + q; pairs with p + q = 0 would need the
    # trivial level-0 operation and are skipped.
    x, u, v = sample_tuples(irq, seed, count, radius, 3)

    def grid_pair(p, q):
        lhs = difference_k(irq, p, x, star_k(irq, q, x, u),
                           star_k(irq, q, x, v))
        rhs = star_k(irq, q, star_k(irq, p + q, x, u),
                     difference_k(irq, p + q, x, u, v))
        return lhs, rhs

    reports.append(AxiomReport.judge(
        irq, "3.5k", np.shape(x)[0],
        (grid_pair(p, q) for p, q in itertools.product(levels, levels)
         if p + q != 0), tol))
    return reports
