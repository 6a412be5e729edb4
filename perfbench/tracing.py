"""Per-layer tracing: rebinds the package's functions to timing and counting
wrappers, from outside the package.

Spans nest.  A span's self time is its duration minus the time covered by
the spans it encloses, so time spent in unwrapped code is charged to the
nearest wrapped caller.  A function imported by name is rebound in every
package module that holds it (``limits.sum_k``, ``division.star_k``,
``cli.check_irq_axioms``, ...).  Carrier primitives are closures; they are
reached through the class attributes and factory arguments resolved when a
carrier is built (``GradedLieAlgebra.bracket``, ``GroupOps.power``, the
group product and inverse dilation handed to ``make_group_irq``, the
``hyperbolic`` exp/log maps, and the metric and closed-form division of
every carrier ``build_carrier`` returns).  Carriers built before
:meth:`Tracer.install` therefore stay untraced.
"""

from __future__ import annotations

import dataclasses
import sys
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

# Spans reported with their call count and self time.
SPANS = ("carriers.bracket", "carriers.group_mul", "carriers.delta_inv",
         "carriers.delta_power", "carriers.exp_log", "carriers.metric",
         "core.iterate", "core.level_op", "core.axioms", "limits.limit",
         "limits.distributive", "limits.reconstruct", "division.divide",
         "division.closed_form", "division.truncated_product",
         "division.fixed_point", "division.loos", "division.involution",
         "calculus.derivative", "calculus.morphism", "cli.render")


def _ratio(num, den):
    return num / den if den else 0.0


class Tracer:
    """Span timings and counters for one traced pass at a time."""

    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.counts = Counter()
        self.missing = []
        self._stack = []
        self._undo = []

    def reset(self):
        for table in (self.calls, self.self_s, self.total_s, self.counts):
            table.clear()

    def span(self, name, fn):
        """Wrap ``fn`` so each call is timed as one span called ``name``."""
        calls, self_s, total_s = self.calls, self.self_s, self.total_s
        stack = self._stack

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                inner = stack.pop()
                calls[name] += 1
                total_s[name] += elapsed
                self_s[name] += elapsed - inner
                if stack:
                    stack[-1] += elapsed

        return traced

    def counted_calls(self):
        """Every count that must repeat exactly on equal inputs."""
        return {**{f"{k}.calls": v for k, v in self.calls.items()},
                **self.counts}

    def layer_metrics(self):
        calls, counts, total = self.calls, self.counts, self.total_s
        out = {}
        for name in SPANS:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
        out["carriers.bracket.rows_per_call"] = _ratio(
            counts["carriers.bracket.rows"], calls["carriers.bracket"])
        out["carriers.delta_inv.us_per_call"] = 1e6 * _ratio(
            self.self_s["carriers.delta_inv"], calls["carriers.delta_inv"])
        out["core.iterate.steps"] = counts["core.iterate.steps"]
        out["core.level_op.mean_k"] = _ratio(counts["core.level_op.k"],
                                             calls["core.level_op"])
        out["core.level_op.stable_frac"] = _ratio(
            counts["core.level_op.stable"], calls["core.level_op"])
        levels = counts["limits.limit.levels"]
        out["limits.limit.levels"] = levels
        out["limits.limit.mean_stop_k"] = _ratio(levels, calls["limits.limit"])
        out["limits.limit.us_per_level"] = 1e6 * _ratio(
            total["limits.limit"], levels)
        out["limits.limit.converged_frac"] = _ratio(
            counts["limits.limit.converged"], calls["limits.limit"])
        out["division.divide.failed"] = counts["division.divide.failed"]
        out["calculus.derivative.levels"] = counts["calculus.derivative.levels"]
        return out

    # -- installation -----------------------------------------------------

    def _rebind(self, module, name, make):
        """Replace ``module.name`` by ``make(original)`` wherever the package
        holds that object."""
        orig = getattr(module, name, None)
        if orig is None:
            self.missing.append(f"{module.__name__}.{name}")
            return
        new = make(orig)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "emergent_irq" and not mod_name.startswith("emergent_irq."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, new)
                    self._undo.append((mod, attr, orig))

    def _set_method(self, cls, name, make):
        orig = cls.__dict__.get(name)
        if orig is None:
            self.missing.append(f"{cls.__qualname__}.{name}")
            return
        setattr(cls, name, make(orig))
        self._undo.append((cls, name, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def install(self):
        from emergent_irq import calculus, carriers, cli, core, division, limits
        from emergent_irq.carriers import carnot, group, hyperbolic
        from emergent_irq.errors import NonConvergenceError

        counts = self.counts
        span = self.span

        def bracket(orig):
            timed = span("carriers.bracket", orig)

            def wrapper(algebra, x, y):
                counts["carriers.bracket.rows"] += int(np.prod(
                    np.broadcast_shapes(np.shape(x)[:-1], np.shape(y)[:-1])))
                return timed(algebra, x, y)
            return wrapper

        def make_group_irq(orig):
            def wrapper(grp, delta, delta_inverse, **kwargs):
                grp = dataclasses.replace(
                    grp, mul=span("carriers.group_mul", grp.mul))
                return orig(grp, delta,
                            span("carriers.delta_inv", delta_inverse), **kwargs)
            return wrapper

        def build_carrier(orig):
            def wrapper(name, params=None):
                irq = orig(name, params)
                changes = {"metric": span("carriers.metric", irq.metric)}
                if irq.divide is not None:
                    changes["divide"] = span("division.closed_form", irq.divide)
                return dataclasses.replace(irq, **changes)
            return wrapper

        def iterate(orig):
            timed = span("core.iterate", orig)

            def wrapper(irq, k, x, u):
                counts["core.iterate.steps"] += abs(int(k))
                return timed(irq, k, x, u)
            return wrapper

        def level_op(evaluator):
            def make(orig):
                timed = span("core.level_op", orig)

                def wrapper(irq, k, *points):
                    counts["core.level_op.k"] += abs(int(k))
                    if getattr(irq, evaluator) is not None:
                        counts["core.level_op.stable"] += 1
                    return timed(irq, k, *points)
                return wrapper
            return make

        def limit(orig):
            timed = span("limits.limit", orig)

            def wrapper(irq, value_at, cfg, what):
                def counted(k):
                    counts["limits.limit.levels"] += 1
                    return value_at(k)
                out = timed(irq, counted, cfg, what)
                counts["limits.limit.converged"] += 1
                return out
            return wrapper

        def reconstruct(orig):
            timed = span("limits.reconstruct", orig)

            def wrapper(*args, **kwargs):
                rec = timed(*args, **kwargs)
                return dataclasses.replace(rec, **{
                    f: span("limits.reconstruct", getattr(rec, f))
                    for f in ("product", "inverse", "star", "back")})
            return wrapper

        def divide(orig):
            timed = span("division.divide", orig)

            def wrapper(*args, **kwargs):
                try:
                    return timed(*args, **kwargs)
                except NonConvergenceError:
                    counts["division.divide.failed"] += 1
                    raise
            return wrapper

        def derivative(orig):
            timed = span("calculus.derivative", orig)

            def wrapper(*args, **kwargs):
                before = counts["limits.limit.levels"]
                try:
                    return timed(*args, **kwargs)
                finally:
                    counts["calculus.derivative.levels"] += (
                        counts["limits.limit.levels"] - before)
            return wrapper

        def plain(name):
            return lambda orig: span(name, orig)

        self._set_method(carnot.GradedLieAlgebra, "bracket", bracket)
        self._set_method(group.GroupOps, "power", plain("carriers.delta_power"))
        self._rebind(group, "make_group_irq", make_group_irq)
        self._rebind(carriers, "build_carrier", build_carrier)
        self._rebind(hyperbolic, "exp_map", plain("carriers.exp_log"))
        self._rebind(hyperbolic, "log_map", plain("carriers.exp_log"))

        self._rebind(core, "star_k", iterate)
        self._rebind(core, "back_k", iterate)
        self._rebind(core, "difference_k", level_op("level_difference"))
        self._rebind(core, "sum_k", level_op("level_sum"))
        self._rebind(core, "inverse_k", level_op("level_inverse"))
        self._rebind(core, "check_irq_axioms", plain("core.axioms"))

        self._rebind(limits, "_limit", limit)
        self._rebind(limits, "check_distributive", plain("limits.distributive"))
        self._rebind(limits, "reconstruct_group", reconstruct)

        self._rebind(division, "right_divide_k", divide)
        self._rebind(division, "_truncated_product",
                     plain("division.truncated_product"))
        self._rebind(division, "_fixed_point", plain("division.fixed_point"))
        self._rebind(division, "check_loos_axioms", plain("division.loos"))
        self._rebind(division, "check_involution", plain("division.involution"))

        self._rebind(calculus, "derivative", derivative)
        self._rebind(calculus, "check_derivative_morphism",
                     plain("calculus.morphism"))
        self._rebind(cli, "render", plain("cli.render"))
