"""The block-evaluated limit engine against a one-level-at-a-time loop.

``limits.limit`` evaluates a limit's levels in stacked blocks and scans
their Cauchy steps level by level.  Every result must be the one the plain
loop below gives, evaluating one level per iteration through the public
level operations: the same value bytes, stop level, trail and rate, or the
same error with the same message and trail.  Under
``LimitConfig.extrapolate`` the plain loop's level k is the Richardson
value of the public levels k and k + 1.
"""

import dataclasses
import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emergent_irq import calculus, core, limits
from emergent_irq.calculus import MapBetweenCarriers, derivative
from emergent_irq.carriers import (GradedLieAlgebra, make_carnot,
                                   make_dihedral_quandle, make_engel,
                                   make_euclidean, make_group_irq,
                                   make_heisenberg, make_hyperbolic,
                                   make_perturbed_plane)
from emergent_irq.carriers.group import _additive_group
from emergent_irq.core import back_k, difference_k, inverse_k, star_k, sum_k
from emergent_irq.errors import (EmergentAlgebraError, InvalidPointError,
                                 NonConvergenceError)
from emergent_irq.limits import (ConvergenceReport, LimitConfig,
                                 emergent_difference, emergent_inverse,
                                 emergent_sum)


def _one_level_limit(irq, value_at, cfg, what):
    # The limit loop as it reads with one level per iteration.
    if cfg.extrapolate and irq.group is not None and irq.is_uniform:
        raw, eps = value_at, float(irq.epsilon)

        def value_at(k):
            low = raw(k)
            return (raw(k + 1) - eps * low) / (1.0 - eps)

    def at(k):
        try:
            return value_at(k)
        except InvalidPointError as err:
            raise InvalidPointError(
                f"{what} on {irq.name!r} at level {k}: {err}") from err

    window = cfg.cauchy_window
    prev = at(1)
    trail = []
    floor, floor_k = math.inf, 0
    for k in range(2, cfg.max_k + 1):
        cur = at(k)
        step = float(np.max(irq.metric(prev, cur)))
        trail.append(step)
        if len(trail) >= window and all(r <= cfg.tol for r in trail[-window:]):
            return cur, ConvergenceReport(True, k, tuple(trail),
                                          limits._estimate_rate(trail))
        if step < floor:
            floor, floor_k = step, k
        if step > 1e3 * max(floor, cfg.tol):
            if floor > cfg.tol:
                how = (f"1000-fold by level {k}; either no limit exists "
                       f"here or tol {cfg.tol:.1e} is below the carrier's "
                       f"numerical floor")
            else:
                how = (f"1000-fold past tol {cfg.tol:.1e} by level {k}, "
                       f"before the Cauchy window closed")
            raise NonConvergenceError(
                f"{what} on {irq.name!r}: residual trail bottomed out "
                f"near {floor:.3e} at level {floor_k} and regrew {how}",
                trail)
        prev = cur
    raise NonConvergenceError(
        f"{what} on {irq.name!r} did not settle within max_k={cfg.max_k} "
        f"(last residual {trail[-1]:.3e}, tol {cfg.tol:.1e})", trail)


def _reference(irq, name, points, cfg, fn=None):
    x, u, v = points
    if name == "derivative":
        fx = fn(x)
        return _one_level_limit(
            irq, lambda k: back_k(irq, k, fx, fn(star_k(irq, k, x, u))), cfg,
            f"derivative of {fn.__name__!r}")
    level = {"emergent_sum": lambda k: sum_k(irq, k, x, u, v),
             "emergent_difference": lambda k: difference_k(irq, k, x, u, v),
             "emergent_inverse": lambda k: inverse_k(irq, k, x, u)}[name]
    return _one_level_limit(irq, level, cfg, name)


def _stacked(irq, name, points, cfg, fn=None):
    x, u, v = points
    if name == "derivative":
        return derivative(MapBetweenCarriers(irq, irq, fn, name=fn.__name__),
                          x, u, cfg)
    if name == "emergent_inverse":
        return emergent_inverse(irq, x, u, cfg)
    op = {"emergent_sum": emergent_sum,
          "emergent_difference": emergent_difference}[name]
    return op(irq, x, u, v, cfg)


def _outcome(call):
    try:
        value, rep = call()
    except EmergentAlgebraError as err:
        return ("error", type(err).__name__, str(err),
                tuple(getattr(err, "trail", ())))
    value = np.asarray(value)
    return (value.shape, value.tobytes(), rep.converged, rep.stop_k,
            rep.residual_trail, repr(rep.estimated_rate))


def _assert_same(irq, name, points, cfg, fn=None):
    want = _outcome(lambda: _reference(irq, name, points, cfg, fn))
    got = _outcome(lambda: _stacked(irq, name, points, cfg, fn))
    assert got == want, (irq.name, name)
    return got


def _filiform4():
    return make_carnot(GradedLieAlgebra.from_brackets(
        (2, 1, 1, 1), [(0, 1, {2: 1.0}), (0, 2, {3: 1.0}), (0, 3, {4: 1.0})]),
        0.5)


def _general_step2():
    # Brackets with several terms and non-unit coefficients: unlike the
    # bundled algebras, each bracket coordinate is a sum whose rounding
    # depends on the order a matrix product adds its terms in.
    return make_carnot(GradedLieAlgebra.from_brackets((3, 2), [
        (0, 1, {3: 0.3, 4: 1.7}), (0, 2, {3: -0.9, 4: 0.4}),
        (1, 2, {3: 1.1, 4: 0.6})]), 0.5, name="step2-general")


def _iterated_plane():
    # A group carrier without a closed-form power whose delta and inverse
    # act elementwise: its blocks run as one chain of plain delta steps.
    return make_group_irq(_additive_group(2, is_morphism=True),
                          lambda g: 0.5 * np.asarray(g, dtype=float),
                          lambda g: 2.0 * np.asarray(g, dtype=float),
                          name="iterated", epsilon=0.5)


# Every bundled uniform carrier, one more Carnot algebra and one iterated
# group carrier: (carrier, radius, limit tolerance).  The perturbed plane's
# trails bottom out near 1e-9.
UNIFORM = (
    (make_euclidean(3, 0.5), 2.0, 1e-10),
    (make_heisenberg(0.5), 2.0, 1e-10),
    (make_engel(0.5), 2.0, 1e-10),
    (_filiform4(), 2.0, 1e-10),
    (_general_step2(), 2.0, 1e-10),
    (make_hyperbolic(0.5), 0.5, 1e-6),
    (make_perturbed_plane(0.5, 0.1), 2.0, 1e-8),
    (_iterated_plane(), 2.0, 1e-10),
)
OPS = ("emergent_sum", "emergent_difference", "emergent_inverse")


def _maps(irq):
    # The identity and delta; on the hyperbolic plane, which exposes no
    # group, the contraction at the base point stands in for delta.
    def identity(p):
        return p

    def contraction(p):
        return irq.star(irq.base, p)

    return identity, irq.group.delta if irq.group is not None else contraction


@pytest.mark.parametrize("irq,radius,tol", UNIFORM,
                         ids=[irq.name for irq, _, _ in UNIFORM])
@pytest.mark.parametrize("batch", [None, 6], ids=["point", "batch"])
def test_stacked_limits_match_one_level_loop(irq, radius, tol, batch):
    cfg = LimitConfig(tol=tol)
    for seed in range(2):
        if batch is None:
            points = tuple(irq.sample(seed, 3, radius))
        else:
            pts = irq.sample(seed, 3 * batch, radius)
            points = (pts[:batch], pts[batch:2 * batch], pts[2 * batch:])
        for name in OPS:
            _assert_same(irq, name, points, cfg)
        for fn in _maps(irq):
            _assert_same(irq, "derivative", points, cfg, fn)


# Away from eps = 0.5, u / eps and eps^-1 * u differ in the last bit.
LEVEL_STAR_CARRIERS = [irq for irq, _, _ in UNIFORM
                       if irq.level_star is not None] + [
    make_hyperbolic(0.7, name="hyperbolic-0.7")]


@pytest.mark.parametrize("irq", LEVEL_STAR_CARRIERS,
                         ids=[irq.name for irq in LEVEL_STAR_CARRIERS])
def test_group_star_and_back_are_the_level_star(irq):
    # Star and back are the level star at 1 and -1 on the group carriers
    # and on the hyperbolic plane: on the former GroupOps.power is then the
    # only caller of the inverse dilation, and the hyperbolic back scales
    # by eps^-1 as every other level does.
    pts = irq.sample(5, 14, 2.0)
    for x, u in ((pts[:7], pts[7:]), (pts[0], pts[1]), (pts[0], pts[7:])):
        assert irq.star(x, u).tobytes() == star_k(irq, 1, x, u).tobytes()
        assert irq.back(x, u).tobytes() == star_k(irq, -1, x, u).tobytes()


def test_derivative_at_one_basepoint_of_a_batch():
    # The CLI's shape: one basepoint, a batch of directions.
    heis = make_heisenberg(0.5)
    u = heis.sample(4, 5, 2.0)
    got = _assert_same(heis, "derivative", (heis.base, u, None),
                       LimitConfig(tol=1e-10), heis.group.delta)
    assert got[0] == u.shape


def test_carrier_without_level_hooks_matches():
    # Without a chart every level iterates star or back |k| times, one
    # level per block.  The composed difference's trail dips to 8.6e-11 at
    # level 34 and regrows past 1 as back_k amplifies rounding by 2^k: the
    # window never closed, so the rebound guard must raise rather than let
    # the window close later on saturated iterates, about 0.95 from
    # x - u + v.  Extrapolated, one step is exact on this linear carrier
    # and every limit settles at level 4.
    eu = dataclasses.replace(make_euclidean(2, 0.5), chart=None)
    points = tuple(eu.sample(1, 3, 1.0))
    for name in OPS:
        got = _assert_same(eu, name, points, LimitConfig(tol=1e-9))
        if name == "emergent_difference":
            assert got[:2] == ("error", "NonConvergenceError")
            # The trail bottomed out below tol, so the message names the
            # regrowth past tol, not a floor above it.
            assert "at level 34 and regrew 1000-fold past tol 1.0e-09" \
                in got[2]
            assert "numerical floor" not in got[2]
        got = _assert_same(eu, name, points,
                           LimitConfig(tol=1e-9, extrapolate=True))
        assert got[3] == 4


def test_error_paths_match():
    # At radius 2 the default tolerance, 1e-11, lies below what the
    # perturbed plane's limits reach, so they fail: their trails bottom out
    # (between 2e-13 and 6e-10 here) and regrow.
    pert = make_perturbed_plane(0.5, 0.1)
    errors = set()
    for seed in range(3):
        points = tuple(pert.sample(seed, 3, 2.0))
        for name in ("emergent_sum", "emergent_difference"):
            got = _assert_same(pert, name, points, LimitConfig())
            assert got[0] == "error"
            errors.add(got[1])

    # back_k doubles the distance from the base point at every level, so
    # the point above it runs off to y = inf: level 9's step is nan, which
    # the rebound guard cannot judge, and level 10 leaves the half-plane.
    # The first block (levels 1 .. window + 1) holds that level, so it is
    # re-run one level at a time and the error names level 10.
    hyp = make_hyperbolic(0.5)
    u = np.array([0.0, 3.0])
    cfg = LimitConfig(tol=1e-6, cauchy_window=10, max_k=30)
    what = "expansion"
    with np.errstate(all="ignore"):
        want = _outcome(lambda: _one_level_limit(
            hyp, lambda k: back_k(hyp, k, hyp.base, u), cfg, what))
        got = _outcome(lambda: limits.limit(
            hyp, lambda ks: core._at_levels((hyp,), partial(core._back, hyp),
                                            ks, hyp.base, u), cfg, what))
    assert got == want
    errors.add(got[1])
    # The carrier's message, prefixed with the limit, the carrier and the
    # level.
    assert got[2] == ("expansion on 'hyperbolic' at level 10: point has "
                      "non-finite coordinates")
    assert errors == {"NonConvergenceError", "InvalidPointError"}

    heis = make_heisenberg(0.5)
    points = tuple(heis.sample(0, 3, 2.0))
    got = _assert_same(heis, "emergent_inverse", points,
                       LimitConfig(tol=1e-11, max_k=6))
    assert got[0] == "error" and "max_k=6" in got[2]


def test_newton_failure_inside_a_block_matches():
    # delta^-k doubles a point near 1e306 until level 8 leaves the float
    # range, where the perturbed plane's Newton inverse cannot converge.
    # The first block (levels 1 .. window + 1) holds that level, so the
    # stacked solve fails and the loop goes on one level at a time; the
    # error is the one-level one, message and trail alike.
    pert = make_perturbed_plane(0.5, 0.1)
    u = np.array([[1e306, -3e305], [0.5, 0.2]])
    what = "expansion"
    with np.errstate(all="ignore"), pytest.raises(NonConvergenceError):
        pert.group.power(np.arange(-1, -12, -1).reshape(-1, 1, 1, 1), u)
    # Levels requested per value_at call: the failing first block, then one
    # level at a time up to the level that fails (raw level 8).
    # Extrapolated, the first block asks for one raw level more, one-level
    # mode starts with raw levels 1 and 2, and level 7 already needs raw
    # level 8.
    for extrapolate, requested_want in ((False, [11] + [1] * 8),
                                        (True, [12, 2] + [1] * 6)):
        cfg = LimitConfig(tol=1e-8, cauchy_window=10, max_k=30,
                          extrapolate=extrapolate)
        requested = []

        def value_at(ks):
            requested.append(len(ks))
            return core._at_levels((pert,), partial(core._back, pert), ks,
                                   pert.base, u)

        with np.errstate(all="ignore"):
            want = _outcome(lambda: _one_level_limit(
                pert, lambda k: back_k(pert, k, pert.base, u), cfg, what))
            got = _outcome(lambda: limits.limit(pert, value_at, cfg, what))
        assert got == want
        assert got[:2] == ("error", "NonConvergenceError")
        assert got[2].startswith("inverse dilation on 'perturbed': Newton "
                                 "step")
        assert requested == requested_want


def test_failing_limit_stops_requesting_levels_where_it_raises():
    # A raw difference limit on the perturbed plane at tol 2.5e-9:
    # dif(x, u, v) bottoms out near 3.48e-9 at level 40, above tol, and
    # raises at level 59.  A dip while the trail regrows is no new low, so
    # the loop must not extrapolate from it to levels far past that.
    pert = make_perturbed_plane()
    x, u, v = core.sample_tuples(pert, 0, 100, 2.0, 3)
    cfg = LimitConfig(tol=2.5e-9)
    requested = []

    def stacked():
        def value_at(ks):
            requested.extend(int(k) for k in ks)
            return core._at_levels((pert,), partial(core._difference, pert),
                                   ks, x, u, v)
        return limits.limit(pert, value_at, cfg, "emergent_difference")

    want = _outcome(lambda: _reference(pert, "emergent_difference",
                                       (x, u, v), cfg))
    got = _outcome(stacked)
    assert got == want
    assert got[:2] == ("error", "NonConvergenceError")
    assert "bottomed out near 3.475e-09 at level 40 and regrew 1000-fold " \
        "by level 59" in got[2]
    assert max(requested) <= 59 + cfg.cauchy_window + 1


def test_shared_input_block_matches_one_level_powers():
    # A block of levels applied to a g without a level axis runs one chain
    # of delta (or its Newton inverse) steps; each level must be the
    # int-level power bit for bit, a non-finite row included.
    pert = make_perturbed_plane()
    g = pert.sample(3, 5, 2.0)
    g[2] = np.nan
    for a in (1, 17):
        for sign in (1, -1):
            ks = sign * np.arange(a, a + 8)
            block = pert.group.power(ks[:, None, None], g)
            for i, k in enumerate(ks):
                assert np.array_equal(block[i], pert.group.power(int(k), g),
                                      equal_nan=True), k


@pytest.mark.parametrize("irq,radius,tol", UNIFORM,
                         ids=[irq.name for irq, _, _ in UNIFORM])
def test_extrapolated_limits_match_one_level_loop(irq, radius, tol):
    cfg = LimitConfig(tol=tol, extrapolate=True)
    pts = irq.sample(0, 18, radius)
    for points in (tuple(pts[:3]), (pts[:6], pts[6:12], pts[12:])):
        for name in OPS:
            _assert_same(irq, name, points, cfg)
        for fn in _maps(irq):
            _assert_same(irq, "derivative", points, cfg, fn)


def test_extrapolated_blocks_request_each_raw_level_once():
    # Level k needs raw levels k and k + 1; a block reuses the raw level
    # its predecessor ended on, so the raw levels requested are 1, 2, ...
    # without repeats, and a limit that runs out of levels has asked for
    # raw level max_k + 1 and none above it.
    heis = make_heisenberg(0.5)
    x, u, v = heis.sample(0, 3, 2.0)
    requested = []

    def value_at(ks):
        requested.extend(int(k) for k in ks)
        return core._at_levels((heis,), partial(core._sum, heis), ks, x, u, v)

    cfg = LimitConfig(tol=1e-10, extrapolate=True)
    _, rep = limits.limit(heis, value_at, cfg, "emergent_sum")
    assert requested == list(range(1, len(requested) + 1))
    assert rep.stop_k + 1 <= len(requested) <= 2 * rep.stop_k + 1
    requested.clear()
    with pytest.raises(NonConvergenceError, match="max_k=12"):
        limits.limit(heis, value_at, dataclasses.replace(cfg, max_k=12),
                     "emergent_sum")
    assert requested == list(range(1, 14))


def test_extrapolate_leaves_carriers_without_a_group_raw():
    # The hyperbolic plane and the dihedral quandle expose no group to
    # extrapolate in, so the field changes no bit of their limits.
    hyp = make_hyperbolic(0.5)
    for seed in range(2):
        points = tuple(hyp.sample(seed, 3, 0.5))
        for name in OPS:
            raw = _outcome(lambda: _stacked(hyp, name, points,
                                            LimitConfig(tol=1e-6)))
            assert raw[2] is True
            assert _outcome(lambda: _stacked(
                hyp, name, points,
                LimitConfig(tol=1e-6, extrapolate=True))) == raw

    dih = make_dihedral_quandle(7)
    x, u, v = dih.sample(0, 3, 1.0)
    for points, stop in (((x, x, x), True), ((x, u, v), False)):
        def parity(cfg):
            return limits.limit(dih, lambda ks: np.stack(
                [sum_k(dih, int(k), *points) for k in ks]), cfg, "parity")
        raw = _outcome(lambda: parity(LimitConfig(max_k=8)))
        assert (raw[0] != "error") is stop
        assert _outcome(lambda: parity(
            LimitConfig(max_k=8, extrapolate=True))) == raw


@pytest.fixture
def levels_requested(monkeypatch):
    # Counts the levels every limit asks the level evaluator for.
    count = [0]

    def counting(irqs, level, ks, *points):
        count[0] += len(ks)
        return core._at_levels(irqs, level, ks, *points)

    monkeypatch.setattr(limits, "_at_levels", counting)
    monkeypatch.setattr(calculus, "_at_levels", counting)
    return count


@pytest.mark.parametrize("irq,radius,tol", UNIFORM,
                         ids=[irq.name for irq, _, _ in UNIFORM])
def test_blocks_evaluate_at_most_twice_the_stop_level(irq, radius, tol,
                                                      levels_requested):
    cfg = LimitConfig(tol=tol)
    for seed in range(3):
        x, u, v = irq.sample(seed, 3, radius)
        for name, call in (
                ("sum", lambda: emergent_sum(irq, x, u, v, cfg)),
                ("inverse", lambda: emergent_inverse(irq, x, u, cfg)),
                ("derivative", lambda: derivative(
                    MapBetweenCarriers(irq, irq, _maps(irq)[0]), x, u, cfg))):
            levels_requested[0] = 0
            _, rep = call()
            assert levels_requested[0] <= 2 * rep.stop_k, (name, seed)


@pytest.mark.parametrize("irq,radius", [(make_euclidean(2, 0.7), 2.0),
                                       (make_hyperbolic(0.7), 0.5)],
                         ids=["euclidean", "hyperbolic"])
def test_powers_round_alike_at_every_block_size(irq, radius):
    # Away from eps = 0.5, eps^k as a scalar power, a one-level block and a
    # longer block can round differently; level k must not depend on which.
    for seed in range(3):
        points = tuple(irq.sample(seed, 3, radius))
        for name in OPS:
            _assert_same(irq, name, points, LimitConfig(tol=1e-9))
        x, u, _ = points
        for k in (-1, 1, 2, 3):
            one_level = core._at_levels((irq,), partial(core._star, irq),
                                        np.array([k]), x, u)
            assert np.array_equal(one_level[0], star_k(irq, k, x, u))


@settings(max_examples=20, deadline=None)
@given(eps=st.floats(0.05, 0.95), seed=st.integers(0, 2**16))
def test_heisenberg_any_epsilon_matches(eps, seed):
    heis = make_heisenberg(eps)
    points = tuple(heis.sample(seed, 3, 2.0))
    for name in ("emergent_sum", "emergent_inverse"):
        _assert_same(heis, name, points, LimitConfig(tol=1e-9))
