"""Right division, loop isotopes, and the symmetric-space layer."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from emergent_irq.carriers import (GradedLieAlgebra, build_carrier,
                                   carrier_registry, engel_algebra,
                                   heisenberg_algebra, make_carnot,
                                   make_dihedral_quandle, make_engel,
                                   make_euclidean, make_group_irq,
                                   make_heisenberg, make_hyperbolic,
                                   make_perturbed_plane, reflect)
from emergent_irq.carriers.group import _additive_group
from emergent_irq.core import inverse_k, star_k
from emergent_irq.division import (DivisionMethod, _fixed_point,
                                   check_involution,
                                   check_loos_axioms,
                                   default_division_method,
                                   loop_isotope_k, loos_identity_names,
                                   right_divide_k, t_map, underline_inv_k)
from emergent_irq.errors import (InvalidExponentError, NonConvergenceError,
                                 UnsupportedCarrierError)
from emergent_irq.limits import LimitConfig, emergent_inverse, emergent_sum
from test_carriers import _random_step2


def test_division_method_validation():
    m = DivisionMethod("fixed_point")
    assert m.max_terms is None and m.tol == 1e-10
    with pytest.raises(UnsupportedCarrierError):
        DivisionMethod("newton")
    with pytest.raises(ValueError):
        DivisionMethod("fixed_point", max_terms=0)
    with pytest.raises(ValueError):
        DivisionMethod("fixed_point", tol=0.0)


def _bare_carrier():
    # A group carrier with no divide and no epsilon, so not uniform.
    return make_group_irq(_additive_group(1),
                          lambda g: 0.5 * np.asarray(g, dtype=float),
                          lambda g: 2.0 * np.asarray(g, dtype=float),
                          name="bare")


def _truncated_product(irq, k, b, a, terms=200):
    # Oracle for morphism carriers: b /_k a is the convergent product
    # b delta^k(h) delta^2k(h) ... with h = a^-1 b, and b /_k a = a /_-k b.
    if k < 0:
        return _truncated_product(irq, -k, a, b, terms)
    g = irq.group
    h = g.mul(g.inv(a), b)
    y = b
    for p in range(1, terms + 1):
        y = g.mul(y, g.power(k * p, h))
    return y


def _filiform():
    # The step-4 filiform algebra, [e0, e_i] = e_(i+1).
    return GradedLieAlgebra.from_brackets(
        (2, 1, 1, 1), [(0, 1, {2: 1.0}), (0, 2, {3: 1.0}), (0, 3, {4: 1.0})])


def _bundled_carriers():
    # Every registered carrier at its defaults; the generic Carnot one on
    # the step-4 filiform algebra.
    return [make_carnot(_filiform(), 0.5) if name == "carnot"
            else build_carrier(name) for name in carrier_registry()]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("k", [0, 2.0, True], ids=["zero", "float", "bool"])
def test_division_rejects_a_bad_level_before_solving(k):
    # A level that is not a nonzero int raises before any solve runs: no
    # carrier warns, divides by zero or iterates first.
    for irq in _bundled_carriers():
        x, u, v = irq.sample(0, 3, 0.5)
        for call in (lambda: right_divide_k(irq, k, u, x),
                     lambda: loop_isotope_k(irq, k, x, u, v),
                     lambda: underline_inv_k(irq, k, u, v)):
            with pytest.raises(InvalidExponentError):
                call()


def test_default_division_method():
    assert default_division_method(make_euclidean(1, 0.5)).kind == "closed_form"
    assert default_division_method(make_dihedral_quandle(5)).kind == "closed_form"
    # Every Carnot carrier solves by graded back-substitution.
    for irq in (make_heisenberg(0.5), make_engel(0.5),
                make_carnot(_filiform(), 0.5)):
        assert default_division_method(irq).kind == "closed_form", irq.name
    assert default_division_method(make_perturbed_plane(0.5, 0.1)).kind == "fixed_point"
    # No divide and not uniform: nothing applies.
    with pytest.raises(UnsupportedCarrierError):
        default_division_method(_bare_carrier())


def test_euclidean_division_all_methods_agree():
    eu = make_euclidean(2, 0.5)
    rng = np.random.default_rng(1)
    a = rng.uniform(-2, 2, size=(15, 2))
    b = rng.uniform(-2, 2, size=(15, 2))
    for k in (-2, -1, 1, 2, 3):
        closed = right_divide_k(eu, k, b, a)
        assert float(np.max(eu.metric(star_k(eu, k, closed, a), b))) <= 1e-10
        for kind in ("fixed_point",):
            got = right_divide_k(eu, k, b, a, DivisionMethod(kind))
            assert float(np.max(eu.metric(got, closed))) <= 1e-9


def test_negative_level_swaps_arguments():
    # star_k at -k is back_k at k, so y *_{-k} a = b rewrites to a = y *_k b
    # with the roles of a and b exchanged: b /_{-k} a = a /_k b.
    eu = make_euclidean(1, 0.5)
    a, b = np.array([0.7]), np.array([-0.4])
    lhs = right_divide_k(eu, -2, b, a)
    rhs = right_divide_k(eu, 2, a, b)
    assert float(np.max(np.abs(lhs - rhs))) <= 1e-12


def test_dihedral_division_exhaustive():
    dq = make_dihedral_quandle(5)
    a = np.repeat(np.arange(5), 5)
    b = np.tile(np.arange(5), 5)
    for k in (1, -1, 3):
        y = right_divide_k(dq, k, b, a)
        assert np.array_equal(star_k(dq, k, y, a), b)
    with pytest.raises(UnsupportedCarrierError):
        right_divide_k(dq, 2, b, a)
    with pytest.raises(UnsupportedCarrierError):
        right_divide_k(make_dihedral_quandle(6), 1, 1, 0)


def test_heisenberg_division_methods():
    heis = make_heisenberg(0.5)
    pts = heis.sample(2, 30, 2.0)
    a, b = pts[:15], pts[15:]
    for k in (1, 2, 3):
        y = right_divide_k(heis, k, b, a)
        assert float(np.max(heis.metric(star_k(heis, k, y, a), b))) <= 1e-10
        oracle = _truncated_product(heis, k, b, a)
        assert float(np.max(heis.metric(y, oracle))) <= 1e-9


def test_perturbed_division_at_float_floor():
    # The fixed-point iteration only applies delta forward, so the quotient
    # is exact up to rounding; the worst residual measured here is 3.5e-15,
    # a margin near 30.
    pert = make_perturbed_plane(0.5, 0.1)
    pts = pert.sample(0, 200, 2.0)
    a, b = pts[:100], pts[100:]
    for k in (-1, 1, 2, 3):
        y = right_divide_k(pert, k, b, a)
        assert float(np.max(pert.metric(star_k(pert, k, y, a), b))) <= 1e-13


def test_fixed_point_division_through_growing_steps():
    # On Engel at eps = 0.9 and radius 5 the largest coordinate step of the
    # iteration grows for a few iterations before it shrinks (7.9 -> 9.8
    # over the first four at k = 2), so a stop rule that gives up when the
    # step grows would return an unconverged quotient.  right_divide_k
    # raises unless the post-condition holds.
    en = make_engel(0.9)
    pts = en.sample(0, 200, 5.0)
    a, b = pts[:100], pts[100:]
    for k in (2, 3, -3):
        right_divide_k(en, k, b, a)


@settings(deadline=None, max_examples=60)
@given(name=st.sampled_from(["heisenberg", "engel", "perturbed"]),
       eps=st.floats(0.05, 0.8), k=st.sampled_from([-3, -2, -1, 1, 2, 3]),
       seed=st.integers(0, 2**32 - 1))
def test_fixed_point_division_random_carriers(name, eps, k, seed):
    # Below eps = 0.3 the negative levels hit the float floor of the
    # expansion they undo.  With eta = 0.2 eps the perturbed contraction
    # ratio is up to 1.2 eps, so eps <= 0.65 keeps it below 0.78, where
    # the default 200 iterations converge at |k| = 1.
    assume(k > 0 or eps >= 0.3)
    assume(name != "perturbed" or eps <= 0.65)
    irq = {"heisenberg": lambda: make_heisenberg(eps),
           "engel": lambda: make_engel(eps),
           "perturbed": lambda: make_perturbed_plane(eps, 0.2 * eps)}[name]()
    pts = irq.sample(seed, 32, 2.0)
    a, b = pts[:16], pts[16:]
    # Post-condition at the default tol 1e-10; the worst residual over
    # 3600 random draws of this domain was 1.05e-11, a margin near 10.
    y = right_divide_k(irq, k, b, a, DivisionMethod("fixed_point"))
    if irq.group.is_morphism:
        # Worst distance to the written-out product over the same draws:
        # 3.1e-13, a margin above 30.
        oracle = _truncated_product(irq, k, b, a)
        assert float(np.max(irq.metric(y, oracle))) <= 1e-11


@settings(deadline=None, max_examples=60)
@given(name=st.sampled_from(["heisenberg", "engel", "filiform", "step2"]),
       eps=st.floats(0.3, 0.95), k=st.sampled_from([-3, -2, -1, 1, 2, 3]),
       seed=st.integers(0, 2**32 - 1), d1=st.integers(2, 4),
       d2=st.integers(1, 3), empty_last=st.booleans())
def test_graded_division_matches_fixed_point_and_oracle(name, eps, k, seed,
                                                        d1, d2, empty_last):
    # Carnot carriers divide by graded back-substitution; the fixed-point
    # loop and the written-out product solve the same equation.
    algebra = (_random_step2(seed, d1, d2, empty_last) if name == "step2"
               else {"heisenberg": heisenberg_algebra, "engel": engel_algebra,
                     "filiform": _filiform}[name]())
    irq = make_carnot(algebra, eps)
    pts = irq.sample(seed, 32, 2.0)
    a, b = pts[:16], pts[16:]
    graded = irq.divide(k, b, a)
    fixed = _fixed_point(irq, k, b, a, DivisionMethod("fixed_point"))
    # Enough factors that the last one falls below 1e-18.
    oracle = _truncated_product(
        irq, k, b, a, math.ceil(math.log(1e-18) / (abs(k) * math.log(eps))))
    # Distances relative to the quotient's largest coordinate, which nears
    # 1e5 at eps = 0.95 on filiform.  Worst over 31,000 draws of this
    # domain (9,000 of them at its edges eps = 0.3, k = -3 and eps = 0.95,
    # k = +-1 on filiform): 3.5e-12 to the fixed point and 1.5e-11 to the
    # oracle, whose own distance to the fixed point is as large; margins
    # above 10.
    scale = np.maximum(1.0, np.max(np.abs(oracle), axis=-1))
    assert float(np.max(irq.metric(graded, fixed) / scale)) <= 5e-11
    assert float(np.max(irq.metric(graded, oracle) / scale)) <= 2e-10

    # Post-condition residuals.  At eps near 0.3 and k = -3 on filiform
    # both methods sit at the float floor that star_k at that level
    # expands, and either may fail the 1e-10 tolerance; at eps = 0.95 and
    # k = +-1 either may too.  Graded's residual stays within 3.3 times
    # the larger of the fixed point's and the tolerance in those draws
    # (median 1); the bound leaves a margin near 2.4.
    def residual(y):
        return float(np.max(irq.metric(star_k(irq, k, y, a), b)))

    tol = DivisionMethod("closed_form").tol
    assert residual(graded) <= 8.0 * max(residual(fixed), tol)


def test_fixed_point_division_keeps_the_carnot_cases():
    # The Carnot carriers divide in closed form by default; asked for, the
    # fixed-point loop still solves its hard cases there: Engel at
    # eps = 0.9 and radius 5, where the iteration's steps grow before they
    # shrink, and the contraction ratio 0.9 at k = +-1, which needs more
    # than 200 iterations.
    fixed = DivisionMethod("fixed_point")
    en = make_engel(0.9)
    pts = en.sample(0, 200, 5.0)
    for k in (2, 3, -3):
        right_divide_k(en, k, pts[100:], pts[:100], fixed)
    for irq in (make_heisenberg(0.9), en):
        pts = irq.sample(0, 40, 2.0)
        for k in (-1, 1):
            right_divide_k(irq, k, pts[:20], pts[20:], fixed)


def test_division_post_condition_failure():
    # One fixed-point sweep cannot reach a 1e-12 residual from scratch; the
    # mandatory post-condition must refuse to return the bad quotient.
    heis = make_heisenberg(0.5)
    a = np.array([0.5, -0.3, 0.2])
    b = np.array([-0.8, 0.1, 0.6])
    with pytest.raises(NonConvergenceError, match="division residual"):
        right_divide_k(heis, 1, b, a,
                       DivisionMethod("fixed_point", max_terms=1, tol=1e-12))


@pytest.mark.parametrize("irq", [make_heisenberg(0.9), make_engel(0.9),
                                 make_perturbed_plane(0.8, 0.15)],
                         ids=["heisenberg", "engel", "perturbed"])
def test_division_budget_grows_with_the_contraction_ratio(irq):
    # At k = +-1 the fixed point contracts by 0.9 (0.95 on this perturbed
    # plane); 200 iterations leave residuals of 2e-9 to 8e-7 there.  The
    # default budget runs until a unit step would shrink to 4 ulps.
    pts = irq.sample(0, 40, 2.0)
    b, a = pts[:20], pts[20:]
    for k in (-1, 1):
        right_divide_k(irq, k, b, a)
        for i in range(0, 20, 4):
            right_divide_k(irq, k, b[i], a[i])


def test_fixed_point_needs_uniform_group_carrier():
    with pytest.raises(UnsupportedCarrierError):
        right_divide_k(_bare_carrier(), 1, np.zeros(1), np.array([0.5]),
                       DivisionMethod("fixed_point"))
    dq = make_dihedral_quandle(5)
    with pytest.raises(UnsupportedCarrierError):
        right_divide_k(dq, 1, 1, 0, DivisionMethod("fixed_point"))


def test_loop_isotope_identity_laws():
    # x is a two-sided identity of the loop at x: x o v = v and u o x = u.
    dq = make_dihedral_quandle(5)
    x = np.repeat(np.arange(5), 5)
    w = np.tile(np.arange(5), 5)
    for k in (1, 3):
        assert np.array_equal(loop_isotope_k(dq, k, x, x, w), w)
        assert np.array_equal(loop_isotope_k(dq, k, x, w, x), w)
    heis = make_heisenberg(0.5)
    pts = heis.sample(4, 30, 1.5)
    x, w = pts[:15], pts[15:]
    for k in (1, 2):
        assert float(np.max(heis.metric(loop_isotope_k(heis, k, x, x, w),
                                        w))) <= 1e-10
        assert float(np.max(heis.metric(loop_isotope_k(heis, k, x, w, x),
                                        w))) <= 1e-10


def test_loop_isotope_converges_to_tangent_sum():
    heis = make_heisenberg(0.5)
    x = np.array([0.3, -0.2, 0.4])
    u = np.array([1.0, 0.5, -0.3])
    v = np.array([-0.4, 0.8, 0.2])
    s, _ = emergent_sum(heis, x, u, v)
    assert float(heis.metric(loop_isotope_k(heis, 30, x, u, v), s)) <= 1e-10


def test_t_map_frozen_euclidean_value():
    # With epsilon = 1/2 on the line: star(1, 3) = 2 and the level-one
    # inversion of 3 through 1 lands at 0, so T(3, 1) = (0, 2).
    eu = make_euclidean(1, 0.5)
    first, second = t_map(eu, np.array([3.0]), np.array([1.0]))
    assert np.allclose(first, [0.0])
    assert np.allclose(second, [2.0])


def test_check_involution():
    rep = check_involution(make_dihedral_quandle(5))
    assert rep.identity == "6.5"
    assert rep.samples == 25 and rep.tolerance == 0.0
    assert rep.max_residual == 0.0 and rep.passed
    for make in (lambda: make_euclidean(2, 0.5),
                 lambda: make_heisenberg(0.5),
                 lambda: make_hyperbolic(0.5),
                 lambda: make_perturbed_plane(0.5, 0.1)):
        rep = check_involution(make())
        assert rep.samples == 200 and rep.tolerance == 1e-12
        assert rep.passed


def test_hyperbolic_underline_inversion_is_reflection():
    hyp = make_hyperbolic(0.5)
    pts = hyp.sample(7, 60, 1.5)
    u, v = pts[:30], pts[30:]
    base = underline_inv_k(hyp, 1, u, v)
    assert float(np.max(hyp.metric(base, reflect(u, v)))) <= 1e-8
    # The defining property of a uniform symmetric quasigroup: the same
    # value at every level.
    for k in (2, 3):
        assert float(np.max(hyp.metric(underline_inv_k(hyp, k, u, v),
                                       base))) <= 1e-8


def test_perturbed_inversion_closed_forms():
    # delta is odd, so s delta^-k(-s) telescopes: the level-k inversion is
    # exactly 2x - u + delta^k(u - x) and the underline inversion collapses
    # to the flat reflection 2u - v at every level.
    pert = make_perturbed_plane(0.5, 0.1)
    rng = np.random.default_rng(3)
    x = rng.uniform(-2, 2, size=(40, 2))
    u = rng.uniform(-2, 2, size=(40, 2))
    v = rng.uniform(-2, 2, size=(40, 2))
    ops = pert.group
    for k in (1, 2, 3):
        flat = 2 * x - u + ops.power(k, u - x)
        assert float(np.max(np.abs(inverse_k(pert, k, x, u) - flat))) <= 1e-13
        assert float(np.max(np.abs(underline_inv_k(pert, k, u, v)
                                   - (2 * u - v)))) <= 1e-9
    # The limit inversion is therefore the flat reflection as well.
    got, _ = emergent_inverse(pert, x[0], u[0], LimitConfig(tol=1e-8))
    assert float(np.max(np.abs(got - (2 * x[0] - u[0])))) <= 1e-7


def test_perturbed_loos_axioms():
    pert = make_perturbed_plane(0.5, 0.1)
    reports = check_loos_axioms(pert, LimitConfig(tol=1e-8), samples=30)
    assert [r.identity for r in reports] == [
        "L1", "L2", "L3", "L4", "L2-underline", "6.6", "6.8"]
    for r in reports:
        assert r.passed
    l4 = reports[3]
    assert "min ratio" in l4.note
    # Asking the inner limits for accuracy below the carrier's numerical
    # floor must surface as non-convergence, not as silent bad rows.  The
    # trails bottom out near 2e-9 to 3.5e-9 depending on rounding, so ask
    # for well below that.
    with pytest.raises(NonConvergenceError, match="bottomed out"):
        check_loos_axioms(pert, LimitConfig(tol=1e-9), samples=30)


def test_perturbed_loos_axioms_extrapolated():
    # Richardson-extrapolated limits land well below the raw floor: at the
    # CLI's quarter-tolerance config every row passes (L3 is the largest,
    # 4.5e-10), where the raw limits raise.
    pert = make_perturbed_plane(0.5, 0.1)
    reports = check_loos_axioms(pert, LimitConfig.within(1e-8, 4.0,
                                                         extrapolate=True))
    assert len(reports) == 7
    for r in reports:
        assert r.passed and r.max_residual <= 1e-9, (r.identity,
                                                     r.max_residual)


def test_hyperbolic_loos_axioms():
    hyp = make_hyperbolic(0.5)
    reports = check_loos_axioms(hyp, samples=30)
    names = [r.identity for r in reports]
    assert names == ["L1", "L2", "L3", "L4", "L2-underline", "6.6", "6.8",
                     "6.8-oracle", "6.8-iso"]
    for r in reports:
        assert r.passed, (r.identity, r.max_residual)


def test_loos_identity_names_match_reports():
    # Euclidean declares its reflection an isometry, Heisenberg does not.
    for irq in (make_euclidean(2, 0.5), make_heisenberg(0.5)):
        reports = check_loos_axioms(irq, samples=10)
        assert [r.identity for r in reports] == loos_identity_names(
            irq), irq.name
    assert loos_identity_names(make_euclidean(2, 0.5))[-2:] == [
        "6.8-oracle", "6.8-iso"]
    assert "6.8-iso" not in loos_identity_names(make_heisenberg(0.5))


def test_loos_axioms_need_uniform_carrier():
    with pytest.raises(UnsupportedCarrierError):
        check_loos_axioms(make_dihedral_quandle(5))
