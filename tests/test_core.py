"""Level-k operations, their validation, and the irq identity suite."""

import dataclasses
from functools import partial

import numpy as np
import pytest

from emergent_irq import core
from emergent_irq.carriers import (GradedLieAlgebra, make_carnot,
                                   make_dihedral_quandle, make_engel,
                                   make_euclidean, make_heisenberg,
                                   make_hyperbolic, make_perturbed_plane)
from emergent_irq.core import (DEFAULT_LEVELS, MAX_ITER_EXPONENT, AxiomReport,
                               Irq, _iterate, back_k, check_irq_axioms,
                               difference_k, identity_names, inverse_k,
                               star_k, sum_k)
from emergent_irq.division import check_involution, right_divide_k
from emergent_irq.errors import (CarrierConstructionError,
                                 EmergentAlgebraError, InvalidExponentError)
from emergent_irq.limits import check_distributive


def test_carrier_needs_star_or_level_star():
    # Star and back default to the level star at 1 and -1; without one, the
    # carrier is refused when it is built, not when it is first used.
    def metric(x, y):
        return np.abs(np.asarray(x) - y)

    def sample(seed, count, radius):
        return np.zeros(count)

    with pytest.raises(CarrierConstructionError, match="star"):
        Irq(name="bare", metric=metric, sample=sample, base=0.0)
    with pytest.raises(CarrierConstructionError, match="back"):
        Irq(name="half", metric=metric, sample=sample, base=0.0,
            star=lambda x, u: u)
    fields = {f.name for f in dataclasses.fields(Irq)}
    assert not fields & {"dim", "is_uniform", "is_exact"}


def test_level_validation_rejects_bad_exponents():
    eu = make_euclidean(2, 0.5)
    x = np.array([0.0, 0.0])
    u = np.array([1.0, -1.0])
    for bad in (0, 1.5, "2", None, True, False, np.float64(2.0),
                MAX_ITER_EXPONENT + 1, -(MAX_ITER_EXPONENT + 1)):
        with pytest.raises(InvalidExponentError):
            star_k(eu, bad, x, u)
        with pytest.raises(InvalidExponentError):
            back_k(eu, bad, x, u)
        with pytest.raises(InvalidExponentError):
            inverse_k(eu, bad, x, u)


def test_level_accepts_numpy_integers():
    eu = make_euclidean(1, 0.5)
    x = np.array([0.0])
    u = np.array([1.0])
    assert np.allclose(star_k(eu, np.int64(2), x, u), star_k(eu, 2, x, u))
    assert np.allclose(star_k(eu, np.int32(-3), x, u), star_k(eu, -3, x, u))


def test_euclidean_star_k_closed_form():
    # star(x, u) = x + eps (u - x) iterates to x + eps^k (u - x), and
    # negative levels iterate back, giving the same formula with eps^k > 1.
    eps = 0.5
    eu = make_euclidean(3, eps)
    rng = np.random.default_rng(0)
    x = rng.uniform(-2, 2, size=(20, 3))
    u = rng.uniform(-2, 2, size=(20, 3))
    for k in (-3, -1, 1, 2, 5):
        assert np.allclose(star_k(eu, k, x, u), x + eps ** k * (u - x),
                           atol=1e-12)
        assert np.allclose(back_k(eu, k, x, u), x + eps ** -k * (u - x),
                           atol=1e-12)


def test_star_back_mutually_inverse_at_every_level():
    heis = make_heisenberg(0.5)
    pts = heis.sample(1, 60, 2.0)
    x, u = pts[:30], pts[30:]
    for k in DEFAULT_LEVELS:
        assert float(np.max(heis.metric(back_k(heis, k, x, star_k(heis, k, x, u)),
                                        u))) <= 1e-12
        assert float(np.max(heis.metric(star_k(heis, k, x, back_k(heis, k, x, u)),
                                        u))) <= 1e-12


def test_derived_ops_match_their_composed_definitions():
    # Carriers may install rearranged evaluators for the derived operations;
    # those must agree with the composed definitions wherever both are stable.
    for irq in (make_euclidean(2, 0.4), make_heisenberg(0.5)):
        pts = irq.sample(2, 90, 1.5)
        x, u, v = pts[:30], pts[30:60], pts[60:]
        for k in (-2, -1, 1, 2, 3):
            dif = back_k(irq, k, star_k(irq, k, x, u), star_k(irq, k, x, v))
            assert float(np.max(irq.metric(difference_k(irq, k, x, u, v),
                                           dif))) <= 1e-10
            add = back_k(irq, k, x, star_k(irq, k, star_k(irq, k, x, u), v))
            assert float(np.max(irq.metric(sum_k(irq, k, x, u, v),
                                           add))) <= 1e-10
            inv = back_k(irq, k, star_k(irq, k, x, u), x)
            assert float(np.max(irq.metric(inverse_k(irq, k, x, u),
                                           inv))) <= 1e-10


def test_dihedral_star_k_depends_only_on_parity():
    dq = make_dihedral_quandle(7)
    x, u = np.arange(7).repeat(7), np.tile(np.arange(7), 7)
    for k in (2, -2, 4):
        assert np.array_equal(star_k(dq, k, x, u), u)
    for k in (1, -1, 3, -3):
        assert np.array_equal(star_k(dq, k, x, u), dq.star(x, u))


def test_dihedral_level_star_on_a_block_of_levels():
    # The limits hand level_star a block of levels as one int array; each
    # level of the block equals that level evaluated alone, for the star
    # and every operation composed from it.
    dq = make_dihedral_quandle(7)
    x, u = np.arange(7).repeat(7), np.tile(np.arange(7), 7)
    v = (3 * x + 2 * u + 1) % 7
    ops = ((core._star, (x, u)), (core._sum, (x, u, v)),
           (core._difference, (x, u, v)), (core._inverse, (x, u)))
    for ks in (np.arange(1, 7), np.arange(-6, 0)):
        for level, points in ops:
            block = core._at_levels((dq,), partial(level, dq), ks, *points)
            alone = np.stack([level(dq, int(k), *points) for k in ks])
            assert np.array_equal(block, alone), (level.__name__, ks)
    assert dq.level_star(3, 2, 5) == dq.star(2, 5)


def _filiform4():
    return make_carnot(GradedLieAlgebra.from_brackets(
        (2, 1, 1, 1), [(0, 1, {2: 1.0}), (0, 2, {3: 1.0}), (0, 3, {4: 1.0})]),
        0.5)


# Every bundled constructor: (carrier, sample radius, lowest level).
# Hyperbolic stays within radius 0.5 and level -3, about 4 units from x:
# past ~15 units float (x, y) points lose their transverse digits whichever
# way the level is evaluated (at level -6 both forms land at the right
# distance from x, but 0.74 apart).
BUNDLED = (
    (make_euclidean(3, 0.5), 2.0, -6),
    (make_heisenberg(0.5), 2.0, -6),
    (make_engel(0.5), 2.0, -6),
    (_filiform4(), 2.0, -6),
    (make_perturbed_plane(0.5, 0.1), 2.0, -6),
    (make_dihedral_quandle(9), 0.0, -6),
    (make_hyperbolic(0.5), 0.5, -3),
)


@pytest.mark.parametrize("irq,radius,lowest", BUNDLED,
                         ids=[irq.name for irq, _, _ in BUNDLED])
def test_level_star_matches_iterated_definition(irq, radius, lowest):
    # The one-step evaluator against |k| steps of star or back, relative to
    # the size of the result, max(1, d(x, iterated)).  Measured worst over
    # seeds 0-3: 5.4e-15 on the group carriers (step-4 Carnot at level -6,
    # tens of ulps), 2.9e-14 on hyperbolic (level -3), exactly 0 on
    # dihedral.  The tolerances leave a factor of at least 20 above those.
    tol = 0.0 if irq.is_exact else 5e-12 if irq.group is None else 1e-13
    pts = irq.sample(0, 80, radius)
    x, u = pts[:40], pts[40:]
    for level in range(lowest, 7):
        if level == 0:
            continue
        iterated = _iterate(irq.star if level > 0 else irq.back, x, u,
                            abs(level))
        scale = np.maximum(1.0, irq.metric(x, iterated))
        for got in (star_k(irq, level, x, u), back_k(irq, -level, x, u)):
            worst = float(np.max(irq.metric(got, iterated) / scale))
            assert worst <= tol, (irq.name, level, worst)


def test_hyperbolic_level_star_scales_distance():
    # star_k moves u along the geodesic through x to eps^k times its
    # distance.  Measured worst deviation over levels -3..6 at radius 0.5,
    # seeds 0-5, relative to max(1, eps^k d): 6.8e-16, below what |k|
    # iterated steps reach (1.4e-15).  2e-12 leaves a factor of over 20.
    hyp = make_hyperbolic(0.5)
    pts = hyp.sample(1, 80, 0.5)
    x, u = pts[:40], pts[40:]
    d = hyp.metric(x, u)
    for level in (-3, -2, -1, 1, 2, 4, 6):
        want = 0.5 ** level * d
        moved = hyp.metric(x, star_k(hyp, level, x, u))
        assert float(np.max(np.abs(moved - want)
                            / np.maximum(1.0, want))) <= 2e-12


@pytest.mark.parametrize("irq,radius,lowest", BUNDLED,
                         ids=[irq.name for irq, _, _ in BUNDLED])
def test_level_star_needs_no_carrier_step(irq, radius, lowest):
    # With star and back unusable, every bundled carrier still evaluates a
    # level in one step, to the same value.
    def unusable(x, u):
        raise AssertionError("star_k iterated a carrier step")

    stubbed = dataclasses.replace(irq, star=unusable, back=unusable)
    pts = irq.sample(2, 10, radius)
    x, u = pts[:5], pts[5:]
    for level in (7, -3):
        assert np.array_equal(star_k(stubbed, level, x, u),
                              star_k(irq, level, x, u))
        assert np.array_equal(back_k(stubbed, level, x, u),
                              back_k(irq, level, x, u))


def test_deep_levels_with_small_epsilon_raise_library_errors():
    # eps^k overflows a float at eps = 0.01, |k| = 160.  The calls may
    # return non-finite points or raise a library error; a bare
    # OverflowError is neither.
    for irq in (make_euclidean(2, 0.01), make_hyperbolic(0.01)):
        x, u, v = irq.sample(0, 3, 0.5)
        for k in (160, -160):
            calls = (lambda: inverse_k(irq, k, x, u),
                     lambda: difference_k(irq, k, x, u, v),
                     lambda: sum_k(irq, k, x, u, v),
                     lambda: right_divide_k(irq, k, u, x))
            for call in calls:
                with np.errstate(all="ignore"):
                    try:
                        call()
                    except EmergentAlgebraError:
                        pass


def test_identity_names_order():
    assert identity_names() == ["P1", "P2", "3.4a", "3.4b", "3.4c", "3.4d",
                                "3.4e", "3.4f", "3.4g", "3.5h", "3.5i",
                                "3.5j", "3.5k"]


def test_axiom_suite_euclidean_passes():
    reports = check_irq_axioms(make_euclidean(2, 0.5), seed=0, count=100)
    assert [r.identity for r in reports] == identity_names()
    for r in reports:
        assert r.samples == 100
        assert r.tolerance == 1e-9
        assert r.passed
        assert r.max_residual <= 1e-9


def test_axiom_suite_dihedral_exhaustive_and_exact():
    dq = make_dihedral_quandle(5)
    reports = check_irq_axioms(dq)
    by_name = {r.identity: r for r in reports}
    assert set(by_name) == set(identity_names())
    for r in reports:
        assert r.tolerance == 0.0
        assert r.max_residual == 0.0
        assert r.passed
    # Exhaustive enumeration: sample count is n^arity per identity.
    assert by_name["P2"].samples == 5
    assert by_name["P1"].samples == 25
    assert by_name["3.4a"].samples == 125
    assert by_name["3.4e"].samples == 625
    assert by_name["3.5k"].samples == 125


def test_axiom_suite_rejects_level_zero_in_grid():
    with pytest.raises(InvalidExponentError):
        check_irq_axioms(make_euclidean(1, 0.5), levels=(0, 1))


def test_axiom_report_from_residual():
    rep = AxiomReport.from_residual("P1", 10, 1e-10, 1e-9)
    assert rep.passed and rep.identity == "P1" and rep.samples == 10
    assert AxiomReport.from_residual("P1", 10, 1e-9, 1e-9).passed
    assert not AxiomReport.from_residual("P1", 10, 1.0000001e-9, 1e-9).passed
    assert not AxiomReport.from_residual("P1", 10, float("inf"), 1e-9).passed
    assert not AxiomReport.from_residual("P1", 10, float("nan"), 1e-9).passed
    noted = AxiomReport.from_residual("L4", 3, 0.0, 0.0, note="ratio 2.0")
    assert noted.note == "ratio 2.0" and noted.passed


def nan_first(irq):
    """The carrier with a metric that answers NaN on its first call only."""
    calls = []

    def metric(x, y):
        calls.append(1)
        d = irq.metric(x, y)
        return np.full_like(d, np.nan) if len(calls) == 1 else d

    return dataclasses.replace(irq, metric=metric)


def test_nan_residual_fails_its_row():
    eu = make_euclidean(2, 0.5)
    reports = check_irq_axioms(nan_first(eu), count=20)
    assert reports[0].identity == "P1"
    assert np.isnan(reports[0].max_residual) and not reports[0].passed
    assert all(r.passed for r in reports[1:])
    for check in (check_distributive, check_involution):
        rep = check(nan_first(eu), samples=20)
        assert np.isnan(rep.max_residual) and not rep.passed, rep.identity
        assert check(eu, samples=20).passed


def test_axiom_report_judge():
    eu = make_euclidean(1, 0.5)
    x, y = np.array([[0.0], [1.0]]), np.array([[0.0], [1.5]])
    rep = AxiomReport.judge(eu, "6.1", 2, [(x, x), (x, y)], 1.0)
    assert rep.max_residual == 0.5 and rep.passed and rep.tolerance == 1.0
    assert not AxiomReport.judge(eu, "6.1", 2, [(x, y)], 0.4).passed
    # Exact carriers are held to zero whatever the tolerance.
    dq = make_dihedral_quandle(5)
    rep = AxiomReport.judge(dq, "6.5", 2, [(np.array([0, 1]),
                                            np.array([0, 2]))], 1.0)
    assert rep.tolerance == 0.0 and not rep.passed
