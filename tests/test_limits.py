"""Emergent limit operations, tangent groups, and group reconstruction."""

import numpy as np
import pytest
from scipy.linalg import expm, logm

from emergent_irq.carriers import (make_dihedral_quandle, make_euclidean,
                                   make_heisenberg, make_perturbed_plane)
from emergent_irq.errors import (DistributivityError, NonConvergenceError,
                                 UnsupportedCarrierError)
from emergent_irq.limits import (ConvergenceReport, LimitConfig,
                                 check_distributive, emergent_difference,
                                 emergent_inverse, emergent_sum,
                                 reconstruct_group, tangent_group,
                                 verify_tangent_group)
from heisenberg_law import heis_inv, heis_mul


def test_limit_config_validation():
    cfg = LimitConfig()
    assert cfg.tol == 1e-11 and cfg.max_k == 200 and cfg.cauchy_window == 3
    with pytest.raises(ValueError):
        LimitConfig(tol=0.0)
    with pytest.raises(ValueError):
        LimitConfig(tol=-1e-9)
    with pytest.raises(ValueError):
        LimitConfig(cauchy_window=0)
    with pytest.raises(ValueError):
        LimitConfig(max_k=3, cauchy_window=3)
    # Inner limits land inside the tolerance they are judged at by a
    # margin, floored at 1e-11.
    assert LimitConfig.within(1e-8, 4.0) == LimitConfig(tol=2.5e-9)
    assert (LimitConfig.within(1e-10, 100.0, max_k=50)
            == LimitConfig(tol=1e-11, max_k=50))


def test_euclidean_emergent_closed_forms():
    # In flat space the limits are the affine operations at the basepoint:
    # difference -> x - u + v, sum -> u - x + v, inverse -> 2x - u.
    eu = make_euclidean(2, 0.5)
    x = np.array([0.3, -0.7])
    u = np.array([1.1, 0.4])
    v = np.array([-0.5, 0.9])
    d, rd = emergent_difference(eu, x, u, v)
    s, rs = emergent_sum(eu, x, u, v)
    i, ri = emergent_inverse(eu, x, u)
    assert float(np.max(np.abs(d - (x - u + v)))) <= 1e-10
    assert float(np.max(np.abs(s - (u - x + v)))) <= 1e-10
    assert float(np.max(np.abs(i - (2 * x - u)))) <= 1e-10
    for rep in (rd, rs, ri):
        assert isinstance(rep, ConvergenceReport)
        assert rep.converged
        assert isinstance(rep.residual_trail, tuple)
        # The trail starts at the step from level 1 to level 2.
        assert rep.stop_k == len(rep.residual_trail) + 1
        window = rep.residual_trail[-3:]
        assert all(r <= 1e-11 for r in window)


def test_heisenberg_convergence_rate():
    heis = make_heisenberg(0.5)
    x = np.array([0.3, -0.2, 0.4])
    u = np.array([1.0, 0.5, -0.3])
    v = np.array([-0.4, 0.8, 0.2])
    s, rep = emergent_sum(heis, x, u, v)
    assert rep.converged
    assert rep.stop_k == 39
    # Successive residuals shrink by the contraction ratio epsilon = 1/2.
    assert abs(rep.estimated_rate - 0.5) <= 1e-3
    # The limit is the closed form u x^-1 v.
    want = heis_mul(heis_mul(u, heis_inv(x)), v)
    assert float(heis.metric(s, want)) <= 1e-9


def test_noise_floor_guard_on_perturbed():
    # The perturbed carrier has no closed-form displacement evaluator for
    # sums, so deep levels bottom out near 1e-9; demanding the default
    # 1e-11 tolerance must fail loudly instead of returning noise.
    pert = make_perturbed_plane(0.5, 0.1)
    x = np.array([0.3, -0.7])
    u = np.array([1.1, 0.4])
    v = np.array([-0.5, 0.9])
    with pytest.raises(NonConvergenceError) as excinfo:
        emergent_sum(pert, x, u, v)
    assert "bottomed out" in str(excinfo.value)
    assert len(excinfo.value.trail) > 0
    # Above the floor the same limit converges with the perturbed rate
    # epsilon + eta = 0.6.
    s, rep = emergent_sum(pert, x, u, v, LimitConfig(tol=1e-8))
    assert rep.converged
    assert 35 <= rep.stop_k <= 42
    assert 0.55 <= rep.estimated_rate <= 0.65


def test_max_k_exhaustion_raises():
    heis = make_heisenberg(0.5)
    x = np.array([0.3, -0.2, 0.4])
    u = np.array([1.0, 0.5, -0.3])
    with pytest.raises(NonConvergenceError) as excinfo:
        emergent_inverse(heis, x, u, LimitConfig(tol=1e-11, max_k=6))
    assert "max_k=6" in str(excinfo.value)


def test_emergent_ops_need_uniform_carrier():
    dq = make_dihedral_quandle(5)
    with pytest.raises(UnsupportedCarrierError):
        emergent_difference(dq, 0, 1, 2)
    with pytest.raises(UnsupportedCarrierError):
        emergent_sum(dq, 0, 1, 2)
    with pytest.raises(UnsupportedCarrierError):
        emergent_inverse(dq, 0, 1)
    # Each entry point names itself, not the tangent group it builds on.
    with pytest.raises(UnsupportedCarrierError, match="^tangent_group "):
        tangent_group(dq, 0)
    with pytest.raises(UnsupportedCarrierError,
                       match="^verify_tangent_group needs a uniform"):
        verify_tangent_group(dq, 0)
    with pytest.raises(UnsupportedCarrierError,
                       match="^reconstruct_group needs a uniform"):
        reconstruct_group(dq, 0)


def test_tangent_group_methods():
    heis = make_heisenberg(0.5)
    tg = tangent_group(heis, np.zeros(3))
    rng = np.random.default_rng(5)
    u = rng.uniform(-1.5, 1.5, size=3)
    v = rng.uniform(-1.5, 1.5, size=3)
    # At the neutral basepoint the tangent group is the group itself.
    assert float(heis.metric(tg.product(u, v), heis_mul(u, v))) <= 1e-9
    assert float(heis.metric(tg.inverse(u), -u)) <= 1e-9
    assert float(heis.metric(tg.difference(u, v),
                             heis_mul(heis_inv(u), v))) <= 1e-9
    assert np.allclose(tg.contraction(u), heis.star(np.zeros(3), u))


def test_verify_tangent_group_labels_and_pass():
    eu = make_euclidean(2, 0.5)
    reports = verify_tangent_group(eu, np.zeros(2), samples=50)
    assert [r.identity for r in reports] == [
        "5.2a", "5.2b", "5.2c", "5.2d", "5.2e", "5.2f", "5.2g",
        "5.2-inverse", "5.2-alpha"]
    for r in reports:
        assert r.samples == 50
        assert r.tolerance == 1e-7
        assert r.passed
        assert r.max_residual <= 1e-9


def test_check_distributive():
    # Group carriers with morphism delta are exactly distributive.
    eu = make_euclidean(2, 0.5)
    rep = check_distributive(eu, samples=100)
    assert rep.identity == "6.1" and rep.passed
    assert rep.max_residual <= 1e-12
    heis = make_heisenberg(0.5)
    assert check_distributive(heis, samples=100).passed
    # The dihedral quandle is distributive and exact, checked exhaustively.
    rep = check_distributive(make_dihedral_quandle(5))
    assert rep.passed and rep.max_residual == 0.0
    assert rep.samples == 125 and rep.tolerance == 0.0
    # Too large to enumerate: sampled, and still held to zero residual.
    rep = check_distributive(make_dihedral_quandle(31), samples=50)
    assert rep.passed and rep.samples == 50 and rep.tolerance == 0.0
    # The perturbed plane is uniform but not distributive; the residual is
    # order one, far beyond any tolerance an honest check would accept.
    rep = check_distributive(make_perturbed_plane(0.5, 0.1), samples=200)
    assert not rep.passed
    assert rep.max_residual > 1e-3


def _heis_mat(p):
    m = np.zeros((3, 3))
    m[0, 1], m[1, 2], m[0, 2] = p[0], p[1], p[2]
    return m


def test_reconstruct_group_heisenberg():
    heis = make_heisenberg(0.5)
    rec = reconstruct_group(heis, np.zeros(3))
    assert rec.distributivity.passed
    assert np.array_equal(rec.neutral, np.zeros(3))
    rng = np.random.default_rng(9)
    worst_mul = 0.0
    worst_star = 0.0
    for _ in range(10):
        u = rng.uniform(-1.5, 1.5, size=3)
        v = rng.uniform(-1.5, 1.5, size=3)
        # Matrix-exponential oracle for the product.
        L = np.real(logm(expm(_heis_mat(u)) @ expm(_heis_mat(v))))
        want = np.array([L[0, 1], L[1, 2], L[0, 2]])
        worst_mul = max(worst_mul, float(heis.metric(rec.product(u, v), want)))
        # The irq operations rebuilt from the group match the originals.
        worst_star = max(worst_star,
                         float(heis.metric(rec.star(u, v), heis.star(u, v))),
                         float(heis.metric(rec.back(u, v), heis.back(u, v))))
        assert float(heis.metric(rec.inverse(u), -u)) <= 1e-9
    assert worst_mul <= 1e-9
    assert worst_star <= 1e-8


def test_reconstruct_group_rejects_perturbed():
    pert = make_perturbed_plane(0.5, 0.1)
    with pytest.raises(DistributivityError) as excinfo:
        reconstruct_group(pert, np.zeros(2))
    report = excinfo.value.report
    assert report is not None
    assert report.identity == "6.1" and not report.passed
    assert report.max_residual > 1e-3
