"""End-to-end acceptance checks, one test per criterion.

Each test prints a single pass/fail line naming its criterion; tolerances
and sample sizes are part of the package contract and are not adjustable.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from emergent_irq.calculus import (MapBetweenCarriers,
                                   check_derivative_morphism, derivative)
from emergent_irq.carriers import (make_dihedral_quandle, make_engel,
                                   make_euclidean, make_heisenberg,
                                   make_hyperbolic, make_perturbed_plane)
from emergent_irq.carriers.carnot import bch_product, heisenberg_algebra
from emergent_irq.core import check_irq_axioms, identity_names, sum_k, star_k
from emergent_irq.division import (DivisionMethod, check_involution,
                                   check_loos_axioms, loop_isotope_k,
                                   right_divide_k, underline_inv_k)
from emergent_irq.limits import (check_distributive, emergent_difference,
                                 emergent_sum, reconstruct_group,
                                 verify_tangent_group)


def _verdict(label, ok, detail):
    print(f"{label}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{label}: {detail}"


def test_criterion_1_axiom_suite():
    ok = True
    worst_exact = 0.0
    for n in (5, 7, 9):
        for rep in check_irq_axioms(make_dihedral_quandle(n)):
            ok = ok and rep.passed and rep.max_residual == 0.0
            worst_exact = max(worst_exact, rep.max_residual)
    worst_float = 0.0
    float_carriers = [make_euclidean(dim, eps)
                      for dim in (1, 3) for eps in (0.3, 0.5)]
    float_carriers += [make_heisenberg(0.5), make_engel(0.5)]
    for irq in float_carriers:
        reports = check_irq_axioms(irq, seed=0, count=1000, tol=1e-9)
        assert [r.identity for r in reports] == identity_names()
        for rep in reports:
            ok = ok and rep.passed and rep.max_residual <= 1e-9
            worst_float = max(worst_float, rep.max_residual)
    _verdict("criterion 1 (axiom suite)", ok,
             f"exact residual {worst_exact}, float worst {worst_float:.3e}")


def test_criterion_2_convergence():
    heis = make_heisenberg(0.5)
    pts = heis.sample(0, 300, 2.0)
    x, u, v = pts[:100], pts[100:200], pts[200:]
    g = heis.group
    closed = g.mul(g.mul(u, g.inv(x)), v)
    worst30 = float(np.max(heis.metric(sum_k(heis, 30, x, u, v), closed)))
    _, rep = emergent_sum(heis, x, u, v)
    ok = worst30 <= 1e-6 and 0.25 <= rep.estimated_rate <= 0.75

    eu = make_euclidean(2, 0.5)
    pts = eu.sample(0, 300, 2.0)
    ex, eu_, ev = pts[:100], pts[100:200], pts[200:]
    d, _ = emergent_difference(eu, ex, eu_, ev)
    s, _ = emergent_sum(eu, ex, eu_, ev)
    flat_d = float(np.max(np.abs(d - (ex - eu_ + ev))))
    flat_s = float(np.max(np.abs(s - (eu_ - ex + ev))))
    ok = ok and flat_d <= 1e-10 and flat_s <= 1e-10
    _verdict("criterion 2 (emergent limits)", ok,
             f"sum_30 residual {worst30:.3e}, rate {rep.estimated_rate:.3f}, "
             f"flat residuals {flat_d:.3e}/{flat_s:.3e}")


def test_criterion_3_tangent_group():
    ok = True
    worst = 0.0
    for irq in (make_euclidean(2, 0.5), make_heisenberg(0.5),
                make_engel(0.5)):
        for rep in verify_tangent_group(irq, irq.base, samples=200,
                                        tol=1e-7):
            ok = ok and rep.passed
            worst = max(worst, rep.max_residual)
    _verdict("criterion 3 (tangent group laws)", ok,
             f"worst residual {worst:.3e} at tol 1e-7")


def test_criterion_4_reconstruction():
    heis = make_heisenberg(0.5)
    rec = reconstruct_group(heis, np.zeros(3))
    bch = bch_product(heisenberg_algebra())
    pts = heis.sample(1, 400, 2.0)
    u, v = pts[:200], pts[200:]
    worst_mul = float(np.max(heis.metric(rec.product(u, v), bch(u, v))))
    worst_star = float(np.max(heis.metric(rec.star(u, v), heis.star(u, v))))
    rep = check_distributive(make_perturbed_plane(0.5, 0.1), samples=1000)
    ok = (worst_mul <= 1e-8 and worst_star <= 1e-8
          and not rep.passed and rep.max_residual > 1e-3)
    _verdict("criterion 4 (group reconstruction)", ok,
             f"product vs series {worst_mul:.3e}, star rebuilt "
             f"{worst_star:.3e}, perturbed 6.1 residual {rep.max_residual:.4f}")


def test_criterion_5_division_and_loops():
    heis = make_heisenberg(0.5)
    method = DivisionMethod("fixed_point", max_terms=60, tol=1e-10)
    pts = heis.sample(2, 200, 2.0)
    a, b = pts[:100], pts[100:]
    worst_div = 0.0
    for k in (1, 2, 3):
        y = right_divide_k(heis, k, b, a, method)
        worst_div = max(worst_div, float(np.max(
            heis.metric(star_k(heis, k, y, a), b))))
    pts = heis.sample(3, 300, 2.0)
    x, u, v = pts[:100], pts[100:200], pts[200:]
    s, _ = emergent_sum(heis, x, u, v)
    worst_loop = float(np.max(heis.metric(
        loop_isotope_k(heis, 30, x, u, v), s)))
    ok = worst_div <= 1e-10 and worst_loop <= 1e-6
    _verdict("criterion 5 (division and loop isotopes)", ok,
             f"division residual {worst_div:.3e} within 60 terms, "
             f"loop limit residual {worst_loop:.3e}")


def test_criterion_6_symmetric_spaces():
    hyp = make_hyperbolic(0.5)
    reports = {r.identity: r for r in check_loos_axioms(hyp, samples=200)}
    ok = all(reports[name].passed
             for name in ("L1", "L2", "L3", "L4", "L2-underline",
                          "6.6", "6.8", "6.8-oracle", "6.8-iso"))
    pts = hyp.sample(5, 400, 1.5)
    u, v = pts[:200], pts[200:]
    base = underline_inv_k(hyp, 1, u, v)
    worst_k = max(float(np.max(hyp.metric(underline_inv_k(hyp, k, u, v),
                                          base)))
                  for k in (2, 3))
    worst_oracle = float(np.max(hyp.metric(base,
                                           hyp.point_reflection(u, v))))
    ok = ok and worst_k <= 1e-8 and worst_oracle <= 1e-8

    exact = check_involution(make_dihedral_quandle(5))
    ok = ok and exact.passed and exact.max_residual == 0.0
    worst_inv = 0.0
    for irq in (make_euclidean(2, 0.5), make_heisenberg(0.5),
                make_hyperbolic(0.5), make_perturbed_plane(0.5, 0.1)):
        rep = check_involution(irq)
        ok = ok and rep.passed
        worst_inv = max(worst_inv, rep.max_residual)
    _verdict("criterion 6 (symmetric spaces)", ok,
             f"inversion k-agreement {worst_k:.3e}, vs reflection "
             f"{worst_oracle:.3e}, isometry residual "
             f"{reports['6.8-iso'].max_residual:.3e}, involution worst "
             f"{worst_inv:.3e}")


def test_criterion_7_derivatives():
    eu2, eu3 = make_euclidean(2, 0.5), make_euclidean(3, 0.5)
    A = np.array([[1.5, -0.5], [2.0, 0.25], [-1.0, 3.0]])
    c = np.array([0.2, -0.8, 0.5])

    def f(p):
        return c + np.asarray(p, dtype=float) @ A.T

    m = MapBetweenCarriers(eu2, eu3, f, name="linear")
    pts = eu2.sample(4, 400, 2.0)
    x, u = pts[:200], pts[200:]
    val, _ = derivative(m, x, u)
    want = f(x) + (u - x) @ A.T
    worst_lin = float(np.max(np.abs(val - want)))
    ok = worst_lin <= 1e-9

    # Identity map on the dyadic 1/64 grid: exact binary arithmetic, so
    # the derivative must come back bit for bit.
    rng = np.random.default_rng(6)
    gx = rng.integers(-128, 129, size=(200, 2)) / 64.0
    gu = rng.integers(-128, 129, size=(200, 2)) / 64.0
    ident = MapBetweenCarriers(eu2, eu2, lambda p: p, name="id")
    vid, rep = derivative(ident, gx, gu)
    ok = ok and np.array_equal(vid, gu) and rep.residual_trail == (0.0,) * 3

    heis = make_heisenberg(0.5)
    dil = MapBetweenCarriers(heis, heis, heis.group.delta, name="delta")
    morphism = check_derivative_morphism(dil, heis.base, tol=1e-7)
    ok = ok and morphism.passed
    _verdict("criterion 7 (derivatives)", ok,
             f"linear map residual {worst_lin:.3e}, identity bitwise "
             f"{np.array_equal(vid, gu)}, morphism residual "
             f"{morphism.max_residual:.3e}")


# The package sources, for child processes: pytest puts them on its own
# path only (pyproject's ``pythonpath``), not on the environment's.
SRC = str(Path(__file__).resolve().parent.parent / "src")


def test_criterion_8_determinism(tmp_path):
    jobs = [
        (["--carrier", "heisenberg", "--experiment", "converge",
          "--seed", "7"], {}),
        (["--carrier", "engel", "--experiment", "symmetric",
          "--seed", "3", "--format", "json"], {}),
        (["--carrier", "euclidean", "--experiment", "axioms"],
         {"EMERGENT_IRQ_SEED": "11"}),
    ]
    ok = True
    for i, (argv, extra_env) in enumerate(jobs):
        outs = []
        for run in ("a", "b"):
            out = tmp_path / f"job{i}{run}.report"
            env = dict(os.environ, **extra_env)
            env["PYTHONPATH"] = os.pathsep.join(
                p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
            proc = subprocess.run(
                [sys.executable, "-m", "emergent_irq.cli", "run",
                 *argv, "--out", str(out)],
                env=env, capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            outs.append(out.read_bytes())
        ok = ok and outs[0] == outs[1] and len(outs[0]) > 0
        if argv[-1] == "json":
            json.loads(outs[0])
    _verdict("criterion 8 (deterministic reports)", ok,
             "byte-identical reports across reruns for three experiments")
