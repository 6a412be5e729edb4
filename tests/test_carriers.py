"""Carrier constructors: closed forms, oracles, and validation."""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm, logm

from emergent_irq.carriers import (GradedLieAlgebra, build_carrier,
                                   carrier_registry, engel_algebra,
                                   exp_map, geodesic_distance,
                                   heisenberg_algebra, homogeneous_norm,
                                   layer_max_norm, load_algebra, log_map,
                                   make_carnot, make_dihedral_quandle,
                                   make_engel, make_euclidean,
                                   make_group_irq, make_heisenberg,
                                   make_hyperbolic, make_perturbed_plane,
                                   reflect)
from emergent_irq.carriers.carnot import bch_product, dilation
from emergent_irq.carriers.group import _additive_group
from emergent_irq.carriers.hyperbolic import _from_polar, _polar, _scale
from emergent_irq.core import Chart, _level_power, star_k
from emergent_irq.errors import (CarrierConstructionError, InvalidPointError,
                                 NonConvergenceError, UnsupportedCarrierError)
from heisenberg_law import heis_dilate, heis_inv, heis_mul


# ---------------------------------------------------------------------------
# Euclidean


def test_euclidean_divide_solves_exactly():
    eu = make_euclidean(2, 0.5)
    rng = np.random.default_rng(1)
    a = rng.uniform(-2, 2, size=(10, 2))
    b = rng.uniform(-2, 2, size=(10, 2))
    # y = (b - eps^k a) / (1 - eps^k); at k = 1, eps = 1/2 this is 2b - a.
    assert np.allclose(eu.divide(1, b, a), 2 * b - a, atol=1e-12)
    for k in (-2, 1, 3):
        y = eu.divide(k, b, a)
        assert float(np.max(eu.metric(star_k(eu, k, y, a), b))) <= 1e-12


def test_euclidean_reflection_and_flags():
    eu = make_euclidean(3, 0.4)
    assert eu.name == "euclidean3"
    assert eu.is_uniform and not eu.is_exact
    assert eu.epsilon == 0.4
    assert eu.layer_dims == (3,)
    assert eu.reflection_isometry
    x = np.array([1.0, 2.0, 3.0])
    y = np.array([0.5, -1.0, 2.0])
    assert np.allclose(eu.point_reflection(x, y), 2 * x - y)
    assert np.allclose(eu.base, np.zeros(3))


def test_euclidean_samples_and_builds_at_large_dims():
    # The Euclidean ball is drawn as a direction times a radius at any dim
    # (rejection from the cube would keep 2.5e-8 of its candidates at dim
    # 20), and the one-layer algebra is built from its brackets alone, so
    # no dense dim^3 array of zero structure constants is allocated: 8 MB
    # at dim 100.
    tracemalloc.start()
    try:
        eu = make_euclidean(100, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6
    for dim in (20, 100):
        eu = make_euclidean(dim, 0.5)
        pts = eu.sample(3, 50, 2.0)
        assert pts.shape == (50, dim)
        assert float(np.max(np.linalg.norm(pts, axis=-1))) <= 2.0
        assert float(np.max(eu.metric(pts, 2.0 * pts))) <= 2.0
    assert make_euclidean(2.0, 0.5).name == "euclidean2"


def test_euclidean_construction_errors():
    with pytest.raises(CarrierConstructionError):
        make_euclidean(0, 0.5)
    # The dim is the one layer dim of the algebra, validated as such.
    with pytest.raises(CarrierConstructionError, match="layer dims must be"):
        make_euclidean(-1, 0.5)
    with pytest.raises(CarrierConstructionError, match="layer dims must be"):
        build_carrier("euclidean", {"dim": "-2"})
    with pytest.raises(CarrierConstructionError, match="layer dims must be"):
        make_euclidean(2.5, 0.5)
    with pytest.raises(CarrierConstructionError):
        make_euclidean(2, 0.0)
    with pytest.raises(CarrierConstructionError):
        make_euclidean(2, 1.0)
    with pytest.raises(CarrierConstructionError):
        make_euclidean(2, -0.3)


def test_euclidean_sampler_ball_and_determinism():
    eu = make_euclidean(2, 0.5)
    pts = eu.sample(7, 64, 1.5)
    assert pts.shape == (64, 2)
    assert float(np.max(np.linalg.norm(pts, axis=-1))) <= 1.5
    assert np.array_equal(pts, eu.sample(7, 64, 1.5))
    assert not np.array_equal(pts, eu.sample(8, 64, 1.5))


# ---------------------------------------------------------------------------
# Dihedral quandle


def test_dihedral_cayley_table():
    dq = make_dihedral_quandle(5)
    x = np.repeat(np.arange(5), 5).reshape(5, 5)
    u = np.tile(np.arange(5), 5).reshape(5, 5)
    table = dq.star(x, u)
    assert table.tolist() == [[0, 4, 3, 2, 1],
                              [2, 1, 0, 4, 3],
                              [4, 3, 2, 1, 0],
                              [1, 0, 4, 3, 2],
                              [3, 2, 1, 0, 4]]
    # star is its own inverse, so back is the same table.
    assert np.array_equal(dq.back(x, u), table)


def test_dihedral_divide_odd_levels():
    dq = make_dihedral_quandle(5)
    a = np.repeat(np.arange(5), 5)
    b = np.tile(np.arange(5), 5)
    # 2^-1 = 3 mod 5, so y = 3 (a + b) mod 5.
    y = dq.divide(1, b, a)
    assert np.array_equal(y, np.mod(3 * (a + b), 5))
    assert np.array_equal(dq.star(y, a), b)
    for k in (-3, 3):
        assert np.array_equal(dq.star(dq.divide(k, b, a), a), b)


def test_dihedral_divide_unsupported_cases():
    dq = make_dihedral_quandle(5)
    with pytest.raises(UnsupportedCarrierError):
        dq.divide(2, 1, 0)
    even = make_dihedral_quandle(6)
    with pytest.raises(UnsupportedCarrierError):
        even.divide(1, 1, 0)


def test_dihedral_flags_and_errors():
    dq = make_dihedral_quandle(7)
    assert dq.name == "dihedral7"
    assert dq.size == 7 and dq.is_exact and not dq.is_uniform
    assert dq.dim is None and dq.layer_dims is None
    assert dq.metric(3, 3) == 0.0 and dq.metric(3, 4) == 1.0
    pts = dq.sample(0, 50, 2.0)
    assert pts.shape == (50,) and pts.min() >= 0 and pts.max() < 7
    with pytest.raises(CarrierConstructionError):
        make_dihedral_quandle(2)


# ---------------------------------------------------------------------------
# Heisenberg group


def test_heisenberg_mul_frozen_value():
    # (1,2,3)(4,5,6): c = 3 + 6 + (1*5 - 4*2)/2 = 9 - 3/2.
    ops = make_heisenberg(0.5).group
    for mul, inv in ((heis_mul, heis_inv), (ops.mul, ops.inv)):
        assert np.allclose(mul([1, 2, 3], [4, 5, 6]), [5.0, 7.0, 7.5])
        assert np.allclose(inv([1.0, -2.0, 0.5]), [-1.0, 2.0, -0.5])


def _heis_mat(p):
    m = np.zeros((3, 3))
    m[0, 1], m[1, 2], m[0, 2] = p[0], p[1], p[2]
    return m


def test_heisenberg_mul_matches_matrix_exponential():
    # Oracle: the 3x3 unipotent representation, multiplied with expm and
    # read back with logm, checks both the written-out law and the carrier.
    mul = make_heisenberg(0.5).group.mul
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(25):
        p, q = rng.uniform(-1.5, 1.5, 3), rng.uniform(-1.5, 1.5, 3)
        L = np.real(logm(expm(_heis_mat(p)) @ expm(_heis_mat(q))))
        via_matrices = np.array([L[0, 1], L[1, 2], L[0, 2]])
        worst = max(worst, float(np.max(np.abs(via_matrices - heis_mul(p, q)))),
                    float(np.max(np.abs(via_matrices - mul(p, q)))))
    assert worst <= 1e-12


def test_heisenberg_dilation_is_morphism():
    heis = make_heisenberg(0.5)
    ops = heis.group
    assert ops.is_morphism
    rng = np.random.default_rng(3)
    p = rng.uniform(-2, 2, size=(40, 3))
    q = rng.uniform(-2, 2, size=(40, 3))
    lhs = ops.power(1, heis_mul(p, q))
    rhs = heis_mul(ops.power(1, p), ops.power(1, q))
    assert float(np.max(np.abs(lhs - rhs))) <= 1e-14


def test_heisenberg_metric_and_sampler():
    heis = make_heisenberg(0.5)
    assert float(heis.metric(np.zeros(3), [3.0, 4.0, 12.0])) == 12.0
    assert float(heis.metric(np.zeros(3), [3.0, 4.0, 0.0])) == 5.0
    pts = heis.sample(11, 80, 2.0)
    assert pts.shape == (80, 3)
    assert float(np.max(heis.metric(np.zeros(3), pts))) <= 2.0
    assert np.array_equal(pts, heis.sample(11, 80, 2.0))
    with pytest.raises(CarrierConstructionError):
        make_heisenberg(1.5)


# ---------------------------------------------------------------------------
# Carnot groups from structure constants


def _engel_mat(p):
    shift = np.zeros((4, 4))
    shift[0, 1] = shift[1, 2] = shift[2, 3] = 1.0
    reps = [shift, np.zeros((4, 4)), np.zeros((4, 4)), np.zeros((4, 4))]
    reps[1][2, 3] = 1.0
    reps[2][1, 3] = 1.0
    reps[3][0, 3] = 1.0
    return sum(float(c) * m for c, m in zip(p, reps))


def test_engel_bch_matches_matrix_exponential():
    # Oracle: a faithful 4x4 nilpotent representation with [r0, r1] = r2,
    # [r0, r2] = r3 and all other brackets zero, multiplied with expm.
    mul = bch_product(engel_algebra())
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(25):
        p, q = rng.uniform(-1.5, 1.5, 4), rng.uniform(-1.5, 1.5, 4)
        L = np.real(logm(expm(_engel_mat(p)) @ expm(_engel_mat(q))))
        # The log lands back in the subalgebra span: the (0, 2) slot stays
        # empty and the two copies of the r0 coefficient agree.
        assert abs(L[0, 2]) <= 1e-10
        assert abs(L[0, 1] - L[1, 2]) <= 1e-10
        via_matrices = np.array([L[0, 1], L[2, 3] - L[0, 1], L[1, 3], L[0, 3]])
        worst = max(worst, float(np.max(np.abs(via_matrices - mul(p, q)))))
    assert worst <= 1e-12


def test_carnot_heisenberg_matches_hand_coded():
    heis = make_heisenberg(0.5)
    assert heis.name == "heisenberg" and heis.layer_dims == (2, 1)
    assert make_carnot(heisenberg_algebra(), 0.5).name == "carnot-step2"
    pts = heis.sample(3, 40, 2.0)
    x, u = pts[:20], pts[20:]
    # x * u = x delta(x^-1 u) with the law written out: the BCH product of
    # heisenberg_algebra() rounds exactly like it.
    for level, op in ((1, heis.star), (-1, heis.back)):
        want = heis_mul(x, heis_dilate(0.5, level, heis_mul(heis_inv(x), u)))
        assert np.array_equal(op(x, u), want)
    # The metric is the layer-max norm of x^-1 u, up to hypot rounding.
    g = heis_mul(heis_inv(x), u)
    want = np.maximum(np.hypot(g[:, 0], g[:, 1]), np.abs(g[:, 2]))
    assert float(np.max(np.abs(heis.metric(x, u) - want))) <= 1e-15


def _filiform4_algebra():
    return GradedLieAlgebra.from_brackets(
        (2, 1, 1, 1), [(0, 1, {2: 1.0}), (0, 2, {3: 1.0}), (0, 3, {4: 1.0})])


def _bracket_by_definition(alg, x, y):
    # [x, y]_k = sum_ij x_i y_j C[i, j, k], summed over the nonzero C only.
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float),
                               np.asarray(y, dtype=float))
    out = np.zeros(x.shape)
    for i, j, k in zip(*np.nonzero(alg.structure)):
        out[..., k] += x[..., i] * y[..., j] * alg.structure[i, j, k]
    return out


@pytest.mark.parametrize("alg", [heisenberg_algebra(), engel_algebra(),
                                 _filiform4_algebra()],
                         ids=["heisenberg", "engel", "filiform4"])
def test_bracket_matches_structure_constants(alg):
    rng = np.random.default_rng(6)
    n, b = alg.dim, 7
    one, batch, other = (rng.uniform(-2, 2, n), rng.uniform(-2, 2, (b, n)),
                         rng.uniform(-2, 2, (b, n)))
    for x, y, shape in ((one, batch, (b, n)), (batch, one, (b, n)),
                        (batch, other, (b, n)), (one, one, (n,))):
        got = alg.bracket(x, y)
        assert got.shape == shape
        # Each output coordinate of these algebras has one pair (i, j) at
        # unit coefficient, x_i y_j - x_j y_i: the pair form and the sum
        # over every nonzero C both round the two products and their
        # difference once each, so they agree bit for bit.
        assert np.array_equal(got, _bracket_by_definition(alg, x, y))
    for x, y in ((np.ones(n + 1), one), (batch, batch[:, :-1])):
        with pytest.raises(ValueError, match="dimension"):
            alg.bracket(x, y)


def _random_step2(seed, d1, d2, empty_last):
    # Every antisymmetric V1 x V1 -> V2 bracket is a Lie bracket: all triple
    # brackets land in V3 = 0, so Jacobi holds.  Coefficients mix 0, +-1
    # and arbitrary values, so coordinates carry several terms, non-unit
    # coefficients, or (the last one, when asked) no term at all.
    rng = np.random.default_rng(seed)
    n = d1 + d2
    entries = []
    for i in range(d1):
        for j in range(i + 1, d1):
            coeffs = {}
            for k in range(d1, n - 1 if empty_last else n):
                r = rng.random()
                if r >= 0.25:
                    coeffs[k] = (1.0 if r < 0.45 else -1.0 if r < 0.55
                                 else float(rng.uniform(-2, 2)))
            entries.append((i, j, coeffs))
    return GradedLieAlgebra.from_brackets((d1, d2), entries)


def _bch_written_out(alg, x, y):
    # The truncated BCH series term by term: one bracket per term.
    br = alg.bracket
    c1 = br(x, y)
    z = x + y + 0.5 * c1
    xc = br(x, c1)
    z = z + (xc - br(y, c1)) / 12.0
    if alg.step >= 4:
        z = z - br(y, xc) / 24.0
    return z


@pytest.mark.parametrize("alg", [
    engel_algebra(),
    # The free step-3 algebra on two generators.
    GradedLieAlgebra.from_brackets(
        (2, 1, 2), [(0, 1, {2: 1.0}), (0, 2, {3: 1.0}), (1, 2, {4: 1.0})]),
    GradedLieAlgebra.from_brackets(
        (2, 1, 1, 1), [(0, 1, {2: 1.0}), (0, 2, {3: 1.0}), (0, 3, {4: 1.0})]),
], ids=["engel", "free3", "filiform"])
def test_bch_folded_tail_matches_written_out_series(alg):
    # bch_product folds the tail's brackets by bilinearity.  A layer-j
    # coordinate of the product is a sum of terms of size up to r^j, with r
    # the larger homogeneous size max(1, |x_i|^(1/deg i)) of the two
    # factors; in units of the spacing of r^j the two forms differ by at
    # most 2 over 200,000 rows at scales 0.2-20 per algebra.  Bound: 16.
    mul = bch_product(alg)
    deg = alg.degrees
    for seed in range(20):
        rng = np.random.default_rng(seed)
        x, y = (rng.uniform(-2, 2, (2, 500, alg.dim))
                * 10.0 ** rng.uniform(-1, 1, (2, 500, 1)))
        size = np.abs(np.concatenate([x, y], axis=-1)) ** (
            1.0 / np.concatenate([deg, deg]))
        r = np.maximum(1.0, np.max(size, axis=-1, keepdims=True))
        ulps = np.abs(mul(x, y) - _bch_written_out(alg, x, y)) / np.spacing(
            r ** deg)
        assert float(np.max(ulps)) <= 16.0, (seed, float(np.max(ulps)))


def _bracket_pair_by_pair(alg, x, y):
    # Output coordinate k adds c (x_i y_j - x_j y_i) over its pairs i < j
    # with c = C[i, j, k] != 0, in ascending order, starting from the first.
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float),
                               np.asarray(y, dtype=float))
    out = np.zeros(x.shape)
    n = alg.dim
    for k in range(n):
        acc = None
        for i in range(n):
            for j in range(i + 1, n):
                c = alg.structure[i, j, k]
                if c != 0:
                    term = (x[..., i] * y[..., j] - x[..., j] * y[..., i]) * c
                    acc = term if acc is None else acc + term
        if acc is not None:
            out[..., k] = acc
    return out


@settings(deadline=None, max_examples=60)
@given(seed=st.integers(0, 2**32 - 1), d1=st.integers(2, 4),
       d2=st.integers(1, 3), empty_last=st.booleans())
def test_bracket_rounds_pair_by_pair_in_any_batch(seed, d1, d2, empty_last):
    alg = _random_step2(seed, d1, d2, empty_last)
    rng = np.random.default_rng([seed, 1])
    # Rows at scales from 1e-3 to 1e3; continuous draws make an exactly
    # zero pair term, whose sign could differ, a null event.
    x, y = (rng.uniform(-2, 2, (2, 300, alg.dim))
            * 10.0 ** rng.uniform(-3, 3, (2, 300, 1)))
    got = alg.bracket(x, y)
    assert got.shape == (300, alg.dim)
    assert got.tobytes() == _bracket_pair_by_pair(alg, x, y).tobytes()
    # Batches of several sizes, single rows, and one row broadcast against
    # a batch all round each row alike.
    for b in (1, 8, 64, 65, 300):
        assert alg.bracket(x[:b], y[:b]).tobytes() == got[:b].tobytes()
    for r in (0, 63, 64, 299):
        assert alg.bracket(x[r], y[r]).tobytes() == got[r].tobytes()
    one = alg.bracket(x[0], y[:65])
    for r in (0, 64):
        assert one[r].tobytes() == alg.bracket(x[0], y[r]).tobytes()
    _assert_near_dense(alg, x, y, got)


def _assert_near_dense(alg, x, y, got):
    # Against the dense sum over all (i, j).  On a coordinate with p pairs
    # and S = sum |x_i y_j C_ijk|, the dense sum errs by at most
    # (2p + 1) u S and the pair form by (p + 3) u S, with u = eps / 2 the
    # unit roundoff; their gap of at most (3p + 4) u S is allowed twice.
    c = alg.structure
    dense = np.einsum("...i,...j,ijk->...k", x, y, c)
    scale = np.einsum("...i,...j,ijk->...k", np.abs(x), np.abs(y), np.abs(c))
    pairs = np.count_nonzero(c, axis=(0, 1)) // 2
    bound = (3 * pairs + 4) * np.finfo(float).eps * scale
    assert np.all(np.abs(got - dense) <= bound)


def test_bracket_reads_the_stored_antisymmetric_part():
    # Constants antisymmetric only to within the construction tolerance:
    # a [e1, e0] off by 2e-13, a diagonal [e0, e0] entry, and a [e2, e1]
    # whose mirror [e1, e2] is exactly 0.  The algebra stores the
    # antisymmetric part, and the bracket evaluates that stored structure.
    c = engel_algebra().structure.copy()
    c[1, 0, 2] += 2e-13
    c[0, 0, 2] = 3e-13
    c[2, 1, 3] = 5e-13
    alg = GradedLieAlgebra((2, 1, 1), c)
    assert np.array_equal(alg.structure, -alg.structure.transpose(1, 0, 2))
    assert alg.structure[1, 2, 3] == -2.5e-13
    x, y = np.random.default_rng(8).uniform(-2, 2, (2, 50, alg.dim))
    _assert_near_dense(alg, x, y, alg.bracket(x, y))
    # Exactly antisymmetric constants are stored bit for bit.
    exact = engel_algebra()
    assert np.array_equal(GradedLieAlgebra((2, 1, 1), exact.structure).structure,
                          exact.structure)


def test_bracket_single_layer_is_zero():
    alg = GradedLieAlgebra((3,), np.zeros((3, 3, 3)))
    x = np.array([1.0, np.nan, np.inf])
    for a, b, shape in ((x, x, (3,)), (x, np.ones((5, 3)), (5, 3)),
                        (np.ones((2, 1, 3)), np.ones((4, 3)), (2, 4, 3))):
        got = alg.bracket(a, b)
        assert got.shape == shape
        assert np.array_equal(got, np.zeros(shape))


def test_bracket_non_finite_reaches_only_its_pairs():
    # Engel: coordinate 2 is [e0, e1], coordinate 3 is [e0, e2]; layer 1
    # stays exactly 0.  (The dense form spread a NaN to every coordinate
    # through NaN * 0.)
    alg = engel_algebra()
    y = np.array([0.5, -1.5, 2.0, 0.25])
    for bad, reach in ((2, [3]), (1, [2]), (0, [2, 3]), (3, [])):
        for value in (np.nan, np.inf):
            x = np.array([1.0, 2.0, -0.5, 3.0])
            x[bad] = value
            got = alg.bracket(x, y)
            assert np.flatnonzero(~np.isfinite(got)).tolist() == reach
            assert np.array_equal(got[:2], [0.0, 0.0])
    # A coordinate with fewer pairs than the widest is padded with the
    # pair (0, 0), which reads e0: here coordinate 4 has one pair, (1, 2),
    # and a NaN at e0 reaches it through the padding.
    alg = GradedLieAlgebra.from_brackets(
        (3, 2), [(0, 1, {3: 1.0}), (0, 2, {3: 2.0}), (1, 2, {4: 1.0})])
    x = np.array([np.nan, 1.0, 2.0, 0.0, 0.0])
    assert np.isnan(alg.bracket(x, np.ones(5))[3:]).all()
    # Coordinate 3 is (1 - 2) + 2 (1 - 3), coordinate 4 is (2 - 3) + 0;
    # the layer-2 entries of x are read by no pair.
    assert np.array_equal(
        alg.bracket(np.array([1.0, 2.0, 3.0, np.nan, np.inf]), np.ones(5)),
        [0.0, 0.0, 0.0, -5.0, -1.0])


def _spec(layers, entries):
    return {"layers": list(layers),
            "brackets": [{"i": i, "j": j,
                          "coeffs": {str(k): v for k, v in coeffs.items()}}
                         for i, j, coeffs in entries]}


@settings(deadline=None, max_examples=60)
@given(seed=st.integers(0, 2**32 - 1), d1=st.integers(2, 4),
       d2=st.integers(1, 3), kind=st.sampled_from(["low", "high", "jacobi"]))
def test_make_carnot_rejects_broken_algebras(seed, d1, d2, kind):
    rng = np.random.default_rng(seed)
    n = d1 + d2
    base = _random_step2(seed, d1, d2, False)
    entries = [(i, j, {k: float(base.structure[i, j, k])
                       for k in range(n) if base.structure[i, j, k] != 0})
               for i in range(d1) for j in range(i + 1, d1)]
    if kind == "low":
        # [V1, V1] reaching back into V1.
        entries[0][2][int(rng.integers(d1))] = float(rng.uniform(0.5, 2))
        layers, match = (d1, d2), "grading"
    elif kind == "high":
        # [V1, V2] nonzero in a step-2 algebra, where it must vanish.
        entries.append((int(rng.integers(d1)), int(rng.integers(d1, n)),
                        {int(rng.integers(n)): 1.0}))
        layers, match = (d1, d2), "grading"
    else:
        # Step 3 with three generators: [e0, e1] = e_d1 and
        # [e2, e_d1] = e_n leave [e0,[e1,e2]] + [e1,[e2,e0]] + [e2,[e0,e1]]
        # = e_n, whatever the other V1 brackets are; [e0, e_d1] and
        # [e1, e_d1] stay zero.
        assume(d1 >= 3)
        entries[0][2].clear()
        entries[0][2][d1] = 1.0
        entries.append((2, d1, {n: float(rng.uniform(0.5, 2))}))
        layers, match = (d1, d2, 1), "Jacobi"
    # The term table is built only once the algebra has passed every check.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(GradedLieAlgebra, "_build_terms", _never)
        with pytest.raises(CarrierConstructionError, match=match):
            make_carnot(_spec(layers, entries), 0.5)
        with pytest.raises(CarrierConstructionError, match=match):
            make_carnot(json.dumps(_spec(layers, entries)), 0.5)


def _never(self):
    raise AssertionError("term table built for an invalid algebra")


@settings(deadline=None, max_examples=40)
@given(eps=st.floats(0.05, 0.95), seed=st.integers(0, 2**32 - 1),
       m=st.integers(1, 8))
def test_heisenberg_carrier_matches_written_out_law(eps, seed, m):
    # Relative, not exact: eps ** (degrees * m) and the reciprocal-based
    # inverse dilation may round differently from eps**m, eps**(2m).
    def close(got, want):
        np.testing.assert_allclose(got, want, rtol=1e-12,
                                   atol=1e-12 * float(np.max(np.abs(want))))

    heis = make_heisenberg(eps)
    rng = np.random.default_rng(seed)
    x, u = rng.uniform(-2, 2, (2, 16, 3))
    for level, op in ((1, heis.star), (-1, heis.back)):
        close(op(x, u),
              heis_mul(x, heis_dilate(eps, level, heis_mul(heis_inv(x), u))))
    for power in (m, -m):
        close(heis.group.power(power, u), heis_dilate(eps, power, u))


def test_engel_carrier_flags():
    en = make_engel(0.5)
    assert en.name == "engel"
    assert en.dim == 4 and en.layer_dims == (2, 1, 1)
    assert en.is_uniform and en.group.is_morphism
    pts = en.sample(5, 60, 2.0)
    assert pts.shape == (60, 4)
    assert float(np.max(en.metric(np.zeros(4), pts))) <= 2.0
    assert np.array_equal(pts, en.sample(5, 60, 2.0))


def test_dilation_scales_layers():
    alg = engel_algebra()
    assert np.array_equal(alg.degrees, [1, 1, 2, 3])
    d = dilation(alg, 0.5)
    assert np.allclose(d([1.0, 1.0, 1.0, 1.0]), [0.5, 0.5, 0.25, 0.125])


def test_norms():
    assert float(layer_max_norm((2, 1), np.array([3.0, 4.0, 12.0]))) == 12.0
    assert float(layer_max_norm((2, 1), np.array([3.0, 4.0, 2.0]))) == 5.0
    heis = make_heisenberg(0.5)
    assert float(homogeneous_norm(heis, np.array([3.0, 4.0, 0.0]))) == 5.0
    assert float(homogeneous_norm(heis, np.array([0.0, 0.0, 4.0]))) == 2.0
    # The quasinorm is exactly homogeneous under the dilations: star at the
    # neutral element applies delta once.
    g = np.array([0.7, -1.2, 0.9])
    scaled = heis.star(np.zeros(3), g)
    assert float(homogeneous_norm(heis, scaled)) == 0.5 * float(
        homogeneous_norm(heis, g))
    with pytest.raises(UnsupportedCarrierError):
        homogeneous_norm(make_hyperbolic(0.5), np.array([0.0, 1.0]))


def test_graded_algebra_validation():
    # Antisymmetry.
    c = np.zeros((2, 2, 2))
    c[0, 1, 0] = 1.0
    with pytest.raises(CarrierConstructionError, match="antisymmetry"):
        GradedLieAlgebra((2,), c)
    # Grading: [e0, e1] of degree 1+1 may not land in degree 1.
    c = np.zeros((3, 3, 3))
    c[0, 1, 1] = 1.0
    c[1, 0, 1] = -1.0
    with pytest.raises(CarrierConstructionError, match="grading"):
        GradedLieAlgebra((2, 1), c)
    # Jacobi: [e0,[e2,e3]] + [e2,[e3,e0]] + [e3,[e0,e2]] must vanish.
    with pytest.raises(CarrierConstructionError, match="Jacobi"):
        GradedLieAlgebra.from_brackets(
            (3, 1, 1), [(0, 1, {3: 1.0}), (0, 3, {4: 1.0}), (2, 3, {4: 1.0})])
    # Step cap, shape, layer dims, finiteness.
    with pytest.raises(CarrierConstructionError, match="step"):
        GradedLieAlgebra((1, 1, 1, 1, 1), np.zeros((5, 5, 5)))
    with pytest.raises(CarrierConstructionError, match="shape"):
        GradedLieAlgebra((2, 1), np.zeros((2, 2, 2)))
    with pytest.raises(CarrierConstructionError):
        GradedLieAlgebra((0, 1), np.zeros((1, 1, 1)))
    bad = np.zeros((3, 3, 3))
    bad[0, 1, 2] = np.inf
    with pytest.raises(CarrierConstructionError, match="finite"):
        GradedLieAlgebra((2, 1), bad)


def test_from_brackets_validation():
    with pytest.raises(CarrierConstructionError, match="vanish"):
        GradedLieAlgebra.from_brackets((2, 1), [(0, 0, {2: 1.0})])
    with pytest.raises(CarrierConstructionError, match="duplicate"):
        GradedLieAlgebra.from_brackets(
            (2, 1), [(0, 1, {2: 1.0}), (1, 0, {2: -1.0})])
    with pytest.raises(CarrierConstructionError, match="out of range"):
        GradedLieAlgebra.from_brackets((2, 1), [(0, 5, {2: 1.0})])
    with pytest.raises(CarrierConstructionError, match="out of range"):
        GradedLieAlgebra.from_brackets((2, 1), [(0, 1, {7: 1.0})])


def test_load_algebra_roundtrip(tmp_path):
    spec = {"layers": [2, 1],
            "brackets": [{"i": 0, "j": 1, "coeffs": {"2": 1.0}}]}
    want = heisenberg_algebra()
    for source in (spec,
                   '{"layers": [2, 1], "brackets": '
                   '[{"i": 0, "j": 1, "coeffs": {"2": 1.0}}]}'):
        alg = load_algebra(source)
        assert alg.layer_dims == want.layer_dims
        assert np.array_equal(alg.structure, want.structure)
    path = tmp_path / "heis.json"
    path.write_text('{"layers": [2, 1], "brackets": '
                    '[{"i": 0, "j": 1, "coeffs": {"2": 1.0}}]}')
    alg = load_algebra(path)
    assert np.array_equal(alg.structure, want.structure)


def test_load_algebra_errors():
    with pytest.raises(CarrierConstructionError, match="no algebra file"):
        load_algebra("/nonexistent/algebra.json")
    with pytest.raises(CarrierConstructionError, match="bad algebra JSON"):
        load_algebra("{not json")
    with pytest.raises(CarrierConstructionError, match="JSON object"):
        load_algebra([1, 2])
    with pytest.raises(CarrierConstructionError, match="unknown algebra keys"):
        load_algebra({"layers": [1], "extra": 1})
    with pytest.raises(CarrierConstructionError, match="layers"):
        load_algebra({"brackets": []})
    with pytest.raises(CarrierConstructionError, match=r"brackets\[0\]"):
        load_algebra({"layers": [2, 1], "brackets": [{"i": 0, "j": 1,
                                                      "weird": {}}]})
    with pytest.raises(CarrierConstructionError, match=r"brackets\[1\]"):
        load_algebra({"layers": [2, 1],
                      "brackets": [{"i": 0, "j": 1, "coeffs": {"2": 1.0}},
                                   {"i": 0, "j": 1, "coeffs": {"2": "x"}}]})
    # Layers that are not a list of ints, and brackets that are not a
    # list, raise CarrierConstructionError rather than TypeError or
    # ValueError.
    for spec, match in [({"layers": 3}, "layers list"),
                        ({"layers": "21"}, "layers list"),
                        ({"layers": ["x"]}, "layer dims"),
                        ({"layers": [2.5]}, "layer dims"),
                        ({"layers": [2, 1], "brackets": 3}, "brackets list"),
                        ({"layers": [2, 1], "brackets": {"i": 0}},
                         "brackets list")]:
        with pytest.raises(CarrierConstructionError, match=match):
            load_algebra(spec)
    for layers in (3, ["x"], ["2"], (2.5, 1)):
        with pytest.raises(CarrierConstructionError, match="layer dims"):
            GradedLieAlgebra.from_brackets(layers, [])
    # Integral floats, as JSON may give them, read as ints.
    alg = load_algebra({"layers": [2.0, 1],
                        "brackets": [{"i": 0, "j": 1, "coeffs": {"2": 1.0}}]})
    assert alg.layer_dims == (2, 1)
    assert np.array_equal(alg.structure, heisenberg_algebra().structure)


# ---------------------------------------------------------------------------
# Perturbed plane


def test_perturbed_delta_roundtrip():
    pert = make_perturbed_plane(0.5, 0.1)
    assert pert.is_uniform and not pert.group.is_morphism
    assert pert.epsilon == 0.6
    rng = np.random.default_rng(6)
    p = rng.uniform(-2, 2, size=(50, 2))
    ops = pert.group
    assert float(np.max(np.abs(ops.power(-1, ops.power(1, p)) - p))) <= 1e-13
    assert float(np.max(np.abs(ops.power(1, ops.power(-1, p)) - p))) <= 1e-13
    # Composed with the group translation: star then back is the identity.
    x = rng.uniform(-2, 2, size=(50, 2))
    assert float(np.max(pert.metric(pert.back(x, pert.star(x, p)),
                                    p))) <= 1e-13


@settings(deadline=None, max_examples=200)
@given(eps=st.floats(0.05, 0.95), ratio=st.floats(1e-3, 0.98),
       log_scale=st.floats(-12, 1), rows=st.sampled_from([None, 1, 7, 100]),
       seed=st.integers(0, 2**32 - 1))
# Full Newton steps wander here for more than 50 iterations; only the
# backtracking on the residual brings them in.
@example(eps=0.5, ratio=0.98, log_scale=-1.0, rows=100, seed=7)
def test_perturbed_delta_inverse_solves_delta(eps, ratio, log_scale, rows,
                                              seed):
    # eta = ratio * min(eps, 1 - eps) keeps 0 < eta < eps, eps + eta < 1 and
    # eta/eps <= 0.98, where the Jacobian's condition number
    # (eps + eta)/(eps - eta) reaches 99.  The inverse stops once its Newton
    # step is within 1e-15 times that condition number of |x|; the worst
    # relative residual over 6000 random draws of this domain was 1.3e-14,
    # so 1e-12 leaves a margin near 100, while an inverse that stops short
    # of convergence near eta/eps = 0.98 misses it by orders of magnitude.
    eta = ratio * min(eps, 1.0 - eps)
    ops = make_perturbed_plane(eps, eta).group
    shape = (2,) if rows is None else (rows, 2)
    q = np.random.default_rng(seed).uniform(-1, 1, shape) * 10.0 ** log_scale
    scale = float(np.max(np.abs(q)))
    np.testing.assert_allclose(ops.delta(ops.delta_inv(q)), q, rtol=0,
                               atol=1e-12 * scale)
    # The inverse judges each slice of its input's leading axis on its own,
    # and a single point is one slice, as GroupOps.power hands it over.
    if rows is None:
        assert ops.delta_inv(q).tobytes() == ops.power(-1, q).tobytes()
        return
    stack = q * np.array([1.0, 0.5, 1e-3])[:, None, None]
    stack[1, 0, 0] = np.nan
    want = np.stack([ops.power(-1, s) for s in stack])
    assert ops.delta_inv(stack).tobytes() == want.tobytes()


@settings(deadline=None, max_examples=100)
@given(eps=st.floats(0.05, 0.95), ratio=st.floats(1e-3, 0.98),
       log_scale=st.floats(-6, 1), lowest=st.integers(1, 5),
       count=st.integers(1, 6), sign=st.sampled_from([1, -1]),
       rows=st.sampled_from([None, 1, 7, 40]), nan_row=st.booleans(),
       spare=st.booleans(), seed=st.integers(0, 2**32 - 1))
# Rows near unit size with eta close to eps: inverting the block of
# distinct per-level points, some levels' first Newton steps exceed the
# full-step bound and backtrack while others do not, and the levels stop
# at different iterations.
@example(eps=0.5, ratio=0.98, log_scale=0.3, lowest=1, count=6, sign=1,
         rows=40, nan_row=True, spare=False, seed=7)
def test_perturbed_power_block_matches_each_level(eps, ratio, log_scale,
                                                  lowest, count, sign, rows,
                                                  nan_row, spare, seed):
    # A block of consecutive levels runs as one chain whose Newton inverse
    # judges each level on its own: every level must come out byte for byte
    # as its one-level power, also when the input already carries the
    # levels (a second power on the block, as the stable level forms do).
    # The levels come shaped (B,) + (1,) * g.ndim, as core._at_levels
    # passes them, or with a spare axis after the level axis.
    eta = ratio * min(eps, 1.0 - eps)
    ops = make_perturbed_plane(eps, eta).group
    shape = (2,) if rows is None else (rows, 2)
    g = np.random.default_rng(seed).uniform(-1, 1, shape) * 10.0 ** log_scale
    if nan_row and rows is not None:
        g[-1, 0] = np.nan
    ks = sign * np.arange(lowest, lowest + count)
    m = ks.reshape((-1,) + (1,) * (g.ndim + spare))
    block = ops.power(m, g)
    back = ops.power(-m, block)
    assert block.shape == back.shape == m.shape[:1 + spare] + g.shape
    block, back = (a.reshape((count,) + g.shape) for a in (block, back))
    for i, k in enumerate(ks):
        one = ops.power(int(k), g)
        assert block[i].tobytes() == one.tobytes()
        assert back[i].tobytes() == ops.power(-int(k), one).tobytes()
    if nan_row and rows is not None:
        # The non-finite row stays NaN; the others are finite.
        assert np.isnan(block[:, -1]).all()
        assert np.isfinite(block[:, :-1]).all()


def test_perturbed_delta_inverse_non_finite():
    ops = make_perturbed_plane(0.5, 0.1).group
    q = np.array([[np.nan, 1.0], [0.3, -0.2], [np.inf, 0.0]])
    x = ops.delta_inv(q)
    # Rows without a preimage come back NaN; the others are inverted.
    assert np.isnan(x[[0, 2]]).all()
    assert np.allclose(ops.delta(x[1]), q[1], rtol=0, atol=1e-15)
    # A preimage beyond the float range raises instead of returning a point.
    with np.errstate(all="ignore"), pytest.raises(NonConvergenceError):
        ops.delta_inv(np.array([1e308, 0.0]))


def test_perturbed_construction_errors():
    with pytest.raises(CarrierConstructionError):
        make_perturbed_plane(0.5, 0.5)
    with pytest.raises(CarrierConstructionError):
        make_perturbed_plane(0.7, 0.3)
    with pytest.raises(CarrierConstructionError):
        make_perturbed_plane(1.2, 0.1)
    with pytest.raises(CarrierConstructionError):
        make_perturbed_plane(0.5, -0.1)


def test_carriers_compare_and_hash_by_identity():
    # A carrier, its group and its algebra hold arrays, so value equality
    # would be ambiguous; each compares and hashes by identity.
    alg = heisenberg_algebra()
    heis = make_carnot(alg, 0.5)
    twin = make_carnot(alg, 0.5)
    for one, other in ((alg, heisenberg_algebra()), (heis, twin),
                       (heis.group, twin.group)):
        assert one == one and one != other
        assert hash(one) == hash(one)
        assert len({one, other}) == 2


def test_group_irq_rejects_delta_moving_neutral():
    with pytest.raises(CarrierConstructionError, match="neutral"):
        make_group_irq(_additive_group(1), lambda g: g + 1.0,
                       lambda g: g - 1.0, name="shifted")
    # The chart checks it, so carriers built on a bare Chart (hyperbolic,
    # dihedral) are held to it too.
    with pytest.raises(CarrierConstructionError, match="neutral"):
        Chart(_additive_group(
            2, delta_power=lambda m, g: np.asarray(g, dtype=float) + m))


def test_group_irq_reads_delta_facts_from_its_group():
    # make_group_irq keeps the closed-form power and the morphism flag that
    # its GroupOps states, and its level star runs through that power (the
    # chart's first call, at 1, checks that delta fixes the neutral element).
    calls = []

    def delta_power(m, g):
        calls.append(m)
        return 0.5 ** m * np.asarray(g, dtype=float)

    group = _additive_group(2, delta_power=delta_power, is_morphism=True)
    irq = make_group_irq(group, lambda g: 0.5 * np.asarray(g, dtype=float),
                         lambda g: 2.0 * np.asarray(g, dtype=float),
                         name="stated", epsilon=0.5)
    assert irq.group.delta_power is delta_power and irq.group.is_morphism
    x, u = np.array([1.0, -1.0]), np.array([3.0, 1.0])
    assert np.array_equal(irq.level_star(3, x, u), x + 0.125 * (u - x))
    assert calls == [1, 3]


_FILIFORM4 = GradedLieAlgebra.from_brackets((2, 1, 1, 1), [
    (0, 1, {2: 1.0}), (0, 2, {3: 1.0}), (0, 3, {4: 1.0})])

# Every bundled carrier with its dimension, uniformity and exactness.
CARRIER_FACTS = [
    (build_carrier("euclidean"), 1, True, False),
    (make_euclidean(3, 0.5), 3, True, False),
    (build_carrier("dihedral"), None, False, True),
    (make_dihedral_quandle(9), None, False, True),
    (make_heisenberg(0.5), 3, True, False),
    (make_engel(0.5), 4, True, False),
    (make_carnot(_FILIFORM4, 0.5), 5, True, False),
    (make_hyperbolic(0.5), 2, True, False),
    (make_perturbed_plane(), 2, True, False),
]


@pytest.mark.parametrize("irq,dim,uniform,exact", CARRIER_FACTS,
                         ids=[facts[0].name for facts in CARRIER_FACTS])
def test_carrier_facts_follow_from_its_fields(irq, dim, uniform, exact):
    # The dimension is the base point's last axis, a carrier is uniform
    # when it has an epsilon and exact when it has a size.
    assert irq.dim == dim and irq.is_uniform is uniform
    assert irq.is_exact is exact


# ---------------------------------------------------------------------------
# Hyperbolic upper half-plane


def test_hyperbolic_frozen_distances():
    # Along the vertical geodesic the distance is |log(y1/y0)|.
    assert abs(float(geodesic_distance([0.0, 1.0], [0.0, np.e])) - 1.0) <= 1e-15
    # Between (-1, 1) and (1, 1): 2 arcsinh(1) = arccosh(3).
    d = float(geodesic_distance([-1.0, 1.0], [1.0, 1.0]))
    assert abs(d - 2.0 * np.arcsinh(1.0)) <= 1e-15
    assert abs(d - 1.762747174039086) <= 1e-15


def test_hyperbolic_log_exp():
    p = np.array([0.0, 1.0])
    assert np.allclose(log_map(p, [0.0, np.e]), [0.0, 1.0], atol=1e-15)
    hyp = make_hyperbolic(0.5)
    q = hyp.sample(8, 40, 2.0)
    back = exp_map(p, log_map(p, q))
    assert float(np.max(np.abs(back - q))) <= 1e-12
    # The tangent length at p equals the distance (y_p = 1 here).
    v = log_map(p, q)
    assert np.allclose(np.hypot(v[..., 0], v[..., 1]),
                       geodesic_distance(p, q), atol=1e-12)


def test_hyperbolic_reflection():
    p = np.array([0.0, 1.0])
    assert np.allclose(reflect(p, [0.0, np.exp(2.0)]), [0.0, np.exp(-2.0)],
                       atol=1e-14)
    hyp = make_hyperbolic(0.5)
    pts = hyp.sample(9, 60, 1.5)
    x, q = pts[:30], pts[30:]
    # Involution and isometry.
    assert float(np.max(geodesic_distance(reflect(x, reflect(x, q)),
                                          q))) <= 1e-11
    a, b = pts[:30], pts[30:]
    c = hyp.sample(10, 30, 1.5)
    assert float(np.max(np.abs(geodesic_distance(reflect(c, a), reflect(c, b))
                               - geodesic_distance(a, b)))) <= 1e-11


def test_hyperbolic_star_contracts_and_divides():
    hyp = make_hyperbolic(0.5)
    pts = hyp.sample(12, 60, 1.5)
    x, u = pts[:30], pts[30:]
    assert float(np.max(np.abs(geodesic_distance(x, hyp.star(x, u))
                               - 0.5 * geodesic_distance(x, u)))) <= 1e-12
    for k in (1, 2, -1):
        y = hyp.divide(k, u, x)
        assert float(np.max(geodesic_distance(star_k(hyp, k, y, x),
                                              u))) <= 1e-10


def test_hyperbolic_exp_of_subnormal_tangent_stays_put():
    # A subnormal tangent vector moves no coordinate of p by an ulp; its
    # few bits cannot give a unit direction, and the circle formula then
    # landed 0.07 away.  star_k at eps = 0.01, k = 161 produces one.
    p = np.array([-0.09026503, 1.56091684])
    v = np.array([9.9e-324, -7.4e-323])
    assert np.array_equal(exp_map(p, v), p)
    hyp = make_hyperbolic(0.01)
    x, u = hyp.sample(0, 2, 0.5)
    assert float(geodesic_distance(star_k(hyp, 161, x, u), x)) == 0.0


def _chart_points(seed, count, largest):
    # Chart points (b, t) of norm 10^-300 up to ``largest``, every direction.
    rng = np.random.default_rng([seed, 11])
    r = 10.0 ** rng.uniform(-300.0, np.log10(largest), count)
    phi = rng.uniform(0.0, 2.0 * np.pi, count)
    return np.stack([r * np.cos(phi), r * np.sin(phi)], axis=-1)


def _chart_error(got, want):
    # Largest coordinate error relative to the chart norm of ``want``.
    return float(np.max(np.max(np.abs(got - want), axis=-1)
                        / np.hypot(want[..., 0], want[..., 1])))


def test_hyperbolic_polar_round_trip():
    # Measured worst over these 80,000 points, s up to 31.5 from i: the
    # round trip misses by 1.25e-15 of the chart norm, where 2.5e-14 leaves
    # a factor of 20, and the direction's length misses 1 by one ulp, where
    # two are allowed.  The point i itself goes there and back exactly.
    far = 0.0
    for seed in range(40):
        g = _chart_points(seed, 2000, 30.0)
        s, c, n = _polar(g)
        assert np.all(np.abs(np.hypot(c, n) - 1.0) <= 4.5e-16)
        assert _chart_error(_from_polar(s, c, n), g) <= 2.5e-14
        far = max(far, float(np.max(s)))
    assert far > 25.0
    assert np.array_equal(_from_polar(*_polar(np.zeros(2))), np.zeros(2))


def test_hyperbolic_dilation_powers_compose():
    # delta^m delta^n = delta^(m+n) at random eps and levels -3..6, on
    # points whose images stay within 30 of i.  Measured worst over these
    # draws: 9.1e-16 of the chart norm; 2e-14 leaves a factor of 22.
    for seed in range(40):
        rng = np.random.default_rng([seed, 12])
        eps = rng.uniform(0.05, 0.95)
        m, n = (int(j) for j in rng.integers(-3, 7, 2))
        g = _chart_points(seed, 500, 30.0)
        stretch = max(1.0, *(float(_level_power(eps, j))
                             for j in (m, n, m + n)))
        g = g[_polar(g)[0] * stretch <= 30.0]
        got = _scale(_scale(g, _level_power(eps, n)), _level_power(eps, m))
        assert _chart_error(got, _scale(g, _level_power(eps, m + n))) \
            <= 2e-14, (seed, eps, m, n)


def test_hyperbolic_level_star_metric_oracle():
    # For k > 0, w = x *_k u lies on the geodesic from x to u, eps^k of
    # the way: d(x, w) = eps^k d(x, u) and d(x, w) + d(w, u) = d(x, u).
    # Measured worst relative to d(x, u) over these draws: 5.5e-15 and
    # 4.9e-16; 1e-13 and 1e-14 leave factors of 18 and 20.
    for seed in range(20):
        eps = np.random.default_rng([seed, 12]).uniform(0.05, 0.95)
        hyp = make_hyperbolic(eps)
        pts = hyp.sample([seed, 12], 400, 2.0)
        x, u = pts[:200], pts[200:]
        d = geodesic_distance(x, u)
        for k in range(1, 7):
            w = star_k(hyp, k, x, u)
            dw = geodesic_distance(x, w)
            assert np.max(np.abs(dw - eps ** k * d) / d) <= 1e-13
            assert np.max(np.abs(dw + geodesic_distance(w, u) - d) / d) \
                <= 1e-14


def test_hyperbolic_point_validation():
    with pytest.raises(InvalidPointError):
        geodesic_distance([0.0, 1.0], [0.0, -1.0])
    with pytest.raises(InvalidPointError):
        geodesic_distance([0.0, 0.0], [0.0, 1.0])
    with pytest.raises(InvalidPointError):
        log_map([0.0, 1.0], [np.nan, 1.0])
    with pytest.raises(InvalidPointError):
        exp_map([0.0, 1.0], [np.inf, 0.0])
    with pytest.raises(InvalidPointError):
        geodesic_distance([0.0, 1.0, 2.0], [0.0, 1.0, 2.0])
    with pytest.raises(CarrierConstructionError):
        make_hyperbolic(0.0)


def test_hyperbolic_sampler_ball():
    hyp = make_hyperbolic(0.5)
    pts = hyp.sample(13, 100, 0.8)
    assert float(np.max(geodesic_distance(np.array([0.0, 1.0]),
                                          pts))) <= 0.8 + 1e-12
    assert np.array_equal(pts, hyp.sample(13, 100, 0.8))


# ---------------------------------------------------------------------------
# Registry


def test_carrier_registry_contents():
    reg = carrier_registry()
    assert sorted(reg) == ["carnot", "dihedral", "engel", "euclidean",
                           "heisenberg", "hyperbolic", "perturbed"]
    assert reg["euclidean"] == {"dim": 1, "epsilon": 0.5}
    assert reg["dihedral"] == {"n": 5}
    assert reg["carnot"] == {"algebra": None, "epsilon": 0.5}
    assert reg["perturbed"] == {"epsilon": 0.5, "eta": 0.1}


def test_build_carrier():
    eu = build_carrier("euclidean", {"dim": "3", "epsilon": "0.25"})
    assert eu.dim == 3 and eu.epsilon == 0.25
    heis = build_carrier("heisenberg")
    assert heis.name == "heisenberg" and heis.epsilon == 0.5
    carnot = build_carrier("carnot", {
        "algebra": '{"layers": [2, 1], "brackets": '
                   '[{"i": 0, "j": 1, "coeffs": {"2": 1.0}}]}'})
    assert carnot.layer_dims == (2, 1)
    with pytest.raises(CarrierConstructionError, match="unknown carrier"):
        build_carrier("octonion")
    with pytest.raises(CarrierConstructionError, match="unknown parameter"):
        build_carrier("euclidean", {"radius": 1})
    with pytest.raises(CarrierConstructionError, match="needs parameter"):
        build_carrier("carnot")
    with pytest.raises(CarrierConstructionError, match="bad value"):
        build_carrier("euclidean", {"dim": "many"})
