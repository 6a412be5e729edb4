"""Carnot groups from graded Lie algebra data.

A Carnot group of step m is encoded by a stratified nilpotent Lie algebra

    V = V_1 + ... + V_m,   [V_i, V_j] in V_{i+j}

given as layer dimensions plus structure constants.  Exponential
coordinates identify the group with V, the product is the
Baker-Campbell-Hausdorff series (finite here, exact through step 4),

    x y = x + y + 1/2 [x,y] + 1/12 [x,[x,y]] - 1/12 [y,[x,y]]
                - 1/24 [y,[x,[x,y]]]

and the dilations delta_eps, scaling layer i by eps^i, are group morphisms.
The carrier built from (algebra, eps) is the uniform irq
x * u = x delta_eps(x^-1 u) with the layer-max metric
d(x, y) = max_i ||layer_i(x^-1 y)||_2.

The homogeneous (quasi)norm ||g|| = max_i ||g_i||^(1/i) is also provided;
it scales exactly linearly under dilations but is kept separate from the
residual metric, whose fractional roots would amplify rounding noise.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from ..errors import CarrierConstructionError, UnsupportedCarrierError
from .group import GroupOps, make_group_irq

__all__ = [
    "GradedLieAlgebra",
    "load_algebra",
    "heisenberg_algebra",
    "engel_algebra",
    "bch_product",
    "dilation",
    "homogeneous_norm",
    "layer_max_norm",
    "make_carnot",
    "make_engel",
    "make_heisenberg",
]

MAX_STEP = 4


@dataclass(frozen=True, eq=False)
class GradedLieAlgebra:
    """Stratified nilpotent Lie algebra given by structure constants.

    ``structure[i, j, k]`` is the e_k coefficient of [e_i, e_j] in the flat
    basis ordered layer by layer.  Construction validates antisymmetry, the
    grading (which also forces nilpotency at the declared step) and the
    Jacobi identity, and rejects steps beyond :data:`MAX_STEP`, where the
    truncated product would stop being exact.  Algebras compare and hash
    by identity.
    """

    layer_dims: tuple[int, ...]
    structure: np.ndarray

    def __post_init__(self):
        dims = tuple(int(d) for d in self.layer_dims)
        if not dims or any(d < 1 for d in dims):
            raise CarrierConstructionError(
                f"layer dims must be positive integers, got {self.layer_dims}")
        if len(dims) > MAX_STEP:
            raise CarrierConstructionError(
                f"step {len(dims)} exceeds the supported maximum {MAX_STEP}")
        c = np.asarray(self.structure, dtype=float)
        n = sum(dims)
        if c.shape != (n, n, n):
            raise CarrierConstructionError(
                f"structure constants must have shape {(n, n, n)}, got {c.shape}")
        if not np.all(np.isfinite(c)):
            raise CarrierConstructionError("structure constants must be finite")
        object.__setattr__(self, "layer_dims", dims)

        atol = 1e-12 * max(1.0, float(np.max(np.abs(c))))
        anti = np.max(np.abs(c + c.transpose(1, 0, 2)))
        if anti > atol:
            raise CarrierConstructionError(
                f"antisymmetry fails: max |C[i,j] + C[j,i]| = {anti:.3e}")
        # Store the antisymmetric part, which the bracket's i < j terms
        # read; exactly antisymmetric constants keep their values.
        c = (c - c.transpose(1, 0, 2)) / 2
        c.flags.writeable = False
        object.__setattr__(self, "structure", c)
        deg = self.degrees
        bad = np.nonzero(np.abs(c) > 0)
        for i, j, k in zip(*bad):
            if deg[i] + deg[j] != deg[k]:
                raise CarrierConstructionError(
                    f"grading fails: [e{i}, e{j}] (degrees {deg[i]}+{deg[j]}) "
                    f"hits e{k} of degree {deg[k]}")
        jac = (np.einsum("bcm,amd->abcd", c, c)
               + np.einsum("cam,bmd->abcd", c, c)
               + np.einsum("abm,cmd->abcd", c, c))
        worst = float(np.max(np.abs(jac)))
        if worst > atol:
            raise CarrierConstructionError(
                f"Jacobi identity fails: max residual {worst:.3e}")
        self._build_terms()

    def _build_terms(self):
        # The bracket's term table.  Layer-1 coordinates of a bracket vanish
        # by the grading; output coordinate d1 + q of a higher layer is the
        # sum over its slots w of c[w, q] (x_i y_j - x_j y_i) with
        # (i, j) = pairs[w, q], its pairs i < j with C[i, j, k] != 0 in
        # ascending order.  Coordinates with fewer pairs than the widest
        # are padded with (0, 0) at coefficient 1, a term that is exactly 0
        # for finite input.  Slots are laid out slot-major, so slot w of
        # every coordinate is one contiguous run of the gathered terms.
        c = self.structure
        first, n = self.layer_dims[0], self.dim
        terms = [[(i, j) for i in range(n) for j in range(i + 1, n)
                  if c[i, j, k] != 0] for k in range(first, n)]
        width = max([1] + [len(row) for row in terms])
        pairs = np.zeros((width, n - first, 2), dtype=np.intp)
        coef = np.ones((width, n - first))
        for q, row in enumerate(terms):
            for w, (i, j) in enumerate(row):
                pairs[w, q] = i, j
                coef[w, q] = c[i, j, first + q]
        # A slot whose coefficients are all 1 skips its multiply, which
        # would be exact: always multiplying cost ~10% of `pointwise`
        # call_ms_p50 in perfbench (2-vCPU x86 host, NumPy 2.4).
        i, j = pairs.reshape(-1, 2).T
        object.__setattr__(self, "_terms", (
            np.concatenate([i, j]), np.concatenate([j, i]),
            [None if np.all(row == 1) else row for row in coef]))

    @property
    def dim(self):
        return sum(self.layer_dims)

    @property
    def step(self):
        return len(self.layer_dims)

    @property
    def degrees(self):
        """Degree (layer index, 1-based) of each basis vector."""
        return np.repeat(np.arange(1, self.step + 1), self.layer_dims)

    def bracket(self, x, y):
        """[x, y]_k = sum_ij x_i y_j structure[i, j, k], over leading axes.

        Evaluated over the nonzero pairs only, as
        sum_{i<j} structure[i, j, k] (x_i y_j - x_j y_i), so a call costs
        time in proportion to the nonzero pairs, not to dim**3.  Each
        output coordinate adds its pair terms in a fixed order with
        elementwise arithmetic, so a row rounds the same in any batch.  A
        coordinate with one pair of unit coefficient, as in every bundled
        algebra, rounds as the full sum over all (i, j) does; with several
        pairs or other coefficients it may differ from that sum in the last
        digit.  A NaN or inf in x or y reaches only the coordinates whose
        pairs read it (a padded coordinate's pairs include (0, 0)).
        """
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        left, right, scales = self._terms
        n, first = self.dim, self.layer_dims[0]
        if x.shape[-1] != n or y.shape[-1] != n:
            raise ValueError(f"bracket takes points of dimension {n}, got "
                             f"shapes {x.shape} and {y.shape}")
        if x.ndim != y.ndim:
            # Transposing reverses the axes, so align the leading ones first.
            nd = max(x.ndim, y.ndim)
            x = x.reshape((1,) * (nd - x.ndim) + x.shape)
            y = y.reshape((1,) * (nd - y.ndim) + y.shape)
        # Coordinates lead in the transposed points, so each slot's terms
        # are one contiguous block at any batch size.  prod holds x_i y_j
        # for every slot, then x_j y_i; slot 0 starts the sum and each
        # later slot adds to it.
        prod = x.T.take(left, axis=0) * y.T.take(right, axis=0)
        half, count = len(left) // 2, n - first
        for w, scale in enumerate(scales):
            lo = w * count
            term = prod[lo:lo + count] - prod[half + lo:half + lo + count]
            if scale is not None:
                term *= scale.reshape(scale.shape + (1,) * (term.ndim - 1))
            if w:
                acc += term
            else:
                acc = term
        out = np.zeros(prod.shape[:0:-1] + (n,))
        out.T[first:] = acc
        return out

    @staticmethod
    def from_brackets(layer_dims, entries):
        """Build from sparse bracket entries [(i, j, {k: coeff}), ...].

        Each unordered basis pair may appear once; the (j, i) bracket is
        filled in by antisymmetry.
        """
        dims = tuple(int(d) for d in layer_dims)
        n = sum(dims)
        c = np.zeros((n, n, n))
        seen = set()
        for i, j, coeffs in entries:
            i, j = int(i), int(j)
            if not (0 <= i < n and 0 <= j < n):
                raise CarrierConstructionError(
                    f"bracket indices ({i}, {j}) out of range for dim {n}")
            if i == j:
                raise CarrierConstructionError(
                    f"[e{i}, e{i}] must vanish; drop the entry")
            if (min(i, j), max(i, j)) in seen:
                raise CarrierConstructionError(
                    f"duplicate bracket entry for pair ({i}, {j})")
            seen.add((min(i, j), max(i, j)))
            for k, val in coeffs.items():
                k = int(k)
                if not 0 <= k < n:
                    raise CarrierConstructionError(
                        f"bracket target index {k} out of range for dim {n}")
                c[i, j, k] += float(val)
                c[j, i, k] -= float(val)
        return GradedLieAlgebra(dims, c)


def load_algebra(spec):
    """Load a graded Lie algebra from a dict, JSON text, or JSON file path.

    Schema: ``{"layers": [d1, ...], "brackets": [{"i": int, "j": int,
    "coeffs": {"<basis index>": coeff, ...}}, ...]}`` with 0-based basis
    indices into the flat, layer-ordered basis.
    """
    if isinstance(spec, (str, Path)):
        text = str(spec)
        if not text.lstrip().startswith("{"):
            path = Path(text)
            if not path.is_file():
                raise CarrierConstructionError(f"no algebra file at {path}")
            text = path.read_text()
        try:
            spec = json.loads(text)
        except json.JSONDecodeError as err:
            raise CarrierConstructionError(f"bad algebra JSON: {err}") from err
    if not isinstance(spec, dict):
        raise CarrierConstructionError("algebra spec must be a JSON object")
    unknown = set(spec) - {"layers", "brackets"}
    if unknown:
        raise CarrierConstructionError(
            f"unknown algebra keys {sorted(unknown)}; expected layers, brackets")
    if "layers" not in spec:
        raise CarrierConstructionError("algebra spec needs a layers list")
    entries = []
    for pos, item in enumerate(spec.get("brackets", [])):
        if not isinstance(item, dict) or set(item) - {"i", "j", "coeffs"}:
            raise CarrierConstructionError(
                f"brackets[{pos}] must be an object with keys i, j, coeffs")
        try:
            entries.append((int(item["i"]), int(item["j"]),
                            {int(k): float(v)
                             for k, v in dict(item.get("coeffs", {})).items()}))
        except (KeyError, TypeError, ValueError) as err:
            raise CarrierConstructionError(f"bad brackets[{pos}]: {err}") from err
    return GradedLieAlgebra.from_brackets(spec["layers"], entries)


def heisenberg_algebra():
    """Step-2 algebra with layers (2, 1) and [e0, e1] = e2."""
    return GradedLieAlgebra.from_brackets((2, 1), [(0, 1, {2: 1.0})])


def engel_algebra():
    """Step-3 algebra with layers (2, 1, 1), [e0, e1] = e2, [e0, e2] = e3."""
    return GradedLieAlgebra.from_brackets((2, 1, 1),
                                          [(0, 1, {2: 1.0}), (0, 2, {3: 1.0})])


def bch_product(algebra):
    """Group product of the Carnot group, exact for step <= 4."""
    step = algebra.step
    br = algebra.bracket

    def mul(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        z = x + y
        if step >= 2:
            c1 = br(x, y)
            z = z + 0.5 * c1
        if step >= 3:
            xc = br(x, c1)
            z = z + (xc - br(y, c1)) / 12.0
        if step >= 4:
            z = z - br(y, xc) / 24.0
        return z

    return mul


def dilation(algebra, eps):
    """The group morphism delta_eps scaling layer i by eps^i."""
    factors = np.asarray(eps, dtype=float) ** algebra.degrees

    def apply(g):
        return factors * np.asarray(g, dtype=float)

    return apply


@lru_cache(maxsize=64)
def _layer_slices(layer_dims):
    # Metrics call this on every evaluation; the layout is a small tuple.
    stops = np.cumsum(layer_dims)
    return tuple(slice(int(a), int(b))
                 for a, b in zip(np.concatenate([[0], stops]), stops))


def layer_max_norm(layer_dims, g):
    """max_i ||layer_i(g)||_2, the residual norm used by carrier metrics."""
    # sqrt is monotone, so the max of the squared layer norms is rooted
    # once; each layer sums its squares as np.linalg.norm does.
    g = np.asarray(g, dtype=float)
    sq = g * g
    first, *rest = _layer_slices(tuple(layer_dims))
    worst = np.add.reduce(sq[..., first], axis=-1)
    for sl in rest:
        worst = np.maximum(worst, np.add.reduce(sq[..., sl], axis=-1))
    return np.sqrt(worst)


def homogeneous_norm(irq, g):
    """Homogeneous quasinorm max_i ||layer_i(g)||_2^(1/i).

    Scales exactly linearly under the carrier's dilations:
    ||delta_eps(g)|| = eps ||g||.  Defined for carriers that declare a
    graded coordinate layout.
    """
    if irq.layer_dims is None:
        raise UnsupportedCarrierError(
            f"carrier {irq.name!r} has no graded layout")
    g = np.asarray(g, dtype=float)
    parts = [np.linalg.norm(g[..., sl], axis=-1) ** (1.0 / (i + 1))
             for i, sl in enumerate(_layer_slices(irq.layer_dims))]
    return np.max(np.stack(parts, axis=-1), axis=-1)


def make_carnot(algebra, epsilon, name=None):
    """Uniform irq x * u = x delta_eps(x^-1 u) on the Carnot group of algebra.

    Requires 0 < epsilon < 1.  The metric is the layer-max norm of x^-1 y
    and the sampler rejection-samples its ball around the origin.
    """
    if not isinstance(algebra, GradedLieAlgebra):
        algebra = load_algebra(algebra)
    epsilon = float(epsilon)
    if not 0.0 < epsilon < 1.0:
        raise CarrierConstructionError(f"epsilon must lie in (0, 1), got {epsilon}")

    mul = bch_product(algebra)
    neg = lambda g: -np.asarray(g, dtype=float)
    dims = algebra.layer_dims
    n = algebra.dim
    degrees = algebra.degrees

    def delta_power(m, g):
        return epsilon ** (degrees * m) * np.asarray(g, dtype=float)

    def metric(x, y):
        return layer_max_norm(dims, mul(neg(np.asarray(x, dtype=float)), y))

    def sample(seed, count, radius):
        rng = np.random.default_rng(seed)
        out = np.empty((0, n))
        while out.shape[0] < count:
            cand = rng.uniform(-radius, radius, size=(2 * count + 8, n))
            out = np.concatenate([out, cand[layer_max_norm(dims, cand) <= radius]])
        return out[:count]

    def point_reflection(x, y):
        return mul(mul(np.asarray(x, dtype=float), neg(y)), x)

    group = GroupOps(mul=mul, inv=neg, neutral=np.zeros(n),
                     delta_power=delta_power, is_morphism=True)
    return make_group_irq(group, dilation(algebra, epsilon),
                          dilation(algebra, 1.0 / epsilon),
                          name=name or f"carnot-step{algebra.step}",
                          metric=metric, sample=sample, epsilon=epsilon,
                          layer_dims=dims, point_reflection=point_reflection)


def make_heisenberg(epsilon, name="heisenberg"):
    """The 3-dimensional Heisenberg carrier: the step-2 Carnot group of
    :func:`heisenberg_algebra`, whose BCH product is the law
    (a, b, c)(a', b', c') = (a + a', b + b', c + c' + (a b' - a' b) / 2).
    """
    return make_carnot(heisenberg_algebra(), epsilon, name=name)


def make_engel(epsilon, name="engel"):
    """The step-3 Engel carrier, the smallest Carnot group beyond step 2."""
    return make_carnot(engel_algebra(), epsilon, name=name)
