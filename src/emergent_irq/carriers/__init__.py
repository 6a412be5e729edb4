"""Carrier constructors and the name registry used by the CLI."""

from __future__ import annotations

from ..errors import CarrierConstructionError
from .carnot import (GradedLieAlgebra, engel_algebra, heisenberg_algebra,
                     homogeneous_norm, layer_max_norm, load_algebra,
                     make_carnot, make_engel, make_euclidean,
                     make_heisenberg)
from .dihedral import make_dihedral_quandle
from .group import GroupOps, make_group_irq, make_perturbed_plane
from .hyperbolic import (exp_map, geodesic_distance, log_map, make_hyperbolic,
                         reflect)

__all__ = [
    "GradedLieAlgebra", "GroupOps",
    "build_carrier", "carrier_registry",
    "engel_algebra", "heisenberg_algebra", "load_algebra",
    "exp_map", "geodesic_distance", "log_map", "reflect",
    "homogeneous_norm", "layer_max_norm",
    "make_carnot", "make_dihedral_quandle", "make_engel", "make_euclidean",
    "make_group_irq", "make_heisenberg", "make_hyperbolic",
    "make_perturbed_plane",
]

# name -> (builder, {param: (converter, default)}); None default = required.
_REGISTRY = {
    "euclidean": (make_euclidean,
                  {"dim": (int, 1), "epsilon": (float, 0.5)}),
    "dihedral": (make_dihedral_quandle, {"n": (int, 5)}),
    "heisenberg": (make_heisenberg, {"epsilon": (float, 0.5)}),
    "engel": (make_engel, {"epsilon": (float, 0.5)}),
    "carnot": (lambda algebra, epsilon: make_carnot(load_algebra(algebra),
                                                    epsilon),
               {"algebra": (str, None), "epsilon": (float, 0.5)}),
    "hyperbolic": (make_hyperbolic, {"epsilon": (float, 0.5)}),
    "perturbed": (make_perturbed_plane,
                  {"epsilon": (float, 0.5), "eta": (float, 0.1)}),
}


def carrier_registry():
    """Carrier names mapped to their parameter names and defaults."""
    out = {}
    for name, (_, params) in sorted(_REGISTRY.items()):
        out[name] = {key: default for key, (_, default) in params.items()}
    return out


def build_carrier(name, params=None):
    """Construct a registered carrier from string-keyed parameters.

    Unknown carrier names and unknown or missing parameters raise
    :class:`CarrierConstructionError` with a diagnostic.
    """
    if name not in _REGISTRY:
        known = ", ".join(sorted(_REGISTRY))
        raise CarrierConstructionError(f"unknown carrier {name!r}; known: {known}")
    builder, schema = _REGISTRY[name]
    params = dict(params or {})
    unknown = set(params) - set(schema)
    if unknown:
        raise CarrierConstructionError(
            f"unknown parameter(s) {sorted(unknown)} for carrier {name!r}; "
            f"expected {sorted(schema)}")
    kwargs = {}
    for key, (convert, default) in schema.items():
        if key in params:
            try:
                kwargs[key] = convert(params[key])
            except (TypeError, ValueError) as err:
                raise CarrierConstructionError(
                    f"bad value for {name}.{key}: {err}") from err
        elif default is None:
            raise CarrierConstructionError(f"carrier {name!r} needs parameter {key!r}")
        else:
            kwargs[key] = default
    return builder(**kwargs)
