"""Emergent algebras over idempotent right quasigroups.

Carriers provide the operations; :mod:`emergent_irq.core` iterates them and
checks the level-k identities; :mod:`emergent_irq.limits` computes the
emergent (limit) operations, tangent groups and group reconstruction;
:mod:`emergent_irq.division` adds right division, loop isotopes and the
symmetric-space layer; :mod:`emergent_irq.calculus` differentiates maps
between carriers.  The ``emergent-irq`` CLI batches all of it into reports.
"""

from .calculus import MapBetweenCarriers, check_derivative_morphism, derivative
from .carriers import (GradedLieAlgebra, GroupOps, build_carrier,
                       carrier_registry, engel_algebra, exp_map,
                       geodesic_distance, heisenberg_algebra,
                       homogeneous_norm, layer_max_norm, load_algebra,
                       log_map, make_carnot, make_dihedral_quandle,
                       make_engel, make_euclidean, make_group_irq,
                       make_heisenberg, make_hyperbolic, make_perturbed_plane,
                       reflect)
from .core import (DEFAULT_LEVELS, MAX_ITER_EXPONENT, AxiomReport, Irq,
                   back_k, check_irq_axioms, difference_k, identity_names,
                   inverse_k, star_k, sum_k)
from .division import (DivisionMethod, check_involution, check_loos_axioms,
                       default_division_method, loop_isotope_k,
                       right_divide_k, t_map, underline_inv_k)
from .errors import (CarrierConstructionError, DistributivityError,
                     EmergentAlgebraError, InvalidExponentError,
                     InvalidPointError, NonConvergenceError,
                     UnsupportedCarrierError)
from .limits import (ConvergenceReport, LimitConfig, ReconstructedGroup,
                     TangentGroup, check_distributive, emergent_difference,
                     emergent_inverse, emergent_sum, reconstruct_group,
                     tangent_group, verify_tangent_group)

__version__ = "0.1.0"

__all__ = [
    "AxiomReport", "CarrierConstructionError", "ConvergenceReport",
    "DEFAULT_LEVELS", "DistributivityError", "DivisionMethod",
    "EmergentAlgebraError", "GradedLieAlgebra", "GroupOps",
    "InvalidExponentError", "InvalidPointError", "Irq", "LimitConfig",
    "MAX_ITER_EXPONENT", "MapBetweenCarriers", "NonConvergenceError",
    "ReconstructedGroup", "TangentGroup", "UnsupportedCarrierError",
    "back_k", "build_carrier", "carrier_registry", "check_derivative_morphism",
    "check_distributive", "check_involution", "check_irq_axioms",
    "check_loos_axioms", "default_division_method", "derivative",
    "difference_k", "emergent_difference", "emergent_inverse", "emergent_sum",
    "engel_algebra", "exp_map", "geodesic_distance", "heisenberg_algebra",
    "homogeneous_norm", "identity_names", "inverse_k", "layer_max_norm",
    "load_algebra", "log_map", "loop_isotope_k", "make_carnot",
    "make_dihedral_quandle", "make_engel", "make_euclidean", "make_group_irq",
    "make_heisenberg", "make_hyperbolic", "make_perturbed_plane",
    "reconstruct_group", "reflect", "right_divide_k", "star_k", "sum_k",
    "t_map", "tangent_group", "underline_inv_k", "verify_tangent_group",
]
