"""Closure systems, implicational bases, and D-base computation.

The package represents finite closure systems by implicational bases or by
their meet-irreducible elements, and computes the D-base, the delta- and
D-relations, distributive dualizations, and the 1-in-3-SAT hardness gadgets,
with exhaustive brute-force oracles for cross-checking at desk scale.
"""

__version__ = "0.1.0"

from .closure import (
    ClosureContext,
    binary_part,
    extreme_elements,
    is_standard,
    min_spanning_set,
)
from .dualization import (
    d_base_from_mi,
    d_generators_from_mi,
    dualize_distributive,
    embed_dualization,
    iter_d_base_from_mi,
    recover_dual_from_dbase,
)
from .errors import DBaseError
from .gadgets import (
    PositiveCnf,
    ReductionReport,
    gen_acyclic_instance,
    gen_lower_bounded_instance,
    one_in_three_assignments,
    parse_cnf,
    random_cnf,
    serialize_cnf,
    verify_reduction,
)
from .lattice import (
    Classification,
    classify,
    d_relation,
    delta_relation,
    down_arrow,
    meet_irreducibles,
    meet_irreducibles_distributive,
    up_arrow,
)
from .model import (
    ElementSet,
    GroundSet,
    Implication,
    ImplicationalBase,
    Relation,
    SetFamily,
    parse_ib,
    parse_set_family,
    serialize_ib,
    serialize_relation,
    serialize_set_family,
)
from .oracle import (
    BruteForce,
    brute_dual,
)
from .traversal import (
    d_base,
    enumerate_d_generators,
    has_d_generators,
    is_d_generator,
    iter_d_base,
)
# The paper-level reduced-base reference: importable from here for the
# tests, but not part of the public API.
from .traversal import (
    ReducedBase,
    build_reduced_base,
    min_reduce,
    neighbors,
    reduced_context,
)

__all__ = [
    "BruteForce",
    "Classification",
    "ClosureContext",
    "DBaseError",
    "ElementSet",
    "GroundSet",
    "Implication",
    "ImplicationalBase",
    "PositiveCnf",
    "ReductionReport",
    "Relation",
    "SetFamily",
    "binary_part",
    "brute_dual",
    "classify",
    "d_base",
    "d_base_from_mi",
    "d_generators_from_mi",
    "d_relation",
    "delta_relation",
    "down_arrow",
    "dualize_distributive",
    "embed_dualization",
    "enumerate_d_generators",
    "extreme_elements",
    "gen_acyclic_instance",
    "gen_lower_bounded_instance",
    "has_d_generators",
    "is_d_generator",
    "is_standard",
    "iter_d_base",
    "iter_d_base_from_mi",
    "meet_irreducibles",
    "meet_irreducibles_distributive",
    "min_spanning_set",
    "one_in_three_assignments",
    "parse_cnf",
    "parse_ib",
    "parse_set_family",
    "random_cnf",
    "recover_dual_from_dbase",
    "serialize_cnf",
    "serialize_ib",
    "serialize_relation",
    "serialize_set_family",
    "up_arrow",
    "verify_reduction",
]
