"""Exact-arithmetic torsion invariants of reducible plane curves.

The package computes intersection divisors of plane curves containing a
smooth component, torsion orders of the induced divisor classes in the
degree-zero Picard group, splitting numbers of cyclic covers, the class
group of a decomposition, and uses these invariants to certify Zariski
pairs and tuples.  Everything is exact: rationals and single number field
extensions, no floating point anywhere.
"""

from .combinatorics import CertificationReport, certify, comb_type, equiv_maps, admissible
from .construct import (
    TypedPair,
    artal_arrangement,
    build_type_4663,
    power_of_k,
    tangent_lines_through,
    tangent_quadruple_arrangements,
    transversal_seed,
    verify_type,
)
from .covers import (
    Decomposition,
    Part,
    exponent_vectors,
    relation_lattice,
    splitting_number,
    splitting_table,
)
from .curves import (
    GeometryCache,
    IntersectionDivisor,
    PlaneCurve,
    ProjPointCluster,
    check_smooth,
    cluster_from_point,
    intersect,
    local_param,
    order_along,
    polar_curve,
)
from .elliptic import EllipticChart, elliptic_class_order, orbit_sum
from .fields import QQ, AlgNum, NumberField, Rat
from .homopoly import HomogeneousPoly, monomials
from .parsing import ParseError, parse_poly
from .picard import (
    DivisorClass,
    PicardContext,
    class_of_decomposition,
    is_principal,
    torsion_order,
)
from .unipoly import UniPoly, resultant, squarefree_decomposition, squarefree_part

__all__ = [
    "AlgNum",
    "CertificationReport",
    "Decomposition",
    "DivisorClass",
    "EllipticChart",
    "GeometryCache",
    "HomogeneousPoly",
    "IntersectionDivisor",
    "NumberField",
    "ParseError",
    "Part",
    "PicardContext",
    "PlaneCurve",
    "ProjPointCluster",
    "QQ",
    "Rat",
    "TypedPair",
    "UniPoly",
    "admissible",
    "artal_arrangement",
    "build_type_4663",
    "certify",
    "check_smooth",
    "class_of_decomposition",
    "cluster_from_point",
    "comb_type",
    "elliptic_class_order",
    "equiv_maps",
    "exponent_vectors",
    "intersect",
    "is_principal",
    "local_param",
    "monomials",
    "orbit_sum",
    "order_along",
    "parse_poly",
    "polar_curve",
    "power_of_k",
    "relation_lattice",
    "resultant",
    "splitting_number",
    "splitting_table",
    "squarefree_decomposition",
    "squarefree_part",
    "tangent_lines_through",
    "tangent_quadruple_arrangements",
    "torsion_order",
    "transversal_seed",
    "verify_type",
]
