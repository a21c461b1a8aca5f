"""Ribbon graphs with flags and their polynomial invariants.

The package is organised bottom-up:

- ``poly``: exact sparse multivariate polynomials over the integers.
- ``gf2``: rank over GF(2) on int bitmask rows.
- ``maps``: combinatorial maps (permutation triples), ribbon graphs with
  labelled edges and flags, validation, structure reports, rotation
  systems, canonical forms.
- ``ops``: deletion, cut, contraction, natural and partial duality,
  spanning subgraphs, subgraph-class counts.
- ``corpus``: named example graphs and seeded random generators.
- ``qpoly``: the four-variable polynomial Q by subset expansion and by
  memoised four-term reduction, with its duality transform, scaling law
  and classical specialisations.
- ``hyperbolic``: the evaluations of Q used by the hyperbolic model — HU,
  the quadratic form HV, the critical face product and reconstruction,
  the heat-kernel polynomial and the commutative limits.
- ``cli``: the ``rgp`` command-line front end.
"""

from .errors import RgpError
from .maps import (
    CombinatorialMap,
    Permutation,
    RibbonGraph,
    RotationSpec,
    StructureReport,
    boundary_components,
    canonical_form,
    face_count,
    from_rotation_system,
    isomorphic,
    make_graph,
    structure_report,
    validate_map,
)
from .ops import (
    ClassCounts,
    class_counts,
    contract,
    cut,
    delete,
    delete_flag,
    natural_dual,
    partial_dual,
    spanning_subgraph,
    to_rotation_spec,
)
from .poly import MultiPoly, VarId, parse
from .qpoly import (
    QResult,
    RSequenceSpec,
    q_by_expansion,
    q_by_reduction,
    q_partial_dual_transform,
    q_polynomial,
    specialize_br,
    specialize_dimer,
    specialize_ising,
)
from .hyperbolic import (
    QuadraticForm,
    hu,
    hu_commutative_limit,
    hu_critical,
    hu_cycle,
    hu_partial_dual_transform,
    hu_tree,
    hu_via_critical_algorithm,
    hv,
    symanzik_commutative_limit,
    symanzik_dual_check,
    symanzik_u,
)

__all__ = [
    "RgpError",
    "CombinatorialMap",
    "Permutation",
    "RibbonGraph",
    "RotationSpec",
    "StructureReport",
    "boundary_components",
    "canonical_form",
    "face_count",
    "from_rotation_system",
    "isomorphic",
    "make_graph",
    "structure_report",
    "validate_map",
    "ClassCounts",
    "class_counts",
    "contract",
    "cut",
    "delete",
    "delete_flag",
    "natural_dual",
    "partial_dual",
    "spanning_subgraph",
    "to_rotation_spec",
    "MultiPoly",
    "VarId",
    "parse",
    "QResult",
    "RSequenceSpec",
    "q_by_expansion",
    "q_by_reduction",
    "q_partial_dual_transform",
    "q_polynomial",
    "specialize_br",
    "specialize_dimer",
    "specialize_ising",
    "QuadraticForm",
    "hu",
    "hu_commutative_limit",
    "hu_critical",
    "hu_cycle",
    "hu_partial_dual_transform",
    "hu_tree",
    "hu_via_critical_algorithm",
    "hv",
    "symanzik_commutative_limit",
    "symanzik_dual_check",
    "symanzik_u",
]

__version__ = "0.1.0"
