"""Exact-arithmetic toolkit for semigroup-indexed algebraic structures:
index tables, axiom suites over pair- and family-indexed operations, the
derived-structure constructions relating them, and the free dendriform
algebra on decorated planar binary trees."""

from .axioms import (
    SUITES,
    FiniteDomain,
    check_axioms,
    check_morphism,
    check_rota_baxter,
    finite_domain,
    window_domain,
)
from .constructions import (
    assoc_from_dend,
    check_family_symmetric,
    check_pair_symmetric,
    cocycle_twist,
    collapse,
    comm_from_zinbiel,
    dend_from_rb,
    dend_from_zinbiel,
    family_to_pair,
    lie_from_prelie,
    poisson_from_prepoisson,
    prelie_from_dend,
    zinbiel_from_symmetric_dend,
)
from .errors import ConstructionRefused, ContractError, MalformedInputError, TreeParseError
from .freecheck import FREE_SUITES, free_check, free_pair_ops, free_suite_carrier
from .freedend import FreeDendCarrier, SampledTreeDomain
from .lincomb import LinComb, format_scalar, lc_add, lc_bilinear_extend, lc_scale, parse_scalar
from .ops import (
    FamilyIndexedOp,
    FiniteRelativeAlgebra,
    MorphismFamily,
    OpCarrier,
    PairIndexedOp,
    RotaBaxterFamily,
)
from .reports import CheckReport, Counterexample, to_json
from .semigroups import (
    Cocycle,
    DimonoidTable,
    SemigroupTable,
    VirtualSemigroup,
    check_cocycle,
    check_dimonoid,
    check_semigroup,
    cyclic_monoid,
    dimonoid_from_semigroup,
    matching_dimonoid,
    positive_integers_additive,
    semigroup_from_dimonoid,
    trivial_monoid,
)
from .trees import EMPTY, DecoratedTree, tree_parse, tree_print

__all__ = [name for name in dir() if not name.startswith("_")]
