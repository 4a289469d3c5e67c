"""Exact computation with finite relational structures and orbit-finite
structures definable over ordered or labelled atom bases."""

from .atoms import DLO, PURE_SET, Atom, AtomBase, AtomSample, labeled_dlo, make_sample
from .definable import (
    DefStructure,
    Point,
    RelationClause,
    SignedLex,
    Sort,
    classify_signed_lex,
    disjoint_union_def,
    enumerate_invariant_orders,
    full_power_def,
    growth_up_to_reversal,
    increasing_tuple_structure,
    point_orbits,
    reduct,
    sample,
    unlabelled_growth,
)
from .finstruct import (
    FinStructure,
    Hom,
    Signature,
    canonical_form,
    compute_core,
    disjoint_union,
    enumerate_endos,
    find_hom,
    full_power,
    induced_substructure,
    is_core,
)

__all__ = [name for name in dir() if not name.startswith("_")]
