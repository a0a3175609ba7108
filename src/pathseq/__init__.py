"""Path degree-sequence invariants of starlike and clique-coalesced trees.

The package computes, for a connected graph and a symmetric index function f,
the order-h invariant: the sum of f over the degree sequences of all paths on
h edges. For starlike trees and for trees coalesced with a clique the censuses
have closed forms, which drive verification, reconstruction of a spec from its
invariant profile, and all-pairs distinguishability surveys.
"""

import sys as _sys
from types import ModuleType as _ModuleType

from . import starlike as generalized  # both families live in starlike.py, under either name
from .errors import (
    AmbiguousRootError,
    BudgetExceededError,
    BudgetMismatchError,
    DisconnectedError,
    DuplicateEdgeError,
    FamilyMismatchError,
    FormatError,
    IndexEvaluationError,
    InvalidSpecError,
    NoCandidateRootError,
    NonIntegerBranchCountError,
    PathseqError,
    ProfileMismatchError,
    ReconstructionError,
    SelfLoopError,
    SizeMismatchError,
    SymmetryError,
    UnknownIndexError,
    UnreadableFileError,
    VertexOutOfRangeError,
)
from .graph import (
    DEFAULT_BUDGET,
    Census,
    Graph,
    build_graph,
    canonical_class,
    census_series,
    enumerate_paths,
    load_edge_list,
    longest_path_length,
    parse_edge_list,
    path_census,
)
from .invariants import (
    InvariantFunction,
    builtin,
    evaluate_invariant,
    invariant_from_census,
    invariant_profile,
    register_invariant,
    resolve_index,
    validate_symmetry,
)
from .reconstruct import (
    ConditionReport,
    ReconstructionResult,
    SurveyReport,
    check_generalized_conditions,
    check_starlike_conditions,
    distinguish,
    generalized_specs,
    reconstruct_generalized,
    reconstruct_starlike,
    starlike_specs,
    survey_distinguishability,
)
from .starlike import (
    GenStarlikeSpec,
    StarlikeSpec,
    coalesce_spec,
    generalized_census,
    generalized_invariant,
    generalized_profile,
    load_generalized_spec,
    load_starlike_spec,
    mu_coefficient,
    mu_row,
    parse_generalized_spec,
    parse_starlike_spec,
    realize_generalized,
    realize_starlike,
    starlike_census,
    starlike_invariant,
    starlike_profile,
    tail_coefficients,
)

__version__ = "0.1.0"

_sys.modules[f"{__name__}.generalized"] = generalized  # `import pathseq.generalized` too

# Every name the imports above bind, without the submodules they load.
__all__ = sorted(
    k for k, v in globals().items() if not k.startswith("_") and not isinstance(v, _ModuleType)
)
