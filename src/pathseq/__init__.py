"""Path degree-sequence invariants of starlike and clique-coalesced trees.

The package computes, for a connected graph and a symmetric index function f,
the order-h invariant: the sum of f over the degree sequences of all paths on
h edges. For starlike trees and for trees coalesced with a clique the censuses
have closed forms, which drive verification, reconstruction of a spec from its
invariant profile, and all-pairs distinguishability surveys.
"""

import sys as _sys

__version__ = "0.1.0"

# Each module and the names it exports. A name's module is imported the first
# time the name is read, so a process pays only for the modules it uses.
_EXPORTS = {
    "errors": (
        "AmbiguousRootError", "BudgetExceededError", "BudgetMismatchError", "DisconnectedError",
        "DuplicateEdgeError", "FamilyMismatchError", "FormatError", "IndexEvaluationError",
        "InvalidSpecError", "NoCandidateRootError", "NonIntegerBranchCountError",
        "PathseqError", "ProfileMismatchError", "ReconstructionError", "SelfLoopError",
        "SizeMismatchError", "SymmetryError", "UnknownIndexError", "UnreadableFileError",
        "VertexOutOfRangeError",
    ),
    "graph": (
        "DEFAULT_BUDGET", "Census", "Graph", "build_graph", "canonical_class", "census_series",
        "enumerate_paths", "load_edge_list", "longest_path_length", "parse_edge_list",
        "path_census",
    ),
    "invariants": (
        "InvariantFunction", "builtin", "evaluate_invariant", "invariant_from_census",
        "invariant_profile", "register_invariant", "resolve_index", "validate_symmetry",
    ),
    "reconstruct": (
        "ConditionReport", "ReconstructionResult", "SurveyReport",
        "check_generalized_conditions", "check_starlike_conditions", "distinguish",
        "generalized_specs", "reconstruct_generalized", "reconstruct_starlike",
        "starlike_specs", "survey_distinguishability",
    ),
    "starlike": (
        "GenStarlikeSpec", "StarlikeSpec", "coalesce_spec", "generalized_census",
        "generalized_invariant", "generalized_profile", "load_generalized_spec",
        "load_starlike_spec", "mu_coefficient", "mu_row", "parse_generalized_spec",
        "parse_starlike_spec", "realize_generalized", "realize_starlike", "starlike_census",
        "starlike_invariant", "starlike_profile", "tail_coefficients",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    """Import a name's module on first use, and keep the name here."""
    module = _HOME.get(name, name)
    # both families live in starlike.py, which is also importable as generalized
    if module not in _EXPORTS and module != "generalized":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    __import__(f"{__name__}.{module}")
    value = _sys.modules[f"{__name__}.{module}"]
    if name != module:
        value = globals()[name] = getattr(value, name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
