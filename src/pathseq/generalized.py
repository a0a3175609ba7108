"""Clique-coalesced starlike trees.

Glue one vertex of a complete graph on n1 vertices onto the root of a
starlike tree. Paths now come in three kinds: entirely inside the tree
(same shapes as the plain starlike case, except the hub vertex carries
degree m + n1 - 1), entirely inside the clique, or crossing the hub with
one side in each. All three kinds still have closed-form censuses. The spec
class (GenStarlikeSpec is StarlikeSpec with a clique) and the closed forms
live in starlike.py; this module parses the family's JSON documents.
"""

from __future__ import annotations

from typing import Mapping

from .errors import FormatError, InvalidSpecError
from .invariants import evaluate_invariant, invariant_profile
from .starlike import (
    GenStarlikeSpec,
    StarlikeSpec,
    _is_int,
    _load_json,
    _realize,
    parse_starlike_spec,
)


def coalesce_spec(clique_size: int, branch_counts: Mapping[int, int]) -> StarlikeSpec:
    """Build the coalesced spec, normalizing the degenerate 2-clique.

    A 2-clique glued at the root is just one extra pendant edge, so that
    case returns a plain StarlikeSpec with the length-1 count bumped.
    """
    if clique_size < 2:
        raise InvalidSpecError(f"clique size must be >= 2, got {clique_size}")
    star = StarlikeSpec.from_counts(branch_counts)
    if clique_size == 2:
        return StarlikeSpec.from_counts({**star.branch_counts, 1: star.count(1) + 1})
    return GenStarlikeSpec(clique_size, star)


# The names of this family; each accepts any spec, and the invariant and
# profile accept graphs too.
realize_generalized = _realize
generalized_census = StarlikeSpec.census
generalized_invariant = evaluate_invariant
generalized_profile = invariant_profile


def parse_generalized_spec(doc: object) -> StarlikeSpec:
    """Parse {"clique": k, "branches": [...]}; a 2-clique normalizes to starlike."""
    if not isinstance(doc, dict) or "clique" not in doc or "branches" not in doc:
        raise FormatError(
            "generalized spec must be an object with 'clique' and 'branches'"
        )
    clique = doc["clique"]
    if not _is_int(clique):
        raise FormatError("'clique' must be an integer")
    star = parse_starlike_spec({"branches": doc["branches"]})
    return coalesce_spec(clique, star.branch_counts)


def load_generalized_spec(path: str) -> StarlikeSpec:
    return _load_json(path, parse_generalized_spec)
