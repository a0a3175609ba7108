"""Clique-coalesced starlike trees.

Glue one vertex of a complete graph on n1 vertices onto the root of a
starlike tree. Paths now come in three kinds: entirely inside the tree
(same shapes as the plain starlike case, except the hub vertex carries
degree m + n1 - 1), entirely inside the clique, or crossing the hub with
one side in each. All three kinds still have closed-form censuses; they
live in starlike.py, where a plain starlike tree is the clique-size-1 case.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .errors import FormatError, InvalidSpecError
from .invariants import InvariantFunction
from .starlike import (
    StarlikeSpec,
    _closed_census,
    _closed_invariant,
    _closed_profile,
    _is_int,
    _load_json,
    _realize,
    mu_coefficient,
    parse_starlike_spec,
)


@dataclass(frozen=True)
class GenStarlikeSpec:
    """A clique on clique_size vertices sharing one vertex with the star root."""

    clique_size: int
    star: StarlikeSpec

    def __post_init__(self) -> None:
        if self.clique_size < 3:
            raise InvalidSpecError(
                "clique_size must be >= 3 (a 2-clique just adds a pendant branch;"
                " use coalesce_spec to normalize)"
            )

    @property
    def vertex_count(self) -> int:
        return self.clique_size + self.star.vertex_count - 1

    @property
    def max_degree(self) -> int:
        """Degree of the hub vertex, the graph's maximum."""
        return self.clique_size + self.star.root_degree - 1

    @property
    def longest_path_length(self) -> int:
        within_tree = self.star.longest_path_length
        through_clique = (self.clique_size - 1) + self.star.max_branch_length
        return max(within_tree, through_clique)

    def to_dict(self) -> dict:
        doc = self.star.to_dict()
        return {"clique": self.clique_size, "branches": doc["branches"]}


def coalesce_spec(
    clique_size: int, branch_counts: Mapping[int, int]
) -> GenStarlikeSpec | StarlikeSpec:
    """Build the coalesced spec, normalizing the degenerate 2-clique.

    A 2-clique glued at the root is just one extra pendant edge, so that
    case returns a plain StarlikeSpec with the length-1 count bumped.
    """
    if clique_size < 2:
        raise InvalidSpecError(f"clique size must be >= 2, got {clique_size}")
    star = StarlikeSpec.from_counts(branch_counts)
    if clique_size == 2:
        merged = dict(star.branch_counts)
        merged[1] = merged.get(1, 0) + 1
        return StarlikeSpec.from_counts(merged)
    return GenStarlikeSpec(clique_size, star)


# The starlike closed forms and realizer take either spec.
realize_generalized = _realize
generalized_census = _closed_census
generalized_invariant = _closed_invariant
generalized_profile = _closed_profile


def generalized_mu(f: InvariantFunction, h: int, m: int, n1: int) -> float:
    """Slope of the order-h invariant in the count of length-h branches.

    Identical to the plain starlike slope with the hub degree m + n1 - 1
    substituted for the root degree: clique-only and bridge classes do not
    involve the count of length-h branches.
    """
    if n1 < 3:
        raise ValueError(f"clique size must be >= 3, got {n1}")
    return mu_coefficient(f, h, m + n1 - 1)


def parse_generalized_spec(doc: object) -> GenStarlikeSpec | StarlikeSpec:
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


def load_generalized_spec(path: str) -> GenStarlikeSpec | StarlikeSpec:
    return _load_json(path, parse_generalized_spec)
