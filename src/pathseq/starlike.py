"""Starlike trees: spec, realization, closed-form censuses and slopes.

A starlike tree has exactly one vertex of degree three or more (the root);
it is determined by its multiset of branch lengths. Every path of order
h >= 1 falls into one of a handful of shapes (endpoints at the root, at a
leaf, or inside a branch; through the root or within a single branch), and
each shape's degree sequence and multiplicity have closed forms in the
branch-length counts. Censuses and invariants therefore need no enumeration.

One spec class covers both families: a clique glued at the root (see
generalized.py) is its clique_size, and a starlike tree is the clique-size-1
case, where every path through the clique has multiplicity zero.
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate
from math import perm
from typing import Callable, Iterable, Iterator, Mapping

from .errors import FormatError, IndexEvaluationError, InvalidSpecError
from .graph import DEFAULT_BUDGET, Census, Graph, build_graph, canonical_class
from .invariants import (
    InvariantFunction,
    evaluate_invariant,
    invariant_from_census,
    invariant_profile,
)


def _is_int(value: object) -> bool:
    """A JSON integer: json.load gives true/false as bool, an int subclass."""
    return isinstance(value, int) and not isinstance(value, bool)


def _check_int_branch(length: object, count: object) -> None:
    if not (_is_int(length) and _is_int(count)):
        raise InvalidSpecError(f"branch length {length!r} and count {count!r} must be integers")


@dataclass(frozen=True)
class StarlikeSpec:
    """Branch-length multiset of a starlike tree, and the clique at its root.

    branches holds (length, count) pairs, strictly ascending in length with
    positive counts. The root degree is the total branch count and must be
    at least three. clique_size is 1 for a plain starlike tree; a clique of
    3 or more vertices sharing its hub with the root makes a GenStarlikeSpec.

    Like a Graph, a spec has longest_path, census and censuses; it needs no
    budget and ignores the one it is given.
    """

    branches: tuple[tuple[int, int], ...]
    clique_size: int = field(default=1, repr=False)

    def __post_init__(self) -> None:
        n1 = self.clique_size
        # the type follows the clique size, so a spec's class names its family
        if not _is_int(n1) or n1 < 1 or (n1 >= 3) != isinstance(self, GenStarlikeSpec):
            raise InvalidSpecError(
                f"got clique size {n1!r}: a StarlikeSpec has 1, and a GenStarlikeSpec's"
                " clique_size must be >= 3 (a 2-clique just adds a pendant branch;"
                " use coalesce_spec to normalize)"
            )
        prev = 0
        for length, count in self.branches:
            _check_int_branch(length, count)
            if length <= prev:
                raise InvalidSpecError("branch lengths must be positive, distinct and ascending")
            if count < 1:
                raise InvalidSpecError(f"branch count for length {length} must be >= 1")
            prev = length
        if self.root_degree < 3:
            raise InvalidSpecError(
                f"a starlike tree needs at least 3 branches, got {self.root_degree}"
            )

    @staticmethod
    def from_counts(counts: Mapping[int, int]) -> StarlikeSpec:
        """Build a starlike spec from a length -> count mapping; zero counts are dropped."""
        for length, count in counts.items():
            _check_int_branch(length, count)
        items = sorted(counts.items())
        for length, count in items:
            if count and length < 1:
                raise InvalidSpecError(f"branch length {length!r} must be a positive integer")
            if count < 0:
                raise InvalidSpecError(f"branch count {count!r} must be a non-negative integer")
        return StarlikeSpec(tuple((l, c) for l, c in items if c))

    @cached_property
    def branch_counts(self) -> dict[int, int]:
        return dict(self.branches)

    def count(self, length: int) -> int:
        return self.branch_counts.get(length, 0)

    @property
    def root_degree(self) -> int:
        return sum(c for _, c in self.branches)

    @property
    def max_branch_length(self) -> int:
        return self.branches[-1][0]

    @property
    def max_degree(self) -> int:
        """Degree of the hub (the root), the graph's maximum."""
        return self.clique_size + self.root_degree - 1

    @property
    def vertex_count(self) -> int:
        return self.clique_size + sum(l * c for l, c in self.branches)

    @property
    def star(self) -> StarlikeSpec:
        """The starlike tree without the clique."""
        return StarlikeSpec(self.branches)

    @property
    def longest_path_length(self) -> int:
        """Longest path: the two longest branches joined at the root, or the
        longest branch run on through the clique."""
        longest, count = self.branches[-1]
        within_tree = 2 * longest if count >= 2 else longest + self.branches[-2][0]
        return max(within_tree, self.clique_size - 1 + longest)

    def to_dict(self) -> dict:
        doc = {"branches": [{"length": l, "count": c} for l, c in self.branches]}
        return {"clique": self.clique_size, **doc} if self.clique_size > 1 else doc

    def longest_path(self, budget: int = DEFAULT_BUDGET) -> int:
        return self.longest_path_length

    def census(self, order: int, budget: int = DEFAULT_BUDGET) -> Census:
        """Closed-form census at any order >= 0; past the longest path it is
        empty, and no term is built."""
        if order > self.longest_path_length:
            return Census(order=order, entries={})
        return _nonnegative(merge_terms(order, _point(self)))

    def censuses(self, max_order: int, budget: int = DEFAULT_BUDGET) -> Iterator[Census]:
        """Closed-form censuses of orders 0..min(max_order, longest path),
        built one at a time as they are consumed."""
        point = _point(self)
        for h in range(min(max_order, self.longest_path_length) + 1):
            yield _nonnegative(merge_terms(h, point))


class GenStarlikeSpec(StarlikeSpec):
    """A clique on clique_size >= 3 vertices sharing one vertex with the star root."""

    def __init__(self, clique_size: int, star: StarlikeSpec) -> None:
        super().__init__(star.branches, clique_size)

    def __repr__(self) -> str:
        return f"GenStarlikeSpec(clique_size={self.clique_size!r}, star={self.star!r})"


def _point(spec: StarlikeSpec) -> tuple[int, int, int, Mapping[int, int]]:
    """(n1, n2, m, L) of a spec: clique size, tree vertex count, branch count
    and branch-length counts."""
    n1 = spec.clique_size
    return n1, spec.vertex_count - n1 + 1, spec.root_degree, spec.branch_counts


def _nonnegative(census: Census) -> Census:
    """A spec's census; a negative multiplicity means the closed forms are inconsistent."""
    if min(census.entries.values(), default=0) < 0:
        raise AssertionError(f"negative multiplicity in the order-{census.order} census")
    return census


def _realize(spec: StarlikeSpec) -> Graph:
    """Build a spec's graph: the hub is vertex 0, a clique fills
    1..n1-1, and the branches follow in ascending length."""
    n1, n2, _, L = _point(spec)
    edges = [(i, j) for i in range(n1) for j in range(i + 1, n1)]
    nxt = n1
    for length, count in L.items():
        for _ in range(count):
            prev = 0
            for _ in range(length):
                edges.append((prev, nxt))
                prev = nxt
                nxt += 1
    return build_graph(n1 + n2 - 1, edges)


def _terms(
    h: int, n1: int, n2: int, m: int, L: Mapping[int, int]
) -> Iterator[tuple[tuple[int, ...], int]]:
    """Yield (degree sequence, multiplicity) for every order-h path shape.

    The point (n1, n2, m, L) is a clique on n1 vertices sharing its hub with
    the root of a tree on n2 vertices whose m branches have length counts L.
    The hub's degree is m + n1 - 1; at n1 = 1 (a starlike tree) every clique
    and bridge count is perm(0, k) = 0. Multiplicities are polynomial in the
    counts and may be negative when the point is not realizable; callers that
    hold a valid spec should assert them non-negative. Each count is computed
    before its sequence is built, and zero counts are not yielded.
    """
    if h < 0:
        raise ValueError(f"order must be >= 0, got {h}")
    R = m + n1 - 1
    c = n1 - 1
    if h == 0:
        for seq, count in (((R,), 1), ((1,), m), ((2,), n2 - m - 1), ((c,), c)):
            if count:
                yield seq, count
        return

    # S[k]: number of branches of length <= k
    S = list(accumulate(L.get(k, 0) for k in range(h + 1)))
    longer = m - S[h]

    # Root endpoint: down one branch, ending at its leaf (branch length h
    # exactly) or strictly inside a longer branch.
    if L.get(h, 0):
        yield (R,) + (2,) * (h - 1) + (1,), L[h]
    if longer:
        yield (R,) + (2,) * h, longer
        # the same branches, root not visited, ending at the branch leaf
        yield (1,) + (2,) * h, longer

    # Strictly inside a single branch: each branch of length l > h
    # contributes l - h starting offsets minus the one leaf-ended one.
    interior = (n2 - 1) - sum(k * L.get(k, 0) for k in range(1, h + 1)) - (h + 1) * longer
    if interior:
        yield (2,) * (h + 1), interior

    # Through the root, one leaf endpoint at distance a+1, the other end
    # inside a second branch. The second branch needs length >= h-a; when the
    # leaf branch itself is that long it must be excluded.
    for a in range(0, h - 1):
        leaves = L.get(a + 1, 0)
        avail = m - S[h - a - 1] - (1 if a >= h // 2 else 0)
        if leaves and avail:
            yield (1,) + (2,) * a + (R,) + (2,) * (h - 1 - a), leaves * avail

    # Through the root, both endpoints leaves: branch lengths a+1 and h-a-1.
    for a in range(0, h // 2):
        la, lb = a + 1, h - a - 1
        if la == lb:
            c_la = L.get(la, 0)
            count = c_la * (c_la - 1) // 2
        else:
            count = L.get(la, 0) * L.get(lb, 0)
        if count:
            yield (1,) + (2,) * a + (R,) + (2,) * (h - 2 - a) + (1,), count

    # Through the root, both endpoints strictly inside branches of lengths
    # > a and > h-a. Product of consecutive integers, so the halved midpoint
    # case stays integral.
    for a in range(1, h // 2 + 1):
        if a == h - a:
            count = (m - S[a]) * (m - 1 - S[a]) // 2
        else:
            count = (m - S[h - a]) * (m - 1 - S[a])
        if count:
            yield (2,) * a + (R,) + (2,) * (h - a), count

    # Inside the clique: ordered choices of the c non-hub vertices, with the
    # hub at one end, nowhere (halved for orientation), or inside at distance
    # a from the nearer end (halved at the midpoint). Every split a has the
    # same perm(c, h) ordered choices.
    through_hub = perm(c, h)
    if through_hub:
        yield (R,) + (c,) * h, through_hub
        for a in range(1, h // 2 + 1):
            count = through_hub // 2 if a == h - a else through_hub
            yield (c,) * a + (R,) + (c,) * (h - a), count
    no_hub = perm(c, h + 1) // 2
    if no_hub:
        yield (c,) * (h + 1), no_hub

    # Bridges: a clique vertices on one side of the hub, and a tree side that
    # ends strictly inside a branch longer than h-a or at the leaf of a
    # length-(h-a) branch. perm(c, a) vanishes for a >= n1.
    for a in range(1, min(h, n1)):
        ordered = perm(c, a)
        count = ordered * (m - S[h - a])
        if count:
            yield (c,) * a + (R,) + (2,) * (h - a), count
        count = ordered * L.get(h - a, 0)
        if count:
            yield (c,) * a + (R,) + (2,) * (h - a - 1) + (1,), count


def merge_terms(order: int, point: tuple[int, int, int, Mapping[int, int]]) -> Census:
    """Census of one order at a point (n1, n2, m, L): its class terms from
    _terms, canonicalized and merged.

    Shapes that share a degree sequence (a 3-clique's outer vertices look
    like branch-interior vertices) become one class, so an invariant summed
    over the census makes one f call per class, as enumeration does.
    """
    merged: dict[tuple[int, ...], int] = defaultdict(int)
    for seq, count in _terms(order, *point):
        merged[canonical_class(seq)] += count
    return Census(order=order, entries=dict(merged))


def _evaluate(
    point: tuple[int, int, int, Mapping[int, int]], h: int, f: InvariantFunction
) -> float:
    """Order-h invariant at a parameter point (n1, n2, m, L).

    Reconstruction evaluates points with missing branches, where some
    multiplicities go negative; no validation on purpose.
    """
    return invariant_from_census(merge_terms(h, point), f)



# Public names of both families; each accepts either spec, and the
# invariant and profile accept graphs too.
realize_starlike = _realize
starlike_census = StarlikeSpec.census
starlike_invariant = evaluate_invariant
starlike_profile = invariant_profile


def mu_row(f: InvariantFunction, h: int, degrees: Iterable[int]) -> list[float]:
    """mu_coefficient(f, h, x) for each root degree x in degrees.

    The classes after degree x are a leaf sequence (x, 2, ..., 2, 1) of
    degree product x << (h - 1) and sum x + 2h - 1, and an inner one (x, 2,
    ..., 2) of product x << h and sum x + 2h. An index with a product-sum
    form reads these, and builds no tuple; any other reads the tuples. Either
    way a value is f(x + leaf) - f(x + inner) - (f(2 + leaf) - f(2 + inner)),
    with the same floats and the same first error.
    """
    if h < 1:
        raise ValueError(f"slope is defined for h >= 1, got {h}")
    g = f.multiset
    try:
        if g is None:
            fn, leaf, inner = f.fn, (2,) * (h - 1) + (1,), (2,) * h
            swap = fn((2,) + leaf) - fn((2,) + inner)
            return [fn((x,) + leaf) - fn((x,) + inner) - swap for x in degrees]
        k, s = h - 1, 2 * h
        swap = g(2 << k, s + 1) - g(2 << h, s + 2)
        return [g(x << k, x + s - 1) - g(x << h, x + s) - swap for x in degrees]
    except ArithmeticError as exc:
        raise IndexEvaluationError(f"index {f.name!r} at order {h}: {exc}") from exc


def mu_coefficient(f: InvariantFunction, h: int, m: int) -> float:
    """Slope of the order-h invariant in the count of length-h branches.

    Adding one branch of length h (holding n, m and the shorter counts
    fixed) changes the invariant by exactly this amount: one more root-leaf
    class, one fewer of each root-interior and leaf-interior class, plus one
    net interior segment. That is the leaf swap after degree m less the leaf
    swap after degree 2, the margin of condition (b) at t = h - 1.
    """
    if m < 3:
        raise ValueError(f"root degree must be >= 3, got {m}")
    return mu_row(f, h, (m,))[0]


def tail_coefficients(
    f: InvariantFunction, h: int, m: int, count_len1: int, count_len2: int
) -> tuple[float, float, float]:
    """Coefficients of the three deepest branch counts in the order-h invariant.

    Returns (c_{h-2}, c_{h-1}, c_h): the change in the invariant when one
    branch of length h-2, h-1 or h is added while n, m and all other counts
    up to h stay fixed. Requires h >= 5 so the coefficients depend only on
    the counts of lengths 1 and 2 (count_len1, count_len2).
    """
    if h < 5:
        raise ValueError(f"tail coefficients are exposed for h >= 5, got {h}")
    if m < 3:
        raise ValueError(f"root degree must be >= 3, got {m}")
    # n2 enters only the interior count, and cancels in the difference
    base = {1: count_len1, 2: count_len2}
    zero = _evaluate((1, 0, m, base), h, f)
    return tuple(_evaluate((1, 0, m, {**base, k: 1}), h, f) - zero for k in (h - 2, h - 1, h))


def parse_starlike_spec(doc: object) -> StarlikeSpec:
    """Parse the JSON spec document {"branches": [{"length","count"}, ...]}."""
    if not isinstance(doc, dict) or "branches" not in doc:
        raise FormatError("starlike spec must be an object with a 'branches' list")
    entries = doc["branches"]
    if not isinstance(entries, list) or not entries:
        raise FormatError("'branches' must be a non-empty list")
    counts: dict[int, int] = {}
    for entry in entries:
        if (
            not isinstance(entry, dict)
            or not _is_int(entry.get("length"))
            or not _is_int(entry.get("count"))
        ):
            raise FormatError(
                "each branch entry must be an object with integer 'length' and 'count'"
            )
        length = entry["length"]
        if length in counts:
            raise FormatError(f"branch length {length} listed more than once")
        counts[length] = entry["count"]
    return StarlikeSpec.from_counts(counts)


def _load_json(path: str, parse: Callable[[object], object]):
    """Read a JSON spec file and hand the document to a family's parser."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError(f"invalid JSON in {path}: {exc}") from None
    return parse(doc)


def load_starlike_spec(path: str) -> StarlikeSpec:
    return _load_json(path, parse_starlike_spec)
