"""Starlike and clique-coalesced trees: spec, parsers, realization, closed forms, slopes.

A starlike tree has exactly one vertex of degree three or more (the root);
it is determined by its multiset of branch lengths. Every path of order
h >= 1 falls into one of a handful of shapes (endpoints at the root, at a
leaf, or inside a branch; through the root or within a single branch), and
each shape's degree sequence and multiplicity have closed forms in the
branch-length counts. Censuses and invariants therefore need no enumeration.

A clique-coalesced tree glues one vertex of a complete graph on n1 vertices
onto the root of a starlike tree. Its paths lie entirely inside the tree
(the starlike shapes, except that the hub carries degree m + n1 - 1),
entirely inside the clique, or cross the hub with one side in each; all
three kinds have closed-form censuses. One spec class covers both families:
the clique is its clique_size, and a starlike tree is the clique-size-1
case, where every path through the clique has multiplicity zero.
"""

from __future__ import annotations

import json
from collections import defaultdict
from functools import cached_property
from itertools import accumulate, repeat
from math import fsum, perm
from typing import Callable, Iterable, Iterator, Mapping

from .errors import FormatError, IndexEvaluationError, InvalidSpecError, _is_int, _need_int
from .graph import DEFAULT_BUDGET, Census, Graph, build_graph, canonical_class, read_text
from .invariants import InvariantFunction, _real, evaluate_invariant, invariant_profile


def _check_int_branch(length: object, count: object) -> None:
    if not (_is_int(length) and _is_int(count)):
        raise InvalidSpecError(f"branch length {length!r} and count {count!r} must be integers")


class StarlikeSpec:
    """Branch-length multiset of a starlike tree, and the clique at its root.

    branches holds (length, count) pairs, strictly ascending in length with
    positive counts. The root degree is the total branch count and must be
    at least three. clique_size is 1 for a plain starlike tree; a clique of
    3 or more vertices sharing its hub with the root makes a GenStarlikeSpec.

    A spec is immutable and hashable. Two specs are equal when they have the
    same type, branches and clique size.

    Like a Graph, a spec has longest_path, census and censuses; it needs no
    budget and ignores the one it is given. Its value and values are its
    invariants in closed form, by _evaluate.
    """

    def __init__(self, branches: tuple[tuple[int, int], ...], clique_size: int = 1) -> None:
        self._set(branches, clique_size)
        prev = 0
        for length, count in branches:
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

    def _set(self, branches: tuple[tuple[int, int], ...], clique_size: int) -> None:
        """Fill both fields, and check the clique size; the branches are the caller's."""
        self.__dict__.update(branches=branches, clique_size=clique_size)
        n1 = clique_size
        # the type follows the clique size, so a spec's class names its family
        if not _is_int(n1) or n1 < 1 or (n1 >= 3) != isinstance(self, GenStarlikeSpec):
            raise InvalidSpecError(
                f"got clique size {n1!r}: a StarlikeSpec has 1, and a GenStarlikeSpec's"
                " clique_size must be >= 3 (a 2-clique just adds a pendant branch;"
                " use coalesce_spec to normalize)"
            )

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.branches, self.clique_size) == (other.branches, other.clique_size)

    def __hash__(self) -> int:
        return hash((self.branches, self.clique_size))

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(branches={self.branches!r})"

    @staticmethod
    def from_counts(counts: Mapping[int, int]) -> StarlikeSpec:
        """Build a starlike spec from a length -> count mapping; zero counts are dropped."""
        # integers first, as mixed keys cannot be sorted; the constructor checks the rest
        for length, count in counts.items():
            _check_int_branch(length, count)
        return StarlikeSpec(tuple((l, c) for l, c in sorted(counts.items()) if c))

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
        _need_int("order", order, 0)
        if order > self.longest_path_length:
            return Census(order=order, entries={})
        return _census(order, _point(self, order))

    def censuses(self, max_order: int, budget: int = DEFAULT_BUDGET) -> Iterator[Census]:
        """Closed-form censuses of orders 0..min(max_order, longest path),
        built one at a time as they are consumed; ValueError unless max_order
        >= 0 is an int."""
        _need_int("max_order", max_order, 0)
        point = _point(self, min(max_order, self.longest_path_length))
        return (_census(h, point) for h in range(len(point[4])))

    def value(self, order: int, f: InvariantFunction) -> float:
        """The order-h invariant; past the longest path it is 0.0, and no
        term is built."""
        _need_int("order", order, 0)
        if order > self.longest_path_length:
            return 0.0
        return _evaluate(_point(self, order), order, f, True)

    def values(self, f: InvariantFunction, max_order: int) -> Iterator[float]:
        """The invariants of orders 0..min(max_order, longest path),
        evaluated one at a time as they are consumed; ValueError unless
        max_order >= 0 is an int."""
        _need_int("max_order", max_order, 0)
        point = _point(self, min(max_order, self.longest_path_length))
        return (_evaluate(point, h, f, True) for h in range(len(point[4])))


class GenStarlikeSpec(StarlikeSpec):
    """A clique on clique_size >= 3 vertices sharing one vertex with the star root."""

    def __init__(self, clique_size: int, star: StarlikeSpec) -> None:
        if isinstance(star, StarlikeSpec):
            # a spec's branches passed their checks when it was built, and cannot change
            self._set(star.branches, clique_size)
        else:
            super().__init__(star.branches, clique_size)

    def __repr__(self) -> str:
        return f"GenStarlikeSpec(clique_size={self.clique_size!r}, star={self.star!r})"


def coalesce_spec(clique_size: int, branch_counts: Mapping[int, int]) -> StarlikeSpec:
    """Build the coalesced spec, normalizing the degenerate 2-clique.

    A 2-clique glued at the root is just one extra pendant edge, so that
    case returns a plain StarlikeSpec with the length-1 count bumped.
    """
    if not _is_int(clique_size) or clique_size < 2:
        raise InvalidSpecError(f"clique size must be an integer >= 2, got {clique_size!r}")
    ones = branch_counts.get(1, 0)
    # a bad length-1 count (-1 included) is left for the spec's checks to refuse
    bump = clique_size == 2 and _is_int(ones) and ones >= 0
    star = StarlikeSpec.from_counts({**branch_counts, 1: ones + 1} if bump else branch_counts)
    return star if clique_size == 2 else GenStarlikeSpec(clique_size, star)


def _point(spec: StarlikeSpec, top: int = 0) -> tuple:
    """(n1, n2, m, L, S) of a spec: clique size, tree vertex count, branch
    count, branch-length counts, and S[k], the number of branches of length
    <= k, for k <= top."""
    n1, L = spec.clique_size, spec.branch_counts
    S = list(accumulate(map(L.get, range(top + 1), repeat(0))))
    return n1, spec.vertex_count - n1 + 1, spec.root_degree, L, S


def _realize(spec: StarlikeSpec) -> Graph:
    """Build a spec's graph: the hub is vertex 0, a clique fills
    1..n1-1, and the branches follow in ascending length."""
    n1, n2, _, L, _ = _point(spec)
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
    h: int, n1: int, n2: int, m: int, L: Mapping[int, int], S: list[int] | None = None
) -> Iterator[tuple[tuple[tuple[int, int], ...], int]]:
    """Yield (class, multiplicity) for every order-h path shape.

    The point (n1, n2, m, L) is a clique on n1 vertices sharing its hub with
    the root of a tree on n2 vertices whose m >= 3 branches have length
    counts L. A class is the _canonical tuple of a degree sequence's runs
    (degree, length), at most five; the hub degree R = m + n1 - 1 >= 3 makes
    most shapes canonical as written, and the others pass through it. At
    n1 = 1 (a starlike tree) every clique count is perm(0, k) = 0, and only
    the a = 0 bridges (paths that end at the root) remain. Multiplicities
    are polynomial in the counts and may be negative when the point is not
    realizable; zero counts are not yielded. S, when given, holds S[k], the
    number of branches of length <= k, for every k <= h.
    """
    R = m + n1 - 1
    c = n1 - 1
    if h == 0:
        for d, count in ((R, 1), (1, m), (2, n2 - m - 1), (c, c)):
            if count:
                yield ((d, 1),), count
        return

    if S is None:
        S = list(accumulate(map(L.get, range(h + 1), repeat(0))))
    longer = m - S[h]
    lengths = sorted([k for k in L if k <= h])

    # A leaf end, the other end inside the same branch (longer than h); a root end is a = 0 below
    if longer:
        yield ((1, 1), (2, h)), longer

    # Strictly inside a single branch: each branch of length l > h
    # contributes l - h starting offsets minus the one leaf-ended one. The
    # shorter branches' total length reads only the lengths present.
    interior = (n2 - 1) - sum([k * L[k] for k in lengths]) - (h + 1) * longer
    if interior:
        yield ((2, h + 1),), interior

    # Through the root, one leaf endpoint at distance a+1, the other end
    # inside a second branch. The second branch needs length >= h-a; when the
    # leaf branch itself is that long it must be excluded.
    for a in [k - 1 for k in lengths if k < h]:
        count = L[a + 1] * (m - S[h - a - 1] - (1 if a >= h // 2 else 0))
        if count:
            leaf = ((1, 1), (2, a)) if a else ((1, 1),)
            yield leaf + ((R, 1), (2, h - 1 - a)), count

    # Through the root, both endpoints leaves: branch lengths a+1 and h-a-1.
    for la in lengths:
        lb = h - la
        if la == lb:
            count = L[la] * (L[la] - 1) // 2
        elif la < lb:
            count = L[la] * L.get(lb, 0)
        else:
            break
        if count:
            yield _canonical(((1, 1), (2, la - 1), (R, 1), (2, lb - 1), (1, 1))), count

    # Through the root, both endpoints strictly inside branches of lengths
    # > a and > h-a. Product of consecutive integers, so the halved midpoint
    # case stays integral.
    for a in range(1, h // 2 + 1):
        if a == h - a:
            count = (m - S[a]) * (m - 1 - S[a]) // 2
        else:
            count = (m - S[h - a]) * (m - 1 - S[a])
        if count:
            yield ((2, a), (R, 1), (2, h - a)), count

    # Inside the clique: ordered choices of the c non-hub vertices, with the
    # hub at distance a from the nearer end (an end at a = 0, halved at the
    # midpoint) or nowhere (halved for orientation). Every split a has the
    # same perm(c, h) ordered choices.
    through_hub = perm(c, h)
    if through_hub:
        for a in range(h // 2 + 1):
            count = through_hub // 2 if a == h - a else through_hub
            yield _canonical(((c, a), (R, 1), (c, h - a))), count
    no_hub = perm(c, h + 1) // 2
    if no_hub:
        yield ((c, h + 1),), no_hub

    # Bridges: a clique vertices on one side of the hub, and a tree side that
    # ends strictly inside a branch longer than h-a or at the leaf of a
    # length-(h-a) branch. At a = 0 the path ends at the root; perm(c, a)
    # vanishes for a >= n1.
    for a in range(min(h, n1)):
        ordered = perm(c, a)
        count = ordered * (m - S[h - a])
        if count:
            yield _canonical(((c, a), (R, 1), (2, h - a))), count
        count = ordered * L.get(h - a, 0)
        if count:
            yield _canonical(((c, a), (R, 1), (2, h - a - 1), (1, 1))), count


def _canonical(runs: tuple[tuple[int, int], ...]) -> tuple[tuple[int, int], ...]:
    """The class of a shape's runs: its empty runs dropped, and the lesser
    of the tuple and its reverse. The hub degree exceeds 2 and the clique
    degree, so no two runs of a shape that meet share a degree, and two
    shapes share a class just when their degree sequences are equal up to
    reversal."""
    key = tuple([run for run in runs if run[1]])
    rev = key[::-1]
    return key if key <= rev else rev


def merge_terms(order: int, point: tuple) -> dict[tuple[tuple[int, int], ...], int]:
    """Classes of one order at a point (n1, n2, m, L) or (n1, n2, m, L, S),
    with their multiplicities: the terms of _terms, merged.

    Shapes that share a degree sequence (a 3-clique's outer vertices look
    like branch-interior vertices) share a class, so an invariant summed
    over the classes makes one f call per class, as enumeration does.
    """
    merged: dict[tuple[tuple[int, int], ...], int] = defaultdict(int)
    for runs, count in _terms(order, *point):
        merged[runs] += count
    return merged


def _degrees(runs: tuple[tuple[int, int], ...]) -> tuple[int, ...]:
    """A class's canonical degree sequence."""
    return canonical_class([d for d, k in runs for _ in range(k)])


def _product_sum(runs: tuple[tuple[int, int], ...]) -> tuple[int, int]:
    """A class's degree product and degree sum, read off its runs."""
    p, s = 1, 0
    for d, k in runs:
        p = p << k if d == 2 else p * d**k
        s += d * k
    return p, s


def _spec_classes(order: int, point: tuple) -> dict[tuple[tuple[int, int], ...], int]:
    """merge_terms at a spec's point; a negative multiplicity means the
    closed forms are inconsistent."""
    classes = merge_terms(order, point)
    if min(classes.values(), default=0) < 0:
        raise AssertionError(f"negative multiplicity in the order-{order} census")
    return classes


def _census(order: int, point: tuple) -> Census:
    """A spec's census at a point of _point."""
    classes = _spec_classes(order, point)
    return Census(order=order, entries={_degrees(r): count for r, count in classes.items()})


def _evaluate(point: tuple, h: int, f: InvariantFunction, spec: bool = False) -> float:
    """Order-h invariant at a point (n1, n2, m, L) or (n1, n2, m, L, S): the
    fsum of count * f over the classes of merge_terms, f read as a built-in's
    product-sum form (bit for bit its value on the degree tuple) or else on
    the tuple. Every closed-form value is computed here. A spec's point
    (spec True) is checked as its census is; reconstruction evaluates points
    with missing branches, where some multiplicities go negative.
    """
    g = f.multiset
    classes = (_spec_classes if spec else merge_terms)(h, point).items()
    try:
        if g is None:
            return fsum([count * f(_degrees(runs)) for runs, count in classes])
        return fsum([count * g(*_product_sum(runs)) for runs, count in classes])
    except (ArithmeticError, TypeError) as exc:
        raise IndexEvaluationError(f"index {f.name!r} at order {h}: {exc}") from exc


# Public names of both families; each accepts either spec, and the
# invariant and profile accept graphs too.
realize_starlike = realize_generalized = _realize
starlike_census = generalized_census = StarlikeSpec.census
starlike_invariant = generalized_invariant = evaluate_invariant
starlike_profile = generalized_profile = invariant_profile


def mu_row(f: InvariantFunction, h: int, degrees: Iterable[int]) -> list[float]:
    """mu_coefficient(f, h, x) for each root degree x in degrees; ValueError
    unless h >= 1 and each x >= 3 is an int, as mu_coefficient checks them."""
    degrees = list(degrees)
    for x in degrees:
        _need_int("root degree", x, 3)
    return _mu_row(f, h, degrees)


def _mu_row(f: InvariantFunction, h: int, degrees: Iterable[int]) -> list[float]:
    """mu_row without the check of each degree, for callers whose degrees are
    3 and up by construction (the condition scans and the survey proof).

    The classes after degree x are a leaf sequence (x, 2, ..., 2, 1) of
    degree product x << (h - 1) and sum x + 2h - 1, and an inner one (x, 2,
    ..., 2) of product x << h and sum x + 2h. An index with a product-sum
    form reads these, and builds no tuple; any other reads the tuples, each
    value checked to be a real number. Either way a value is f(x + leaf) -
    f(x + inner) - (f(2 + leaf) - f(2 + inner)), with the same floats and the
    same first error.
    """
    _need_int("order", h, 1)
    g = f.multiset
    try:
        if g is None:
            fn, leaf, inner = f.fn, (2,) * (h - 1) + (1,), (2,) * h
            swap = _real(fn((2,) + leaf)) - _real(fn((2,) + inner))
            return [_real(fn((x,) + leaf)) - _real(fn((x,) + inner)) - swap for x in degrees]
        k, s = h - 1, 2 * h
        swap = g(2 << k, s + 1) - g(2 << h, s + 2)
        return [g(x << k, x + s - 1) - g(x << h, x + s) - swap for x in degrees]
    except (ArithmeticError, TypeError) as exc:
        raise IndexEvaluationError(f"index {f.name!r} at order {h}: {exc}") from exc


def mu_coefficient(f: InvariantFunction, h: int, m: int) -> float:
    """Slope of the order-h invariant in the count of length-h branches.

    Adding one branch of length h (holding n, m and the shorter counts
    fixed) changes the invariant by exactly this amount: one more root-leaf
    class, one fewer of each root-interior and leaf-interior class, plus one
    net interior segment. That is the leaf swap after degree m less the leaf
    swap after degree 2, the margin of condition (b) at t = h - 1.
    """
    _need_int("root degree", m, 3)
    return _mu_row(f, h, (m,))[0]


def tail_coefficients(
    f: InvariantFunction, h: int, m: int, count_len1: int, count_len2: int
) -> tuple[float, float, float]:
    """Coefficients of the three deepest branch counts in the order-h invariant.

    Returns (c_{h-2}, c_{h-1}, c_h): the change in the invariant when one
    branch of length h-2, h-1 or h is added while n, m and all other counts
    up to h stay fixed. Requires h >= 5 so the coefficients depend only on
    the counts of lengths 1 and 2 (count_len1, count_len2).
    """
    _need_int("order", h, 5)
    _need_int("root degree", m, 3)
    # n2 enters only the interior count, and cancels in the difference
    base = {1: count_len1, 2: count_len2}
    zero = _evaluate((1, 0, m, base), h, f)
    return tuple(_evaluate((1, 0, m, {**base, k: 1}), h, f) - zero for k in (h - 2, h - 1, h))


def _branch_counts(entries: object) -> dict[int, int]:
    """Read a document's 'branches' list into a length -> count mapping."""
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
    return counts


def parse_starlike_spec(doc: object) -> StarlikeSpec:
    """Parse the JSON spec document {"branches": [{"length","count"}, ...]}."""
    if not isinstance(doc, dict) or "branches" not in doc:
        raise FormatError("starlike spec must be an object with a 'branches' list")
    if "clique" in doc:
        raise FormatError("a 'clique' needs --generalized (parse_generalized_spec), not --starlike")
    return StarlikeSpec.from_counts(_branch_counts(doc["branches"]))


def parse_generalized_spec(doc: object) -> StarlikeSpec:
    """Parse {"clique": k, "branches": [...]}; a 2-clique normalizes to starlike."""
    if not isinstance(doc, dict) or "clique" not in doc or "branches" not in doc:
        raise FormatError("generalized spec must be an object with 'clique' and 'branches'")
    clique = doc["clique"]
    if not _is_int(clique):
        raise FormatError("'clique' must be an integer")
    return coalesce_spec(clique, _branch_counts(doc["branches"]))


def _load_json(path: str, parse: Callable[[object], object]):
    """Read a JSON spec file and hand the document to a family's parser."""
    try:
        # ValueError: malformed JSON, or an integer past the digit limit
        doc = json.loads(read_text(path))
    except (ValueError, RecursionError) as exc:
        raise FormatError(f"invalid JSON in {path}: {exc}") from None
    return parse(doc)


def load_starlike_spec(path: str) -> StarlikeSpec:
    return _load_json(path, parse_starlike_spec)


def load_generalized_spec(path: str) -> StarlikeSpec:
    return _load_json(path, parse_generalized_spec)
