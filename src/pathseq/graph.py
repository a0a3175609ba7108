"""Validated simple graphs and canonical path enumeration.

A path of length h is a sequence of h+1 distinct pairwise-adjacent vertices;
the two orientations describe the same path, so exactly one is emitted (the
one whose first endpoint index is <= its last). Reducing a path to its degree
sequence, read off in path order and normalised against reversal, buckets the
paths of each order into a census: a map from canonical degree sequence to
multiplicity. Summing an index function against the census is then equivalent
to summing it path by path. Twins (vertices with the same open or closed
neighbourhood) have the same degree, so the census walk steps onto each twin
class once and counts the paths that its free members stand for.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .errors import (
    BudgetExceededError,
    DisconnectedError,
    DuplicateEdgeError,
    FormatError,
    SelfLoopError,
    VertexOutOfRangeError,
)

# Node-expansion cap shared by every exhaustive walk. Exceeding it raises;
# results are never silently truncated.
DEFAULT_BUDGET = 10**8


def canonical_class(degrees: Sequence[int]) -> tuple[int, ...]:
    """Return the lexicographically smaller of a degree sequence and its reverse."""
    seq = tuple(degrees)
    rev = seq[::-1]
    return seq if seq <= rev else rev


@dataclass(frozen=True)
class Graph:
    """A connected simple graph on vertices 0..vertex_count-1."""

    vertex_count: int
    adjacency: tuple[tuple[int, ...], ...]

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(len(nbrs) for nbrs in self.adjacency)

    @property
    def edge_count(self) -> int:
        return sum(len(nbrs) for nbrs in self.adjacency) // 2

    # The input protocol a spec shares: see invariants.invariant_profile.
    def longest_path(self, budget: int = DEFAULT_BUDGET) -> int:
        return longest_path_length(self, budget)

    def census(self, order: int, budget: int = DEFAULT_BUDGET) -> Census:
        """Census of canonical degree sequences over all paths of one order;
        empty, without a walk, for order >= n."""
        if order >= self.vertex_count:
            return Census(order=order, entries={})
        return census_series(self, order, budget)[order]

    def censuses(self, max_order: int, budget: int = DEFAULT_BUDGET) -> list[Census]:
        """Censuses of orders 0..min(max_order, n - 1), from one walk."""
        return census_series(self, max_order, budget)


@dataclass(frozen=True)
class Census:
    """Multiplicities of canonical degree sequences over all paths of one order."""

    order: int
    entries: dict[tuple[int, ...], int]

    @property
    def total(self) -> int:
        """Number of paths of this order."""
        return sum(self.entries.values())


def build_graph(vertex_count: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Validate an edge list and return the graph.

    Raises VertexOutOfRangeError, SelfLoopError, DuplicateEdgeError or
    DisconnectedError, each naming the offending edge or vertex.
    """
    if vertex_count < 1:
        raise ValueError(f"vertex_count must be positive, got {vertex_count}")
    neighbor_sets: list[set[int]] = [set() for _ in range(vertex_count)]
    for u, v in edges:
        for w in (u, v):
            if not 0 <= w < vertex_count:
                raise VertexOutOfRangeError(
                    f"edge ({u}, {v}): vertex {w} outside 0..{vertex_count - 1}"
                )
        if u == v:
            raise SelfLoopError(f"edge ({u}, {v}) is a self-loop")
        if v in neighbor_sets[u]:
            raise DuplicateEdgeError(f"edge ({u}, {v}) appears more than once")
        neighbor_sets[u].add(v)
        neighbor_sets[v].add(u)

    # Degrees must be positive, so the one-vertex graph is out of domain.
    if vertex_count == 1:
        raise DisconnectedError(
            "vertex 0 is isolated; the smallest supported graph is a single edge"
        )
    graph = Graph(vertex_count, tuple(tuple(sorted(s)) for s in neighbor_sets))
    dist = _distances(graph, 0)
    for v in range(vertex_count):
        if dist[v] < 0:
            raise DisconnectedError(f"vertex {v} is unreachable from vertex 0")
    return graph


def _distances(graph: Graph, source: int) -> list[int]:
    """Breadth-first edge distances from source; -1 marks unreachable vertices."""
    dist = [-1] * graph.vertex_count
    dist[source] = 0
    queue = [source]
    for v in queue:
        for w in graph.adjacency[v]:
            if dist[w] < 0:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


def parse_edge_list(text: str) -> Graph:
    """Parse the plain edge-list format.

    First non-comment line is "n e"; the next e lines each hold one edge
    "u v" with 0-based endpoints. '#' starts a comment anywhere on a line.
    """
    rows: list[tuple[int, list[str]]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        data = raw.split("#", 1)[0].strip()
        if data:
            rows.append((lineno, data.split()))

    if not rows:
        raise FormatError("edge list is empty")
    lineno, header = rows[0]
    if len(header) != 2:
        raise FormatError(f"line {lineno}: expected header 'n e', got {' '.join(header)!r}")
    try:
        vertex_count, edge_count = int(header[0]), int(header[1])
    except ValueError:
        raise FormatError(f"line {lineno}: header fields must be integers") from None
    if edge_count < 0 or vertex_count < 1:
        raise FormatError(f"line {lineno}: header values out of range")

    body = rows[1:]
    if len(body) != edge_count:
        raise FormatError(
            f"header declares {edge_count} edges but {len(body)} edge lines found"
        )
    edges = []
    for lineno, fields in body:
        if len(fields) != 2:
            raise FormatError(f"line {lineno}: expected 'u v', got {' '.join(fields)!r}")
        try:
            edges.append((int(fields[0]), int(fields[1])))
        except ValueError:
            raise FormatError(f"line {lineno}: endpoints must be integers") from None
    return build_graph(vertex_count, edges)


def load_edge_list(path: str) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_edge_list(fh.read())


def _twins(graph: Graph) -> tuple[list[int], list[int], list[int]]:
    """Twin classes: vertices with the same open, or the same closed,
    neighbourhood. Swapping two twins maps paths to paths with the same
    degree sequence.

    Returns each vertex's class, its rank (how many vertices of its class are
    smaller) and the class sizes; classes are numbered by their smallest
    vertex. A class is a module: every other vertex sees all of it or none.
    """
    by_open: dict[tuple[int, ...], int] = {}
    by_closed: dict[tuple[int, ...], int] = {}
    label: list[int] = []
    rank: list[int] = []
    sizes: list[int] = []
    for v, nbrs in enumerate(graph.adjacency):
        closed = tuple(sorted((*nbrs, v)))
        c = by_open.get(nbrs, by_closed.get(closed))
        if c is None:
            c = len(sizes)
            sizes.append(0)
        by_open.setdefault(nbrs, c)
        by_closed.setdefault(closed, c)
        label.append(c)
        rank.append(sizes[c])
        sizes[c] += 1
    return label, rank, sizes


def _walk(
    graph: Graph,
    max_length: int,
    budget: int,
    keys: Sequence,
    twins: tuple | None = None,
) -> Iterator[tuple[list, int]]:
    """Budgeted depth-first walk over every path of at most max_length edges,
    stepping onto each twin class once.

    twins is _twins(graph); without it every vertex is its own class, and
    every vertex path is walked. The walk meets vertices in the order of a
    vertex-by-vertex walk, but steps only onto the smallest free member of a
    class; the other free members are its twins, and their subtrees are the
    same size. A step onto class c with k free members thus stands for k
    vertex extensions, and W, the product of the k's along the trail, is the
    number of oriented vertex paths behind it. Each class sequence whose
    first class is <= its last is yielded once, as (trail, count). trail
    lists keys[v] for each vertex v on the path (range(n) as keys lists the
    vertices), and its length is the depth; it is extended and shrunk in
    place as the walk moves, so a consumer copies what it keeps. count is
    the number of paths it stands for: W, or W // 2 when a sequence with an
    edge starts and ends in one class (its reverse is yielded too, or it is
    its own reverse).

    Every step is one node expansion, and meeting a twin that is not stepped
    onto charges the expansions of its smaller twin's subtree. The walk thus
    charges what a vertex-by-vertex walk would have charged by the same
    point, whether it runs to the end or its consumer stops early; passing
    budget raises.
    """
    n = graph.vertex_count
    adj = graph.adjacency
    label, rank, sizes = twins or (range(n), [0] * n, [1] * n)
    used = [0] * len(sizes)
    trail: list = []
    # per step on the path: (W, expansions before the step, class, k), after
    # a root sentinel
    frames = [(1, 0, -1, 1)]
    # (depth, class) -> expansions of the subtree just walked from the vertex
    # at that depth onto a class member with free twins, which it meets next
    walked: dict[tuple[int, int], int] = {}
    # a virtual root adjacent to every vertex: its steps are the start vertices
    stack = [iter(range(n))]
    expansions = 0
    while stack:
        w = next(stack[-1], None)
        if w is None:
            stack.pop()
            if trail:
                trail.pop()
                _, before, c, k = frames.pop()
                used[c] -= 1
                if k > 1:
                    walked[len(trail), c] = expansions - before
            continue
        c = label[w]
        # a class's used members are its smallest, so w is on the path
        # (behind < 0), the member to step onto (0), or a free twin of the
        # member just walked from here (> 0)
        behind = rank[w] - used[c]
        if behind:
            if behind > 0:
                expansions += walked[len(trail), c]
                if expansions > budget:
                    raise BudgetExceededError(f"node-expansion budget {budget} exceeded")
            continue
        expansions += 1
        if expansions > budget:
            raise BudgetExceededError(f"node-expansion budget {budget} exceeded")
        k = sizes[c] - used[c]
        used[c] += 1
        trail.append(keys[w])
        weight = frames[-1][0] * k
        frames.append((weight, expansions - 1, c, k))
        first = frames[1][2]
        if first <= c:
            yield trail, weight // 2 if first == c and len(trail) > 1 else weight
        stack.append(iter(adj[w]) if len(trail) <= max_length else iter(()))


def enumerate_paths(
    graph: Graph, order: int, budget: int = DEFAULT_BUDGET
) -> Iterator[tuple[int, ...]]:
    """Yield every path of the given order once, as a vertex tuple.

    Orientation rule: the emitted tuple starts at the smaller endpoint.
    Order 0 paths are the single vertices. No path has n or more edges, so
    such orders yield nothing without a walk.
    """
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    if order >= graph.vertex_count:
        return
    for trail, _ in _walk(graph, order, budget, range(graph.vertex_count)):
        if len(trail) > order:
            yield tuple(trail)


def census_series(
    graph: Graph, max_order: int, budget: int = DEFAULT_BUDGET
) -> list[Census]:
    """Censuses for every order 0..min(max_order, n - 1) from one walk.

    Costs the same node expansions as enumerating the deepest order alone,
    since a depth-limited walk visits every shorter path as a prefix anyway.
    No path has n or more edges, so the walk and the list stop at n - 1.
    The walk is over twin classes, and each class sequence adds the number
    of paths it stands for; the budget is charged one expansion per
    oriented vertex path all the same.
    """
    if max_order < 0:
        raise ValueError(f"max_order must be >= 0, got {max_order}")
    depth = min(max_order, graph.vertex_count - 1)
    counts: list[dict[tuple[int, ...], int]] = [defaultdict(int) for _ in range(depth + 1)]
    for trail, count in _walk(graph, depth, budget, graph.degrees, _twins(graph)):
        seq = tuple(trail)
        rev = seq[::-1]
        counts[len(seq) - 1][seq if seq <= rev else rev] += count
    return [Census(order=h, entries=dict(c)) for h, c in enumerate(counts)]


path_census = Graph.census


def longest_path_length(graph: Graph, budget: int = DEFAULT_BUDGET) -> int:
    """Length of the longest simple path.

    A tree's comes from two breadth-first passes and needs no budget: the
    vertex farthest from any vertex ends a longest path. Other graphs are
    searched exhaustively over twin-class sequences, which stops at the
    first path through all n vertices. The search charges the budget what a
    vertex-by-vertex search would, so it raises at the same budgets.
    """
    n = graph.vertex_count
    if graph.edge_count == n - 1:
        dist = _distances(graph, 0)
        return max(_distances(graph, dist.index(max(dist))))
    best = 0
    for trail, _ in _walk(graph, n - 1, budget, range(n), _twins(graph)):
        if len(trail) - 1 > best:
            best = len(trail) - 1
            if best == n - 1:
                return best
    return best
