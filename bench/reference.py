"""Independent reference answers for checking pathseq.

Nothing here imports pathseq. Specs are plain data, graphs are built by this
module, and invariants come from listing paths rather than from the shape
classes of the closed forms:

- tree paths are listed pair by pair (one traversal per start vertex);
- paths through a clique use only the fact that the hub is the clique's one
  cut vertex, so k clique vertices can be ordered in c!/(c-k)! ways;
- small graphs can also be walked exhaustively (`brute_classes`).

A path is reduced to (order, degree product, degree sum), which is all the
built-in indices read, and integer-valued indices (path-count, hyper-zagreb)
are summed exactly.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict

# A spec is {"branches": [[length, count], ...]} with lengths ascending, plus
# "clique": n1 (>= 3) for a clique-coalesced tree.

EXACT_INDICES = ("path-count", "hyper-zagreb")
RECONSTRUCTABLE = ("connectivity", "sum-connectivity", "hyper-zagreb", "power:0.5")
REL_TOL = 1e-9


def spec_lengths(spec: dict) -> list[int]:
    """Branch lengths with repetition, ascending."""
    return [l for l, c in spec["branches"] for _ in range(c)]


def spec_from_lengths(lengths, clique: int | None = None) -> dict:
    counts = Counter(lengths)
    spec = {"branches": [[l, counts[l]] for l in sorted(counts)]}
    if clique is not None:
        spec["clique"] = clique
    return spec


def vertex_count(spec: dict) -> int:
    return spec.get("clique", 1) + sum(spec_lengths(spec))


def max_degree(spec: dict) -> int:
    return len(spec_lengths(spec)) + spec.get("clique", 1) - 1


def longest_path(spec: dict) -> int:
    lengths = spec_lengths(spec)
    through_clique = spec["clique"] - 1 + lengths[-1] if "clique" in spec else 0
    return max(lengths[-1] + lengths[-2], through_clique)


def spec_doc(spec: dict) -> dict:
    """The spec in pathseq's JSON input format."""
    doc = {"branches": [{"length": l, "count": c} for l, c in spec["branches"]]}
    if "clique" in spec:
        doc = {"clique": spec["clique"], **doc}
    return doc


def realize(spec: dict) -> tuple[int, list[tuple[int, int]]]:
    """Vertex count and edges: hub 0, clique 1..n1-1, then the branches."""
    n1 = spec.get("clique", 1)
    edges = [(i, j) for i in range(n1) for j in range(i + 1, n1)]
    nxt = n1
    for length in spec_lengths(spec):
        prev = 0
        for _ in range(length):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
    return nxt, edges


def adjacency(n: int, edges) -> list[list[int]]:
    adj = [[] for _ in range(n)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    return adj


# ---------------------------------------------------------------- path classes
# A class table maps (order, degree product, degree sum) -> number of paths.


def tree_classes(adj, deg) -> Counter:
    """Every path of a tree, one traversal per start vertex."""
    table = Counter((0, d, d) for d in deg)
    for start in range(len(adj)):
        d0 = deg[start]
        stack = [(w, start, 1, d0 * deg[w], d0 + deg[w]) for w in adj[start]]
        while stack:
            v, parent, h, prod, total = stack.pop()
            if v > start:
                table[(h, prod, total)] += 1
            for w in adj[v]:
                if w != parent:
                    dw = deg[w]
                    stack.append((w, v, h + 1, prod * dw, total + dw))
    return table


def brute_classes(n: int, edges) -> Counter:
    """Every simple path of any graph by exhaustive walk; small graphs only."""
    adj = adjacency(n, edges)
    deg = [len(a) for a in adj]
    table = Counter((0, d, d) for d in deg)

    def walk(path, on_path, prod, total):
        v = path[-1]
        for w in adj[v]:
            if w in on_path:
                continue
            p, s = prod * deg[w], total + deg[w]
            if w > path[0]:
                table[(len(path), p, s)] += 1
            path.append(w)
            on_path.add(w)
            walk(path, on_path, p, s)
            on_path.discard(w)
            path.pop()

    for v in range(n):
        walk([v], {v}, deg[v], deg[v])
    return table


def spec_classes(spec: dict) -> Counter:
    """Path classes of a starlike or clique-coalesced spec.

    Tree paths are listed pair by pair with the hub carrying its full degree.
    A path that uses k >= 1 non-hub clique vertices either stays in the
    clique or runs clique -> hub -> down one branch, because the hub is the
    clique's only cut vertex.
    """
    lengths = spec_lengths(spec)
    n1 = spec.get("clique", 1)
    c = n1 - 1
    hub = len(lengths) + c
    n_tree = 1 + sum(lengths)
    tree_edges = []
    nxt = 1
    for length in lengths:
        prev = 0
        for _ in range(length):
            tree_edges.append((prev, nxt))
            prev = nxt
            nxt += 1
    adj = adjacency(n_tree, tree_edges)
    deg = [len(a) for a in adj]
    deg[0] = hub
    table = tree_classes(adj, deg)
    if c == 0:
        return table

    table[(0, c, c)] += c
    tails = Counter()  # hub-free downward paths from the hub, by (len, prod, sum)
    for length in lengths:
        for t in range(1, length + 1):
            leaf = t == length
            tails[(t, 2 ** (t - 1) * (1 if leaf else 2), 2 * (t - 1) + (1 if leaf else 2))] += 1
    for k in range(1, c + 1):
        ordered = math.perm(c, k)
        cp, cs = c**k, c * k
        if k >= 2:
            table[(k - 1, cp, cs)] += ordered // 2
        table[(k, cp * hub, cs + hub)] += ordered * (k + 1) // 2
        for (t, tp, ts), cnt in tails.items():
            table[(k + t, cp * hub * tp, cs + hub + ts)] += ordered * cnt
    return table


# ---------------------------------------------------------------- indices


def index_value(name: str, prod: int, total: int):
    """f of one path from its degree product and sum (built-in indices only)."""
    if name == "path-count":
        return 1
    if name == "hyper-zagreb":
        return prod * prod
    if name == "connectivity":
        return 1.0 / math.sqrt(prod)
    if name == "sum-connectivity":
        return 1.0 / math.sqrt(total)
    if name.startswith("power:"):
        return prod ** float(name.partition(":")[2])
    raise ValueError(f"no reference for index {name!r}")


def profile_values(table: Counter, name: str, max_order: int) -> list:
    """Invariant per order 0..max_order; exact ints for integer indices."""
    exact = name in EXACT_INDICES
    per_order = defaultdict(list)
    for (h, prod, total), cnt in table.items():
        if h <= max_order:
            per_order[h].append(cnt * index_value(name, prod, total))
    return [
        sum(per_order[h]) if exact else math.fsum(per_order[h])
        for h in range(max_order + 1)
    ]


def longest_order(table: Counter) -> int:
    return max(h for h, _, _ in table)


def close(a, b, tol: float = REL_TOL) -> bool:
    """Scale-aware equality: relative to the larger magnitude, at every size."""
    if isinstance(a, int) and isinstance(b, int):
        return a == b
    return abs(a - b) <= tol * max(abs(a), abs(b)) or a == b


def first_difference(pa, pb, tol: float = REL_TOL) -> int | None:
    """First order whose reference values differ, or None."""
    for h in range(max(len(pa), len(pb))):
        a = pa[h] if h < len(pa) else 0
        b = pb[h] if h < len(pb) else 0
        if not close(a, b, tol):
            return h
    return None


def profile_matches(values, expected, tol: float = REL_TOL) -> bool:
    """A float profile from pathseq against a reference, order by order."""
    return len(values) == len(expected) and all(
        close(float(v), float(e), tol) for v, e in zip(values, expected)
    )


# ---------------------------------------------------------------- families


def _partitions(total: int, largest: int):
    if total == 0:
        yield ()
        return
    for first in range(min(total, largest), 0, -1):
        for rest in _partitions(total - first, first):
            yield (first,) + rest


def family_specs(family: str, n: int, r: int | None = None) -> list[dict]:
    """Every same-size spec of a family slice."""
    if family == "starlike":
        return [
            spec_from_lengths(p)
            for p in _partitions(n - 1, n - 1)
            if len(p) >= 3
        ]
    specs = []
    for n1 in range(3, r - 1):
        m = r + 1 - n1
        n2 = n - n1 + 1
        if m < 3 or n2 - 1 < m:
            continue
        specs.extend(
            spec_from_lengths(p, n1)
            for p in _partitions(n2 - 1, n2 - 1)
            if len(p) == m
        )
    return specs


def spec_key(spec: dict) -> str:
    """Canonical text of a spec, e.g. 'K4 1x2 3x1' (clique, length x count)."""
    branches = " ".join(f"{l}x{c}" for l, c in spec["branches"])
    return f"K{spec['clique']} {branches}" if "clique" in spec else branches


def collisions(specs: list[dict], profiles: list[list], name: str) -> set:
    """Unordered pairs of specs whose reference profiles agree at every order."""
    found = set()
    if name in EXACT_INDICES:
        groups = defaultdict(list)
        for spec, prof in zip(specs, profiles):
            groups[tuple(prof)].append(spec_key(spec))
        for members in groups.values():
            found.update(
                tuple(sorted((a, b))) for i, a in enumerate(members) for b in members[i + 1:]
            )
        return found
    for i in range(len(specs)):
        for j in range(i + 1, len(specs)):
            if first_difference(profiles[i], profiles[j]) is None:
                found.add(tuple(sorted((spec_key(specs[i]), spec_key(specs[j])))))
    return found


def padded_profiles(specs: list[dict], name: str) -> list[list]:
    """Reference profiles of a slice, all to the slice's longest path."""
    h_max = max(longest_path(s) for s in specs)
    return [profile_values(spec_classes(s), name, h_max) for s in specs]


# ---------------------------------------------------------------- certificates


def condition_flags(name: str, family: str, x_max: int, t_max: int, tol: float) -> tuple[bool, bool]:
    """The two qualification inequalities, scanned from their definitions.

    (a) starlike: (f(x) - f(y)) / (x - y) != f(2) - f(1) for 3 <= x < y;
        clique-coalesced: (x f(x) - y f(y)) / (x - y) != f(1).
    (b) for every depth t and x >= 3, replacing a leaf by an interior vertex
        at depth t+1 changes f differently after a degree-x vertex than after
        a degree-2 vertex.
    """
    def f(degrees):
        return float(index_value(name, math.prod(degrees), sum(degrees)))

    single = {x: f((x,)) for x in range(1, x_max + 1)}
    ok_a = True
    for x in range(3, x_max + 1):
        for y in range(x + 1, x_max + 1):
            if family == "starlike":
                lhs, base = (single[x] - single[y]) / (x - y), single[2] - single[1]
            else:
                lhs, base = (x * single[x] - y * single[y]) / (x - y), single[1]
            if abs(lhs - base) <= tol:
                ok_a = False
    ok_b = True
    for t in range(t_max + 1):
        leaf, inner = (2,) * t + (1,), (2,) * (t + 1)
        base = f((2,) + leaf) - f((2,) + inner)
        for x in range(3, x_max + 1):
            if abs(f((x,) + leaf) - f((x,) + inner) - base) <= tol:
                ok_b = False
    return ok_a, ok_b
