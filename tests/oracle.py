"""Independent brute-force oracle used to pin expected values.

Deliberately avoids the package internals: plain dict adjacency, list
recursion, no shared helpers. Slow but obviously correct.
"""

from collections import Counter
from itertools import combinations


def oracle_paths(n, edges, order):
    adj = {v: [] for v in range(n)}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    deg = [len(adj[v]) for v in range(n)]
    if order == 0:
        return [(deg[v],) for v in range(n)]
    found = []

    def extend(path):
        if len(path) == order + 1:
            if path[0] < path[-1]:
                found.append(tuple(deg[v] for v in path))
            return
        for w in adj[path[-1]]:
            if w not in path:
                path.append(w)
                extend(path)
                path.pop()

    for v in range(n):
        extend([v])
    return found


def oracle_census(n, edges, order):
    counts = Counter()
    for seq in oracle_paths(n, edges, order):
        counts[min(seq, tuple(reversed(seq)))] += 1
    return dict(counts)


def oracle_invariant(n, edges, order, f):
    return sum(f(seq) for seq in oracle_paths(n, edges, order))


def oracle_longest_path(n, edges):
    best = 0
    for order in range(n - 1, 0, -1):
        if oracle_paths(n, edges, order):
            return order
    return best


def oracle_search_cost(n, edges):
    """Steps a vertex-by-vertex depth-first search takes to find a longest
    path: start vertices and neighbours in increasing order, one step per
    vertex put on the path, stopping at the first path through all n."""
    adj = {v: [] for v in range(n)}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    steps = 0

    def extend(path):
        nonlocal steps
        steps += 1
        if len(path) == n:
            return True
        for w in sorted(adj[path[-1]]):
            if w not in path:
                path.append(w)
                if extend(path):
                    return True
                path.pop()
        return False

    for v in range(n):
        if extend([v]):
            break
    return steps


def graph_edges(g):
    """Edge list of a package Graph, for feeding back into the oracle."""
    return [(a, b) for a in range(g.vertex_count) for b in g.adjacency[a] if a < b]


def close(a, b, tol=1e-12):
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def oracle_condition_a(g, base, tol):
    """Condition (a) by every pair of g's keys in order: (passed, first pair
    whose margin is not above tol, least margin). A NaN margin fails and is
    never the least."""
    ok, witness, low = True, None, float("inf")
    for x, y in combinations(g, 2):
        margin = abs((g[x] - g[y]) / (x - y) - base)
        if margin < low:
            low = margin
        if not margin > tol and ok:
            ok, witness = False, (x, y)
    return ok, witness, low


def oracle_condition_b(fn, x_max, t_max, tol):
    """Condition (b) by every depth t <= t_max and root degree 3 <= x <=
    x_max, f read at degree tuples: (first (t, x) whose margin is not above
    tol, least margin). A NaN margin fails and is never the least."""
    witness, low = None, float("inf")
    for t in range(t_max + 1):
        leaf, inner = (2,) * t + (1,), (2,) * (t + 1)
        swap = fn((2,) + leaf) - fn((2,) + inner)
        for x in range(3, x_max + 1):
            margin = abs(fn((x,) + leaf) - fn((x,) + inner) - swap)
            if margin < low:
                low = margin
            if witness is None and not margin > tol:
                witness = (t, x)
    return witness, low


def walk_sums(n, edges, w, max_order):
    """Exact values, orders 0..max_order, of the index f(d) = prod w(d_i) on
    a tree, from non-backtracking walk sums: no census and no path list.

    In a tree each path of length h >= 1 is two non-backtracking walks, one
    each way. A[e] sums the weight products of the walks of length h that
    end with the directed edge e = (u -> v): A_1(u -> v) = w(u) w(v), and
    A_(h+1)(v -> x) = (sum over u of A_h(u -> v) - A_h(x -> v)) * w(x), the
    walks into v that did not come from x. The order-h value is sum(A_h) / 2.
    With int weights every value is an exact int.
    """
    deg = [0] * n
    for a, b in edges:
        deg[a] += 1
        deg[b] += 1
    weight = [w(d) for d in deg]
    tails = [a for a, _ in edges] + [b for _, b in edges]
    heads = [b for _, b in edges] + [a for a, _ in edges]
    half = len(edges)
    reverse = list(range(half, 2 * half)) + list(range(half))
    walks = [weight[t] * weight[h] for t, h in zip(tails, heads)]
    values = [sum(weight)]
    for _ in range(max_order):
        values.append(sum(walks) // 2)
        into = [0] * n
        for head, a in zip(heads, walks):
            into[head] += a
        walks = [(into[t] - walks[r]) * weight[h] for t, h, r in zip(tails, heads, reverse)]
    return values
