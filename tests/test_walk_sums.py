"""Closed-form and graph profiles against an exact oracle at any depth: the
non-backtracking walk sums of oracle.walk_sums, which build no census and
read no term of the closed forms."""

import random
from collections import Counter

import pytest

from oracle import close, graph_edges, walk_sums
from pathseq import (
    StarlikeSpec,
    build_graph,
    builtin,
    census_series,
    invariant_from_census,
    longest_path_length,
    realize_starlike,
    starlike_profile,
)

# f = prod w(d_i) for each index, with int weights, so the oracle is exact
WEIGHTS = {"path-count": lambda d: 1, "hyper-zagreb": lambda d: d * d}


def _random_spec(rng):
    """3-6 branches, one of length 100-200 and the others 1-200: rho 101-400."""
    lengths = [rng.randint(100, 200)] + [rng.randint(1, 200) for _ in range(rng.randint(2, 5))]
    return StarlikeSpec.from_counts(Counter(lengths))


def _random_tree(rng):
    """A tree on 20-120 vertices whose vertex v hangs off one of the spread
    vertices before it: spread 1 is a path, and a wider spread branches more."""
    n, spread = rng.randint(20, 120), rng.randint(1, 6)
    return n, [(rng.randint(max(0, v - spread), v - 1), v) for v in range(1, n)]


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("name", sorted(WEIGHTS))
def test_closed_form_profiles_equal_the_walk_sums_at_every_order(name, seed):
    # A starlike tree's degree products are R * 2**k, so every term of the
    # closed form is an exact float, and its fsum rounds the exact sum once,
    # as float() does the oracle's int: the two are equal, bit for bit.
    spec = _random_spec(random.Random(seed))
    graph = realize_starlike(spec)
    rho = spec.longest_path_length
    exact = walk_sums(graph.vertex_count, graph_edges(graph), WEIGHTS[name], rho)
    assert starlike_profile(spec, builtin(name), rho) == [float(v) for v in exact]


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(12))
def test_census_series_profiles_of_random_trees_equal_the_walk_sums(seed):
    n, edges = _random_tree(random.Random(seed))
    graph = build_graph(n, edges)
    rho = longest_path_length(graph)
    censuses = census_series(graph, rho)
    count = walk_sums(n, edges, WEIGHTS["path-count"], rho)
    assert [invariant_from_census(c, builtin("path-count")) for c in censuses] == count
    # a product of mixed degrees past 2**53 rounds, by at most a few units
    # in the last place of each (positive) term
    exact = walk_sums(n, edges, WEIGHTS["hyper-zagreb"], rho)
    got = [invariant_from_census(c, builtin("hyper-zagreb")) for c in censuses]
    assert all(close(a, float(b), 1e-14) for a, b in zip(got, exact, strict=True))
