import os
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pathseq.graph
from oracle import (
    graph_edges,
    oracle_census,
    oracle_longest_path,
    oracle_paths,
    oracle_search_cost,
)
from pathseq import (
    BudgetExceededError,
    Census,
    DisconnectedError,
    DuplicateEdgeError,
    FormatError,
    GenStarlikeSpec,
    SelfLoopError,
    StarlikeSpec,
    VertexOutOfRangeError,
    build_graph,
    builtin,
    canonical_class,
    census_series,
    enumerate_paths,
    generalized_census,
    invariant_profile,
    longest_path_length,
    parse_edge_list,
    path_census,
    realize_generalized,
    resolve_index,
)

BENCH_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def test_canonical_class_picks_lex_min_orientation():
    assert canonical_class((3, 2, 1)) == (1, 2, 3)
    assert canonical_class((1, 2, 3)) == (1, 2, 3)
    assert canonical_class((2, 3, 2)) == (2, 3, 2)
    assert canonical_class((5,)) == (5,)
    assert canonical_class((1, 3, 2, 1)) == (1, 2, 3, 1)


def test_build_graph_degrees(path5):
    assert path5.vertex_count == 5
    assert path5.edge_count == 4
    assert path5.degrees == (1, 2, 2, 2, 1)
    assert path5.degree(2) == 2


def test_build_graph_rejects_bad_vertex():
    with pytest.raises(VertexOutOfRangeError):
        build_graph(3, [(0, 3)])
    with pytest.raises(VertexOutOfRangeError):
        build_graph(3, [(-1, 2)])


def test_build_graph_rejects_self_loop():
    with pytest.raises(SelfLoopError):
        build_graph(3, [(0, 1), (1, 1)])


def test_build_graph_rejects_duplicate_edge_in_either_orientation():
    with pytest.raises(DuplicateEdgeError):
        build_graph(3, [(0, 1), (1, 2), (1, 0)])


def test_build_graph_rejects_disconnected():
    with pytest.raises(DisconnectedError) as exc:
        build_graph(4, [(0, 1), (2, 3)])
    assert "2" in str(exc.value)


def test_build_graph_rejects_single_vertex():
    with pytest.raises(DisconnectedError):
        build_graph(1, [])


def test_parse_edge_list_with_comments():
    g = parse_edge_list("# a triangle\n3 3\n0 1\n1 2\n\n0 2\n")
    assert g.degrees == (2, 2, 2)


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("", "empty"),
        ("3\n0 1\n", "header"),
        ("3 2\n0 1\n", "2 edges"),
        ("3 1\n0 1\n1 2\n", "1 edges"),
        ("3 2\n0 x\n1 2\n", "line 2"),
        ("two three\n0 1\n", "line 1"),
        ("3 2\n0 1 9\n1 2\n", "line 2"),
    ],
)
def test_parse_edge_list_errors(text, fragment):
    with pytest.raises(FormatError) as exc:
        parse_edge_list(text)
    assert fragment in str(exc.value)


def test_enumerate_paths_matches_oracle_on_k4(k4):
    got = sorted(enumerate_paths(k4, 3))
    assert len(got) == 12
    assert all(p[0] < p[-1] for p in got)
    assert len(set(got)) == 12


def test_enumerate_paths_order_zero(path5):
    assert sorted(enumerate_paths(path5, 0)) == [(v,) for v in range(5)]


@pytest.mark.parametrize("order", range(5))
def test_path_census_matches_oracle_on_path(path5, order):
    edges = graph_edges(path5)
    assert dict(path_census(path5, order).entries) == oracle_census(5, edges, order)


def test_census_series_consistent_with_single_orders(k4):
    series = census_series(k4, 3)
    assert len(series) == 4
    for h, census in enumerate(series):
        assert census.order == h
        assert census.entries == path_census(k4, h).entries


def test_census_total_counts_paths(k4):
    # every path contributes exactly once to its class
    census = path_census(k4, 2)
    assert census.total == len(oracle_paths(4, graph_edges(k4), 2))


def test_census_beyond_longest_path_is_empty(path5):
    assert path_census(path5, 5).total == 0
    assert path_census(path5, 9).entries == {}


def test_budget_exhaustion_raises(k4):
    with pytest.raises(BudgetExceededError):
        path_census(k4, 3, budget=5)
    # a full-length path needs four pushes, so it cannot finish in three
    with pytest.raises(BudgetExceededError):
        longest_path_length(k4, budget=3)


@pytest.mark.parametrize(
    "builder, expected",
    [
        (lambda: build_graph(5, [(i, i + 1) for i in range(4)]), 4),
        (lambda: build_graph(6, [(i, (i + 1) % 6) for i in range(6)]), 5),
        (lambda: build_graph(4, [(a, b) for a in range(4) for b in range(a + 1, 4)]), 3),
        (lambda: build_graph(2, [(0, 1)]), 1),
    ],
)
def test_longest_path_length(builder, expected):
    assert longest_path_length(builder()) == expected


@st.composite
def random_trees(draw):
    n = draw(st.integers(min_value=2, max_value=9))
    # parent arrays give uniform-ish random labelled trees, always connected
    edges = [(draw(st.integers(min_value=0, max_value=v - 1)), v) for v in range(1, n)]
    return n, edges


@settings(max_examples=40, deadline=None)
@given(random_trees())
def test_random_tree_census_matches_oracle(tree):
    n, edges = tree
    g = build_graph(n, edges)
    series = census_series(g, n - 1)
    for order in range(n):
        assert dict(series[order].entries) == oracle_census(n, edges, order)
    assert longest_path_length(g) == oracle_longest_path(n, edges)


def test_tree_longest_path_needs_no_budget():
    # two breadth-first passes, no path enumeration
    spider = build_graph(7, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)])
    assert longest_path_length(spider, budget=1) == 4


def test_enumerate_paths_order_zero_charges_budget(path5):
    # one node expansion per vertex, as path_census(g, 0, budget) charges
    with pytest.raises(BudgetExceededError):
        list(enumerate_paths(path5, 0, budget=4))
    assert len(list(enumerate_paths(path5, 0, budget=5))) == 5


def test_orders_past_n_minus_one_edges_walk_no_further(path5, walk_below_n):
    series = census_series(path5, 12)
    assert series[:5] == [path_census(path5, h) for h in range(5)]
    assert series[5:] == []
    order = 10**5
    assert path_census(path5, order) == Census(order=order, entries={})
    f = builtin("connectivity")
    profile = invariant_profile(path5, f, order)
    assert profile[:5] == invariant_profile(path5, f, 4)
    assert len(profile) == order + 1 and not any(profile[5:])


def test_census_series_lists_no_order_past_n_minus_one_edges():
    # the list stops at n - 1 edges, however large max_order is
    k8 = build_graph(8, _clique(8))
    series = census_series(k8, 10**4)
    assert [c.order for c in series] == list(range(8))
    assert series == k8.censuses(10**4) == census_series(k8, 7)


def test_enumerate_paths_past_n_minus_one_edges_walks_nothing(k4, walk_below_n):
    assert list(enumerate_paths(k4, 4)) == []
    assert list(enumerate_paths(k4, 10**5)) == []
    assert len(list(enumerate_paths(k4, 3))) == 12


def _clique(k):
    return [(a, b) for a in range(k) for b in range(a + 1, k)]


@st.composite
def small_graphs(draw):
    """Connected graphs on at most 8 vertices, most of them rich in twins:
    K_n, cycles, K_{a,b}, cliques with pendant leaves, and random trees
    with extra edges; vertices are relabelled at random."""
    kind = draw(st.sampled_from(["complete", "cycle", "bipartite", "pendants", "random"]))
    if kind == "complete":
        n = draw(st.integers(2, 8))
        edges = _clique(n)
    elif kind == "cycle":
        n = draw(st.integers(3, 8))
        edges = [(i, (i + 1) % n) for i in range(n)]
    elif kind == "bipartite":
        a = draw(st.integers(1, 4))
        n = a + draw(st.integers(1, 8 - a))
        edges = [(i, j) for i in range(a) for j in range(a, n)]
    elif kind == "pendants":
        k = draw(st.integers(2, 6))
        n = k + draw(st.integers(0, 8 - k))
        edges = _clique(k) + [(draw(st.integers(0, k - 1)), v) for v in range(k, n)]
    else:
        n = draw(st.integers(2, 8))
        edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
        others = [e for e in _clique(n) if e not in edges]
        if others:
            edges += draw(st.lists(st.sampled_from(others), unique=True))
    perm = draw(st.permutations(range(n)))
    return n, [(perm[a], perm[b]) for a, b in edges]


def _oriented_paths(n, edges, h):
    """Oriented vertex paths of at most h edges: what a complete walk charges."""
    return n + 2 * sum(len(oracle_paths(n, edges, i)) for i in range(1, h + 1))


@settings(max_examples=60, deadline=None)
@given(small_graphs())
def test_twin_walk_matches_oracle(graph):
    n, edges = graph
    g = build_graph(n, edges)
    series = census_series(g, n - 1)
    for order in range(n):
        assert series[order].entries == oracle_census(n, edges, order)
    assert longest_path_length(g) == oracle_longest_path(n, edges)


@settings(max_examples=40, deadline=None)
@given(small_graphs(), st.integers(0, 7))
def test_complete_census_walk_charges_every_oriented_path(graph, h):
    n, edges = graph
    g = build_graph(n, edges)
    h = min(h, n - 1)
    budget = _oriented_paths(n, edges, h)
    assert len(census_series(g, h, budget)) == h + 1
    with pytest.raises(BudgetExceededError):
        census_series(g, h, budget - 1)


def _split(n):
    """Complete split graph: the even vertices form a clique, the odd ones an
    independent set, and every even vertex sees every odd one."""
    return [(a, b) for a in range(n) for b in range(a + 1, n) if a % 2 == 0 or b % 2 == 0]


@settings(max_examples=60, deadline=None)
@given(small_graphs())
@example((6, [(i, j) for i in range(2) for j in range(2, 6)]))  # K_{2,4}
@example((7, _clique(4) + [(0, 4), (1, 5), (2, 6)]))  # three pendants on K4
@example((9, _split(9)))
def test_longest_path_charges_what_a_vertex_search_charges(graph):
    n, edges = graph
    if len(edges) == n - 1:
        return  # a tree needs no budget
    g = build_graph(n, edges)
    budget = oracle_search_cost(n, edges)
    assert longest_path_length(g, budget) == oracle_longest_path(n, edges)
    with pytest.raises(BudgetExceededError):
        longest_path_length(g, budget - 1)


def test_split_graph_longest_path_needs_n_expansions():
    # a clique of 9 twins joined to 8 independent twins: a twin-class walk
    # that tried clique-clique-clique first would search a large dead end
    g = build_graph(17, _split(17))
    assert longest_path_length(g) == 16
    assert longest_path_length(g, budget=17) == 16
    with pytest.raises(BudgetExceededError):
        longest_path_length(g, budget=16)


@pytest.mark.parametrize("n", [4, 12, 40])
def test_complete_graph_longest_path_needs_n_expansions(n):
    g = build_graph(n, _clique(n))
    assert longest_path_length(g, budget=n) == n - 1
    with pytest.raises(BudgetExceededError):
        longest_path_length(g, budget=n - 1)


def test_census_walks_each_twin_class_once(monkeypatch):
    real_walk = pathseq.graph._walk
    items = 0

    def counting_walk(*args):
        nonlocal items
        for item in real_walk(*args):
            items += 1
            yield item

    monkeypatch.setattr(pathseq.graph, "_walk", counting_walk)
    spec = GenStarlikeSpec(clique_size=7, star=StarlikeSpec.from_counts({1: 1, 2: 1, 3: 1, 8: 1}))
    rho = spec.longest_path_length
    series = census_series(realize_generalized(spec), rho)
    # the six non-hub clique vertices are twins: a vertex-by-vertex walk
    # yields tens of thousands of paths here
    assert items < 1000
    assert [c.entries for c in series] == [generalized_census(spec, h).entries for h in range(rho + 1)]


def test_benchmark_graph_answers():
    # the benchmark's enumerate_graphs workload, checked against its own
    # reference answers, so that a wrong graph census fails here first
    if BENCH_DIR not in sys.path:
        sys.path.insert(0, BENCH_DIR)
    import gen
    import reference

    inputs = gen.generate("enumerate_graphs", 1)
    checked = 0
    for job in inputs.jobs:
        if job["kind"] != "graph_profile":
            continue
        expected = inputs.expected[job["id"]]
        g = parse_edge_list(inputs.files[job["graph"]])
        rho = longest_path_length(g)
        assert rho == expected["rho"]
        values = invariant_profile(g, resolve_index(job["index"]), rho)
        assert reference.profile_matches(values, expected["values"]), job["graph"]
        checked += 1
    assert checked == gen.TREE_COUNT + gen.K7_COUNT + 1
