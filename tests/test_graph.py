import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import graph_edges, oracle_census, oracle_longest_path, oracle_paths
from pathseq import (
    BudgetExceededError,
    Census,
    DisconnectedError,
    DuplicateEdgeError,
    FormatError,
    SelfLoopError,
    VertexOutOfRangeError,
    build_graph,
    builtin,
    canonical_class,
    census_series,
    enumerate_paths,
    invariant_profile,
    longest_path_length,
    parse_edge_list,
    path_census,
)


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
    assert series[5:] == [Census(order=h, entries={}) for h in range(5, 13)]
    order = 10**5
    assert path_census(path5, order) == Census(order=order, entries={})
    f = builtin("connectivity")
    profile = invariant_profile(path5, f, order)
    assert profile[:5] == invariant_profile(path5, f, 4)
    assert len(profile) == order + 1 and not any(profile[5:])
