"""Graphs and specs answer through one protocol: longest_path, census and
censuses. The invariant functions take either and must agree with
enumeration on the realization."""

import pytest

import pathseq.starlike
from oracle import close, graph_edges, oracle_census, oracle_invariant, oracle_longest_path
from pathseq import (
    GenStarlikeSpec,
    StarlikeSpec,
    build_graph,
    builtin,
    evaluate_invariant,
    invariant_profile,
    realize_starlike,
)

F = builtin("connectivity")
SPIDER = StarlikeSpec.from_counts({1: 1, 2: 2})
GLUED = GenStarlikeSpec(4, SPIDER)
# a triangle with one pendant vertex at each corner: its longest path (4
# edges) is shorter than n - 1, where a graph's censuses stop
NET = build_graph(6, [(0, 1), (1, 2), (2, 0), (0, 3), (1, 4), (2, 5)])

# input, its realization, the last order its censuses reach
CASES = {
    "graph": (NET, NET, 5),
    "starlike": (SPIDER, realize_starlike(SPIDER), 4),
    "coalesced": (GLUED, realize_starlike(GLUED), 5),
}


@pytest.mark.parametrize("name", CASES)
def test_graphs_and_specs_answer_as_enumeration_does(name):
    obj, g, last = CASES[name]
    n, edges = g.vertex_count, graph_edges(g)
    rho = obj.longest_path()
    assert rho == oracle_longest_path(n, edges)
    assert [c.order for c in obj.censuses(10**6)] == list(range(last + 1))
    for h in range(rho + 2):
        assert dict(obj.census(h).entries) == oracle_census(n, edges, h), h
        assert close(evaluate_invariant(obj, h, F), oracle_invariant(n, edges, h, F)), h
    profile = invariant_profile(obj, F, rho + 2)
    assert len(profile) == rho + 3 and profile[rho + 1 :] == [0.0, 0.0]
    assert all(close(v, oracle_invariant(n, edges, h, F)) for h, v in enumerate(profile))
    with pytest.raises(ValueError, match="max_order must be >= 0"):
        invariant_profile(obj, F, -1)


@pytest.mark.parametrize("spec", [SPIDER, GLUED], ids=["starlike", "coalesced"])
def test_spec_profile_builds_no_census_past_the_longest_path(monkeypatch, spec):
    orders = []
    real_terms = pathseq.starlike._terms

    def counted(h, *point):
        orders.append(h)
        return real_terms(h, *point)

    monkeypatch.setattr(pathseq.starlike, "_terms", counted)
    rho = spec.longest_path_length
    profile = invariant_profile(spec, F, 10**6)
    assert orders == list(range(rho + 1))
    assert len(profile) == 10**6 + 1 and not any(profile[rho + 1 :])
    # built one order at a time, as they are consumed
    orders.clear()
    next(spec.censuses(10**6))
    assert orders == [0]
