import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import generalized_sweep
from oracle import close, graph_edges, oracle_census, oracle_invariant, oracle_longest_path
from pathseq import (
    FormatError,
    GenStarlikeSpec,
    InvalidSpecError,
    StarlikeSpec,
    builtin,
    coalesce_spec,
    generalized_census,
    generalized_invariant,
    generalized_profile,
    load_generalized_spec,
    longest_path_length,
    mu_coefficient,
    parse_generalized_spec,
    realize_generalized,
)


@pytest.fixture
def glued(spider):
    # K4 sharing its hub with the spider root: hub degree 3 + 3
    return GenStarlikeSpec(clique_size=4, star=spider)


def test_spec_basic_properties(glued):
    assert glued.vertex_count == 6 + 4 - 1
    assert glued.max_degree == 6
    assert glued.longest_path_length == max(4, 3 + 2)


def test_spec_rejects_small_clique(spider):
    with pytest.raises(InvalidSpecError):
        GenStarlikeSpec(clique_size=2, star=spider)


@pytest.mark.parametrize("clique_size", [3.0, "3", True, None])
def test_spec_rejects_a_clique_size_that_is_not_an_int(spider, clique_size):
    with pytest.raises(InvalidSpecError):
        GenStarlikeSpec(clique_size, spider)


def test_spec_is_the_starlike_spec_with_a_clique(spider, glued):
    assert isinstance(glued, StarlikeSpec) and glued.star == spider
    assert (glued.clique_size, glued.branches) == (4, spider.branches)
    assert glued == GenStarlikeSpec(star=spider, clique_size=4) != spider
    assert spider.clique_size == 1 and spider.max_degree == spider.root_degree
    assert not isinstance(spider, GenStarlikeSpec)
    assert repr(glued) == f"GenStarlikeSpec(clique_size=4, star={spider!r})"


def test_coalesce_normalizes_an_edge_clique():
    spec = coalesce_spec(2, {1: 1, 2: 2})
    assert isinstance(spec, StarlikeSpec)
    assert spec.branches == ((1, 2), (2, 2))


def test_coalesce_keeps_larger_cliques(spider):
    spec = coalesce_spec(4, {1: 1, 2: 2})
    assert isinstance(spec, GenStarlikeSpec)
    assert spec.star == spider


def test_coalesce_validates_star_first():
    with pytest.raises(InvalidSpecError):
        coalesce_spec(4, {1: 2})


def test_realize_generalized_degrees(glued):
    g = realize_generalized(glued)
    assert g.vertex_count == glued.vertex_count
    assert g.degree(0) == glued.max_degree
    # hub 6, three clique companions of degree 3, spider arms as in the tree
    assert sorted(g.degrees) == [1, 1, 1, 2, 2, 3, 3, 3, 6]


def test_frozen_census_fixture():
    gs = GenStarlikeSpec(clique_size=4, star=StarlikeSpec.from_counts({2: 3}))
    c2 = generalized_census(gs, 2)
    assert dict(c2.entries) == {
        (1, 2, 6): 3,
        (2, 6, 2): 3,
        (2, 6, 3): 9,
        (3, 3, 3): 3,
        (3, 3, 6): 6,
        (3, 6, 3): 3,
    }
    assert c2.total == 27
    c3 = generalized_census(gs, 3)
    assert c3.entries[(1, 2, 6, 3)] == 9
    assert c3.total == 45


def test_clique_size_three_collision_regime():
    # clique-rest degree 2 collides with path-interior degree 2, so the
    # closed form must merge classes exactly as the enumeration does
    gs = GenStarlikeSpec(clique_size=3, star=StarlikeSpec.from_counts({1: 1, 2: 2}))
    g = realize_generalized(gs)
    edges = graph_edges(g)
    assert dict(generalized_census(gs, 2).entries) == {
        (1, 2, 5): 2,
        (1, 5, 2): 4,
        (2, 2, 5): 2,
        (2, 5, 2): 6,
    }
    for order in range(2, gs.longest_path_length + 2):
        assert dict(generalized_census(gs, order).entries) == oracle_census(
            g.vertex_count, edges, order
        ), order


@pytest.mark.parametrize("spec", list(generalized_sweep((3, 4), 2, 2, 4)), ids=str)
def test_census_matches_oracle_across_family(spec):
    g = realize_generalized(spec)
    edges = graph_edges(g)
    for order in range(0, spec.longest_path_length + 2):
        got = dict(generalized_census(spec, order).entries)
        assert got == oracle_census(g.vertex_count, edges, order), order


@pytest.mark.parametrize("name", ["connectivity", "hyper-zagreb"])
@pytest.mark.parametrize("spec", list(generalized_sweep((3, 4), 2, 2, 4)), ids=str)
def test_low_order_invariants_match_oracle(spec, name):
    f = builtin(name)
    g = realize_generalized(spec)
    edges = graph_edges(g)
    for order in (0, 1):
        got = generalized_invariant(spec, order, f)
        want = oracle_invariant(g.vertex_count, edges, order, f)
        assert close(got, want), order


def test_invariant_vanishes_beyond_longest_path(glued):
    f = builtin("connectivity")
    rho = glued.longest_path_length
    assert generalized_invariant(glued, rho + 1, f) == 0.0
    assert generalized_census(glued, rho + 3).total == 0


def test_profile_concatenates_orders(glued):
    f = builtin("connectivity")
    profile = generalized_profile(glued, f, 4)
    assert profile == [generalized_invariant(glued, h, f) for h in range(5)]


def test_negative_max_order_is_rejected(glued):
    with pytest.raises(ValueError, match="max_order must be >= 0"):
        generalized_profile(glued, builtin("connectivity"), -1)


def test_hub_degree_slope_frozen_value():
    # the coalesced slope is the starlike one at hub degree m + n1 - 1
    m, n1 = 3, 3
    assert mu_coefficient(builtin("hyper-zagreb"), 2, m + n1 - 1) == -252.0


def test_hub_degree_slope_is_the_branch_count_slope():
    # replace one long filler branch by the probed length, keeping n, m and
    # every shorter count fixed; branches longer than h are interchangeable
    f = builtin("connectivity")
    h, m, n1 = 3, 3, 4
    a = GenStarlikeSpec(n1, StarlikeSpec.from_counts({6: 1, 7: 1, 8: 1}))
    b = GenStarlikeSpec(n1, StarlikeSpec.from_counts({h: 1, 8: 1, 10: 1}))
    assert a.vertex_count == b.vertex_count
    delta = generalized_invariant(b, h, f) - generalized_invariant(a, h, f)
    assert close(mu_coefficient(f, h, m + n1 - 1), delta, tol=1e-11)


def test_parse_round_trip(glued):
    doc = glued.to_dict()
    assert parse_generalized_spec(doc) == glued
    assert parse_generalized_spec(json.loads(json.dumps(doc))) == glued


def test_parse_normalizes_edge_clique():
    spec = parse_generalized_spec(
        {"clique": 2, "branches": [{"length": 2, "count": 3}]}
    )
    assert isinstance(spec, StarlikeSpec)
    assert spec.branches == ((1, 1), (2, 3))


@pytest.mark.parametrize(
    "doc",
    [
        [],
        {"branches": [{"length": 1, "count": 3}]},
        {"clique": "four", "branches": [{"length": 1, "count": 3}]},
        {"clique": 1, "branches": [{"length": 1, "count": 3}]},
    ],
)
def test_parse_rejects_malformed_documents(doc):
    with pytest.raises((FormatError, InvalidSpecError)):
        parse_generalized_spec(doc)


def test_load_generalized_spec(tmp_path, glued):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(glued.to_dict()))
    assert load_generalized_spec(path) == glued


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=3, max_value=5),
    st.dictionaries(
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=1, max_value=2),
        min_size=1,
        max_size=3,
    ).filter(lambda d: sum(d.values()) >= 3),
)
def test_census_property_random_specs(n1, counts):
    spec = GenStarlikeSpec(clique_size=n1, star=StarlikeSpec.from_counts(counts))
    g = realize_generalized(spec)
    edges = graph_edges(g)
    rho = spec.longest_path_length
    assert rho == oracle_longest_path(g.vertex_count, edges)
    assert rho == longest_path_length(g)
    for order in (2, rho, rho + 1):
        got = dict(generalized_census(spec, order).entries)
        assert got == oracle_census(g.vertex_count, edges, order)
