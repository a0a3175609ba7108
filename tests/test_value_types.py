"""The value types' contract: equality, hash, immutability, repr and construction."""

import pytest

import pathseq
from pathseq import (
    Census,
    GenStarlikeSpec,
    Graph,
    InvariantFunction,
    ReconstructionResult,
    StarlikeSpec,
    build_graph,
    builtin,
)

SPIDER = StarlikeSpec(((1, 1), (2, 2)))


class _OtherSpec(StarlikeSpec):
    pass


def test_specs_with_equal_fields_are_equal_and_hash_alike():
    twin = StarlikeSpec.from_counts({2: 2, 1: 1})
    assert twin == SPIDER and hash(twin) == hash(SPIDER)
    glued, twin = GenStarlikeSpec(4, SPIDER), GenStarlikeSpec(4, twin)
    assert glued == twin and hash(glued) == hash(twin)
    assert len({SPIDER, twin, glued, StarlikeSpec(((1, 1), (2, 2)))}) == 2


def test_specs_with_equal_branches_differ_by_clique_size_and_type():
    assert GenStarlikeSpec(4, SPIDER) != SPIDER
    assert SPIDER != GenStarlikeSpec(4, SPIDER)
    assert GenStarlikeSpec(4, SPIDER) != GenStarlikeSpec(5, SPIDER)
    assert _OtherSpec(SPIDER.branches) != SPIDER
    assert SPIDER != _OtherSpec(SPIDER.branches)
    assert SPIDER != SPIDER.branches


@pytest.mark.parametrize(
    "value, name",
    [
        (SPIDER, "branches"),
        (SPIDER, "clique_size"),
        (SPIDER, "extra"),
        (GenStarlikeSpec(4, SPIDER), "clique_size"),
        (Census(order=1, entries={}), "order"),
        (Census(order=1, entries={}), "entries"),
        (builtin("connectivity"), "fn"),
        (builtin("connectivity"), "multiset"),
        (build_graph(2, [(0, 1)]), "adjacency"),
    ],
    ids=lambda v: v if isinstance(v, str) else type(v).__name__,
)
def test_fields_cannot_be_assigned_or_deleted(value, name):
    with pytest.raises(AttributeError):
        setattr(value, name, 3)
    with pytest.raises(AttributeError):
        delattr(value, name)


def test_a_spec_keeps_its_cached_branch_counts_readable():
    spec = StarlikeSpec(((1, 3),))
    assert spec.branch_counts == {1: 3} and spec.count(1) == 3 and spec.count(2) == 0


def test_reprs_name_the_fields():
    assert repr(SPIDER) == "StarlikeSpec(branches=((1, 1), (2, 2)))"
    assert repr(GenStarlikeSpec(4, SPIDER)) == (
        "GenStarlikeSpec(clique_size=4, star=StarlikeSpec(branches=((1, 1), (2, 2))))"
    )
    assert repr(Census(order=1, entries={(1, 2): 3})) == "Census(order=1, entries={(1, 2): 3})"


def test_keyword_and_default_construction():
    census = Census(order=2, entries={(1, 2, 1): 4})
    assert census.order == 2 and census.total == 4
    f = InvariantFunction("one", lambda d: 1.0)
    assert f.multiset is None and f((1, 2)) == 1.0
    assert InvariantFunction(name="one", fn=f.fn) == f
    graph = Graph(vertex_count=2, adjacency=((1,), (0,)))
    assert graph == build_graph(2, [(0, 1)]) and graph.edge_count == 1
    result = ReconstructionResult(spec=SPIDER, residuals=[0.0, 1e-12])
    assert result.max_residual == 1e-12 and result.spec is SPIDER
    assert StarlikeSpec(branches=SPIDER.branches) == SPIDER


def test_dir_lists_every_exported_name():
    assert set(pathseq.__all__) <= set(dir(pathseq))
    assert len(pathseq.__all__) == 68
