import itertools

import pytest

import pathseq.graph
import pathseq.invariants
from pathseq import GenStarlikeSpec, StarlikeSpec, build_graph


@pytest.fixture(autouse=True)
def clean_registry():
    saved = dict(pathseq.invariants._registry)
    yield
    pathseq.invariants._registry.clear()
    pathseq.invariants._registry.update(saved)


@pytest.fixture
def walk_below_n(monkeypatch):
    """Make graph._walk refuse n or more edges: no path on n vertices is that long."""
    real_walk = pathseq.graph._walk

    def walk(graph, max_length, *rest):
        if max_length >= graph.vertex_count:
            raise AssertionError(f"walk of {max_length} edges on {graph.vertex_count} vertices")
        return real_walk(graph, max_length, *rest)

    monkeypatch.setattr(pathseq.graph, "_walk", walk)


@pytest.fixture
def spider():
    # one length-1 branch, two length-2 branches: n=6, root degree 3
    return StarlikeSpec.from_counts({1: 1, 2: 2})


@pytest.fixture
def k4():
    return build_graph(4, [(a, b) for a in range(4) for b in range(a + 1, 4)])


@pytest.fixture
def path5():
    return build_graph(5, [(i, i + 1) for i in range(4)])


def branch_count_maps(max_len, max_count, max_root_degree):
    """All branch count maps with lengths <= max_len and 3 <= m <= max_root_degree."""
    for counts in itertools.product(range(max_count + 1), repeat=max_len):
        if not counts or counts[-1] == 0:
            continue
        if not 3 <= sum(counts) <= max_root_degree:
            continue
        yield {l + 1: c for l, c in enumerate(counts) if c}


def starlike_sweep(max_len, max_count, max_root_degree):
    seen = set()
    for counts in branch_count_maps(max_len, max_count, max_root_degree):
        spec = StarlikeSpec.from_counts(counts)
        if spec.branches not in seen:
            seen.add(spec.branches)
            yield spec
    # shorter top lengths are produced by lower max_len iterations
    for l in range(1, max_len):
        for counts in branch_count_maps(l, max_count, max_root_degree):
            spec = StarlikeSpec.from_counts(counts)
            if spec.branches not in seen:
                seen.add(spec.branches)
                yield spec


def generalized_sweep(clique_sizes, max_len, max_count, max_root_degree):
    for n1 in clique_sizes:
        for star in starlike_sweep(max_len, max_count, max_root_degree):
            yield GenStarlikeSpec(clique_size=n1, star=star)
