import json
import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import starlike_sweep
from oracle import close, graph_edges, oracle_census, oracle_invariant, oracle_longest_path
from pathseq import (
    FormatError,
    GenStarlikeSpec,
    InvalidSpecError,
    StarlikeSpec,
    builtin,
    load_starlike_spec,
    longest_path_length,
    mu_coefficient,
    parse_starlike_spec,
    realize_starlike,
    starlike_census,
    starlike_invariant,
    starlike_profile,
    tail_coefficients,
)


def test_spec_basic_properties(spider):
    assert spider.vertex_count == 6
    assert spider.root_degree == 3
    assert spider.max_branch_length == 2
    assert spider.longest_path_length == 4
    assert spider.count(2) == 2
    assert spider.count(7) == 0


def test_spec_from_counts_drops_zero_entries():
    spec = StarlikeSpec.from_counts({1: 3, 2: 0, 5: 1})
    assert spec.branches == ((1, 3), (5, 1))


@pytest.mark.parametrize(
    "counts",
    [
        {1: 2},                # root degree 2 is a plain path
        {3: 1},                # root degree 1
        {},                    # no branches at all
        {0: 3},                # zero-length branch
        {-1: 3},               # negative length
        {1: -2, 2: 5},         # negative count
    ],
)
def test_spec_rejects_invalid_counts(counts):
    with pytest.raises(InvalidSpecError):
        StarlikeSpec.from_counts(counts)


def test_spec_rejects_non_integer_entries():
    with pytest.raises(InvalidSpecError):
        StarlikeSpec.from_counts({1.5: 2, 2: 1})
    with pytest.raises(InvalidSpecError):
        StarlikeSpec.from_counts({1: "3", 2: 1})


@pytest.mark.parametrize(
    "build",
    [
        lambda: StarlikeSpec(((1, 2.5), (2, 1))),
        lambda: StarlikeSpec(((1.0, 3),)),
        lambda: StarlikeSpec(((1, True), (2, 2))),
        lambda: StarlikeSpec.from_counts({"a": 0, 1: 3}),
        # a clique of 3 or more needs GenStarlikeSpec
        lambda: StarlikeSpec(((1, 3),), 4),
        lambda: StarlikeSpec(((1, 3),), 1.0),
    ],
    ids=["fractional-count", "float-length", "bool-count", "unsortable-keys", "clique-4", "clique-1.0"],
)
def test_spec_constructor_requires_integers(build):
    with pytest.raises(InvalidSpecError):
        build()


def test_spec_constructor_requires_sorted_distinct_lengths():
    with pytest.raises(InvalidSpecError):
        StarlikeSpec(branches=((2, 1), (1, 2)))
    with pytest.raises(InvalidSpecError):
        StarlikeSpec(branches=((1, 2), (1, 1), (2, 1)))


@pytest.mark.parametrize(
    "counts, rho",
    [
        ({1: 3}, 2),           # star: two branches of the max length
        ({2: 1, 5: 2}, 10),    # two longest branches join
        ({1: 1, 3: 1, 5: 1}, 8),  # longest plus second longest
    ],
)
def test_longest_path_closed_form(counts, rho):
    spec = StarlikeSpec.from_counts(counts)
    assert spec.longest_path_length == rho
    assert longest_path_length(realize_starlike(spec)) == rho


def test_realize_starlike_structure(spider):
    g = realize_starlike(spider)
    assert g.vertex_count == spider.vertex_count
    assert g.edge_count == spider.vertex_count - 1
    assert g.degree(0) == spider.root_degree
    assert sorted(g.degrees) == [1, 1, 1, 2, 2, 3]


def test_spider_census_fixture(spider):
    census = starlike_census(spider, 2)
    assert dict(census.entries) == {(1, 2, 3): 2, (1, 3, 2): 2, (2, 3, 2): 1}
    assert census.total == 5


def test_spider_connectivity_fixture(spider):
    f = builtin("connectivity")
    value = starlike_invariant(spider, 2, f)
    assert close(value, 4 / math.sqrt(6) + 1 / math.sqrt(12))


@pytest.mark.parametrize("order", [0, 1, 2, 3, 4])
def test_spider_census_matches_oracle(spider, order):
    g = realize_starlike(spider)
    assert dict(starlike_census(spider, order).entries) == oracle_census(
        g.vertex_count, graph_edges(g), order
    )


@pytest.mark.parametrize("spec", list(starlike_sweep(3, 2, 5)), ids=str)
def test_census_matches_oracle_across_family(spec):
    g = realize_starlike(spec)
    edges = graph_edges(g)
    for order in range(0, spec.longest_path_length + 2):
        got = dict(starlike_census(spec, order).entries)
        assert got == oracle_census(g.vertex_count, edges, order), order


@pytest.mark.parametrize("name", ["connectivity", "hyper-zagreb"])
@pytest.mark.parametrize("spec", list(starlike_sweep(3, 2, 5)), ids=str)
def test_low_order_invariants_match_oracle(spec, name):
    f = builtin(name)
    g = realize_starlike(spec)
    edges = graph_edges(g)
    for order in (0, 1):
        got = starlike_invariant(spec, order, f)
        want = oracle_invariant(g.vertex_count, edges, order, f)
        assert close(got, want), order


def test_invariant_vanishes_beyond_longest_path():
    spec = StarlikeSpec.from_counts({1: 1, 2: 1, 3: 1})
    assert spec.longest_path_length == 5
    f = builtin("connectivity")
    for order in (6, 7, 10):
        assert starlike_invariant(spec, order, f) == 0.0
        assert starlike_census(spec, order).total == 0


def test_profile_concatenates_orders(spider):
    f = builtin("sum-connectivity")
    profile = starlike_profile(spider, f, 4)
    assert profile == [starlike_invariant(spider, h, f) for h in range(5)]


def test_negative_max_order_is_rejected(spider):
    # as invariant_profile rejects it for a graph, not an empty profile
    with pytest.raises(ValueError, match="max_order must be >= 0"):
        starlike_profile(spider, builtin("connectivity"), -1)


def test_mu_is_the_branch_count_slope():
    # two specs with the same n, m and other counts, differing by one
    # branch of the probed length against one longer filler
    f = builtin("connectivity")
    for h, m in ((2, 3), (3, 4), (5, 6)):
        fillers = [h + 3 + i for i in range(m - 1)]
        with_branch = StarlikeSpec.from_counts(Counter(fillers + [h]))
        without = StarlikeSpec.from_counts(Counter(fillers[:-1] + [fillers[-1] - 1, h + 1]))
        assert with_branch.vertex_count == without.vertex_count
        delta = starlike_invariant(with_branch, h, f) - starlike_invariant(without, h, f)
        assert close(mu_coefficient(f, h, m), delta, tol=1e-11)


def test_mu_hyper_zagreb_frozen_value():
    assert mu_coefficient(builtin("hyper-zagreb"), 2, 3) == -60.0


def test_tail_coefficients_match_finite_differences():
    f = builtin("connectivity")
    h, m, L1, L2 = 5, 4, 1, 1
    fillers = [h + 11]
    base = StarlikeSpec.from_counts(Counter([1] * L1 + [2] * L2 + fillers[: m - 4] + [h + 1, h + 1]))
    coeffs = tail_coefficients(f, h, m, L1, L2)
    for slot, k in enumerate((h - 2, h - 1, h)):
        other = 2 * (h + 1) - k
        mod = StarlikeSpec.from_counts(Counter([1] * L1 + [2] * L2 + fillers[: m - 4] + [k, other]))
        assert mod.vertex_count == base.vertex_count
        delta = starlike_invariant(mod, h, f) - starlike_invariant(base, h, f)
        assert close(coeffs[slot], delta, tol=1e-11)


def test_tail_coefficients_constant_function():
    one = builtin("path-count")
    for m in (3, 5, 8):
        for h in (5, 7, 9):
            assert tail_coefficients(one, h, m, 2, 1) == (2.0 - m, 0.0, 0.0)


def test_tail_coefficients_input_validation():
    f = builtin("connectivity")
    with pytest.raises(ValueError):
        tail_coefficients(f, 4, 3, 0, 0)
    with pytest.raises(ValueError):
        tail_coefficients(f, 5, 2, 0, 0)


def test_parse_round_trip(spider):
    doc = spider.to_dict()
    assert parse_starlike_spec(doc) == spider
    assert parse_starlike_spec(json.loads(json.dumps(doc))) == spider


@pytest.mark.parametrize(
    "doc",
    [
        [],
        {},
        {"branches": []},
        {"branches": "nope"},
        {"branches": [{"length": 1}]},
        {"branches": [{"length": 1, "count": 2}, {"length": 1, "count": 1}]},
    ],
)
def test_parse_rejects_malformed_documents(doc):
    with pytest.raises(FormatError):
        parse_starlike_spec(doc)


def test_parse_propagates_spec_validation():
    with pytest.raises(InvalidSpecError):
        parse_starlike_spec({"branches": [{"length": 1, "count": 2}]})


def test_load_starlike_spec(tmp_path, spider):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spider.to_dict()))
    assert load_starlike_spec(path) == spider


@settings(max_examples=30, deadline=None)
@given(
    st.dictionaries(
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=1, max_value=3),
        min_size=1,
        max_size=4,
    ).filter(lambda d: sum(d.values()) >= 3)
)
def test_census_property_random_specs(counts):
    spec = StarlikeSpec.from_counts(counts)
    g = realize_starlike(spec)
    edges = graph_edges(g)
    rho = spec.longest_path_length
    assert rho == oracle_longest_path(g.vertex_count, edges)
    for order in (2, 3, rho, rho + 1):
        got = dict(starlike_census(spec, order).entries)
        assert got == oracle_census(g.vertex_count, edges, order)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_census_reads_no_branch_longer_than_its_order(data):
    """Theorem 1: the order-h census of a spec is fixed by its vertex count,
    clique size, root degree and counts of branches of length <= h."""
    h = data.draw(st.integers(0, 8), label="h")
    clique = data.draw(st.sampled_from([1, 3, 4, 6]), label="clique")
    short = data.draw(st.lists(st.integers(1, h), max_size=4), label="short") if h else []
    k = data.draw(st.integers(max(2, 3 - len(short)), 5), label="long branches")
    tail_a = data.draw(st.lists(st.integers(h + 1, h + 6), min_size=k, max_size=k), label="tail")
    # move length between long branches: same count and total, every branch still > h
    tail_b = list(tail_a)
    for i, j, d in data.draw(
        st.lists(st.tuples(st.integers(0, k - 1), st.integers(0, k - 1), st.integers(1, 5)),
                 min_size=1, max_size=3),
        label="moves",
    ):
        if tail_b[i] - d > h:
            tail_b[i] -= d
            tail_b[j] += d

    def spec(lengths):
        star = StarlikeSpec.from_counts(Counter(lengths))
        return star if clique == 1 else GenStarlikeSpec(clique, star)

    a, b = spec(short + tail_a), spec(short + tail_b)
    assert (a.vertex_count, a.root_degree) == (b.vertex_count, b.root_degree)
    assert all(a.count(length) == b.count(length) for length in range(1, h + 1))
    assert a.census(h) == b.census(h)


def test_closed_forms_past_longest_path_build_no_terms(monkeypatch):
    from pathseq import GenStarlikeSpec, starlike

    f = builtin("connectivity")
    real_terms = starlike._terms
    specs = (
        StarlikeSpec.from_counts({1: 1, 2: 2}),
        GenStarlikeSpec(4, StarlikeSpec.from_counts({2: 3})),
    )
    for spec in specs:
        rho = spec.longest_path_length

        def guarded(h, *point, rho=rho):
            # a huge order would allocate its O(h) prefix list before this raised
            if h > rho:
                raise AssertionError(f"terms built at order {h} past the longest path {rho}")
            return real_terms(h, *point)

        monkeypatch.setattr(starlike, "_terms", guarded)
        assert starlike_invariant(spec, 10**9, f) == 0.0
        census = starlike_census(spec, 10**9)
        assert census.order == 10**9 and census.entries == {} and census.total == 0
        profile = starlike_profile(spec, f, rho + 3)
        assert profile[rho] > 0 and profile[rho + 1 :] == [0.0, 0.0, 0.0]
        assert profile[: rho + 1] == [starlike_invariant(spec, h, f) for h in range(rho + 1)]
