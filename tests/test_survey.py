"""The sorted survey sweep finds exactly the collisions of an all-pairs scan,
and distinguish the first difference of two whole profiles, while neither
builds a census no comparison reads."""

import math
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pathseq.starlike
from oracle import close
from pathseq import (
    InvariantFunction,
    StarlikeSpec,
    builtin,
    distinguish,
    generalized_specs,
    invariant_profile,
    starlike_profile,
    starlike_specs,
    survey_distinguishability,
)
from pathseq.reconstruct import _first_difference

# takes both signs, e.g. f(1) < 0 < f(3, 2)
MIXED = InvariantFunction("mixed-sign", lambda d: (sum(d) - 2.2 * len(d)) / math.prod(d))
INDICES = [builtin("connectivity"), builtin("path-count"), MIXED]
# NaN on every path through a root of degree >= 5
NAN_HUB = InvariantFunction("nan-hub", lambda d: math.nan if max(d) >= 5 else 1.0 / sum(d))


def all_pairs(specs, f, tol):
    """Reference: compare every pair's whole profile, in spec order."""
    h_max = max((s.longest_path_length for s in specs), default=0)
    profiles = [starlike_profile(s, f, h_max) for s in specs]
    return [
        (specs[i], specs[j])
        for i in range(len(specs))
        for j in range(i + 1, len(specs))
        if all(close(a, b, tol) for a, b in zip(profiles[i], profiles[j]))
    ]


SLICES = [("starlike", n, None) for n in range(4, 17)] + [
    ("generalized", n, r) for n in range(7, 16) for r in range(5, n)
]


@pytest.mark.parametrize("tol", [1e-9, 0.3])
@pytest.mark.parametrize("f", INDICES, ids=[f.name for f in INDICES])
def test_sweep_matches_all_pairs(f, tol):
    for family, n, r in SLICES:
        report = survey_distinguishability(n, f, family, r, tol)
        specs = starlike_specs(n) if r is None else generalized_specs(n, r)
        assert report.spec_count == len(specs)
        assert report.pairs_checked == len(specs) * (len(specs) - 1) // 2
        assert report.collisions == all_pairs(specs, f, tol), (family, n, r)


def test_specs_with_nan_values_collide_with_nothing():
    # NaN on every path through a root of degree >= 5
    f = InvariantFunction("nan-hub", lambda d: math.nan if max(d) >= 5 else 1.0 / sum(d))
    for tol in (1e-9, 0.3):
        report = survey_distinguishability(12, f, tol=tol)
        assert report.collisions == all_pairs(starlike_specs(12), f, tol)
        assert all(s.root_degree < 5 for pair in report.collisions for s in pair)


@pytest.mark.parametrize("tol", [-1e-9, 1.0, 2.5, math.nan, math.inf])
def test_tolerance_outside_unit_interval_is_rejected(tol):
    with pytest.raises(ValueError):
        survey_distinguishability(8, builtin("connectivity"), tol=tol)


@cache
def family(n, r):
    return starlike_specs(n) if r is None else generalized_specs(n, r)


# starlike slices, and coalesced slices whose specs share the hub degree r
# but differ in clique size and root degree
FAMILY_SLICES = [(n, None) for n in range(6, 19)] + [(n, r) for n in range(9, 17) for r in (6, 7, 8)]


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(FAMILY_SLICES),
    st.sampled_from(INDICES + [NAN_HUB]),
    st.sampled_from([1e-9, 0.3]),
    st.data(),
)
def test_distinguish_matches_first_difference_of_whole_profiles(slice_, f, tol, data):
    specs = family(*slice_)
    a = data.draw(st.sampled_from(specs), label="a")
    # peers share a's clique size, root degree and branch counts up to length h
    h = data.draw(st.integers(0, 8), label="h")

    def prefix(s):
        return s.clique_size, s.root_degree, [s.count(k) for k in range(1, h + 1)]

    peers = [s for s in specs if prefix(s) == prefix(a)]
    b = data.draw(st.sampled_from(peers) | st.sampled_from(specs), label="b")
    h_max = max(a.longest_path_length, b.longest_path_length)
    whole = _first_difference(invariant_profile(a, f, h_max), invariant_profile(b, f, h_max), tol)
    assert distinguish(a, b, f, tol) == whole


@pytest.fixture
def census_orders(monkeypatch):
    """The order of every census built from closed-form terms, in build order."""
    orders = []
    real_terms = pathseq.starlike._terms

    def counted(h, *point):
        orders.append(h)
        return real_terms(h, *point)

    monkeypatch.setattr(pathseq.starlike, "_terms", counted)
    return orders


def test_survey_builds_each_census_once_per_branch_count_prefix(census_orders):
    # an all-pairs scan of whole profiles builds 7,569 censuses here
    report = survey_distinguishability(21, builtin("connectivity"))
    assert report.spec_count == 616 and report.collisions == []
    assert len(census_orders) <= 2000


@pytest.mark.parametrize(
    "a, b, order, built",
    [
        # same root degree and counts below length 3: orders 0-2 are shared
        ({1: 1, 3: 1, 20: 2}, {1: 1, 4: 1, 19: 1, 20: 1}, 3, [0, 1, 2, 3, 3]),
        # root degrees 4 and 5 separate at order 0
        ({1: 2, 30: 2}, {1: 3, 29: 1, 30: 1}, 0, [0, 0]),
        # the same spec twice: every order up to the longest path, once
        ({1: 2, 10: 1, 30: 1}, {1: 2, 10: 1, 30: 1}, None, list(range(41))),
    ],
)
def test_distinguish_builds_no_census_past_the_separating_order(census_orders, a, b, order, built):
    a, b = StarlikeSpec.from_counts(a), StarlikeSpec.from_counts(b)
    assert distinguish(a, b, builtin("connectivity")) == order
    assert census_orders == built
