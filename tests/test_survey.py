"""The survey finds exactly the collisions of an all-pairs scan, whether its
proof decides the slice or its order-by-order refinement does, and
distinguish, the refinement of two specs, the first difference of two whole
profiles, while neither builds a census no comparison reads. The proof's
bounds hold against exact values."""

import decimal
import math
from fractions import Fraction
from functools import cache
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pathseq.reconstruct
import pathseq.starlike
from oracle import close
from pathseq import (
    IndexEvaluationError,
    InvariantFunction,
    StarlikeSpec,
    builtin,
    distinguish,
    generalized_specs,
    invariant_from_census,
    invariant_profile,
    starlike_profile,
    starlike_specs,
    survey_distinguishability,
)
from pathseq.reconstruct import (
    _branch_sets,
    _cell_bounds,
    _cell_separates,
    _class_forms,
    _first_difference,
    _order0_points,
    _partition_counts,
    _path_bound,
    _proven,
    _refine,
)
from pathseq.starlike import _point

# takes both signs, e.g. f(1) < 0 < f(3, 2)
MIXED = InvariantFunction("mixed-sign", lambda d: (sum(d) - 2.2 * len(d)) / math.prod(d))
PATH_COUNT = builtin("path-count")
INDICES = [builtin("connectivity"), PATH_COUNT, MIXED]
# every built-in with a product-sum form and nonzero slopes; path-count's
# slopes are 0, and the proof takes it with lag-2 cells (PATH_COUNT below)
PROVABLE = [builtin("connectivity"), builtin("sum-connectivity"), builtin("hyper-zagreb"),
            builtin("power", 0.5), builtin("power", -1)]
SURVEY_INDICES = INDICES + PROVABLE[1:]
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


def swept(monkeypatch, *args):
    """The survey as its sweep alone gives it."""
    with monkeypatch.context() as patch:
        patch.setattr(pathseq.reconstruct, "_proven", lambda *_: False)
        return survey_distinguishability(*args)


@pytest.mark.parametrize("tol", [1e-9, 0.3])
@pytest.mark.parametrize("f", SURVEY_INDICES, ids=[f.name for f in SURVEY_INDICES])
def test_sweep_matches_all_pairs(monkeypatch, f, tol):
    proven = 0
    for family, n, r in SLICES:
        report = survey_distinguishability(n, f, family, r, tol)
        specs = starlike_specs(n) if r is None else generalized_specs(n, r)
        assert report.spec_count == len(specs)
        assert report.pairs_checked == len(specs) * (len(specs) - 1) // 2
        assert report.collisions == all_pairs(specs, f, tol), (family, n, r)
        assert report == swept(monkeypatch, n, f, family, r, tol)
        proven += _proven(list(_order0_points(n, r).values()), f, tol)
    # the proof decides most slices at the default tolerance, and needs a product-sum form
    if f in [*PROVABLE, PATH_COUNT] and tol < 0.3:
        assert proven > len(SLICES) // 2
    if f.multiset is None:
        assert proven == 0


def test_specs_with_nan_values_collide_with_nothing():
    # NaN on every path through a root of degree >= 5
    f = InvariantFunction("nan-hub", lambda d: math.nan if max(d) >= 5 else 1.0 / sum(d))
    for tol in (1e-9, 0.3):
        report = survey_distinguishability(12, f, tol=tol)
        assert report.collisions == all_pairs(starlike_specs(12), f, tol)
        assert all(s.root_degree < 5 for pair in report.collisions for s in pair)


def test_specs_with_infinite_values_collide_as_all_pairs_find():
    # -inf at order 4, which at tol > 0 is _close to every value but -inf;
    # a walk forward from each spec in order-4 order stopped at the next -inf
    f = InvariantFunction("neg-inf-4", lambda d: -math.inf if len(d) == 5 else 1.0)
    for n in (6, 10):
        report = survey_distinguishability(n, f, tol=0.3)
        assert report.collisions and report.collisions == all_pairs(starlike_specs(n), f, 0.3)


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


def test_survey_builds_each_census_once_per_branch_count_prefix(monkeypatch, census_orders):
    # an all-pairs scan of whole profiles builds 7,569 censuses here; the
    # proof, which would decide this slice, is set aside
    report = swept(monkeypatch, 21, builtin("connectivity"))
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


@pytest.fixture
def merged_orders(monkeypatch):
    """The order of every census merge_terms builds, in build order."""
    orders = []
    real_merge = pathseq.starlike.merge_terms

    def counted(order, point):
        orders.append(order)
        return real_merge(order, point)

    monkeypatch.setattr(pathseq.starlike, "merge_terms", counted)
    return orders


@pytest.mark.parametrize("f", PROVABLE[:2], ids=[f.name for f in PROVABLE[:2]])
@pytest.mark.parametrize("n, r", [(21, None), (30, None), (22, 9)])
def test_a_proven_slice_builds_no_census_past_order_0(merged_orders, f, n, r):
    report = survey_distinguishability(n, f, "starlike" if r is None else "generalized", r)
    assert report.collisions == [] and report.spec_count == len(family(n, r))
    # one order-0 census per point, for its value; no spec is listed
    assert merged_orders == [0] * len(_order0_points(n, r))


@pytest.mark.parametrize("n, r", [(15, None), (30, None), (16, 7), (22, 9)])
def test_a_proven_path_count_slice_lists_no_spec_and_builds_no_census_past_order_2(
    monkeypatch, merged_orders, n, r
):
    count = len(family(n, r))
    monkeypatch.setattr(pathseq.reconstruct, "_branch_sets", None)
    report = survey_distinguishability(n, PATH_COUNT, "starlike" if r is None else "generalized", r)
    assert report.collisions == [] and report.spec_count == count
    # orders 0-2 once per point, for the values that part the points
    assert merged_orders == [0, 1, 2] * len(_order0_points(n, r))


@pytest.mark.parametrize("tol", [0.0, 1e-9])
def test_path_count_is_proven_on_every_slice_at_a_tight_tolerance(tol):
    slices = [(n, None) for n in range(9, 41)] + [(n, r) for _, n, r in SLICES if r is not None]
    for n, r in slices:
        assert _proven(list(_order0_points(n, r).values()), PATH_COUNT, tol), (n, r, tol)


# at tol 0.12 these slices' points part by order 2, but some same-point specs collide
@pytest.mark.parametrize("n, r", [(20, 8), (22, 9)])
def test_path_count_proof_gives_up_where_points_part_but_cells_collide(monkeypatch, n, r):
    points = list(_order0_points(n, r).values())
    report = survey_distinguishability(n, PATH_COUNT, "generalized", r, 0.12)
    assert report.collisions and not _proven(points, PATH_COUNT, 0.12)
    assert report == swept(monkeypatch, n, PATH_COUNT, "generalized", r, 0.12)
    # so the cells give the proof up: with no bound on their values it would hold
    monkeypatch.setattr(pathseq.reconstruct, "_path_bound", lambda point, h: 0)
    assert _proven(points, PATH_COUNT, 0.12)


def test_partition_counts_count_the_branch_sets():
    table = _partition_counts(39)
    assert table[0] == [1] + [0] * 39
    for total in range(1, 40):
        assert table[total][0] == 0
        for parts in range(1, 40):
            assert table[total][parts] == len(list(_branch_sets(total, parts))), (total, parts)


def test_partition_count_of_a_slice_is_its_listing_length():
    table = _partition_counts(40)

    def count(n, r=None):
        return sum(table[n2 - 1][m] for _, n2, m in _order0_points(n, r).values())

    for n in range(1, 41):
        assert count(n) == len(starlike_specs(n))
        # every hub degree would list 633,435 specs; a seventh of them, varied with n
        for r in range(n % 7 + 1, n + 2, 7):
            assert count(n, r) == len(generalized_specs(n, r)), (n, r)
    assert survey_distinguishability(40, builtin("connectivity")).spec_count == count(40) == 31165
    # a hub degree past the size leaves no spec, and no table to fill
    empty = survey_distinguishability(10**9, builtin("connectivity"), "generalized", 10**9)
    assert empty.spec_count == 0


def outcome(call):
    """What a call gives: its result, or its error's type and text."""
    try:
        return call()
    except IndexEvaluationError as exc:
        return type(exc), str(exc)


# The proof checks only the orders the sweep would read, so where it holds
# the sweep succeeds too: power:150 on starlike n = 12 is proven. On starlike
# n = 21, power:100 has a cell whose bound passes 2^1000, so the proof gives
# up, while every value the sweep reads is finite; at power:120 a value
# inside the cells overflows, and both raise
@pytest.mark.parametrize("alpha", [60, 100, 120, 150, 300, -150])
def test_an_overflowing_index_raises_just_where_the_sweep_does(monkeypatch, alpha):
    f = builtin("power", alpha)
    outcomes = set()
    for family, n, r in [("starlike", 12, None), ("starlike", 21, None),
                         ("generalized", 18, 7), ("generalized", 22, 9)]:
        got = outcome(lambda: survey_distinguishability(n, f, family, r))
        assert got == outcome(lambda: swept(monkeypatch, n, f, family, r, 1e-9)), (family, n, r)
        outcomes.add(type(got))
    assert alpha > 0 or outcomes == {pathseq.reconstruct.SurveyReport}


def test_a_path_count_survey_compares_each_grouped_spec_with_one_neighbour(monkeypatch):
    # 49,792 calls when every pair _close at order 4 was walked
    calls = []
    real_close = pathseq.reconstruct._close

    def counted(x, y, tol):
        calls.append(1)
        return real_close(x, y, tol)

    monkeypatch.setattr(pathseq.reconstruct, "_close", counted)
    # the proof would decide this slice, and no spec would reach the refinement
    report = swept(monkeypatch, 24, PATH_COUNT)
    h_max = max(s.longest_path_length for s in starlike_specs(24))
    assert (report.spec_count, h_max, report.collisions) == (1243, 22, [])
    assert len(calls) <= report.spec_count * (h_max + 1)


class Rows:
    """Fixed value rows, read as _refine reads the survey's: spec i at
    order h only once it was read at every order below h."""

    def __init__(self, rows):
        self.rows = rows
        self.read = [0] * len(rows)

    def value(self, i, h):
        assert self.read[i] == h
        self.read[i] += 1
        return self.rows[i][h]


# mixed signs, exact ties, values _close at 0.3 but not at 1e-9, infinities and NaN
VALUES = st.sampled_from(
    [0.0, -0.0, 0.25, -0.25, 1.0, -1.0, 1.2, 1.5, -1.5, 3.0, 1e300, -1e300,
     math.inf, -math.inf, math.nan]
) | st.floats(-4, 4)


@settings(max_examples=400, deadline=None)
@given(st.integers(1, 5), st.sampled_from([0.0, 1e-9, 0.3]), st.data())
def test_refined_groups_hold_every_pair_of_an_all_pairs_scan(orders, tol, data):
    rows = data.draw(st.lists(st.lists(VALUES, min_size=orders, max_size=orders), max_size=9))
    empty, groups = _refine(Rows(rows), len(rows), orders - 1, tol)
    found = {(i, j) for group in groups for i, j in combinations(sorted(group), 2)
             if _first_difference(rows[i], rows[j], tol) is None}
    every = {(i, j) for i, j in combinations(range(len(rows)), 2)
             if all(close(x, y, tol) for x, y in zip(rows[i], rows[j]))}
    assert found == every
    assert (empty is None) == bool(groups)
    if len(rows) >= 2:
        # two specs' group empties at their first difference
        assert _refine(Rows(rows[:2]), 2, orders - 1, tol)[0] == _first_difference(*rows[:2], tol)


def family_point(spec):
    return _point(spec)[:3]


@cache
def by_point(n, r):
    groups = {}
    for spec in family(n, r):
        groups.setdefault(family_point(spec), []).append(spec)
    return groups


@pytest.mark.parametrize(
    "n, r", [(n, None) for n in range(4, 15)] + [(n, r) for n in range(8, 14) for r in (5, 7, 9)]
)
def test_class_forms_and_path_bound_cover_every_census(n, r):
    for (n1, n2, m), specs in by_point(n, r).items():
        cells = (n2 - 1 - m) // 2
        for a, b in combinations(specs, 2):
            # two specs at one point first differ at a length within the cells
            assert next(h for h in range(1, n) if a.count(h) != b.count(h)) <= cells
        for spec in specs:
            for h in range(1, spec.longest_path_length + 1):
                census = spec.census(h)
                forms = set(_class_forms((n1, n2, m), h))
                assert {(math.prod(d), sum(d)) for d in census.entries} <= forms, (spec, h)
                assert census.total <= _path_bound((n1, n2, m), h)


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(FAMILY_SLICES),
    st.sampled_from(PROVABLE),
    st.sampled_from([0.0, 1e-9, 1e-4, 0.3]),
    st.data(),
)
def test_pairs_of_a_proven_cell_separate_at_its_length(slice_, f, tol, data):
    a = data.draw(st.sampled_from(family(*slice_)), label="a")
    b = data.draw(st.sampled_from(by_point(*slice_)[family_point(a)]), label="b")
    if a != b:
        h = next(h for h in range(1, a.vertex_count) if a.count(h) != b.count(h))
        if _cell_separates(f, family_point(a), h, tol):
            assert distinguish(a, b, f, tol) == h


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(FAMILY_SLICES), st.data())
def test_path_count_parts_same_point_specs_two_orders_after_their_first_difference(slice_, data):
    a = data.draw(st.sampled_from(family(*slice_)), label="a")
    b = data.draw(st.sampled_from(by_point(*slice_)[family_point(a)]), label="b")
    if a != b:
        h = next(h for h in range(1, a.vertex_count) if a.count(h) != b.count(h))
        assert distinguish(a, b, PATH_COUNT) == h + 2
        # the hub degree R = m + n1 - 1 weighs the difference in length-h counts
        ka, kb = (starlike_profile(s, PATH_COUNT, h + 2)[h + 2] for s in (a, b))
        assert ka - kb == (2 - a.max_degree) * (a.count(h) - b.count(h))


def _exact_power(k):
    return lambda d: Fraction(math.prod(d)) ** k


# exact values of f's formula, as fractions
EXACT = {
    "path-count": (builtin("path-count"), lambda d: Fraction(1)),
    "hyper-zagreb": (builtin("hyper-zagreb"), _exact_power(2)),
    "power:1.0": (builtin("power", 1), _exact_power(1)),
    "power:3.0": (builtin("power", 3), _exact_power(3)),
    "power:-2.0": (builtin("power", -2), _exact_power(-2)),
}


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(FAMILY_SLICES), st.sampled_from([*EXACT, "connectivity"]), st.data())
def test_value_bounds_hold_against_exact_values(slice_, name, data):
    spec = data.draw(st.sampled_from(family(*slice_)), label="spec")
    h = data.draw(st.integers(1, spec.longest_path_length), label="h")
    f, exact = EXACT.get(name, (builtin("connectivity"), None))
    census = spec.census(h)
    top, v, e = _cell_bounds(f, family_point(spec), h)
    value = invariant_from_census(census, f)
    # the exact sum over f's computed values, which the proof compares
    over_computed = sum(count * Fraction(f(d)) for d, count in census.entries.items())
    assert abs(over_computed) <= v and abs(Fraction(value) - over_computed) <= e
    assert all(abs(f(d)) <= top for d in census.entries)
    if exact is None:
        with decimal.localcontext() as ctx:
            ctx.prec = 50
            formula = sum(count / decimal.Decimal(math.prod(d)).sqrt()
                          for d, count in census.entries.items())
            assert abs(decimal.Decimal(value) - formula) <= decimal.Decimal(e)
            assert abs(formula) <= decimal.Decimal(v) + decimal.Decimal(e)
    else:
        formula = sum(count * exact(d) for d, count in census.entries.items())
        assert abs(Fraction(value) - formula) <= e and abs(formula) <= v + e
