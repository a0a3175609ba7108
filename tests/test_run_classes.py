"""Closed forms over run-length classes.

A class is the canonical tuple of its (degree, length) runs, and a built-in
reads its degree product and sum. These tests hold the classes to the degree
tuples that they stand for: the same merges, and the same values bit for
bit."""

import math
from decimal import Decimal, localcontext

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pathseq.reconstruct
import pathseq.starlike
from pathseq import (
    GenStarlikeSpec,
    InvariantFunction,
    StarlikeSpec,
    builtin,
    reconstruct_generalized,
    reconstruct_starlike,
    resolve_index,
    starlike_profile,
    survey_distinguishability,
)
from pathseq.invariants import _inv_sqrt
from pathseq.reconstruct import _class_forms
from pathseq.starlike import _canonical, _degrees, _evaluate, _product_sum, _terms, merge_terms

INDICES = (
    "connectivity", "sum-connectivity", "hyper-zagreb", "path-count",
    "power:0.5", "power:-1.0", "power:2.0",
)


def tuple_route(f):
    """The same index without its product-sum form: it reads degree tuples."""
    return InvariantFunction(f.name, f.fn)


def outcome(call, *args):
    """The hex of each float a call returns, or its error's type and text."""
    try:
        value = call(*args)
    except pathseq.PathseqError as exc:
        return type(exc), str(exc)
    return [v.hex() for v in value] if isinstance(value, list) else value.hex()


@st.composite
def specs(draw, max_length=150):
    """A spec of either family, cliques of 3 to 6 vertices included, with a
    longest path up to 2 * max_length."""
    lengths = draw(st.lists(st.integers(1, max_length), min_size=1, max_size=5, unique=True))
    counts = {length: draw(st.integers(1, 3)) for length in lengths}
    counts[lengths[0]] += max(0, 3 - sum(counts.values()))
    star = StarlikeSpec.from_counts(counts)
    clique = draw(st.sampled_from([1, 1, 3, 4, 5, 6]))
    return star if clique == 1 else GenStarlikeSpec(clique, star)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(INDICES), specs())
# a 3-clique, whose outer vertices share a class with branch-interior ones,
# and a deep starlike tree whose hyper-zagreb squares overflow
@example("connectivity", GenStarlikeSpec(3, StarlikeSpec.from_counts({2: 1, 90: 2, 150: 1})))
@example("hyper-zagreb", StarlikeSpec.from_counts({1: 1, 140: 1, 150: 2}))
def test_profile_from_products_and_sums_is_the_tuple_route_bit_for_bit(name, spec):
    f = resolve_index(name)
    rho = spec.longest_path_length
    assert outcome(starlike_profile, spec, f, rho) == outcome(
        starlike_profile, spec, tuple_route(f), rho
    )


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(INDICES), specs(max_length=40), st.data())
def test_ladder_points_with_missing_branches_evaluate_alike(name, spec, data):
    # the ladder's points hold the counts found so far, so the shapes through
    # the missing branches count negative
    f = resolve_index(name)
    n1, L = spec.clique_size, spec.branch_counts
    kept = data.draw(st.lists(st.sampled_from(sorted(L)), unique=True), label="kept")
    point = (n1, spec.vertex_count - n1 + 1, spec.root_degree, {k: L[k] for k in kept})
    h = data.draw(st.integers(0, spec.longest_path_length), label="h")
    want = outcome(_evaluate, point, h, tuple_route(f))
    assert outcome(_evaluate, point, h, f) == want
    # with S carried in, as the ladder and the spec's censuses do
    S = [sum(c for k, c in point[3].items() if k <= j) for j in range(h + 1)]
    assert outcome(_evaluate, (*point, S), h, f) == want


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 7),
    st.integers(0, 60),
    st.integers(3, 9),
    st.dictionaries(st.integers(1, 12), st.integers(-3, 3), max_size=5),
    st.integers(0, 16),
)
def test_each_class_is_canonical_and_names_one_degree_sequence(n1, n2, m, L, h):
    classes = merge_terms(h, (n1, n2, m, L))
    assert all(_canonical(runs) == runs for runs in classes)
    degrees = [_degrees(runs) for runs in classes]
    assert len(set(degrees)) == len(degrees)
    for runs, seq in zip(classes, degrees):
        assert len(seq) == h + 1 and _product_sum(runs) == (math.prod(seq), sum(seq))


@pytest.mark.parametrize("n1", [1, 3, 4, 5, 8])
def test_class_forms_are_the_forms_of_every_shape(n1):
    # A count of -1 at every length 1..h and n2 = 0 leave every shape of
    # _terms a nonzero count at every split, so its forms are all there are.
    for m in range(3, 9):
        for h in range(1, 25):
            every = dict.fromkeys(range(1, h + 1), -1)
            shapes = {_product_sum(runs) for runs, _ in _terms(h, n1, 0, m, every)}
            assert set(_class_forms((n1, 40, m), h)) == shapes, (m, h)


@pytest.mark.parametrize("name", ["connectivity", "sum-connectivity", "hyper-zagreb", "power:-1.0"])
def test_built_ins_read_no_degree_tuple_past_order_0(monkeypatch, name):
    f = resolve_index(name)

    def guarded(seq):
        if len(seq) > 1:
            raise AssertionError(f"{name} evaluated on the tuple {seq}")
        return f.fn(seq)

    g = InvariantFunction(f.name, guarded, f.multiset)
    star = StarlikeSpec.from_counts({1: 1, 3: 1, 7: 2})
    glued = GenStarlikeSpec(4, StarlikeSpec.from_counts({2: 1, 3: 1, 6: 1}))
    for spec in (star, glued):
        profile = starlike_profile(spec, g, spec.longest_path_length)
        if spec is star:
            rebuilt = reconstruct_starlike(spec.vertex_count, profile, g)
        else:
            rebuilt = reconstruct_generalized(spec.vertex_count, spec.max_degree, profile, g)
        assert rebuilt.spec == spec
    for proof in (True, False):
        with monkeypatch.context() as patch:
            if not proof:
                patch.setattr(pathseq.reconstruct, "_proven", lambda *_: False)
            assert survey_distinguishability(14, g).spec_count == 94
            assert survey_distinguishability(16, g, "generalized", 7).spec_count > 0


def exact_inv_sqrt(p):
    with localcontext() as ctx:
        ctx.prec = 60
        return 1 / Decimal(p).sqrt()


@settings(max_examples=300, deadline=None)
@given(st.integers(2**1024 - 2**970, 2**2040))
# the least int that overflows a float, a power of 4 and one of 3
@example(2**1024 - 2**970)
@example(2**1024)
@example(3**1200)
def test_inverse_square_root_past_the_float_range_is_within_its_bound(p):
    # _cell_bounds takes each built-in within 4u of its formula; this one is
    # within 2.5u, as when the product fits a float
    value = _inv_sqrt(p)
    assert math.isfinite(value) and value > 0
    assert abs(Decimal(value) / exact_inv_sqrt(p) - 1) <= Decimal(2.5 * 2.0**-53 + 2.0**-63)


def test_connectivity_profile_at_rho_1600_agrees_with_decimal():
    # products pass the largest float from order 1022 on, where this raised
    spec = StarlikeSpec.from_counts({1: 1, 400: 2, 800: 3})
    f = builtin("connectivity")
    profile = starlike_profile(spec, f, 1600)
    assert all(math.isfinite(v) and v > 0 for v in profile)
    for h in (1000, 1022, 1300, 1600):
        with localcontext() as ctx:
            ctx.prec = 50
            exact = sum(
                count / Decimal(math.prod(seq)).sqrt() for seq, count in spec.census(h).entries.items()
            )
        assert abs(Decimal(profile[h]) / exact - 1) < Decimal("1e-14"), h


def test_spec_values_refuse_a_negative_multiplicity_as_censuses_do(monkeypatch):
    # a spec's classes all count paths; a ladder point's may count negative
    real = merge_terms
    spec, f = StarlikeSpec.from_counts({1: 1, 3: 2}), builtin("connectivity")
    profile = starlike_profile(spec, f, 4)
    monkeypatch.setattr(pathseq.starlike, "merge_terms", lambda h, p: {**real(h, p), ((9, 1),): -1})
    for call in (lambda: spec.value(2, f), lambda: starlike_profile(spec, f, 3), lambda: spec.census(2),
                 lambda: reconstruct_starlike(spec.vertex_count, profile, f)):
        with pytest.raises(AssertionError, match="negative multiplicity"):
            call()
    assert math.isfinite(_evaluate((1, 8, 3, {1: 1}), 2, f))


def test_the_ladder_self_tests_the_values_that_the_replay_reuses(monkeypatch):
    # order 0 passes; the order-1 ladder point, whose three branches left
    # may all be longer than 1, is checked as the rebuilt spec's would be
    real = merge_terms
    spec, f = StarlikeSpec.from_counts({1: 1, 3: 2}), builtin("connectivity")
    profile = starlike_profile(spec, f, 4)
    bad = {((9, 1),): -1}
    monkeypatch.setattr(pathseq.starlike, "merge_terms", lambda h, p: {**real(h, p), **(bad if h else {})})
    with pytest.raises(AssertionError, match="order-1 census"):
        reconstruct_starlike(spec.vertex_count, profile, f)
