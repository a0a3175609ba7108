import math
import time
from collections import Counter, defaultdict

import pytest

from oracle import close
from pathseq import (
    AmbiguousRootError,
    BudgetMismatchError,
    FamilyMismatchError,
    GenStarlikeSpec,
    InvariantFunction,
    NoCandidateRootError,
    NonIntegerBranchCountError,
    ProfileMismatchError,
    ReconstructionError,
    SizeMismatchError,
    StarlikeSpec,
    builtin,
    check_generalized_conditions,
    check_starlike_conditions,
    distinguish,
    generalized_profile,
    generalized_specs,
    invariant_profile,
    longest_path_length,
    mu_coefficient,
    realize_starlike,
    reconstruct_generalized,
    reconstruct_starlike,
    register_invariant,
    resolve_index,
    starlike_profile,
    starlike_specs,
    survey_distinguishability,
)
from pathseq.reconstruct import _order0_points
from pathseq.starlike import _evaluate

CONN = builtin("connectivity")
DEGREE_SUM = InvariantFunction("degree-sum", lambda d: float(sum(d)))


@pytest.mark.parametrize("name", ["connectivity", "sum-connectivity", "hyper-zagreb"])
def test_standard_indices_satisfy_both_condition_sets(name):
    f = builtin(name)
    for report in (check_starlike_conditions(f), check_generalized_conditions(f)):
        assert report.passed
        assert report.condition_a and report.condition_b
        assert report.counterexample_a is None and report.counterexample_b is None
        assert report.min_margin_a > 1e-9
        assert report.min_margin_b > 1e-9


def test_hyper_zagreb_margin_is_exact_at_the_smallest_pair():
    # slope between x=3 and x=4 is 7, against the edge value 3
    report = check_starlike_conditions(builtin("hyper-zagreb"), x_max=4, t_max=2)
    assert report.min_margin_a == 4.0


def test_constant_index_fails_both_conditions():
    report = check_starlike_conditions(builtin("path-count"))
    assert not report.passed
    assert report.counterexample_a == (3, 4)
    assert report.counterexample_b == (0, 3)


@pytest.mark.parametrize("check", [check_starlike_conditions, check_generalized_conditions])
def test_nan_index_fails_both_conditions(check):
    # NaN compares false both ways: a NaN margin is no margin. Theorem 8's
    # condition (a) starts at degree 2, the other vertices of a 3-clique.
    report = check(InvariantFunction("nan", lambda d: math.nan), x_max=6, t_max=2)
    assert not report.condition_a and not report.condition_b
    first_pair = (3, 4) if check is check_starlike_conditions else (2, 3)
    assert report.counterexample_a == first_pair and report.counterexample_b == (0, 3)


def test_degree_sum_fails_starlike_slope_condition():
    report = check_starlike_conditions(DEGREE_SUM)
    assert not report.condition_a
    assert report.counterexample_a == (3, 4)


def test_degree_sum_fails_generalized_via_leaf_swap():
    report = check_generalized_conditions(DEGREE_SUM)
    assert report.condition_a
    assert not report.condition_b
    assert report.counterexample_b == (0, 3)


def test_condition_report_serialization():
    doc = check_starlike_conditions(CONN, x_max=8, t_max=4).to_dict()
    assert doc["family"] == "starlike"
    assert doc["condition_a"] == "pass" and doc["condition_b"] == "pass"
    assert doc["counterexamples"] == []
    assert doc["domain"] == {"x_max": 8, "t_max": 4}


@pytest.mark.parametrize(
    "counts",
    [
        {1: 3},
        {1: 1, 2: 2},
        {2: 3},
        {1: 2, 3: 1, 4: 2},
        {5: 3},
        {1: 1, 2: 1, 3: 1, 4: 1},
    ],
)
@pytest.mark.parametrize("name", ["connectivity", "sum-connectivity", "hyper-zagreb"])
def test_starlike_round_trip_from_closed_profile(counts, name):
    f = builtin(name)
    spec = StarlikeSpec.from_counts(counts)
    profile = starlike_profile(spec, f, spec.longest_path_length)
    result = reconstruct_starlike(spec.vertex_count, profile, f)
    assert result.spec == spec
    assert result.max_residual <= 1e-6


def test_starlike_round_trip_from_enumerated_profile():
    spec = StarlikeSpec.from_counts({1: 2, 3: 1, 4: 1})
    g = realize_starlike(spec)
    profile = invariant_profile(g, CONN, longest_path_length(g))
    result = reconstruct_starlike(g.vertex_count, profile, CONN)
    assert result.spec == spec


def test_reconstruction_result_serialization(spider):
    profile = starlike_profile(spider, CONN, spider.longest_path_length)
    doc = reconstruct_starlike(spider.vertex_count, profile, CONN).to_dict()
    assert doc["family"] == "starlike"
    assert doc["n"] == 6
    assert doc["branches"] == [
        {"length": 1, "count": 1},
        {"length": 2, "count": 2},
    ]


def test_reconstruct_rejects_tiny_graphs():
    with pytest.raises(NoCandidateRootError):
        reconstruct_starlike(3, [3.0, 2.0], CONN)


def test_reconstruct_rejects_profile_of_a_path_graph():
    # no starlike root degree explains the order-0 value of a plain path
    g = __import__("pathseq").build_graph(6, [(i, i + 1) for i in range(5)])
    profile = invariant_profile(g, CONN, 5)
    with pytest.raises(NoCandidateRootError):
        reconstruct_starlike(6, profile, CONN)


def test_reconstruct_flags_flat_index_as_ambiguous():
    blind = InvariantFunction("blind", lambda d: 1.0 if len(d) == 1 else 0.0)
    with pytest.raises(AmbiguousRootError):
        reconstruct_starlike(8, [8.0] + [0.0] * 7, blind)


def test_corrupted_entry_breaks_the_ladder(spider):
    profile = starlike_profile(spider, CONN, spider.longest_path_length)
    profile[2] += 0.5
    with pytest.raises(NonIntegerBranchCountError):
        reconstruct_starlike(spider.vertex_count, profile, CONN)


def test_corrupted_tail_fails_the_replay(spider):
    # the ladder stops once the branch budget is filled; later entries are
    # still replayed against the reconstructed spec
    profile = starlike_profile(spider, CONN, spider.longest_path_length)
    profile[-1] += 1e-3
    with pytest.raises(ProfileMismatchError):
        reconstruct_starlike(spider.vertex_count, profile, CONN)


def test_truncated_profile_cannot_fill_the_budget(spider):
    profile = starlike_profile(spider, CONN, 1)
    with pytest.raises(BudgetMismatchError):
        reconstruct_starlike(spider.vertex_count, profile, CONN)


def test_empty_profile_is_rejected():
    with pytest.raises(BudgetMismatchError, match="empty"):
        reconstruct_starlike(6, [], CONN)


def test_zero_slope_stops_the_ladder():
    # hub degree 5 leaves one split (clique 3, three branches), so the order-0
    # value picks it even for path-count, whose slope is zero at every order
    spec = GenStarlikeSpec(clique_size=3, star=StarlikeSpec.from_counts({1: 1, 2: 2}))
    f = builtin("path-count")
    profile = generalized_profile(spec, f, spec.longest_path_length)
    with pytest.raises(NonIntegerBranchCountError, match="zero slope"):
        reconstruct_generalized(spec.vertex_count, spec.max_degree, profile, f)


def test_negative_branch_count_stops_the_ladder():
    spec = StarlikeSpec.from_counts({2: 3})
    profile = starlike_profile(spec, CONN, spec.longest_path_length)
    profile[1] -= mu_coefficient(CONN, 1, 3)
    with pytest.raises(NonIntegerBranchCountError, match="negative"):
        reconstruct_starlike(spec.vertex_count, profile, CONN)


def test_branches_that_overfill_the_tree_stop_the_ladder(spider):
    profile = starlike_profile(spider, CONN, spider.longest_path_length)
    profile[1] += 3 * mu_coefficient(CONN, 1, 3)
    with pytest.raises(BudgetMismatchError, match="overfill"):
        reconstruct_starlike(spider.vertex_count, profile, CONN)


def test_branch_total_must_equal_the_root_degree():
    # root degree 3 on six vertices, but branches of lengths 1 and 4 only:
    # the lengths fill the tree with one branch missing
    point = (1, 6, 3, {1: 1, 4: 1})
    profile = [_evaluate(point, h, CONN) for h in range(6)]
    with pytest.raises(BudgetMismatchError, match="root degree demands 3"):
        reconstruct_starlike(6, profile, CONN)


def test_reconstruction_errors_share_a_base(spider):
    profile = starlike_profile(spider, CONN, 1)
    with pytest.raises(ReconstructionError):
        reconstruct_starlike(spider.vertex_count, profile, CONN)


@pytest.mark.parametrize("n1", [3, 4, 5])
def test_generalized_round_trip(n1):
    spec = GenStarlikeSpec(clique_size=n1, star=StarlikeSpec.from_counts({1: 1, 2: 2}))
    profile = generalized_profile(spec, CONN, spec.longest_path_length)
    result = reconstruct_generalized(spec.vertex_count, spec.max_degree, profile, CONN)
    assert result.spec == spec
    assert result.max_residual <= 1e-6


def test_generalized_reconstruct_rejects_impossible_hub():
    spec = GenStarlikeSpec(clique_size=4, star=StarlikeSpec.from_counts({1: 1, 2: 2}))
    profile = generalized_profile(spec, CONN, spec.longest_path_length)
    with pytest.raises(NoCandidateRootError):
        reconstruct_generalized(spec.vertex_count, spec.max_degree + 1, profile, CONN)


def test_distinguish_requires_matching_family(spider):
    glued = GenStarlikeSpec(clique_size=3, star=spider)
    with pytest.raises(FamilyMismatchError):
        distinguish(spider, glued, CONN)


def test_distinguish_requires_matching_size():
    a = StarlikeSpec.from_counts({1: 3})
    b = StarlikeSpec.from_counts({1: 4})
    with pytest.raises(SizeMismatchError):
        distinguish(a, b, CONN)


def test_distinguish_requires_matching_hub_degree():
    a = GenStarlikeSpec(clique_size=3, star=StarlikeSpec.from_counts({1: 1, 2: 2}))
    b = GenStarlikeSpec(clique_size=4, star=StarlikeSpec.from_counts({1: 4}))
    assert a.vertex_count == b.vertex_count
    assert a.max_degree != b.max_degree
    with pytest.raises(SizeMismatchError):
        distinguish(a, b, CONN)


def test_distinguish_same_spec_is_none(spider):
    assert distinguish(spider, spider, CONN) is None


@pytest.mark.parametrize("tol", [-1e-9, math.nan])
def test_distinguish_rejects_a_tolerance_below_zero(spider, tol):
    # no value is within a negative tolerance of itself
    with pytest.raises(ValueError, match="tolerance must be >= 0"):
        distinguish(spider, spider, CONN, tol)


@pytest.mark.parametrize("tol", [-1.0, 1.0, 1.5, 2.0, math.nan])
def test_library_tolerances_take_the_cli_range(tol):
    # Outside [0, 1) comparisons are vacuous: tol -1.0 matched no root
    # degree, 2.0 matched every one, and at 1.5 distinguish called these
    # two specs, which order 1 separates, equal.
    a = StarlikeSpec.from_counts({1: 3, 5: 1})
    b = StarlikeSpec.from_counts({1: 1, 2: 2, 3: 1})
    g = GenStarlikeSpec(3, StarlikeSpec.from_counts({1: 2, 3: 1}))
    g_profile = invariant_profile(g, CONN, g.longest_path_length)
    match = r"^tolerance must be >= 0 and < 1, got"
    with pytest.raises(ValueError, match=match):
        reconstruct_starlike(9, starlike_profile(a, CONN, 5), CONN, tol)
    with pytest.raises(ValueError, match=match):
        reconstruct_generalized(g.vertex_count, g.max_degree, g_profile, CONN, tol)
    with pytest.raises(ValueError, match=match):
        distinguish(a, b, CONN, tol)


def test_distinguish_reports_first_separating_order():
    a = StarlikeSpec.from_counts({1: 2, 2: 2})
    b = StarlikeSpec.from_counts({1: 3, 3: 1})
    # same n and m, different length-1 count: order 1 separates
    assert a.vertex_count == b.vertex_count
    assert a.root_degree == b.root_degree
    assert distinguish(a, b, CONN) == 1


def test_distinguish_same_counts_up_to_depth():
    # identical n, m, length-1 and length-2 counts; first divergence at L_3
    a = StarlikeSpec.from_counts({1: 2, 2: 1, 4: 2})
    b = StarlikeSpec.from_counts({1: 2, 2: 1, 3: 1, 5: 1})
    assert a.vertex_count == b.vertex_count and a.root_degree == b.root_degree
    assert distinguish(a, b, CONN) == 3


def test_starlike_specs_frozen_for_five_vertices():
    specs = starlike_specs(5)
    assert [s.branches for s in specs] == [((1, 2), (2, 1)), ((1, 4),)]


def test_starlike_specs_count_and_validity():
    specs = starlike_specs(8)
    assert len(specs) == 11
    assert len(set(specs)) == 11
    assert all(s.vertex_count == 8 for s in specs)


def test_generalized_specs_enumeration():
    specs = generalized_specs(10, 6)
    assert len(specs) == 6
    assert all(s.vertex_count == 10 and s.max_degree == 6 for s in specs)
    cliques = {s.clique_size for s in specs}
    assert cliques == {3, 4}


def test_hub_degree_of_n_or_more_leaves_no_clique_size_to_scan():
    # the m = r + 1 - n1 branches need n - n1 >= m vertices, i.e. n > r, so
    # a hub degree of 10**7 on 12 vertices has no spec, found without
    # scanning its 10**7 clique sizes
    start = time.thread_time()
    assert generalized_specs(12, 10**7) == []
    assert generalized_specs(12, 12) == []
    # r = n - 1: clique 3 and nine length-1 branches, up to clique 9 and three
    assert [s.clique_size for s in generalized_specs(12, 11)] == list(range(3, 10))
    profile = generalized_profile(generalized_specs(12, 8)[0], CONN, 3)
    with pytest.raises(NoCandidateRootError):
        reconstruct_generalized(12, 10**7, profile, CONN)
    assert time.thread_time() - start < 0.05


def test_starlike_survey_rejects_a_hub_degree():
    with pytest.raises(ValueError, match="hub degree"):
        survey_distinguishability(8, CONN, "starlike", max_degree=5)


def test_survey_connectivity_has_no_collisions():
    report = survey_distinguishability(11, CONN)
    assert report.spec_count == 36
    assert report.pairs_checked == 630
    assert report.collisions == []
    doc = report.to_dict()
    assert doc["specs"] == 36 and doc["collisions"] == []


def test_survey_generalized_family():
    report = survey_distinguishability(10, CONN, family="generalized", max_degree=6)
    assert report.spec_count == 6
    assert report.pairs_checked == 15
    assert report.collisions == []


@pytest.mark.parametrize("n, r", [(12, 10**7), (12, 12), (6, 3)])
def test_a_slice_with_no_clique_size_is_named_by_n_and_r(n, r):
    # (6, 3) is a 5-cycle with a pendant vertex: its hub degree 3 leaves no
    # clique of 3 or more vertices room for 3 branches
    g = __import__("pathseq").build_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 5)])
    profile = invariant_profile(g, CONN, 3)
    want = f"^no clique-coalesced tree has {n} vertices and hub degree {r}$"
    with pytest.raises(NoCandidateRootError, match=want):
        reconstruct_generalized(n, r, profile, CONN)


def test_no_match_names_the_range_that_was_scanned():
    path = __import__("pathseq").build_graph(6, [(i, i + 1) for i in range(5)])
    with pytest.raises(NoCandidateRootError, match=r"^no root degree in 3\.\.5 matches"):
        reconstruct_starlike(6, invariant_profile(path, CONN, 5), CONN)
    profile = generalized_profile(generalized_specs(12, 8)[0], CONN, 3)
    profile[0] += 1.0
    with pytest.raises(NoCandidateRootError, match=r"^no clique size in 3\.\.6 matches"):
        reconstruct_generalized(12, 8, profile, CONN)


def _clique_3_blind(d):
    if len(d) == 1:
        return {1: 1.0, 2: 2.0, 3: 5 / 3}.get(d[0], math.sqrt(d[0]) + 0.1)
    return 1 / math.sqrt(math.prod(d)) + 0.01 * sum(d)


def test_theorem_8_condition_a_reads_the_3_clique():
    # A 3-clique's other vertices have degree c = 2. Clique sizes 3 and 4
    # give c * f(c) = 4 and 5, a slope of f(1) = 1, so the order-0 value
    # cannot tell them apart and condition (a) must fail at (2, 3).
    f = register_invariant("clique-3-blind", _clique_3_blind)
    report = check_generalized_conditions(f)
    assert not report.condition_a and report.condition_b
    assert report.counterexample_a == (2, 3) and report.min_margin_a == 0.0
    a = GenStarlikeSpec(3, StarlikeSpec.from_counts({1: 2, 3: 1, 5: 2}))
    b = GenStarlikeSpec(4, StarlikeSpec.from_counts({1: 1, 3: 1, 5: 2}))
    assert (a.vertex_count, a.max_degree) == (b.vertex_count, b.max_degree) == (18, 7)
    with pytest.raises(AmbiguousRootError, match=r"clique sizes \[3, 4\]"):
        reconstruct_generalized(18, 7, invariant_profile(a, f, a.longest_path_length), f)
    assert distinguish(a, b, f) == 1


@pytest.mark.parametrize("check", [check_starlike_conditions, check_generalized_conditions])
@pytest.mark.parametrize(
    "name, t_max",
    [("connectivity", 32), ("connectivity", 80), ("sum-connectivity", 32), ("hyper-zagreb", 32),
     ("path-count", 32), ("power:0.5", 32)],
)
def test_margin_b_is_the_least_ladder_slope(check, name, t_max):
    f = resolve_index(name)
    report = check(f, 64, t_max)
    slopes = (abs(mu_coefficient(f, t + 1, x)) for t in range(t_max + 1) for x in range(3, 65))
    assert report.min_margin_b == min(slopes)


def _partitions(total, largest=None):
    """Every partition of total, as a descending tuple of parts."""
    if total == 0:
        return [()]
    top = total if largest is None else min(total, largest)
    return [
        (first,) + rest for first in range(top, 0, -1) for rest in _partitions(total - first, first)
    ]


def test_starlike_specs_are_every_partition_with_three_parts_or_more():
    for n in range(1, 26):
        want = [
            StarlikeSpec.from_counts(Counter(p)) for p in _partitions(n - 1) if len(p) >= 3
        ]
        got = starlike_specs(n)
        assert got == sorted(want, key=lambda s: s.branches), n
        assert all(s.root_degree in _order0_points(n) for s in got)


def test_generalized_specs_are_every_clique_and_partition_with_the_hub_degree():
    for n in range(1, 25):
        by_hub = defaultdict(list)
        for n1 in range(3, n + 1):
            for p in _partitions(n - n1):
                if len(p) >= 3:
                    spec = GenStarlikeSpec(n1, StarlikeSpec.from_counts(Counter(p)))
                    by_hub[spec.max_degree].append(spec)
        for r in range(1, n + 3):
            got = generalized_specs(n, r)
            want = sorted(by_hub[r], key=lambda s: (s.clique_size, s.branches))
            assert got == want, (n, r)
            assert all(s.clique_size in _order0_points(n, r) for s in got)
