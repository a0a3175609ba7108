"""Acceptance gate: one test per shipped criterion, each printing a PASS/FAIL
line (run with -s to see them). These pin the contract of the package; the
narrower unit tests explain failures in more detail.
"""

import json
import math
import time

from conftest import generalized_sweep, starlike_sweep
from oracle import close
from pathseq import (
    GenStarlikeSpec,
    InvariantFunction,
    StarlikeSpec,
    builtin,
    census_series,
    check_generalized_conditions,
    check_starlike_conditions,
    generalized_census,
    generalized_profile,
    generalized_specs,
    invariant_from_census,
    mu_coefficient,
    realize_generalized,
    realize_starlike,
    reconstruct_generalized,
    reconstruct_starlike,
    starlike_census,
    starlike_invariant,
    starlike_profile,
    starlike_specs,
    survey_distinguishability,
    tail_coefficients,
)


def report(number, name, ok):
    print(f"ACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'}")


def test_criterion_1_starlike_closed_form_equivalence():
    f = builtin("connectivity")
    started = time.monotonic()
    failures = []
    specs = list(starlike_sweep(5, 4, 8))
    for spec in specs:
        g = realize_starlike(spec)
        rho = spec.longest_path_length
        series = census_series(g, rho + 1)
        closed = starlike_profile(spec, f, rho + 1)
        for h in range(rho + 2):
            enumerated = invariant_from_census(series[h], f)
            if not close(enumerated, closed[h], tol=1e-10):
                failures.append((spec.branches, h, enumerated, closed[h]))
            if h >= 2 and dict(starlike_census(spec, h).entries) != dict(series[h].entries):
                failures.append((spec.branches, h, "census"))
    elapsed = time.monotonic() - started
    ok = not failures and len(specs) == 986 and elapsed < 60
    report(1, "starlike-closed-form-equivalence", ok)
    assert not failures, failures[:5]
    assert len(specs) == 986
    assert elapsed < 60, elapsed


def test_criterion_2_generalized_closed_form_equivalence():
    f = builtin("connectivity")
    started = time.monotonic()
    failures = []
    specs = list(generalized_sweep((3, 4, 5), 4, 3, 6))
    for spec in specs:
        g = realize_generalized(spec)
        rho = spec.longest_path_length
        series = census_series(g, rho + 1)
        closed = generalized_profile(spec, f, rho + 1)
        for h in range(rho + 2):
            enumerated = invariant_from_census(series[h], f)
            if not close(enumerated, closed[h], tol=1e-10):
                failures.append((spec.clique_size, spec.star.branches, h))
            if h >= 2 and dict(generalized_census(spec, h).entries) != dict(series[h].entries):
                failures.append((spec.clique_size, spec.star.branches, h, "census"))
    elapsed = time.monotonic() - started
    ok = not failures and len(specs) == 405 and elapsed < 120
    report(2, "generalized-closed-form-equivalence", ok)
    assert not failures, failures[:5]
    assert len(specs) == 405
    assert elapsed < 120, elapsed


def test_criterion_3_constant_index_tail_coefficients():
    one = builtin("path-count")
    failures = []
    for m in range(3, 9):
        for h in range(5, 10):
            for L1, L2 in ((0, 0), (1, 0), (2, 3)):
                got = tail_coefficients(one, h, m, L1, L2)
                if got != (2.0 - m, 0.0, 0.0):
                    failures.append((m, h, L1, L2, got))
    report(3, "constant-index-tail-coefficients", not failures)
    assert not failures, failures


def test_criterion_4_connectivity_slope_closed_form():
    f = builtin("connectivity")
    failures = []
    shrink = 1 - 1 / math.sqrt(2)
    for m in range(3, 9):
        for h in range(2, 10):
            got = mu_coefficient(f, h, m)
            want = shrink * (1 / math.sqrt(m * 2 ** (h - 1)) - 1 / math.sqrt(2**h))
            if not close(got, want):
                failures.append((m, h, got, want))
    report(4, "connectivity-slope-closed-form", not failures)
    assert not failures, failures


def test_criterion_5_index_qualification_certificates():
    ok = True
    for name in ("connectivity", "sum-connectivity", "hyper-zagreb"):
        f = builtin(name)
        for rep in (check_starlike_conditions(f), check_generalized_conditions(f)):
            ok = ok and rep.passed and rep.min_margin_a > 1e-9 and rep.min_margin_b > 1e-9

    constant = check_starlike_conditions(builtin("path-count"))
    ok = ok and not constant.passed and constant.counterexample_a == (3, 4)
    constant_gen = check_generalized_conditions(builtin("path-count"))
    ok = ok and not constant_gen.passed and constant_gen.counterexample_a is not None

    degree_sum = InvariantFunction("degree-sum", lambda d: float(sum(d)))
    linear = check_starlike_conditions(degree_sum)
    ok = ok and not linear.passed and linear.counterexample_a == (3, 4)
    linear_gen = check_generalized_conditions(degree_sum)
    ok = ok and not linear_gen.passed and linear_gen.counterexample_b is not None

    report(5, "index-qualification-certificates", ok)
    assert ok


def test_criterion_6_profile_round_trip():
    indices = [builtin(n) for n in ("connectivity", "sum-connectivity", "hyper-zagreb")]
    started = time.monotonic()
    failures = []
    checked = 0
    for n in range(4, 15):
        for spec in starlike_specs(n):
            for f in indices:
                prof = starlike_profile(spec, f, spec.longest_path_length)
                result = reconstruct_starlike(n, prof, f)
                checked += 1
                if result.spec != spec or result.max_residual > 1e-6:
                    failures.append((n, spec.branches, f.name))
    for n in range(7, 13):
        for r in range(5, n - 1):
            for spec in generalized_specs(n, r):
                for f in indices:
                    prof = generalized_profile(spec, f, spec.longest_path_length)
                    result = reconstruct_generalized(n, r, prof, f)
                    checked += 1
                    if result.spec != spec or result.max_residual > 1e-6:
                        failures.append((n, r, spec.star.branches, f.name))
    elapsed = time.monotonic() - started
    ok = not failures and checked > 500 and elapsed < 120
    report(6, "profile-round-trip", ok)
    assert not failures, failures[:5]
    assert checked > 500
    assert elapsed < 120, elapsed


def test_criterion_7_connectivity_survey_injective(tmp_path_factory):
    f = builtin("connectivity")
    failures = []
    constant_collisions = {}
    for n in range(5, 13):
        rep = survey_distinguishability(n, f)
        if rep.collisions:
            failures.append((n, rep.collisions))
        # the constant index carries no qualification certificate; its
        # collision list is recorded as an artifact, not asserted
        constant = survey_distinguishability(n, builtin("path-count"))
        constant_collisions[str(n)] = [
            {"a": a.to_dict(), "b": b.to_dict()} for a, b in constant.collisions
        ]
    artifact = tmp_path_factory.mktemp("artifacts") / "constant_index_collisions.json"
    with open(artifact, "w", encoding="utf-8") as fh:
        json.dump(constant_collisions, fh, indent=2)
        fh.write("\n")
    report(7, "connectivity-survey-injective", not failures)
    assert not failures, failures


def test_criterion_8_frozen_fixture():
    spider = StarlikeSpec.from_counts({1: 1, 2: 2})
    census = starlike_census(spider, 2)
    census_ok = dict(census.entries) == {(1, 2, 3): 2, (1, 3, 2): 2, (2, 3, 2): 1}
    f = builtin("connectivity")
    value = starlike_invariant(spider, 2, f)
    value_ok = abs(value - (4 / math.sqrt(6) + 1 / math.sqrt(12))) <= 1e-12
    series = census_series(realize_starlike(spider), 2)
    brute_ok = abs(value - invariant_from_census(series[2], f)) <= 1e-12
    ok = census_ok and value_ok and brute_ok
    report(8, "frozen-fixture", ok)
    assert census_ok and value_ok and brute_ok
