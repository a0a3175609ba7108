"""The sorted survey sweep finds exactly the collisions of an all-pairs scan."""

import math

import pytest

from oracle import close
from pathseq import (
    InvariantFunction,
    builtin,
    generalized_specs,
    starlike_profile,
    starlike_specs,
    survey_distinguishability,
)

# takes both signs, e.g. f(1) < 0 < f(3, 2)
MIXED = InvariantFunction("mixed-sign", lambda d: (sum(d) - 2.2 * len(d)) / math.prod(d))
INDICES = [builtin("connectivity"), builtin("path-count"), MIXED]


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
