"""Closed forms at orders 0 and 1 agree exactly with enumeration.

Shapes that share a degree sequence must be summed as one class, as the
enumeration does: in a 3-clique the outer vertices have degree 2, like
branch-interior vertices, so at order 0 the (2,) classes coincide and at
order 1 the (2, 2) and (2, R) classes do.
"""

import json

import pytest

from conftest import generalized_sweep
from pathseq import (
    GenStarlikeSpec,
    StarlikeSpec,
    builtin,
    evaluate_invariant,
    generalized_invariant,
    parse_generalized_spec,
    parse_starlike_spec,
    path_census,
    realize_generalized,
    realize_starlike,
    resolve_index,
)
from pathseq.cli import main

INDICES = ("connectivity", "sum-connectivity", "hyper-zagreb", "power:0.5")


def test_clique_size_three_example_equals_enumeration():
    spec = GenStarlikeSpec(3, StarlikeSpec.from_counts({1: 3, 2: 1}))
    f = builtin("connectivity")
    assert generalized_invariant(spec, 1, f) == 3.2978770563625757
    assert generalized_invariant(spec, 1, f) == evaluate_invariant(realize_generalized(spec), 1, f)


@pytest.mark.parametrize("spec", list(generalized_sweep((3,), 2, 3, 5)), ids=str)
def test_clique_size_three_low_orders_equal_enumeration(spec):
    g = realize_generalized(spec)
    for name in INDICES:
        f = resolve_index(name)
        for order in (0, 1):
            assert generalized_invariant(spec, order, f) == evaluate_invariant(g, order, f), (name, order)


SPECS = [
    {"branches": [{"length": 1, "count": 1}, {"length": 2, "count": 2}]},
    {"clique": 3, "branches": [{"length": 1, "count": 3}, {"length": 2, "count": 1}]},
    {"clique": 5, "branches": [{"length": 2, "count": 3}]},
]


@pytest.mark.parametrize("order", [0, 1])
@pytest.mark.parametrize("doc", SPECS, ids=["spider", "k3", "k5"])
def test_census_command_low_orders_match_enumeration(capsys, tmp_path, doc, order):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    flag = "--generalized" if "clique" in doc else "--starlike"
    # the closed form enumerates nothing, so even a budget of one expansion holds
    assert main(["census", flag, str(path), "--order", str(order), "--budget", "1"]) == 0
    out = json.loads(capsys.readouterr().out)
    if "clique" in doc:
        g = realize_generalized(parse_generalized_spec(doc))
    else:
        g = realize_starlike(parse_starlike_spec(doc))
    census = path_census(g, order)
    assert out["total"] == census.total
    assert {tuple(c["degrees"]): c["count"] for c in out["classes"]} == census.entries
