"""Condition scans: condition (a) from the sorted order-0 values against the
scan of every pair, condition (b) from mu_row against the scan of every
degree tuple, the library's ranges, NaN margins, and whole reports pinned on
the built-in indices."""

import json
import math
import os

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracle import oracle_condition_a, oracle_condition_b
from pathseq import (
    IndexEvaluationError,
    InvariantFunction,
    builtin,
    check_generalized_conditions,
    check_starlike_conditions,
    mu_coefficient,
    mu_row,
    register_invariant,
    resolve_index,
)
from pathseq.reconstruct import _condition_a

CHECKS = {"starlike": check_starlike_conditions, "generalized": check_generalized_conditions}
PINNED = os.path.join(os.path.dirname(os.path.abspath(__file__)), "condition_reports.json")
SPECIAL = (math.nan, math.inf, -math.inf)


def _nudge(v, ulps):
    for _ in range(abs(ulps)):
        v = math.nextafter(v, math.copysign(math.inf, ulps))
    return v


@st.composite
def domains(draw):
    """(g, base, tol): ascending integer keys, mostly consecutive; values on
    an exact line, a few ulps off one, on a curve, or arbitrary floats; base
    0.0, near the line's slope or a pair's divided difference, or any
    float; now and then a NaN or infinite point or base."""
    start = draw(st.integers(-3, 3))
    xs = draw(
        st.one_of(
            st.integers(2, 40).map(lambda n: list(range(start, start + n))),
            st.lists(st.integers(-60, 600), min_size=2, max_size=25, unique=True).map(sorted),
        )
    )
    dyadic = st.builds(lambda p, k: p / 2**k, st.integers(-(2**20), 2**20), st.integers(0, 16))
    a, slope = draw(dyadic), draw(dyadic)
    kind = draw(st.sampled_from(["line", "ulps", "curve", "floats"]))
    if kind == "floats":
        values = draw(st.lists(st.floats(), min_size=len(xs), max_size=len(xs)))
    elif kind == "curve":
        bend = draw(st.floats(-10, 10))
        values = [a + slope * x + bend * math.sqrt(x - xs[0] + 1) for x in xs]
    else:
        spread = 0 if kind == "line" else 3
        ulps = draw(st.lists(st.integers(-spread, spread), min_size=len(xs), max_size=len(xs)))
        values = [_nudge(a + slope * x, k) for x, k in zip(xs, ulps)]
    i, j = sorted(draw(st.lists(st.integers(0, len(xs) - 1), min_size=2, max_size=2, unique=True)))
    divided = (values[i] - values[j]) / (xs[i] - xs[j])
    for k, v in draw(st.lists(st.tuples(st.integers(0, len(xs) - 1), st.sampled_from(SPECIAL)),
                              max_size=2)):
        values[k] = v
    base = draw(
        st.one_of(
            st.just(0.0),
            st.sampled_from([slope, divided]).flatmap(
                lambda s: st.integers(-2, 2).map(lambda k: _nudge(s, k))
            ),
            st.floats(-1e6, 1e6),
            st.sampled_from(SPECIAL),
        )
    )
    tol = draw(st.sampled_from([0.0, 1e-9, 1e-3, 0.3]))
    return dict(zip(xs, values)), base, tol


@settings(max_examples=400, deadline=None)
@given(domains())
@example(({3: 1.0, 4: 1.0, 5: 1.0}, 0.0, 0.0))
@example(({2: 0.5, 3: 0.75, 4: 1.0, 5: 1.25}, 0.25, 1e-9))
@example(({3: 1.0, 4: math.nextafter(1.0, 2.0), 5: 1.0}, 0.0, 0.0))
@example(({3: 1e308, 4: -1e308, 5: 1e308}, 0.0, 1e-9))
@example(({3: 5e-324, 4: 0.0, 5: 1e-323}, 0.0, 0.0))
# (0, 2) fails at tol 0.1 across a step of slope 0.19 in H order
@example(({0: 0.0, 1: 0.19, 2: 0.2}, 0.0, 0.1))
def test_condition_a_equals_the_scan_of_every_pair(domain):
    g, base, tol = domain
    ok, witness, low = oracle_condition_a(g, base, tol)
    got_witness, got_low = _condition_a(g, base, tol)
    assert (got_witness is None, got_witness, got_low.hex()) == (ok, witness, low.hex())


def _pinned():
    with open(PINNED) as fh:
        return json.load(fh)


@pytest.mark.parametrize(
    "want", _pinned(), ids=lambda w: f"{w['index']}-{w['family']}-{w['x_max']}"
)
def test_reports_on_the_built_in_indices_are_pinned(want):
    # The values of the scan of every pair, at t_max 32 and tol 1e-9.
    report = CHECKS[want["family"]](resolve_index(want["index"]), want["x_max"])
    got = {
        "index": want["index"],
        "family": report.family,
        "x_max": report.x_max,
        "condition_a": report.condition_a,
        "condition_b": report.condition_b,
        "counterexample_a": report.counterexample_a and list(report.counterexample_a),
        "counterexample_b": report.counterexample_b and list(report.counterexample_b),
        "min_margin_a": report.min_margin_a,
        "min_margin_b": report.min_margin_b,
    }
    assert (report.t_max, report.tolerance) == (32, 1e-9)
    assert got == want
    assert got["min_margin_a"].hex() == want["min_margin_a"].hex()
    assert got["min_margin_b"].hex() == want["min_margin_b"].hex()


@pytest.mark.parametrize("family", sorted(CHECKS))
@pytest.mark.parametrize(
    "kwargs",
    [{"x_max": 2}, {"x_max": 3}, {"x_max": -5}, {"t_max": -1}, {"tol": -1.0}, {"tol": 1.0},
     {"tol": math.nan}],
)
def test_conditions_take_the_cli_ranges(family, kwargs):
    # Outside these ranges a scan passes vacuously: x_max 2 leaves no pair
    # (margins inf), t_max -1 no depth, and tol -1.0 passes path-count's 0.0.
    with pytest.raises(ValueError, match="x_max >= 4, t_max >= 0, tol in"):
        CHECKS[family](builtin("path-count"), **kwargs)


@pytest.mark.parametrize("family", sorted(CHECKS))
def test_condition_ranges_include_their_ends(family):
    report = CHECKS[family](builtin("connectivity"), x_max=4, t_max=0, tol=0.0)
    assert report.passed and (report.x_max, report.t_max, report.tolerance) == (4, 0, 0.0)


def _nan_at_3(d):
    return math.nan if 3 in (d[0], d[-1]) else 1.0 / math.sqrt(math.prod(d))


@pytest.mark.parametrize("family", sorted(CHECKS))
def test_a_nan_margin_fails_b_and_keeps_the_rows_minimum(family):
    # Root degree 3 gives a NaN margin at every depth: it is the first
    # failure, and the least margin is connectivity's over degrees 4..64.
    report = CHECKS[family](register_invariant("nan-at-3", _nan_at_3))
    assert not report.condition_b and report.counterexample_b == (0, 3)
    conn = builtin("connectivity")
    least = min(abs(mu_coefficient(conn, t + 1, x)) for t in range(33) for x in range(4, 65))
    assert report.min_margin_b == least == 9.256007656833068e-07


@pytest.mark.parametrize("family", sorted(CHECKS))
def test_a_failure_in_b_names_the_index_and_the_order(family):
    # Sequences of five degrees divide by zero: depth t = 3 reads order 4.
    deep_pole = InvariantFunction("deep-pole", lambda d: 1.0 / (5 - len(d)) + d[0] + d[-1])
    with pytest.raises(IndexEvaluationError, match=r"^index 'deep-pole' at order 4: float division"):
        CHECKS[family](deep_pole, x_max=8, t_max=6)


def _ends(d):
    return 1.0 / math.sqrt(d[0] * d[-1] + len(d))


# registered indices have no product-sum form, so mu_row reads their tuples
TUPLE_ONLY = {"ends": register_invariant("ends", _ends),
              "nan-at-3": register_invariant("nan-at-3", _nan_at_3)}
BUILT_INS = ("connectivity", "sum-connectivity", "hyper-zagreb", "path-count")


@st.composite
def condition_b_cases(draw):
    """(f, family, x_max, t_max, tol): a built-in, a power of random
    exponent, or a registered index without a product-sum form."""
    name = draw(st.sampled_from(BUILT_INS + ("power",) + tuple(TUPLE_ONLY)))
    if name == "power":
        f = builtin("power", draw(st.floats(-3, 3)))
    else:
        f = TUPLE_ONLY.get(name) or builtin(name)
    tol = draw(st.one_of(st.sampled_from([0.0, 1e-9]), st.floats(0, 1, exclude_max=True)))
    return (f, draw(st.sampled_from(sorted(CHECKS))), draw(st.integers(4, 300)),
            draw(st.integers(0, 60)), tol)


@settings(max_examples=80, deadline=None)
@given(condition_b_cases())
# connectivity's least margin drops below 1e-9 at depth 51
@example((builtin("connectivity"), "starlike", 64, 60, 1e-9))
@example((TUPLE_ONLY["nan-at-3"], "generalized", 300, 60, 0.0))
@example((builtin("path-count"), "starlike", 4, 0, 0.0))
def test_condition_b_equals_the_scan_of_every_degree_tuple(case):
    f, family, x_max, t_max, tol = case
    witness, low = oracle_condition_b(f.fn, x_max, t_max, tol)
    report = CHECKS[family](f, x_max, t_max, tol)
    got = (report.condition_b, report.counterexample_b, report.min_margin_b.hex())
    assert got == (witness is None, witness, low.hex())


def _outcome(call, *args):
    """repr of a call's floats, exact to the bit, or its error's type and message."""
    try:
        return repr(call(*args))
    except IndexEvaluationError as exc:
        return type(exc), str(exc)


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(BUILT_INS + ("power:0.5", "power:-0.5", "power:2.0", "power:3.7")),
    st.integers(1, 1100),
    st.lists(st.one_of(st.integers(3, 9), st.integers(3, 2**40)), min_size=1, max_size=4),
)
# products past 2**53, one past the largest float (2**20 << 1019), and a
# power whose result overflows
@example("connectivity", 60, [3, 5])
@example("connectivity", 1020, [3, 2**20])
@example("power:3.7", 300, [3])
def test_mu_row_from_the_product_sum_form_equals_the_tuples(name, h, xs):
    f = resolve_index(name)
    want = _outcome(mu_row, InvariantFunction(f.name, f.fn), h, xs)
    assert _outcome(mu_row, f, h, xs) == want
    assert _outcome(lambda: [mu_coefficient(f, h, x) for x in xs]) == want
