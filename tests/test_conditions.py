"""Condition scans: condition (a) from the sorted order-0 values against the
scan of every pair, condition (b) from mu_row against the scan of every
degree tuple, the library's ranges, NaN margins, and whole reports pinned on
the built-in indices."""

import json
import math
import os
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracle import oracle_condition_a, oracle_condition_b
from pathseq import (
    IndexEvaluationError,
    InvariantFunction,
    StarlikeSpec,
    builtin,
    check_generalized_conditions,
    check_starlike_conditions,
    distinguish,
    mu_coefficient,
    mu_row,
    register_invariant,
    resolve_index,
)
from pathseq import reconstruct
from pathseq.reconstruct import _condition_a, _rows_b

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
    (name,) = kwargs
    match = {"x_max": r"^x_max must be >= 4 and an int", "t_max": r"^t_max must be >= 0 and an int",
             "tol": "tolerance must be >= 0 and < 1"}[name]
    with pytest.raises(ValueError, match=match):
        CHECKS[family](builtin("path-count"), **kwargs)


@pytest.mark.parametrize("family", sorted(CHECKS))
@pytest.mark.parametrize("x_max, t_max", [(4.5, 32), (64, 2.5), (8, "3"), (64.0, 32), (None, 32)])
def test_conditions_refuse_a_range_that_is_not_an_int(family, x_max, t_max):
    wrong = "x_max must be >= 4" if type(x_max) is not int else "t_max must be >= 0"
    with pytest.raises(ValueError, match=rf"^{wrong} and an int \(not a bool\); got "):
        CHECKS[family](builtin("path-count"), x_max, t_max)


def test_conditions_state_the_tolerance_range_as_distinguish_does():
    f = builtin("connectivity")
    spec = StarlikeSpec(((1, 3),))
    with pytest.raises(ValueError) as scan:
        check_starlike_conditions(f, 64, 32, 1.5)
    with pytest.raises(ValueError) as pair:
        distinguish(spec, spec, f, 1.5)
    assert str(scan.value) == str(pair.value) == "tolerance must be >= 0 and < 1, got 1.5"


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


NOT_REAL = {"NoneType": None, "str": "a", "complex": 1j}


@pytest.mark.parametrize("family", sorted(CHECKS))
@pytest.mark.parametrize("kind", sorted(NOT_REAL))
@pytest.mark.parametrize("order", [0, 2])
def test_an_index_value_that_is_not_a_real_number_names_the_index_and_the_order(family, kind,
                                                                                 order):
    # Unregistered, so no symmetry draw refuses it: at order 0 condition (a)
    # reads it, at order 2 the tuples of (b)'s depth 1.
    value = NOT_REAL[kind]
    f = InvariantFunction("s", lambda d: value if len(d) > order else 1.0 / len(d))
    with pytest.raises(IndexEvaluationError,
                       match=rf"^index 's' at order {order}: must be real number, not {kind}$"):
        CHECKS[family](f, 8, 2)


@pytest.mark.parametrize("kind", sorted(NOT_REAL))
def test_mu_row_refuses_an_index_value_that_is_not_a_real_number(kind):
    value = NOT_REAL[kind]
    f = InvariantFunction("s", lambda d: value)
    with pytest.raises(IndexEvaluationError,
                       match=rf"^index 's' at order 2: must be real number, not {kind}$"):
        mu_row(f, 2, [3])


def _ends(d):
    return 1.0 / math.sqrt(d[0] * d[-1] + len(d))


# registered indices have no product-sum form, so mu_row reads their tuples
TUPLE_ONLY = {"ends": register_invariant("ends", _ends),
              "nan-at-3": register_invariant("nan-at-3", _nan_at_3)}
BUILT_INS = ("connectivity", "sum-connectivity", "hyper-zagreb", "path-count")


@st.composite
def condition_b_cases(draw):
    """(f, family, x_max, t_max, tol): a built-in, a power of random
    exponent, or a registered index without a product-sum form. Exponents
    near 0 (down to 1e-300) leave |1 - 2**alpha| too small for the power
    route, and those up to 60 in size under- or overflow inside t_max."""
    name = draw(st.sampled_from(BUILT_INS + ("power",) + tuple(TUPLE_ONLY)))
    if name == "power":
        tiny = st.builds(lambda sign, e: sign * 10.0**e, st.sampled_from([-1, 1]),
                         st.floats(-300, -3))
        f = builtin("power", draw(st.one_of(st.floats(-3, 3), st.floats(-60, 60), tiny)))
    else:
        f = TUPLE_ONLY.get(name) or builtin(name)
    tol = draw(st.one_of(st.sampled_from([0.0, 1e-9]), st.floats(0, 1, exclude_max=True)))
    return (f, draw(st.sampled_from(sorted(CHECKS))), draw(st.integers(4, 600)),
            draw(st.integers(0, 60)), tol)


@settings(max_examples=80, deadline=None)
@given(condition_b_cases())
# connectivity's least margin drops below 1e-9 at depth 51
@example((builtin("connectivity"), "starlike", 64, 60, 1e-9))
@example((TUPLE_ONLY["nan-at-3"], "generalized", 300, 60, 0.0))
@example((builtin("path-count"), "starlike", 4, 0, 0.0))
# Near and past the ends of the built-ins' one-margin rows: connectivity's
# products pass the largest float at order 1021 or 1022 and its values turn
# subnormal where x << (t + 1) passes 2**2042 (depth 2040 at x_max 4, 2039
# at 5), and hyper-zagreb's squares overflow once x << (t + 1) >= 2**512, so
# its margins turn NaN there and fail (b) while the least margin stays 15.0
# at depth 0.
@example((builtin("connectivity"), "starlike", 4, 2041, 1e-9))
@example((builtin("connectivity"), "generalized", 5, 2040, 0.0))
@example((builtin("connectivity"), "starlike", 4, 1800, 1e-9))
@example((builtin("connectivity"), "starlike", 4, 1023, 1e-9))
@example((builtin("connectivity"), "generalized", 5, 1025, 0.0))
@example((builtin("connectivity"), "starlike", 8, 1021, 0.3))
@example((builtin("hyper-zagreb"), "starlike", 5, 520, 1e-9))
@example((builtin("hyper-zagreb"), "generalized", 8, 515, 0.0))
@example((builtin("path-count"), "generalized", 4, 2000, 0.0))
@example((builtin("sum-connectivity"), "starlike", 4, 2000, 1e-9))
@example((builtin("sum-connectivity"), "generalized", 7, 2000, 0.0))
# power's products pass the largest float near order 1021, and a power
# below 1 reads on from their top bits. power:-1's values leave the normal
# range at depth 1017, where its rows pass from root degree 3 alone to
# mu_row's whole rows; the other two keep to degree 3 throughout.
@example((builtin("power", 0.5), "starlike", 7, 1021, 1e-9))
@example((builtin("power", -1.0), "generalized", 9, 1020, 0.0))
@example((builtin("power", -0.5), "starlike", 5, 1019, 0.3))
# power:-60's values leave the normal range at depth 7; at -66 and 1e-300
# degree 3 alone is not shown to hold the least margin; power:60 overflows
# at order 8
@example((builtin("power", -60.0), "starlike", 600, 60, 1e-9))
@example((builtin("power", -66.0), "generalized", 600, 60, 0.0))
@example((builtin("power", 1e-300), "starlike", 600, 60, 0.0))
@example((builtin("power", 60.0), "generalized", 600, 60, 1e-9))
def test_condition_b_equals_the_scan_of_every_degree_tuple(case):
    f, family, x_max, t_max, tol = case

    def oracle():
        # f names its index and the order in an error, as the scan does
        witness, low = oracle_condition_b(f, x_max, t_max, tol)
        return witness is None, witness, low.hex()

    def scan():
        report = CHECKS[family](f, x_max, t_max, tol)
        return report.condition_b, report.counterexample_b, report.min_margin_b.hex()

    assert _outcome(scan) == _outcome(oracle)


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


def _scan_rows(f, roots, t_max):
    """Each depth's |mu_row| row, least non-NaN margin and whether none is
    NaN, then the first error's message, if any."""
    rows = []
    try:
        for t in range(t_max + 1):
            row = [abs(m) for m in mu_row(f, t + 1, roots)]
            low = min([m for m in row if m == m], default=math.inf)
            rows.append((row, low, all(m == m for m in row)))
    except IndexEvaluationError as exc:
        rows.append(str(exc))
    return rows


POWERS = ("power:0.5", "power:-1", "power:2", "power:3.7", "power:-0.5", "power:1e-12")


@pytest.mark.parametrize(
    "x_max, name",
    [(x_max, name) for name in BUILT_INS for x_max in (4, 7, 8, 63, 64, 65)]
    # at 511 and 512, an odd and an even x_max, power:-1's rows turn whole
    # from depth 1012, where its values leave the normal range
    + [(x_max, name) for name in POWERS for x_max in (5, 511, 512)],
)
def test_built_in_rows_scale_or_shift_exactly_up_to_the_first_error(name, x_max):
    # Depth 1030, and 1850 for connectivity, whose products pass the float
    # range near depth 1020, is past the largest float; a row shorter than
    # mu_row's is a prefix, which holds the least margin. hyper-zagreb's rows
    # turn NaN, and power:2 and power:3.7 raise, before depth 1030; the powers
    # below 1 read on past it, from their products' top bits.
    f, roots = resolve_index(name), list(range(3, x_max + 1))
    depth = 1850 if name == "connectivity" else 1030
    want, got = _scan_rows(f, roots, depth), []
    try:
        for (row, low, finite), scanned in zip(_rows_b(f, roots, depth), want):
            got.append((row + scanned[0][len(row) :], low, finite))
    except IndexEvaluationError as exc:
        got.append(str(exc))
    assert repr(got) == repr(want)


def _counted_rows(monkeypatch):
    """The depths of the rows that the scan reads from mu_row."""
    depths = []

    def counted(f, h, degrees):
        depths.append(h - 1)
        return mu_row(f, h, degrees)

    monkeypatch.setattr(reconstruct, "mu_row", counted)
    return depths


# (index, the depths whose rows come from mu_row, t_max), at x_max 64
ROUTES = [("connectivity", [], 320), ("hyper-zagreb", [], 320), ("path-count", [], 320),
          ("sum-connectivity", [], 320), ("power:0.5", [], 320), ("ends", list(range(321)), 320),
          # one margin a depth past the float range, to depth 2035, then its
          # subnormal values from mu_row
          ("connectivity", [], 1850), ("connectivity", list(range(2036, 2049)), 2048)]


@pytest.mark.parametrize("family", sorted(CHECKS))
@pytest.mark.parametrize(
    "name, rows, t_max", ROUTES,
    ids=[f"{name}-{len(rows)}" + (f"-{t_max}" if t_max != 320 else "")
         for name, rows, t_max in ROUTES],
)
def test_condition_b_reads_one_period_of_rows_for_the_built_ins(monkeypatch, family, name, rows,
                                                                 t_max):
    f = TUPLE_ONLY.get(name) or resolve_index(name)
    depths = _counted_rows(monkeypatch)
    CHECKS[family](f, 64, t_max)
    assert depths == rows


def _form_calls(f, call):
    """How many times call evaluates f's product-sum form."""
    code, calls = f.multiset.__code__, []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is code:
            calls.append(1)

    sys.setprofile(profile)
    try:
        call()
    finally:
        sys.setprofile(None)
    return len(calls)


@pytest.mark.parametrize("family", sorted(CHECKS))
@pytest.mark.parametrize("name", ["power:0.5", "power:-0.5", "power:2"])
def test_a_power_scan_evaluates_its_form_a_few_times_a_depth(family, name):
    # Condition (a) reads x_max values and each depth of (b) three, where a
    # whole row from mu_row reads 1,022. power:2 raises at order 503, part
    # way through mu_row's row at depth 502.
    f = resolve_index(name)
    calls = _form_calls(f, lambda: _outcome(CHECKS[family], f, 512, 1000))
    assert calls <= 512 + 3 * (1000 + 1) + 3 + (2 * 512 if name == "power:2" else 0)


@pytest.mark.parametrize(
    "name, x_max, t_max, width_1",
    [("power:0.5", 512, 1000, 1001), ("power:-0.5", 512, 2048, 2033), ("power:-1", 512, 2048, 1012),
     ("power:-1", 5, 1030, 1018), ("power:3.7", 64, 200, 201), ("power:-60", 600, 60, 7),
     ("power:-66", 600, 60, 0), ("power:1e-12", 64, 40, 0), ("power:0.0", 64, 40, 0),
     # connectivity's values leave the normal range where x_max << (t + 1)
     # passes 2**2042, and hyper-zagreb's where it passes 2**511.5
     ("connectivity", 512, 2200, 2033), ("connectivity", 4, 2045, 2040),
     ("hyper-zagreb", 512, 510, 502)],
)
def test_power_rows_hold_one_margin_until_the_route_cannot_be_shown(name, x_max, t_max, width_1):
    # From the first depth whose values leave the normal range, or from
    # depth 0 where |1 - 2**alpha| is too small or 3**alpha and 4**alpha too
    # close, every row is whole.
    f = resolve_index(name)
    rows = [len(row) for row, *_ in _rows_b(f, list(range(3, x_max + 1)), t_max)]
    assert rows == [1] * width_1 + [x_max - 2] * (t_max + 1 - width_1)


CONNECTIVITY, POWER = builtin("connectivity"), builtin("power", 0.5)
# (index, rows read from mu_row, the built-in whose report it gives)
LOOKALIKES = {
    # what a traced benchmark run builds: the built-in's tuple form only
    "traced": (InvariantFunction("connectivity", CONNECTIVITY.fn), 41, CONNECTIVITY),
    # a built-in's name on another product-sum form of the same index
    "named": (InvariantFunction("hyper-zagreb", CONNECTIVITY.fn, lambda p, s: 1.0 / math.sqrt(p)),
              41, CONNECTIVITY),
    # the built-in's own form under another name takes the built-in's route
    "renamed": (InvariantFunction("mine", CONNECTIVITY.fn, CONNECTIVITY.multiset), 0, CONNECTIVITY),
    # power's name and form, but not made by builtin: every row is mu_row's
    "power": (InvariantFunction("power:0.5", POWER.fn, lambda q, s: q**0.5), 41, POWER),
}


@pytest.mark.parametrize("family", sorted(CHECKS))
@pytest.mark.parametrize("kind", sorted(LOOKALIKES))
def test_only_a_built_ins_own_form_takes_its_exact_rows(monkeypatch, family, kind):
    f, rows, own = LOOKALIKES[kind]
    depths = _counted_rows(monkeypatch)
    report = CHECKS[family](f, 30, 40, 1e-12)
    witness, low = oracle_condition_b(f, 30, 40, 1e-12)
    assert depths == list(range(rows))
    assert (report.counterexample_b, report.min_margin_b.hex()) == (witness, low.hex())
    assert report == CHECKS[family](own, 30, 40, 1e-12)


@pytest.mark.parametrize("family", sorted(CHECKS))
def test_sum_connectivity_rows_hold_where_its_differences_are_out_of_order(monkeypatch, family):
    # Rounding leaves D nonincreasing on every table tried; were it not, each
    # row would be read whole. Pretend no pair is in order. The rows fail
    # from depth 151.
    f = builtin("sum-connectivity")
    want = CHECKS[family](f, 40, 200, 4.65e-7)
    monkeypatch.setattr(reconstruct, "ge", lambda a, b: False)
    got = CHECKS[family](f, 40, 200, 4.65e-7)
    witness, low = oracle_condition_b(f, 40, 200, 4.65e-7)
    assert got == want and (got.counterexample_b, got.min_margin_b) == (witness, low)
    assert witness == (151, 3)


@pytest.mark.parametrize("family, witness", [("starlike", (3, 4)), ("generalized", (2, 3))])
def test_tied_condition_a_stops_at_its_first_pair(monkeypatch, family, witness):
    # path-count's divided differences all equal its base, so every margin
    # is 0.0; a scan of every pair read about 130,000 at x_max 512
    pairs = []
    real = reconstruct.combinations

    def counted(items, r):
        for pair in real(items, r):
            pairs.append(pair)
            yield pair

    monkeypatch.setattr(reconstruct, "combinations", counted)
    report = CHECKS[family](builtin("path-count"), 512, 0)
    assert (report.counterexample_a, report.min_margin_a) == (witness, 0.0)
    assert len(pairs) == 1
