import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracle import close, graph_edges, oracle_invariant
from pathseq import (
    Census,
    IndexEvaluationError,
    InvariantFunction,
    PathseqError,
    SymmetryError,
    StarlikeSpec,
    UnknownIndexError,
    build_graph,
    builtin,
    evaluate_invariant,
    invariant_from_census,
    invariant_profile,
    mu_row,
    register_invariant,
    resolve_index,
    validate_symmetry,
)
from pathseq.invariants import _registry

BUILTIN_NAMES = ("connectivity", "sum-connectivity", "hyper-zagreb", "path-count")


def test_builtin_values():
    assert close(builtin("connectivity")((2, 3)), 1 / math.sqrt(6))
    assert close(builtin("sum-connectivity")((2, 3)), 1 / math.sqrt(5))
    assert builtin("hyper-zagreb")((2, 3)) == 36.0
    assert builtin("path-count")((7, 1, 4)) == 1.0
    assert builtin("power", 0.5)((2, 8)) == 4.0


def test_power_matches_connectivity_at_negative_half():
    conn = builtin("connectivity")
    pw = builtin("power", -0.5)
    assert pw.name == "power:-0.5"
    for seq in ((3,), (1, 2), (2, 5, 2), (4, 4, 4, 4)):
        assert close(pw(seq), conn(seq))


def test_builtin_rejects_bad_requests():
    with pytest.raises(UnknownIndexError):
        builtin("nope")
    with pytest.raises(UnknownIndexError):
        builtin("power")
    with pytest.raises(UnknownIndexError):
        builtin("connectivity", 2.0)


@pytest.mark.parametrize("text", ["power:nan", "power:inf", "power:-inf"])
def test_power_rejects_a_non_finite_exponent(text):
    with pytest.raises(UnknownIndexError, match="finite exponent"):
        resolve_index(text)
    with pytest.raises(UnknownIndexError):
        builtin("power", float(text.partition(":")[2]))


def test_invariant_function_accepts_lists():
    f = builtin("connectivity")
    assert f([2, 3]) == f((2, 3))


def test_resolve_index_parses_parameter():
    assert resolve_index("connectivity").name == "connectivity"
    assert resolve_index("power:0.5")((4,)) == 2.0
    with pytest.raises(UnknownIndexError):
        resolve_index("mystery")
    with pytest.raises(UnknownIndexError):
        resolve_index("power:abc")


def test_register_and_resolve_custom_index():
    register_invariant("degree-sum", lambda d: float(sum(d)))
    f = resolve_index("degree-sum")
    assert f((2, 3, 4)) == 9.0


def test_register_rejects_reserved_names():
    with pytest.raises(ValueError):
        register_invariant("connectivity", lambda d: 1.0)


def test_register_rejects_an_index_that_is_not_callable():
    with pytest.raises(ValueError, match=r"^index function for 'zz' must be callable, got 3$"):
        register_invariant("zz", 3)


@pytest.mark.parametrize("value", ["s", None, [1.0]], ids=["str", "none", "list"])
def test_an_index_value_that_is_not_a_number_is_an_index_evaluation_error(value):
    f = InvariantFunction("odd", lambda d: value)
    graph = build_graph(4, [(0, 1), (1, 2), (2, 3)])
    calls = [
        lambda: register_invariant("odd", f.fn),
        lambda: invariant_profile(graph, f, 3),
        lambda: invariant_profile(StarlikeSpec.from_counts({1: 2, 2: 1}), f, 3),
        lambda: mu_row(f, 2, [3, 4]),
    ]
    for call in calls:
        with pytest.raises(IndexEvaluationError) as exc:
            call()
        assert isinstance(exc.value.__cause__, TypeError)
    assert "odd" not in _registry


def test_register_rejects_asymmetric_function():
    with pytest.raises(SymmetryError):
        register_invariant("first", lambda d: float(d[0]))


def test_validate_symmetry_passes_symmetric_function():
    validate_symmetry(lambda d: float(sum(d)), random.Random(7))


def test_invariant_from_census():
    census = Census(order=1, entries={(1, 2): 3, (2, 2): 2})
    f = InvariantFunction("prod", lambda d: float(math.prod(d)))
    assert invariant_from_census(census, f) == 3 * 2 + 2 * 4


@pytest.mark.parametrize("name", BUILTIN_NAMES)
@pytest.mark.parametrize("order", range(4))
def test_evaluate_matches_oracle_on_k4(k4, name, order):
    f = builtin(name)
    got = evaluate_invariant(k4, order, f)
    want = oracle_invariant(4, graph_edges(k4), order, f)
    assert close(got, want)


def test_profile_matches_per_order_values(path5):
    f = builtin("sum-connectivity")
    profile = invariant_profile(path5, f, 4)
    assert len(profile) == 5
    for h, value in enumerate(profile):
        assert close(value, evaluate_invariant(path5, h, f))


def test_order_zero_path_graph():
    g = __import__("pathseq").build_graph(3, [(0, 1), (1, 2)])
    f = builtin("connectivity")
    # two leaves and one degree-2 vertex
    assert close(evaluate_invariant(g, 0, f), 2.0 + 1 / math.sqrt(2))


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(BUILTIN_NAMES),
    st.lists(st.integers(min_value=1, max_value=50), min_size=1, max_size=8),
)
def test_builtins_are_reversal_symmetric(name, seq):
    f = builtin(name)
    assert f(tuple(seq)) == f(tuple(reversed(seq)))


def test_arithmetic_failure_in_index_is_a_pathseq_error():
    census = Census(order=1, entries={(1, 2): 3, (2, 2): 2})
    f = InvariantFunction("bad", lambda d: 1.0 / (max(d) - 2))
    with pytest.raises(IndexEvaluationError) as exc:
        invariant_from_census(census, f)
    assert isinstance(exc.value, PathseqError)
    assert isinstance(exc.value.__cause__, ZeroDivisionError)


def test_index_arithmetic_errors_map_wherever_f_runs():
    f = InvariantFunction("bad", lambda d: 1.0 / (max(d) - 2))
    with pytest.raises(IndexEvaluationError) as exc:
        f([2, 2])
    assert isinstance(exc.value.__cause__, ZeroDivisionError)
    assert "'bad' at order 1" in str(exc.value)
    # an overflow in the weighted sum itself is still mapped by the census sum
    census = Census(order=0, entries={(1,): 1, (2,): 1})
    with pytest.raises(IndexEvaluationError) as exc:
        invariant_from_census(census, InvariantFunction("big", lambda d: 1e308))
    assert isinstance(exc.value.__cause__, OverflowError)


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(BUILTIN_NAMES + ("power:0.5", "power:-0.5", "power:2.0", "power:3.7")),
    st.lists(st.one_of(st.integers(1, 9), st.integers(1, 2**60)), min_size=1, max_size=30),
)
# a product past 2**53 that rounds, one that overflows a float, and a power
# whose result overflows
@example("connectivity", [3**20, 3**14])
@example("hyper-zagreb", [2**60] * 18)
@example("power:3.7", [2**60] * 5)
def test_product_sum_form_is_the_tuple_form_bit_for_bit(name, seq):
    f = resolve_index(name)
    product_sum = InvariantFunction(f.name, lambda d: f.multiset(math.prod(d), sum(d)))

    def outcome(g):
        try:
            return g(seq).hex()
        except IndexEvaluationError as exc:
            return str(exc)

    assert outcome(product_sum) == outcome(f)
