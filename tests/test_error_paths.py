"""Error paths: bad input files, out-of-domain arguments and failed writes
end in a PathseqError, a documented ValueError or a CLI error object, never
in a traceback or a per-vertex allocation."""

import ast
import importlib
import inspect
import json
import os
import re
import sys
import tracemalloc
import types
import typing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pathseq
from pathseq import (
    DisconnectedError,
    DuplicateEdgeError,
    FamilyMismatchError,
    FormatError,
    GenStarlikeSpec,
    InvalidSpecError,
    PathseqError,
    SelfLoopError,
    StarlikeSpec,
    UnreadableFileError,
    VertexOutOfRangeError,
    build_graph,
    builtin,
    census_series,
    check_starlike_conditions,
    distinguish,
    enumerate_paths,
    evaluate_invariant,
    generalized_specs,
    load_edge_list,
    load_generalized_spec,
    load_starlike_spec,
    mu_coefficient,
    mu_row,
    parse_edge_list,
    parse_generalized_spec,
    parse_starlike_spec,
    reconstruct_generalized,
    reconstruct_starlike,
    starlike_profile,
    starlike_specs,
    survey_distinguishability,
    tail_coefficients,
)
from pathseq.cli import main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONN = builtin("connectivity")
# the tail of every message of the one argument check, pathseq.errors._need_int
AN_INT = "an int (not a bool)"
INT = re.escape(AN_INT)
SPIDER = {"branches": [{"length": 1, "count": 1}, {"length": 2, "count": 2}]}
STAR = StarlikeSpec.from_counts({1: 2, 2: 1})
PATH4 = build_graph(4, [(0, 1), (1, 2), (2, 3)])
LOADERS = {
    "graph": load_edge_list,
    "starlike": load_starlike_spec,
    "generalized": load_generalized_spec,
}


def run(capsys, *argv):
    code = main(list(argv))
    return code, json.loads(capsys.readouterr().out)


# --- input files ----------------------------------------------------------


@pytest.mark.parametrize("flag", sorted(LOADERS))
def test_undecodable_file_is_a_format_error_at_its_byte_offset(tmp_path, flag):
    # past the first 8 KiB, where a chunked decode would restart its offsets
    path = tmp_path / "bad"
    path.write_bytes(b" " * 9000 + b"\xff\xfe")
    with pytest.raises(FormatError) as err:
        LOADERS[flag](str(path))
    assert str(path) in str(err.value) and "byte offset 9000" in str(err.value)


@pytest.mark.parametrize("flag", sorted(LOADERS))
def test_undecodable_input_prints_a_format_error_object(capsys, tmp_path, flag):
    path = tmp_path / "b.json"
    path.write_bytes(b"\xff\xfe")
    code, doc = run(capsys, "census", f"--{flag}", str(path), "--order", "1")
    assert code == 1
    assert doc["error"]["type"] == "Format"
    assert str(path) in doc["error"]["message"] and "byte offset 0" in doc["error"]["message"]


@pytest.mark.parametrize("flag", ["starlike", "generalized"])
def test_deeply_nested_json_is_a_format_error(capsys, tmp_path, flag):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000)
    with pytest.raises(FormatError, match="invalid JSON in"):
        LOADERS[flag](str(path))
    code, doc = run(capsys, "census", f"--{flag}", str(path), "--order", "1")
    assert code == 1
    assert doc["error"]["type"] == "Format" and str(path) in doc["error"]["message"]


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="no int/str digit limit before 3.10.7"
)
def test_integer_past_the_digit_limit_is_a_format_error(tmp_path):
    path = tmp_path / "long.json"
    path.write_text('{"branches": [{"length": 1, "count": ' + "9" * 5000 + "}]}")
    with pytest.raises(FormatError, match="invalid JSON in"):
        load_starlike_spec(str(path))


def test_files_are_read_with_universal_newlines(tmp_path):
    graph = tmp_path / "crlf.txt"
    graph.write_bytes(b"3 2\r\n0 1\r\n1 2\r")
    assert load_edge_list(str(graph)).degrees == (1, 2, 1)
    # a JSON error's position counts a CRLF as one character
    spec = tmp_path / "crlf.json"
    spec.write_bytes(b"{\r\n\r\n!")
    with pytest.raises(FormatError, match=r"line 3 column 1 \(char 3\)"):
        load_starlike_spec(str(spec))


@pytest.mark.parametrize("flag", sorted(LOADERS))
@pytest.mark.parametrize("name", ["absent.json", "."], ids=["missing", "directory"])
def test_unreadable_file_is_a_pathseq_error_with_the_os_text(capsys, tmp_path, flag, name):
    path = str(tmp_path / name)
    with pytest.raises(OSError) as plain:
        open(path, encoding="utf-8")
    with pytest.raises(PathseqError) as err:
        LOADERS[flag](path)
    assert isinstance(err.value, UnreadableFileError) and isinstance(err.value, OSError)
    assert (err.value.errno, str(err.value)) == (plain.value.errno, str(plain.value))
    # the CLI's IO error object keeps the OSError's text
    code, doc = run(capsys, "census", f"--{flag}", path, "--order", "1")
    assert (code, doc) == (1, {"error": {"type": "IO", "message": str(plain.value)}})


def test_a_clique_is_refused_by_the_starlike_parser(capsys, tmp_path):
    doc = {"clique": 4, "branches": [{"length": 2, "count": 3}]}
    with pytest.raises(FormatError, match="--generalized \\(parse_generalized_spec\\)"):
        parse_starlike_spec(doc)
    assert parse_generalized_spec(doc) == GenStarlikeSpec(4, StarlikeSpec(((2, 3),)))
    path = tmp_path / "clique.json"
    path.write_text(json.dumps(doc))
    code, out = run(capsys, "census", "--starlike", str(path), "--order", "1")
    assert code == 1 and out["error"]["type"] == "Format"
    assert "parse_generalized_spec" in out["error"]["message"]


# --- graphs ---------------------------------------------------------------


def test_short_edge_list_fails_without_a_set_per_header_vertex():
    tracemalloc.start()
    try:
        with pytest.raises(DisconnectedError, match="vertex 1 is unreachable from vertex 0"):
            parse_edge_list("1000000 0\n")
        with pytest.raises(DisconnectedError, match="vertex 3 is unreachable from vertex 0"):
            parse_edge_list("1000000 3\n0 1\n2 0\n4 5\n")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a set per vertex would take about 240 MB here
    assert peak < 1_000_000


@pytest.mark.parametrize(
    "text, error",
    [
        ("1000000 2\n0 1\n1 0\n", DuplicateEdgeError),
        ("1000000 1\n0 1000000\n", VertexOutOfRangeError),
        ("1000000 1\n7 7\n", SelfLoopError),
    ],
)
def test_edge_errors_come_before_a_short_edge_list(text, error):
    with pytest.raises(error):
        parse_edge_list(text)


def _simple_graphs(n):
    """(n, edges): up to n + 2 distinct edges u < v, so both sides of n - 1."""
    edge = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] < e[1])
    return st.tuples(st.just(n), st.sets(edge, max_size=n + 2))


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 9).flatmap(_simple_graphs))
def test_disconnected_graph_names_the_least_vertex_not_reached_from_0(case):
    n, edges = case
    reached, grew = {0}, True
    while grew:
        more = {w for u, v in edges for a, w in ((u, v), (v, u)) if a in reached}
        grew = not more <= reached
        reached |= more
    missing = min(set(range(n)) - reached, default=None)
    if missing is None:
        assert build_graph(n, sorted(edges)).vertex_count == n
    else:
        with pytest.raises(DisconnectedError, match=f"vertex {missing} is unreachable"):
            build_graph(n, sorted(edges))


def test_empty_graphs_are_refused():
    with pytest.raises(ValueError, match=rf"^vertex_count must be >= 1 and {INT}; got 0$"):
        build_graph(0, [])
    with pytest.raises(FormatError, match="header values out of range"):
        parse_edge_list("0 0\n")


def test_negative_orders_are_value_errors():
    graph = build_graph(3, [(0, 1), (1, 2)])
    with pytest.raises(ValueError, match="max_order must be >= 0"):
        census_series(graph, -1)
    with pytest.raises(ValueError, match="order must be >= 0"):
        list(enumerate_paths(graph, -1))
    with pytest.raises(ValueError, match="order must be >= 0"):
        StarlikeSpec.from_counts({1: 3}).census(-1)


# --- specs, slopes and surveys --------------------------------------------


@pytest.mark.parametrize(
    "make",
    [
        lambda: StarlikeSpec(((1, 0), (2, 3))),
        lambda: StarlikeSpec.from_counts({1: -1, 2: 4}),
        lambda: StarlikeSpec.from_counts({0: 1, 2: 3}),
        lambda: StarlikeSpec.from_counts({-1: 2, 2: 3}),
    ],
    ids=["zero-count", "negative-count", "zero-length", "negative-length"],
)
def test_branch_rules_are_the_constructors(make):
    with pytest.raises(InvalidSpecError):
        make()


def test_zero_counts_are_dropped_at_any_length():
    assert StarlikeSpec.from_counts({0: 0, -2: 0, 1: 3, 5: 0}).branches == ((1, 3),)


def test_slopes_outside_their_domain_are_value_errors():
    with pytest.raises(ValueError, match=rf"^order must be >= 1 and {INT}; got 0$"):
        mu_row(CONN, 0, [3, 4])
    with pytest.raises(ValueError, match="root degree must be >= 3"):
        mu_coefficient(CONN, 1, 2)


@pytest.mark.parametrize(
    "family, max_degree",
    [("tree", None), ("generalized", None), ("starlike", 5)],
)
def test_survey_family_and_hub_degree_must_agree(family, max_degree):
    with pytest.raises(ValueError, match=family) as err:
        survey_distinguishability(8, CONN, family, max_degree=max_degree)
    assert "must be 'starlike' (no hub degree) or 'generalized' (with one)" in str(err.value)


@pytest.mark.parametrize(
    "call",
    [
        lambda: survey_distinguishability(12.5, CONN),
        lambda: starlike_specs(9.5),
        lambda: generalized_specs(12, 6.5),
        lambda: reconstruct_starlike(9.5, [10.0, 9.0], CONN),
        # a bool is an int to Python, and these answered with "n": true or an empty slice
        lambda: survey_distinguishability(True, CONN),
        lambda: survey_distinguishability(12, CONN, "generalized", True),
        # None names the starlike slice inside, and these answered with starlike specs
        lambda: generalized_specs(9, None),
        lambda: reconstruct_generalized(5, None, starlike_profile(STAR, CONN, 3), CONN),
    ],
    ids=["survey-float-n", "starlike-specs", "generalized-specs", "reconstruct",
         "survey-bool-n", "survey-bool-r", "generalized-specs-none", "reconstruct-none"],
)
def test_a_slice_that_is_not_an_int_is_a_value_error(call):
    with pytest.raises(ValueError, match=rf"^(vertex_count|max_degree) must be {INT}; got "):
        call()


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: starlike_profile(STAR, CONN, 2.5),
         f"max_order must be >= 0 and {AN_INT}; got 2.5"),
        (lambda: evaluate_invariant(STAR, 2.5, CONN), f"order must be >= 0 and {AN_INT}; got 2.5"),
        (lambda: census_series(PATH4, 2.5), f"max_order must be >= 0 and {AN_INT}; got 2.5"),
        (lambda: census_series(PATH4, 3, "x"), f"budget must be >= 0 and {AN_INT}; got 'x'"),
        (lambda: mu_coefficient(CONN, 2.5, 3), f"order must be >= 1 and {AN_INT}; got 2.5"),
        (lambda: tail_coefficients(CONN, 5.5, 3, 1, 1),
         f"order must be >= 5 and {AN_INT}; got 5.5"),
        (lambda: build_graph(2.5, [(0, 1)]), f"vertex_count must be >= 1 and {AN_INT}; got 2.5"),
        (lambda: reconstruct_starlike(9, "abc", CONN),
         "profile entries must be real numbers; got 'a'"),
        (lambda: reconstruct_starlike(9, [None] * 6, CONN),
         "profile entries must be real numbers; got None"),
        (lambda: distinguish(STAR, STAR, CONN, "0.1"), "tolerance must be >= 0 and < 1, got '0.1'"),
        (lambda: check_starlike_conditions(CONN, 64, 32, "0.1"),
         "tolerance must be >= 0 and < 1, got '0.1'"),
        # these two answered: a bool passed isinstance(t_max, int), and the
        # walk read 2.5 as order 2
        (lambda: check_starlike_conditions(CONN, 64, True),
         f"t_max must be >= 0 and {AN_INT}; got True"),
        (lambda: list(enumerate_paths(PATH4, 2.5)), f"order must be >= 0 and {AN_INT}; got 2.5"),
        (lambda: STAR.census(2.5), f"order must be >= 0 and {AN_INT}; got 2.5"),
        (lambda: PATH4.census(2.5), f"order must be >= 0 and {AN_INT}; got 2.5"),
        (lambda: STAR.value(2.5, CONN), f"order must be >= 0 and {AN_INT}; got 2.5"),
        # these raised a bare TypeError
        (lambda: STAR.values(CONN, 2.5), f"max_order must be >= 0 and {AN_INT}; got 2.5"),
        (lambda: STAR.censuses(2.5), f"max_order must be >= 0 and {AN_INT}; got 2.5"),
        (lambda: reconstruct_starlike(5, 5, CONN),
         "profile must be a sequence of real numbers; got 5"),
        # the first blamed the index, and the other two answered
        (lambda: mu_row(CONN, 2, [3, 2.5]), f"root degree must be >= 3 and {AN_INT}; got 2.5"),
        (lambda: mu_row(CONN, 2, [1]), f"root degree must be >= 3 and {AN_INT}; got 1"),
        (lambda: mu_row(CONN, 2, (x for x in [True])),
         f"root degree must be >= 3 and {AN_INT}; got True"),
    ],
    ids=["starlike-profile", "evaluate-invariant", "census-series", "census-series-budget",
         "mu-coefficient", "tail-coefficients", "build-graph", "profile-str", "profile-none",
         "distinguish-tol", "conditions-tol", "conditions-bool", "enumerate-paths",
         "spec-census", "graph-census", "spec-value", "spec-values", "spec-censuses",
         "profile-int", "mu-row-float", "mu-row-below-3", "mu-row-bool"],
)
def test_a_wrong_argument_is_a_value_error_stating_the_rule(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


def test_distinguish_names_both_types_when_one_is_not_a_spec():
    with pytest.raises(FamilyMismatchError, match=r"^cannot compare StarlikeSpec with Graph$"):
        distinguish(STAR, PATH4, CONN)
    with pytest.raises(FamilyMismatchError, match=r"^cannot compare tuple with StarlikeSpec$"):
        distinguish(STAR.branches, STAR, CONN)


# Every public callable that takes a size, order, degree, budget or
# tolerance: its arguments with one left open, by the open parameter's
# name, and the least int that parameter takes ("tol" for a tolerance,
# None for an int with no least value).
_G = PATH4  # a tree: longest_path_length reads no budget on it, and still checks it
ARGUMENTS = {
    "build_graph": {"vertex_count": (1, lambda v: (v, [(0, 1)]))},
    "census_series": {"max_order": (0, lambda v: (_G, v)), "budget": (0, lambda v: (_G, 3, v))},
    "enumerate_paths": {"order": (0, lambda v: (_G, v)), "budget": (0, lambda v: (_G, 2, v))},
    "longest_path_length": {"budget": (0, lambda v: (_G, v))},
    "path_census": {"order": (0, lambda v: (_G, v)), "budget": (0, lambda v: (_G, 1, v))},
    "evaluate_invariant": {"order": (0, lambda v: (STAR, v, CONN)),
                           "budget": (0, lambda v: (_G, 1, CONN, v))},
    "invariant_profile": {"max_order": (0, lambda v: (STAR, CONN, v)),
                          "budget": (0, lambda v: (_G, CONN, 2, v))},
    "starlike_census": {"order": (0, lambda v: (STAR, v))},
    "mu_row": {"h": (1, lambda v: (CONN, v, [3]))},
    "mu_coefficient": {"h": (1, lambda v: (CONN, v, 3)), "m": (3, lambda v: (CONN, 2, v))},
    "tail_coefficients": {"h": (5, lambda v: (CONN, v, 3, 1, 1)),
                          "m": (3, lambda v: (CONN, 5, v, 1, 1))},
    "check_starlike_conditions": {"x_max": (4, lambda v: (CONN, v, 4)),
                                  "t_max": (0, lambda v: (CONN, 4, v)),
                                  "tol": ("tol", lambda v: (CONN, 4, 4, v))},
    "reconstruct_starlike": {"vertex_count": (None, lambda v: (v, [7.0], CONN)),
                             "tol": ("tol", lambda v: (7, [7.0], CONN, v))},
    "reconstruct_generalized": {"vertex_count": (None, lambda v: (v, 6, [9.0], CONN)),
                                "max_degree": (None, lambda v: (9, v, [9.0], CONN)),
                                "tol": ("tol", lambda v: (9, 6, [9.0], CONN, v))},
    "distinguish": {"tol": ("tol", lambda v: (STAR, STAR, CONN, v))},
    "starlike_specs": {"vertex_count": (None, lambda v: (v,))},
    "generalized_specs": {"vertex_count": (None, lambda v: (v, 6)),
                          "max_degree": (None, lambda v: (9, v))},
    "survey_distinguishability": {
        "vertex_count": (None, lambda v: (v, CONN)),
        "max_degree": (None, lambda v: (9, CONN, "generalized", v)),
        "tol": ("tol", lambda v: (7, CONN, "starlike", None, v)),
    },
    "coalesce_spec": {"clique_size": (2, lambda v: (v, {1: 3}))},
    "StarlikeSpec": {"clique_size": (1, lambda v: (STAR.branches, v))},
    "GenStarlikeSpec": {"clique_size": (3, lambda v: (v, STAR))},
}
# names that take the arguments of one above: the same callable under the
# other family's name, or the other family's condition scan
ALIASES = {
    "starlike_invariant": "evaluate_invariant", "generalized_invariant": "evaluate_invariant",
    "starlike_profile": "invariant_profile", "generalized_profile": "invariant_profile",
    "generalized_census": "starlike_census",
    "check_generalized_conditions": "check_starlike_conditions",
}


def test_the_argument_table_covers_every_public_callable_that_takes_one():
    open_names = {name for table in ARGUMENTS.values() for name in table}
    takes = set()
    for name in pathseq.__all__:
        # the value types (Graph, Census and the reports) are built unchecked
        value = getattr(pathseq, name)
        if inspect.isfunction(value) or name in ("StarlikeSpec", "GenStarlikeSpec"):
            if open_names & set(inspect.signature(value).parameters):
                takes.add(name)
    assert takes == set(ARGUMENTS) | set(ALIASES)


_NOT_A_NUMBER = st.one_of(st.none(), st.text(max_size=3), st.complex_numbers(allow_nan=False),
                          st.decimals(allow_nan=False), st.just([1]), st.just(True))


def _wrong(least):
    """Values a parameter refuses: for an int, any float, bool or non-number
    and the ints below its least; for a tolerance, any value that is not a
    real number in [0, 1), and False."""
    if least == "tol":
        outside = st.floats().filter(lambda t: not 0 <= t < 1)
        # False == 0, yet a bool is no tolerance, as True is no size
        return st.one_of(outside, st.integers().filter(lambda t: t != 0), st.just(False),
                         _NOT_A_NUMBER)
    below = [] if least is None else [st.integers(max_value=least - 1)]
    return st.one_of(*below, st.floats(), st.fractions(), st.booleans(), _NOT_A_NUMBER)


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_a_wrong_size_order_degree_budget_or_tolerance_is_a_value_error(data):
    callable_name = data.draw(st.sampled_from(sorted(ARGUMENTS) + sorted(ALIASES)))
    table = ARGUMENTS[ALIASES.get(callable_name, callable_name)]
    least, args = table[data.draw(st.sampled_from(sorted(table)))]
    value = data.draw(_wrong(least))
    call = getattr(pathseq, callable_name)
    try:
        result = call(*args(value))
        if inspect.isgenerator(result):
            list(result)
    except (ValueError, PathseqError):
        return
    raise AssertionError(f"{callable_name}{args(value)!r} answered")


# --- CLI output and the public names --------------------------------------


def test_failed_replace_removes_the_temp_file(capsys, tmp_path, monkeypatch):
    spec = tmp_path / "spider.json"
    spec.write_text(json.dumps(SPIDER))
    out = tmp_path / "out"
    out.mkdir()

    def refuse(src, dst):
        raise PermissionError(13, "Permission denied")

    monkeypatch.setattr(os, "replace", refuse)
    target = out / "report.json"
    code, doc = run(
        capsys, "invariant", "--starlike", str(spec), "--index", "connectivity",
        "--order", "1", "--output", str(target),
    )
    assert code == 1
    assert doc["error"]["type"] == "IO"
    assert str(target) in doc["error"]["message"] and "Permission denied" in doc["error"]["message"]
    assert list(out.iterdir()) == []


def _names_read(relpath: str) -> set[str]:
    """Names a file imports from pathseq, or reads through `ps.`; a
    `ps.<module>.<name>` chain also gives "<module>.<name>"."""
    with open(os.path.join(ROOT, relpath), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "pathseq":
            names |= {alias.name for alias in node.names}
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "ps"
        ):
            names.add(node.attr)
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Attribute)
            and isinstance(node.value.value, ast.Name)
            and node.value.value.id == "ps"
        ):
            names.add(f"{node.value.attr}.{node.attr}")
    return names


def test_generalized_is_an_importable_name_for_starlike():
    assert importlib.import_module("pathseq.generalized") is pathseq.starlike


def test_star_import_exports_no_module_and_every_name_in_use():
    namespace: dict = {}
    exec("from pathseq import *", namespace)
    del namespace["__builtins__"]
    assert [k for k, v in namespace.items() if isinstance(v, types.ModuleType)] == []
    assert sorted(namespace) == pathseq.__all__
    assert len(set(pathseq.__all__)) == len(pathseq.__all__)
    for relpath in ("tests/test_acceptance.py", "tests/conftest.py", "bench/worker.py"):
        read = _names_read(relpath)
        chains = {name for name in read if "." in name}
        used = {
            name
            for name in read - chains
            if not name.startswith("_") and not isinstance(getattr(pathseq, name), types.ModuleType)
        }
        assert used and used <= set(namespace), (relpath, used - set(namespace))
        # a module path such as ps.generalized.generalized_profile resolves too
        for chain in chains:
            module, name = chain.split(".")
            assert hasattr(getattr(pathseq, module), name), (relpath, chain)


def test_every_public_callables_annotations_resolve():
    # validate_symmetry's rng read random.Random, a name invariants does not
    # import at load
    for name in pathseq.__all__:
        value = getattr(pathseq, name)
        if callable(value):
            typing.get_type_hints(value)
