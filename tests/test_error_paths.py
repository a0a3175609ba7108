"""Error paths: bad input files, out-of-domain arguments and failed writes
end in a PathseqError, a documented ValueError or a CLI error object, never
in a traceback or a per-vertex allocation."""

import ast
import importlib
import json
import os
import sys
import tracemalloc
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pathseq
from pathseq import (
    DisconnectedError,
    DuplicateEdgeError,
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
    enumerate_paths,
    generalized_specs,
    load_edge_list,
    load_generalized_spec,
    load_starlike_spec,
    mu_coefficient,
    mu_row,
    parse_edge_list,
    parse_generalized_spec,
    parse_starlike_spec,
    reconstruct_starlike,
    starlike_specs,
    survey_distinguishability,
)
from pathseq.cli import main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONN = builtin("connectivity")
SPIDER = {"branches": [{"length": 1, "count": 1}, {"length": 2, "count": 2}]}
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
    with pytest.raises(ValueError, match="vertex_count must be positive"):
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
    with pytest.raises(ValueError, match="h >= 1"):
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
    ],
    ids=["survey-float-n", "starlike-specs", "generalized-specs", "reconstruct",
         "survey-bool-n", "survey-bool-r"],
)
def test_a_slice_that_is_not_an_int_is_a_value_error(call):
    with pytest.raises(ValueError, match=r"^need an int vertex count and hub degree; got "):
        call()


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
