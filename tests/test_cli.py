import argparse
import csv
import io
import json
import math
import os
import re
import subprocess
import sys

import pytest

import pathseq
from oracle import close
from pathseq import register_invariant
from pathseq.cli import _build_parser, _emit, main
from pathseq.reconstruct import _check_tol

SPIDER = {"branches": [{"length": 1, "count": 1}, {"length": 2, "count": 2}]}
GLUED = {"clique": 4, "branches": [{"length": 2, "count": 3}]}
STAR4 = "# star on four vertices\n4 3\n0 1\n0 2\n0 3\n"
BENCH_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


@pytest.fixture
def spider_file(tmp_path):
    path = tmp_path / "spider.json"
    path.write_text(json.dumps(SPIDER))
    return str(path)


@pytest.fixture
def glued_file(tmp_path):
    path = tmp_path / "glued.json"
    path.write_text(json.dumps(GLUED))
    return str(path)


@pytest.fixture
def star_file(tmp_path):
    path = tmp_path / "star.txt"
    path.write_text(STAR4)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_invariant_value(capsys, spider_file):
    code, out = run(
        capsys, "invariant", "--starlike", spider_file, "--index", "connectivity", "--order", "2"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["h"] == 2
    assert close(doc["value"], 1.9216682964502652)


def test_invariant_on_graph_order_one(capsys, star_file):
    code, out = run(
        capsys, "invariant", "--graph", star_file, "--index", "connectivity", "--order", "1"
    )
    assert code == 0
    # three edges of the star, each 1/sqrt(3)
    assert close(json.loads(out)["value"], 3 ** 0.5)


def test_profile_caps_at_longest_path(capsys, star_file):
    code, out = run(
        capsys, "profile", "--graph", star_file, "--index", "connectivity", "--max-order", "9"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["longest_path_length"] == 2
    assert doc["h_max"] == 2
    assert len(doc["values"]) == 3


def test_census_json_and_csv_agree(capsys, spider_file):
    code, json_out = run(capsys, "census", "--starlike", spider_file, "--order", "2")
    assert code == 0
    doc = json.loads(json_out)
    assert doc["total"] == 5
    assert {tuple(c["degrees"]): c["count"] for c in doc["classes"]} == {
        (1, 2, 3): 2,
        (1, 3, 2): 2,
        (2, 3, 2): 1,
    }

    code, csv_out = run(
        capsys, "census", "--starlike", spider_file, "--order", "2", "--format", "csv"
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(csv_out)))
    assert ["h", "2"] in rows and ["total", "5"] in rows
    class_rows = rows[rows.index(["degrees", "count"]) + 1 :]
    assert {r[0]: int(r[1]) for r in class_rows} == {"1 2 3": 2, "1 3 2": 2, "2 3 2": 1}


def test_profile_csv_numbers_round_trip(capsys, spider_file):
    code, json_out = run(capsys, "profile", "--starlike", spider_file, "--index", "connectivity")
    code2, csv_out = run(
        capsys, "profile", "--starlike", spider_file, "--index", "connectivity", "--format", "csv"
    )
    assert code == 0 and code2 == 0
    values = json.loads(json_out)["values"]
    rows = list(csv.reader(io.StringIO(csv_out)))
    tail = rows[rows.index(["h", "value"]) + 1 :]
    assert [float(r[1]) for r in tail] == values


def test_verify_reports_ok(capsys, glued_file):
    code, out = run(capsys, "verify", "--generalized", glued_file, "--index", "hyper-zagreb")
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "ok"
    assert doc["max_rel_diff"] <= 1e-9


def test_reconstruct_spec_round_trip(capsys, spider_file):
    code, out = run(capsys, "reconstruct", "--starlike", spider_file, "--index", "connectivity")
    assert code == 0
    doc = json.loads(out)
    assert doc["family"] == "starlike"
    assert doc["branches"] == SPIDER["branches"]


def test_reconstruct_autodetects_tree_edge_list(capsys, tmp_path):
    from pathseq import StarlikeSpec, realize_starlike

    g = realize_starlike(StarlikeSpec.from_counts({1: 2, 3: 1}))
    lines = [f"{g.vertex_count} {g.edge_count}"]
    lines += [f"{a} {b}" for a in range(g.vertex_count) for b in g.adjacency[a] if a < b]
    path = tmp_path / "tree.txt"
    path.write_text("\n".join(lines) + "\n")
    code, out = run(capsys, "reconstruct", "--graph", str(path), "--index", "connectivity")
    assert code == 0
    doc = json.loads(out)
    assert doc["branches"] == [{"length": 1, "count": 2}, {"length": 3, "count": 1}]


def test_reconstruct_autodetects_coalesced_edge_list(capsys, tmp_path):
    from pathseq import GenStarlikeSpec, StarlikeSpec, realize_generalized

    spec = GenStarlikeSpec(clique_size=4, star=StarlikeSpec.from_counts({1: 1, 2: 2}))
    g = realize_generalized(spec)
    lines = [f"{g.vertex_count} {g.edge_count}"]
    lines += [f"{a} {b}" for a in range(g.vertex_count) for b in g.adjacency[a] if a < b]
    path = tmp_path / "glued.txt"
    path.write_text("\n".join(lines) + "\n")
    code, out = run(capsys, "reconstruct", "--graph", str(path), "--index", "connectivity")
    assert code == 0
    doc = json.loads(out)
    assert doc["family"] == "generalized"
    assert doc["clique"] == 4


def test_distinguish_identical_specs(capsys, spider_file):
    code, out = run(
        capsys,
        "distinguish",
        "--starlike", spider_file,
        "--starlike", spider_file,
        "--index", "connectivity",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["separating_order"] is None
    assert doc["indistinguishable"] is True


def test_distinguish_different_specs(capsys, spider_file, tmp_path):
    other = tmp_path / "other.json"
    other.write_text(json.dumps({"branches": [{"length": 1, "count": 3}, {"length": 2, "count": 1}]}))
    code, out = run(
        capsys,
        "distinguish",
        "--starlike", spider_file,
        "--starlike", str(other),
        "--index", "connectivity",
    )
    assert code == 0
    assert json.loads(out)["separating_order"] == 0


def test_check_conditions_both_theorems(capsys):
    for theorem in ("7", "8"):
        code, out = run(
            capsys,
            "check-conditions",
            "--theorem", theorem,
            "--index", "connectivity",
            "--x-max", "16",
            "--t-max", "8",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["condition_a"] == "pass" and doc["condition_b"] == "pass"


def test_check_conditions_reports_failure_with_exit_zero(capsys):
    code, out = run(capsys, "check-conditions", "--theorem", "7", "--index", "path-count")
    assert code == 0
    doc = json.loads(out)
    assert doc["condition_a"] == "fail"
    assert {"condition": "a", "x": 3, "y": 4} in doc["counterexamples"]


def test_survey_starlike(capsys):
    code, out = run(capsys, "survey", "--family", "starlike", "--size", "9", "--index", "connectivity")
    assert code == 0
    doc = json.loads(out)
    assert doc["specs"] == 17
    assert doc["collisions"] == []


def test_survey_generalized_requires_max_degree(capsys):
    code = main(["survey", "--family", "generalized", "--size", "10", "--index", "connectivity"])
    assert code == 2


def test_unknown_index_maps_to_error_object(capsys, spider_file):
    code, out = run(capsys, "invariant", "--starlike", spider_file, "--index", "nope", "--order", "2")
    assert code == 1
    doc = json.loads(out)
    assert doc["error"]["type"] == "UnknownIndex"


@pytest.mark.parametrize("index", ["power:nan", "power:inf"])
@pytest.mark.parametrize("command", ["invariant", "check-conditions"])
def test_non_finite_power_is_an_unknown_index(capsys, spider_file, index, command):
    argv = {
        "invariant": ("--starlike", spider_file, "--order", "2"),
        "check-conditions": ("--theorem", "7"),
    }
    code, out = run(capsys, command, *argv[command], "--index", index)
    assert code == 1
    # strict JSON: NaN and Infinity are not JSON numbers
    doc = json.loads(out, parse_constant=lambda name: pytest.fail(f"{name} in output"))
    assert doc["error"]["type"] == "UnknownIndex"


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize(
    "argv",
    [
        ("invariant", "--starlike", "@spider", "--order", "2"),
        ("profile", "--starlike", "@spider"),
        ("check-conditions", "--theorem", "7"),
        ("check-conditions", "--theorem", "8"),
    ],
)
def test_non_finite_index_value_is_an_index_evaluation_error(capsys, spider_file, argv, value, fmt):
    register_invariant("non-finite", lambda d: value)
    argv = [spider_file if a == "@spider" else a for a in argv]
    code, out = run(capsys, *argv, "--index", "non-finite", "--format", fmt)
    assert code == 1

    def strict(name):
        pytest.fail(f"{name} in output")

    if fmt == "csv":
        ((key, cell),) = csv.reader(io.StringIO(out))
        assert key == "error"
        error = json.loads(cell, parse_constant=strict)
    else:
        error = json.loads(out, parse_constant=strict)["error"]
    assert error["type"] == "IndexEvaluation"


def test_missing_input_is_a_usage_error(capsys):
    code = main(["invariant", "--index", "connectivity", "--order", "2"])
    assert code == 2


def test_two_inputs_for_single_input_command(capsys, spider_file, glued_file):
    code = main([
        "invariant",
        "--starlike", spider_file,
        "--generalized", glued_file,
        "--index", "connectivity",
        "--order", "2",
    ])
    assert code == 2


def test_missing_file_maps_to_io_error(capsys, tmp_path):
    code, out = run(
        capsys,
        "invariant",
        "--starlike", str(tmp_path / "absent.json"),
        "--index", "connectivity",
        "--order", "2",
    )
    assert code == 1
    assert json.loads(out)["error"]["type"] == "IO"


def test_malformed_spec_maps_to_format_error(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"branches": "nope"}')
    code, out = run(capsys, "census", "--starlike", str(bad), "--order", "2")
    assert code == 1
    assert json.loads(out)["error"]["type"] == "Format"


def test_output_file_is_written_atomically(capsys, spider_file, tmp_path):
    target = tmp_path / "report.json"
    code, out = run(
        capsys,
        "invariant",
        "--starlike", spider_file,
        "--index", "connectivity",
        "--order", "2",
        "--output", str(target),
    )
    assert code == 0
    assert out == ""
    doc = json.loads(target.read_text())
    assert close(doc["value"], 1.9216682964502652)
    leftovers = [p for p in tmp_path.iterdir() if p.name.startswith(".pathseq-")]
    assert leftovers == []


@pytest.mark.parametrize("index", ["connectivity", "nope"])
def test_unwritable_output_is_an_io_error(capsys, spider_file, tmp_path, index):
    # a report, or a domain error object, that cannot be written to --output
    target = tmp_path / "missing" / "x.json"
    code, out = run(
        capsys,
        "invariant",
        "--starlike", spider_file,
        "--index", index,
        "--order", "2",
        "--output", str(target),
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["error"]["type"] == "IO" and str(target) in doc["error"]["message"]
    assert list(tmp_path.rglob(".pathseq-*")) == []


@pytest.mark.parametrize(
    "doc",
    [
        {"branches": [{"length": True, "count": 3}]},
        {"branches": [{"length": 1, "count": True}, {"length": 2, "count": 3}]},
        {"clique": True, "branches": [{"length": 1, "count": 3}]},
    ],
    ids=["length", "count", "clique"],
)
def test_boolean_in_spec_is_a_format_error(capsys, tmp_path, doc):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    flag = "--generalized" if "clique" in doc else "--starlike"
    code, out = run(capsys, "invariant", flag, str(path), "--index", "connectivity", "--order", "1")
    assert code == 1
    assert json.loads(out)["error"]["type"] == "Format"


def test_spec_file_that_is_not_json_is_a_format_error(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"branches": [')
    code, out = run(capsys, "census", "--starlike", str(bad), "--order", "2")
    assert code == 1
    assert json.loads(out)["error"]["type"] == "Format"


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--graph", "@star", "--index", "connectivity"),
        ("distinguish", "--starlike", "@spider", "--index", "connectivity"),
        ("distinguish", "--starlike", "@spider", "--graph", "@star", "--index", "connectivity"),
    ],
)
def test_inputs_a_command_cannot_take_are_usage_errors(capsys, spider_file, star_file, argv):
    files = {"@spider": spider_file, "@star": star_file}
    assert main([files.get(a, a) for a in argv]) == 2
    assert capsys.readouterr().out == ""


def test_orders_past_the_vertex_count_walk_no_further(capsys, walk_below_n, spider_file, star_file):
    order = str(10**5)
    code, out = run(
        capsys, "invariant", "--graph", star_file, "--index", "connectivity", "--order", order
    )
    assert code == 0 and json.loads(out)["value"] == 0.0
    code, out = run(capsys, "census", "--graph", star_file, "--order", order)
    assert code == 0 and json.loads(out) == {"h": 10**5, "total": 0, "classes": []}
    code, out = run(
        capsys, "verify", "--starlike", spider_file, "--index", "connectivity", "--max-order", order
    )
    doc = json.loads(out)
    assert code == 0 and doc["h_max"] == 10**5 and doc["status"] == "ok"
    assert doc["max_abs_diff"] == 0.0 and doc["max_rel_diff"] == 0.0


def test_console_script_is_installed():
    proc = subprocess.run(["pathseq", "--help"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "invariant" in proc.stdout


@pytest.mark.parametrize(
    "argv",
    [
        ("census", "--starlike", "@spider", "--order", "-1"),
        ("census", "--graph", "@star", "--order", "-1"),
        ("invariant", "--starlike", "@spider", "--index", "connectivity", "--order", "-1"),
        ("invariant", "--graph", "@star", "--index", "connectivity", "--order", "-1"),
        ("profile", "--starlike", "@spider", "--index", "connectivity", "--max-order", "-1"),
        ("verify", "--starlike", "@spider", "--index", "connectivity", "--max-order", "-1"),
        ("survey", "--size", "8", "--index", "connectivity", "--tol", "1"),
        ("survey", "--size", "8", "--index", "connectivity", "--tol", "-0.5"),
        ("reconstruct", "--starlike", "@spider", "--index", "connectivity", "--tol", "2"),
        ("verify", "--starlike", "@spider", "--index", "connectivity", "--tol", "nan"),
        ("invariant", "--graph", "@star", "--index", "connectivity", "--order", "1", "--budget", "0"),
        ("check-conditions", "--theorem", "7", "--index", "connectivity", "--x-max", "3"),
        ("check-conditions", "--theorem", "7", "--index", "connectivity", "--x-max", "-5"),
        ("check-conditions", "--theorem", "8", "--index", "connectivity", "--t-max", "-1"),
        ("survey", "--size", "-3", "--index", "connectivity"),
        ("survey", "--family", "generalized", "--size", "10", "--max-degree", "0",
         "--index", "connectivity"),
        ("census", "--starlike", "@spider", "--order", "2", "--index", "connectivity"),
        ("survey", "--size", "8", "--index", "connectivity", "--budget", "1"),
    ],
)
def test_bad_numeric_flags_are_usage_errors(capsys, spider_file, star_file, argv):
    files = {"@spider": spider_file, "@star": star_file}
    with pytest.raises(SystemExit) as exc:
        main([files.get(a, a) for a in argv])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("text", ["1.5", "-0.1", "nan", "1", "abc"])
def test_tol_out_of_range_prints_the_library_message(capsys, text):
    if text == "abc":
        message = "invalid float value: 'abc'"
    else:
        with pytest.raises(ValueError) as lib:
            _check_tol(float(text))
        message = str(lib.value)
        assert message.startswith("tolerance must be >= 0 and < 1, got ")
    with pytest.raises(SystemExit) as exc:
        main(["survey", "--size", "8", "--index", "connectivity", "--tol", text])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert f"argument --tol: {message}\n" in captured.err
    assert "_tol" not in captured.err


def test_census_of_an_edge_clique_over_two_branches(capsys, tmp_path):
    edge = tmp_path / "edge.json"
    edge.write_text(json.dumps({"clique": 2, "branches": [{"length": 3, "count": 2}]}))
    star = tmp_path / "star.json"
    star.write_text(json.dumps({"branches": [{"length": 1, "count": 1}, {"length": 3, "count": 2}]}))
    for order in range(8):
        code, out = run(capsys, "census", "--generalized", str(edge), "--order", str(order))
        assert code == 0
        assert (code, out) == run(capsys, "census", "--starlike", str(star), "--order", str(order))


def test_index_overflow_maps_to_error_object(capsys, spider_file):
    code, out = run(
        capsys, "invariant", "--starlike", spider_file, "--index", "power:2000", "--order", "0"
    )
    assert code == 1
    assert json.loads(out)["error"]["type"] == "IndexEvaluation"


@pytest.mark.parametrize(
    "argv",
    [
        ("check-conditions", "--theorem", "7", "--index", "power:2000", "--x-max", "8", "--t-max", "2"),
        # the profile is finite (max 1.19e287); the ladder's slope at order 10 overflows
        ("reconstruct", "--starlike", "@deep", "--index", "power:90"),
    ],
)
def test_index_overflow_outside_census_maps_to_error_object(capsys, tmp_path, argv):
    deep = tmp_path / "deep.json"
    deep.write_text(json.dumps({"branches": [{"length": 1, "count": 2}, {"length": 10, "count": 1}]}))
    code, out = run(capsys, *[str(deep) if a == "@deep" else a for a in argv])
    assert code == 1
    assert json.loads(out)["error"]["type"] == "IndexEvaluation"


def test_survey_starlike_rejects_max_degree(capsys):
    code = main(["survey", "--size", "9", "--max-degree", "5", "--index", "connectivity"])
    assert code == 2
    assert capsys.readouterr().out == ""


def test_order_past_longest_path_prints_zero_without_terms(capsys, monkeypatch, spider_file):
    from pathseq import starlike

    def no_terms(h, *point):
        raise AssertionError(f"terms built at order {h}")

    monkeypatch.setattr(starlike, "_terms", no_terms)
    order = str(10**9)
    code, out = run(
        capsys, "invariant", "--starlike", spider_file, "--index", "connectivity", "--order", order
    )
    assert code == 0 and json.loads(out)["value"] == 0.0
    code, out = run(capsys, "census", "--starlike", spider_file, "--order", order)
    assert code == 0 and json.loads(out)["classes"] == []


class ReadRecorder(argparse.Namespace):
    """A namespace that records the name of every attribute read from it."""

    def __init__(self):
        super().__init__()
        object.__setattr__(self, "_reads", set())

    def __getattribute__(self, name):
        if not name.startswith("_"):
            object.__getattribute__(self, "_reads").add(name)
        return object.__getattribute__(self, name)


# one argv per command, with graph and spec inputs where the command takes both
FLAG_READ_ARGVS = [
    ("invariant", "--graph", "@star", "--index", "connectivity", "--order", "1"),
    ("invariant", "--starlike", "@spider", "--index", "connectivity", "--order", "2"),
    ("profile", "--graph", "@star", "--index", "connectivity"),
    ("profile", "--generalized", "@glued", "--index", "connectivity"),
    ("census", "--graph", "@star", "--order", "1"),
    ("census", "--starlike", "@spider", "--order", "2"),
    ("verify", "--starlike", "@spider", "--index", "connectivity"),
    ("reconstruct", "--graph", "@star", "--index", "connectivity"),
    ("reconstruct", "--starlike", "@spider", "--index", "connectivity"),
    ("distinguish", "--starlike", "@spider", "--starlike", "@spider", "--index", "connectivity"),
    ("check-conditions", "--theorem", "7", "--index", "connectivity", "--x-max", "8", "--t-max", "2"),
    ("survey", "--size", "8", "--index", "connectivity"),
]


def test_every_parsed_flag_is_read(capsys, spider_file, glued_file, star_file):
    files = {"@spider": spider_file, "@glued": glued_file, "@star": star_file}
    parser = _build_parser()
    parsed, read = {}, {}
    for argv in FLAG_READ_ARGVS:
        args = parser.parse_args([files.get(a, a) for a in argv], namespace=ReadRecorder())
        args._reads.clear()
        _emit(args.handler(args), args)
        command = argv[0]
        parsed[command] = {k for k in vars(args) if not k.startswith("_")} - {"command", "handler"}
        read.setdefault(command, set()).update(args._reads)
    capsys.readouterr()
    assert set(parsed) == {"invariant", "profile", "census", "verify", "reconstruct",
                           "distinguish", "check-conditions", "survey"}
    unread = sorted((c, flag) for c in parsed for flag in parsed[c] - read[c])
    assert unread == []


def test_flag_table_has_at_most_61_slots():
    parser = _build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    slots = {
        name: [a.dest for a in p._actions if a.dest != "help"]
        for name, p in commands.choices.items()
    }
    assert sum(map(len, slots.values())) <= 61
    for flags in slots.values():
        assert "format" in flags and "output" in flags


# each command's flags, as README's command table lists them
COMMAND_FLAGS = {
    "invariant": ("graph", "starlike", "generalized", "index", "budget", "order"),
    "profile": ("graph", "starlike", "generalized", "index", "budget", "max-order"),
    "census": ("graph", "starlike", "generalized", "budget", "order"),
    "verify": ("graph", "starlike", "generalized", "index", "tol", "budget", "max-order"),
    "reconstruct": ("graph", "starlike", "generalized", "index", "tol", "budget"),
    "distinguish": ("graph", "starlike", "generalized", "index", "tol"),
    "check-conditions": ("theorem", "index", "tol", "x-max", "t-max"),
    "survey": ("family", "size", "max-degree", "index", "tol"),
}


def _subparsers(parser):
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


@pytest.mark.parametrize("command", sorted(COMMAND_FLAGS))
def test_command_help_lists_its_flags(capsys, command):
    with pytest.raises(SystemExit) as done:
        main([command, "--help"])
    out = capsys.readouterr().out
    assert done.value.code == 0
    listed = re.findall(r"^  (--[a-z-]+)", out, re.MULTILINE)
    assert listed == [f"--{flag}" for flag in (*COMMAND_FLAGS[command], "format", "output")]
    # byte for byte the help of the parser that has every command's flags
    assert out == _subparsers(_build_parser())[command].format_help()


def test_parser_adds_the_flags_of_the_named_command_only():
    commands = _subparsers(_build_parser(["census", "--graph", "g.txt", "--order", "1"]))
    assert set(commands) == set(COMMAND_FLAGS)
    flagged = {name for name, p in commands.items() if len(p._actions) > 1}
    assert flagged == {"census"}


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["--help"],
        ["nope"],
        ["--bogus", "survey", "--size", "8", "--index", "connectivity"],
        ["survey", "--size", "0", "--index", "connectivity"],
        ["survey", "--size", "8"],
        ["census", "--order", "1", "--index", "connectivity"],
        ["check-conditions", "--theorem", "9", "--index", "connectivity"],
        ["distinguish", "--tol", "1.5", "--index", "connectivity"],
    ],
)
def test_usage_errors_match_the_parser_with_every_flag(capsys, argv):
    with pytest.raises(SystemExit) as lazy:
        main(argv)
    lazy_out = capsys.readouterr()
    with pytest.raises(SystemExit) as full:
        _build_parser().parse_args(argv)
    assert (lazy.value.code, lazy_out) == (full.value.code, capsys.readouterr())


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_benchmark_cli_argv_parses(seed):
    # every job of the benchmark's cli_commands workload expects exit 0 or 1,
    # so its argv must get past the parser
    if BENCH_DIR not in sys.path:
        sys.path.insert(0, BENCH_DIR)
    import gen

    jobs = gen.generate("cli_commands", seed).jobs
    assert len(jobs) == 20
    parser = _build_parser()
    for job in jobs:
        assert job["expect_code"] in (0, 1)
        parser.parse_args(job["argv"])


def _loaded_modules(*argv: str) -> set[str]:
    """Modules a fresh CLI process holds after main(argv), or after its import
    alone when argv is empty. -S keeps site's .pth files from preloading
    modules and hiding what pathseq imports."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(pathseq.__file__)))
    code = "import sys, pathseq.cli\n"
    if argv:
        code += "assert pathseq.cli.main(sys.argv[1:]) == 0\n"
    code += "print(*sys.modules, file=sys.stderr)"
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code, *argv], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stderr.split())


# fractions pulls in decimal; dataclasses pulls in inspect; only a
# registration draws from random
_NEVER_LOADED = {"fractions", "decimal", "dataclasses", "inspect", "random"}


def test_cli_import_loads_no_command_module():
    loaded = _loaded_modules()
    assert "pathseq.cli" in loaded
    assert loaded & {*_NEVER_LOADED, "pathseq.starlike", "pathseq.reconstruct"} == set()


def test_census_of_a_graph_loads_no_spec_module(star_file):
    loaded = _loaded_modules("census", "--graph", star_file, "--order", "1")
    assert "pathseq.graph" in loaded
    assert loaded & {*_NEVER_LOADED, "pathseq.starlike", "pathseq.reconstruct"} == set()


def test_invariant_of_a_spec_loads_no_reconstruction(spider_file):
    argv = ("invariant", "--starlike", spider_file, "--index", "connectivity", "--order", "2")
    loaded = _loaded_modules(*argv)
    assert "pathseq.starlike" in loaded
    assert loaded & {*_NEVER_LOADED, "pathseq.reconstruct"} == set()
