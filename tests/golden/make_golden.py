"""Golden CLI outputs: fixed inputs, fixed commands, exact bytes.

    PYTHONPATH=src python tests/golden/make_golden.py

runs every case through pathseq.cli.main in-process and writes its output to
tests/golden/expected/<case>.txt. tests/test_golden.py runs the same cases
and compares bytes, so any change in what the CLI prints shows up as a diff
of these files.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile

from pathseq.cli import main

EXPECTED = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected")


def _spec(branches: dict, clique: int | None = None) -> str:
    doc = {"branches": [{"length": l, "count": c} for l, c in branches.items()]}
    if clique is not None:
        doc = {"clique": clique, **doc}
    return json.dumps(doc)


INPUTS = {
    "spider.json": _spec({1: 1, 2: 2}),
    "k3.json": _spec({1: 3, 2: 1}, clique=3),
    "k5.json": _spec({1: 1, 2: 1, 3: 2}, clique=5),
    "bad.json": '{"branches": "nope"}',
    # the starlike tree {1: 2, 2: 1, 3: 1}
    "tree.txt": "# root 0\n8 7\n0 1\n0 2\n0 3\n3 4\n0 5\n5 6\n6 7\n",
    "cycle.txt": "# a 5-cycle with a pendant vertex\n6 6\n0 1\n1 2\n2 3\n3 4\n4 0\n0 5\n",
}

SPIDER = ("--starlike", "@spider.json")
K3 = ("--generalized", "@k3.json")
K5 = ("--generalized", "@k5.json")
TREE = ("--graph", "@tree.txt")
CYCLE = ("--graph", "@cycle.txt")
CSV = ("--format", "csv")

# (case name, argv with @file placeholders, expected exit code)
CASES = [
    ("invariant-spider-h2", ("invariant", *SPIDER, "--index", "connectivity", "--order", "2"), 0),
    ("invariant-k3-h0", ("invariant", *K3, "--index", "connectivity", "--order", "0"), 0),
    ("invariant-k3-h1", ("invariant", *K3, "--index", "connectivity", "--order", "1"), 0),
    ("invariant-k3-h1-hyper-zagreb", ("invariant", *K3, "--index", "hyper-zagreb", "--order", "1"), 0),
    ("invariant-k5-h3", ("invariant", *K5, "--index", "sum-connectivity", "--order", "3"), 0),
    ("invariant-tree-h2", ("invariant", *TREE, "--index", "sum-connectivity", "--order", "2"), 0),
    ("invariant-cycle-h3", ("invariant", *CYCLE, "--index", "connectivity", "--order", "3"), 0),
    ("profile-spider", ("profile", *SPIDER, "--index", "connectivity"), 0),
    ("profile-k3", ("profile", *K3, "--index", "connectivity"), 0),
    ("profile-k3-csv", ("profile", *K3, "--index", "sum-connectivity", *CSV), 0),
    ("profile-k5", ("profile", *K5, "--index", "power:0.5"), 0),
    ("profile-k5-csv", ("profile", *K5, "--index", "connectivity", "--max-order", "4", *CSV), 0),
    ("profile-tree-csv", ("profile", *TREE, "--index", "connectivity", *CSV), 0),
    ("profile-cycle", ("profile", *CYCLE, "--index", "hyper-zagreb"), 0),
    ("census-spider-h0", ("census", *SPIDER, "--order", "0"), 0),
    ("census-spider-h1-csv", ("census", *SPIDER, "--order", "1", *CSV), 0),
    ("census-spider-h2", ("census", *SPIDER, "--order", "2"), 0),
    ("census-k3-h0-csv", ("census", *K3, "--order", "0", *CSV), 0),
    ("census-k3-h1", ("census", *K3, "--order", "1"), 0),
    ("census-k3-h3-csv", ("census", *K3, "--order", "3", *CSV), 0),
    ("census-k5-h1", ("census", *K5, "--order", "1"), 0),
    ("census-k5-h4-csv", ("census", *K5, "--order", "4", *CSV), 0),
    ("census-tree-h2", ("census", *TREE, "--order", "2"), 0),
    ("census-cycle-h4-csv", ("census", *CYCLE, "--order", "4", *CSV), 0),
    ("verify-spider", ("verify", *SPIDER, "--index", "connectivity"), 0),
    ("verify-k3", ("verify", *K3, "--index", "connectivity"), 0),
    ("verify-k5", ("verify", *K5, "--index", "hyper-zagreb"), 0),
    ("reconstruct-spider", ("reconstruct", *SPIDER, "--index", "connectivity"), 0),
    ("reconstruct-k3", ("reconstruct", *K3, "--index", "connectivity"), 0),
    ("reconstruct-k5", ("reconstruct", *K5, "--index", "sum-connectivity"), 0),
    ("reconstruct-tree", ("reconstruct", *TREE, "--index", "connectivity"), 0),
    ("distinguish-spider", ("distinguish", *SPIDER, *SPIDER, "--index", "connectivity"), 0),
    ("distinguish-k3", ("distinguish", *K3, *K3, "--index", "sum-connectivity"), 0),
    ("check-conditions-7", ("check-conditions", "--theorem", "7", "--index", "connectivity",
                            "--x-max", "24", "--t-max", "8"), 0),
    ("check-conditions-7-path-count", ("check-conditions", "--theorem", "7", "--index", "path-count"), 0),
    ("check-conditions-8", ("check-conditions", "--theorem", "8", "--index", "hyper-zagreb"), 0),
    ("survey-starlike", ("survey", "--family", "starlike", "--size", "10", "--index", "connectivity"), 0),
    ("survey-starlike-22", ("survey", "--family", "starlike", "--size", "22", "--index", "connectivity"), 0),
    ("survey-generalized", ("survey", "--family", "generalized", "--size", "10", "--max-degree", "6",
                            "--index", "connectivity"), 0),
    ("output-profile-k5", ("profile", *K5, "--index", "connectivity", "--output", "@report.json"), 0),
    ("error-unknown-index", ("invariant", *SPIDER, "--index", "nope", "--order", "2"), 1),
    ("error-malformed-spec", ("census", "--starlike", "@bad.json", "--order", "2"), 1),
    ("error-no-candidate-root", ("reconstruct", *CYCLE, "--index", "connectivity"), 1),
]


def write_inputs(directory: str) -> None:
    for name, text in INPUTS.items():
        with open(os.path.join(directory, name), "w", encoding="utf-8") as fh:
            fh.write(text)


def run_case(argv, directory: str) -> tuple[int, str]:
    """(exit code, output) of one case; with --output, the output is the file's text."""
    args = [os.path.join(directory, a[1:]) if a.startswith("@") else a for a in argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(args)
    if "--output" in args:
        if out.getvalue():
            raise AssertionError("--output run also wrote to stdout")
        with open(args[args.index("--output") + 1], encoding="utf-8") as fh:
            return code, fh.read()
    return code, out.getvalue()


def expected_path(name: str) -> str:
    return os.path.join(EXPECTED, f"{name}.txt")


def regenerate() -> None:
    os.makedirs(EXPECTED, exist_ok=True)
    with tempfile.TemporaryDirectory() as directory:
        write_inputs(directory)
        for name, argv, want_code in CASES:
            code, text = run_case(argv, directory)
            if code != want_code:
                sys.exit(f"{name}: exit code {code}, expected {want_code}")
            with open(expected_path(name), "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
    print(f"wrote {len(CASES)} files to {EXPECTED}")


if __name__ == "__main__":
    regenerate()
