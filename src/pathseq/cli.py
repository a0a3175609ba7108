"""Command-line interface.

Commands: invariant, profile, census, verify, reconstruct, distinguish,
check-conditions, survey. Inputs are edge-list files (--graph) or JSON spec
files (--starlike, --generalized). Output is JSON by default, CSV with
--format csv; both carry identical numeric values. Exit codes: 0 success,
1 domain error (with a machine-readable error object), 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

from .errors import IndexEvaluationError, PathseqError
from .graph import DEFAULT_BUDGET, load_edge_list
from .invariants import (
    DEFAULT_TOL,
    _check_tol,
    _first_difference,
    evaluate_invariant,
    invariant_profile,
    resolve_index,
)

# Handlers import starlike (closed forms) and reconstruct (the ladder) where
# they need them, so that a process compiles only the modules its command runs.


class UsageError(Exception):
    pass


def _load_inputs(args) -> list:
    """Graphs and specs in flag order; each has longest_path, census and censuses."""
    items = [load_edge_list(path) for path in args.graph or []]
    if args.starlike or args.generalized:
        from . import starlike

        # a --generalized clique of 2 normalizes to a plain starlike spec
        items += map(starlike.load_starlike_spec, args.starlike or [])
        items += map(starlike.load_generalized_spec, args.generalized or [])
    return items


def _single_input(args):
    items = _load_inputs(args)
    if len(items) != 1:
        raise UsageError("exactly one of --graph/--starlike/--generalized is required")
    return items[0]


def _cmd_invariant(args) -> dict:
    obj = _single_input(args)
    f = resolve_index(args.index)
    return {"h": args.order, "value": evaluate_invariant(obj, args.order, f, args.budget)}


def _cmd_profile(args) -> dict:
    obj = _single_input(args)
    f = resolve_index(args.index)
    rho = obj.longest_path(args.budget)
    h_max = rho if args.max_order is None else min(args.max_order, rho)
    return {
        "index": f.name,
        "longest_path_length": rho,
        "h_max": h_max,
        "values": invariant_profile(obj, f, h_max, args.budget),
    }


def _cmd_census(args) -> dict:
    census = _single_input(args).census(args.order, args.budget)
    classes = [
        {"degrees": list(seq), "count": count}
        for seq, count in sorted(census.entries.items())
    ]
    return {"h": args.order, "total": census.total, "classes": classes}


def _cmd_verify(args) -> dict:
    from .starlike import realize_starlike

    obj = _single_input(args)
    if args.graph:
        raise UsageError("verify compares a spec's closed form; pass --starlike or --generalized")
    f = resolve_index(args.index)
    rho = obj.longest_path_length
    h_max = rho if args.max_order is None else args.max_order
    # past rho both profiles are 0.0 by construction
    brute = invariant_profile(realize_starlike(obj), f, min(h_max, rho), args.budget)
    closed = invariant_profile(obj, f, min(h_max, rho))
    abs_diffs = [abs(a - b) for a, b in zip(brute, closed)]
    rel_diffs = [d / max(1.0, abs(a), abs(b)) for d, a, b in zip(abs_diffs, brute, closed)]
    return {
        "index": f.name,
        "h_max": h_max,
        "longest_path_length": rho,
        "max_abs_diff": max(abs_diffs),
        "max_rel_diff": max(rel_diffs),
        "status": "ok" if _first_difference(brute, closed, args.tol) is None else "mismatch",
    }


def _cmd_reconstruct(args) -> dict:
    from .reconstruct import _reconstruct

    obj = _single_input(args)
    f = resolve_index(args.index)
    profile = invariant_profile(obj, f, obj.longest_path(args.budget), args.budget)
    # the censuses pick the family slice: n vertices, and hub degree r unless a tree
    vertices, edges = obj.census(0, args.budget), obj.census(1, args.budget)
    n, (r,) = vertices.total, max(vertices.entries)
    result = _reconstruct(n, None if edges.total == n - 1 else r, profile, f, args.tol)
    return {"index": f.name, **result.to_dict()}


def _cmd_distinguish(args) -> dict:
    from .reconstruct import distinguish

    items = _load_inputs(args)
    if len(items) != 2:
        raise UsageError("distinguish needs exactly two spec inputs")
    if args.graph:
        raise UsageError("distinguish compares specs; pass --starlike or --generalized twice")
    a, b = items
    f = resolve_index(args.index)
    order = distinguish(a, b, f, args.tol)
    h_max = max(a.longest_path_length, b.longest_path_length)
    return {
        "index": f.name,
        "n": a.vertex_count,
        "separating_order": order,
        "indistinguishable": order is None,
        "orders_compared": h_max + 1,
    }


def _cmd_check_conditions(args) -> dict:
    from .reconstruct import check_generalized_conditions, check_starlike_conditions

    f = resolve_index(args.index)
    if args.theorem == 7:
        report = check_starlike_conditions(f, args.x_max, args.t_max, args.tol)
    else:
        report = check_generalized_conditions(f, args.x_max, args.t_max, args.tol)
    return {"index": f.name, "theorem": args.theorem, **report.to_dict()}


def _cmd_survey(args) -> dict:
    from .reconstruct import survey_distinguishability

    f = resolve_index(args.index)
    if (args.family == "generalized") != (args.max_degree is not None):
        raise UsageError("--max-degree goes with --family generalized, and only with it")
    report = survey_distinguishability(
        args.size, f, family=args.family, max_degree=args.max_degree, tol=args.tol
    )
    return report.to_dict()


def _cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (int, str)) or value is None:
        return str(value)
    return json.dumps(value, separators=(",", ":"))


def _to_csv(doc: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    table = []
    if "classes" in doc:
        table = [["degrees", "count"]] + [
            [" ".join(map(str, cls["degrees"])), _cell(cls["count"])] for cls in doc["classes"]
        ]
    elif "values" in doc:
        table = [["h", "value"]] + [[h, _cell(v)] for h, v in enumerate(doc["values"])]
    for key, value in doc.items():
        if key not in ("classes", "values"):
            writer.writerow([key, _cell(value)])
    writer.writerows(table)
    return buf.getvalue()


def _emit(doc: dict, args) -> None:
    if args.format == "csv":
        text = _to_csv(doc)
    else:
        text = json.dumps(doc, indent=2) + "\n"
    if args.output:
        import tempfile  # with shutil, bz2 and lzma: only --output needs it

        directory = os.path.dirname(os.path.abspath(args.output))
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".pathseq-")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(text)
            os.replace(tmp, args.output)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    else:
        sys.stdout.write(text)


def _at_least(low: int):
    """Parse-time type for an integer flag that must be >= low."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be an integer >= {low}, got {text}")
        return value

    parse.__name__ = "int"
    return parse


def _tol(text: str) -> float:
    """Parse-time type for --tol, with the library's range and message."""
    value = float(text)
    try:
        _check_tol(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return value


_tol.__name__ = "float"


# Every flag once, with its parse-time type and range.
_FLAGS = {
    "graph": {"action": "append", "help": "edge-list file"},
    "starlike": {"action": "append", "help": "starlike spec JSON file"},
    "generalized": {"action": "append", "help": "coalesced spec JSON file"},
    "index": {"required": True, "help": "index function, e.g. connectivity or power:0.5"},
    "tol": {"type": _tol, "default": DEFAULT_TOL},
    "budget": {"type": _at_least(1), "default": DEFAULT_BUDGET},
    "order": {"type": _at_least(0), "required": True},
    "max-order": {"type": _at_least(0), "default": None},
    "theorem": {"type": int, "choices": (7, 8), "required": True},
    # condition (a) scans degrees x < y <= x_max from 3, or 2 for theorem 8: 4 gives both a pair
    "x-max": {"type": _at_least(4), "default": 64},
    "t-max": {"type": _at_least(0), "default": 32},
    "family": {"choices": ("starlike", "generalized"), "default": "starlike"},
    "size": {"type": _at_least(1), "required": True, "help": "vertex count n"},
    "max-degree": {"type": _at_least(1), "default": None, "help": "hub degree r (generalized)"},
    "format": {"choices": ("json", "csv"), "default": "json"},
    "output": {"default": None, "help": "write the report atomically to this file"},
}

_INPUTS = ("graph", "starlike", "generalized")

# Each command takes the flags its handler reads, plus --format and --output.
_COMMANDS = (
    ("invariant", "one invariant value", _cmd_invariant,
     (*_INPUTS, "index", "budget", "order")),
    ("profile", "invariant values for all orders", _cmd_profile,
     (*_INPUTS, "index", "budget", "max-order")),
    ("census", "degree-sequence census at one order", _cmd_census,
     (*_INPUTS, "budget", "order")),
    ("verify", "closed form against enumeration", _cmd_verify,
     (*_INPUTS, "index", "tol", "budget", "max-order")),
    ("reconstruct", "rebuild a spec from its profile", _cmd_reconstruct,
     (*_INPUTS, "index", "tol", "budget")),
    ("distinguish", "first order separating two specs", _cmd_distinguish,
     (*_INPUTS, "index", "tol")),
    ("check-conditions", "scan index qualification inequalities", _cmd_check_conditions,
     ("theorem", "index", "tol", "x-max", "t-max")),
    ("survey", "all-pairs distinguishability in a family", _cmd_survey,
     ("family", "size", "max-degree", "index", "tol")),
)


def _build_parser(argv: list[str] | None = None) -> argparse.ArgumentParser:
    """The parser of every command. Given argv, only the commands named in it
    get their flags, or all when it names none: parsing argv, help and usage
    errors included, reads no other command's flags."""
    parser = argparse.ArgumentParser(
        prog="pathseq",
        description="Path degree-sequence censuses, closed-form invariants and reconstruction",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    named = set(argv or ()) & {name for name, *_ in _COMMANDS} or None
    for name, help_text, handler, flags in _COMMANDS:
        p = sub.add_parser(name, help=help_text)
        if named is None or name in named:
            for flag in (*flags, "format", "output"):
                p.add_argument(f"--{flag}", **_FLAGS[flag])
        p.set_defaults(handler=handler)
    return parser


def _error(kind: str, message: str) -> dict:
    return {"error": {"type": kind, "message": message}}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _build_parser(argv).parse_args(argv)
    try:
        doc, code = args.handler(args), 0
        # JSON has no NaN or Infinity, and CSV carries the same numbers. Such
        # a number comes from the index's values: an IndexEvaluation error.
        try:
            json.dumps(doc, allow_nan=False)
        except ValueError:
            raise IndexEvaluationError(
                f"the {args.command} report holds a NaN or infinite number;"
                " JSON and CSV carry finite numbers only"
            ) from None
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        doc, code = _error("IO", str(exc)), 1
    except PathseqError as exc:
        doc, code = _error(type(exc).__name__.removesuffix("Error"), str(exc)), 1
    try:
        _emit(doc, args)
    except OSError as exc:
        # --output cannot be written: report that on stdout instead
        message = f"cannot write {args.output}: {exc.strerror or exc}"
        args.output = None
        _emit(_error("IO", message), args)
        return 1
    return code


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
