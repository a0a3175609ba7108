"""Run one workload's jobs against pathseq in a fresh interpreter.

Started by run.py; pathseq is imported from src/ next to this directory.
Two modes:

  worker.py --inputs DIR --setup-only        import, load inputs, exit
  worker.py --inputs DIR --seconds S --trace T

The second runs the job list as a closed loop (one caller, one job at a time)
until S seconds have passed, checks every answer outside the timed region,
and prints one JSON document on stdout. With --trace 1 half the time runs
untraced and half with spans installed, and per-layer figures are reported.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import io
import json
import os
import resource
import statistics
import subprocess
import sys
from time import perf_counter, thread_time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, HERE)
sys.path.insert(0, SRC)

import pathseq as ps  # noqa: E402
import pathseq.cli  # noqa: E402,F401

import reference as ref  # noqa: E402
import spans as tr  # noqa: E402
import speed  # noqa: E402

MIN_PASSES = 3
TAIL_LEVELS = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


# ---------------------------------------------------------------- inputs


def _load_spec(text: str):
    doc = json.loads(text)
    if "clique" in doc:
        return ps.generalized.parse_generalized_spec(doc)
    return ps.starlike.parse_starlike_spec(doc)


def _cli_inputs(argv):
    for flag, value in zip(argv, argv[1:]):
        if flag in ("--starlike", "--generalized", "--graph", "--index"):
            yield flag, value


class Context:
    """A workload's jobs with every input parsed by pathseq's own parsers."""

    def __init__(self, directory: str) -> None:
        self.dir = directory
        self.runners = dict(RUNNERS)
        self.jobs = json.loads(self.read("jobs.json"))
        self.specs, self.texts, self.profiles, self.index = {}, {}, {}, {}
        for job in self.jobs:
            if job["kind"] == "cli":
                self._load_cli(job["argv"])
                continue
            for key in ("spec", "other"):
                if key in job:
                    self.specs[job[key]] = _load_spec(self.read(job[key]))
            if "graph" in job:
                text = self.texts[job["graph"]] = self.read(job["graph"])
                ps.graph.parse_edge_list(text)
            if "profile" in job:
                self.profiles[job["profile"]] = json.loads(self.read(job["profile"]))
            if "index" in job:
                self.index[job["index"]] = ps.invariants.resolve_index(job["index"])

    def _load_cli(self, argv) -> None:
        # malformed files are part of the workload; they are expected to fail
        for flag, value in _cli_inputs(argv):
            try:
                if flag == "--index":
                    ps.invariants.resolve_index(value)
                elif flag == "--graph":
                    ps.graph.parse_edge_list(self.read(value))
                else:
                    _load_spec(self.read(value))
            except (ps.PathseqError, OSError, ValueError):
                pass

    def read(self, rel: str) -> str:
        with open(os.path.join(self.dir, rel), encoding="utf-8") as fh:
            return fh.read()


# ---------------------------------------------------------------- jobs
# Every call goes through a module attribute, so wrappers installed by the
# traced run see it.


def spec_key(spec) -> str:
    star = spec.star if isinstance(spec, ps.GenStarlikeSpec) else spec
    branches = " ".join(f"{l}x{c}" for l, c in star.branches)
    return f"K{spec.clique_size} {branches}" if star is not spec else branches


def run_profile(ctx, job):
    spec, f = ctx.specs[job["spec"]], ctx.index[job["index"]]
    if job["family"] == "starlike":
        return ps.starlike.starlike_profile(spec, f, spec.longest_path_length)
    return ps.generalized.generalized_profile(spec, f, spec.longest_path_length)


def run_reconstruct(ctx, job):
    profile, f = ctx.profiles[job["profile"]], ctx.index[job["index"]]
    if job["family"] == "starlike":
        result = ps.reconstruct.reconstruct_starlike(job["n"], profile, f)
    else:
        result = ps.reconstruct.reconstruct_generalized(job["n"], job["r"], profile, f)
    return spec_key(result.spec)


def run_distinguish(ctx, job):
    return ps.reconstruct.distinguish(
        ctx.specs[job["spec"]], ctx.specs[job["other"]], ctx.index[job["index"]]
    )


def run_survey(ctx, job):
    report = ps.reconstruct.survey_distinguishability(
        job["n"], ctx.index[job["index"]], family=job["family"], max_degree=job["r"]
    )
    return {
        "specs": report.spec_count,
        "pairs": report.pairs_checked,
        "collisions": sorted(sorted((spec_key(a), spec_key(b))) for a, b in report.collisions),
    }


def run_conditions(ctx, job):
    check = (ps.reconstruct.check_starlike_conditions if job["family"] == "starlike"
             else ps.reconstruct.check_generalized_conditions)
    report = check(ctx.index[job["index"]], job["x_max"], job["t_max"])
    return [report.condition_a, report.condition_b]


def run_graph_profile(ctx, job):
    g = ps.graph.parse_edge_list(ctx.texts[job["graph"]])
    rho = ps.graph.longest_path_length(g)
    return {"rho": rho, "values": ps.invariants.invariant_profile(g, ctx.index[job["index"]], rho)}


def run_verify(ctx, job):
    g = ps.graph.parse_edge_list(ctx.texts[job["graph"]])
    spec, f = ctx.specs[job["spec"]], ctx.index[job["index"]]
    rho = spec.longest_path_length
    return {
        "enumerated": ps.invariants.invariant_profile(g, f, rho),
        "closed": ps.generalized.generalized_profile(spec, f, rho),
    }


def run_budget(ctx, job):
    g = ps.graph.parse_edge_list(ctx.texts[job["graph"]])
    series = ps.graph.census_series(g, job["max_order"], job["budget"])
    return sum(c.total for c in series)


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_cli(ctx, job):
    argv = job["argv"]
    proc = subprocess.run(
        [sys.executable, "-m", "pathseq.cli", *argv],
        cwd=ctx.dir, env=ctx.env, capture_output=True, text=True, timeout=120,
    )
    out = proc.stdout
    if "--output" in argv and proc.returncode == 0:
        out = ctx.read(argv[argv.index("--output") + 1])
    return {"code": proc.returncode, "out": out}


RUNNERS = {
    "profile": run_profile,
    "reconstruct": run_reconstruct,
    "distinguish": run_distinguish,
    "survey": run_survey,
    "conditions": run_conditions,
    "graph_profile": run_graph_profile,
    "verify": run_verify,
    "budget": run_budget,
    "cli": run_cli,
}


def execute(ctx, job):
    """(latency_s, status, value): status is ok, raised (a PathseqError) or crashed.

    An in-process job is timed in this thread's CPU time, a CLI job in its
    child process's CPU time; see speed.py.
    """
    runner = ctx.runners[job["kind"]]
    clock = speed.children_cpu_s if job["kind"] == "cli" else thread_time
    t0 = clock()
    try:
        status, value = "ok", runner(ctx, job)
    except ps.PathseqError as exc:
        status, value = "raised", type(exc).__name__
    except Exception as exc:  # a crash is a failed job, not a failed benchmark
        status, value = "crashed", f"{type(exc).__name__}: {exc}"
    return clock() - t0, status, value


def run_passes(ctx, seconds: float, min_passes: int):
    """[(wall time of the pass, records, speed factor per record)] per pass; see speed.py.

    In-process jobs are scaled by the unit timed in this process. CLI jobs run
    in child processes, possibly on another CPU, so they are scaled by the
    unit process started after each of them instead.
    """
    passes = []
    deadline = perf_counter() + seconds
    last = 0.0
    # After min_passes, start a pass only if one as long as the last ends in time.
    while len(passes) < min_passes or perf_counter() + last <= deadline:
        started = perf_counter()
        host = speed.Speed()
        process_units = []
        records = []
        for job in ctx.jobs:
            records.append(execute(ctx, job))
            if job["kind"] == "cli":
                process_units.append(speed.process_unit_s(ctx.env))
            else:
                host.sample_after(records[-1][0])
        own = host.factor() if host.samples else 1.0
        other = speed.process_factor(process_units) if process_units else 1.0
        factors = [other if job["kind"] == "cli" else own for job in ctx.jobs]
        last = perf_counter() - started
        passes.append((last, records, factors))
    return passes


# ---------------------------------------------------------------- checking


def _subclass_names(cls) -> set:
    names = {cls.__name__}
    for sub in cls.__subclasses__():
        names |= _subclass_names(sub)
    return names


REJECTIONS = _subclass_names(ps.ReconstructionError)


def vacuous_accept(job, status, value) -> bool:
    """A corrupted profile accepted as its own spec, the corruption below pathseq's tolerance.

    That is pathseq's known vacuous comparison at high orders (see
    gen.LIBRARY_ABS_TOL). It is counted and reported on its own, not as a
    failure; any other acceptance of a corrupted profile is a failure.
    """
    return bool(job.get("below_tolerance")) and status == "ok" and value == job["source"]


def check(ctx, job, expected, status, value) -> str | None:
    """None if the answer is right, else a one-line reason."""
    kind = job["kind"]
    if kind == "reconstruct" and expected == "reject":
        if status == "raised" and value in REJECTIONS:
            return None
        if vacuous_accept(job, status, value):
            return None
        return f"corrupted order {job['corrupted_order']} not rejected ({status}: {value})"
    if kind == "budget":
        return None if (status, value) == ("raised", expected) else f"expected {expected}, got {status}"
    if kind == "cli":
        return check_cli(ctx, job, status, value)
    if status != "ok":
        return f"{status}: {value}"
    if kind == "profile":
        ok = ref.profile_matches(value, expected)
    elif kind == "graph_profile":
        ok = value["rho"] == expected["rho"] and ref.profile_matches(value["values"], expected["values"])
    elif kind == "verify":
        ok = all(ref.profile_matches(value[k], expected) for k in ("enumerated", "closed"))
    else:  # reconstruct (exact), distinguish, survey, conditions
        ok = value == expected
    return None if ok else f"wrong answer {str(value)[:120]}"


def _options(argv) -> dict:
    opts = {"command": argv[0]}
    for flag, value in zip(argv[1:], argv[2:]):
        if flag.startswith("--"):
            opts.setdefault(flag[2:], []).append(value)
    return {k: v[0] if len(v) == 1 and k != "command" else v for k, v in opts.items()}


def _parse_output(text: str, fmt: str) -> dict:
    if fmt == "json":
        return json.loads(text)
    doc, rows = {}, list(csv.reader(io.StringIO(text)))
    for i, row in enumerate(rows):
        if row in (["h", "value"], ["degrees", "count"]):
            doc["table"] = rows[i + 1:]
            break
        doc[row[0]] = row[1]
    return doc


def library_answer(ctx, argv) -> dict:
    """The fields a CLI command must report, computed by in-process library calls."""
    o = _options(argv)
    path = lambda rel: os.path.join(ctx.dir, rel)  # noqa: E731
    obj = None
    if "starlike" in o and not isinstance(o["starlike"], list):
        obj = ps.load_starlike_spec(path(o["starlike"]))
    elif "generalized" in o and not isinstance(o["generalized"], list):
        obj = ps.load_generalized_spec(path(o["generalized"]))
    elif "graph" in o:
        obj = ps.load_edge_list(path(o["graph"]))
    f = ps.resolve_index(o["index"]) if "index" in o else None
    graph = isinstance(obj, ps.Graph)
    cmd = o["command"]
    if cmd == "invariant":
        h = int(o["order"])
        if graph:
            return {"value": ps.evaluate_invariant(obj, h, f)}
        return {"value": ps.starlike_invariant(obj, h, f) if isinstance(obj, ps.StarlikeSpec)
                else ps.generalized_invariant(obj, h, f)}
    if cmd == "profile":
        if graph:
            rho = ps.longest_path_length(obj)
            return {"values": ps.invariant_profile(obj, f, rho)}
        rho = obj.longest_path_length
        return {"values": ps.starlike_profile(obj, f, rho) if isinstance(obj, ps.StarlikeSpec)
                else ps.generalized_profile(obj, f, rho)}
    if cmd == "census":
        h = int(o["order"])
        census = (ps.path_census(obj, h) if graph else ps.starlike_census(obj, h)
                  if isinstance(obj, ps.StarlikeSpec) else ps.generalized_census(obj, h))
        return {"total": census.total,
                "classes": [[list(s), c] for s, c in sorted(census.entries.items())]}
    if cmd == "verify":
        return {"status": "ok"}
    if cmd == "reconstruct":
        if graph:
            rho = ps.longest_path_length(obj)
            result = ps.reconstruct_starlike(obj.vertex_count, ps.invariant_profile(obj, f, rho), f)
            return {"branches": result.to_dict()["branches"]}
        return obj.to_dict()
    if cmd == "distinguish":
        loader = ps.load_starlike_spec if "starlike" in o else ps.load_generalized_spec
        a, b = (loader(path(p)) for p in o.get("starlike") or o["generalized"])
        return {"separating_order": ps.distinguish(a, b, f)}
    if cmd == "check-conditions":
        check_fn = (ps.check_starlike_conditions if o["theorem"] == "7"
                    else ps.check_generalized_conditions)
        report = check_fn(f, int(o.get("x-max", 64)))
        return {"condition_a": "pass" if report.condition_a else "fail",
                "condition_b": "pass" if report.condition_b else "fail"}
    if cmd == "survey":
        r = int(o["max-degree"]) if "max-degree" in o else None
        report = ps.survey_distinguishability(int(o["size"]), f, o["family"], r)
        return {"specs": report.spec_count, "pairs_checked": report.pairs_checked,
                "collisions": len(report.collisions)}
    raise ValueError(f"no library answer for {cmd}")


def _same(cli_value, lib_value) -> bool:
    if isinstance(lib_value, float):
        return ref.close(float(cli_value), lib_value)
    if isinstance(lib_value, list) and lib_value and isinstance(lib_value[0], float):
        return ref.profile_matches([float(v) for v in cli_value], lib_value)
    return cli_value == lib_value


def check_cli(ctx, job, status, value) -> str | None:
    if status != "ok":
        return f"{status}: {value}"
    if value["code"] != job["expect_code"]:
        return f"exit code {value['code']}, expected {job['expect_code']}"
    fmt = "csv" if "--format" in job["argv"] and "csv" in job["argv"] else "json"
    try:
        doc = _parse_output(value["out"], fmt)
    except (ValueError, IndexError) as exc:
        return f"unreadable output: {exc}"
    if job["expect_code"] != 0:
        return None if "error" in doc else "no error object"
    want = ctx.cli_answers[job["id"]]
    for key, lib_value in want.items():
        if key not in doc and "table" in doc and key in ("values", "classes"):
            table = doc["table"]
            got = ([float(v) for _, v in table] if key == "values"
                   else [[list(map(int, d.split())), int(c)] for d, c in table])
        elif key not in doc:
            return f"missing {key}"
        else:
            got = doc[key]
            if key == "classes":
                got = [[c["degrees"], c["count"]] for c in got]
            elif key == "collisions":
                got = len(got)
            elif fmt == "csv" and isinstance(lib_value, (int, float)) and not isinstance(lib_value, bool):
                got = type(lib_value)(got)
            elif fmt == "csv" and lib_value is None:
                got = None if got == "None" else got
        if not _same(got, lib_value):
            return f"{key}: cli {str(got)[:60]} != library {str(lib_value)[:60]}"
    return None


# ---------------------------------------------------------------- tracing


def install_wrappers(tracer: tr.Tracer, ctx) -> None:
    """Spans at each module boundary, patched under every name callers use."""
    mods = {"starlike": ps.starlike, "generalized": ps.generalized, "graph": ps.graph,
            "invariants": ps.invariants, "reconstruct": ps.reconstruct, "cli": ps.cli, "pkg": ps}

    def patch(attr, replacement, where):
        for name in where:
            if hasattr(mods[name], attr):
                tracer.patch(mods[name], attr, replacement)

    def note_max_order(span, args, result):
        span.attrs["max_order"] = args[2]

    def note_survey(span, args, report):
        span.attrs.update(specs=report.spec_count, pairs=report.pairs_checked,
                          collisions=len(report.collisions))

    def note_paths(span, args, series):
        span.attrs["paths"] = sum(c.total for c in series)

    for fam in ("starlike", "generalized"):
        mod = mods[fam]
        everywhere = (fam, "reconstruct", "cli", "pkg")
        patch(f"{fam}_profile", tracer.wrap(getattr(mod, f"{fam}_profile"), f"{fam}.profile",
                                            note_max_order), everywhere)
        patch(f"{fam}_invariant", tracer.count(getattr(mod, f"{fam}_invariant"), f"{fam}.orders"),
              everywhere)
        patch(f"{fam}_census", tracer.count(getattr(mod, f"{fam}_census"), f"{fam}.census.classes",
                                            lambda census: len(census.entries)), everywhere)
        patch(f"reconstruct_{fam}", tracer.wrap(getattr(ps.reconstruct, f"reconstruct_{fam}"),
                                                "reconstruct.reconstruct"), ("reconstruct", "cli", "pkg"))
        patch(f"{fam}_specs", tracer.wrap(getattr(ps.reconstruct, f"{fam}_specs"), "reconstruct.specs"),
              ("reconstruct", "pkg"))
        patch(f"check_{fam}_conditions",
              tracer.wrap(getattr(ps.reconstruct, f"check_{fam}_conditions"),
                          "reconstruct.check_conditions"), ("reconstruct", "cli", "pkg"))
    patch("survey_distinguishability",
          tracer.wrap(ps.reconstruct.survey_distinguishability, "reconstruct.survey", note_survey),
          ("reconstruct", "cli", "pkg"))
    patch("distinguish", tracer.wrap(ps.reconstruct.distinguish, "reconstruct.distinguish"),
          ("reconstruct", "cli", "pkg"))
    patch("invariant_profile", tracer.wrap(ps.invariants.invariant_profile,
                                           "invariants.invariant_profile"), ("invariants", "cli", "pkg"))
    patch("parse_edge_list", tracer.wrap(ps.graph.parse_edge_list, "graph.parse"), ("graph", "pkg"))
    patch("census_series", tracer.wrap(ps.graph.census_series, "graph.census_series", note_paths),
          ("graph", "invariants", "pkg"))
    patch("longest_path_length", tracer.wrap(ps.graph.longest_path_length,
                                             "graph.longest_path_length"), ("graph", "cli", "pkg"))
    # The index functions handed to jobs count their calls and time.
    for name, f in list(ctx.index.items()):
        ctx.index[name] = ps.InvariantFunction(f.name, tracer.timed_index(f.fn))

    def job_span(kind, fn):
        traced = tracer.wrap(fn, f"job.{kind}")

        def run(ctx, job):
            tracer.job = job["id"]
            return traced(ctx, job)

        return run

    ctx.runners = {kind: job_span(kind, fn) for kind, fn in ctx.runners.items()}


def layer_metrics(tracer: tr.Tracer, ctx, traced, untraced) -> dict:
    k = len(traced)
    spans = tracer.spans
    own = tr.self_times(spans)
    named: dict[str, list] = {}
    for s in spans:
        named.setdefault(s.name, []).append(s)

    def self_s(name):
        return sum(own[s.id] for s in named.get(name, ())) / k

    def per_pass(x):
        return x / k

    m = {}
    for fam in ("starlike", "generalized"):
        prof = named.get(f"{fam}.profile", [])
        m[f"{fam}.profile.calls"] = per_pass(len(prof))
        m[f"{fam}.profile.self_s"] = self_s(f"{fam}.profile")
        m[f"{fam}.orders"] = per_pass(tracer.counts[f"{fam}.orders"])
        m[f"{fam}.census.classes"] = per_pass(tracer.counts[f"{fam}.census.classes"])
        m[f"{fam}.profile.rho_exponent"] = tr.loglog_slope(
            (s.attrs["max_order"], s.end - s.start) for s in prof)
    m["invariants.f_calls"] = per_pass(tracer.counts["invariants.f_calls"])
    m["invariants.f_s"] = per_pass(tracer.f_s)
    m["invariants.invariant_profile.self_s"] = self_s("invariants.invariant_profile")

    corrupted = [(job, rec) for _, records, _ in traced for job, rec in zip(ctx.jobs, records)
                 if job["kind"] == "reconstruct" and job["corrupted_order"] is not None]
    rejected = sum(rec[1] == "raised" and rec[2] in REJECTIONS for _, rec in corrupted)
    vacuous = sum(vacuous_accept(job, rec[1], rec[2]) for job, rec in corrupted)
    surveys = named.get("reconstruct.survey", [])
    m.update({
        "reconstruct.reconstruct.self_s": self_s("reconstruct.reconstruct"),
        "reconstruct.rejected_ratio": rejected / len(corrupted) if corrupted else 0.0,
        "reconstruct.vacuous_accepts": per_pass(vacuous),
        "reconstruct.survey.self_s": self_s("reconstruct.survey"),
        "reconstruct.survey.pairs_checked": per_pass(sum(s.attrs.get("pairs", 0) for s in surveys)),
        "reconstruct.survey.specs": per_pass(sum(s.attrs.get("specs", 0) for s in surveys)),
        "reconstruct.survey.collisions": per_pass(sum(s.attrs.get("collisions", 0) for s in surveys)),
        "reconstruct.specs.self_s": self_s("reconstruct.specs"),
        "reconstruct.survey.spec_exponent": tr.loglog_slope(
            (s.attrs["specs"], s.end - s.start) for s in surveys if "specs" in s.attrs),
        "reconstruct.distinguish.self_s": self_s("reconstruct.distinguish"),
        "reconstruct.check_conditions.self_s": self_s("reconstruct.check_conditions"),
    })
    series = named.get("graph.census_series", [])
    m.update({
        "graph.parse.self_s": self_s("graph.parse"),
        "graph.census_series.calls": per_pass(len(series)),
        "graph.census_series.self_s": self_s("graph.census_series"),
        "graph.paths_emitted": per_pass(sum(s.attrs.get("paths", 0) for s in series)),
        "graph.longest_path_length.self_s": self_s("graph.longest_path_length"),
        "graph.budget_exceeded": per_pass(sum(
            s.error == "BudgetExceededError" for s in spans if s.name.startswith("graph."))),
    })
    cli_spans = named.get("job.cli", [])
    m["cli.startup_ms"] = cli_startup_ms()
    m["cli.process_ms"] = 1000 * statistics.median(s.end - s.start for s in cli_spans) if cli_spans else 0.0
    m["cli.main_ms"] = cli_main_ms(ctx) if cli_spans else 0.0
    m["cli.output_bytes"] = per_pass(sum(
        len(rec[2]["out"].encode()) for _, records, _ in traced for job, rec in zip(ctx.jobs, records)
        if job["kind"] == "cli" and rec[1] == "ok"))
    m["trace.overhead_s"] = sum(job_medians(traced)) - sum(job_medians(untraced))
    return m


def curves(tracer: tr.Tracer) -> dict:
    """Median span time per size: profiles by max order, surveys by spec count."""
    points: dict[str, dict] = {}
    for s in tracer.spans:
        if s.name in ("starlike.profile", "generalized.profile"):
            x = s.attrs["max_order"]
        elif s.name == "reconstruct.survey" and "specs" in s.attrs:
            x = s.attrs["specs"]
        else:
            continue
        points.setdefault(s.name, {}).setdefault(x, []).append(s.end - s.start)
    return {name: [[x, statistics.median(ts)] for x, ts in sorted(by_x.items())]
            for name, by_x in points.items()}


def self_time_by_module(tracer: tr.Tracer, passes: int) -> dict:
    """Self seconds per pass for each module (the span name's first part)."""
    out: dict[str, float] = {"invariants.f": tracer.f_s / passes}
    for name, seconds in tr.self_time_by_name(tracer.spans).items():
        module = name.split(".")[0]
        out[module] = out.get(module, 0.0) + seconds / passes
    return out


def cli_startup_ms(repeats: int = 5) -> float:
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "import pathseq.cli"], env=cli_env(), check=True)
        times.append(perf_counter() - t0)
    return 1000 * statistics.median(times)


def cli_main_ms(ctx) -> float:
    """Median in-process main(argv) over the CLI jobs, stdout captured."""
    times = []
    cwd = os.getcwd()
    os.chdir(ctx.dir)
    try:
        for job in ctx.jobs:
            if job["kind"] != "cli":
                continue
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                t0 = perf_counter()
                ps.cli.main(job["argv"])
                times.append(perf_counter() - t0)
    finally:
        os.chdir(cwd)
    return 1000 * statistics.median(times)


# ---------------------------------------------------------------- main


def job_medians(passes) -> list[float]:
    """Each job's median latency across passes, at nominal host speed.

    Their sum is the time of one pass with every job at its typical speed, so
    a single pass slowed down by something else on the machine does not move
    it; the median of whole-pass times moves with every slow pass.
    """
    return [statistics.median(records[i][0] * factors[i] for _, records, factors in passes)
            for i in range(len(passes[0][1]))]


def tail_level(jobs_per_pass: int) -> float:
    """Highest level with ten or more jobs beyond it in the smallest possible run."""
    n = jobs_per_pass * MIN_PASSES
    return next(p for p in TAIL_LEVELS if n * (1 - p / 100) >= 10)


def nearest_rank(sorted_values, level: float) -> float:
    rank = max(1, -(-len(sorted_values) * level // 100))
    return sorted_values[int(rank) - 1]


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.abspath(ps.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"pathseq imported from {ps.__file__}, not from {SRC}")
    ctx = Context(args.inputs)
    if args.setup_only:
        return 0
    ctx.env = cli_env()
    expected = json.loads(ctx.read("expected.json"))

    if args.trace:
        untraced = run_passes(ctx, args.seconds / 2, 1)
        tracer = tr.Tracer()
        install_wrappers(tracer, ctx)
        try:
            traced = run_passes(ctx, args.seconds / 2, 1)
        finally:
            tracer.unpatch()
        passes = untraced + traced
    else:
        passes = run_passes(ctx, args.seconds, MIN_PASSES)
    rss = peak_rss_mb()

    ctx.cli_answers = {job["id"]: library_answer(ctx, job["argv"])
                       for job in ctx.jobs if job["kind"] == "cli" and job["expect_code"] == 0}
    failures = {}
    failed = vacuous = corrupted = 0
    for _, records, _ in passes:
        for job, (_, status, value) in zip(ctx.jobs, records):
            reason = check(ctx, job, expected[job["id"]], status, value)
            if reason is not None:
                failed += 1
                failures.setdefault(job["id"], f"{job['kind']}: {reason}")
            if job.get("corrupted_order") is not None:
                corrupted += 1
                vacuous += vacuous_accept(job, status, value)
    attempted = len(ctx.jobs) * len(passes)

    latencies = sorted(rec[0] * f for _, records, factors in passes
                       for rec, f in zip(records, factors))
    medians = job_medians(passes)
    level = tail_level(len(ctx.jobs))
    result = {
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "passes": len(passes),
        "jobs_per_pass": len(ctx.jobs),
        "tail_level": level,
        "samples": len(latencies),
        "run_s": sum(medians),
        "wall_pass_s": statistics.median(w for w, _, _ in passes),
        "speed_factor": statistics.median(f for _, _, factors in passes for f in factors),
        "job_p50_ms": 1000 * statistics.median(latencies),
        "job_tail_ms": 1000 * nearest_rank(latencies, level),
        "error_rate": failed / attempted,
        "vacuous_accepts": vacuous,
        "corrupted": corrupted,
        "peak_rss_mb": rss,
        "slowest": sorted(
            (1000 * ms, job["id"], job["kind"]) for ms, job in zip(medians, ctx.jobs))[-5:][::-1],
    }
    if args.trace:
        result["layers"] = layer_metrics(tracer, ctx, traced, untraced)
        result["curves"] = curves(tracer)
        result["self_by_module"] = self_time_by_module(tracer, len(traced))
        with open(os.path.join(ctx.dir, "spans.json"), "w", encoding="utf-8") as fh:
            json.dump([dataclasses.asdict(s) for s in tracer.spans], fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
