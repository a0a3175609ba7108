"""The pathseq benchmark: one workload, one seed, one run.

Run from the root of a checkout (pathseq is imported from src/ beside bench/):

  python3 bench/run.py --workload closed_form_deep --seed 1 --seconds 22 --trace 0
  python3 bench/run.py --write-benchmark-json     # regenerate BENCHMARK.json

Each run generates the workload's inputs from the seed under bench/_work/,
times set-up in fresh interpreters, runs the job list in a worker process as
a closed loop for the given seconds, checks every answer against the
benchmark's own reference (bench/reference.py, which does not import
pathseq), and prints a readable report followed by one JSON line. With
--trace 0 that line carries the end-to-end metrics; with --trace 1 a
separate traced run gives the per-layer metrics.

Exit status is 0 when the run completed, whether or not answers were wrong
(wrong answers are counted in "failed"), and non-zero when the program could
not be run at all, e.g. when src/pathseq is missing.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import gen  # noqa: E402
import speed  # noqa: E402

RUN_SECONDS = 22
SETUP_REPEATS = 9
RUN_DEADLINE_S = 170

WORKLOADS = {
    "closed_form_deep": (
        "term generation, index evaluation and the reconstruction ladder on starlike and "
        "coalesced specs at rho 16/32/64/128 (44 specs, 5 indices); graph does no work"
    ),
    "survey_slices": (
        "whole-family surveys (starlike n 9-21, coalesced n 14-22; up to 616 specs, 189k pairs) "
        "and certificate scans at x_max 512: per-spec overhead and the O(S^2) pair loop"
    ),
    "enumerate_graphs": (
        "parse_edge_list plus budgeted path enumeration on 24 random trees (n 120) and "
        "K7/K8-coalesced trees, one K9 over budget: graph dominates, closed forms are cheap"
    ),
    "cli_commands": (
        "all 8 CLI commands as python -m pathseq.cli subprocesses (JSON, CSV, --output, "
        "4 malformed inputs): interpreter start, import, argparse and emission dominate"
    ),
}

# Bounds: share of the parent's median a metric may worsen by. On a shared
# 2-vCPU host the speed of CPU-bound Python drifts by 15% and more over
# seconds to minutes, which is why the timing bounds sit at the 0.25 maximum.
END_TO_END = [
    ("setup_s", "s", 0.25),
    ("run_s", "s", 0.25),
    ("job_p50_ms", "ms", 0.25),
    ("job_tail_ms", "ms", 0.25),
    ("peak_rss_mb", "MB", 0.1),
]

PER_LAYER = [
    ("starlike.profile.calls", "count", "lower"),
    ("starlike.profile.self_s", "s", "lower"),
    ("starlike.orders", "count", "lower"),
    ("starlike.census.classes", "count", "lower"),
    ("starlike.profile.rho_exponent", "exponent", "lower"),
    ("generalized.profile.calls", "count", "lower"),
    ("generalized.profile.self_s", "s", "lower"),
    ("generalized.orders", "count", "lower"),
    ("generalized.census.classes", "count", "lower"),
    ("generalized.profile.rho_exponent", "exponent", "lower"),
    ("invariants.f_calls", "count", "lower"),
    ("invariants.f_s", "s", "lower"),
    ("invariants.invariant_profile.self_s", "s", "lower"),
    ("reconstruct.reconstruct.self_s", "s", "lower"),
    ("reconstruct.rejected_ratio", "ratio", "higher"),
    ("reconstruct.vacuous_accepts", "count", "lower"),
    ("reconstruct.survey.self_s", "s", "lower"),
    ("reconstruct.survey.pairs_checked", "count", "lower"),
    ("reconstruct.survey.specs", "count", "higher"),
    ("reconstruct.survey.collisions", "count", "lower"),
    ("reconstruct.specs.self_s", "s", "lower"),
    ("reconstruct.survey.spec_exponent", "exponent", "lower"),
    ("reconstruct.distinguish.self_s", "s", "lower"),
    ("reconstruct.check_conditions.self_s", "s", "lower"),
    ("graph.parse.self_s", "s", "lower"),
    ("graph.census_series.calls", "count", "lower"),
    ("graph.census_series.self_s", "s", "lower"),
    ("graph.paths_emitted", "count", "lower"),
    ("graph.longest_path_length.self_s", "s", "lower"),
    ("graph.budget_exceeded", "count", "lower"),
    ("cli.startup_ms", "ms", "lower"),
    ("cli.process_ms", "ms", "lower"),
    ("cli.main_ms", "ms", "lower"),
    ("cli.output_bytes", "bytes", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


def benchmark_json() -> dict:
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": "lower", "bound": b}
                       for n, u, b in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


# ---------------------------------------------------------------- run metadata


def commit() -> str:
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(ROOT, ".git", head[5:]), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def src_lines() -> int:
    total = 0
    for path in glob.glob(os.path.join(ROOT, "src", "**", "*.py"), recursive=True):
        with open(path, encoding="utf-8") as fh:
            total += sum(1 for _ in fh)
    return total


# ---------------------------------------------------------------- run


def time_setup(directory: str) -> tuple[float, float]:
    """(scaled, raw) median CPU time of fresh interpreters that import pathseq and load the inputs.

    The interpreters are child processes, so they are timed and scaled the
    way speed.py times and scales CLI commands.
    """
    times, units = [], []
    for _ in range(SETUP_REPEATS):
        t0 = speed.children_cpu_s()
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), "--inputs", directory, "--setup-only"],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, timeout=60,
        )
        times.append(speed.children_cpu_s() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed:\n{proc.stderr.strip()}")
        units.append(speed.process_unit_s())
    raw = statistics.median(times)
    return raw * speed.process_factor(units), raw


def run(workload: str, seed: int, seconds: float, trace: int) -> int:
    started = perf_counter()
    if not os.path.isfile(os.path.join(ROOT, "src", "pathseq", "__init__.py")):
        print(f"bench: {os.path.join(ROOT, 'src', 'pathseq')} not found", file=sys.stderr)
        return 2
    inputs = gen.generate(workload, seed)
    directory = os.path.join(HERE, "_work", workload)
    shutil.rmtree(directory, ignore_errors=True)
    gen.write(inputs, directory)
    try:
        setup, raw_setup = time_setup(directory)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    remaining = RUN_DEADLINE_S - (perf_counter() - started)
    # Own session, so a timeout also ends the CLI processes the worker started.
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py"), "--inputs", directory,
         "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(remaining, 10))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print("bench: worker did not finish in time", file=sys.stderr)
        return 1
    if proc.returncode != 0 or not out.strip():
        print(f"bench: worker exited with {proc.returncode}", file=sys.stderr)
        return 1
    res = json.loads(out.strip().splitlines()[-1])

    meta = {"workload": workload, "seed": seed, "trace": trace, "commit": commit(),
            "python": platform.python_version(), "cpu": cpu_model(), "nproc": os.cpu_count(),
            "src_lines": src_lines(), "sizes": inputs.sizes}
    print("meta " + json.dumps(meta))
    print(f"{workload}: {res['passes']} passes of {res['jobs_per_pass']} jobs "
          f"(closed loop, one caller), {res['samples']} job samples; median wall pass "
          f"{res['wall_pass_s']:.4f} s, host speed factor {res['speed_factor']:.4f}; "
          f"raw set-up {raw_setup:.4f} s")
    if trace:
        metrics = {name: (res["layers"][name], unit) for name, unit, _ in PER_LAYER}
    else:
        metrics = {
            "setup_s": (setup, "s"),
            "run_s": (res["run_s"], "s"),
            "job_p50_ms": (res["job_p50_ms"], "ms"),
            "job_tail_ms": (res["job_tail_ms"], "ms"),
            "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        }
    for name, (value, unit) in metrics.items():
        note = ""
        if name == "job_tail_ms":
            note = f"  (p{res['tail_level']:g} of {res['samples']} jobs)"
        print(f"  {name:38s} {value:14.6g} {unit}{note}")
    if trace:
        for module, seconds in sorted(res["self_by_module"].items()):
            print(f"  self time {module:28s} {seconds:14.6g} s per pass")
        for name, points in sorted(res["curves"].items()):
            line = " ".join(f"{x}:{1000 * t:.3g}" for x, t in points)
            print(f"  curve {name} (size:ms) {line}")
    print(f"  {'error_rate':38s} {res['error_rate']:14.6g} ratio"
          f"  ({res['failed']} of {res['attempted']} jobs failed)")
    if res["corrupted"]:
        print(f"  known defect: {res['vacuous_accepts']} of {res['corrupted']} corrupted profiles "
              f"accepted as their own spec, the corruption below pathseq's absolute tolerance "
              f"{gen.LIBRARY_ABS_TOL:g} (vacuous comparison at high orders); not counted as failed")
    for ms, job_id, kind in res["slowest"]:
        print(f"  slow   {job_id} {kind:14s} {ms:10.2f} ms median")
    for job_id, reason in sorted(res["failures"].items()):
        print(f"  failed {job_id} {reason}")
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="pathseq benchmark")
    parser.add_argument("--workload", choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-benchmark-json", action="store_true",
                        help="write BENCHMARK.json at the repository root and exit")
    args = parser.parse_args(argv)
    if args.write_benchmark_json:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w", encoding="utf-8") as fh:
            json.dump(benchmark_json(), fh, indent=2)
            fh.write("\n")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    return run(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
