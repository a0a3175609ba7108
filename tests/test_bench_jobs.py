"""The benchmark's closed-form and graph workloads, run through its own
worker and checker: a renamed library name, a spec whose type or .star
breaks the worker's spec keys, or a graph census that no longer raises at
the budget job's budget fails here instead of in a timed benchmark run."""

import os
import sys

import pytest

BENCH_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
sys.path.insert(0, BENCH_DIR)

import gen  # noqa: E402
import worker  # noqa: E402


@pytest.mark.parametrize("workload", ["closed_form_deep", "survey_slices", "enumerate_graphs"])
def test_benchmark_closed_form_jobs_answer_right(tmp_path, workload):
    inputs = gen.generate(workload, 1)
    gen.write(inputs, str(tmp_path))
    ctx = worker.Context(str(tmp_path))
    assert ctx.jobs
    for job in ctx.jobs:
        _, status, value = worker.execute(ctx, job)
        assert worker.check(ctx, job, inputs.expected[job["id"]], status, value) is None, job["id"]
