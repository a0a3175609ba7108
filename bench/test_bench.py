"""Tests of the benchmark itself: inputs, reference, checker and span arithmetic.

Run with: python3 -m pytest bench/test_bench.py
"""

import json
import os
import random
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import gen  # noqa: E402
import reference as ref  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import worker  # noqa: E402


def _serialized(inputs: gen.Inputs) -> str:
    return json.dumps([inputs.files, inputs.jobs, inputs.expected], sort_keys=True)


def _written(directory) -> dict:
    return {str(p.relative_to(directory)): p.read_bytes()
            for p in directory.rglob("*") if p.is_file()}


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload, tmp_path):
    for copy in ("a", "b"):
        gen.write(gen.generate(workload, 7), str(tmp_path / copy))
    first = _written(tmp_path / "a")
    assert first and first == _written(tmp_path / "b")


@pytest.mark.parametrize("workload", ["closed_form_deep", "enumerate_graphs", "cli_commands"])
def test_another_seed_gives_other_inputs(workload):
    assert _serialized(gen.generate(workload, 7)) != _serialized(gen.generate(workload, 8))


def test_spec_classes_match_exhaustive_walk():
    rng = random.Random(3)
    for _ in range(40):
        lengths = [rng.randint(1, 5) for _ in range(rng.randint(3, 5))]
        spec = ref.spec_from_lengths(lengths, rng.choice([None, 3, 4, 5]))
        assert ref.spec_classes(spec) == ref.brute_classes(*ref.realize(spec)), spec


def test_family_specs_count_known_slices():
    # p(11) = 56 partitions of 11, minus one with one part and five with two
    assert len(ref.family_specs("starlike", 12)) == 50
    for spec in ref.family_specs("generalized", 14, 6):
        assert ref.vertex_count(spec) == 14 and ref.max_degree(spec) == 6


def test_reference_close_is_scale_aware():
    assert ref.close(1e-40, 1e-40 * (1 + 1e-12))
    assert not ref.close(1e-40, 1.5e-40)
    assert ref.first_difference([1.0, 2e-30, 3.0], [1.0, 3e-30, 3.0]) == 1
    assert ref.first_difference([1, 2], [1, 2]) is None


def test_checker_flags_a_wrong_profile_and_a_wrong_order():
    job = {"kind": "profile", "id": "j0"}
    assert worker.check(None, job, [1.0, 2.0], "ok", [1.0, 2.0]) is None
    assert worker.check(None, job, [1.0, 2.0], "ok", [1.0, 2.1]) is not None
    assert worker.check(None, job, [1.0, 2.0], "crashed", "OverflowError") is not None
    job = {"kind": "distinguish", "id": "j1"}
    assert worker.check(None, job, 4, "ok", 4) is None
    assert worker.check(None, job, 4, "ok", None) is not None


def test_checker_flags_an_accepted_corrupted_profile():
    job = {"kind": "reconstruct", "id": "j2", "corrupted_order": 9, "below_tolerance": False,
           "source": "1x2 3x1"}
    assert worker.check(None, job, "reject", "ok", "1x2 3x1") is not None
    assert not worker.vacuous_accept(job, "ok", "1x2 3x1")
    assert worker.check(None, job, "reject", "raised", "ProfileMismatchError") is None
    # an unrelated library error is not a rejection
    assert worker.check(None, job, "reject", "raised", "FormatError") is not None
    exact = {"kind": "reconstruct", "id": "j3", "corrupted_order": None}
    assert worker.check(None, exact, "1x2 3x1", "ok", "1x2 3x1") is None
    assert worker.check(None, exact, "1x2 3x1", "ok", "1x1 2x1 3x1") is not None


def test_sub_tolerance_acceptance_is_counted_apart_from_failures():
    job = {"kind": "reconstruct", "id": "j5", "corrupted_order": 90, "below_tolerance": True,
           "source": "1x2 3x1"}
    assert worker.vacuous_accept(job, "ok", "1x2 3x1")
    assert worker.check(None, job, "reject", "ok", "1x2 3x1") is None
    assert worker.check(None, job, "reject", "raised", "ProfileMismatchError") is None
    assert not worker.vacuous_accept(job, "raised", "ProfileMismatchError")
    # accepted as some other spec, or a crash, is still a failure
    assert worker.check(None, job, "reject", "ok", "1x1 2x1 3x1") is not None
    assert worker.check(None, job, "reject", "crashed", "OverflowError") is not None


def test_generator_marks_only_sub_tolerance_corruptions():
    inputs = gen.generate("closed_form_deep", 7)
    corrupted = [j for j in inputs.jobs if j["kind"] == "reconstruct" and j["corrupted_order"] is not None]
    assert corrupted and any(j["below_tolerance"] for j in corrupted)
    assert sum(not j["below_tolerance"] for j in corrupted) > len(corrupted) // 2
    for job in corrupted:
        clean = json.loads(inputs.files[job["profile"].replace("-ladder", "-exact")
                                         .replace("-replay", "-exact")])
        bad = json.loads(inputs.files[job["profile"]])
        h = job["corrupted_order"]
        below = abs(clean[h] - bad[h]) <= gen.LIBRARY_ABS_TOL * max(1.0, abs(clean[h]), abs(bad[h]))
        assert job["below_tolerance"] == below


def test_checker_expects_the_budget_error():
    job = {"kind": "budget", "id": "j4"}
    assert worker.check(None, job, "BudgetExceededError", "raised", "BudgetExceededError") is None
    assert worker.check(None, job, "BudgetExceededError", "ok", 123) is not None


def _span(i, name, parent, start, end, f_s=0.0):
    return spans.Span(i, name, parent, "j0", start, end, f_s)


def test_self_time_subtracts_children_and_index_time():
    tree = [
        _span(0, "reconstruct.reconstruct", None, 0.0, 10.0, f_s=1.0),
        _span(1, "starlike.profile", 0, 2.0, 6.0, f_s=0.5),
        _span(2, "starlike.profile", 0, 7.0, 9.0),
        _span(3, "graph.parse", 1, 3.0, 4.0),
    ]
    own = spans.self_times(tree)
    assert own == {0: 10.0 - 4.0 - 2.0 - 1.0, 1: 4.0 - 1.0 - 0.5, 2: 2.0, 3: 1.0}
    by_name = spans.self_time_by_name(tree)
    assert by_name["starlike.profile"] == pytest.approx(4.5)
    assert sum(by_name.values()) == pytest.approx(10.0 - 1.0 - 0.5)


def test_tracer_records_parent_and_job():
    tracer = spans.Tracer()
    inner = tracer.wrap(lambda x: x + 1, "inner")
    outer = tracer.wrap(lambda x: inner(x) * 2, "outer")
    tracer.job = "j9"
    assert outer(1) == 4
    out, inn = tracer.spans
    assert (out.name, out.parent, inn.name, inn.parent, inn.job) == ("outer", None, "inner", 0, "j9")
    assert out.start <= inn.start <= inn.end <= out.end


def test_loglog_slope_recovers_a_power_law():
    assert spans.loglog_slope([(x, 3 * x**3) for x in (10, 20, 40, 80)]) == pytest.approx(3.0)
    assert spans.loglog_slope([(5, 1.0)]) == 0.0


def test_tail_level_keeps_ten_jobs_beyond():
    assert worker.tail_level(20) == 75.0
    assert worker.tail_level(71) == 95.0
    values = list(range(1, 101))
    assert worker.nearest_rank(values, 90.0) == 90


def test_speed_factor_scales_to_the_nominal_unit_time():
    host = speed.Speed()
    host.sample_after(0.0)
    assert len(host.samples) == 1
    host.samples = [2 * speed.NOMINAL_S, 4 * speed.NOMINAL_S, 2 * speed.NOMINAL_S]
    assert host.factor() == pytest.approx(0.5)
    assert speed.process_factor([speed.PROCESS_NOMINAL_S * 2] * 3) == pytest.approx(0.5)
