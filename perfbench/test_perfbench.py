"""Tests of the benchmark itself: python -m pytest perfbench -q"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import run  # puts the checkout's src on sys.path; import it first
import answers
import spans
import workloads

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _result(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_tiny_run_prints_every_metric_with_its_unit(workload):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        result = _result(workload, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in SPEC[key]}
        assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
        assert all(isinstance(m["value"], float) for m in result["metrics"].values())


def test_workload_names_match_the_spec():
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.WORKLOADS)
    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)


def _solved_case(tmp_path):
    case = workloads.small_batch(5, tmp_path, tiny=True)[0]
    problem = case.problem()
    answer = case.answer(case.run())
    return problem, answer, answers.highs_optimum(problem)


def test_check_accepts_a_solve_and_rejects_a_perturbed_one(tmp_path):
    problem, answer, ref = _solved_case(tmp_path)
    assert answers.check(problem, answer, ref) is None
    answer.x = answer.x * 1.01
    assert "primal residual" in answers.check(problem, answer, ref)


def test_check_rejects_a_wrong_objective(tmp_path):
    problem, answer, ref = _solved_case(tmp_path)
    assert "c.x - ref" in answers.check(problem, answer, ref + 1e-3 * max(1.0, abs(ref)))
    assert "status" in answers.check(problem, answers.Answer("max_iter"), ref)


def test_raised_exception_and_bad_status_count_as_failed(tmp_path):
    from optlp import InvalidInputError

    good = workloads.small_batch(5, tmp_path, tiny=True)[0]

    def boom():
        raise InvalidInputError("terminal point must be nonnegative")

    raising = workloads.Case("raises", boom, good.answer, good.problem)
    exiting = workloads.Case("exits", lambda: sys.exit(2), good.answer, good.problem)
    cases = [raising, good, exiting]
    problems = [c.problem() for c in cases]
    ref = answers.highs_optimum(problems[1])
    result = run.measure(cases, problems, [ref] * 3, seconds=0.0)
    assert result.attempted == 3 * run.MIN_PASSES
    assert len(result.failures) == 2 * run.MIN_PASSES
    assert result.failures[0].startswith("raises: InvalidInputError")
    assert result.iterations[0] is None and result.iterations[1] > 0


def test_time_metrics_are_scaled_to_the_reference_speed():
    result = run.Run(1)
    result.tts[False][0] += [0.3, 0.2]
    result.iterations[0] = 10
    # the host ran at best half as fast as the reference speed
    result.calibration += [3 * run.CALIBRATION_REF_S, 2 * run.CALIBRATION_REF_S]
    metrics = run.end_to_end_metrics(result, [1.0])
    assert metrics["tts_p50_s"][0] == pytest.approx(0.1)
    assert metrics["solves_per_s"][0] == pytest.approx(10.0)
    assert metrics["iter_ms"][0] == pytest.approx(10.0)
    assert metrics["setup_s"][0] == 1.0


def test_reader_matches_the_program_on_afiro():
    from optlp.mps import parse_mps, to_standard_form

    lp, _ = to_standard_form(parse_mps(workloads.AFIRO.read_text()))
    a, b, c = answers.read_mps_standard_form(workloads.AFIRO)
    assert (a == lp.a).all() and (b == lp.b).all() and (c == lp.c).all()


def test_missing_span_target_is_absent_not_an_error(tmp_path):
    case = workloads.small_batch(5, tmp_path, tiny=True)[0]
    tracer = spans.Tracer(spans.TARGETS + ["linalg.no_such_function", "no_such_module.f"])
    with tracer.active():
        case.run()
    assert tracer.absent == ["linalg.no_such_function", "no_such_module.f"]
    assert tracer.metrics(1)["linalg.no_such_function.calls"] == (0.0, "calls/solve")


def test_self_times_add_up_to_the_solve(tmp_path):
    import time

    import optlp.solver

    case = workloads.dense_n1024(0, tmp_path, tiny=True)[0]
    original = optlp.solver.build_factors
    tracer = spans.Tracer()
    with tracer.active():
        assert optlp.solver.build_factors is not original
        start = time.perf_counter()
        case.run()
        wall = time.perf_counter() - start
    assert optlp.solver.build_factors is original
    assert 0.9 * wall < tracer.total_self_s() <= wall
    # build_factors encloses two qr_thin spans, so its self time is less than its duration
    assert tracer.self_s["direction.build_factors"] < tracer.counters["direction.build_factors.total_s"]
    assert tracer.calls["solver.solve"] == 1
    iterations = tracer.calls["direction.build_factors"]
    assert sum(tracer.counters[f"stepsel.origin.{o}"] for o in spans.ORIGINS) == iterations
