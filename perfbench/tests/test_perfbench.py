"""Tests of the benchmark's own code: tracer arithmetic, the correctness
gate, the reference clock, the run-length rule, and the metric names it
emits against BENCHMARK.json."""

import json
import math
import signal
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import gate  # noqa: E402
import layertrace  # noqa: E402
import refclock  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_self_time_of_nested_spans(tmp_path):
    # run [0, 10] -> try_insert [1, 7] -> dominates [2, 4]
    tracer = layertrace.Tracer(tmp_path, clock=FakeClock([0, 1, 2, 4, 7, 10]))
    site = layertrace._Site

    def dominates():
        return True

    def try_insert():
        traced_dominates()
        return "replaced-crowded"

    def run_():
        return traced_insert()

    traced_dominates = tracer._wrap(dominates, site("archive", "dominates", None))
    traced_insert = tracer._wrap(
        try_insert, site("archive", "try_insert", layertrace.role_for("archive", "try_insert"))
    )
    traced_run = tracer._wrap(run_, site("optimizer", "run", layertrace.role_for("optimizer", "run")))

    assert traced_run() == "replaced-crowded"
    stats = tracer.collect()
    # the helper has no role of its own: its 2 s are charged to its caller's
    assert stats["archive.insert.s"] == 6  # 4 self + 2 from dominates
    assert stats["archive.insert.calls"] == 1
    assert stats["archive.insert.replaced_crowded"] == 1
    assert stats["optimizer.run.s"] == 4  # 10 minus the 6 nested
    assert stats["optimizer.run.calls"] == 1
    assert stats["trace.span_self_s"] == 10


def test_tracer_counts_a_real_solve_and_restores_the_program(tmp_path):
    from fcpso import optimizer, problems
    from fcpso.optimizer import RunConfig
    from fcpso.swarm import DynamicsConfig

    original = optimizer.run
    problem = problems.get_problem("zdt1")
    cfg = RunConfig(dynamics=DynamicsConfig(variant="fcpso"), max_evaluations=300)
    with layertrace.Tracer(tmp_path) as tracer:
        result = optimizer.run(problems.get_problem("zdt1"), cfg, seed=3)
        stats = tracer.collect()
    assert optimizer.run is original
    untraced = optimizer.run(problem, cfg, seed=3)
    np.testing.assert_array_equal(result.front_objectives, untraced.front_objectives)

    metrics = run.layer_metrics(stats, traced_wall=1.0, untraced_wall=1.0, tasks=0)
    assert metrics["archive.insert_calls"] == 300
    outcomes = metrics["archive.inserted"] + metrics["archive.dominated"] + metrics["archive.replaced_crowded"]
    assert outcomes == 300
    assert metrics["problems.evaluate_calls"] == 300
    assert metrics["swarm.velocity_calls"] == 200
    assert metrics["constriction.chi_calls"] == 200
    assert metrics["optimizer.run_calls"] == 1
    assert stats["optimizer.run.evaluations"] == 300


def test_a_layer_whose_functions_disappear_reports_zero_calls(tmp_path, monkeypatch):
    from fcpso import optimizer, problems, swarm
    from fcpso.optimizer import RunConfig
    from fcpso.swarm import DynamicsConfig

    # as if a refactor had folded pbest into another function
    for module in (swarm, optimizer):
        monkeypatch.delattr(module, "compute_speed_smpso")
    monkeypatch.delattr(swarm, "update_pbest")
    monkeypatch.setattr(optimizer, "update_pbest", lambda p, y, rng: None)
    cfg = RunConfig(dynamics=DynamicsConfig(variant="fcpso"), max_evaluations=200)
    with layertrace.Tracer(tmp_path) as tracer:
        optimizer.run(problems.get_problem("zdt1"), cfg, seed=1)
        stats = tracer.collect()
    metrics = run.layer_metrics(stats, traced_wall=1.0, untraced_wall=1.0, tasks=0)
    assert metrics["swarm.pbest_s"] == 0.0
    assert metrics["swarm.velocity_calls"] == 100


def _front(objectives, n_var=2):
    F = np.asarray(objectives, dtype=float)
    return SimpleNamespace(
        front_objectives=F,
        front_positions=np.full((F.shape[0], n_var), 0.5),
        evaluations_used=1000,
    )


PROBLEM = SimpleNamespace(
    n_obj=2, n_var=2, bounds=SimpleNamespace(lower=np.zeros(2), upper=np.ones(2))
)


def test_gate_accepts_a_clean_front():
    assert gate.check_front(_front([[0.0, 1.0], [0.5, 0.5], [1.0, 0.0]]), PROBLEM, 1000, 100) == []


def test_gate_rejects_an_injected_dominated_point():
    bad = gate.check_front(_front([[0.0, 1.0], [0.5, 0.5], [0.6, 0.6], [1.0, 0.0]]), PROBLEM, 1000, 100)
    assert any("dominated" in b for b in bad)


def test_gate_rejects_a_nan_objective():
    bad = gate.check_front(_front([[0.0, 1.0], [math.nan, 0.5]]), PROBLEM, 1000, 100)
    assert any("non-finite" in b for b in bad)


def test_gate_rejects_bounds_capacity_and_budget_breaches():
    result = _front([[0.0, 1.0], [1.0, 0.0]])
    result.front_positions[0, 0] = 1.5
    result.evaluations_used = 900
    bad = gate.check_front(result, PROBLEM, 1000, 1)
    assert len(bad) == 3


def test_gate_rejects_error_rows_and_bad_p_values():
    spec = SimpleNamespace(problems=("zdt1",), indicators=("igd", "fe"), max_evaluations=5000)
    row = dict(problem="zdt1", variant_a="smpso", variant_b="fcpso", error=None, winner="tie")
    good = SimpleNamespace(indicator="igd", median_a=0.1, median_b=0.2, p_value=0.3, **row)
    assert gate.check_batch([good, SimpleNamespace(**{**vars(good), "indicator": "fe",
                                                       "median_a": 4000.0, "median_b": 5000.0})], spec) == [[], []]
    bad_p = SimpleNamespace(**{**vars(good), "p_value": 1.5})
    err = SimpleNamespace(**{**vars(good), "error": "boom", "winner": "error"})
    assert all(gate.check_batch([bad_p, err], spec))
    assert gate.check_batch([good], spec)[-1]  # a missing row is a failure


def _names(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_end_to_end_metric_names_match_benchmark_json():
    p = workloads.Pass(
        ref_wall_s=2.0, ref_solve_s=[1.0], ref_indicator_s=0.1, evaluations=10, igd=[0.1], failures=[[]]
    )
    values = run.end_to_end_metrics([p], [0.5], 50.0)
    assert set(values) == set(_names("end_to_end"))
    assert dict(run.END_TO_END) == _names("end_to_end")
    assert all(v != 0 for v in values.values())


def test_a_call_scales_by_the_loops_timed_around_it(monkeypatch):
    loops = iter([0.1, 0.3, 0.5])
    monkeypatch.setattr(refclock, "reference_loop", lambda: next(loops))
    clock = refclock.RefClock()
    _, raw, ref = clock.timed(lambda: None)
    assert ref == pytest.approx(raw * refclock.REFERENCE_S / 0.2)
    # the loop after one call is the loop before the next
    mark = clock.mark()
    assert clock.scale(2.0, mark) == pytest.approx(2.0 * refclock.REFERENCE_S / 0.4)
    assert clock.loops == [0.1, 0.3, 0.5]


def test_end_to_end_metrics_report_reference_seconds():
    p = workloads.Pass(
        wall_s=9.0, solve_s=[9.0, 9.0], indicator_s=9.0,
        ref_wall_s=2.0, ref_solve_s=[1.0, 3.0], ref_indicator_s=0.5,
        evaluations=10, igd=[0.1], failures=[[]],
    )
    values = run.end_to_end_metrics([p], [0.5], 50.0)
    assert values["wall_s"] == 2.0
    assert values["solve_s"] == 2.0
    assert values["indicator_s"] == 0.5
    assert values["evals_per_s"] == 5.0


def test_timer_loops_are_taken_off_the_timed_call(monkeypatch):
    monkeypatch.setattr(refclock, "reference_loop", lambda: (time.sleep(0.05), 0.02)[1])
    monkeypatch.setattr(refclock.signal, "setitimer", lambda *args: None)
    clock = refclock.RefClock()

    def call():  # as if the timer fired twice inside the call
        clock._on_timer(signal.SIGALRM, None)
        clock._on_timer(signal.SIGALRM, None)

    _, raw, ref = clock.timed(call)
    assert clock.sampled_s >= 0.1
    assert raw < 0.02
    assert ref == pytest.approx(raw * refclock.REFERENCE_S / 0.02)


def test_sampling_runs_loops_from_the_timer_and_stops_it(monkeypatch):
    monkeypatch.setattr(refclock, "SAMPLE_EVERY_S", 0.01)
    clock = refclock.RefClock()
    with clock.sampling():
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
    assert len(clock.loops) >= 2
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL


def test_a_run_ends_as_near_its_seconds_as_whole_passes_allow():
    assert run.fits_another_pass(elapsed=10.0, done=1, seconds=30)
    assert run.fits_another_pass(elapsed=16.0, done=1, seconds=30)  # 32 s beats 16 s
    assert not run.fits_another_pass(elapsed=22.0, done=1, seconds=30)  # 22 s beats 44 s
    assert not run.fits_another_pass(elapsed=24.0, done=2, seconds=30)


def test_per_layer_metric_names_match_benchmark_json():
    values = run.layer_metrics({}, traced_wall=1.0, untraced_wall=1.0, tasks=0)
    assert set(values) == set(_names("per_layer"))
    assert run.PER_LAYER_UNITS == _names("per_layer")


def test_benchmark_json_lists_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("seed", [1, 7])
def test_the_workload_seed_orders_each_pass(seed):
    items = workloads.BATCH_PROBLEMS
    assert workloads.pass_order(seed, 0, items) == workloads.pass_order(seed, 0, items)
    assert sorted(workloads.pass_order(seed, 1, items)) == sorted(items)
    assert len({tuple(workloads.pass_order(s, 0, items)) for s in range(20)}) > 1

