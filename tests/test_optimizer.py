from dataclasses import fields, replace

import numpy as np
import pytest

from fcpso.archive import non_dominated_mask
from fcpso.indicators import HvTrace
from fcpso.mutation import MutationConfig
from fcpso.optimizer import RunConfig, RunResult, run
from fcpso.problems import get_problem
from fcpso.swarm import DynamicsConfig, initialize_swarm


def quick_cfg(variant="fcpso", swarm=20, evals=600, **kwargs):
    return RunConfig(
        dynamics=DynamicsConfig(variant=variant, swarm_size=swarm),
        max_evaluations=evals,
        archive_capacity=kwargs.pop("archive_capacity", 20),
        **kwargs,
    )


class TestRunBasics:
    def test_degenerate_budget_returns_initial_non_dominated_set(self):
        problem = get_problem("zdt1")
        cfg = quick_cfg(swarm=30, evals=30, archive_capacity=100)
        result = run(problem, cfg, seed=5)
        assert result.evaluations_used == 30
        # archive must equal the non-dominated subset of the initial swarm
        rng = np.random.default_rng(5)
        points = np.array([rng.uniform(problem.bounds.lower, problem.bounds.upper) for _ in range(30)])
        objs = np.array([problem.evaluate(x) for x in points])
        expected = objs[non_dominated_mask(objs)]
        got = result.front_objectives
        assert got.shape == expected.shape
        assert {tuple(r) for r in np.round(got, 12)} == {tuple(r) for r in np.round(expected, 12)}

    def test_evaluation_accounting(self):
        problem = get_problem("zdt1")
        result = run(problem, quick_cfg(swarm=25, evals=500), seed=1)
        assert result.evaluations_used == 500  # 25 * (19 + 1)
        assert result.evaluations_used % 25 == 0

    def test_budget_never_exceeded(self):
        problem = get_problem("zdt1")
        result = run(problem, quick_cfg(swarm=30, evals=100), seed=1)
        assert result.evaluations_used == 90  # 3 waves of 30

    def test_deterministic(self):
        problem = get_problem("zdt3")
        a = run(problem, quick_cfg(), seed=11)
        b = run(problem, quick_cfg(), seed=11)
        np.testing.assert_array_equal(a.front_objectives, b.front_objectives)
        np.testing.assert_array_equal(a.front_positions, b.front_positions)
        assert a.evaluations_used == b.evaluations_used

    def test_seeds_differ(self):
        problem = get_problem("zdt3")
        a = run(problem, quick_cfg(), seed=11)
        b = run(problem, quick_cfg(), seed=12)
        assert a.front_objectives.shape != b.front_objectives.shape or not np.array_equal(
            a.front_objectives, b.front_objectives
        )

    def test_front_is_mutually_non_dominated_and_feasible(self):
        problem = get_problem("zdt4")
        result = run(problem, quick_cfg(variant="smpso"), seed=3)
        assert non_dominated_mask(result.front_objectives).all()
        for x in result.front_positions:
            assert np.all(x >= problem.bounds.lower) and np.all(x <= problem.bounds.upper)

    def test_capacity_respected(self):
        problem = get_problem("zdt1")
        result = run(problem, quick_cfg(archive_capacity=8, evals=800), seed=2)
        assert result.front_size <= 8

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RunConfig(dynamics=DynamicsConfig(swarm_size=100), max_evaluations=50)

    @pytest.mark.parametrize("key, value", [
        ("archive_capacity", 1.5), ("archive_capacity", True), ("max_evaluations", 250.7),
        ("max_evaluations", 300.0),
    ])
    def test_a_non_integer_count_is_refused_naming_it(self, key, value):
        with pytest.raises(ValueError, match=f"{key} must be an integer, got {value!r}"):
            RunConfig(**{key: value})
        assert getattr(RunConfig(**{key: np.int64(300)}), key) == 300

    @pytest.mark.parametrize("seed, refusal", [
        (True, "seed must be an integer, got True"),
        (1.5, "seed must be an integer, got 1.5"),
        (-1, "seed must be >= 0, got -1"),
    ])
    def test_a_seed_that_is_not_a_count_is_refused_naming_it(self, seed, refusal):
        with pytest.raises(ValueError, match=refusal):
            run(get_problem("zdt1"), RunConfig(max_evaluations=200), seed)

    def test_a_config_holds_only_the_run_settings(self):
        assert [f.name for f in fields(RunConfig)] == ["dynamics", "mutation", "max_evaluations", "archive_capacity"]

    def test_a_result_holds_only_what_the_run_produced(self):
        assert [f.name for f in fields(RunResult)] == ["front_objectives", "front_positions", "evaluations_used"]
        result = run(get_problem("zdt1"), quick_cfg(), seed=9)
        assert result.front_size == len(result.front_objectives) == len(result.front_positions)


def counted(problem):
    """``problem`` with an evaluator that appends each point it is given to
    the returned list."""
    calls = []

    def evaluate(x):
        calls.append(x)
        return problem.evaluate(x)

    return replace(problem, evaluate=evaluate), calls


class TestEvaluationCount:
    def test_the_initial_swarm_is_drawn_not_evaluated(self):
        problem, calls = counted(get_problem("zdt1"))
        initialize_swarm(problem, DynamicsConfig(swarm_size=20), np.random.default_rng(1))
        assert calls == []

    @pytest.mark.parametrize("evals, target", [(450, None), (4000, 0.5)], ids=["budget", "target"])
    def test_a_run_evaluates_exactly_the_evaluations_it_reports(self, evals, target):
        problem, calls = counted(get_problem("zdt1"))
        trace = None if target is None else HvTrace(problem, target)
        result = run(problem, quick_cfg(swarm=20, evals=evals), seed=2, observe=trace)
        assert len(calls) == result.evaluations_used
        if target is None:
            assert result.evaluations_used == 440  # 450 is no multiple of the swarm
        else:
            assert result.evaluations_used < evals  # the target stopped the run


class TestObserver:
    @pytest.mark.parametrize("variant", ["smpso", "fcpso"])
    def test_an_observer_that_never_stops_changes_nothing(self, variant):
        problem, cfg = get_problem("zdt2"), quick_cfg(variant=variant, evals=400)
        watched, plain = run(problem, cfg, seed=4, observe=lambda e, a: False), run(problem, cfg, seed=4)
        assert watched.front_objectives.tobytes() == plain.front_objectives.tobytes()
        assert watched.front_positions.tobytes() == plain.front_positions.tobytes()
        assert watched.evaluations_used == plain.evaluations_used

    def test_a_true_return_at_generation_0_stops_after_the_initial_swarm(self):
        result = run(get_problem("zdt1"), quick_cfg(swarm=20, evals=2000), seed=1, observe=lambda e, a: True)
        assert result.evaluations_used == 20

    def test_the_observer_sees_every_generation_and_the_archive(self):
        seen = []

        def observe(evaluations, archive):
            seen.append((evaluations, archive.objectives_array().copy()))
            return False

        result = run(get_problem("zdt1"), quick_cfg(swarm=25, evals=260), seed=3, observe=observe)
        assert [e for e, _ in seen] == list(range(25, 251, 25)) and result.evaluations_used == 250
        assert seen[-1][1].tobytes() == result.front_objectives.tobytes()


class TestHvTarget:
    def test_target_zero_stops_immediately(self):
        problem = get_problem("zdt1")
        trace = HvTrace(problem, 0.0)
        result = run(problem, quick_cfg(swarm=20, evals=2000), seed=1, observe=trace)
        assert result.evaluations_used == 20
        assert len(trace.points) == 1

    def test_unreachable_target_exhausts_budget(self):
        problem = get_problem("zdt1")
        result = run(problem, quick_cfg(swarm=20, evals=200), seed=1, observe=HvTrace(problem, 1.0))
        assert result.evaluations_used == 200

    def test_missing_reference_hv_rejected(self):
        with pytest.raises(ValueError, match="needs a reference hypervolume, and dtlz2 has none"):
            HvTrace(get_problem("dtlz2", 3), 0.95)
        assert HvTrace(get_problem("dtlz2", 3)).points == []  # a bare trace needs no reference

    @pytest.mark.parametrize("fraction, refusal", [
        (1.5, "must lie in [0, 1]"), (-0.1, "must lie in [0, 1]"), (float("nan"), "must lie in [0, 1]"),
        (True, "must be a real number"), (np.True_, "must be a real number"), ("0.5", "must be a real number"),
    ])
    def test_a_bad_fraction_is_refused_naming_it(self, fraction, refusal):
        with pytest.raises(ValueError) as exc:
            HvTrace(get_problem("zdt1"), fraction)
        assert str(exc.value) == f"fraction {refusal}, got {fraction!r}"
        for kept in (0, 1, 0.5, np.float32(0.25)):
            assert HvTrace(get_problem("zdt1"), kept).fraction == kept

    def test_explicit_reference_hv_override(self):
        problem = replace(get_problem("dtlz2", 3), reference_hv=7.0)
        result = run(problem, quick_cfg(evals=400), seed=1, observe=HvTrace(problem, 0.01))
        assert result.evaluations_used == 20  # the initial swarm already meets 0.01 x 7
        assert get_problem("dtlz2", 3).reference_hv is None  # the cached instance is untouched

    def test_trace_recorded_and_tolerably_monotone(self):
        problem = get_problem("zdt1")
        trace = HvTrace(problem, 0.95)
        run(problem, quick_cfg(swarm=20, evals=4000), seed=4, observe=trace)
        evals, hvs = zip(*trace.points)
        assert list(evals) == sorted(evals)
        hvs = np.array(hvs)
        # crowding eviction may dent the archive hv; dips stay below 1%
        drops = np.maximum(hvs[:-1] - hvs[1:], 0.0)
        assert np.all(drops <= 0.01 * np.maximum(hvs[:-1], 1e-12))

    @pytest.mark.parametrize("variant", ["smpso", "fcpso"])
    def test_traced_budget_run_starts_with_the_target_run(self, variant):
        problem = get_problem("zdt1")
        cfg = quick_cfg(variant=variant, swarm=20, evals=4000)
        target_trace, budget_trace = HvTrace(problem, 0.5), HvTrace(problem)
        target = run(problem, cfg, seed=2, observe=target_trace)
        budget = run(problem, cfg, seed=2, observe=budget_trace)
        assert target.evaluations_used < budget.evaluations_used
        assert budget_trace.points[: len(target_trace.points)] == target_trace.points
        assert len(budget_trace.points) == budget.evaluations_used // 20

    def test_a_stalled_archive_repeats_its_traced_value_bitwise(self):
        # most dtlz1:5 candidates are dominated, so many generations leave
        # the archive as it was: their trace points repeat the last value,
        # bitwise the hypervolume the per-particle loop computes
        from loop_oracle import run_oracle

        problem = get_problem("dtlz1", 5)
        cfg = quick_cfg(swarm=20, evals=2000, archive_capacity=100)
        trace, oracle_trace = HvTrace(problem), HvTrace(problem)
        run(problem, cfg, seed=1, observe=trace)
        run_oracle(problem, cfg, seed=1, observe=oracle_trace)
        values = [hv for _, hv in trace.points]
        assert len(values) == 100 and any(a == b for a, b in zip(values, values[1:]))
        assert trace.points == oracle_trace.points


class TestMutationInteraction:
    def test_disabling_turbulence_changes_trajectory(self):
        problem = get_problem("zdt1")
        base = quick_cfg()
        off = RunConfig(
            dynamics=base.dynamics,
            mutation=MutationConfig(particle_fraction=0.0),
            max_evaluations=base.max_evaluations,
            archive_capacity=base.archive_capacity,
        )
        a = run(problem, base, seed=6)
        b = run(problem, off, seed=6)
        assert not np.array_equal(a.front_objectives, b.front_objectives)
