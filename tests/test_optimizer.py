from dataclasses import replace

import numpy as np
import pytest

from fcpso.archive import non_dominated_mask
from fcpso.mutation import MutationConfig
from fcpso.optimizer import RunConfig, run
from fcpso.problems import get_problem
from fcpso.swarm import DynamicsConfig


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

    def test_metadata(self):
        problem = get_problem("zdt1")
        result = run(problem, quick_cfg(variant="em-smpso"), seed=9)
        assert result.problem == "zdt1"
        assert result.variant == "em-smpso"
        assert result.scheme == (3.0, 5.0, 0.0, 1.0)
        assert result.seed == 9
        assert result.wall_time > 0.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RunConfig(dynamics=DynamicsConfig(swarm_size=100), max_evaluations=50)
        with pytest.raises(ValueError):
            RunConfig(hv_target_fraction=1.5)


class TestHvTarget:
    def test_target_zero_stops_immediately(self):
        problem = get_problem("zdt1")
        result = run(problem, replace(quick_cfg(swarm=20, evals=2000), hv_target_fraction=0.0), seed=1)
        assert result.evaluations_used == 20
        assert len(result.hv_trace) == 1

    def test_unreachable_target_exhausts_budget(self):
        problem = get_problem("zdt1")
        cfg = quick_cfg(swarm=20, evals=200)
        result = run(problem, replace(cfg, hv_target_fraction=1.0), seed=1)
        assert result.evaluations_used == 200

    def test_missing_reference_hv_rejected(self):
        problem = get_problem("dtlz2", 3)
        with pytest.raises(ValueError, match="reference hypervolume"):
            run(problem, replace(quick_cfg(), hv_target_fraction=0.95), seed=1)

    def test_explicit_reference_hv_override(self):
        problem = replace(get_problem("dtlz2", 3), reference_hv=7.0)
        result = run(problem, replace(quick_cfg(evals=400), hv_target_fraction=0.01), seed=1)
        assert result.evaluations_used == 20  # the initial swarm already meets 0.01 x 7
        assert get_problem("dtlz2", 3).reference_hv is None  # the cached instance is untouched

    def test_trace_recorded_and_tolerably_monotone(self):
        problem = get_problem("zdt1")
        cfg = quick_cfg(swarm=20, evals=4000)
        result = run(problem, replace(cfg, hv_target_fraction=0.95), seed=4)
        evals, hvs = zip(*result.hv_trace)
        assert list(evals) == sorted(evals)
        hvs = np.array(hvs)
        # crowding eviction may dent the archive hv; dips stay below 1%
        drops = np.maximum(hvs[:-1] - hvs[1:], 0.0)
        assert np.all(drops <= 0.01 * np.maximum(hvs[:-1], 1e-12))

    def test_record_interval_in_budget_mode(self):
        problem = get_problem("zdt1")
        cfg = quick_cfg(swarm=20, evals=400, record_interval=5)
        result = run(problem, cfg, seed=1)
        # the initial swarm and generations 5, 10, 15 of the 19 the budget allows
        assert [evals for evals, _ in result.hv_trace] == [20, 120, 220, 320]

    @pytest.mark.parametrize("variant", ["smpso", "fcpso"])
    def test_traced_budget_run_starts_with_the_target_run(self, variant):
        problem = get_problem("zdt1")
        cfg = quick_cfg(variant=variant, swarm=20, evals=4000)
        target = run(problem, replace(cfg, hv_target_fraction=0.5), seed=2)
        budget = run(problem, replace(cfg, record_interval=1), seed=2)
        assert target.evaluations_used < budget.evaluations_used
        assert budget.hv_trace[: len(target.hv_trace)] == target.hv_trace
        assert len(budget.hv_trace) == budget.evaluations_used // 20

    def test_a_stalled_archive_repeats_its_traced_value_bitwise(self, monkeypatch):
        # most dtlz1:5 candidates are dominated, so many generations leave
        # the archive as it was: their trace points reuse the last value,
        # which must be the hypervolume the per-particle loop computes afresh
        from loop_oracle import run_oracle

        from fcpso import optimizer

        problem = get_problem("dtlz1", 5)
        cfg = quick_cfg(swarm=20, evals=2000, archive_capacity=100, record_interval=1)
        computed = []
        hypervolume = optimizer.hypervolume
        monkeypatch.setattr(optimizer, "hypervolume", lambda *args: computed.append(1) or hypervolume(*args))
        result = run(problem, cfg, seed=1)
        assert len(computed) < len(result.hv_trace) == 100
        assert result.hv_trace == run_oracle(problem, cfg, seed=1).hv_trace


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
