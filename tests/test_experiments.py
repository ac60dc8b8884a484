import os
import subprocess
import sys
from dataclasses import replace
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
import scipy.stats as st
from hypothesis import given, settings
from hypothesis import strategies as hst

from fcpso import experiments
from fcpso.experiments import (
    ComparisonRow,
    ExperimentSpec,
    ProfilePoint,
    _exact_u_counts,
    _execute,
    _run_cells,
    _Task,
    mann_whitney_p,
    median,
    run_experiment,
    unfairness_profile,
)
from fcpso.optimizer import RunConfig
from fcpso.swarm import DynamicsConfig


def enumeration_p(a, b):
    """Brute-force two-sided p over all rank assignments (tie-free only)."""
    a, b = list(a), list(b)
    n1, n = len(a), len(a) + len(b)
    pooled = sorted(a + b)
    ranks_of_a = sum(pooled.index(v) + 1 for v in a)
    u1 = ranks_of_a - n1 * (n1 + 1) / 2
    u2 = n1 * len(b) - u1
    lo = min(u1, u2)
    count = 0
    total = 0
    all_ranks = list(range(1, n + 1))
    for comb in combinations(all_ranks, n1):
        u = sum(comb) - n1 * (n1 + 1) / 2
        total += 1
        if u <= lo or u >= n1 * len(b) - lo:
            count += 1
    return count / total


class TestMannWhitney:
    def test_identical_samples(self):
        assert mann_whitney_p([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 1.0

    def test_fully_separated_exact(self):
        assert mann_whitney_p([1, 2, 3], [10, 20, 30]) == pytest.approx(0.1, abs=1e-15)

    def test_degenerate_constant(self):
        assert mann_whitney_p([5.0, 5.0, 5.0], [5.0, 5.0]) == 1.0

    def test_sample_size_validation(self):
        with pytest.raises(ValueError):
            mann_whitney_p([1.0], [2.0, 3.0])

    @pytest.mark.parametrize("a, b, named", [
        ([np.nan, 1.0], [2.0, 3.0], "sample_a"),
        ([1.0, 2.0, 3.0], [1.0, np.nan, 2.0], "sample_b"),
        ([1.0, np.nan, 2.0] * 6, [1.0, 2.0, 3.0] * 6, "sample_a"),  # the normal approximation's size
    ])
    def test_a_nan_is_refused_naming_its_sample(self, a, b, named):
        # np.unique sorts a NaN last, so it would silently rank as the largest value
        with pytest.raises(ValueError, match=f"{named} holds a NaN"):
            mann_whitney_p(a, b)

    def test_an_infinite_value_ranks_as_the_extreme(self):
        assert mann_whitney_p([np.inf, 1.0, 4.0], [2.0, 3.0, 5.0]) == mann_whitney_p([9.0, 1.0, 4.0], [2.0, 3.0, 5.0])
        assert mann_whitney_p([-np.inf, 1.0, 4.0], [2.0, 3.0, 5.0]) == mann_whitney_p([0.0, 1.0, 4.0], [2.0, 3.0, 5.0])

    @pytest.mark.parametrize(
        "a, b",
        [
            ([1.0, 2.0, 3.0], [10.0, 20.0, 30.0]),  # exact, p = 0.1
            ([1.0, 4.0], [2.0, 3.0]),  # exact, clamped to 1
            ([1.0, 2.0, 2.0], [3.0, 4.0, 5.0]),  # ties: normal
            (list(range(10)), list(range(5, 15))),  # 20 values: normal
            ([5.0, 5.0, 5.0], [5.0, 5.0]),  # no spread: 1
        ],
    )
    def test_p_is_a_python_float_on_every_branch(self, a, b):
        assert type(mann_whitney_p(a, b)) is float

    def test_u_counts_total(self):
        from math import comb

        for n1, n2 in [(2, 2), (3, 4), (5, 5), (8, 8)]:
            counts = _exact_u_counts(n1, n2)
            assert counts.sum() == comb(n1 + n2, n1)
            assert len(counts) == n1 * n2 + 1
            np.testing.assert_allclose(counts, counts[::-1])  # symmetry

    def test_exact_matches_enumeration(self, rng):
        for _ in range(60):
            a = rng.normal(size=int(rng.integers(2, 7)))
            b = rng.normal(size=int(rng.integers(2, 7)))
            assert mann_whitney_p(a, b) == pytest.approx(enumeration_p(a, b), abs=1e-12)

    def test_exact_matches_scipy(self, rng):
        for _ in range(100):
            a = rng.normal(size=8)
            b = rng.normal(size=8)
            expected = st.mannwhitneyu(a, b, alternative="two-sided", method="exact").pvalue
            assert mann_whitney_p(a, b) == pytest.approx(expected, abs=1e-12)

    def test_normal_approximation_close_to_exact(self, rng):
        worst = 0.0
        for _ in range(200):
            a = rng.normal(size=8)
            b = rng.normal(size=8)
            worst = max(worst, abs(mann_whitney_p(a, b) - _approx_p(a, b)))
        assert worst <= 0.02

    def test_tie_corrected_path_matches_scipy(self, rng):
        for _ in range(50):
            a = np.round(rng.normal(size=12), 1)
            b = np.round(rng.normal(size=14), 1)
            expected = st.mannwhitneyu(a, b, alternative="two-sided", method="asymptotic").pvalue
            assert mann_whitney_p(a, b) == pytest.approx(expected, abs=1e-9)


# any size, with repeated values and both signed zeros common
samples = hst.lists(hst.floats(-1e6, 1e6) | hst.sampled_from([0.0, -0.0, 1.0]), min_size=2, max_size=12)


@hst.composite
def tie_free_pair(draw):
    n1, n2 = draw(hst.integers(2, 7)), draw(hst.integers(2, 7))
    values = draw(hst.lists(hst.integers(-100, 100), min_size=n1 + n2, max_size=n1 + n2, unique=True))
    return [float(v) for v in values[:n1]], [float(v) for v in values[n1:]]


class TestMannWhitneyProperties:
    @settings(max_examples=200, deadline=None)
    @given(samples, samples)
    def test_symmetric_and_a_probability(self, a, b):
        p = mann_whitney_p(a, b)
        assert np.float64(p).tobytes() == np.float64(mann_whitney_p(b, a)).tobytes()
        assert 0.0 <= p <= 1.0

    @settings(max_examples=100, deadline=None)
    @given(tie_free_pair())
    def test_tie_free_matches_enumeration(self, pair):
        a, b = pair
        assert mann_whitney_p(a, b) == pytest.approx(enumeration_p(a, b), abs=1e-12)


def _approx_p(a, b):
    """The library's normal-approximation branch, forced."""
    import math

    a = np.asarray(a, float)
    b = np.asarray(b, float)
    n1, n2 = len(a), len(b)
    n = n1 + n2
    ranks = st.rankdata(np.concatenate([a, b]))
    u1 = float(ranks[:n1].sum()) - n1 * (n1 + 1) / 2
    sigma_sq = n1 * n2 / 12.0 * (n + 1)
    z = (abs(u1 - n1 * n2 / 2.0) - 0.5) / math.sqrt(sigma_sq)
    return math.erfc(max(z, 0.0) / math.sqrt(2.0))


class TestExperimentSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentSpec(problems=("zdt1",), repetitions=1)
        with pytest.raises(ValueError):
            ExperimentSpec(problems=("zdt1",), indicators=("hv", "banana"))
        with pytest.raises(ValueError):
            ExperimentSpec(problems=("zdt1",), variants=("smpso", "bogus"))
        with pytest.raises(ValueError, match="zdt99"):
            ExperimentSpec(problems=("zdt1", "zdt99"))
        with pytest.raises(ValueError, match="bi-objective"):
            ExperimentSpec(problems=("zdt1:3",))
        with pytest.raises(ValueError, match="two variants"):
            ExperimentSpec(problems=("zdt1",), variants=("smpso",))
        with pytest.raises(ValueError, match="variant 'fcpso' is repeated"):
            ExperimentSpec(problems=("zdt1",), variants=("fcpso", "smpso", "fcpso"))
        with pytest.raises(ValueError, match="indicator 'hv' is repeated"):
            ExperimentSpec(problems=("zdt1",), indicators=("hv", "igd", "hv"))
        with pytest.raises(ValueError):
            ExperimentSpec(problems=())
        with pytest.raises(ValueError):
            ExperimentSpec(problems=("zdt1",), indicators=())
        with pytest.raises(ValueError, match="max_evaluations"):
            ExperimentSpec(problems=("zdt1",), max_evaluations=50)
        with pytest.raises(ValueError, match="archive_capacity"):
            ExperimentSpec(problems=("zdt1",), archive_capacity=0)
        with pytest.raises(ValueError, match=r"hv_target_fraction must lie in \[0, 1\], got 1.5"):
            ExperimentSpec(problems=("zdt1",), hv_target_fraction=1.5)
        for value in (True, np.True_, "0.9"):
            with pytest.raises(ValueError, match=f"hv_target_fraction must be a real number, got {value!r}"):
                ExperimentSpec(problems=("zdt1",), hv_target_fraction=value)
        with pytest.raises(ValueError, match="base_seed"):
            ExperimentSpec(problems=("zdt1",), base_seed=-1)
        with pytest.raises(ValueError, match="fe indicator needs an hv_target_fraction"):
            ExperimentSpec(problems=("zdt1",), indicators=("fe",), hv_target_fraction=None)

    @pytest.mark.parametrize("key, value, good", [
        ("repetitions", 2.5, 5), ("repetitions", True, 5), ("base_seed", 1.5, 5), ("base_seed", False, 5),
        ("max_evaluations", 400.0, 500), ("swarm_size", 20.5, 20), ("archive_capacity", 1.5, 5),
    ])
    def test_a_non_integer_count_is_refused_naming_it(self, key, value, good):
        with pytest.raises(ValueError, match=f"{key} must be an integer, got {value!r}"):
            ExperimentSpec(problems=("zdt1",), **{key: value})
        assert getattr(ExperimentSpec(problems=("zdt1",), **{key: np.int64(good)}), key) == good


@pytest.fixture(scope="module")
def small_spec():
    return ExperimentSpec(
        problems=("zdt1", "zdt2"),
        variants=("smpso", "fcpso"),
        repetitions=3,
        indicators=("hv", "sp"),
        base_seed=7,
        max_evaluations=600,
        swarm_size=20,
        archive_capacity=20,
    )


class TestRunExperiment:
    def test_rows_complete(self, small_spec):
        rows = run_experiment(small_spec, workers=2)
        assert len(rows) == 4  # 2 problems x 2 indicators x 1 pair
        *scored, collapsed = rows
        # every zdt2 fcpso archive of seeds 7-9 is one point, which has no
        # spacing, so that row is an error row rather than a win at sp = 0
        assert (collapsed.problem, collapsed.indicator, collapsed.winner) == ("zdt2", "sp", "error")
        assert collapsed.error == "error: a one-point zdt2 front has no spacing"
        assert collapsed.p_value is None and collapsed.median_b is None
        for r in scored:
            assert r.winner in ("a", "b", "tie")
            assert 0.0 <= r.p_value <= 1.0
            assert r.median_a is not None and r.median_b is not None

    def test_bit_reproducible(self, small_spec):
        assert run_experiment(small_spec, workers=2) == run_experiment(small_spec, workers=1)

    @pytest.mark.parametrize("workers, refusal", [
        (0, "workers must be >= 1, got 0"),
        (-3, "workers must be >= 1, got -3"),
        (True, "workers must be an integer, got True"),
    ], ids=["0", "-3", "True"])
    def test_bad_workers_raise_before_any_run(self, monkeypatch, small_spec, workers, refusal):
        started = []
        monkeypatch.setattr(experiments, "run", lambda *args: started.append("run"))
        with pytest.raises(ValueError, match=refusal):
            run_experiment(small_spec, workers=workers)
        assert started == []

    def test_the_pool_is_never_larger_than_the_task_count(self, monkeypatch):
        # a fake pool that runs in this process: a real one forks all its workers at the first submit
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks, chunksize=1):
                return map(fn, tasks)

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingPool)
        spec = ExperimentSpec(problems=("zdt1",), repetitions=2, max_evaluations=40, swarm_size=20, archive_capacity=20)
        rows = run_experiment(spec, workers=64)
        assert sizes == [4]  # 2 variants x 2 seeds
        assert rows == run_experiment(spec, workers=1) and sizes == [4]
        one_task = {"smpso": spec.run_config("smpso")}
        _run_cells(("zdt1",), one_task, 1, 1, ("hv",), 64)
        assert sizes == [4]  # one task runs serially, with no pool

    def test_default_workers_are_the_usable_cpus(self):
        assert experiments._check_workers(None) == len(os.sched_getaffinity(0))

    def test_identical_samples_are_a_tie_with_p_one(self):
        # a budget of one swarm evaluation leaves each variant the archive
        # of the same initial swarm, so paired seeds give identical samples
        spec = ExperimentSpec(
            problems=("zdt1",),
            repetitions=3,
            indicators=("igd",),
            base_seed=3,
            max_evaluations=20,
            swarm_size=20,
        )
        (row,) = run_experiment(spec, workers=1)
        assert row.median_a == row.median_b
        assert row.p_value == 1.0
        assert row.winner == "tie"

    @pytest.mark.parametrize("ind", ["hv", "igd"])
    def test_a_significantly_better_sample_wins_on_either_side(self, ind):
        # five against five with no overlap: the exact two-sided p is 2/252
        low = [{ind: 0.1 + 0.01 * i} for i in range(5)]
        high = [{ind: 0.5 + 0.01 * i} for i in range(5)]
        better, worse = (high, low) if ind == "hv" else (low, high)
        assert experiments._compare_cell("zdt1", ind, "x", "y", better, worse).winner == "a"
        assert experiments._compare_cell("zdt1", ind, "x", "y", worse, better).winner == "b"

    def test_repeated_problem_is_run_once(self, monkeypatch):
        spec = ExperimentSpec(
            problems=("zdt1",), repetitions=4, max_evaluations=1000, swarm_size=20, archive_capacity=20,
        )
        (pair,) = run_experiment(spec, workers=1)
        runs = []
        real_run = experiments.run
        monkeypatch.setattr(experiments, "run", lambda *args, **kw: runs.append(args) or real_run(*args, **kw))
        assert run_experiment(replace(spec, problems=("zdt1", "zdt1")), workers=1) == [pair, pair]
        assert len(runs) == 8  # 2 variants x 4 seeds

    def test_spellings_of_one_problem_share_a_cell(self, monkeypatch):
        spec = ExperimentSpec(
            problems=("dtlz2",), repetitions=2, max_evaluations=400, swarm_size=20, archive_capacity=20,
        )
        (single,) = run_experiment(spec, workers=1)
        tasks = []
        real_execute = experiments._execute
        monkeypatch.setattr(experiments, "_execute", lambda task: tasks.append(task) or real_execute(task))
        spellings = ("dtlz2", "dtlz2:3", "DTLZ2:3")
        rows = run_experiment(replace(spec, problems=spellings), workers=1)
        assert len(tasks) == 4  # 2 variants x 2 seeds, not 12
        assert [r.problem for r in rows] == list(spellings)
        assert [replace(r, problem="dtlz2") for r in rows] == [single] * 3
        tasks.clear()
        configs = {"a": spec.run_config("smpso"), "b": spec.run_config("fcpso")}
        cells = _run_cells(spellings, configs, 2, 1, ("hv",), 1)
        assert len(tasks) == 4
        assert list(cells) == [(pid, key) for pid in spellings for key in "ab"]

    def test_missing_reference_front_becomes_error_row(self):
        spec = ExperimentSpec(
            problems=("wfg1:5",),
            variants=("smpso", "fcpso"),
            repetitions=2,
            indicators=("igd",),
            max_evaluations=120,
            swarm_size=20,
        )
        rows = run_experiment(spec, workers=1)
        assert rows[0].winner == "error"
        assert "no reference front" in rows[0].error

    def test_fe_indicator_uses_hv_protocol(self):
        spec = ExperimentSpec(
            problems=("zdt1",),
            variants=("smpso", "fcpso"),
            repetitions=2,
            indicators=("fe",),
            base_seed=1,
            max_evaluations=4000,
            swarm_size=20,
            hv_target_fraction=0.5,
        )
        rows = run_experiment(spec, workers=1)
        # direct runs to half the reference hv stop at smpso 2460/2560 and
        # fcpso 1780/1620 evaluations (seeds 1/2); at 0.95 all four runs
        # use up the 4000-evaluation budget
        assert (rows[0].median_a, rows[0].median_b) == (2510.0, 1700.0)


class TestOneRunPerTask:
    @staticmethod
    def task(problem_id, indicators, variant="fcpso", hv_target_fraction=0.5, **changes):
        cfg = RunConfig(
            dynamics=DynamicsConfig(variant=variant, swarm_size=20),
            max_evaluations=4000,
            archive_capacity=20,
        )
        return _Task(problem_id, 1, replace(cfg, **changes), indicators, hv_target_fraction)

    @pytest.fixture
    def runs(self, monkeypatch):
        """The observer of each run ``experiments`` makes, in order."""
        calls = []
        real_run = experiments.run

        def counted(problem, cfg, seed, observe=None):
            calls.append(observe)
            return real_run(problem, cfg, seed, observe=observe)

        monkeypatch.setattr(experiments, "run", counted)
        return calls

    @pytest.mark.parametrize("variant", ["smpso", "fcpso"])
    def test_fe_alone_and_with_other_indicators_agree(self, runs, variant):
        alone = _execute(self.task("zdt1", ("fe",), variant))
        assert len(runs) == 1 and runs[0].fraction == 0.5
        full = _execute(self.task("zdt1", ("hv", "igd", "fe"), variant))
        assert len(runs) == 2 and runs[1].fraction is None
        assert full["fe"] == alone["fe"] < 4000
        assert runs[1].points[: len(runs[0].points)] == runs[0].points
        hv_only = _execute(self.task("zdt1", ("hv",), variant))
        assert len(runs) == 3 and runs[2] is None
        assert hv_only["hv"] == full["hv"]

    def test_unreached_target_reports_the_whole_budget(self, runs):
        metrics = _execute(self.task("zdt1", ("hv", "fe"), hv_target_fraction=1.0, max_evaluations=400))
        assert len(runs) == 1 and metrics["fe"] == 400.0

    def test_missing_reference_hv_is_an_error_value(self, runs):
        metrics = _execute(self.task("dtlz2:3", ("fe",)))
        assert runs == [] and metrics["fe"] == "error: no reference hypervolume for dtlz2"


class TestUnfairnessProfile:
    def test_profile_runs_and_normalizes(self):
        points, notices = unfairness_profile(
            ["zdt1"], [-0.2, 0.0, 0.49], repetitions=2, base_seed=1,
            max_evaluations=400, swarm_size=20, workers=1,
        )
        assert len(points) == 2  # 0.49 unreachable
        assert len(notices) == 1 and "0.49" in notices[0]
        for p in points:
            assert p.problem == "zdt1"
            assert p.normalized_hv > 0.0

    def test_repeated_mu_and_signed_zeros_share_one_cell(self, monkeypatch):
        kwargs = dict(repetitions=2, base_seed=1, max_evaluations=400, swarm_size=20, workers=1)
        single = {mu: unfairness_profile(["zdt1"], [mu], **kwargs)[0][0] for mu in (0.2, -0.0)}
        runs = []
        real_run = experiments.run
        monkeypatch.setattr(experiments, "run", lambda *args, **kw: runs.append(args) or real_run(*args, **kw))
        points, notices = unfairness_profile(["zdt1"], [0.2, -0.0, 0.2, 0.49, 0.0], **kwargs)
        assert len(runs) == 2 * 3  # the baseline, 0.2 and 0.0, two seeds each
        assert len(notices) == 1 and "0.49" in notices[0]
        assert [str(p.mu) for p in points] == ["0.2", "-0.0", "0.2", "0.0"]
        assert points[:3] == [single[0.2], single[-0.0], single[0.2]]
        assert points[3].normalized_hv == single[-0.0].normalized_hv

    @pytest.mark.parametrize("changes, match", [
        (dict(repetitions=0), "repetitions must be >= 1"),
        (dict(base_seed=-1, workers=2), "base_seed must be >= 0, got -1"),
        (dict(problems=["zdt1", "zdt99"]), "zdt99"),
        (dict(problems=[]), "no problems to run"),
        (dict(workers=0), "workers must be >= 1, got 0"),
        (dict(workers=-3), "workers must be >= 1, got -3"),
        (dict(workers=2.0), "workers must be an integer, got 2.0"),
    ])
    def test_bad_input_raises_before_any_run(self, monkeypatch, changes, match):
        started = []
        monkeypatch.setattr(experiments, "run", lambda *args: started.append("run"))
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", lambda **kw: started.append("pool"))
        kwargs = dict(problems=["zdt1"], mu_grid=[0.1], repetitions=2, max_evaluations=400, swarm_size=20, workers=1)
        with pytest.raises(ValueError, match=match) as exc:
            unfairness_profile(**{**kwargs, **changes})
        assert started == [] and "variant" not in str(exc.value)

    def test_grid_without_a_reachable_mu_runs_nothing(self, monkeypatch):
        runs = []
        monkeypatch.setattr(experiments, "run", lambda *args: runs.append(args))
        points, notices = unfairness_profile(["zdt1"], [0.49, 0.6], repetitions=2, workers=1)
        assert points == [] and runs == []
        assert [n.split(":")[0] for n in notices] == ["mu=0.49", "mu=0.6"]

    def test_profile_deterministic(self):
        kwargs = dict(repetitions=2, base_seed=5, max_evaluations=400, swarm_size=20, workers=1)
        a, _ = unfairness_profile(["zdt3"], [0.1], **kwargs)
        b, _ = unfairness_profile(["zdt3"], [0.1], **kwargs)
        assert a == b


def test_median_helper():
    assert median([3.0, 1.0, 2.0]) == 2.0


def test_import_loads_no_pool_stack_and_no_logging():
    # only a batch that fans out starts a pool, so only it pays for the import
    src = str(Path(experiments.__file__).resolve().parent.parent)
    probe = "import sys, fcpso.cli, fcpso.experiments; print(*sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": src},
    )
    assert done.returncode == 0, done.stderr
    loaded = set(done.stdout.split())
    assert {"concurrent.futures.process", "multiprocessing", "logging"}.isdisjoint(loaded)
