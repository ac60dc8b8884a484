from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest
import scipy.stats as st

from fcpso import experiments
from fcpso.experiments import (
    ComparisonRow,
    ExperimentSpec,
    ProfilePoint,
    _exact_u_counts,
    _execute,
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


def _approx_p(a, b):
    """The library's normal-approximation branch, forced."""
    import math

    from fcpso.experiments import _midranks

    a = np.asarray(a, float)
    b = np.asarray(b, float)
    n1, n2 = len(a), len(b)
    n = n1 + n2
    ranks = _midranks(np.concatenate([a, b]))
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
        with pytest.raises(ValueError):
            ExperimentSpec(problems=())
        with pytest.raises(ValueError):
            ExperimentSpec(problems=("zdt1",), indicators=())
        with pytest.raises(ValueError, match="max_evaluations"):
            ExperimentSpec(problems=("zdt1",), max_evaluations=50)
        with pytest.raises(ValueError, match="archive_capacity"):
            ExperimentSpec(problems=("zdt1",), archive_capacity=0)
        with pytest.raises(ValueError, match="hv_target_fraction"):
            ExperimentSpec(problems=("zdt1",), hv_target_fraction=1.5)


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
        for r in rows:
            assert r.winner in ("a", "b", "tie")
            assert 0.0 <= r.p_value <= 1.0
            assert r.median_a is not None and r.median_b is not None

    def test_bit_reproducible(self, small_spec):
        assert run_experiment(small_spec, workers=2) == run_experiment(small_spec, workers=1)

    def test_self_comparison_is_tie_with_p_one(self):
        spec = ExperimentSpec(
            problems=("zdt1",),
            variants=("smpso", "smpso"),
            repetitions=3,
            indicators=("hv",),
            base_seed=3,
            max_evaluations=400,
            swarm_size=20,
        )
        rows = run_experiment(spec, workers=1)
        assert rows[0].p_value == 1.0  # paired seeds give identical samples
        assert rows[0].winner == "tie"

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
        # direct runs to half the reference hv stop at smpso 2040/2120 and
        # fcpso 1420/1700 evaluations (seeds 1/2); at 0.95 the medians are 3600/3660
        assert (rows[0].median_a, rows[0].median_b) == (2080.0, 1560.0)


class TestOneRunPerTask:
    CFG = RunConfig(
        dynamics=DynamicsConfig(swarm_size=20),
        max_evaluations=4000,
        archive_capacity=20,
        hv_target_fraction=0.5,
    )

    @pytest.fixture
    def runs(self, monkeypatch):
        calls = []
        real_run = experiments.run

        def counted(problem, cfg, seed=None):
            calls.append(cfg)
            return real_run(problem, cfg, seed)

        monkeypatch.setattr(experiments, "run", counted)
        return calls

    @pytest.mark.parametrize("variant", ["smpso", "fcpso"])
    def test_fe_alone_and_with_other_indicators_agree(self, runs, variant):
        alone = _execute(_Task("zdt1", variant, None, 1, self.CFG, ("fe",)))
        assert len(runs) == 1 and runs[0].hv_target_fraction == 0.5
        full = _execute(_Task("zdt1", variant, None, 1, self.CFG, ("hv", "igd", "fe")))
        assert len(runs) == 2 and runs[1].hv_target_fraction is None
        assert full["fe"] == alone["fe"] < 4000
        hv_only = _execute(_Task("zdt1", variant, None, 1, self.CFG, ("hv",)))
        assert len(runs) == 3 and runs[2].hv_target_fraction is None
        assert hv_only["hv"] == full["hv"]

    def test_unreached_target_reports_the_whole_budget(self, runs):
        cfg = replace(self.CFG, hv_target_fraction=1.0, max_evaluations=400)
        metrics = _execute(_Task("zdt1", "fcpso", None, 1, cfg, ("hv", "fe")))
        assert len(runs) == 1 and metrics["fe"] == 400.0

    def test_missing_reference_hv_is_an_error_value(self, runs):
        metrics = _execute(_Task("dtlz2:3", "fcpso", None, 1, self.CFG, ("fe",)))
        assert runs == [] and metrics["fe"].startswith("error: no reference hypervolume")


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

    def test_profile_deterministic(self):
        kwargs = dict(repetitions=2, base_seed=5, max_evaluations=400, swarm_size=20, workers=1)
        a, _ = unfairness_profile(["zdt3"], [0.1], **kwargs)
        b, _ = unfairness_profile(["zdt3"], [0.1], **kwargs)
        assert a == b


def test_median_helper():
    assert median([3.0, 1.0, 2.0]) == 2.0
