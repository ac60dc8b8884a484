"""WFG pipeline against an independently coded scalar oracle."""

import numpy as np
import pytest
from wfg_oracle import wfg_oracle

from fcpso.problems import get_problem
from fcpso.problems.wfg import wfg_bounds, wfg_dimension

B_PARAM_A = 0.98 / 49.98


def evaluate_wfg(index, m, z):
    """WFG<index> with m objectives at z, through the checked instance."""
    return get_problem(f"wfg{index}", m).evaluate(z)


def optimal_distance_plain(m, pos_y, l=20):
    """Optimal point for WFG1-7: distance parameters at 0.35 (normalized)."""
    k = 2 * (m - 1)
    y = np.concatenate([pos_y, np.full(l, 0.35)])
    return y * 2.0 * np.arange(1, k + l + 1)


def optimal_distance_wfg8(m, pos_y, l=20):
    k = 2 * (m - 1)
    y = list(pos_y)
    for i in range(k, k + l):
        u = float(np.mean(y[:i]))
        v = B_PARAM_A - (1.0 - 2.0 * u) * abs(np.floor(0.5 - u) + B_PARAM_A)
        y.append(0.35 ** (1.0 / (0.02 + 49.98 * v)))
    return np.array(y) * 2.0 * np.arange(1, k + l + 1)


def optimal_distance_wfg9(m, pos_y, l=20):
    k = 2 * (m - 1)
    n = k + l
    y = list(pos_y) + [0.0] * l
    y[n - 1] = 0.35
    for i in range(n - 2, k - 1, -1):
        u = float(np.mean(y[i + 1 : n]))
        y[i] = 0.35 ** (1.0 / (0.02 + 1.96 * u))
    return np.array(y) * 2.0 * np.arange(1, n + 1)


class TestAgainstOracle:
    @pytest.mark.parametrize("index", range(1, 10))
    @pytest.mark.parametrize("m", [2, 3, 5, 10])
    def test_random_points_match(self, index, m, rng):
        lo, up = wfg_bounds(m)
        for _ in range(100):
            z = rng.uniform(lo, up)
            mine = evaluate_wfg(index, m, z)
            ref = np.array(wfg_oracle(index, m, list(z)))
            np.testing.assert_allclose(mine, ref, rtol=1e-10, atol=1e-10)

    def test_deterministic(self, rng):
        lo, up = wfg_bounds(5)
        z = rng.uniform(lo, up)
        np.testing.assert_array_equal(evaluate_wfg(4, 5, z), evaluate_wfg(4, 5, z))


class TestFrontIdentities:
    @pytest.mark.parametrize("index", [4, 5, 6, 7])
    @pytest.mark.parametrize("m", [3, 5])
    def test_concave_fronts_on_scaled_sphere(self, index, m, rng):
        s = 2.0 * np.arange(1, m + 1)
        for _ in range(40):
            z = optimal_distance_plain(m, rng.random(2 * (m - 1)))
            f = evaluate_wfg(index, m, z)
            assert np.sum((f / s) ** 2) == pytest.approx(1.0, abs=1e-9)
            assert np.all(f >= 0.0) and np.all(f <= s + 1e-12)

    @pytest.mark.parametrize("m", [3, 5])
    def test_wfg3_linear_front(self, m, rng):
        s = 2.0 * np.arange(1, m + 1)
        for _ in range(40):
            z = optimal_distance_plain(m, rng.random(2 * (m - 1)))
            f = evaluate_wfg(3, m, z)
            assert np.sum(f / s) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("m", [3, 5])
    def test_wfg8_front(self, m, rng):
        s = 2.0 * np.arange(1, m + 1)
        for _ in range(40):
            f = evaluate_wfg(8, m, optimal_distance_wfg8(m, rng.random(2 * (m - 1))))
            assert np.sum((f / s) ** 2) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("m", [3, 5])
    def test_wfg9_front(self, m, rng):
        s = 2.0 * np.arange(1, m + 1)
        for _ in range(40):
            f = evaluate_wfg(9, m, optimal_distance_wfg9(m, rng.random(2 * (m - 1))))
            assert np.sum((f / s) ** 2) == pytest.approx(1.0, abs=1e-9)


class TestRanges:
    @pytest.mark.parametrize("index", range(1, 10))
    def test_outputs_in_provable_envelope(self, index, rng):
        # f_j = x_M + 2j h_j with x_M, h_j in [0, 1]: bound is 2j + 1 for
        # arbitrary inputs (the tighter 2j holds only on the front)
        m = 3
        lo, up = wfg_bounds(m)
        cap = 2.0 * np.arange(1, m + 1) + 1.0
        for _ in range(2000):
            f = evaluate_wfg(index, m, rng.uniform(lo, up))
            assert np.all(f >= 0.0)
            assert np.all(f <= cap + 1e-12)


class TestInstances:
    def test_dimension_and_bounds(self):
        p = get_problem("wfg1", 5)
        assert p.n_var == wfg_dimension(5) == 28
        np.testing.assert_array_equal(p.bounds.lower, np.zeros(28))
        np.testing.assert_array_equal(p.bounds.upper, 2.0 * np.arange(1, 29))

    def test_hv_reference_point(self):
        np.testing.assert_array_equal(
            get_problem("wfg2", 3).hv_reference_point, [3.0, 5.0, 7.0]
        )

    def test_out_of_bounds(self):
        p = get_problem("wfg4", 3)
        with pytest.raises(ValueError):
            p.evaluate(np.full(p.n_var, -0.1))
