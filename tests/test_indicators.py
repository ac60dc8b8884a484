import math
import tracemalloc

import numpy as np
import pytest

import indicator_oracle
from fcpso.indicators import additive_epsilon, hypervolume, igd, spacing
from hv_oracle import hv_oracle


def hv_grid_cell_oracle(front, ref):
    """Exact hypervolume by coordinate-grid cell decomposition.

    The union of dominated boxes is a union of axis-aligned cells of the
    grid induced by the points' coordinates; summing dominated cells is
    exact and entirely independent of sweep/slicing order.
    """
    F = np.asarray(front, dtype=float)
    r = np.asarray(ref, dtype=float)
    F = F[np.all(F < r, axis=1)]
    if F.shape[0] == 0:
        return 0.0
    k = F.shape[1]
    axes = [np.unique(np.append(F[:, j], r[j])) for j in range(k)]
    total = 0.0
    idx = [0] * k
    while True:
        lower_corner = np.array([axes[j][idx[j]] for j in range(k)])
        upper = []
        ok = True
        for j in range(k):
            if idx[j] + 1 >= len(axes[j]):
                ok = False
                break
            upper.append(axes[j][idx[j] + 1])
        if ok:
            if np.any(np.all(F <= lower_corner, axis=1)):
                total += float(np.prod(np.array(upper) - lower_corner))
        # advance the mixed-radix counter
        j = 0
        while j < k:
            idx[j] += 1
            if idx[j] < len(axes[j]) - 1:
                break
            idx[j] = 0
            j += 1
        if j == k:
            return total


def hv_monte_carlo(front, ref, samples, seed):
    F = np.asarray(front, dtype=float)
    r = np.asarray(ref, dtype=float)
    F = F[np.all(F < r, axis=1)]
    lo = F.min(axis=0)
    vol = float(np.prod(r - lo))
    rng = np.random.default_rng(seed)
    pts = rng.uniform(lo, r, size=(samples, len(r)))
    hits = 0
    for chunk in np.array_split(pts, 10):
        dominated = np.zeros(len(chunk), dtype=bool)
        for f in F:
            dominated |= np.all(chunk >= f, axis=1)
        hits += int(dominated.sum())
    p = hits / samples
    err = np.sqrt(max(p * (1 - p), 1e-12) / samples) * vol
    return p * vol, err


class TestHypervolume2D:
    def test_hand_sweep(self):
        front = np.array([[0.0, 1.0], [0.25, 0.5], [1.0, 0.0]])
        assert hypervolume(front, np.array([2.0, 2.0])) == pytest.approx(3.375, abs=1e-15)

    def test_dense_zdt1_front_approaches_analytic(self):
        f1 = np.linspace(0.0, 1.0, 20_000)
        front = np.column_stack([f1, 1.0 - np.sqrt(f1)])
        hv = hypervolume(front, np.array([2.0, 2.0]))
        assert hv == pytest.approx(11.0 / 3.0, abs=1e-4)

    def test_point_at_reference_contributes_nothing(self):
        assert hypervolume(np.array([[2.0, 2.0]]), np.array([2.0, 2.0])) == 0.0

    def test_empty_effective_front(self):
        assert hypervolume(np.array([[3.0, 3.0]]), np.array([2.0, 2.0])) == 0.0

    def test_dominated_points_are_free(self, rng):
        front = rng.random((30, 2))
        ref = np.array([2.0, 2.0])
        base = hypervolume(front, ref)
        salted = np.vstack([front, front + 0.1])  # dominated duplicates
        assert hypervolume(salted, ref) == pytest.approx(base, abs=1e-12)

    def test_monotone_under_new_nondominated_point(self, rng):
        ref = np.array([2.0, 2.0])
        for _ in range(50):
            front = rng.random((15, 2))
            base = hypervolume(front, ref)
            extra = rng.random(2) * 0.5  # strong point
            assert hypervolume(np.vstack([front, extra]), ref) >= base - 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            hypervolume(np.array([[0.5, 0.5]]), np.array([2.0, 2.0, 2.0]))

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_returns_a_python_float(self, k, rng):
        ref = np.full(k, 1.1)
        assert type(hypervolume(rng.random((10, k)), ref)) is float
        assert type(hypervolume(np.full((1, k), 2.0), ref)) is float


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_points_on_or_beyond_the_reference_box_are_discarded(k, rng):
    # each appended point is near the origin in every objective but one,
    # where it sits on or past the reference
    front = rng.random((20, k))
    ref = np.full(k, 1.1)
    outside = rng.random((2 * k, k)) * 0.05
    for i, row in enumerate(outside):
        row[i % k] = ref[i % k] + (0.0 if i < k else 0.5)
    assert hypervolume(np.vstack([front, outside]), ref) == hypervolume(front, ref)
    assert hypervolume(outside, ref) == 0.0


class TestHypervolumeSlicer:
    def test_sweep_vs_slicer_on_embedded_2d(self, rng):
        # lift 2-objective fronts into 3 objectives with a constant axis:
        # the slicer must reproduce the sweep result exactly
        for _ in range(100):
            front = rng.random((12, 2))
            ref = np.array([1.5, 1.5])
            lifted = np.column_stack([front, np.full(len(front), 0.5)])
            hv2 = hypervolume(front, ref)
            hv3 = hypervolume(lifted, np.array([1.5, 1.5, 1.5]))
            assert hv3 == pytest.approx(hv2 * 1.0, abs=1e-9)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_grid_cell_oracle(self, k, rng):
        ref = np.full(k, 1.2)
        for _ in range(25):
            front = rng.random((8, k))
            assert hypervolume(front, ref) == pytest.approx(
                hv_grid_cell_oracle(front, ref), abs=1e-10
            )

    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_monte_carlo_oracle(self, k, rng):
        front = rng.random((20, k))
        ref = np.full(k, 1.1)
        exact = hypervolume(front, ref)
        approx, err = hv_monte_carlo(front, ref, 200_000, seed=k)
        assert abs(exact - approx) <= 4.0 * err

    def test_simplex_closed_form(self):
        # simplex front sum(f) = 0.5: the non-dominated corner volume is
        # 0.5^k / k!, so hv against (1,1,1) is 1 - 0.5^3/6
        from fcpso.problems.fronts import dtlz_front

        front = dtlz_front(1, 3, n_points=3000)
        hv = hypervolume(front, np.array([1.0, 1.0, 1.0]))
        assert hv == pytest.approx(1.0 - 0.5**3 / 6.0, abs=2e-3)


class TestHypervolumeManyObjectives:
    @pytest.mark.parametrize("k, n", [(4, 60), (5, 42)])
    def test_fronts_past_one_table_block_match_the_slicer(self, k, n, rng):
        # points on a sphere, all non-dominated: at k = 4 the base case
        # takes its 60 prefixes 2**16 // 60**2 = 18 at a time, at k = 5
        # the limit-set sweep its 42 points 2**16 // 42**2 = 37 at a time
        front = rng.random((n, k))
        front /= np.linalg.norm(front, axis=1, keepdims=True)
        ref = np.full(k, 1.1)
        expected = hv_oracle(front, ref)
        assert abs(hypervolume(front, ref) - expected) <= 1e-12 * expected

    @pytest.mark.parametrize("k", [6, 7])
    def test_past_five_objectives_the_limit_sets_recurse(self, k, rng):
        # at k >= 6 each limit set goes back through the k - 1 sweep, down
        # to the 4-D base case
        front = rng.random((12, k))
        front /= np.linalg.norm(front, axis=1, keepdims=True)
        ref = np.full(k, 1.1)
        expected = hv_oracle(front, ref)
        assert abs(hypervolume(front, ref) - expected) <= 1e-12 * expected

    def test_dense_dtlz2_front_rises_toward_its_closed_form(self):
        # DTLZ2's front is the unit sphere in the positive orthant, so
        # against r = 2 its hypervolume is 2^m - V_m / 2^m, with V_m the
        # volume of the unit m-ball; a sampled front stays below it
        from fcpso.problems.fronts import dtlz_front

        m = 5
        closed = 2.0**m - math.pi ** (m / 2) / math.gamma(m / 2 + 1) / 2**m
        hvs = [hypervolume(dtlz_front(2, m, n_points=n), np.full(m, 2.0)) for n in (30, 60, 120, 250)]
        assert all(a < b for a, b in zip(hvs, hvs[1:]))
        assert hvs[-1] < closed
        assert closed - hvs[-1] < (closed - hvs[0]) / 2


class TestIgd:
    def test_identical_fronts(self, rng):
        f = rng.random((20, 3))
        assert igd(f, f) == 0.0

    def test_axis_shift(self):
        ref = np.array([[0.0, 1.0], [1.0, 0.0]])
        front = np.array([[0.1, 1.0], [1.0, 0.1]])
        assert igd(front, ref) == pytest.approx(0.1, abs=1e-15)

    def test_permutation_invariant(self, rng):
        f = rng.random((15, 2))
        r = rng.random((25, 2))
        perm_f = f[rng.permutation(15)]
        perm_r = r[rng.permutation(25)]
        assert igd(f, r) == pytest.approx(igd(perm_f, perm_r), abs=1e-15)

    def test_zero_iff_reference_covered(self, rng):
        ref = rng.random((10, 2))
        front = np.vstack([ref, rng.random((5, 2))])
        assert igd(front, ref) <= 1e-12
        assert igd(ref[:-1], ref) > 1e-12

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            igd(np.empty((0, 2)), np.array([[0.0, 1.0]]))


class TestAdditiveEpsilon:
    def test_identical_fronts(self, rng):
        f = rng.random((10, 3))
        assert additive_epsilon(f, f) == 0.0

    def test_uniform_shift(self, rng):
        ref = rng.random((12, 3))
        assert additive_epsilon(ref + 0.2, ref) == pytest.approx(0.2, abs=1e-12)

    def test_translation_covariance(self, rng):
        ref = rng.random((12, 2))
        front = rng.random((9, 2))
        base = additive_epsilon(front, ref)
        assert additive_epsilon(front + 0.3, ref) == pytest.approx(base + 0.3, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            additive_epsilon(np.array([[1.0, 2.0]]), np.array([[1.0, 2.0, 3.0]]))


class TestSpacing:
    def test_two_points(self):
        assert spacing(np.array([[0.0, 1.0], [1.0, 0.0]])) == 0.0

    def test_evenly_spaced_collinear(self):
        pts = np.column_stack([np.linspace(0, 1, 7), np.zeros(7)])
        assert spacing(pts) == pytest.approx(0.0, abs=1e-12)

    def test_hand_example(self):
        pts = np.array([[0.0, 0.0], [0.0, 1.0], [0.0, 3.0]])
        assert spacing(pts) == pytest.approx(np.sqrt(1.0 / 3.0), abs=1e-12)

    def test_single_point_rejected(self):
        with pytest.raises(ValueError):
            spacing(np.array([[1.0, 1.0]]))


class TestPairwiseTables:
    @pytest.mark.parametrize("k", [5, 10, 40])
    @pytest.mark.parametrize("indicator", [igd, additive_epsilon])
    def test_a_large_reference_front_stays_within_bounded_memory(self, indicator, k, rng):
        # the (reference, front, objective) tensor would take 80 MB per
        # objective; from 8 objectives on the stacked blocks count their
        # objectives too, or they would take 23 MB at 40
        front = rng.random((100, k))
        ref = rng.random((100_000, k))
        tracemalloc.start()
        try:
            indicator(front, ref)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16_000_000

    @pytest.mark.parametrize("k", [127, 128, 129, 300])
    def test_past_numpy_pairwise_block_still_bitwise(self, k, rng):
        # above 128 terms numpy's pairwise sum splits the objective axis
        front = rng.random((12, k)) * 10.0 ** rng.integers(-3, 4, k)
        ref = rng.random((20, k))
        assert igd(front, ref).hex() == indicator_oracle.igd(front, ref).hex()
        assert spacing(front).hex() == indicator_oracle.spacing(front).hex()


class TestNonFiniteInput:
    FRONT = [[0.2, 0.8], [0.5, 0.5]]

    @pytest.mark.parametrize("ref", [[math.nan, 2.0], [math.inf, 2.0], [2.0, -math.inf]])
    def test_hypervolume_refuses_a_non_finite_reference_point(self, ref):
        with pytest.raises(ValueError, match="reference point has a non-finite entry"):
            hypervolume(self.FRONT, ref)

    @pytest.mark.parametrize("row", [[math.nan, 0.1], [0.1, -math.inf], [math.inf, math.inf]])
    def test_hypervolume_refuses_a_non_finite_front_entry(self, row):
        with pytest.raises(ValueError, match="front has a non-finite entry"):
            hypervolume(self.FRONT + [row], [2.0, 2.0])

    @pytest.mark.parametrize("indicator", [igd, additive_epsilon])
    def test_reference_indicators_refuse_either_front(self, indicator):
        with pytest.raises(ValueError, match="^front has a non-finite entry"):
            indicator([[math.nan, 0.5]], self.FRONT)
        with pytest.raises(ValueError, match="reference front has a non-finite entry"):
            indicator(self.FRONT, [[0.5, math.inf]])

    def test_spacing_refuses_a_non_finite_entry(self):
        with pytest.raises(ValueError, match="front has a non-finite entry"):
            spacing(self.FRONT + [[0.0, math.nan]])


def test_slicer_internal_consistency(rng):
    # the slicing oracle must agree with the public dimension sweeps
    front = rng.random((10, 3))
    ref = np.full(3, 1.3)
    assert hv_oracle(front, ref) == pytest.approx(hypervolume(front, ref), abs=1e-12)
