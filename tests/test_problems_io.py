"""Reference fronts: generation and the front CSV reader."""

import numpy as np
import pytest

from fcpso.archive import non_dominated_mask
from fcpso.io import read_front_csv
from fcpso.swarm import BoxBounds
from fcpso.problems import (
    ZDT6_F1_MIN,
    _checked,
    available_problems,
    get_problem,
    parse_problem_id,
    theoretical_front,
)


class TestLoader:
    def test_single_point(self, tmp_path):
        f = tmp_path / "front.csv"
        f.write_text("0.0,1.0\n")
        front = read_front_csv(f)
        np.testing.assert_array_equal(front, [[0.0, 1.0]])

    def test_header_skipped(self, tmp_path):
        f = tmp_path / "front.csv"
        f.write_text("f1,f2\n0.0,1.0\n1.0,0.0\n")
        assert read_front_csv(f).shape == (2, 2)

    def test_ragged_row_names_line(self, tmp_path):
        f = tmp_path / "front.csv"
        f.write_text("0.0,1.0\n0.5\n")
        with pytest.raises(ValueError, match="row 2"):
            read_front_csv(f)

    def test_non_numeric_names_line(self, tmp_path):
        f = tmp_path / "front.csv"
        f.write_text("0.0,1.0\n0.5,oops\n")
        with pytest.raises(ValueError, match="row 2"):
            read_front_csv(f)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_front_csv(tmp_path / "nope.csv")

    def test_empty_file(self, tmp_path):
        f = tmp_path / "front.csv"
        f.write_text("")
        with pytest.raises(ValueError, match="no data"):
            read_front_csv(f)


class TestBundledFronts:
    """The registry's reference fronts, all generated by theoretical_front."""

    def test_zdt1_identity(self):
        front = get_problem("zdt1").reference_front
        assert front.shape[0] >= 1000
        np.testing.assert_allclose(front[:, 1], 1.0 - np.sqrt(front[:, 0]), atol=1e-6)

    def test_zdt2_identity(self):
        front = get_problem("zdt2").reference_front
        np.testing.assert_allclose(front[:, 1], 1.0 - front[:, 0] ** 2, atol=1e-6)

    def test_zdt6_range(self):
        front = get_problem("zdt6").reference_front
        assert front[:, 0].min() == pytest.approx(ZDT6_F1_MIN, abs=1e-9)
        np.testing.assert_allclose(front[:, 1], 1.0 - front[:, 0] ** 2, atol=1e-6)

    @pytest.mark.parametrize("name", ["zdt3", "dtlz7"])
    def test_filtered_fronts_non_dominated(self, name):
        m = 2 if name.startswith("zdt") else 3
        front = get_problem(name, None if m == 2 else m).reference_front
        assert non_dominated_mask(front).all()

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_dtlz7_is_the_pairwise_filter_of_its_grid(self, m):
        side = {2: 2000, 3: 64, 4: 20}[m]
        axes = [np.linspace(0.0, 1.0, side)] * (m - 1)
        grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, m - 1)
        h = m - np.sum(grid / 2.0 * (1.0 + np.sin(3.0 * np.pi * grid)), axis=1)
        pts = np.column_stack([grid, 2.0 * h])
        np.testing.assert_array_equal(theoretical_front("dtlz7", m), pts[non_dominated_mask(pts)])

    def test_dtlz1_simplex(self):
        front = get_problem("dtlz1", 3).reference_front
        np.testing.assert_allclose(front.sum(axis=1), 0.5, atol=1e-9)

    def test_dtlz2_sphere(self):
        front = get_problem("dtlz2", 3).reference_front
        np.testing.assert_allclose((front**2).sum(axis=1), 1.0, atol=1e-9)


class TestGenerators:
    def test_dtlz1_high_objectives(self):
        front = theoretical_front("dtlz1", 5)
        assert front.shape[1] == 5
        np.testing.assert_allclose(front.sum(axis=1), 0.5, atol=1e-12)
        assert front.shape[0] >= 500

    def test_wfg_sphere(self):
        front = theoretical_front("wfg4", 3)
        s = 2.0 * np.arange(1, 4)
        np.testing.assert_allclose(((front / s) ** 2).sum(axis=1), 1.0, atol=1e-12)

    def test_unknown_closed_form(self):
        with pytest.raises(ValueError):
            theoretical_front("wfg1", 3)
        with pytest.raises(ValueError):
            theoretical_front("dtlz5", 10)

    def test_dtlz5_arc(self):
        front = theoretical_front("dtlz5", 3)
        np.testing.assert_allclose((front**2).sum(axis=1), 1.0, atol=1e-12)
        np.testing.assert_allclose(front[:, 0], front[:, 1], atol=1e-12)


class TestRegistry:
    def test_available(self):
        names = available_problems()
        assert "zdt1" in names and "dtlz7" in names and "wfg9" in names
        assert len(names) == 21

    def test_parse_problem_id(self):
        assert parse_problem_id("zdt1") == ("zdt1", None)
        assert parse_problem_id("DTLZ1:5") == ("dtlz1", 5)

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown problem"):
            get_problem("zdt9")

    def test_instances_cached(self):
        assert get_problem("zdt1") is get_problem("zdt1")

    @pytest.mark.parametrize("name,n_obj", [("zdt4", None), ("dtlz2", 3), ("wfg4", 5)])
    def test_cached_arrays_are_read_only(self, name, n_obj):
        problem = get_problem(name, n_obj)
        arrays = [problem.hv_reference_point, problem.reference_front,
                  problem.bounds.lower, problem.bounds.upper, problem.bounds.delta,
                  problem.bounds.neg_delta]
        for a in arrays:
            before = a.copy()
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0.5
            np.testing.assert_array_equal(a, before)

    @pytest.mark.parametrize("name,n_obj", [("zdt4", None), ("dtlz2", 3), ("wfg4", 5)])
    def test_one_ulp_outside_either_wall_is_rejected(self, name, n_obj):
        problem = get_problem(name, n_obj)
        lower, upper = problem.bounds.lower, problem.bounds.upper
        for i in range(problem.n_var):
            for wall, away in ((lower, -np.inf), (upper, np.inf)):
                x = (lower + upper) / 2.0
                x[i] = np.nextafter(wall[i], away)
                with pytest.raises(ValueError, match="input outside box bounds"):
                    problem.evaluate(x)

    @pytest.mark.parametrize("name,n_obj", [("zdt4", None), ("dtlz2", 3), ("wfg4", 5)])
    def test_a_point_on_the_walls_evaluates(self, name, n_obj):
        problem = get_problem(name, n_obj)
        lower, upper = problem.bounds.lower, problem.bounds.upper
        points = [lower, upper]
        for i in range(problem.n_var):
            for wall in (lower, upper):
                x = (lower + upper) / 2.0
                x[i] = wall[i]
                points.append(x)
        for x in points:
            assert problem.evaluate(x).shape == (problem.n_obj,)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_objectives_are_rejected(self, bad):
        evaluate = _checked("stub", BoxBounds(np.zeros(2), np.ones(2)), lambda x: np.array([bad, 1.0]))
        with pytest.raises(ValueError, match="stub: non-finite objectives"):
            evaluate(np.full(2, 0.5))
