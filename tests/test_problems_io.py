"""Reference fronts: generation and the front CSV reader."""

from itertools import combinations

import numpy as np
import pytest

from fcpso.archive import non_dominated_mask
from fcpso.io import read_front_csv
from fcpso.swarm import BoxBounds
from fcpso.problems import (
    ZDT6_F1_MIN,
    _build,
    _checked,
    available_problems,
    fronts,
    get_problem,
    parse_problem_id,
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
    """The registry's reference fronts, each from its suite's front builder."""

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
        np.testing.assert_array_equal(get_problem("dtlz7", m).reference_front, pts[non_dominated_mask(pts)])

    def test_dtlz1_simplex(self):
        front = get_problem("dtlz1", 3).reference_front
        np.testing.assert_allclose(front.sum(axis=1), 0.5, atol=1e-9)

    def test_dtlz2_sphere(self):
        front = get_problem("dtlz2", 3).reference_front
        np.testing.assert_allclose((front**2).sum(axis=1), 1.0, atol=1e-9)


class TestGenerators:
    @pytest.mark.parametrize("m", [1, 2, 3, 5, 7])
    def test_the_simplex_lattice_is_the_per_composition_loop(self, m):
        for h in (1, 2, 5, 9):
            rows = []  # each composition's parts, from its cuts one by one
            for cuts in combinations(range(h + m - 1), m - 1):
                edges = (-1, *cuts, h + m - 1)
                rows.append([b - a - 1 for a, b in zip(edges, edges[1:])])
            got, want = fronts.simplex_lattice(m, h), np.array(rows, dtype=float) / h
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_dtlz1_high_objectives(self):
        front = get_problem("dtlz1", 5).reference_front
        assert front.shape[1] == 5
        np.testing.assert_allclose(front.sum(axis=1), 0.5, atol=1e-12)
        assert front.shape[0] >= 500

    def test_wfg_sphere(self):
        front = get_problem("wfg4", 3).reference_front
        s = 2.0 * np.arange(1, 4)
        np.testing.assert_allclose(((front / s) ** 2).sum(axis=1), 1.0, atol=1e-12)

    def test_unknown_closed_form(self):
        assert get_problem("wfg1", 3).reference_front is None
        assert get_problem("dtlz5", 10).reference_front is None

    def test_dtlz5_arc(self):
        front = get_problem("dtlz5", 3).reference_front
        np.testing.assert_allclose((front**2).sum(axis=1), 1.0, atol=1e-12)
        np.testing.assert_allclose(front[:, 0], front[:, 1], atol=1e-12)


# every registered problem at 2, 3 and 5 objectives (ZDT at its only 2)
REGISTERED = [
    (name, m)
    for name in available_problems()
    for m in ((None,) if name.startswith("zdt") else (2, 3, 5))
]


def has_no_closed_form(name, m):
    if name in ("dtlz5", "dtlz6"):
        return m != 3
    return name in ("wfg1", "wfg2", "wfg3") or (name == "dtlz7" and m > 4)


class TestReferenceData:
    @pytest.mark.parametrize("name,n_obj", REGISTERED)
    def test_front_inside_the_reference_point(self, name, n_obj):
        problem = get_problem(name, n_obj)
        front = problem.reference_front
        if has_no_closed_form(name, problem.n_obj):
            assert front is None
            return
        assert front.ndim == 2 and front.shape[1] == problem.n_obj
        assert non_dominated_mask(front).all()
        assert (front < problem.hv_reference_point).all()

    def test_a_front_builder_error_propagates(self, monkeypatch):
        def broken(index, m, n_points=1000):
            raise ValueError("front builder failed")

        monkeypatch.setattr(fronts, "dtlz_front", broken)
        with pytest.raises(ValueError, match="front builder failed"):
            _build.__wrapped__("dtlz2", 3)  # past the cache, which may hold it


class TestRegistry:
    def test_available(self):
        names = available_problems()
        assert "zdt1" in names and "dtlz7" in names and "wfg9" in names
        assert len(names) == 21

    def test_parse_problem_id(self):
        assert parse_problem_id("zdt1") == ("zdt1", None)
        assert parse_problem_id("DTLZ1:5") == ("dtlz1", 5)
        assert parse_problem_id("dtlz2: 3 ") == ("dtlz2", 3)

    @pytest.mark.parametrize("problem_id", ["dtlz2:1_0", "dtlz2:+3", "dtlz2:\u0663", "zdt1:"])
    def test_count_is_ascii_digits(self, problem_id):
        # int() reads "1_0" as 10 and the Arabic-Indic "\u0663" as 3
        with pytest.raises(ValueError, match="must be an integer"):
            parse_problem_id(problem_id)

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown problem"):
            get_problem("zdt9")

    @pytest.mark.parametrize("name", ["dtlz02", "wfg004", "dtlz\u0662"])
    def test_only_registered_names(self, name):
        # "dtlz\u0662" ends in an Arabic-Indic 2, which int() reads as 2
        with pytest.raises(ValueError, match="unknown problem .*; available: zdt1"):
            get_problem(name, 3)

    def test_any_letter_case(self):
        assert get_problem("DTLZ2", 3).name == "dtlz2"
        assert get_problem("Wfg4").name == "wfg4"

    def test_instances_cached(self):
        assert get_problem("zdt1") is get_problem("zdt1")

    @pytest.mark.parametrize("spellings", [
        [("dtlz2", None), ("dtlz2", 3), ("DTLZ2", None), ("DTLZ2", 3)],
        [("ZDT1", None), ("zdt1", 2)],
    ])
    def test_every_spelling_builds_one_instance(self, spellings):
        first, *others = (get_problem(name, n_obj) for name, n_obj in spellings)
        assert all(problem is first for problem in others)

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
