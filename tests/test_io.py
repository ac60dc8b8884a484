import numpy as np
import pytest
from csv_reader import COMPARISON_FLOATS, COMPARISON_HEADER, read_records

from fcpso.experiments import ComparisonRow, ProfilePoint
from fcpso.indicators import HvTrace
from fcpso.io import (
    fmt,
    read_front_csv,
    results_root,
    run_directory,
    write_comparison_csv,
    write_front_csv,
    write_profile_csv,
    write_run_result,
)
from fcpso.optimizer import RunConfig, RunResult
from fcpso.problems import get_problem


def make_result(**overrides):
    base = dict(
        front_objectives=np.array([[0.0, 1.0], [1.0, 0.0]]),
        front_positions=np.array([[0.1, 0.2], [0.3, 0.4]]),
        evaluations_used=400,
    )
    base.update(overrides)
    return RunResult(**base)


CFG = RunConfig()


def make_trace(points=((100, 1.5), (200, 2.0))):
    trace = HvTrace(get_problem("zdt1"))
    trace.points = list(points)
    return trace


def write_run(directory, result, trace=None):
    """Write ``result`` as the zdt1 run of ``CFG`` (fcpso) on seed 3, observed by ``trace``."""
    return write_run_result(directory, get_problem("zdt1"), CFG, 3, result, trace)


def point(**cells):
    return tuple(cells.values())


class TestFmt:
    def test_round_trip_exact(self, rng):
        for x in rng.random(200) * 1e3:
            assert float(fmt(float(x))) == float(x)
        assert float(fmt(1 / 3)) == 1 / 3


class TestFrontCsv:
    def test_round_trip(self, tmp_path, rng):
        F = rng.random((17, 3))
        path = tmp_path / "front.csv"
        write_front_csv(path, F)
        back = read_front_csv(path)
        np.testing.assert_array_equal(back, F)
        assert path.read_text().splitlines()[0] == "f1,f2,f3"
        fs = ("f1", "f2", "f3")
        np.testing.assert_array_equal(read_records(path, point, fs, floats=fs), F)

    @pytest.mark.parametrize("text, message", [
        ("f1,f2\n0.0,1.0\n0.5,abc\n", "non-numeric field in row 3"),
        ("f1,f2\n0.0,1.0\n0.5,0.5,0.5\n", "row 3 has 3 columns, expected 2"),
        ("f1,f2\n0.0,1.0\n0.1,nan\n", "non-finite field in row 3"),
        ("f1,f2\n0.0,1.0\ninf,0.1\n", "non-finite field in row 3"),
        ("0.0,-inf\n", "non-finite field in row 1"),
        ("f1,f2\n", "no data rows"),
        ("0.5,0.5x\n0.0,1.0\n1.0,0.0\n", "non-numeric field in row 1"),
        ("f1,0.5\n0.0,1.0\n", "non-numeric field in row 1"),
    ])
    def test_malformed_row_is_named(self, tmp_path, text, message):
        path = tmp_path / "front.csv"
        path.write_text(text)
        with pytest.raises(ValueError) as exc:
            read_front_csv(path)
        assert str(exc.value) == f"{path}: {message}"

    @pytest.mark.parametrize("text", ["0.1,0.9\n0.5,0.5\n0.9,0.1\n", "f1,f2\n0.1,0.9\n0.5,0.5\n0.9,0.1\n"])
    def test_byte_order_mark_keeps_every_point(self, tmp_path, text):
        # spreadsheet "CSV UTF-8" exports start with a byte-order mark
        path = tmp_path / "front.csv"
        path.write_bytes(text.encode("utf-8-sig"))
        np.testing.assert_array_equal(read_front_csv(path), [[0.1, 0.9], [0.5, 0.5], [0.9, 0.1]])

    @pytest.mark.parametrize("text", ["f1,f2\n0.1,0.9\n\n  \n0.9,0.1\n", "\n\nf1,f2\n0.1,0.9\n0.9,0.1\n"],
                             ids=["between-rows", "before-the-header"])
    def test_a_blank_line_is_skipped(self, tmp_path, text):
        path = tmp_path / "front.csv"
        path.write_text(text)
        np.testing.assert_array_equal(read_front_csv(path), [[0.1, 0.9], [0.9, 0.1]])


class TestRunResultFiles:
    def test_writes_all_artifacts(self, tmp_path):
        result = make_result()
        out = write_run(tmp_path / "run", result, make_trace())
        assert (out / "front.csv").is_file()
        assert (out / "positions.csv").is_file()
        assert (out / "hv_trace.csv").is_file()
        meta = (out / "meta.txt").read_text()
        assert meta.startswith("problem=zdt1\nobjectives=2\nvariant=fcpso\nseed=3\n")
        assert "evaluations=400" in meta
        assert "scheme=2,3.4672000000000001,0,1" in meta

    def test_positions_and_trace_round_trip(self, tmp_path):
        result = make_result(front_positions=np.array([[0.1, 1 / 3, 0.7], [0.3, 0.4, 1e-300]]))
        out = write_run(tmp_path / "run", result, make_trace())
        xs = ("x1", "x2", "x3")
        positions = read_records(out / "positions.csv", point, xs, floats=xs)
        np.testing.assert_array_equal(positions, result.front_positions)
        trace = read_records(out / "hv_trace.csv", point, ("evaluations", "hv"), floats=("hv",))
        assert trace == [("100", 1.5), ("200", 2.0)]

    @pytest.mark.parametrize("trace", [None, make_trace(())], ids=["no-trace", "no-points"])
    def test_no_trace_file_without_trace(self, tmp_path, trace):
        out = write_run(tmp_path / "run", make_result(), trace)
        assert not (out / "hv_trace.csv").exists()

    def test_a_rerun_without_trace_removes_the_old_trace(self, tmp_path):
        write_run(tmp_path / "run", make_result(), make_trace())
        out = write_run(tmp_path / "run", make_result())
        assert not (out / "hv_trace.csv").exists()

    def test_hv_trace_contents(self, tmp_path):
        out = write_run(tmp_path / "run", make_result(), make_trace([(100, 1.5)]))
        assert (out / "hv_trace.csv").read_text() == "evaluations,hv\n100,1.5\n"


class TestComparisonCsv:
    def test_round_trip(self, tmp_path):
        rows = [
            ComparisonRow("zdt1", "hv", "smpso", "fcpso", 3.66, 1 / 3, 0.04, "a"),
            ComparisonRow("wfg1:5", "igd", "smpso", "fcpso", None, None, None, "error",
                          error="no reference front for wfg1"),
        ]
        path = tmp_path / "comparison.csv"
        write_comparison_csv(path, rows)
        assert read_records(path, ComparisonRow, COMPARISON_HEADER, COMPARISON_FLOATS) == rows

    def test_a_comma_in_an_error_becomes_a_semicolon(self, tmp_path):
        path = tmp_path / "comparison.csv"
        write_comparison_csv(path, [ComparisonRow("zdt1", "fe", "a", "b", None, None, None, "error",
                                                  error="x, y")])
        assert path.read_text().splitlines()[1] == "zdt1,fe,a,,b,,,error,x; y"


class TestProfileCsv:
    def test_round_trip(self, tmp_path):
        points = [ProfilePoint(0.1, "zdt1", 0.998), ProfilePoint(-0.2, "zdt3", 1 / 3)]
        path = tmp_path / "profile.csv"
        write_profile_csv(path, points)
        header = ("mu", "problem", "normalized_hv")
        assert read_records(path, ProfilePoint, header, floats=("mu", "normalized_hv")) == points


class TestPaths:
    def test_run_directory_layout(self, tmp_path):
        d = run_directory(tmp_path, get_problem("zdt1"), CFG, 3)
        assert d == tmp_path / "zdt1-2" / "fcpso" / "3"

    def test_objective_counts_get_their_own_directories(self, tmp_path):
        for m in (3, 5):
            assert run_directory(tmp_path, get_problem("dtlz2", m), CFG, 3) == tmp_path / f"dtlz2-{m}" / "fcpso" / "3"

    def test_results_root_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("FCPSO_RESULTS_DIR", str(tmp_path / "elsewhere"))
        assert results_root() == tmp_path / "elsewhere"
        assert results_root("explicit") == __import__("pathlib").Path("explicit")

    def test_results_root_default(self, monkeypatch):
        monkeypatch.delenv("FCPSO_RESULTS_DIR", raising=False)
        assert str(results_root()) == "results"
