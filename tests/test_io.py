import numpy as np
import pytest

from fcpso.experiments import ComparisonRow, ProfilePoint
from fcpso.io import (
    fmt,
    read_comparison_csv,
    read_front_csv,
    read_profile_csv,
    results_root,
    run_directory,
    write_comparison_csv,
    write_front_csv,
    write_hv_trace_csv,
    write_profile_csv,
    write_run_result,
)
from fcpso.optimizer import RunResult


def make_result(**overrides):
    base = dict(
        problem="zdt1",
        variant="fcpso",
        scheme=(2.0, 3.4672, 0.0, 1.0),
        seed=3,
        front_objectives=np.array([[0.0, 1.0], [1.0, 0.0]]),
        front_positions=np.array([[0.1, 0.2], [0.3, 0.4]]),
        evaluations_used=400,
        hv_trace=[(100, 1.5), (200, 2.0)],
        wall_time=0.5,
    )
    base.update(overrides)
    return RunResult(**base)


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

    @pytest.mark.parametrize("text, message", [
        ("f1,f2\n0.0,1.0\n0.5,abc\n", "non-numeric field in row 3"),
        ("f1,f2\n0.0,1.0\n0.5,0.5,0.5\n", "row 3 has 3 columns, expected 2"),
        ("f1,f2\n0.0,1.0\n0.1,nan\n", "non-finite field in row 3"),
        ("f1,f2\n0.0,1.0\ninf,0.1\n", "non-finite field in row 3"),
        ("0.0,-inf\n", "non-finite field in row 1"),
        ("f1,f2\n", "no data rows"),
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


class TestRunResultFiles:
    def test_writes_all_artifacts(self, tmp_path):
        result = make_result()
        out = write_run_result(tmp_path / "run", result)
        assert (out / "front.csv").is_file()
        assert (out / "positions.csv").is_file()
        assert (out / "hv_trace.csv").is_file()
        meta = (out / "meta.txt").read_text()
        assert "problem=zdt1" in meta
        assert "evaluations=400" in meta
        assert "scheme=2,3.4672000000000001,0,1" in meta

    def test_no_trace_file_without_trace(self, tmp_path):
        out = write_run_result(tmp_path / "run", make_result(hv_trace=[]))
        assert not (out / "hv_trace.csv").exists()

    def test_hv_trace_contents(self, tmp_path):
        path = tmp_path / "trace.csv"
        write_hv_trace_csv(path, [(100, 1.5)])
        assert path.read_text() == "evaluations,hv\n100,1.5\n"


class TestComparisonCsv:
    def test_round_trip(self, tmp_path):
        rows = [
            ComparisonRow("zdt1", "hv", "smpso", "fcpso", 3.66, 3.65, 0.04, "a"),
            ComparisonRow("wfg1:5", "igd", "smpso", "fcpso", None, None, None, "error",
                          error="no reference front for wfg1"),
        ]
        path = tmp_path / "comparison.csv"
        write_comparison_csv(path, rows)
        assert read_comparison_csv(path) == rows

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "other.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError):
            read_comparison_csv(path)

    @pytest.mark.parametrize("edit", [
        lambda text: "\ufeff" + text,  # as spreadsheet "CSV UTF-8" exports write it
        lambda text: text + "\n",
    ], ids=["byte-order-mark", "trailing-blank-line"])
    def test_spreadsheet_edits_keep_every_row(self, tmp_path, edit):
        rows = [ComparisonRow("zdt1", "hv", "smpso", "fcpso", 3.66, 3.65, 0.04, "a")]
        path = tmp_path / "comparison.csv"
        write_comparison_csv(path, rows)
        path.write_text(edit(path.read_text(encoding="utf-8")), encoding="utf-8")
        assert read_comparison_csv(path) == rows

    @pytest.mark.parametrize("row, message", [
        ("zdt1,hv,smpso,3.6,fcpso,3.5,0.04,a", "row 3 has 8 columns, expected 9"),
        ("zdt1,hv,smpso,x,fcpso,3.5,0.04,a,", "non-numeric field in row 3"),
    ])
    def test_malformed_row_is_named(self, tmp_path, row, message):
        path = tmp_path / "comparison.csv"
        write_comparison_csv(path, [ComparisonRow("zdt1", "hv", "smpso", "fcpso", 3.66, 3.65, 0.04, "a")])
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(row + "\n")
        with pytest.raises(ValueError) as exc:
            read_comparison_csv(path)
        assert str(exc.value) == f"{path}: {message}"


class TestProfileCsv:
    def test_round_trip(self, tmp_path):
        points = [ProfilePoint(0.1, "zdt1", 0.998), ProfilePoint(-0.2, "zdt3", 1.001)]
        path = tmp_path / "profile.csv"
        write_profile_csv(path, points)
        assert read_profile_csv(path) == points

    @pytest.mark.parametrize("edit", [
        lambda text: "\ufeff" + text,  # as spreadsheet "CSV UTF-8" exports write it
        lambda text: text + "\n",
    ], ids=["byte-order-mark", "trailing-blank-line"])
    def test_spreadsheet_edits_keep_every_row(self, tmp_path, edit):
        points = [ProfilePoint(0.1, "zdt1", 0.998), ProfilePoint(-0.2, "zdt3", 1.001)]
        path = tmp_path / "profile.csv"
        write_profile_csv(path, points)
        path.write_text(edit(path.read_text(encoding="utf-8")), encoding="utf-8")
        assert read_profile_csv(path) == points

    @pytest.mark.parametrize("row, message", [
        ("0.1,zdt1", "row 3 has 2 columns, expected 3"),
        ("0.1,zdt1,x", "non-numeric field in row 3"),
    ])
    def test_malformed_row_is_named(self, tmp_path, row, message):
        path = tmp_path / "profile.csv"
        path.write_text(f"mu,problem,normalized_hv\n0.1,zdt1,0.998\n{row}\n")
        with pytest.raises(ValueError) as exc:
            read_profile_csv(path)
        assert str(exc.value) == f"{path}: {message}"


class TestPaths:
    def test_run_directory_layout(self, tmp_path):
        d = run_directory(tmp_path, make_result())
        assert d == tmp_path / "zdt1" / "fcpso" / "3"

    def test_results_root_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("FCPSO_RESULTS_DIR", str(tmp_path / "elsewhere"))
        assert results_root() == tmp_path / "elsewhere"
        assert results_root("explicit") == __import__("pathlib").Path("explicit")

    def test_results_root_default(self, monkeypatch):
        monkeypatch.delenv("FCPSO_RESULTS_DIR", raising=False)
        assert str(results_root()) == "results"
