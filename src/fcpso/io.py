"""CSV files for fronts, runs, comparisons and profiles.

Front CSVs (an ``f1,...,fk`` header, one point per row) are written by
``write_front_csv`` and read back by ``read_front_csv``.  Floats are
written with repr precision so a rerun with the same seed produces
byte-identical files.
"""

from __future__ import annotations

import math
import os
from pathlib import Path

import numpy as np

from .experiments import ComparisonRow, ProfilePoint
from .optimizer import RunResult

__all__ = [
    "fmt",
    "results_root",
    "run_directory",
    "write_front_csv",
    "read_front_csv",
    "write_metadata",
    "write_hv_trace_csv",
    "write_run_result",
    "write_comparison_csv",
    "read_comparison_csv",
    "write_profile_csv",
    "read_profile_csv",
]


def fmt(x: float) -> str:
    return f"{float(x):.17g}"


def results_root(override: str | None = None) -> Path:
    if override:
        return Path(override)
    return Path(os.environ.get("FCPSO_RESULTS_DIR", "results"))


def run_directory(root: Path, result: RunResult) -> Path:
    return Path(root) / result.problem / result.variant / str(result.seed)


def _write_matrix_csv(path, values: np.ndarray, prefix: str) -> None:
    A = np.atleast_2d(np.asarray(values, dtype=float))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(f"{prefix}{j + 1}" for j in range(A.shape[1])) + "\n")
        for row in A:
            fh.write(",".join(fmt(v) for v in row) + "\n")


def write_front_csv(path, objectives: np.ndarray) -> None:
    _write_matrix_csv(path, objectives, "f")


def read_front_csv(path) -> np.ndarray:
    """Read a front CSV (optional f1,...,fk header; one point per row).

    Malformed rows (a non-numeric or non-finite field, or a column count
    unlike the first row's) are rejected with their 1-based row number.
    A UTF-8 byte-order mark, as spreadsheet exports write, is skipped.
    """
    rows: list[list[float]] = []
    width = None
    with open(path, "r", encoding="utf-8-sig") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            cells = [c.strip() for c in line.split(",")]
            if lineno == 1 and any(not _is_number(c) for c in cells):
                continue  # header row
            try:
                values = [float(c) for c in cells]
            except ValueError:
                raise ValueError(f"{path}: non-numeric field in row {lineno}") from None
            if not all(math.isfinite(v) for v in values):
                raise ValueError(f"{path}: non-finite field in row {lineno}")
            if width is None:
                width = len(values)
            elif len(values) != width:
                raise ValueError(
                    f"{path}: row {lineno} has {len(values)} columns, expected {width}"
                )
            rows.append(values)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return np.array(rows)


def _is_number(cell: str) -> bool:
    try:
        float(cell)
        return True
    except ValueError:
        return False


def write_metadata(path, result: RunResult) -> None:
    lines = [
        f"problem={result.problem}",
        f"variant={result.variant}",
        "scheme=" + ",".join(fmt(v) for v in result.scheme),
        f"seed={result.seed}",
        f"evaluations={result.evaluations_used}",
        f"front_size={result.front_size}",
    ]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def write_hv_trace_csv(path, trace) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("evaluations,hv\n")
        for evals, hv in trace:
            fh.write(f"{evals},{fmt(hv)}\n")


def write_run_result(directory, result: RunResult) -> Path:
    """Write front/positions/metadata (and the hv trace when recorded)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    write_front_csv(directory / "front.csv", result.front_objectives)
    _write_matrix_csv(directory / "positions.csv", result.front_positions, "x")
    write_metadata(directory / "meta.txt", result)
    if result.hv_trace:
        write_hv_trace_csv(directory / "hv_trace.csv", result.hv_trace)
    return directory


def write_comparison_csv(path, rows: list[ComparisonRow]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("problem,indicator,variant_a,median_a,variant_b,median_b,p_value,winner,error\n")
        for r in rows:
            fh.write(
                ",".join(
                    [
                        r.problem,
                        r.indicator,
                        r.variant_a,
                        fmt(r.median_a) if r.median_a is not None else "",
                        r.variant_b,
                        fmt(r.median_b) if r.median_b is not None else "",
                        fmt(r.p_value) if r.p_value is not None else "",
                        r.winner,
                        (r.error or "").replace(",", ";"),
                    ]
                )
                + "\n"
            )


def read_comparison_csv(path) -> list[ComparisonRow]:
    """Read a comparison CSV.  A malformed row is rejected with its 1-based
    row number, the header being row 1."""
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline()
        if not header.startswith("problem,indicator"):
            raise ValueError(f"{path}: not a comparison csv")
        for lineno, line in enumerate(fh, start=2):
            cells = line.rstrip("\n").split(",")
            if len(cells) != 9:
                raise ValueError(f"{path}: row {lineno} has {len(cells)} columns, expected 9")
            try:
                rows.append(
                    ComparisonRow(
                        problem=cells[0],
                        indicator=cells[1],
                        variant_a=cells[2],
                        median_a=float(cells[3]) if cells[3] else None,
                        variant_b=cells[4],
                        median_b=float(cells[5]) if cells[5] else None,
                        p_value=float(cells[6]) if cells[6] else None,
                        winner=cells[7],
                        error=cells[8] or None,
                    )
                )
            except ValueError:
                raise ValueError(f"{path}: non-numeric field in row {lineno}") from None
    return rows


def write_profile_csv(path, points: list[ProfilePoint]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("mu,problem,normalized_hv\n")
        for p in points:
            fh.write(f"{fmt(p.mu)},{p.problem},{fmt(p.normalized_hv)}\n")


def read_profile_csv(path) -> list[ProfilePoint]:
    """Read a profile CSV.  A malformed row is rejected with its 1-based
    row number, the header being row 1."""
    points = []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline()
        if not header.startswith("mu,problem"):
            raise ValueError(f"{path}: not a profile csv")
        for lineno, line in enumerate(fh, start=2):
            cells = line.rstrip("\n").split(",")
            if len(cells) != 3:
                raise ValueError(f"{path}: row {lineno} has {len(cells)} columns, expected 3")
            mu, problem, hv = cells
            try:
                points.append(ProfilePoint(mu=float(mu), problem=problem, normalized_hv=float(hv)))
            except ValueError:
                raise ValueError(f"{path}: non-numeric field in row {lineno}") from None
    return points
