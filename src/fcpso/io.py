"""CSV files for fronts, runs, comparisons and profiles.

Every CSV goes through one row writer: a header, then one line per
record.  Floats are written by ``fmt`` with repr precision, so a rerun
with the same seed produces byte-identical files; an absent value is an
empty cell.  Only the front CSV (``f1,...,fk``, one point per row) is
read back, by ``read_front_csv``.  A run lands in
``<root>/<problem>-<m>/<variant>/<seed>/``, m being the objective count,
and ``write_run_result`` writes all its files.  Its ``meta.txt`` takes
the run's identity from its inputs, (problem, config, seed), one source
per line, then records every other setting that determines it (an
``HvTrace``'s target too), so that a run with other settings is refused
that directory, and ends with the result's evaluations and front size.
"""

from __future__ import annotations

import math
import os
from pathlib import Path

import numpy as np

from .experiments import ComparisonRow, ProfilePoint
from .indicators import HvTrace
from .optimizer import RunConfig, RunResult
from .problems import ProblemInstance

__all__ = [
    "fmt",
    "results_root",
    "run_directory",
    "check_run_directory",
    "write_front_csv",
    "read_front_csv",
    "write_run_result",
    "write_comparison_csv",
    "write_profile_csv",
]


def fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _cell(x: float | None) -> str:
    return "" if x is None else fmt(x)


def _write_csv(path, header, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for cells in (header, *rows):
            fh.write(",".join(cells) + "\n")


def results_root(override: str | None = None) -> Path:
    if override:
        return Path(override)
    return Path(os.environ.get("FCPSO_RESULTS_DIR", "results"))


def run_directory(root: Path, problem: ProblemInstance, cfg: RunConfig, seed: int) -> Path:
    """Where ``run(problem, cfg, seed)`` lands under ``root``."""
    return Path(root) / f"{problem.name}-{problem.n_obj}" / cfg.dynamics.variant / str(seed)


def _run_settings(cfg: RunConfig, trace: HvTrace | None) -> dict[str, str]:
    """The settings a run's directory does not name, keyed as in a
    ``solve`` config file: the ``meta.txt`` lines that tell two runs of
    one directory apart."""
    dyn, mutation = cfg.dynamics, cfg.mutation
    inertia = {} if dyn.inertia is None else {"inertia": fmt(dyn.inertia)}
    return {
        "scheme": ",".join(fmt(v) for v in dyn.scheme.as_tuple()),
        **inertia,
        "swarm_size": str(dyn.swarm_size),
        "archive_capacity": str(cfg.archive_capacity),
        "max_evaluations": str(cfg.max_evaluations),
        "hv_target": _cell(None if trace is None else trace.fraction),
        "distribution_index": fmt(mutation.distribution_index),
        "per_variable_probability": _cell(mutation.per_variable_probability),
        "particle_fraction": fmt(mutation.particle_fraction),
    }


def check_run_directory(directory, cfg: RunConfig, trace: HvTrace | None = None) -> None:
    """Raise ValueError, naming the directory and the key, when its
    ``meta.txt`` records a setting with another value than ``cfg``'s or
    ``trace``'s; a key that an older ``meta.txt`` lacks is no conflict."""
    path = Path(directory) / "meta.txt"
    if not path.is_file():
        return
    settings = _run_settings(cfg, trace)
    for line in path.read_text(encoding="utf-8").splitlines():
        key, _, recorded = line.partition("=")
        if settings.get(key, recorded) != recorded:
            raise ValueError(
                f"{directory} holds a run with {key}={recorded}, and this run has {key}={settings[key]}"
            )


def _write_matrix_csv(path, values: np.ndarray, prefix: str) -> None:
    A = np.atleast_2d(np.asarray(values, dtype=float))
    _write_csv(path, [f"{prefix}{j + 1}" for j in range(A.shape[1])], [map(fmt, row) for row in A])


def write_front_csv(path, objectives: np.ndarray) -> None:
    _write_matrix_csv(path, objectives, "f")


def _parses(field: str) -> bool:
    try:
        float(field)
    except ValueError:
        return False
    return True


def read_front_csv(path) -> np.ndarray:
    """Read a front CSV (optional f1,...,fk header; one point per row).

    The first non-blank line is a header when none of its fields is a
    number.  Malformed rows (a non-numeric or non-finite field, or a
    column count unlike the first row's) are rejected with their 1-based
    row number.  A UTF-8 byte-order mark, as spreadsheet exports write,
    is skipped.
    """
    with open(path, "r", encoding="utf-8-sig") as fh:
        lines = [(lineno, line.strip().split(",")) for lineno, line in enumerate(fh, start=1) if line.strip()]
    if lines and not any(_parses(c) for c in lines[0][1]):
        del lines[0]  # header row
    rows: list[list[float]] = []
    for lineno, fields in lines:
        if not all(_parses(c) for c in fields):
            raise ValueError(f"{path}: non-numeric field in row {lineno}")
        values = [float(c) for c in fields]
        if not all(math.isfinite(v) for v in values):
            raise ValueError(f"{path}: non-finite field in row {lineno}")
        if rows and len(values) != len(rows[0]):
            raise ValueError(f"{path}: row {lineno} has {len(values)} columns, expected {len(rows[0])}")
        rows.append(values)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return np.array(rows)


def write_run_result(directory, problem: ProblemInstance, cfg: RunConfig, seed: int, result: RunResult,
                     trace: HvTrace | None = None) -> Path:
    """Write the front, positions and ``meta.txt`` of ``run(problem, cfg,
    seed, observe=trace)``, and the trace's points when it has any
    (removing an hv trace an earlier run left when not)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    write_front_csv(directory / "front.csv", result.front_objectives)
    _write_matrix_csv(directory / "positions.csv", result.front_positions, "x")
    inputs = {"problem": problem.name, "objectives": problem.n_obj, "variant": cfg.dynamics.variant, "seed": seed}
    outputs = {"evaluations": result.evaluations_used, "front_size": result.front_size}
    meta = {**inputs, **_run_settings(cfg, trace), **outputs}
    (directory / "meta.txt").write_text("".join(f"{key}={value}\n" for key, value in meta.items()), encoding="utf-8")
    if trace is not None and trace.points:
        _write_csv(directory / "hv_trace.csv", ("evaluations", "hv"), [(f"{e}", fmt(hv)) for e, hv in trace.points])
    else:
        (directory / "hv_trace.csv").unlink(missing_ok=True)
    return directory


def write_comparison_csv(path, rows: list[ComparisonRow]) -> None:
    header = ("problem", "indicator", "variant_a", "median_a", "variant_b", "median_b",
              "p_value", "winner", "error")
    _write_csv(path, header, [
        (r.problem, r.indicator, r.variant_a, _cell(r.median_a), r.variant_b, _cell(r.median_b),
         _cell(r.p_value), r.winner, (r.error or "").replace(",", ";"))
        for r in rows
    ])


def write_profile_csv(path, points: list[ProfilePoint]) -> None:
    _write_csv(path, ("mu", "problem", "normalized_hv"),
               [(fmt(p.mu), p.problem, fmt(p.normalized_hv)) for p in points])
