"""Batch comparisons between solver variants, with rank-sum significance.

Runs are paired across variants (seed_i = base_seed + i) so every
comparison sees the same random starts.  Each (problem, indicator) cell
gets the per-variant medians and a two-sided Mann-Whitney p-value.

Each distinct (problem, configuration) cell runs once per seed, and every
task makes one run; ids that build one (name, objective count), such as
"dtlz2" and "DTLZ2:3", share a cell.  The "fe" indicator, the evaluations
until the archive hv first reaches hv_target_fraction of the reference
hv, is read from the budget run's per-generation hv trace, or, when fe
is the only indicator, from a run that stops at that target.  A one-point
front's sp, like igd or eps without a reference front, is an error row.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from itertools import combinations

import numpy as np

from .fairness import ParameterScheme, scheme_for_unfairness
from .indicators import additive_epsilon, hypervolume, igd, spacing
from .mutation import MutationConfig
from .optimizer import RunConfig, run
from .problems import get_problem, parse_problem_id
from .swarm import DynamicsConfig

__all__ = [
    "ExperimentSpec",
    "ComparisonRow",
    "ProfilePoint",
    "run_experiment",
    "unfairness_profile",
    "mann_whitney_p",
    "median",
]

INDICATORS = ("hv", "igd", "eps", "sp", "fe")
_LOWER_IS_BETTER = {"hv": False, "igd": True, "eps": True, "sp": True, "fe": True}
SIGNIFICANCE = 0.05


@dataclass(frozen=True)
class ExperimentSpec:
    problems: tuple[str, ...]  # "zdt1" or "dtlz1:5"
    variants: tuple[str, ...] = ("smpso", "fcpso")
    repetitions: int = 20
    indicators: tuple[str, ...] = ("hv",)
    base_seed: int = 1
    max_evaluations: int = 25_000
    swarm_size: int = 100
    archive_capacity: int = 100
    mutation: MutationConfig = field(default_factory=MutationConfig)
    hv_target_fraction: float = 0.95  # used by the "fe" indicator only

    def __post_init__(self) -> None:
        if not self.problems or not self.indicators or len(self.variants) < 2:
            raise ValueError("an experiment needs a problem, an indicator and two variants to pair")
        _check_plan(self.problems, self.repetitions, 2, self.base_seed)
        bad = [i for i in self.indicators if i not in INDICATORS]
        if bad:
            raise ValueError(f"unknown indicators {bad}; choose from {INDICATORS}")
        if "fe" in self.indicators and self.hv_target_fraction is None:
            raise ValueError("the fe indicator needs an hv_target_fraction")
        for v in self.variants:
            self.run_config(v)  # raises on a variant, budget, capacity or hv target out of range

    def run_config(self, variant: str) -> RunConfig:
        """The configuration of every run of ``variant``."""
        return RunConfig(
            dynamics=DynamicsConfig(variant=variant, swarm_size=self.swarm_size),
            mutation=self.mutation,
            max_evaluations=self.max_evaluations,
            archive_capacity=self.archive_capacity,
            hv_target_fraction=self.hv_target_fraction,
        )


@dataclass(frozen=True)
class ComparisonRow:
    problem: str
    indicator: str
    variant_a: str
    variant_b: str
    median_a: float | None
    median_b: float | None
    p_value: float | None
    winner: str  # "a" | "b" | "tie" | "error"
    error: str | None = None


@dataclass(frozen=True)
class ProfilePoint:
    mu: float
    problem: str
    normalized_hv: float


@dataclass(frozen=True)
class _Task:
    problem_id: str
    seed: int
    cfg: RunConfig
    indicators: tuple[str, ...]


def _execute(task: _Task) -> dict:
    """One run of the task's problem, configuration and seed, and its metrics.

    fe alone stops the run at the hv target; beside another indicator, fe
    is read from a budget run traced every generation.
    """
    problem = get_problem(*parse_problem_id(task.problem_id))
    wanted = tuple(i for i in task.indicators if i != "fe")
    fe = "fe" in task.indicators and problem.reference_hv is not None
    metrics: dict = {}
    if "fe" in task.indicators and not fe:
        metrics["fe"] = f"error: no reference hypervolume for {problem.name}"
    if not (wanted or fe):
        return metrics
    cfg = replace(task.cfg, hv_target_fraction=None, record_interval=int(fe)) if wanted else task.cfg
    result = run(problem, cfg, task.seed)
    front, reference = result.front_objectives, problem.reference_front
    for ind in wanted:
        if ind == "hv":
            metrics["hv"] = hypervolume(front, problem.hv_reference_point)
        elif ind == "sp":  # spacing needs two points
            one_point = f"error: a one-point {problem.name} front has no spacing"
            metrics["sp"] = spacing(front) if len(front) > 1 else one_point
        elif reference is None:
            metrics[ind] = f"error: no reference front for {problem.name}"
        else:
            metrics[ind] = (igd if ind == "igd" else additive_epsilon)(front, reference)
    metrics["front_size"] = front.shape[0]
    if fe:  # evaluations at the first traced hv that meets the target, else the whole run
        target = task.cfg.hv_target(problem)
        metrics["fe"] = float(next((e for e, hv in result.hv_trace if hv >= target), result.evaluations_used))
    return metrics


def _check_plan(problems, repetitions: int, minimum: int, base_seed: int) -> None:
    """Reject a batch's problems, repetitions or seeds before any run starts."""
    if not problems:
        raise ValueError("no problems to run")
    for pid in problems:
        get_problem(*parse_problem_id(pid))  # cached; raises on an unknown or mis-sized id
    if repetitions < minimum:
        raise ValueError(f"repetitions must be >= {minimum}" + (" for statistics" if minimum > 1 else ""))
    if base_seed < 0:
        raise ValueError(f"base_seed must be >= 0, got {base_seed!r}")


def _run_cells(problems, configs: dict, repetitions: int, base_seed: int, indicators, workers) -> dict:
    """Run each distinct (problem, config key) cell once per seed; ids that
    build the same problem ("dtlz2", "DTLZ2:3") share one cell.

    Returns {(problem id, key): metrics of seeds base_seed, base_seed + 1, ...}
    for every id as written; ``workers`` defaults to one process per core.
    """
    seeds = range(base_seed, base_seed + repetitions)
    first: dict = {}  # (name, n_obj) -> the first id that builds that problem
    runs_as = {}
    for pid in problems:
        problem = get_problem(*parse_problem_id(pid))
        runs_as[pid] = first.setdefault((problem.name, problem.n_obj), pid)
    cells = [(pid, key) for pid in first.values() for key in configs]
    tasks = [_Task(pid, seed, configs[key], indicators) for pid, key in cells for seed in seeds]
    workers = workers if workers is not None else (os.cpu_count() or 1)
    if workers <= 1 or len(tasks) <= 1:
        metrics = [_execute(t) for t in tasks]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            metrics = list(pool.map(_execute, tasks, chunksize=1))
    in_order = iter(metrics)
    by_cell = {cell: [next(in_order) for _ in seeds] for cell in cells}
    return {(pid, key): by_cell[(runs_as[pid], key)] for pid in runs_as for key in configs}


def median(values) -> float:
    return float(np.median(np.asarray(values, dtype=float)))


def run_experiment(spec: ExperimentSpec, workers: int | None = None) -> list[ComparisonRow]:
    """Run every (problem, variant, seed) cell once and pair the variants."""
    configs = {variant: spec.run_config(variant) for variant in spec.variants}
    by_cell = _run_cells(spec.problems, configs, spec.repetitions, spec.base_seed, spec.indicators, workers)
    return [
        _compare_cell(pid, ind, va, vb, by_cell[(pid, va)], by_cell[(pid, vb)])
        for pid in spec.problems
        for ind in spec.indicators
        for va, vb in combinations(spec.variants, 2)
    ]


def _compare_cell(pid, ind, va, vb, ma, mb) -> ComparisonRow:
    xs = [m[ind] for m in ma]
    ys = [m[ind] for m in mb]
    errs = [v for v in xs + ys if isinstance(v, str)]
    if errs:
        return ComparisonRow(pid, ind, va, vb, None, None, None, "error", error=errs[0])
    p = mann_whitney_p(xs, ys)
    med_a, med_b = median(xs), median(ys)
    if p >= SIGNIFICANCE or med_a == med_b:
        winner = "tie"
    elif (med_a < med_b) == _LOWER_IS_BETTER[ind]:
        winner = "a"
    else:
        winner = "b"
    return ComparisonRow(pid, ind, va, vb, med_a, med_b, p, winner)


def unfairness_profile(
    problems,
    mu_grid,
    repetitions: int = 5,
    base_seed: int = 1,
    max_evaluations: int = 25_000,
    swarm_size: int = 100,
    archive_capacity: int = 100,
    workers: int | None = None,
) -> tuple[list[ProfilePoint], list[str]]:
    """Median archive hypervolume of momentum swarms across an unfairness
    grid, normalized per problem by the inertial baseline's median.

    Returns (points, notices); a mu outside the coverage of the known
    scheme families is skipped with a notice, and a grid with no mu left
    runs nothing.  Bad problems, repetitions or seeds raise before any run.
    """
    _check_plan(problems, repetitions, 1, base_seed)

    def config(variant: str, scheme: ParameterScheme | None = None) -> RunConfig:
        return RunConfig(
            dynamics=DynamicsConfig(variant=variant, scheme=scheme, swarm_size=swarm_size),
            max_evaluations=max_evaluations,
            archive_capacity=archive_capacity,
        )

    notices: list[str] = []
    grid: list[float] = []
    configs = {"baseline": config("smpso")}  # the inertial baseline, then one momentum swarm per mu
    for mu in mu_grid:
        try:
            scheme = scheme_for_unfairness(float(mu))
        except ValueError as exc:
            notices.append(f"mu={mu}: skipped ({exc})")
            continue
        grid.append(float(mu))
        configs[float(mu)] = config("em-smpso", scheme)  # a repeated mu (or -0.0 and 0.0) is one cell
    if not grid:
        return [], notices

    by_cell = _run_cells(problems, configs, repetitions, base_seed, ("hv",), workers)
    points: list[ProfilePoint] = []
    for pid in problems:
        baseline = median([m["hv"] for m in by_cell[(pid, "baseline")]])
        if baseline == 0.0:
            raise ValueError(f"{pid}: the smpso baseline's median hv is 0, so no hv can be normalized by it")
        for mu in grid:
            hvs = [m["hv"] for m in by_cell[(pid, mu)]]
            points.append(ProfilePoint(mu=mu, problem=pid, normalized_hv=median(hvs) / baseline))
    return points, notices


# --- rank-sum test ----------------------------------------------------------


def _exact_u_counts(n1: int, n2: int) -> np.ndarray:
    """counts[u] = number of rank arrangements with U statistic u.

    Recurrence on the largest rank: held by sample A it beats all n2 B
    values, held by B it adds nothing, giving
    c(n1, n2, u) = c(n1-1, n2, u-n2) + c(n1, n2-1, u),
    filled one n1 at a time, each row over n2 = 0, 1, ...
    """
    row = [np.ones(1)] * (n2 + 1)  # c(0, j)
    for i in range(1, n1 + 1):
        above, row = row, [np.ones(1)]
        for j in range(1, n2 + 1):
            out = np.zeros(i * j + 1)
            out[j:] += above[j]
            out[: row[j - 1].shape[0]] += row[j - 1]
            row.append(out)
    return row[n2]


def mann_whitney_p(sample_a, sample_b) -> float:
    """Two-sided Mann-Whitney U p-value.

    Exact rank-sum enumeration for tie-free samples of combined size
    <= 16, normal approximation with tie correction otherwise.  Two
    identical samples give p = 1.
    """
    a = np.asarray(sample_a, dtype=float)
    b = np.asarray(sample_b, dtype=float)
    n1, n2 = len(a), len(b)
    if n1 < 2 or n2 < 2:
        raise ValueError("both samples need at least 2 observations")
    # one sort ranks the pooled values: t tied values ending at rank r share the midrank r - (t - 1) / 2
    _, value_of, ties = np.unique(np.concatenate([a, b]), return_inverse=True, return_counts=True)
    midranks = np.cumsum(ties) - (ties - 1) / 2.0
    u1 = float(np.sum(midranks[value_of[:n1]])) - n1 * (n1 + 1) / 2.0
    u2 = n1 * n2 - u1
    if ties.max() == 1 and n1 + n2 <= 16:
        counts = _exact_u_counts(n1, n2)
        return min(1.0, float(2.0 * counts[: int(min(u1, u2)) + 1].sum() / counts.sum()))

    n = n1 + n2
    tie_term = float(np.sum(ties**3 - ties)) / (n * (n - 1))
    sigma_sq = n1 * n2 / 12.0 * ((n + 1) - tie_term)
    if sigma_sq <= 0.0:
        return 1.0
    z = (abs(u1 - n1 * n2 / 2.0) - 0.5) / math.sqrt(sigma_sq)
    z = max(z, 0.0)
    return math.erfc(z / math.sqrt(2.0))
