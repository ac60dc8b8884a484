"""Batch comparisons between solver variants, with rank-sum significance.

Runs are paired across variants (seed_i = base_seed + i) so every
comparison sees the same random starts.  Each (problem, indicator) cell
gets the per-variant medians and a two-sided Mann-Whitney p-value.

Every task makes one run.  The "fe" indicator, the evaluations until the
archive hv first reaches hv_target_fraction of the reference hv, is read
from the budget run's per-generation hv trace, or, when fe is the only
indicator, from a run that stops at that target.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .fairness import ParameterScheme, scheme_for_unfairness
from .indicators import additive_epsilon, hypervolume, igd, spacing
from .mutation import MutationConfig
from .optimizer import RunConfig, RunResult, run
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
        for pid in self.problems:
            get_problem(*parse_problem_id(pid))  # cached; raises on an unknown or mis-sized id
        if self.repetitions < 2:
            raise ValueError("repetitions must be >= 2 for statistics")
        bad = [i for i in self.indicators if i not in INDICATORS]
        if bad:
            raise ValueError(f"unknown indicators {bad}; choose from {INDICATORS}")
        for v in self.variants:
            DynamicsConfig(variant=v, swarm_size=self.swarm_size)
        self.run_config()  # raises on a budget, capacity or hv target out of range

    def run_config(self) -> RunConfig:
        """The configuration every run of the experiment starts from."""
        return RunConfig(
            dynamics=DynamicsConfig(swarm_size=self.swarm_size),
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
    variant: str
    scheme: tuple[float, float, float, float] | None
    seed: int
    cfg: RunConfig
    indicators: tuple[str, ...]


def _metrics_for(result: RunResult, problem, wanted: tuple[str, ...]) -> dict:
    out: dict[str, float | str] = {}
    front = result.front_objectives
    for ind in wanted:
        if ind == "hv":
            out["hv"] = hypervolume(front, problem.hv_reference_point)
        elif ind == "sp":
            out["sp"] = spacing(front) if front.shape[0] >= 2 else 0.0
        elif ind in ("igd", "eps"):
            if problem.reference_front is None:
                out[ind] = f"error: no reference front for {problem.name}"
            elif ind == "igd":
                out["igd"] = igd(front, problem.reference_front)
            else:
                out["eps"] = additive_epsilon(front, problem.reference_front)
    out["front_size"] = front.shape[0]
    return out


def _fe(result: RunResult, hv_target: float) -> float:
    """Evaluations at the first traced hv that meets hv_target, else the whole run."""
    return float(next((evals for evals, hv in result.hv_trace if hv >= hv_target), result.evaluations_used))


def _execute(task: _Task) -> dict:
    name, n_obj = parse_problem_id(task.problem_id)
    problem = get_problem(name, n_obj)
    scheme = ParameterScheme(*task.scheme) if task.scheme is not None else None
    dyn = replace(task.cfg.dynamics, variant=task.variant, scheme=scheme)
    fraction = task.cfg.hv_target_fraction
    cfg = replace(task.cfg, dynamics=dyn, hv_target_fraction=None)
    wanted = tuple(i for i in task.indicators if i != "fe")
    metrics: dict = {}
    hv_target = None
    if "fe" in task.indicators:
        reference_hv = cfg.reference_hv if cfg.reference_hv is not None else problem.reference_hv
        if reference_hv is None:
            metrics["fe"] = f"error: no reference hypervolume for {problem.name}"
        else:
            # the traced budget run's trace starts with the target run's trace
            hv_target = fraction * reference_hv
            cfg = replace(cfg, record_interval=1) if wanted else replace(cfg, hv_target_fraction=fraction)
    if wanted or hv_target is not None:
        result = run(problem, cfg, task.seed)
        metrics.update(_metrics_for(result, problem, wanted))
        if hv_target is not None:
            metrics["fe"] = _fe(result, hv_target)
    return metrics


def _run_tasks(tasks: list[_Task], workers: int) -> list[dict]:
    if workers <= 1 or len(tasks) <= 1:
        return [_execute(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_execute, tasks, chunksize=1))


def median(values) -> float:
    return float(np.median(np.asarray(values, dtype=float)))


def run_experiment(spec: ExperimentSpec, workers: int | None = None) -> list[ComparisonRow]:
    """Run every (problem, variant, seed) cell and pair the variants."""
    workers = workers if workers is not None else (os.cpu_count() or 1)
    base_cfg = spec.run_config()
    tasks = [
        _Task(pid, variant, None, spec.base_seed + i, base_cfg, spec.indicators)
        for pid in spec.problems
        for variant in spec.variants
        for i in range(spec.repetitions)
    ]
    metrics = _run_tasks(tasks, workers)

    by_cell: dict[tuple[str, str], list[dict]] = {}
    for task, m in zip(tasks, metrics):
        by_cell.setdefault((task.problem_id, task.variant), []).append(m)

    rows: list[ComparisonRow] = []
    for pid in spec.problems:
        for ind in spec.indicators:
            for ia in range(len(spec.variants)):
                for ib in range(ia + 1, len(spec.variants)):
                    va, vb = spec.variants[ia], spec.variants[ib]
                    rows.append(_compare_cell(pid, ind, va, vb, by_cell[(pid, va)], by_cell[(pid, vb)]))
    return rows


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
    scheme families is skipped with a notice.
    """
    workers = workers if workers is not None else (os.cpu_count() or 1)
    base_cfg = RunConfig(
        dynamics=DynamicsConfig(swarm_size=swarm_size),
        max_evaluations=max_evaluations,
        archive_capacity=archive_capacity,
    )

    notices: list[str] = []
    schemes: list[tuple[float, ParameterScheme]] = []
    for mu in mu_grid:
        try:
            schemes.append((float(mu), scheme_for_unfairness(float(mu))))
        except ValueError as exc:
            notices.append(f"mu={mu}: skipped ({exc})")

    tasks: list[_Task] = []
    for pid in problems:
        for i in range(repetitions):
            tasks.append(_Task(pid, "smpso", None, base_seed + i, base_cfg, ("hv",)))
        for _, scheme in schemes:
            for i in range(repetitions):
                tasks.append(
                    _Task(pid, "em-smpso", scheme.as_tuple(), base_seed + i, base_cfg, ("hv",))
                )
    metrics = _run_tasks(tasks, workers)

    points: list[ProfilePoint] = []
    cursor = 0
    for pid in problems:
        baseline = median([m["hv"] for m in metrics[cursor : cursor + repetitions]])
        cursor += repetitions
        if baseline == 0.0:
            raise ValueError(f"{pid}: the smpso baseline's median hv is 0, so no hv can be normalized by it")
        for mu, _ in schemes:
            hvs = [m["hv"] for m in metrics[cursor : cursor + repetitions]]
            cursor += repetitions
            points.append(ProfilePoint(mu=mu, problem=pid, normalized_hv=median(hvs) / baseline))
    return points, notices


# --- rank-sum test ----------------------------------------------------------


def _midranks(values: np.ndarray) -> np.ndarray:
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values))
    sorted_vals = values[order]
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def _exact_u_counts(n1: int, n2: int) -> np.ndarray:
    """counts[u] = number of rank arrangements with U statistic u.

    Recurrence on the largest rank: held by sample A it beats all n2 B
    values, held by B it adds nothing, giving
    c(n1, n2, u) = c(n1-1, n2, u-n2) + c(n1, n2-1, u).
    """
    table: dict[tuple[int, int], np.ndarray] = {}

    def c(i: int, j: int) -> np.ndarray:
        if i == 0 or j == 0:
            return np.ones(1)
        key = (i, j)
        if key not in table:
            out = np.zeros(i * j + 1)
            left = c(i - 1, j)
            out[j : j + left.shape[0]] += left
            right = c(i, j - 1)
            out[: right.shape[0]] += right
            table[key] = out
        return table[key]

    return c(n1, n2)


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
    pooled = np.concatenate([a, b])
    ranks = _midranks(pooled)
    u1 = float(np.sum(ranks[:n1])) - n1 * (n1 + 1) / 2.0
    u2 = n1 * n2 - u1

    _, tie_counts = np.unique(pooled, return_counts=True)
    has_ties = bool(np.any(tie_counts > 1))
    if not has_ties and n1 + n2 <= 16:
        counts = _exact_u_counts(n1, n2)
        total = counts.sum()
        u_min = min(u1, u2)
        p = 2.0 * counts[: int(u_min) + 1].sum() / total
        return min(1.0, p)

    n = n1 + n2
    tie_term = float(np.sum(tie_counts**3 - tie_counts)) / (n * (n - 1))
    sigma_sq = n1 * n2 / 12.0 * ((n + 1) - tie_term)
    if sigma_sq <= 0.0:
        return 1.0
    z = (abs(u1 - n1 * n2 / 2.0) - 0.5) / math.sqrt(sigma_sq)
    z = max(z, 0.0)
    return math.erfc(z / math.sqrt(2.0))
