"""The benchmark's workloads, driven only through fcpso's public functions.

Each workload is a closed loop in one process: the next operation starts
when the previous one has returned.  Every pass solves on solver seed 1
(paired-batch: the paired seeds 1-5), so the passes of a run repeat the
same work, and the workload seed orders the operations of each pass.  A
solve's seed fixes its front, and with it the front's IGD and the cost of
its exact 5-objective hypervolume, which moved by 25% (many-obj
``indicator_s``) and 32% (paired-batch ``igd``) across workload seeds
21-30 when the solver seeds were derived from the workload seed: more than
any bound the benchmark may set.

* ``zdt1-25k``: zdt1 with smpso, em-smpso and fcpso at 25,000 evaluations,
  then final hv and igd.  Per-particle Python in swarm/optimizer and the
  2-objective archive dominate; the variants use the archive differently
  (fcpso fills it and evicts by crowding, em-smpso keeps 10-20 entries).
* ``many-obj-25k``: fcpso on dtlz2:3 and wfg4:5 at 25,000 evaluations, then
  final hv and igd.  Problem evaluation, 3/5-objective archive crowding
  and exact 5-objective hypervolume do most of the work here.
* ``paired-batch``: ``run_experiment`` on zdt1/2/3/4/6, smpso vs fcpso,
  5 paired seeds of 5,000 evaluations, indicators hv, igd and fe, one
  pool worker per core.  The only workload for the experiments layer:
  process-pool fan-out, short tasks, the fe re-run with per-generation hv,
  and Mann-Whitney.
"""

from __future__ import annotations

import random
import statistics
import time
from dataclasses import dataclass, field

import gate

BUDGET = 25_000
CAPACITY = 100
SOLVER_SEED = 1
SOLVES = {
    "zdt1-25k": (("zdt1", "smpso"), ("zdt1", "em-smpso"), ("zdt1", "fcpso")),
    "many-obj-25k": (("dtlz2:3", "fcpso"), ("wfg4:5", "fcpso")),
}
# Final-front indicators of a timing pass are computed this many times and
# timed by the median call: a 2-objective hv and igd take about 3 ms, short
# enough for one hiccup of the host to move the sum of three by 20%.
INDICATOR_REPEATS = {"zdt1-25k": 9, "many-obj-25k": 1}
BATCH_PROBLEMS = ("zdt1", "zdt2", "zdt3", "zdt4", "zdt6")
BATCH_VARIANTS = ("smpso", "fcpso")
BATCH_REPETITIONS = 5
BATCH_EVALUATIONS = 5_000
WORKLOADS = (*SOLVES, "paired-batch")


def pass_order(seed: int, index: int, items: tuple) -> list:
    """The order in which pass ``index`` of workload seed ``seed`` runs ``items``."""
    return random.Random(f"{seed}/{index}").sample(items, len(items))


@dataclass
class Pass:
    """What one pass over a workload's operations measured.

    ``wall_s`` sums the time spent inside fcpso calls; the correctness
    checks run outside it.  The ``ref_`` fields hold the same times in
    reference seconds (see ``refclock``).  ``failures`` has one entry per
    operation, empty when the operation passed every check; ``labels`` and
    ``snapshots`` name the solves of a pass and hold the tracer's counts
    after each.
    """

    wall_s: float = 0.0
    solve_s: list[float] = field(default_factory=list)
    indicator_s: float = 0.0
    ref_wall_s: float = 0.0
    ref_solve_s: list[float] = field(default_factory=list)
    ref_indicator_s: float = 0.0
    evaluations: int = 0
    igd: list[float] = field(default_factory=list)
    failures: list[list[str]] = field(default_factory=list)
    labels: list[str] = field(default_factory=list)
    snapshots: list[dict] = field(default_factory=list)


def problem_ids(workload: str) -> tuple[str, ...]:
    if workload == "paired-batch":
        return BATCH_PROBLEMS
    return tuple(dict.fromkeys(pid for pid, _ in SOLVES[workload]))


def setup(workload: str, workers: int) -> None:
    """Import fcpso and build the workload's problems and reference fronts;
    for ``paired-batch`` also start a pool of ``workers`` through a tiny
    experiment."""
    from fcpso import experiments, problems

    for pid in problem_ids(workload):
        problem = problems.get_problem(*problems.parse_problem_id(pid))
        if problem.reference_front is None:
            raise RuntimeError(f"{pid} has no reference front")
    if workload == "paired-batch":
        tiny = experiments.ExperimentSpec(
            problems=("zdt1",), repetitions=2, max_evaluations=100, indicators=("hv",)
        )
        experiments.run_experiment(tiny, workers=workers)


def batch_spec(index: int, seed: int):
    from fcpso import experiments

    return experiments.ExperimentSpec(
        problems=tuple(pass_order(seed, index, BATCH_PROBLEMS)),
        variants=BATCH_VARIANTS,
        repetitions=BATCH_REPETITIONS,
        indicators=("hv", "igd", "fe"),
        base_seed=SOLVER_SEED,
        max_evaluations=BATCH_EVALUATIONS,
    )


def batch_tasks() -> int:
    return len(BATCH_PROBLEMS) * len(BATCH_VARIANTS) * BATCH_REPETITIONS


def final_indicators(result, problem) -> tuple[float, float]:
    from fcpso import indicators

    front = result.front_objectives
    return (
        indicators.hypervolume(front, problem.hv_reference_point),
        indicators.igd(front, problem.reference_front),
    )


def solve_pass(workload: str, index: int, seed: int, clock, snapshot=None, indicator_repeats=1) -> Pass:
    """Solve each (problem, variant) of the workload once, in the order
    ``seed`` gives for pass ``index``, then compute each final front's hv
    and igd ``indicator_repeats`` times, all timed by ``clock`` (a
    ``refclock.RefClock``); the indicators' time is their median call.
    ``snapshot``, when given, is called after each solve and its value kept
    in ``Pass.snapshots``."""
    from fcpso import optimizer, problems
    from fcpso.optimizer import RunConfig
    from fcpso.swarm import DynamicsConfig

    out = Pass()
    for pid, variant in pass_order(seed, index, SOLVES[workload]):
        label = f"{pid}/{variant}/seed={SOLVER_SEED}"
        out.labels.append(label)
        try:
            problem = problems.get_problem(*problems.parse_problem_id(pid))
            cfg = RunConfig(
                dynamics=DynamicsConfig(variant=variant),
                max_evaluations=BUDGET,
                archive_capacity=CAPACITY,
            )
            result, solve_s, ref_solve_s = clock.timed(optimizer.run, problem, cfg, seed=SOLVER_SEED)
            calls = [clock.timed(final_indicators, result, problem) for _ in range(indicator_repeats)]
            (hv, igd), _, _ = calls[0]
            indicator_s = statistics.median(raw for _, raw, _ in calls)
            ref_indicator_s = statistics.median(ref for _, _, ref in calls)
        except Exception as exc:  # a crash is a failed operation, not a dropped one
            out.failures.append([f"{label}: {type(exc).__name__}: {exc}"])
            continue
        finally:
            if snapshot is not None:
                out.snapshots.append(snapshot())
        out.wall_s += solve_s + indicator_s
        out.solve_s.append(solve_s)
        out.indicator_s += indicator_s
        out.ref_wall_s += ref_solve_s + ref_indicator_s
        out.ref_solve_s.append(ref_solve_s)
        out.ref_indicator_s += ref_indicator_s
        out.evaluations += result.evaluations_used
        out.igd.append(igd)
        bad = gate.check_front(result, problem, BUDGET, CAPACITY)
        bad += gate.check_quality(hv, igd, gate.IGD_MAX_25K[(pid, variant)])
        out.failures.append([f"{label}: {b}" for b in bad])
    return out


def batch_pass(index: int, seed: int, workers: int, clock, stopwatch=None) -> Pass:
    """Pass ``index`` of the paired batch, problems in the order ``seed``
    gives.  ``clock`` scales the batch's time, which is taken whole: its
    work runs in pool workers, which the clock's loops do not hold up.
    ``stopwatch`` is a tracer wrapping the runs and final-front indicators
    the batch makes; its counts give the per-run and indicator times, which
    are not visible from outside the pool, and are scaled as the batch is.
    The batch's igd values are its 10 per-cell IGD medians."""
    from fcpso import experiments

    out = Pass()
    spec = batch_spec(index, seed)
    if stopwatch is not None:
        stopwatch.reset()
    try:
        mark = clock.mark()
        t0 = time.perf_counter()
        rows = experiments.run_experiment(spec, workers=workers)
        out.wall_s = time.perf_counter() - t0
        out.ref_wall_s = clock.scale(out.wall_s, mark)
    except Exception as exc:
        rows_expected = len(spec.problems) * len(spec.indicators)
        out.failures = [[f"run_experiment: {type(exc).__name__}: {exc}"]] * rows_expected
        return out
    out.failures = gate.check_batch(rows, spec)
    out.igd = [m for r in rows if r.indicator == "igd" for m in (r.median_a, r.median_b)]
    if stopwatch is not None:
        stats = stopwatch.collect()
        runs = stats.get("optimizer.run.calls", 0.0)
        if runs:
            out.solve_s = [stats["optimizer.run.s"] / runs]
        out.evaluations = int(stats.get("optimizer.run.evaluations", 0))
        out.indicator_s = sum(v for k, v in stats.items() if k.startswith("indicators.") and k.endswith(".s"))
        factor = out.ref_wall_s / out.wall_s
        out.ref_solve_s = [s * factor for s in out.solve_s]
        out.ref_indicator_s = out.indicator_s * factor
    return out
