"""fcpso benchmark: run one workload and print one JSON result line.

    python3 perfbench/run.py --workload zdt1-25k --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; fcpso is imported from ``src/``
there and nowhere else.  ``--trace 0`` repeats whole passes over the
workload for as close to ``--seconds`` as they allow, and reports the
end-to-end metrics.
``--trace 1`` runs pass 0 once untraced and once under the layer tracer
and reports the per-layer metrics.  Every operation goes through the
correctness gate; the last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 9
# One BLAS/OpenMP thread, set before numpy is first imported here or in a
# child: the benchmark measures fcpso's own parallelism (the experiment
# pool), not a math library's.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "BLIS_NUM_THREADS",
)

# (name, unit) of every metric, in BENCHMARK.json's order.
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("solve_s", "s"),
    ("evals_per_s", "1/s"),
    ("indicator_s", "s"),
    ("igd", "dist"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "ratio"),
)
# Per-layer metric -> the tracer role whose self time or entries it reports.
ROLE_TIMES = {
    "swarm.velocity_s": "swarm.velocity",
    "swarm.position_s": "swarm.position",
    "swarm.pbest_s": "swarm.pbest",
    "swarm.init_s": "swarm.init",
    "constriction.chi_s": "constriction.chi",
    "archive.insert_s": "archive.insert",
    "archive.leader_s": "archive.leader",
    "archive.crowding_s": "archive.crowding",
    "problems.evaluate_s": "problems.evaluate",
    "mutation.turbulence_s": "mutation.turbulence",
    "mutation.mutate_s": "mutation.mutate",
    "optimizer.self_s": "optimizer.run",
    "indicators.hv_s.k2": "indicators.hv.k2",
    "indicators.hv_s.k3": "indicators.hv.k3",
    "indicators.hv_s.k5": "indicators.hv.k5",
    "indicators.igd_s": "indicators.igd",
    "experiments.run_experiment_s": "experiments.run_experiment",
    "experiments.mann_whitney_s": "experiments.mann_whitney",
}
ROLE_CALLS = {
    "swarm.velocity_calls": "swarm.velocity",
    "constriction.chi_calls": "constriction.chi",
    "archive.insert_calls": "archive.insert",
    "archive.crowding_calls": "archive.crowding",
    "problems.evaluate_calls": "problems.evaluate",
    "mutation.mutate_calls": "mutation.mutate",
    "optimizer.run_calls": "optimizer.run",
    "experiments.mann_whitney_calls": "experiments.mann_whitney",
}
PER_LAYER_UNITS = {
    **{name: "s" for name in ROLE_TIMES},
    **{name: "count" for name in ROLE_CALLS},
    "archive.inserted": "count",
    "archive.dominated": "count",
    "archive.replaced_crowded": "count",
    "archive.accept_ratio": "ratio",
    "indicators.hv_calls": "count",
    "experiments.tasks": "count",
    "experiments.runs_per_task": "ratio",
    "trace.coverage": "ratio",
    "trace.overhead": "ratio",
    "trace.unaccounted_s": "s",
    "trace.other_s": "s",
}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def end_to_end_metrics(passes, setup_times, peak_rss_mb) -> dict[str, float]:
    """Reduce the untraced passes of one run to the end-to-end metrics.

    Timings are in reference seconds (see ``refclock``) and are medians
    over passes (``solve_s`` of each pass's mean solve time, since one pass
    mixes solves of different cost); ``igd`` is the median over pass 0's
    fronts, so it is fixed by the code.
    """
    solves = [statistics.fmean(p.ref_solve_s) for p in passes if p.ref_solve_s]
    wall = sum(p.ref_wall_s for p in passes)
    attempted = sum(len(p.failures) for p in passes)
    failed = sum(1 for p in passes for f in p.failures if f)
    return {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(p.ref_wall_s for p in passes),
        "solve_s": statistics.median(solves) if solves else 0.0,
        "evals_per_s": sum(p.evaluations for p in passes) / wall if wall else 0.0,
        "indicator_s": statistics.median(p.ref_indicator_s for p in passes),
        "igd": statistics.median(passes[0].igd) if passes[0].igd else 0.0,
        "peak_rss_mb": peak_rss_mb,
        "ok_frac": 1.0 - failed / attempted if attempted else 0.0,
    }


def layer_metrics(stats: dict[str, float], traced_wall: float, untraced_wall: float, tasks: int):
    """Per-layer metrics of one traced pass from the tracer's counters."""
    get = stats.get
    out = {name: get(role + ".s", 0.0) for name, role in ROLE_TIMES.items()}
    out.update({name: get(role + ".calls", 0.0) for name, role in ROLE_CALLS.items()})
    inserts = get("archive.insert.calls", 0.0)
    out["archive.inserted"] = get("archive.insert.inserted", 0.0)
    out["archive.dominated"] = get("archive.insert.dominated", 0.0)
    out["archive.replaced_crowded"] = get("archive.insert.replaced_crowded", 0.0)
    accepted = out["archive.inserted"] + out["archive.replaced_crowded"]
    out["archive.accept_ratio"] = accepted / inserts if inserts else 0.0
    out["indicators.hv_calls"] = sum(
        v for k, v in stats.items() if k.startswith("indicators.hv.") and k.endswith(".calls")
    )
    out["experiments.tasks"] = float(tasks)
    out["experiments.runs_per_task"] = get("optimizer.run.calls", 0.0) / tasks if tasks else 0.0
    main_spans = get("trace.span_self_s", 0.0)
    all_spans = main_spans + get("trace.worker_span_self_s", 0.0)
    out["trace.coverage"] = main_spans / traced_wall if traced_wall else 0.0
    out["trace.overhead"] = traced_wall / untraced_wall if untraced_wall else 0.0
    out["trace.unaccounted_s"] = traced_wall - main_spans
    # span time that no named metric above reports, e.g. a 4-objective
    # hypervolume or a top-level get_problem call
    out["trace.other_s"] = all_spans - sum(get(role + ".s", 0.0) for role in ROLE_TIMES.values())
    return out


def time_setups(workload: str, workers: int, clock) -> list[float]:
    """Set-up time of ``SETUP_REPEATS`` fresh processes, each in reference
    seconds by the loops ``clock`` times right before and after it."""
    times = []
    for _ in range(SETUP_REPEATS):
        mark = clock.mark()
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(workers)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        times.append(clock.scale(float(proc.stdout.strip().splitlines()[-1]), mark))
    return times


def peak_rss_mb(workers: int) -> float:
    """Peak RSS of this process plus ``workers`` times the largest child's:
    an upper bound on the memory the run held at once (kB on Linux)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers * child) / 1024.0


def fits_another_pass(elapsed: float, done: int, seconds: float) -> bool:
    """Whether one more pass, as long as the mean of the ``done`` passes
    that took ``elapsed`` seconds, would end nearer to ``seconds`` than
    stopping now: a run measures for as close to ``--seconds`` as whole
    passes allow, however long a pass takes on a slow host."""
    return elapsed + 0.5 * elapsed / done < seconds


def run_pass(workload, index, seed, workers, clock, stopwatch=None, snapshot=None, indicator_repeats=1):
    import workloads

    if workload == "paired-batch":
        return workloads.batch_pass(index, seed, workers, clock, stopwatch)
    return workloads.solve_pass(workload, index, seed, clock, snapshot, indicator_repeats)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"

    if not (ROOT / "src" / "fcpso" / "__init__.py").is_file():
        print(f"error: no fcpso sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}", file=sys.stderr)
        return 2
    import numpy

    import fcpso
    import layertrace
    import refclock

    if Path(fcpso.__file__).resolve().parent != ROOT / "src" / "fcpso":
        print(f"error: fcpso imported from {fcpso.__file__}, not this checkout", file=sys.stderr)
        return 2

    workers = nproc()
    batch = args.workload == "paired-batch"
    spool = ROOT / ".perfbench_tmp" / str(os.getpid())
    workloads.setup(args.workload, workers)
    print("# env " + json.dumps({
        "nproc": workers,
        "pool_workers": workers if batch else 0,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }))

    passes = []
    clock = refclock.RefClock()
    if args.trace == 0:
        stopwatch = None
        if batch:
            only = ("experiments.run", "experiments.hypervolume", "experiments.igd")
            stopwatch = layertrace.Tracer(spool, only=only).install()
        repeats = workloads.INDICATOR_REPEATS.get(args.workload, 1)
        try:
            start = time.perf_counter()
            with clock.sampling():
                while not passes or fits_another_pass(time.perf_counter() - start, len(passes), args.seconds):
                    passes.append(run_pass(
                        args.workload, len(passes), args.seed, workers, clock, stopwatch, indicator_repeats=repeats
                    ))
        finally:
            if stopwatch is not None:
                stopwatch.uninstall()
        rss = peak_rss_mb(workers if batch else 0)
        setups = time_setups(args.workload, workers, clock)
        values = end_to_end_metrics(passes, setups, rss)
        units = dict(END_TO_END)
        report_samples(passes, setups, clock)
    else:
        passes.append(run_pass(args.workload, 0, args.seed, workers, clock))
        with layertrace.Tracer(spool) as tracer:
            traced = run_pass(args.workload, 0, args.seed, workers, clock, snapshot=tracer.collect)
            stats = tracer.collect()
        passes.append(traced)
        report_snapshots(traced)
        tasks = workloads.batch_tasks() if batch else 0
        values = layer_metrics(stats, traced.wall_s, passes[0].wall_s, tasks)
        units = PER_LAYER_UNITS
    _remove_empty(spool.parent)

    attempted = sum(len(p.failures) for p in passes)
    failed = sum(1 for p in passes for f in p.failures if f)
    for p in passes:
        for f in p.failures:
            if f:
                print("# FAILED " + "; ".join(f))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


def report_samples(passes, setups, clock) -> None:
    """Raw and reference seconds of each pass and solve, set-up times, and
    the reference loop times."""
    def show(values):
        return [round(v, 4) for v in values]

    print(f"# passes={len(passes)} wall_s raw={show(p.wall_s for p in passes)} "
          f"ref={show(p.ref_wall_s for p in passes)}")
    print(f"# solve_s raw={show(s for p in passes for s in p.solve_s)} "
          f"ref={show(s for p in passes for s in p.ref_solve_s)}")
    print(f"# setups={len(setups)} setup_s ref={show(setups)}")
    loops = clock.loops
    print(f"# reference loops={len(loops)} mean={statistics.fmean(loops):.5f} "
          f"cv={statistics.pstdev(loops) / statistics.fmean(loops):.3f} "
          f"min={min(loops):.5f} max={max(loops):.5f} s")


def report_snapshots(traced) -> None:
    """Archive outcomes of each solve of the traced pass."""
    keys = ("archive.insert.calls", "archive.insert.dominated",
            "archive.insert.inserted", "archive.insert.replaced_crowded")
    before = dict.fromkeys(keys, 0.0)
    for label, snap in zip(traced.labels, traced.snapshots):
        delta = {k.rsplit(".", 1)[-1]: int(snap.get(k, 0.0) - before[k]) for k in keys}
        before = {k: snap.get(k, 0.0) for k in keys}
        print(f"# archive {label}: {json.dumps(delta)}")


def _remove_empty(directory: Path) -> None:
    try:
        directory.rmdir()
    except OSError:
        pass


if __name__ == "__main__":
    sys.exit(main())
