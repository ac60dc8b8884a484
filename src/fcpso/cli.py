"""Command-line interface: solve, benchmark, fairness, profile, indicators.

Exit codes: 0 success, 1 usage/config error, 2 runtime failure.  Every
command checks all of its inputs before it prints, runs or writes
anything, so a bad one exits 1 with nothing on stdout and a message that
names the flag, or the config file, section and key.
"""

from __future__ import annotations

import argparse
import configparser
import os
import sys
from dataclasses import fields
from importlib import resources
from pathlib import Path

import numpy as np

from . import io
from ._checks import check_count, check_fraction
from .experiments import ExperimentSpec, run_experiment, unfairness_profile
from .fairness import (
    ParameterScheme,
    activation_probability,
    monte_carlo_activation,
    scheme_for_unfairness,
    solve_fair_phi2,
    unfairness,
)
from .indicators import HvTrace, additive_epsilon, hypervolume, igd, spacing
from .mutation import MutationConfig
from .optimizer import RunConfig, run
from .problems import get_problem, parse_problem_id
from .swarm import VARIANTS, DynamicsConfig

__all__ = ["main"]


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


# --- config values ----------------------------------------------------------


def _items(text: str) -> tuple[str, ...]:
    return tuple(p.strip() for p in text.split(",") if p.strip())


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(p) for p in _items(text))


def _scheme(text: str) -> ParameterScheme:
    values = _floats(text)
    if len(values) != 4:
        raise ValueError(f"expected 'phi1,phi2,beta1,beta2', got {text!r}")
    return ParameterScheme(*values)


def _problem_ids(text: str) -> tuple[str, ...]:
    ids = _items(text)
    for pid in ids:
        get_problem(*parse_problem_id(pid))  # raises on an unknown or mis-sized id
    return ids


def _optional_float(text: str) -> float | None:
    return float(text) if text else None


def _seed(text) -> int:
    seed = int(text)
    check_count("a seed", seed, 0)
    return seed


# section -> key -> parser of the key's text.  [mutation] and [experiment]
# keys are MutationConfig and ExperimentSpec fields; [run] keys are the
# DynamicsConfig and RunConfig fields, the run seed, and hv_target, the
# fraction of the reference hypervolume at which an HvTrace ends the run.
_KEYS = {
    "run": {
        "variant": str,
        "scheme": _scheme,
        "seed": _seed,
        "inertia": float,
        "swarm_size": int,
        "archive_capacity": int,
        "max_evaluations": int,
        "hv_target": float,
    },
    "mutation": {
        "distribution_index": float,
        "per_variable_probability": _optional_float,
        "particle_fraction": float,
    },
    "experiment": {
        "problems": _problem_ids,
        "variants": _items,
        "repetitions": int,
        "indicators": _items,
        "base_seed": _seed,
        "max_evaluations": int,
        "swarm_size": int,
        "archive_capacity": int,
    },
}
_DYNAMICS_FIELDS = {f.name for f in fields(DynamicsConfig)}


def _convert(parse, value, where: str = ""):
    """parse(value), reporting a bad value as a usage error at `where`, or
    as it is when its message names the input."""
    try:
        return parse(value)
    except ValueError as exc:
        raise UsageError(f"{where}: {exc}" if where else str(exc)) from None


def _count(flag: str, value: int | None, minimum: int = 1) -> None:
    """Refuse a given count flag below `minimum`, by check_count's rule."""
    if value is not None:
        _convert(lambda v: check_count(flag, v, minimum), value)


def load_config_file(path, sections=tuple(_KEYS)) -> dict[str, dict]:
    """Parse a [section] key = value file into typed values, accepting only
    the given sections and their keys."""
    parser = configparser.ConfigParser()
    try:
        found = parser.read(path)
    except configparser.Error as exc:  # its message names the file and line
        raise UsageError(str(exc)) from None
    if not found:
        raise UsageError(f"config file not found: {path}")
    config: dict[str, dict] = {}
    for section in parser.sections():
        if section not in sections:
            expected = ", ".join(f"[{s}]" for s in sections)
            raise UsageError(f"{path}: unexpected section [{section}]; this command reads {expected}")
        keys = _KEYS[section]
        for key, text in parser.items(section):
            where = f"{path}: [{section}] {key}"
            if key not in keys:
                raise UsageError(f"{where}: unknown key; valid keys: {', '.join(keys)}")
            config.setdefault(section, {})[key] = _convert(keys[key], text, where)
    return config


# --- solve ------------------------------------------------------------------


def cmd_solve(args) -> int:
    config = load_config_file(args.config, ("run", "mutation")) if args.config else {}
    flags = {k: v for k, v in vars(args).items() if k in _KEYS["run"] and v is not None}
    for key in ("scheme", "seed"):  # checked by their [run] key's parser, as in a config file
        if key in flags:
            flags[key] = _convert(_KEYS["run"][key], flags[key], f"--{key}")
    values = {**config.get("run", {}), **flags}  # a given flag, 0 included, beats the file
    seed = values.pop("seed", 1)
    hv_target = values.pop("hv_target", None)
    dynamics = {key: values.pop(key) for key in _DYNAMICS_FIELDS & values.keys()}

    problem = _convert(lambda pid: get_problem(*parse_problem_id(pid)), args.problem, f"--problem {args.problem}")
    try:
        cfg = RunConfig(
            dynamics=DynamicsConfig(**dynamics),
            mutation=MutationConfig(**config.get("mutation", {})),
            **values,
        )
        if hv_target is not None:
            check_fraction("hv_target", hv_target)  # named as the user wrote it, not as HvTrace's fraction
        trace = None if hv_target is None else HvTrace(problem, hv_target)  # raises without a reference hv
        out_dir = io.run_directory(io.results_root(args.out), problem, cfg, seed)
        io.check_run_directory(out_dir, cfg, trace)
    except ValueError as exc:  # a bad option or config value, or another run's directory
        raise UsageError(str(exc)) from None

    result = run(problem, cfg, seed, observe=trace)
    io.write_run_result(out_dir, problem, cfg, seed, result, trace)

    hv = hypervolume(result.front_objectives, problem.hv_reference_point)
    print(f"problem={problem.name}")
    print(f"variant={cfg.dynamics.variant}")
    print(f"seed={seed}")
    print(f"front_size={result.front_size}")
    print(f"evaluations={result.evaluations_used}")
    print(f"hv={io.fmt(hv)}")
    print(f"results_dir={out_dir}")
    return 0


# --- benchmark --------------------------------------------------------------


def _resolve_spec_path(spec_arg: str) -> Path:
    p = Path(spec_arg)
    if p.is_file():
        return p
    bundled = resources.files("fcpso").joinpath(f"data/specs/{spec_arg}.spec")
    if bundled.is_file():
        with resources.as_file(bundled) as path:
            return Path(path)
    raise UsageError(f"spec file not found: {spec_arg}")


def _experiment_from_config(config: dict[str, dict]) -> ExperimentSpec:
    experiment = config.get("experiment", {})
    if "problems" not in experiment:
        raise UsageError("spec file needs 'problems' in [experiment]")
    return ExperimentSpec(**experiment, mutation=MutationConfig(**config.get("mutation", {})))


def cmd_benchmark(args) -> int:
    _count("--workers", args.workers)
    path = _resolve_spec_path(args.spec)
    try:
        spec = _experiment_from_config(load_config_file(path, ("experiment", "mutation")))
    except ValueError as exc:  # a bad spec value is a usage error
        raise UsageError(str(exc)) from None
    rows = run_experiment(spec, workers=args.workers)
    out_dir = io.results_root(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    out = out_dir / "comparison.csv"
    io.write_comparison_csv(out, rows)
    for r in rows:
        if r.winner == "error":
            print(f"{r.problem} {r.indicator}: error ({r.error})")
        else:
            print(
                f"{r.problem} {r.indicator}: {r.variant_a}={io.fmt(r.median_a)} "
                f"{r.variant_b}={io.fmt(r.median_b)} p={r.p_value:.3g} winner={r.winner}"
            )
    print(f"comparison_csv={out}")
    return 0 if any(r.winner != "error" for r in rows) else 2


# --- fairness ---------------------------------------------------------------


def cmd_fairness(args) -> int:
    seed = _convert(_seed, args.seed or 0, "--seed")
    _count("--monte-carlo", args.monte_carlo)
    if args.monte_carlo is not None and not args.scheme:
        raise UsageError("--monte-carlo needs --scheme")
    if args.seed is not None and args.monte_carlo is None:
        raise UsageError("--seed needs --monte-carlo")
    if not (args.scheme or args.solve_fair or args.target_mu is not None):
        raise UsageError("nothing to do: pass --scheme, --solve-fair or --target-mu")
    scheme = _convert(_scheme, args.scheme, "--scheme") if args.scheme else None
    lines = []
    if args.solve_fair:
        phi2 = solve_fair_phi2(2.0)
        lines += [f"fair_phi2={io.fmt(phi2)}", f"fair_scheme=2,{io.fmt(phi2)},0,1"]
    if args.target_mu is not None:
        derived = _convert(scheme_for_unfairness, args.target_mu, "--target-mu")
        lines.append("scheme=" + ",".join(io.fmt(v) for v in derived.as_tuple()))
        lines.append(f"scheme_mu={io.fmt(unfairness(derived))}")
    if scheme is not None:
        p = activation_probability(scheme)
        lines += ["method=analytic", f"p_activation={io.fmt(p)}", f"mu={io.fmt(p - 0.5)}"]
        if args.monte_carlo is not None:
            report = monte_carlo_activation(scheme, args.monte_carlo, seed=seed)
            lines += [
                "method=monte-carlo",
                f"mc_samples={report.sample_count}",
                f"mc_p_activation={io.fmt(report.p_activation)}",
                f"mc_mu={io.fmt(report.unfairness)}",
                f"mc_std_error={io.fmt(report.std_error)}",
            ]
    print("\n".join(lines))
    return 0


# --- profile ----------------------------------------------------------------


def cmd_profile(args) -> int:
    problems = _convert(_problem_ids, args.problems, "--problems")
    mu_grid = _convert(_floats, args.mu_grid, "--mu-grid")
    for flag, values in (("--problems", problems), ("--mu-grid", mu_grid)):
        if not values:
            raise UsageError(f"{flag}: the list is empty")
    _count("--repetitions", args.repetitions)
    base_seed = _convert(_seed, args.base_seed, "--base-seed")
    _count("--workers", args.workers)
    # a budget below one swarm evaluation is a usage error, found before any run
    _convert(lambda n: RunConfig(max_evaluations=n), args.evaluations, "--evaluations")
    points, notices = unfairness_profile(
        problems,
        mu_grid,
        repetitions=args.repetitions,
        base_seed=base_seed,
        max_evaluations=args.evaluations,
        workers=args.workers,
    )
    for notice in notices:
        print(f"notice: {notice}", file=sys.stderr)
    out_dir = io.results_root(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    out = out_dir / "profile.csv"
    io.write_profile_csv(out, points)
    for p in points:
        print(f"mu={io.fmt(p.mu)} problem={p.problem} normalized_hv={io.fmt(p.normalized_hv)}")
    print(f"profile_csv={out}")
    return 0


# --- indicators -------------------------------------------------------------


def cmd_indicators(args) -> int:
    front = _convert(io.read_front_csv, args.front, "--front")
    reference = _convert(io.read_front_csv, args.reference, "--reference") if args.reference else None
    ref_point = np.array(_convert(_floats, args.ref_point, "--ref-point")) if args.ref_point else None
    if ref_point is not None and not np.isfinite(ref_point).all():
        raise UsageError(f"--ref-point: non-finite entry in {args.ref_point!r}")
    n, k = front.shape
    for name, given in (("reference", reference), ("--ref-point", ref_point)):
        if given is not None and given.shape[-1] != k:
            raise UsageError(f"objective count mismatch: front has {k}, {name} has {given.shape[-1]}")

    # indicator -> (what it lacks given the inputs, or None; its value)
    no_reference = "--reference" if reference is None else None
    table = {
        "hv": ("--ref-point" if ref_point is None else None, lambda: hypervolume(front, ref_point)),
        "igd": (no_reference, lambda: igd(front, reference)),
        "eps": (no_reference, lambda: additive_epsilon(front, reference)),
        "sp": (f"at least 2 points, the front has {n}" if n < 2 else None, lambda: spacing(front)),
    }
    if args.indicators is None:  # default to whatever the inputs support
        wanted = [name for name, (lack, _) in table.items() if lack is None]
    else:
        wanted = _items(args.indicators)
        if not wanted:
            raise UsageError("--indicators: the list is empty")
        bad = [i for i in wanted if i not in table]
        if bad:
            raise UsageError(f"unknown indicators {bad}; choose from {', '.join(table)}")
    for name in wanted:
        if table[name][0] is not None:
            raise UsageError(f"{name} needs {table[name][0]}")
    values = {name: value() for name, (_, value) in table.items() if name in wanted}

    print(f"front_size={n}")
    if ref_point is not None:
        print("reference_point=" + ",".join(io.fmt(v) for v in ref_point))
    for key, value in values.items():
        print(f"{key}={io.fmt(value)}")
    return 0


# --- entry point ------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="fcpso", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="run one optimization and write its front")
    p.add_argument("--problem", required=True, help="problem name, e.g. zdt1 or dtlz1:5")
    p.add_argument("--variant", default=None, help=f"one of {', '.join(VARIANTS)} (default fcpso)")
    p.add_argument("--scheme", default=None, help="phi1,phi2,beta1,beta2 sampling bounds")
    p.add_argument("--seed", type=int, default=None, help="run seed (default 1)")
    p.add_argument("--evaluations", type=int, dest="max_evaluations",
                   help="evaluation budget (default 25000)")
    p.add_argument("--swarm", type=int, dest="swarm_size", help="swarm size (default 100)")
    p.add_argument("--archive", type=int, dest="archive_capacity", help="archive capacity (default 100)")
    p.add_argument("--hv-target", type=float, default=None,
                   help="stop at this fraction of the reference hypervolume")
    p.add_argument("--config", default=None, help="key=value config file with [run]/[mutation]")
    p.add_argument("--out", default=None, help="results root (default $FCPSO_RESULTS_DIR or ./results)")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("benchmark", help="run a comparison experiment from a spec file")
    p.add_argument("spec", help="spec file path or bundled name (zdt-quick, paper-zdt-dtlz)")
    p.add_argument("--workers", type=int, default=None, help="parallel run workers (default: usable CPUs)")
    p.add_argument("--out", default=None, help="results root (default $FCPSO_RESULTS_DIR or ./results)")
    p.set_defaults(func=cmd_benchmark)

    p = sub.add_parser("fairness", help="constriction-fairness calculus")
    p.add_argument("--scheme", default=None, help="phi1,phi2,beta1,beta2 to analyze")
    p.add_argument("--monte-carlo", type=int, default=None, metavar="N",
                   help="also estimate P(E) from N samples")
    p.add_argument("--seed", type=int, default=None, help="monte-carlo seed (default 0)")
    p.add_argument("--solve-fair", action="store_true", help="solve for the fair phi2 at phi1=2")
    p.add_argument("--target-mu", type=float, default=None,
                   help="derive a scheme with this unfairness")
    p.set_defaults(func=cmd_fairness)

    p = sub.add_parser("profile", help="normalized HV across an unfairness grid")
    p.add_argument("--problems", default="zdt1,zdt3,zdt4", help="comma-separated problem names")
    p.add_argument("--mu-grid", required=True, help="comma-separated unfairness values")
    p.add_argument("--repetitions", type=int, default=5, help="runs per grid point (default 5)")
    p.add_argument("--evaluations", type=int, default=25_000, help="budget per run (default 25000)")
    p.add_argument("--base-seed", type=int, default=1, help="first seed (default 1)")
    p.add_argument("--workers", type=int, default=None, help="parallel run workers (default: usable CPUs)")
    p.add_argument("--out", default=None, help="results root (default $FCPSO_RESULTS_DIR or ./results)")
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("indicators", help="compute quality indicators on a front CSV")
    p.add_argument("--front", required=True, help="front CSV (f1,...,fk header)")
    p.add_argument("--reference", default=None, help="reference front CSV for igd/eps")
    p.add_argument("--ref-point", default=None, help="hypervolume reference point, e.g. 2,2")
    p.add_argument("--indicators", default=None,
                   help="subset of hv,igd,eps,sp (default: all the inputs allow)")
    p.set_defaults(func=cmd_indicators)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # so a closed stdout shows here, not at exit
        return code
    except BrokenPipeError:
        # the reader stopped after the files were written; the rest, and
        # the flush at exit, go nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (UsageError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
