"""Command-line interface: solve, benchmark, fairness, profile, indicators.

Exit codes: 0 success, 1 usage/config error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import configparser
import sys
from dataclasses import fields
from importlib import resources
from pathlib import Path

import numpy as np

from . import io
from .experiments import ExperimentSpec, run_experiment, unfairness_profile
from .fairness import (
    ParameterScheme,
    activation_probability,
    monte_carlo_activation,
    scheme_for_unfairness,
    solve_fair_phi2,
    unfairness,
)
from .indicators import additive_epsilon, hypervolume, igd, spacing
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


# section -> key -> parser of the key's text.  [mutation] and [experiment]
# keys are MutationConfig and ExperimentSpec fields; [run] keys are the
# DynamicsConfig and RunConfig fields, the run seed, and hv_target, which
# sets RunConfig.hv_target_fraction.
_KEYS = {
    "run": {
        "variant": str,
        "scheme": _scheme,
        "seed": int,
        "inertia": float,
        "swarm_size": int,
        "archive_capacity": int,
        "max_evaluations": int,
        "velocity_init": str,
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
        "base_seed": int,
        "max_evaluations": int,
        "swarm_size": int,
        "archive_capacity": int,
    },
}
_DYNAMICS_FIELDS = {f.name for f in fields(DynamicsConfig)}


def _convert(parse, text: str, where: str):
    """parse(text), reporting a bad value as a usage error at `where`."""
    try:
        return parse(text)
    except ValueError as exc:
        raise UsageError(f"{where}: {exc}") from None


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
    if "scheme" in flags:
        flags["scheme"] = _convert(_scheme, flags["scheme"], "--scheme")
    values = {**config.get("run", {}), **flags}  # a given flag, 0 included, beats the file
    seed = values.pop("seed", 1)
    if "hv_target" in values:
        values["hv_target_fraction"] = values.pop("hv_target")
    dynamics = {key: values.pop(key) for key in _DYNAMICS_FIELDS & values.keys()}

    try:
        name, n_obj = parse_problem_id(args.problem)
        if args.objectives is not None:
            n_obj = args.objectives
        problem = get_problem(name, n_obj)
    except ValueError as exc:
        given = "" if args.objectives is None else f" --objectives {args.objectives}"
        raise UsageError(f"--problem {args.problem}{given}: {exc}") from None
    try:
        cfg = RunConfig(
            dynamics=DynamicsConfig(**dynamics),
            mutation=MutationConfig(**config.get("mutation", {})),
            **values,
        )
    except ValueError as exc:  # a bad option or config value is a usage error
        raise UsageError(str(exc)) from None

    result = run(problem, cfg, seed)
    out_dir = io.run_directory(io.results_root(args.out), result)
    io.write_run_result(out_dir, result)

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
    did_something = False
    if args.solve_fair:
        phi2 = solve_fair_phi2(2.0)
        print(f"fair_phi2={io.fmt(phi2)}")
        print(f"fair_scheme=2,{io.fmt(phi2)},0,1")
        did_something = True
    if args.target_mu is not None:
        try:
            scheme = scheme_for_unfairness(args.target_mu)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
        print("scheme=" + ",".join(io.fmt(v) for v in scheme.as_tuple()))
        print(f"scheme_mu={io.fmt(unfairness(scheme))}")
        did_something = True
    if args.scheme:
        scheme = _convert(_scheme, args.scheme, "--scheme")
        p = activation_probability(scheme)
        print("method=analytic")
        print(f"p_activation={io.fmt(p)}")
        print(f"mu={io.fmt(p - 0.5)}")
        if args.monte_carlo:
            report = monte_carlo_activation(scheme, args.monte_carlo, seed=args.seed)
            print("method=monte-carlo")
            print(f"mc_samples={report.sample_count}")
            print(f"mc_p_activation={io.fmt(report.p_activation)}")
            print(f"mc_mu={io.fmt(report.unfairness)}")
            print(f"mc_std_error={io.fmt(report.std_error)}")
        did_something = True
    elif args.monte_carlo:
        raise UsageError("--monte-carlo needs --scheme")
    if not did_something:
        raise UsageError("nothing to do: pass --scheme, --solve-fair or --target-mu")
    return 0


# --- profile ----------------------------------------------------------------


def cmd_profile(args) -> int:
    problems = _convert(_problem_ids, args.problems, "--problems")
    mu_grid = _convert(_floats, args.mu_grid, "--mu-grid")
    if args.repetitions < 1:
        raise UsageError(f"--repetitions must be >= 1, got {args.repetitions}")
    # a budget below one swarm evaluation is a usage error, found before any run
    try:
        RunConfig(max_evaluations=args.evaluations)
    except ValueError as exc:
        raise UsageError(f"--evaluations: {exc}") from None
    points, notices = unfairness_profile(
        problems,
        mu_grid,
        repetitions=args.repetitions,
        base_seed=args.base_seed,
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
    front = io.read_front_csv(args.front)
    reference = io.read_front_csv(args.reference) if args.reference else None
    if args.indicators:
        wanted = _items(args.indicators)
        bad = [i for i in wanted if i not in ("hv", "igd", "eps", "sp")]
        if bad:
            raise UsageError(f"unknown indicators {bad}; choose from hv, igd, eps, sp")
    else:  # default to whatever the provided inputs support
        wanted = ("sp",) if front.shape[0] >= 2 else ()
        if args.ref_point:
            wanted = ("hv",) + wanted
        if reference is not None:
            wanted += ("igd", "eps")
    if reference is not None and reference.shape[1] != front.shape[1]:
        raise UsageError(
            f"objective count mismatch: front has {front.shape[1]}, "
            f"reference has {reference.shape[1]}"
        )

    ref_point = np.array(_convert(_floats, args.ref_point, "--ref-point")) if args.ref_point else None
    values: dict[str, float] = {}
    if "hv" in wanted:
        if ref_point is None:
            raise UsageError("hv needs --ref-point")
        if ref_point.shape[0] != front.shape[1]:
            raise UsageError(
                f"objective count mismatch: front has {front.shape[1]}, "
                f"--ref-point has {ref_point.shape[0]}"
            )
        values["hv"] = hypervolume(front, ref_point)
    for ind in ("igd", "eps"):
        if ind in wanted:
            if reference is None:
                raise UsageError(f"{ind} needs --reference")
            fn = igd if ind == "igd" else additive_epsilon
            values[ind] = fn(front, reference)
    if "sp" in wanted:
        values["sp"] = spacing(front)

    print(f"front_size={front.shape[0]}")
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
    p.add_argument("--objectives", type=int, default=None, help="objective count (suite default)")
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
    p.add_argument("--workers", type=int, default=None, help="parallel run workers (default: cpu count)")
    p.add_argument("--out", default=None, help="results root (default $FCPSO_RESULTS_DIR or ./results)")
    p.set_defaults(func=cmd_benchmark)

    p = sub.add_parser("fairness", help="constriction-fairness calculus")
    p.add_argument("--scheme", default=None, help="phi1,phi2,beta1,beta2 to analyze")
    p.add_argument("--monte-carlo", type=int, default=None, metavar="N",
                   help="also estimate P(E) from N samples")
    p.add_argument("--seed", type=int, default=0, help="monte-carlo seed (default 0)")
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
    p.add_argument("--workers", type=int, default=None, help="parallel run workers (default: cpu count)")
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
        return args.func(args)
    except (UsageError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
