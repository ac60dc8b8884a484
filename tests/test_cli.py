from dataclasses import fields

import numpy as np
import pytest

from fcpso.cli import _KEYS, build_parser, load_config_file, main
from fcpso.fairness import ParameterScheme
from fcpso.io import read_front_csv


def run_cli(*argv):
    return main(list(argv))


def run_with_config(command, cfg, out):
    """`solve` zdt1 with the config file `cfg`, or `benchmark` the spec `cfg`."""
    argv = ["solve", "--problem", "zdt1", "--config"] if command == "solve" else ["benchmark"]
    return run_cli(*argv, str(cfg), "--out", str(out))


# (section, key) -> (a non-default value's text, the value it must reach)
NON_DEFAULT = {
    ("run", "variant"): ("smpso", "smpso"),
    ("run", "scheme"): ("2.5, 4.5, 0.1, 0.9", ParameterScheme(2.5, 4.5, 0.1, 0.9)),
    ("run", "seed"): ("9", 9),
    ("run", "inertia"): ("0.3", 0.3),
    ("run", "swarm_size"): ("30", 30),
    ("run", "archive_capacity"): ("40", 40),
    ("run", "max_evaluations"): ("700", 700),
    ("run", "velocity_init"): ("uniform", "uniform"),
    ("run", "hv_target"): ("0.5", 0.5),
    ("mutation", "distribution_index"): ("15", 15.0),
    ("mutation", "per_variable_probability"): ("0.2", 0.2),
    ("mutation", "particle_fraction"): ("0.3", 0.3),
    ("experiment", "problems"): ("zdt2, dtlz2:3", ("zdt2", "dtlz2:3")),
    ("experiment", "variants"): ("fcpso, em-smpso", ("fcpso", "em-smpso")),
    ("experiment", "repetitions"): ("3", 3),
    ("experiment", "indicators"): ("igd, fe", ("igd", "fe")),
    ("experiment", "base_seed"): ("4", 4),
    ("experiment", "max_evaluations"): ("700", 700),
    ("experiment", "swarm_size"): ("30", 30),
    ("experiment", "archive_capacity"): ("40", 40),
}
TABLE_CASES = [
    (command, section, key)
    for section, keys in _KEYS.items()
    for key in keys
    for command in {"run": ("solve",), "mutation": ("solve", "benchmark"),
                    "experiment": ("benchmark",)}[section]
]


class _Captured(Exception):
    pass


def _capture(*args, **kwargs):
    raise _Captured(*args)


def _fields(obj) -> dict:
    return {f.name: getattr(obj, f.name) for f in fields(obj)}


def _settings_reached(tmp_path, command, sections) -> dict:
    """Run `command` with a config file of `sections`; return the values
    the built RunConfig or ExperimentSpec holds, keyed like the file."""
    cfg = tmp_path / "case.cfg"
    cfg.write_text("".join(
        f"[{section}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
        for section, keys in sections.items()
    ))
    with pytest.raises(_Captured) as captured:
        run_with_config(command, cfg, tmp_path)
    if command == "benchmark":
        (spec,) = captured.value.args
        return {"experiment": _fields(spec), "mutation": _fields(spec.mutation)}
    _, run_cfg, seed = captured.value.args
    run_values = {**_fields(run_cfg), **_fields(run_cfg.dynamics)}
    run_values.update(seed=seed, hv_target=run_cfg.hv_target_fraction)
    return {"run": run_values, "mutation": _fields(run_cfg.mutation)}


class TestSolve:
    def test_writes_front_and_metadata(self, tmp_path, capsys):
        code = run_cli(
            "solve", "--problem", "zdt1", "--variant", "fcpso", "--seed", "7",
            "--evaluations", "600", "--swarm", "20", "--archive", "20",
            "--out", str(tmp_path),
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "front_size=" in out and "hv=" in out
        run_dir = tmp_path / "zdt1" / "fcpso" / "7"
        front = read_front_csv(run_dir / "front.csv")
        assert front.shape[1] == 2
        meta = (run_dir / "meta.txt").read_text()
        assert "seed=7" in meta and "variant=fcpso" in meta
        positions = read_front_csv(run_dir / "positions.csv")
        assert positions.shape[1] == 30

    def test_unknown_problem_exits_1_naming_choices(self, tmp_path, capsys):
        code = run_cli("solve", "--problem", "zdt99", "--out", str(tmp_path))
        assert code == 1
        err = capsys.readouterr().err
        assert "zdt1" in err and "wfg9" in err

    def test_unknown_variant(self, tmp_path, capsys):
        code = run_cli("solve", "--problem", "zdt1", "--variant", "pso9000", "--out", str(tmp_path))
        assert code == 1
        assert "smpso" in capsys.readouterr().err

    def test_byte_identical_rerun(self, tmp_path):
        for sub in ("a", "b"):
            assert run_cli(
                "solve", "--problem", "zdt6", "--seed", "3", "--evaluations", "400",
                "--swarm", "20", "--out", str(tmp_path / sub),
            ) == 0
        a = (tmp_path / "a" / "zdt6" / "fcpso" / "3" / "front.csv").read_bytes()
        b = (tmp_path / "b" / "zdt6" / "fcpso" / "3" / "front.csv").read_bytes()
        assert a == b

    def test_em_smpso_front_smaller_than_fcpso(self, tmp_path):
        # the momentum-naive variant leaves a fragmented, sparser archive
        sizes = {}
        for variant in ("em-smpso", "fcpso"):
            assert run_cli(
                "solve", "--problem", "zdt1", "--variant", variant, "--seed", "7",
                "--out", str(tmp_path),
            ) == 0
            front = read_front_csv(tmp_path / "zdt1" / variant / "7" / "front.csv")
            sizes[variant] = front.shape[0]
        assert sizes["em-smpso"] < sizes["fcpso"]

    @pytest.mark.parametrize("argv, named", [
        (["--problem", "zdt1:x"], "--problem zdt1:x: problem id 'zdt1:x'"),
        (["--problem", "dtlz2:1"], "--problem dtlz2:1: dtlz2 needs at least 2 objectives"),
        (["--problem", "wfg4", "--objectives", "0"], "--problem wfg4 --objectives 0: wfg4 needs"),
    ])
    def test_bad_problem_id_exits_1_naming_flag(self, tmp_path, capsys, argv, named):
        code = run_cli("solve", *argv, "--out", str(tmp_path))
        assert code == 1
        assert f"error: {named}" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("flag", ["--swarm", "--evaluations", "--archive"])
    def test_zero_is_rejected_not_defaulted(self, tmp_path, capsys, flag):
        code = run_cli("solve", "--problem", "zdt1", flag, "0", "--out", str(tmp_path))
        assert code == 1
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "zdt1").exists()


class TestConfigFile:
    def test_unknown_key_named(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[run]\nswram_size = 10\n")
        with pytest.raises(ValueError, match="swram_size"):
            load_config_file(cfg)

    def test_unknown_section_named(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[swarm]\nsize = 10\n")
        with pytest.raises(ValueError, match="swarm"):
            load_config_file(cfg)

    def test_flags_override_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[run]\nseed = 3\nmax_evaluations = 400\nswarm_size = 20\n")
        code = run_cli(
            "solve", "--problem", "zdt1", "--config", str(cfg), "--seed", "9",
            "--out", str(tmp_path),
        )
        assert code == 0
        assert "seed=9" in capsys.readouterr().out
        assert (tmp_path / "zdt1" / "fcpso" / "9").is_dir()

    @pytest.mark.parametrize("line", ["swarm_size = abc", "seed = x", "inertia = fast", "hv_target = 2"])
    def test_bad_value_exits_1(self, tmp_path, capsys, line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"[run]\n{line}\n")
        code = run_cli("solve", "--problem", "zdt1", "--config", str(cfg), "--out", str(tmp_path))
        assert code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("text, named", [
        ("[run]\ninertia = nan\n", "inertia must be finite"),
        ("[mutation]\ndistribution_index = inf\n", "distribution_index must be finite"),
    ])
    def test_non_finite_knob_exits_1_naming_it(self, tmp_path, capsys, text, named):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        assert run_with_config("solve", cfg, tmp_path) == 1
        assert f"error: {named}" in capsys.readouterr().err
        assert not (tmp_path / "zdt1").exists()

    @pytest.mark.parametrize("command, section, key", TABLE_CASES)
    def test_every_key_takes_effect(self, tmp_path, monkeypatch, command, section, key):
        monkeypatch.setattr("fcpso.cli.run", _capture)
        monkeypatch.setattr("fcpso.cli.run_experiment", _capture)
        text, expected = NON_DEFAULT[(section, key)]
        base = {"experiment": {"problems": "zdt1"}} if command == "benchmark" else {}
        default = _settings_reached(tmp_path, command, base)[section][key]
        sections = {**base, section: {**base.get(section, {}), key: text}}
        assert _settings_reached(tmp_path, command, sections)[section][key] == expected != default

    @pytest.mark.parametrize("command, text, named", [
        ("solve", "[run]\nswarm_size = abc\n", "[run] swarm_size: "),
        ("solve", "[mutation]\ndistribution_index = steep\n", "[mutation] distribution_index: "),
        ("benchmark", "[experiment]\nproblems = zdt1\nrepetitions = five\n", "[experiment] repetitions: "),
        ("benchmark", "[experiment]\nproblems = zdt1, zdt99\n", "[experiment] problems: "),
        ("benchmark", "[experiment]\nproblems = zdt1:x\n", "[experiment] problems: problem id"),
        ("benchmark", "[experiment]\nproblems = dtlz2:1\n", "[experiment] problems: dtlz2 needs"),
    ])
    def test_bad_value_named_by_section_and_key(self, tmp_path, capsys, command, text, named):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        assert run_with_config(command, cfg, tmp_path) == 1
        assert f"error: {cfg}: {named}" in capsys.readouterr().err
        assert not (tmp_path / "zdt1").exists() and not (tmp_path / "comparison.csv").exists()

    @pytest.mark.parametrize("command, text, section", [
        ("solve", "[run]\nseed = 9\n[experiment]\nproblems = zdt1\n", "[experiment]"),
        ("benchmark", "[experiment]\nproblems = zdt1\n[run]\nvariant = smpso\nseed = 9\n", "[run]"),
    ])
    def test_other_commands_section_rejected(self, tmp_path, capsys, command, text, section):
        cfg = tmp_path / "mixed.cfg"
        cfg.write_text(text)
        assert run_with_config(command, cfg, tmp_path) == 1
        assert f"unexpected section {section}" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        code = run_cli(
            "solve", "--problem", "zdt1", "--config", str(tmp_path / "none.cfg"),
            "--out", str(tmp_path),
        )
        assert code == 1


class TestBenchmark:
    def test_tiny_spec_produces_comparison_csv(self, tmp_path, capsys):
        spec = tmp_path / "tiny.spec"
        spec.write_text(
            "[experiment]\n"
            "problems = zdt1\n"
            "variants = smpso, fcpso\n"
            "repetitions = 2\n"
            "indicators = hv\n"
            "base_seed = 1\n"
            "max_evaluations = 400\n"
            "swarm_size = 20\n"
        )
        code = run_cli("benchmark", str(spec), "--workers", "1", "--out", str(tmp_path))
        assert code == 0
        rows = (tmp_path / "comparison.csv").read_text().strip().splitlines()
        assert rows[0].startswith("problem,indicator")
        assert len(rows) == 2
        assert "zdt1,hv,smpso" in rows[1]

    def test_malformed_spec_key(self, tmp_path, capsys):
        spec = tmp_path / "bad.spec"
        spec.write_text("[experiment]\nproblems = zdt1\nrepititions = 5\n")
        code = run_cli("benchmark", str(spec), "--out", str(tmp_path))
        assert code == 1
        assert "repititions" in capsys.readouterr().err

    def test_bad_spec_value_exits_1(self, tmp_path, capsys):
        spec = tmp_path / "bad.spec"
        spec.write_text("[experiment]\nproblems = zdt1\nrepetitions = five\n")
        code = run_cli("benchmark", str(spec), "--out", str(tmp_path))
        assert code == 1

    @pytest.mark.parametrize("line, named", [
        ("max_evaluations = 50", "max_evaluations must cover at least one swarm evaluation"),
        ("archive_capacity = 0", "archive_capacity must be >= 1"),
    ])
    def test_budget_and_capacity_errors_exit_1(self, tmp_path, capsys, line, named):
        spec = tmp_path / "bad.spec"
        spec.write_text(f"[experiment]\nproblems = zdt1\n{line}\n")
        code = run_cli("benchmark", str(spec), "--workers", "1", "--out", str(tmp_path))
        assert code == 1
        assert f"error: {named}" in capsys.readouterr().err
        assert not (tmp_path / "comparison.csv").exists()

    def test_unknown_spec_name(self, tmp_path, capsys):
        assert run_cli("benchmark", "no-such-spec", "--out", str(tmp_path)) == 1

    def test_bundled_specs_resolve(self):
        from fcpso.cli import _experiment_from_config, _resolve_spec_path

        for name in ("zdt-quick", "paper-zdt-dtlz"):
            spec = _experiment_from_config(load_config_file(_resolve_spec_path(name)))
            assert spec.repetitions >= 5
            assert "zdt1" in spec.problems

    def test_bundled_zdt_quick_runs_end_to_end(self, tmp_path):
        code = run_cli("benchmark", "zdt-quick", "--workers", "2", "--out", str(tmp_path))
        assert code == 0
        from fcpso.io import read_comparison_csv

        rows = read_comparison_csv(tmp_path / "comparison.csv")
        assert len(rows) == 5  # five ZDT problems x hv x one variant pair
        assert {r.problem for r in rows} == {"zdt1", "zdt2", "zdt3", "zdt4", "zdt6"}
        assert all(r.indicator == "hv" and r.winner != "error" for r in rows)


class TestFairnessCmd:
    def test_scheme_report(self, capsys):
        assert run_cli("fairness", "--scheme", "3,5,0,1") == 0
        out = capsys.readouterr().out
        assert "mu=0.4246" in out

    def test_solve_fair(self, capsys):
        assert run_cli("fairness", "--solve-fair") == 0
        out = capsys.readouterr().out
        value = float(out.splitlines()[0].split("=")[1])
        assert abs(value - 3.4672) <= 5e-4

    def test_monte_carlo_agrees(self, capsys):
        assert run_cli("fairness", "--scheme", "3,5,0,1", "--monte-carlo", "1000000") == 0
        out = capsys.readouterr().out
        lines = dict(l.split("=", 1) for l in out.splitlines() if "=" in l)
        assert abs(float(lines["p_activation"]) - float(lines["mc_p_activation"])) <= 0.002

    def test_target_mu(self, capsys):
        assert run_cli("fairness", "--target-mu", "0.2") == 0
        out = capsys.readouterr().out
        assert out.startswith("scheme=")
        assert abs(float(out.splitlines()[1].split("=")[1]) - 0.2) <= 1e-6

    def test_unreachable_target(self, capsys):
        assert run_cli("fairness", "--target-mu", "0.49") == 1

    def test_monte_carlo_without_scheme(self, capsys):
        assert run_cli("fairness", "--monte-carlo", "100") == 1

    def test_bad_scheme_format(self, capsys):
        assert run_cli("fairness", "--scheme", "3,5") == 1

    def test_nothing_to_do(self, capsys):
        assert run_cli("fairness") == 1


class TestIndicatorsCmd:
    def test_front_equals_reference(self, tmp_path, capsys):
        f = tmp_path / "f.csv"
        f.write_text("f1,f2\n0.0,1.0\n0.5,0.5\n1.0,0.0\n")
        assert run_cli("indicators", "--front", str(f), "--reference", str(f)) == 0
        out = dict(l.split("=", 1) for l in capsys.readouterr().out.splitlines())
        assert float(out["igd"]) == 0.0
        assert float(out["eps"]) == 0.0

    def test_hand_hypervolume(self, tmp_path, capsys):
        f = tmp_path / "f.csv"
        f.write_text("f1,f2\n0.0,1.0\n0.25,0.5\n1.0,0.0\n")
        assert run_cli("indicators", "--front", str(f), "--ref-point", "2,2") == 0
        out = dict(l.split("=", 1) for l in capsys.readouterr().out.splitlines())
        assert float(out["hv"]) == pytest.approx(3.375)

    def test_igd_without_reference_errors(self, tmp_path, capsys):
        f = tmp_path / "f.csv"
        f.write_text("0.0,1.0\n1.0,0.0\n")
        assert run_cli("indicators", "--front", str(f), "--indicators", "igd") == 1
        assert "reference" in capsys.readouterr().err

    def test_dimension_mismatch_named(self, tmp_path, capsys):
        f = tmp_path / "f.csv"
        f.write_text("0.0,1.0\n")
        r = tmp_path / "r.csv"
        r.write_text("0.0,1.0,2.0\n")
        assert run_cli("indicators", "--front", str(f), "--reference", str(r)) == 1
        assert "mismatch" in capsys.readouterr().err

    def test_round_trip_of_emitted_front(self, tmp_path, capsys):
        assert run_cli(
            "solve", "--problem", "zdt2", "--seed", "2", "--evaluations", "400",
            "--swarm", "20", "--out", str(tmp_path),
        ) == 0
        front_csv = tmp_path / "zdt2" / "fcpso" / "2" / "front.csv"
        assert run_cli("indicators", "--front", str(front_csv), "--ref-point", "2,2") == 0


class TestProfileCmd:
    def test_profile_csv(self, tmp_path, capsys):
        code = run_cli(
            "profile", "--problems", "zdt1", "--mu-grid=-0.2,0.2",
            "--repetitions", "2", "--evaluations", "400", "--workers", "1",
            "--out", str(tmp_path),
        )
        assert code == 0
        lines = (tmp_path / "profile.csv").read_text().strip().splitlines()
        assert lines[0] == "mu,problem,normalized_hv"
        assert len(lines) == 3

    @pytest.mark.parametrize("argv, named", [
        (["--mu-grid=abc"], "--mu-grid"),
        (["--problems", "zdt1,zdt99", "--mu-grid=0.1"], "--problems"),
        (["--mu-grid=0.1", "--repetitions", "0"], "--repetitions"),
        (["--mu-grid=0.1", "--evaluations", "50"], "--evaluations: max_evaluations must cover"),
    ])
    def test_bad_input_exits_1_naming_flag(self, tmp_path, capsys, argv, named):
        assert run_cli("profile", *argv, "--workers", "1", "--out", str(tmp_path)) == 1
        assert f"error: {named}" in capsys.readouterr().err
        assert not (tmp_path / "profile.csv").exists()

    def test_zero_baseline_hv_is_a_named_runtime_error(self, tmp_path, capsys):
        # two generations leave the smpso archive outside zdt1's (2, 2) hv box
        code = run_cli(
            "profile", "--problems", "zdt1", "--mu-grid=0.1", "--repetitions", "2",
            "--evaluations", "200", "--workers", "1", "--out", str(tmp_path),
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: zdt1:") and "baseline" in err


class TestParser:
    @pytest.mark.parametrize("cmd", ["solve", "benchmark", "fairness", "profile", "indicators"])
    def test_help_lists_flags(self, cmd, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([cmd, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "--" in out and "default" in out

    def test_usage_error_exits_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["solve"])  # missing --problem
        assert exc.value.code == 1
