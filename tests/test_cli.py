import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from csv_reader import COMPARISON_FLOATS, COMPARISON_HEADER, read_records

from fcpso import cli
from fcpso.cli import _KEYS, build_parser, load_config_file, main
from fcpso.experiments import ComparisonRow
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
    def __init__(self, *args, **kwargs):
        super().__init__(*args)
        self.kwargs = kwargs


def _capture(*args, **kwargs):
    raise _Captured(*args, **kwargs)


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
    trace = captured.value.kwargs["observe"]
    run_values = {**_fields(run_cfg), **_fields(run_cfg.dynamics)}
    run_values.update(seed=seed, hv_target=None if trace is None else trace.fraction)
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
        run_dir = tmp_path / "zdt1-2" / "fcpso" / "7"
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

    def test_padded_problem_name_exits_1(self, tmp_path, capsys):
        # dtlz02 once ran dtlz2 and wrote it under results/dtlz02-3/
        code = run_cli("solve", "--problem", "dtlz02:3", "--out", str(tmp_path))
        assert code == 1
        assert "error: --problem dtlz02:3: unknown problem 'dtlz02'" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

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
        a = (tmp_path / "a" / "zdt6-2" / "fcpso" / "3" / "front.csv").read_bytes()
        b = (tmp_path / "b" / "zdt6-2" / "fcpso" / "3" / "front.csv").read_bytes()
        assert a == b

    def test_em_smpso_front_smaller_than_fcpso(self, tmp_path):
        # the momentum-naive variant leaves a fragmented, sparser archive
        sizes = {}
        for variant in ("em-smpso", "fcpso"):
            assert run_cli(
                "solve", "--problem", "zdt1", "--variant", variant, "--seed", "7",
                "--out", str(tmp_path),
            ) == 0
            front = read_front_csv(tmp_path / "zdt1-2" / variant / "7" / "front.csv")
            sizes[variant] = front.shape[0]
        assert sizes["em-smpso"] < sizes["fcpso"]

    @pytest.mark.parametrize("argv, named", [
        (["--problem", "zdt1:x"], "--problem zdt1:x: problem id 'zdt1:x'"),
        (["--problem", "dtlz2:1"], "--problem dtlz2:1: dtlz2 needs at least 2 objectives"),
        (["--problem", "wfg4:0"], "--problem wfg4:0: wfg4 needs"),
    ])
    def test_bad_problem_id_exits_1_naming_flag(self, tmp_path, capsys, argv, named):
        code = run_cli("solve", *argv, "--out", str(tmp_path))
        assert code == 1
        assert f"error: {named}" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_objective_counts_land_in_their_own_directories(self, tmp_path):
        # the same seed and variant at 3, 4 and 5 objectives; a bare name
        # takes the suite's default count
        small = ["--evaluations", "200", "--swarm", "20", "--out", str(tmp_path)]
        for problem in ("dtlz2", "dtlz2:4", "dtlz2:5"):
            assert run_cli("solve", "--problem", problem, *small) == 0
        for m in (3, 4, 5):
            meta = (tmp_path / f"dtlz2-{m}" / "fcpso" / "1" / "meta.txt").read_text()
            assert "problem=dtlz2\n" in meta and f"objectives={m}\n" in meta

    NO_REFERENCE = "hv-target termination needs a reference hypervolume, and dtlz2 has none"

    @pytest.mark.parametrize("problem, argv, config, refusal", [
        ("dtlz2", ["--hv-target", "0.9"], "", NO_REFERENCE),
        ("dtlz2", [], "[run]\nhv_target = 0.9\n", NO_REFERENCE),
        ("zdt1", ["--hv-target", "1.5"], "", "hv_target must lie in [0, 1], got 1.5"),
        ("zdt1", [], "[run]\nhv_target = 1.5\n", "hv_target must lie in [0, 1], got 1.5"),
        ("zdt1", [], "[run]\nhv_target = nan\n", "hv_target must lie in [0, 1], got nan"),
    ], ids=["flag", "config", "flag-above-1", "config-above-1", "config-nan"])
    def test_hv_target_without_a_reference_hv_exits_1_before_any_run(
        self, tmp_path, capsys, problem, argv, config, refusal
    ):
        if config:
            (tmp_path / "hv.cfg").write_text(config)
            argv = ["--config", str(tmp_path / "hv.cfg")]
        code = run_cli("solve", "--problem", problem, *argv, "--out", str(tmp_path / "out"))
        assert code == 1
        out, err = capsys.readouterr()
        assert out == "" and f"error: {refusal}\n" in err
        assert not (tmp_path / "out").exists()

    def test_a_scheme_whose_draws_overflow_chi_exits_1_naming_it(self, tmp_path, capsys):
        code = run_cli("solve", "--problem", "zdt1", "--scheme", "2,1e200,0,1", "--out", str(tmp_path))
        assert code == 1
        out, err = capsys.readouterr()
        assert out == "" and "error: scheme: a drawn c1 + c2 can pass 1.3407807929942596e+154" in err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("flag", ["--swarm", "--evaluations", "--archive"])
    def test_zero_is_rejected_not_defaulted(self, tmp_path, capsys, flag):
        code = run_cli("solve", "--problem", "zdt1", flag, "0", "--out", str(tmp_path))
        assert code == 1
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "zdt1-2").exists()


def _files(directory):
    return {p.name: p.read_bytes() for p in directory.iterdir()}


class TestRunDirectory:
    SMALL = ("--problem", "zdt1", "--evaluations", "200", "--swarm", "20")

    def solve(self, tmp_path, *argv, config=None):
        if config is not None:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(config)
            argv += ("--config", str(cfg))
        return run_cli("solve", *self.SMALL, *argv, "--out", str(tmp_path / "r"))

    def test_meta_records_every_setting(self, tmp_path):
        config = "[run]\nvariant = smpso\ninertia = 0.3\nhv_target = 0.5\n[mutation]\nparticle_fraction = 0.2\n"
        assert self.solve(tmp_path, "--archive", "30", config=config) == 0
        meta = (tmp_path / "r" / "zdt1-2" / "smpso" / "1" / "meta.txt").read_text()
        assert meta.splitlines()[4:-2] == [
            "scheme=3,5,0,1", "inertia=0.29999999999999999", "swarm_size=20", "archive_capacity=30",
            "max_evaluations=200", "hv_target=0.5", "distribution_index=20",
            "per_variable_probability=", "particle_fraction=0.20000000000000001",
        ]

    # every meta.txt byte of two zdt1 runs at 200 evaluations: the identity
    # lines, every setting in order, and the run's evaluations and front size
    @pytest.mark.parametrize("config, variant, meta", [
        ("[run]\nvariant = smpso\ninertia = 0.3\nhv_target = 0.5\n", "smpso",
         "problem=zdt1\nobjectives=2\nvariant=smpso\nseed=1\nscheme=3,5,0,1\ninertia=0.29999999999999999\n"
         "swarm_size=100\narchive_capacity=100\nmax_evaluations=200\nhv_target=0.5\ndistribution_index=20\n"
         "per_variable_probability=\nparticle_fraction=0.14999999999999999\nevaluations=200\nfront_size=18\n"),
        (None, "fcpso",
         "problem=zdt1\nobjectives=2\nvariant=fcpso\nseed=1\nscheme=2,3.4672000000000001,0,1\n"
         "swarm_size=100\narchive_capacity=100\nmax_evaluations=200\nhv_target=\ndistribution_index=20\n"
         "per_variable_probability=\nparticle_fraction=0.14999999999999999\nevaluations=200\nfront_size=17\n"),
    ], ids=["smpso-config", "fcpso-defaults"])
    def test_meta_is_byte_for_byte_as_recorded(self, tmp_path, config, variant, meta):
        argv = ["solve", "--problem", "zdt1", "--evaluations", "200", "--out", str(tmp_path / "r")]
        if config is not None:
            (tmp_path / "run.cfg").write_text(config)
            argv += ["--config", str(tmp_path / "run.cfg")]
        assert run_cli(*argv) == 0
        assert (tmp_path / "r" / "zdt1-2" / variant / "1" / "meta.txt").read_text(encoding="utf-8") == meta

    @pytest.mark.parametrize("first, second, key", [
        (("--scheme", "2,3,0,1"), ("--scheme", "3,5,0,1"), "scheme"),
        (("--archive", "20"), ("--archive", "30"), "archive_capacity"),
        ((), ("--hv-target", "0.5"), "hv_target"),
        ((), ("--evaluations", "400"), "max_evaluations"),
        ((), ("--swarm", "40"), "swarm_size"),
    ])
    def test_another_runs_directory_exits_1_and_writes_nothing(self, tmp_path, capsys, first, second, key):
        assert self.solve(tmp_path, *first) == 0
        run_dir = tmp_path / "r" / "zdt1-2" / "fcpso" / "1"
        before = _files(run_dir)
        capsys.readouterr()
        assert self.solve(tmp_path, *second) == 1
        out, err = capsys.readouterr()
        assert out == "" and f"error: {run_dir} holds a run with {key}=" in err
        assert _files(run_dir) == before

    @pytest.mark.parametrize("config, key", [
        ("[mutation]\nper_variable_probability = 0.5\n", "per_variable_probability"),
        ("[run]\nvariant = smpso\ninertia = 0.4\n", "inertia"),
    ])
    def test_a_config_setting_is_checked_too(self, tmp_path, capsys, config, key):
        variant = "smpso" if "smpso" in config else "fcpso"
        assert self.solve(tmp_path, "--variant", variant) == 0
        assert self.solve(tmp_path, config=config) == 1
        assert f"holds a run with {key}=" in capsys.readouterr().err

    def test_a_rerun_with_the_same_settings_is_byte_identical(self, tmp_path):
        assert self.solve(tmp_path, "--hv-target", "0.5") == 0
        run_dir = tmp_path / "r" / "zdt1-2" / "fcpso" / "1"
        before = _files(run_dir)
        assert self.solve(tmp_path, "--hv-target", "0.5") == 0
        assert _files(run_dir) == before

    def test_a_key_an_older_meta_lacks_is_no_conflict(self, tmp_path):
        assert self.solve(tmp_path) == 0
        meta = tmp_path / "r" / "zdt1-2" / "fcpso" / "1" / "meta.txt"
        written = meta.read_text()
        older = [line for line in written.splitlines() if line.split("=")[0] in
                 ("problem", "objectives", "variant", "scheme", "seed", "evaluations", "front_size")]
        meta.write_text("\n".join(older) + "\n")
        assert self.solve(tmp_path, "--evaluations", "400") == 0
        assert "max_evaluations=400\n" in meta.read_text()


class TestIgnoredSettings:
    @pytest.mark.parametrize("argv, config, named", [
        (("--variant", "smpso", "--scheme", "3,5,0.2,0.8"), "", "scheme: smpso draws no beta"),
        ((), "[run]\nvariant = smpso\nscheme = 3,5,0.2,0.8\n", "scheme: smpso draws no beta"),
        ((), "[run]\ninertia = 0.9\n", "inertia applies to smpso only, and the variant is fcpso"),
        (("--variant", "em-smpso"), "[run]\ninertia = 0.1\n", "inertia applies to smpso only"),
    ])
    def test_a_setting_the_variant_does_not_use_exits_1_naming_it(self, tmp_path, capsys, argv, config, named):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config)
        code = run_cli("solve", "--problem", "zdt1", *argv, "--config", str(cfg), "--out", str(tmp_path))
        assert code == 1
        assert f"error: {named}" in capsys.readouterr().err
        assert not (tmp_path / "zdt1-2").exists()


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
        assert (tmp_path / "zdt1-2" / "fcpso" / "9").is_dir()

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
        assert not (tmp_path / "zdt1-2").exists()

    @pytest.mark.parametrize("command, section, key", TABLE_CASES)
    def test_every_key_takes_effect(self, tmp_path, monkeypatch, command, section, key):
        monkeypatch.setattr("fcpso.cli.run", _capture)
        monkeypatch.setattr("fcpso.cli.run_experiment", _capture)
        text, expected = NON_DEFAULT[(section, key)]
        base = {"experiment": {"problems": "zdt1"}} if command == "benchmark" else {}
        if key == "inertia":  # only smpso has an inertia
            base = {"run": {"variant": "smpso"}}
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
        assert not (tmp_path / "zdt1-2").exists() and not (tmp_path / "comparison.csv").exists()

    @pytest.mark.parametrize("command, text, section", [
        ("solve", "[run]\nseed = 9\n[experiment]\nproblems = zdt1\n", "[experiment]"),
        ("benchmark", "[experiment]\nproblems = zdt1\n[run]\nvariant = smpso\nseed = 9\n", "[run]"),
    ])
    def test_other_commands_section_rejected(self, tmp_path, capsys, command, text, section):
        cfg = tmp_path / "mixed.cfg"
        cfg.write_text(text)
        assert run_with_config(command, cfg, tmp_path) == 1
        assert f"unexpected section {section}" in capsys.readouterr().err

    @pytest.mark.parametrize("text, named", [
        ("seed = 1\n", "File contains no section headers"),
        ("[run]\nseed = 1\n[run]\nseed = 2\n", "section 'run' already exists"),
    ], ids=["no-section-header", "repeated-section"])
    def test_malformed_config_file_exits_1_naming_it(self, tmp_path, capsys, text, named):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        assert run_with_config("solve", cfg, tmp_path) == 1
        out, err = capsys.readouterr()
        assert out == "" and named in err and "bad.cfg" in err

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

    def test_spec_without_problems_exits_1(self, tmp_path, capsys):
        spec = tmp_path / "bad.spec"
        spec.write_text("[experiment]\nrepetitions = 2\n")
        assert run_cli("benchmark", str(spec), "--out", str(tmp_path)) == 1
        out, err = capsys.readouterr()
        assert out == "" and "error: spec file needs 'problems' in [experiment]" in err

    def test_an_error_row_is_printed_beside_the_scored_rows(self, tmp_path, capsys):
        # dtlz2 has no reference hypervolume, so it has no fe to compare
        spec = tmp_path / "fe.spec"
        spec.write_text(
            "[experiment]\nproblems = dtlz2:3\nrepetitions = 2\nindicators = hv, fe\n"
            "max_evaluations = 200\nswarm_size = 20\narchive_capacity = 20\n"
        )
        assert run_cli("benchmark", str(spec), "--workers", "1", "--out", str(tmp_path)) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("dtlz2:3 hv: smpso=")
        assert lines[1] == "dtlz2:3 fe: error (error: no reference hypervolume for dtlz2)"

    def test_bad_spec_value_exits_1(self, tmp_path, capsys):
        spec = tmp_path / "bad.spec"
        spec.write_text("[experiment]\nproblems = zdt1\nrepetitions = five\n")
        code = run_cli("benchmark", str(spec), "--out", str(tmp_path))
        assert code == 1

    @pytest.mark.parametrize("line, named", [
        ("max_evaluations = 50", "max_evaluations must cover at least one swarm evaluation"),
        ("archive_capacity = 0", "archive_capacity must be >= 1"),
        ("variants = smpso, smpso", "variant 'smpso' is repeated"),
        # a small budget, so a spec that is wrongly accepted fails fast
        ("indicators = hv, hv\nrepetitions = 2\nmax_evaluations = 200\nswarm_size = 20", "indicator 'hv' is repeated"),
    ])
    def test_budget_and_capacity_errors_exit_1(self, tmp_path, capsys, line, named):
        spec = tmp_path / "bad.spec"
        spec.write_text(f"[experiment]\nproblems = zdt1\n{line}\n")
        code = run_cli("benchmark", str(spec), "--workers", "1", "--out", str(tmp_path))
        assert code == 1
        out, err = capsys.readouterr()
        assert out == "" and f"error: {named}" in err
        assert not (tmp_path / "comparison.csv").exists()

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_bad_workers_exit_1_before_any_run(self, tmp_path, capsys, monkeypatch, workers):
        monkeypatch.setattr("fcpso.cli.run_experiment", _capture)
        assert run_cli("benchmark", "zdt-quick", "--workers", workers, "--out", str(tmp_path)) == 1
        assert f"error: --workers must be >= 1, got {workers}" in capsys.readouterr().err
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
        path = tmp_path / "comparison.csv"
        rows = read_records(path, ComparisonRow, COMPARISON_HEADER, COMPARISON_FLOATS)
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
        for argv in ((), ("--solve-fair",), ("--target-mu", "0.25")):
            assert run_cli("fairness", *argv, "--monte-carlo", "100") == 1
            out, err = capsys.readouterr()
            assert out == "" and "error: --monte-carlo needs --scheme" in err

    def test_bad_scheme_format(self, capsys):
        assert run_cli("fairness", "--scheme", "3,5") == 1

    def test_nothing_to_do(self, capsys):
        assert run_cli("fairness") == 1

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_monte_carlo_count_below_1_exits_1_before_output(self, capsys, count):
        assert run_cli("fairness", "--scheme", "3,5,0,1", "--monte-carlo", count) == 1
        out, err = capsys.readouterr()
        assert out == "" and f"error: --monte-carlo must be >= 1, got {count}" in err

    @pytest.mark.parametrize("argv, named", [
        (["--solve-fair", "--target-mu", "0.49"],
         "--target-mu: mu = 0.49 is out of reach: the family (3, 5, 0, eps) spans mu in "
         "[1.000088900582341e-12, 0.4246358550963629]"),
        (["--target-mu", "-0.4999999999"],
         "--target-mu: mu = -0.4999999999 is out of reach: the family (2.0, phi2, 0, 1) spans mu in "
         "[-0.49999999949999996, 0.11370563888010943]"),
        (["--solve-fair", "--scheme", "3,5"], "--scheme: expected 'phi1,phi2,beta1,beta2', got '3,5'"),
        (["--scheme", "3,5,0,1", "--seed", "5"], "--seed needs --monte-carlo"),
        (["--solve-fair", "--seed", "7"], "--seed needs --monte-carlo"),
    ])
    def test_a_bad_input_exits_1_before_output(self, capsys, argv, named):
        assert run_cli("fairness", *argv) == 1
        out, err = capsys.readouterr()
        assert out == "" and f"error: {named}" in err

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    def test_a_closed_stdout_ends_the_command_quietly(self, unbuffered):
        # stdout is a pipe whose read end is already closed, so every write
        # fails at once and no reader's timing matters; unbuffered, the
        # print fails inside the command, and buffered, the flush after it
        env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = str(Path(cli.__file__).resolve().parent.parent)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        read, write = os.pipe()
        os.close(read)
        try:
            done = subprocess.run(
                [sys.executable, "-m", "fcpso.cli", "fairness", "--solve-fair"],
                stdout=write, stderr=subprocess.PIPE, text=True, timeout=60, env=env,
            )
        finally:
            os.close(write)
        assert (done.returncode, done.stderr) == (0, "")

    def test_every_action_stdout_is_as_recorded(self, capsys):
        argv = ["--solve-fair", "--target-mu", "-0.2", "--scheme", "3,5,0,1"]
        assert run_cli("fairness", *argv, "--monte-carlo", "1000", "--seed", "3") == 0
        assert capsys.readouterr().out == (
            "fair_phi2=3.4672019777575853\n"
            "fair_scheme=2,3.4672019777575853,0,1\n"
            "scheme=2,2.7451465039633733,0,1\n"
            "scheme_mu=-0.1999999999998951\n"
            "method=analytic\n"
            "p_activation=0.92463585509643831\n"
            "mu=0.42463585509643831\n"
            "method=monte-carlo\n"
            "mc_samples=1000\n"
            "mc_p_activation=0.91400000000000003\n"
            "mc_mu=0.41400000000000003\n"
            "mc_std_error=0.0088658896902679748\n"
        )


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

    @pytest.mark.parametrize("argv, out", [
        ([], "hv=3.375\nigd=0.083333333333333329\neps=0\nsp=0.28867513459481287\n"),
        (["--indicators", "sp,hv"], "hv=3.375\nsp=0.28867513459481287\n"),
    ], ids=["default-selection", "sp-and-hv"])
    def test_stdout_is_as_recorded(self, tmp_path, capsys, argv, out):
        f = tmp_path / "f.csv"
        f.write_text("f1,f2\n0.0,1.0\n0.25,0.5\n1.0,0.0\n")
        r = tmp_path / "r.csv"
        r.write_text("f1,f2\n0.0,1.0\n0.5,0.5\n1.0,0.0\n")
        assert run_cli("indicators", "--front", str(f), "--reference", str(r), "--ref-point", "2,2", *argv) == 0
        assert capsys.readouterr().out == "front_size=3\nreference_point=2,2\n" + out

    def test_igd_without_reference_errors(self, tmp_path, capsys):
        f = tmp_path / "f.csv"
        f.write_text("0.0,1.0\n1.0,0.0\n")
        assert run_cli("indicators", "--front", str(f), "--indicators", "igd") == 1
        assert "reference" in capsys.readouterr().err

    @pytest.mark.parametrize("rows, argv, named", [
        ("0.0,1.0\n1.0,0.0\n", ["--indicators", "hv"], "hv needs --ref-point"),
        ("0.5,0.5\n", ["--indicators", "sp"], "sp needs at least 2 points, the front has 1"),
        ("0.0,1.0\n1.0,0.0\n", ["--ref-point", "2,2", "--indicators", ","], "--indicators: the list is empty"),
        ("0.0,1.0\n1.0,0.0\n", ["--ref-point", "2,2", "--indicators="], "--indicators: the list is empty"),
        ("0.0,1.0\n1.0,0.0\n", ["--ref-point", "2,2,2", "--indicators", "sp"],
         "objective count mismatch: front has 2, --ref-point has 3"),
        ("0.0,1.0\n1.0,0.0\n", ["--ref-point", "2,2", "--indicators", "hv,gd"],
         "unknown indicators ['gd']; choose from hv, igd, eps, sp"),
    ], ids=["hv-without-ref-point", "sp-of-one-point", "empty-indicator-list", "empty-indicators-flag",
            "ref-point-too-wide-without-hv", "unknown-indicator"])
    def test_an_indicator_the_inputs_cannot_give_exits_1_naming_it(self, tmp_path, capsys, rows, argv, named):
        f = tmp_path / "f.csv"
        f.write_text(rows)
        assert run_cli("indicators", "--front", str(f), *argv) == 1
        out, err = capsys.readouterr()
        assert out == "" and f"error: {named}" in err

    def test_dimension_mismatch_named(self, tmp_path, capsys):
        f = tmp_path / "f.csv"
        f.write_text("0.0,1.0\n")
        r = tmp_path / "r.csv"
        r.write_text("0.0,1.0,2.0\n")
        assert run_cli("indicators", "--front", str(f), "--reference", str(r)) == 1
        assert "mismatch" in capsys.readouterr().err

    def test_non_finite_front_row_is_rejected(self, tmp_path, capsys):
        f = tmp_path / "f.csv"
        f.write_text("f1,f2\n0.0,1.0\n0.1,nan\n1.0,0.0\n")
        assert run_cli("indicators", "--front", str(f), "--ref-point", "2,2") == 1
        out, err = capsys.readouterr()
        assert out == "" and f"error: --front: {f}: non-finite field in row 3" in err

    def test_malformed_reference_exits_1_naming_flag(self, tmp_path, capsys):
        f = tmp_path / "f.csv"
        f.write_text("0.0,1.0\n1.0,0.0\n")
        r = tmp_path / "r.csv"
        r.write_text("0.0,1.0\n0.5,abc\n")
        assert run_cli("indicators", "--front", str(f), "--reference", str(r)) == 1
        out, err = capsys.readouterr()
        assert out == "" and f"error: --reference: {r}: non-numeric field in row 2" in err

    @pytest.mark.parametrize("ref_point", ["nan,2", "2,inf"])
    def test_non_finite_ref_point_exits_1_naming_flag(self, tmp_path, capsys, ref_point):
        f = tmp_path / "f.csv"
        f.write_text("0.2,0.8\n0.5,0.5\n")
        assert run_cli("indicators", "--front", str(f), "--ref-point", ref_point) == 1
        out, err = capsys.readouterr()
        assert out == "" and f"error: --ref-point: non-finite entry in '{ref_point}'" in err

    def test_round_trip_of_emitted_front(self, tmp_path, capsys):
        assert run_cli(
            "solve", "--problem", "zdt2", "--seed", "2", "--evaluations", "400",
            "--swarm", "20", "--out", str(tmp_path),
        ) == 0
        front_csv = tmp_path / "zdt2-2" / "fcpso" / "2" / "front.csv"
        assert run_cli("indicators", "--front", str(front_csv), "--ref-point", "2,2") == 0


class TestProfileCmd:
    def test_profile_csv(self, tmp_path, capsys):
        code = run_cli(
            "profile", "--problems", "zdt1", "--mu-grid=-0.2,0.2",
            "--repetitions", "2", "--evaluations", "1000", "--workers", "1",
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
        (["--mu-grid="], "--mu-grid: the list is empty"),
        (["--mu-grid=,"], "--mu-grid: the list is empty"),
        (["--problems", "", "--mu-grid=0.1"], "--problems: the list is empty"),
        (["--mu-grid=0.1", "--workers", "0"], "--workers must be >= 1, got 0"),
        (["--mu-grid=0.1", "--workers", "-3"], "--workers must be >= 1, got -3"),
    ])
    def test_bad_input_exits_1_naming_flag(self, tmp_path, capsys, argv, named):
        assert run_cli("profile", "--workers", "1", *argv, "--out", str(tmp_path)) == 1
        assert f"error: {named}" in capsys.readouterr().err
        assert not (tmp_path / "profile.csv").exists()

    def test_an_unreachable_mu_is_a_notice_on_stderr(self, tmp_path, capsys):
        # no mu is left, so nothing runs and the profile is empty
        code = run_cli("profile", "--problems", "zdt1", "--mu-grid=0.49", "--workers", "1", "--out", str(tmp_path))
        assert code == 0
        out, err = capsys.readouterr()
        assert err == (
            "notice: mu=0.49: skipped (mu = 0.49 is out of reach: the family (3, 5, 0, eps) "
            "spans mu in [1.000088900582341e-12, 0.4246358550963629])\n"
        )
        assert out == f"profile_csv={tmp_path / 'profile.csv'}\n"
        assert (tmp_path / "profile.csv").read_text() == "mu,problem,normalized_hv\n"

    def test_zero_baseline_hv_is_a_named_runtime_error(self, tmp_path, capsys):
        # two generations leave the smpso archive outside zdt1's (2, 2) hv box
        code = run_cli(
            "profile", "--problems", "zdt1", "--mu-grid=0.1", "--repetitions", "2",
            "--evaluations", "200", "--workers", "1", "--out", str(tmp_path),
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: zdt1:") and "baseline" in err


class TestNegativeSeed:
    @pytest.mark.parametrize("argv, config, named", [
        (["solve", "--problem", "zdt1", "--seed", "-1"], None, "--seed"),
        (["solve", "--problem", "zdt1", "--config"], "[run]\nseed = -1\n", "[run] seed"),
        (["profile", "--mu-grid=0.1", "--base-seed", "-1", "--workers", "1"], None, "--base-seed"),
        (["benchmark"], "[experiment]\nproblems = zdt1\nbase_seed = -1\n", "[experiment] base_seed"),
        (["fairness", "--scheme", "3,5,0,1", "--monte-carlo", "100", "--seed", "-1"], None, "--seed"),
    ])
    def test_exits_1_naming_its_input(self, tmp_path, capsys, monkeypatch, argv, config, named):
        for started in ("run", "run_experiment", "unfairness_profile"):
            monkeypatch.setattr(f"fcpso.cli.{started}", _capture)
        if config is not None:
            cfg = tmp_path / "seed.cfg"
            cfg.write_text(config)
            argv = [*argv, str(cfg)]
            named = f"{cfg}: {named}"
        if argv[0] != "fairness":
            argv = [*argv, "--out", str(tmp_path / "out")]
        assert run_cli(*argv) == 1
        out, err = capsys.readouterr()
        assert out == "" and f"error: {named}: a seed must be >= 0, got -1" in err
        assert not (tmp_path / "out").exists()


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
