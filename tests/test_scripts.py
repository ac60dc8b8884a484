"""Tests for the parity scripts in ``scripts/``: each still imports and
prints a stable sha256 per run, and every experiment digest, every
evaluator digest and the seed-1 front digests of zdt1, dtlz2:3 and wfg4:5
match their lines in ``scripts/baselines/``."""

import importlib.util
import re
from functools import cache
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

# the recorded digests were taken on a numpy that dispatches to AVX-512;
# without it ten evaluator digests and the comparison digest differ
SIMD = (
    "a recorded digest moved; numpy.show_runtime() shows whether this numpy "
    "dispatches to AVX-512, as the recording did"
)


@cache
def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def baseline(name):
    """``scripts/baselines/<name>.txt`` as {a line's leading fields: its digest}."""
    lines = (SCRIPTS / "baselines" / f"{name}.txt").read_text().splitlines()
    return {" ".join(fields[:-1]): fields[-1] for fields in map(str.split, lines)}


@pytest.mark.parametrize("script, args", [
    ("front_digest", ("zdt1", "fcpso", 1)),
    ("eval_digest", ("dtlz2:3",)),
])
def test_a_digest_is_a_stable_sha256(script, args):
    digest = load(script).digest
    first = digest(*args)
    assert re.fullmatch("[0-9a-f]{64}", first)
    assert digest(*args) == first


# seed 1 at 5,000 evaluations, front.csv + positions.csv: the runs draw
# from numpy's Generator.random and Generator.integers streams, so a
# numpy release that changes them, or a slip in the draw order that
# fcpso.optimizer documents, moves these digests; dtlz2:3 and wfg4:5
# take the leader draws of the three- and five-objective archive
@pytest.mark.parametrize("problem", ["zdt1", "dtlz2:3", "wfg4:5"])
@pytest.mark.parametrize("variant", ["em-smpso", "fcpso", "smpso"])
def test_the_front_digest_is_pinned(problem, variant):
    digest = load("front_digest").digest(problem, variant, 1)
    assert digest == baseline("front_digest")[f"{problem} {variant} 1"], SIMD


# the objective vectors of every registered problem at its box corners,
# uniform points and wall points
def test_every_problem_has_a_recorded_evaluator_digest():
    assert load("eval_digest").problem_ids() == list(baseline("eval_digest"))


@pytest.mark.parametrize("problem", list(baseline("eval_digest")))
def test_the_evaluator_digest_is_pinned(problem):
    assert load("eval_digest").digest(problem) == baseline("eval_digest")[problem], SIMD


# comparison.csv of a full and of an fe-only experiment, and profile.csv
# of two mu grids: the bytes the comparison and profile writers put out
@pytest.mark.parametrize("case", list(baseline("experiment_digest")))
def test_the_experiment_digest_is_pinned(case):
    assert load("experiment_digest").digest(case) == baseline("experiment_digest")[case], SIMD
