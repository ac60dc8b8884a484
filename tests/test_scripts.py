"""Smoke tests for the parity scripts in ``scripts/``: each still imports
and prints a stable sha256 per run, and three front digests and two
experiment digests match their lines in ``scripts/baselines/``."""

import importlib.util
import re
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("script, args", [
    ("front_digest", ("zdt1", "fcpso", 1)),
    ("eval_digest", ("dtlz2:3",)),
])
def test_a_digest_is_a_stable_sha256(script, args):
    digest = load(script).digest
    first = digest(*args)
    assert re.fullmatch("[0-9a-f]{64}", first)
    assert digest(*args) == first


def baseline(name):
    """``scripts/baselines/<name>.txt`` as {a line's leading fields: its digest}."""
    lines = (SCRIPTS / "baselines" / f"{name}.txt").read_text().splitlines()
    return {" ".join(fields[:-1]): fields[-1] for fields in map(str.split, lines)}


# zdt1 on seed 1 at 5,000 evaluations, front.csv + positions.csv: the runs
# draw from numpy's Generator.random and Generator.integers streams, so a
# numpy release that changes them, or a slip in the draw order that
# fcpso.optimizer documents, moves these digests
@pytest.mark.parametrize("variant", ["em-smpso", "fcpso", "smpso"])
def test_the_front_digest_is_pinned(variant):
    assert load("front_digest").digest("zdt1", variant, 1) == baseline("front_digest")[f"zdt1 {variant} 1"]


# comparison.csv of an fe-only experiment and profile.csv of a two-point
# mu grid: the bytes the comparison and profile writers put out
@pytest.mark.parametrize("case", ["fe-only", "profile"])
def test_the_experiment_digest_is_pinned(case):
    assert load("experiment_digest").digest(case) == baseline("experiment_digest")[case]
