"""Smoke tests for the parity scripts in ``scripts/``: each still imports
and prints a stable sha256 per run, three front digests are pinned, and
two experiment digests match ``scripts/baselines/experiment_digest.txt``."""

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


# zdt1 on seed 1 at 5,000 evaluations, front.csv + positions.csv: the runs
# draw from numpy's Generator.random and Generator.integers streams, so a
# numpy release that changes them, or a slip in the draw order that
# fcpso.optimizer documents, moves these digests
PINNED_FRONTS = {
    "smpso": "a1f48072dd7cb46d840c312c5d44a44d27d7a94666bde356ffccbb675143b955",
    "em-smpso": "913b850178c212fde46357f96d9983564b49d1ebf0d1d3394e7094e4f14ce805",
    "fcpso": "523a4aab2d802b4eb69a44581391000068ac245c223c7a09ea92de4a6d7a452b",
}


@pytest.mark.parametrize("variant", sorted(PINNED_FRONTS))
def test_the_front_digest_is_pinned(variant):
    assert load("front_digest").digest("zdt1", variant, 1) == PINNED_FRONTS[variant]


# comparison.csv of an fe-only experiment and profile.csv of a two-point
# mu grid: the bytes the comparison and profile writers put out
EXPERIMENT_BASELINE = dict(
    line.split() for line in (SCRIPTS / "baselines" / "experiment_digest.txt").read_text().splitlines()
)


@pytest.mark.parametrize("case", ["fe-only", "profile"])
def test_the_experiment_digest_is_pinned(case):
    assert load("experiment_digest").digest(case) == EXPERIMENT_BASELINE[case]
