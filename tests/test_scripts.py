"""Smoke tests for the parity scripts in ``scripts/``: each still imports
and prints a stable sha256 per run."""

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
