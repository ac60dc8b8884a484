#!/usr/bin/env python3
"""Print one sha256 of front.csv + positions.csv per fixed-seed run.

Run from any directory; fcpso is imported from the ``src/`` of the
checkout this script sits in:

    python scripts/front_digest.py > digests.txt

``scripts/baselines/front_digest.txt`` holds its 180 lines as last recorded
(numpy 2.4.6); ``python scripts/front_digest.py | diff - scripts/baselines/front_digest.txt``
checks a change against them.

It solves zdt1, dtlz2:3 and wfg4:5 with smpso, em-smpso and fcpso on
seeds 1-20 at 5,000 evaluations (180 runs) and prints
``<problem> <variant> <seed> <sha256>`` per run.  Two checkouts whose
outputs ``diff`` clean produce byte-identical fronts and positions on all
of them; a change to the random stream shows as the lines it moves.
"""

import hashlib
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from fcpso import io  # noqa: E402
from fcpso.optimizer import RunConfig, run  # noqa: E402
from fcpso.problems import get_problem, parse_problem_id  # noqa: E402
from fcpso.swarm import DynamicsConfig  # noqa: E402

PROBLEMS = ("zdt1", "dtlz2:3", "wfg4:5")
VARIANTS = ("smpso", "em-smpso", "fcpso")
SEEDS = range(1, 21)
EVALUATIONS = 5_000


def digest(problem_id: str, variant: str, seed: int) -> str:
    problem = get_problem(*parse_problem_id(problem_id))
    cfg = RunConfig(dynamics=DynamicsConfig(variant=variant), max_evaluations=EVALUATIONS)
    result = run(problem, cfg, seed)
    with tempfile.TemporaryDirectory() as tmp:
        out = io.write_run_result(tmp, problem, cfg, seed, result)
        sha = hashlib.sha256()
        for name in ("front.csv", "positions.csv"):
            sha.update((out / name).read_bytes())
    return sha.hexdigest()


def main() -> None:
    for problem_id in PROBLEMS:
        for variant in VARIANTS:
            for seed in SEEDS:
                print(problem_id, variant, seed, digest(problem_id, variant, seed), flush=True)


if __name__ == "__main__":
    main()
