#!/usr/bin/env python3
"""Print one sha256 of the objective vectors of every registered problem.

Run from any directory; fcpso is imported from the ``src/`` of the
checkout this script sits in:

    python scripts/eval_digest.py > eval_digests.txt

``scripts/baselines/eval_digest.txt`` holds its 53 lines as last recorded
(numpy 2.4.6); ``python scripts/eval_digest.py | diff - scripts/baselines/eval_digest.txt``
checks a change against them.

Each ZDT problem is evaluated at its default size, and each DTLZ and WFG
problem at 2, 3 and 5 objectives.  The inputs are both box corners, 500
uniform points from a fixed seed, then 500 wall points from the same
generator, whose components are each, at random, the lower bound, the
upper bound or uniform in between (a solver puts many components on a
wall, and an evaluator must agree there too).  The line printed is
``<problem id> <sha256 of the float64 output bytes>``.  Two checkouts
whose outputs ``diff`` clean evaluate every problem bitwise alike, so an
evaluator rewrite can be checked against an older checkout without
keeping the old code.
"""

import hashlib
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from fcpso.problems import available_problems, get_problem, parse_problem_id  # noqa: E402

POINTS = 500
SEED = 20240607
OBJECTIVES = (2, 3, 5)


def problem_ids() -> list[str]:
    ids = []
    for name in available_problems():
        if name.startswith("zdt"):
            ids.append(name)
        else:
            ids.extend(f"{name}:{m}" for m in OBJECTIVES)
    return ids


def digest(problem_id: str) -> str:
    problem = get_problem(*parse_problem_id(problem_id))
    lower, upper = problem.bounds.lower, problem.bounds.upper
    rng = np.random.default_rng(SEED)
    points = [lower, upper] + [rng.uniform(lower, upper) for _ in range(POINTS)]
    for _ in range(POINTS):
        side = rng.integers(0, 3, size=lower.shape[0])
        points.append(np.where(side == 0, lower, np.where(side == 1, upper, rng.uniform(lower, upper))))
    sha = hashlib.sha256()
    for x in points:
        sha.update(np.ascontiguousarray(problem.evaluate(x), dtype=np.float64).tobytes())
    return sha.hexdigest()


def main() -> None:
    for problem_id in problem_ids():
        print(problem_id, digest(problem_id), flush=True)


if __name__ == "__main__":
    main()
