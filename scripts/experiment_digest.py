#!/usr/bin/env python3
"""Print one sha256 per experiments-layer output of fixed-seed runs.

Run from any directory; fcpso is imported from the ``src/`` of the
checkout this script sits in:

    python scripts/experiment_digest.py > experiment_digests.txt

``scripts/baselines/experiment_digest.txt`` holds its 4 lines as last recorded
(numpy 2.4.6); ``python scripts/experiment_digest.py | diff - scripts/baselines/experiment_digest.txt``
checks a change against them.

It writes four files and prints ``<case> <sha256>`` for each:

* ``comparison``: ``comparison.csv`` of smpso, em-smpso and fcpso on the
  five ZDT problems and dtlz2:3 with hv, igd and fe (dtlz2 has no
  reference hypervolume, so its fe row is an error row);
* ``fe-only``: ``comparison.csv`` of the same variants with fe alone, on
  zdt1, zdt4 and dtlz2:3, where each task runs to the hv target;
* ``profile``: ``profile.csv`` of zdt1 and zdt3 over a two-point mu grid;
* ``profile-grid``: the same over a grid with a repeated mu, an
  unreachable mu and both signed zeros.

Two checkouts whose outputs ``diff`` clean produce byte-identical
experiment files, so a change to how tasks are built, run or paired can
be checked against an older checkout.  This is the experiments-layer
counterpart of ``front_digest.py``.
"""

import hashlib
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from fcpso import io  # noqa: E402
from fcpso.experiments import ExperimentSpec, run_experiment, unfairness_profile  # noqa: E402

VARIANTS = ("smpso", "em-smpso", "fcpso")
RUN = dict(max_evaluations=2_000, swarm_size=20, archive_capacity=20)
SPECS = {
    "comparison": ExperimentSpec(
        problems=("zdt1", "zdt2", "zdt3", "zdt4", "zdt6", "dtlz2:3"),
        variants=VARIANTS,
        repetitions=3,
        indicators=("hv", "igd", "fe"),
        hv_target_fraction=0.5,
        **RUN,
    ),
    "fe-only": ExperimentSpec(
        problems=("zdt1", "zdt4", "dtlz2:3"),
        variants=VARIANTS,
        repetitions=3,
        indicators=("fe",),
        hv_target_fraction=0.5,
        **RUN,
    ),
}
PROFILE = dict(problems=("zdt1", "zdt3"), repetitions=3, **RUN)
GRIDS = {"profile": (-0.2, 0.2), "profile-grid": (0.2, -0.2, 0.2, 0.49, -0.0, 0.0)}
CASES = (*SPECS, *GRIDS)


def digest(case: str) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        if case in GRIDS:
            path = Path(tmp) / "profile.csv"
            points, _ = unfairness_profile(**PROFILE, mu_grid=GRIDS[case], workers=1)
            io.write_profile_csv(path, points)
        else:
            path = Path(tmp) / "comparison.csv"
            io.write_comparison_csv(path, run_experiment(SPECS[case], workers=1))
        return hashlib.sha256(path.read_bytes()).hexdigest()


def main() -> None:
    for case in CASES:
        print(case, digest(case), flush=True)


if __name__ == "__main__":
    main()
