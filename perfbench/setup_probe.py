"""Time one workload set-up in a fresh process and print it in seconds.

    python3 perfbench/setup_probe.py <workload> <pool workers>

The clock starts before fcpso (and numpy) is imported, so the figure is
what a fresh process pays: imports, problems, reference fronts and, for
paired-batch, a pool start-up.
"""

import sys
import time
from pathlib import Path

if __name__ == "__main__":
    start = time.perf_counter()
    here = Path(__file__).resolve().parent
    sys.path.insert(0, str(here.parent / "src"))
    sys.path.insert(0, str(here))

    import workloads

    workloads.setup(sys.argv[1], int(sys.argv[2]))
    print(time.perf_counter() - start)
