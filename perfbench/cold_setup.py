"""One cold set-up of a workload in a fresh interpreter, for ``setup_s``.

    python3 perfbench/cold_setup.py WORKLOAD SEED

Run from the root of a checkout. Times the import of the program, the
drawing of the workload's warm-up scenario, and one op on it (which parses
it), and prints the seconds. ``bench.py`` runs it several times per run and
reports the median, so every sample pays the first-call costs.
"""

import sys
import time
from pathlib import Path


def main(workload: str, seed: int) -> float:
    start = time.perf_counter()
    sys.path.insert(0, str(Path.cwd() / "src"))
    import scenarios

    shape = scenarios.WORKLOADS[workload]
    scenarios.run_op(shape, next(scenarios.scenario_stream(shape.warmup(),
                                                           seed)))
    return time.perf_counter() - start


if __name__ == "__main__":
    print(repr(main(sys.argv[1], int(sys.argv[2]))))
