"""Run the clearing benchmark from the root of a checkout.

    python3 perfbench/run.py --workload day_ranges --seed 1 \
        --seconds 50 --trace 0

The program is imported from the checkout's ``src``; without it the run
stops with exit code 2 and prints no result. The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. See ``perfbench/README.md`` for the workloads and metrics.
"""

import os
import sys
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS")


def limit_threads() -> None:
    """Give native thread pools one thread unless the environment sets a
    number, and cap that at the CPUs this process may use. Must run before
    numpy is imported."""
    cap = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        try:
            wanted = int(os.environ.get(var, "1"))
        except ValueError:
            wanted = 1
        os.environ[var] = str(max(1, min(wanted, cap)))


def main() -> int:
    src = Path.cwd() / "src"
    if not (src / "artifact" / "__init__.py").is_file():
        print(f"error: no program source at {src / 'artifact'}; run from the "
              "root of a checkout", file=sys.stderr)
        return 2
    limit_threads()
    sys.path.insert(0, str(src))
    import artifact.cli
    if Path(artifact.cli.__file__).resolve().parents[1] != src.resolve():
        print(f"error: imported artifact from {artifact.cli.__file__}, not "
              f"from {src}", file=sys.stderr)
        return 2
    import bench
    return bench.main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
