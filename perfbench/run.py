"""Benchmark launcher for morso.

Usage (from the repository root)::

    python3 perfbench/run.py --workload chain-reduce --seed 1 --seconds 25 --trace 0

Each invocation runs one workload in one child process (``harness.py``)
with BLAS pinned to a single thread before numpy is imported, and relays
its output.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it records the environment and the sample counts.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer metrics of a
separate traced run.  The workloads and metrics are listed in
``BENCHMARK.json`` at the repository root.

The program under test is imported from ``src/`` of the same checkout; the
launcher exits with status 2, printing no result, when it is missing.
"""

import argparse
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("chain-reduce", "kron-compare", "dense-converge")

# The seed used when none is given, and a second seed kept out of tuning so
# that a later claim can be re-checked on inputs it was not written against.
DEFAULT_SEED = 1
HELDOUT_SEED = 9001

BLAS_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

# Monotonic clock reading taken just before the child starts; the child's
# set-up time is measured from it.
START_ENV = "PERFBENCH_T0"

CHILD_TIMEOUT_S = 170


def parse_args(argv=None):
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py",
        description=f"Run one morso benchmark workload (default seed "
                    f"{DEFAULT_SEED}, held-out seed {HELDOUT_SEED}).")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="length of the measured loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the harness's own test")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "morso", "__init__.py")):
        print(f"error: no morso package under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    env = dict(os.environ, **BLAS_ENV)
    env[START_ENV] = repr(time.monotonic())
    cmd = [sys.executable, os.path.join(HERE, "harness.py"), *argv]
    try:
        return subprocess.run(cmd, env=env, cwd=ROOT,
                              timeout=CHILD_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"error: workload did not finish within {CHILD_TIMEOUT_S} s",
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
