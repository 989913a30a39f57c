"""One benchmark workload in one process; started by ``run.py``.

Set-up generates the workload model from the seed and writes it as a
Matrix Market spec.  The measured loop then runs whole rounds of the
workload's CLI commands in-process through ``morso.cli.cli_main``, timing
each call, until ``--seconds`` have passed.  Outputs are checked after each
call; the relative reduction errors are computed after the loop.  With
``--trace 1`` the first half of the time runs untraced and the second half
traced, and the per-layer figures come from the traced half.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

from run import BLAS_ENV, ROOT, START_ENV, parse_args

T_START = float(os.environ[START_ENV]) if START_ENV in os.environ \
    else time.monotonic()
for _key, _value in BLAS_ENV.items():
    if os.environ.get(_key) != _value:
        sys.exit(f"error: {_key} must be {_value} before numpy is imported; "
                 "start the benchmark through run.py")

sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import morso  # noqa: E402
from morso.cli import cli_main  # noqa: E402

T_IMPORTED = time.monotonic()

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 3
# An untraced run times each command at least twice, so op_s is a median of
# at least two samples however slow the machine is at the time.
MIN_ROUNDS = 2


class Tally:
    """Timings, failures and outputs of the operations of one phase."""

    def __init__(self):
        self.samples = {}
        self.attempted = 0
        self.failures = []
        self.wrong = 0
        self.reduced = []
        self.rre = []

    def op_s(self):
        """Mean over the workload's commands of each command's median."""
        return statistics.fmean(statistics.median(v)
                                for v in self.samples.values())

    def rre_gmean(self):
        """Geometric mean of the rre of the successful reductions."""
        return statistics.geometric_mean(self.rre) if self.rre else math.nan


def set_up(wl, seed, work):
    """Generate and write the model SETUP_REPEATS times; return the model,
    its spec path and the median generate-and-write time."""
    times = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        model = wl.make_model(seed)
        spec = morso.write_benchmark(os.path.join(work, "model"),
                                     workloads.MODEL_NAME, model)
        times.append(time.perf_counter() - t)
    return model, spec, statistics.median(times)


def run_command(wl, tally, label, argv, out, tracer):
    shutil.rmtree(out, ignore_errors=True)
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured), \
            contextlib.redirect_stderr(captured):
        if tracer is not None:
            tracer.begin_op()
        t = time.perf_counter()
        code = cli_main(argv)
        elapsed = time.perf_counter() - t
        if tracer is not None:
            tracer.end_op()
    tally.samples.setdefault(label, []).append(elapsed)
    cells = wl.reductions_per_command
    tally.attempted += cells
    if code != 0:
        lines = captured.getvalue().strip().splitlines()
        reason = f"{label}: exit {code}: {lines[-1] if lines else ''}"
        tally.failures += [reason] * cells
    elif wl.kind == "reduce":
        reduced, shrunk, wrong = workloads.check_reduce(out)
        if reduced is None:
            tally.failures.append(f"{label}: {shrunk or wrong}")
            tally.wrong += wrong is not None
        else:
            tally.reduced.append(reduced)
    else:
        values, errors, wrong = workloads.check_compare(out)
        tally.rre += values
        tally.failures += [f"{label}: {r}" for r in errors + wrong]
        tally.wrong += len(wrong)


def measure(wl, model, seed, spec, seconds, work, scores, min_rounds,
            tracer=None):
    """Run whole rounds of the workload's commands, at least ``min_rounds``
    and until ``seconds`` have passed, then score the reduced models."""
    tally = Tally()
    out = os.path.join(work, "out")
    start = time.perf_counter()
    rounds = 0
    while rounds < min_rounds or time.perf_counter() - start < seconds:
        for label, command in wl.commands:
            run_command(wl, tally, label, wl.argv(command, spec, seed, out),
                        out, tracer)
        rounds += 1
    if wl.kind == "reduce":
        score_reductions(wl.full_discrete(model), tally, scores)
    return tally


def score_reductions(full, tally, scores):
    """Benchmark-grid rre of every reduced model.  ``scores`` maps a model
    digest to its rre, so identical models (the loop repeats deterministic
    commands) are scored once per run."""
    for reduced in tally.reduced:
        key = hashlib.sha1(b"".join(
            getattr(reduced, role).tobytes()
            for role in morso.bench.ROLES)).hexdigest()
        if key not in scores:
            scores[key] = workloads.reduction_error(full, reduced)
        value = scores[key]
        if np.isfinite(value):
            tally.rre.append(value)
        else:
            tally.failures.append(f"rre {value} is not finite")
            tally.wrong += 1


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "blas_threads": {key: os.environ.get(key) for key in BLAS_ENV},
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
    }


def main():
    args = parse_args()
    wl = workloads.build(args.workload, smoke=args.smoke)
    work = os.path.join(ROOT, ".perfbench-work", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)

    model, spec, generate_s = set_up(wl, args.seed, work)
    setup_s = (T_IMPORTED - T_START) + generate_s

    scores = {}
    if args.trace:
        # Each half of a traced run needs one round only: its figures are
        # per-layer shares, not a timing with a bound.
        untraced = measure(wl, model, args.seed, spec, args.seconds / 2, work,
                           scores, 1)
        tracer = tracing.Tracer(model.order)
        tracer.install()
        traced = measure(wl, model, args.seed, spec, args.seconds / 2, work,
                         scores, 1, tracer)
        tracer.write(os.path.join(work, "spans.jsonl"))
        tallies = [untraced, traced]
        metrics = tracer.layer_metrics(wl.reductions_per_command)
        metrics["trace.overhead"] = (traced.op_s() / untraced.op_s(), "ratio")
        metrics["check.rre_gmean"] = (untraced.rre_gmean(), "ratio")
    else:
        tally = measure(wl, model, args.seed, spec, args.seconds, work,
                        scores, MIN_ROUNDS)
        tallies = [tally]
        metrics = {
            "op_s": (tally.op_s(), "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "MB"),
            "success_ratio": (1 - len(tally.failures) / tally.attempted,
                              "ratio"),
        }
    shutil.rmtree(os.path.join(work, "out"), ignore_errors=True)

    failures = [f for t in tallies for f in t.failures]
    for reason in failures:
        print(f"failed: {reason}", file=sys.stderr)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "op_samples": [{label: len(v) for label, v in t.samples.items()}
                       for t in tallies],
        "op_seconds": [t.samples for t in tallies],
        "rre_gmean": [t.rre_gmean() for t in tallies],
        "environment": environment(),
    }
    result = {
        "correct": not any(t.wrong for t in tallies),
        "attempted": sum(t.attempted for t in tallies),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    with open(os.path.join(work, "result.json"), "w", encoding="utf-8") as f:
        json.dump({**record, **result}, f, indent=1)
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
