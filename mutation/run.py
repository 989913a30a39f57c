"""Mutation gate for morso's correctness checks.

Usage (from the repository root)::

    python3 mutation/run.py

The mutants are listed in ``mutants.py`` next to this file, and every one of
them runs.  First the test ids of every mutant run once on an unmutated copy
of ``src/`` and ``tests/``, and must pass.  Then each mutant's old text must
occur exactly once in its file; an equivalent mutant is checked for that
and not run.  Every other mutant is applied to a fresh temporary copy, its
old text replaced by its new text, and only its test ids run there, with
BLAS on one thread and a fixed hypothesis seed.  The mutant is killed when
every one of those ids has a failing case.

Exits 0 when every mutant is killed, and 1 when a mutant survives, its old
text does not occur exactly once, its tests cannot run (a collection error,
an unknown id) or the unmutated tests fail.
"""

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from mutants import MUTANTS  # noqa: E402

COPIED = ("src", "tests", "pyproject.toml")
ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
       "MKL_NUM_THREADS": "1"}
FAILED_LINE = re.compile(r"^FAILED (\S+)", re.MULTILINE)


def copy_tree(dest):
    """Copy the program and its tests into `dest`."""
    for name in COPIED:
        src = os.path.join(ROOT, name)
        if os.path.isdir(src):
            shutil.copytree(src, os.path.join(dest, name),
                            ignore=shutil.ignore_patterns("__pycache__"))
        else:
            shutil.copy(src, dest)


def occurrences(mutant):
    """How often the mutant's old text occurs in its file."""
    with open(os.path.join(ROOT, mutant.file), encoding="utf-8") as f:
        return f.read().count(mutant.old)


def apply(mutant, tree):
    """Replace the mutant's old text in its file under `tree`."""
    path = os.path.join(tree, mutant.file)
    with open(path, encoding="utf-8") as f:
        text = f.read()
    with open(path, "w", encoding="utf-8") as f:
        f.write(text.replace(mutant.old, mutant.new))


def run_tests(tree, ids):
    """Run `ids` in `tree`; returns pytest's exit code, the ids of the
    failed cases and pytest's output."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"), **ENV)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider",
         "--hypothesis-seed=0", *ids],
        cwd=tree, env=env, capture_output=True, text=True)
    return proc.returncode, FAILED_LINE.findall(proc.stdout), proc.stdout


def has_failure(test_id, failed):
    return any(f == test_id or f.startswith((test_id + "[", test_id + "::"))
               for f in failed)


def judge(mutant):
    """Apply `mutant` to a fresh copy and run its tests there; returns
    whether it passes the gate, and the verdict to print."""
    count = occurrences(mutant)
    if count != 1:
        return False, f"old text occurs {count} times in {mutant.file}"
    if mutant.equivalent:
        return True, f"equivalent: {mutant.equivalent}"
    if not mutant.tests:
        return False, "no tests listed"
    with tempfile.TemporaryDirectory(prefix="morso-mutation-") as tree:
        copy_tree(tree)
        apply(mutant, tree)
        code, failed, _ = run_tests(tree, mutant.tests)
    if code not in (0, 1):
        return False, f"tests did not run (pytest exit {code})"
    missed = [t for t in mutant.tests if not has_failure(t, failed)]
    if missed:
        return False, f"survived: {', '.join(missed)} passed"
    return True, f"killed by {len(failed)} failing case(s)"


def main():
    start = time.monotonic()
    ids = sorted({t for m in MUTANTS if not m.equivalent for t in m.tests})
    with tempfile.TemporaryDirectory(prefix="morso-mutation-") as tree:
        copy_tree(tree)
        code, _, out = run_tests(tree, ids)
    if code != 0:
        print(out)
        print(f"error: the unmutated tests do not pass (pytest exit {code})",
              file=sys.stderr)
        return 1
    bad = 0
    for mutant in MUTANTS:
        ok, verdict = judge(mutant)
        bad += not ok
        print(f"{mutant.name:42s} {'' if ok else 'FAILED, '}{verdict}",
              flush=True)
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants pass the gate "
          f"in {time.monotonic() - start:.0f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
