"""The benchmark's workloads: model generators, CLI commands and output checks.

Every workload writes its model as a Matrix Market spec during set-up; the
program under test only ever sees that spec, through ``morso.cli.cli_main``.
All inputs derive from the workload seed: the chain mass perturbation, the
dense model's basis and the recursion ``--seed``.
"""

import csv
from dataclasses import dataclass
import math
import os

import numpy as np

import morso
from morso.metrics import FrequencyGrid

MODEL_NAME = "model"
ORDER = 6
CHAIN_STEP = 0.5
COMPARE_ORDERS = (2, 4, 6)
COMPARE_METHODS = ("srlrg", "srlrh", "bt")

# The benchmark owns the grid on which it scores reduce outputs, so that a
# change to the library's default grid does not move check.rre_gmean.  The
# angles are log-spaced so the slowest chain modes (theta ~ 4e-3 at
# h = 0.5) are resolved.
RRE_ANGLES = np.geomspace(1e-4, np.pi, 48)
RRE_GRID = FrequencyGrid(kind="circle", parameters=RRE_ANGLES,
                         points=np.exp(1j * RRE_ANGLES))
RRE_REFINEMENT_ROUNDS = 3


def chain_model(N):
    def make(seed):
        return morso.generate_msd_chain(N, stiffness=1.0, damping=1.0,
                                        seed=seed)
    return make


# Seed of the dense model's modal data.  The workload seed draws only an
# orthogonal basis (and the recursion's start), so the reduction error and
# the step count at which the angles settle barely change with it.  On this
# spectrum both engines meet the angle tolerance; on some others a
# truncated window cycles at a fixed nonzero angle and never does.
DENSE_MODES_SEED = 2


def dense_model(N, m=2, p=2, dominant=6, boost=30.0):
    """Stable dense difference system with a full mass matrix.

    Each second-order mode is a quadratic with conjugate roots.  The first
    ``dominant`` modes have moduli in [0.9, 0.95] and input coupling
    boosted ``boost`` times; the others have moduli in [0.2, 0.5].  The
    masses lie in [0.5, 2].  This follows the test suite's
    ``random_stable_discrete(dominant=...)`` with ``rho_max = 0.95``, except
    that the modal data come from DENSE_MODES_SEED and the mass congruence
    shares the mode shapes: the model is the modal one rotated by an
    orthogonal Q2 drawn from the workload seed, ``M = Q2 diag(mass) Q2^T``,
    ``D = Q2 diag(mass * d) Q2^T``, ``K = Q2 diag(mass * k) Q2^T``,
    ``F = Q2 diag(mass) F_modal``, ``G = G_modal Q2^T``.
    """
    modes = np.random.default_rng(DENSE_MODES_SEED)
    r = modes.uniform(0.2, 0.5, N)
    r[:dominant] = modes.uniform(0.9, 0.95, dominant)
    th = modes.uniform(0.1, np.pi - 0.1, N)
    mass = modes.uniform(0.5, 2.0, N)
    weights = np.where(np.arange(N)[:, None] < dominant, boost, 1.0)
    F_modal = modes.standard_normal((N, m)) * weights
    G_modal = modes.standard_normal((p, N))

    def make(seed):
        Q2, _ = np.linalg.qr(
            np.random.default_rng(seed).standard_normal((N, N)))

        def rotate(diagonal):
            return (Q2 * diagonal) @ Q2.T

        return morso.SecondOrderSystem(
            rotate(mass), rotate(mass * -2.0 * r * np.cos(th)),
            rotate(mass * r * r), Q2 @ (mass[:, None] * F_modal),
            G_modal @ Q2.T, h=1.0)
    return make


@dataclass(frozen=True)
class Workload:
    """One model and the CLI commands a measured round runs on it.

    ``kind`` is ``"reduce"`` (one reduction per command) or ``"compare"``
    (one reduction per table cell).  ``extra`` holds flags appended to every
    command; ``h`` is the step a reduce workload discretizes with, or None
    for a model that is already discrete.
    """

    name: str
    kind: str
    make_model: object
    commands: tuple
    extra: tuple = ()
    h: float | None = None

    def argv(self, command, spec, seed, out):
        return [*command, spec, *self.extra, "--seed", str(seed),
                "--out", out]

    @property
    def reductions_per_command(self):
        if self.kind == "compare":
            return len(COMPARE_ORDERS) * len(COMPARE_METHODS)
        return 1

    def full_discrete(self, model):
        """The full model in the domain the reductions were computed in."""
        if self.h is None:
            return model
        return morso.discretize(model, self.h, stability_check=False)


_REDUCE = tuple(
    (algo, ("reduce", "--algo", algo, "--order", str(ORDER)))
    for algo in ("srlrg", "srlrh")
)
_COMPARE = (("compare", ("compare", "--orders",
                         ",".join(map(str, COMPARE_ORDERS)), "--methods",
                         ",".join(COMPARE_METHODS))),)
_CHAIN_H = ("--h", repr(CHAIN_STEP))


def build(name, smoke=False):
    """The workload called ``name``; ``smoke`` shrinks it to tiny inputs."""
    if name == "chain-reduce":
        # Default tau = 6N = 2400 fixed steps: the recursion dominates and
        # the angles are diagnostics only.
        return Workload(name, "reduce", chain_model(16 if smoke else 400),
                        _REDUCE, _CHAIN_H + (("--tau", "30") if smoke else ()),
                        h=CHAIN_STEP)
    if name == "kron-compare":
        # 2N = 64 = KRON_LIMIT: the oracle's Kronecker Stein solve dominates;
        # the metrics re-solve the full model's transfer in every cell.
        return Workload(name, "compare", chain_model(12 if smoke else 32),
                        _COMPARE,
                        _CHAIN_H + (("--tau", "50") if smoke else ()))
    if name == "dense-converge":
        # The principal angles are the stopping rule, so they cannot be
        # skipped; the input is dense and discrete, so discretize is idle,
        # parsing the dense Matrix Market files is a large share of an op,
        # and sparse storage must not slow it.
        return Workload(name, "reduce", dense_model(16 if smoke else 500),
                        _REDUCE, ("--angle-tol", "1e-6", "--max-steps",
                                  "600"))
    raise KeyError(name)


def check_reduce(out_dir):
    """Reload a ``reduce`` output.  Return (reduced model, None, None) when it
    passes; otherwise the reason it failed, as the second item when the CLI
    reported it (a shrunk order) or the third when the output is wrong."""
    path = os.path.join(out_dir, f"{MODEL_NAME}_reduced.spec")
    try:
        reduced = morso.load_matrix_market(morso.BenchmarkSpec.read(path))
    except morso.MorsoError as exc:
        return None, None, f"reduced spec does not reload: {exc}"
    for role in morso.bench.ROLES:
        if not np.all(np.isfinite(getattr(reduced, role))):
            return None, None, f"reduced {role} is not finite"
    if reduced.order != ORDER:
        return None, f"retained order {reduced.order}, expected {ORDER}", None
    return reduced, None, None


def check_compare(out_dir):
    """Read ``comparison.csv``.  Return the rre values of the good cells, the
    reasons of the cells the CLI reported as errors, and the reasons of the
    cells whose output is wrong (one reason per failed cell)."""
    path = os.path.join(out_dir, "comparison.csv")
    expected = len(COMPARE_ORDERS) * len(COMPARE_METHODS)
    try:
        with open(path, newline="", encoding="utf-8") as f:
            rows = list(csv.DictReader(f))
    except OSError as exc:
        return [], [], [f"no comparison table: {exc}"] * expected
    if len(rows) != expected:
        return [], [], [f"comparison table has {len(rows)} rows, "
                        f"expected {expected}"] * expected
    values, errors, wrong = [], [], []
    for row in rows:
        cell = f"{row.get('method')} n={row.get('order')}"
        if row.get("error"):
            errors.append(f"{cell}: {row['error']}")
            continue
        try:
            value = float(row.get("rre") or "nan")
        except ValueError:
            value = math.nan
        if math.isfinite(value):
            values.append(value)
        else:
            wrong.append(f"{cell}: rre {row.get('rre')!r} is not finite")
    return values, errors, wrong


def reduction_error(full, reduced):
    """Relative reduction error on the benchmark's own grid."""
    return morso.rre(full, reduced, grid=RRE_GRID,
                     refinement_rounds=RRE_REFINEMENT_ROUNDS)
