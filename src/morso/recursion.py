"""Recursive low-rank subspace iterations on difference second-order systems.

The two engines here track the dominant controllability/observability
subspaces of a difference second-order system without ever forming its
first-order matrices.  Because the first-order state stacks two
consecutive position vectors, each subspace is carried as a *window* of
two consecutive N-by-n iterates; one step updates both halves:

* the Gramian variant (``srlrg``) truncates the controllability and
  observability update matrices with two independent SVDs,
* the Hankel variant (``srlrh``) truncates the single SVD of their
  cross product.

Stacking a window on top of itself reproduces, column for column, the
corresponding first-order recursion applied to the standardized
linearization; that equivalence is the correctness contract the test
suite enforces.
"""

from dataclasses import dataclass, field
import functools
import warnings

import numpy as np
import scipy.linalg

from .errors import (
    BadParameters,
    DimensionMismatch,
    DomainMismatch,
    MaxStepsExceeded,
    NonFiniteIterate,
    RankCollapseWarning,
    SvdFailure,
)
from .mmio import text_output

__all__ = [
    "SubspaceWindow",
    "RecursionConfig",
    "StepDiagnostics",
    "RecursionDiagnostics",
    "assemble_controllability",
    "assemble_observability",
    "srlrg_step",
    "srlrh_step",
    "run_recursion",
    "default_step_count",
]

ALGORITHMS = ("srlrg", "srlrh")


@dataclass(frozen=True)
class SubspaceWindow:
    """Two consecutive N-by-n subspace iterates (previous and current)."""

    prev: np.ndarray
    curr: np.ndarray

    def __post_init__(self):
        prev = np.asarray(self.prev, dtype=float)
        curr = np.asarray(self.curr, dtype=float)
        if prev.ndim != 2 or curr.ndim != 2 or prev.shape != curr.shape:
            raise DimensionMismatch(
                f"window halves must be equal-shaped matrices, got "
                f"{prev.shape} and {curr.shape}"
            )
        if prev.shape[1] > prev.shape[0]:
            raise DimensionMismatch(
                f"window is {prev.shape}: more columns than rows"
            )
        object.__setattr__(self, "prev", prev)
        object.__setattr__(self, "curr", curr)

    @property
    def n_columns(self):
        return self.prev.shape[1]

    def stacked(self):
        """The 2N-by-n first-order iterate ``[prev; curr]``."""
        return np.vstack([self.prev, self.curr])


@dataclass(frozen=True)
class RecursionConfig:
    """Reduced half-order, stopping rule and seed for one recursion run.

    Exactly one stopping rule applies: a fixed step count ``tau`` (defaults
    to three times the full first-order dimension when neither is given) or
    an ``angle_tol`` on the principal angle between consecutive subspaces,
    bounded by ``max_steps``.
    """

    n: int
    seed: int = 0
    tau: int | None = None
    angle_tol: float | None = None
    max_steps: int | None = None

    def __post_init__(self):
        if self.n < 1:
            raise BadParameters(f"reduced half-order must be >= 1, got {self.n}")
        if self.tau is not None:
            if self.angle_tol is not None:
                raise BadParameters("give either tau or angle_tol, not both")
            if self.tau < 1:
                raise BadParameters(f"tau must be >= 1, got {self.tau}")
        if self.angle_tol is not None and not 0.0 < self.angle_tol < 1.0:
            raise BadParameters(
                f"angle_tol must lie in (0, 1), got {self.angle_tol}"
            )
        if self.max_steps is not None and self.max_steps < 1:
            raise BadParameters(f"max_steps must be >= 1, got {self.max_steps}")


@dataclass(frozen=True)
class StepDiagnostics:
    """Retained singular values of one step.

    ``sigma_s``/``sigma_r`` drive the controllability/observability side
    updates; for the Hankel variant both equal the retained cross-product
    singular values.
    """

    sigma_s: np.ndarray
    sigma_r: np.ndarray


@dataclass
class RecursionDiagnostics:
    """Per-step history of a recursion run.

    ``final_window_s``/``final_window_r`` hold the complete two-iterate
    windows at termination (the run itself returns only the current
    halves); their stack is the final first-order iterate.
    """

    steps_taken: int = 0
    sigma_s: list = field(default_factory=list)
    sigma_r: list = field(default_factory=list)
    angles_s: list = field(default_factory=list)
    angles_r: list = field(default_factory=list)
    termination: str = ""
    final_window_s: SubspaceWindow | None = None
    final_window_r: SubspaceWindow | None = None

    def append(self, info, angle_s, angle_r):
        self.steps_taken += 1
        self.sigma_s.append(info.sigma_s)
        self.sigma_r.append(info.sigma_r)
        self.angles_s.append(angle_s)
        self.angles_r.append(angle_r)

    def to_csv(self, path_or_file):
        """Write one row per step: step index, the n retained singular
        values of the S side, and the (larger of the two) subspace angle."""
        with text_output(path_or_file) as f:
            n = len(self.sigma_s[0]) if self.sigma_s else 0
            header = ",".join(["step"] + [f"sigma_{k + 1}" for k in range(n)] + ["angle"])
            f.write(header + "\n")
            for i in range(self.steps_taken):
                angle = max(self.angles_s[i], self.angles_r[i])
                cells = [str(i + 1)] + [repr(float(v)) for v in self.sigma_s[i]]
                cells.append(repr(float(angle)))
                f.write(",".join(cells) + "\n")


def default_step_count(dsos):
    """Worst-case step budget: three times the first-order dimension 2N."""
    return 3 * 2 * dsos.order


def _require_discrete(dsos):
    if not dsos.is_discrete:
        raise DomainMismatch("the subspace recursion runs on difference systems")


def _check_window(dsos, window, name):
    if window.prev.shape[0] != dsos.order:
        raise DimensionMismatch(
            f"{name} has {window.prev.shape[0]} rows, system order is {dsos.order}"
        )


def assemble_controllability(dsos, window):
    """Controllability update matrix ``[A @ [prev; curr] | B]`` assembled
    blockwise from the quintuplet, shape 2N-by-(n+m).

    The top N rows are ``[curr | 0]``; the bottom rows are
    ``[-M^{-1}(K prev + D curr) | M^{-1} F]``.
    """
    _require_discrete(dsos)
    _check_window(dsos, window, "window")
    N, n, m = dsos.order, window.n_columns, dsos.n_inputs
    ops = dsos._ops
    out = np.zeros((2 * N, n + m))
    out[:N, :n] = window.curr
    out[N:, :n] = -dsos.solve_mass(ops.K @ window.prev + ops.D @ window.curr)
    out[N:, n:] = dsos._mass_input
    return out


def assemble_observability(dsos, window):
    """Observability update matrix ``[A^T @ [prev; curr] | C^T]`` assembled
    blockwise from the quintuplet, shape 2N-by-(n+p).

    The top N rows are ``[-K^T M^{-T} curr | 0]``; the bottom rows are
    ``[prev - D^T M^{-T} curr | G^T]``.
    """
    _require_discrete(dsos)
    _check_window(dsos, window, "window")
    N, n, p = dsos.order, window.n_columns, dsos.n_outputs
    ops = dsos._ops
    mt_curr = dsos.solve_mass_t(window.curr)
    out = np.zeros((2 * N, n + p))
    out[:N, :n] = -(ops.K.T @ mt_curr)
    out[N:, :n] = window.prev - ops.D.T @ mt_curr
    out[N:, n:] = dsos.G.T
    return out


def _require_finite(*arrays):
    if not all(np.all(np.isfinite(a)) for a in arrays):
        raise NonFiniteIterate(
            "subspace iterate diverged to NaN/Inf; the difference system is "
            "most likely unstable (check the discretization step size)"
        )


def _svd(mat):
    _require_finite(mat)
    try:
        u, s, vt = np.linalg.svd(mat, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise SvdFailure(f"SVD did not converge on a {mat.shape} matrix") from exc
    return _normalize_signs(u, s, vt)


def _normalize_signs(u, s, vt):
    # Fix each right singular vector's sign by its largest-magnitude entry
    # so that runs are comparable across algebraically equivalent assembly
    # orders; the matching left vector flips with it.
    for j in range(vt.shape[0]):
        k = int(np.argmax(np.abs(vt[j])))
        if vt[j, k] < 0.0:
            vt[j] = -vt[j]
            u[:, j] = -u[:, j]
    return u, s, vt


def _step(dsos, window_s, window_r, hankel):
    """Assemble both update matrices, truncate them to the windows' width n
    (two SVDs, or with ``hankel`` one SVD of their cross product) and split
    the updated iterates into new window halves."""
    n = window_s.n_columns
    if window_r.n_columns != n:
        raise DimensionMismatch("S and R windows must have the same width")
    with np.errstate(over="ignore", invalid="ignore"):
        m1 = assemble_controllability(dsos, window_s)
        m2 = assemble_observability(dsos, window_r)
        if hankel:
            u, s, vt = _svd(m2.T @ m1)
            if s[0] == 0.0 or s[min(n, len(s)) - 1] / s[0] < 1e-14:
                warnings.warn(
                    "cross-product singular values span more than 14 decades; "
                    "trailing subspace directions are numerically meaningless",
                    RankCollapseWarning,
                    stacklevel=3,  # the caller of srlrh_step
                )
            sigma_s, sigma_r, v_s, v_r = s, s, vt[:n].T, u[:, :n]
        else:
            _, sigma_s, vst = _svd(m1)
            _, sigma_r, vrt = _svd(m2)
            v_s, v_r = vst[:n].T, vrt[:n].T
        z_s, z_r = m1 @ v_s, m2 @ v_r
    _require_finite(z_s, z_r)
    N = dsos.order
    info = StepDiagnostics(sigma_s=sigma_s[:n].copy(), sigma_r=sigma_r[:n].copy())
    return SubspaceWindow(z_s[:N], z_s[N:]), SubspaceWindow(z_r[:N], z_r[N:]), info


def srlrg_step(dsos, window_s, window_r):
    """One step of the recursive low-rank Gramian iteration.

    Truncates the controllability and observability update matrices with
    two independent SVDs and maps both windows forward:

    * S side: ``prev' = curr @ V1``,
      ``curr' = -M^{-1}(K prev + D curr) @ V1 + M^{-1} F @ V2``
    * R side: ``prev' = -K^T M^{-T} curr @ W1``,
      ``curr' = (prev - D^T M^{-T} curr) @ W1 + G^T @ W2``

    where ``[V1; V2]`` (resp. ``[W1; W2]``) are the first n right singular
    vectors of the controllability (resp. observability) update matrix.

    Returns
    -------
    (SubspaceWindow, SubspaceWindow, StepDiagnostics)
        Updated S window, updated R window, retained singular values.
    """
    return _step(dsos, window_s, window_r, hankel=False)


def srlrh_step(dsos, window_s, window_r):
    """One step of the recursive low-rank Hankel iteration.

    Computes the single SVD of the (n+p)-by-(n+m) cross product of the
    observability and controllability update matrices; the right singular
    vectors update the S window and the left ones update the R window,
    with the same split as :func:`srlrg_step`.
    """
    return _step(dsos, window_s, window_r, hankel=True)


def _orthonormal(rng, N, n):
    q, _ = np.linalg.qr(rng.standard_normal((N, n)))
    return q


_GESDD, _GESDD_LWORK = scipy.linalg.get_lapack_funcs(("gesdd", "gesdd_lwork"),
                                                     dtype=np.float64)


@functools.lru_cache(maxsize=64)
def _gesdd_workspace(m, n, compute_uv):
    """Optimal LAPACK workspace for :func:`_gesdd` on an m-by-n matrix."""
    work, info = _GESDD_LWORK(m, n, compute_uv=compute_uv,
                              full_matrices=not compute_uv)
    if info != 0:
        raise np.linalg.LinAlgError(f"gesdd workspace query failed ({info})")
    return int(work.real)


def _gesdd(a, compute_uv):
    """Thin left singular vectors and singular values ``(u, s)`` of a real
    matrix, or with ``compute_uv`` false its singular values alone.

    Calls LAPACK ``gesdd`` with the arguments and workspace that
    ``scipy.linalg.orth`` (through ``svd``) and ``scipy.linalg.svdvals``
    pass it, so the results are bit-identical to theirs, without their
    per-call validation.  Raises LinAlgError when gesdd fails.
    """
    m, n = a.shape
    if a.size == 0:
        s = np.empty(0)
        return (np.empty((m, 0)), s) if compute_uv else s
    u, s, _, info = _GESDD(a, compute_uv=compute_uv,
                           lwork=_gesdd_workspace(m, n, compute_uv),
                           full_matrices=not compute_uv)
    if info != 0:
        raise np.linalg.LinAlgError(f"gesdd failed ({info})")
    return (u, s) if compute_uv else s


def _orth(a):
    """Orthonormal basis of the range of `a`, as ``scipy.linalg.orth``
    returns it (step 1 of ``scipy.linalg.subspace_angles``), or None if its
    SVD fails."""
    try:
        u, s = _gesdd(a, compute_uv=True)
    except np.linalg.LinAlgError:
        return None
    rcond = np.finfo(s.dtype).eps * max(a.shape)
    return u[:, :np.sum(s > np.amax(s, initial=0.0) * rcond, dtype=int)]


def _max_principal_angle(qa, qb):
    """Largest principal angle between the ranges of two :func:`_orth`
    bases: steps 2-5 of ``scipy.linalg.subspace_angles``, so the value is
    bit-identical to ``np.max(subspace_angles(a, b))`` while each basis is
    computed once per iterate.  Its sine path resolves tiny angles, which
    the plain arccos of overlap singular values cannot (it floors near
    1e-8)."""
    if qa is None or qb is None:
        return np.pi / 2
    try:
        cross = qa.T @ qb
        sigma = _gesdd(cross, compute_uv=False)
        if qa.shape[1] >= qb.shape[1]:
            resid = qb - qa @ cross
        else:
            resid = qa - qb @ cross.T
        mask = sigma ** 2 >= 0.5
        if mask.any():
            mu_arcsin = np.arcsin(np.clip(
                _gesdd(resid, compute_uv=False), -1.0, 1.0))
        else:
            mu_arcsin = 0.0
        angles = np.where(mask, mu_arcsin,
                          np.arccos(np.clip(sigma[::-1], -1.0, 1.0)))
    except np.linalg.LinAlgError:
        return np.pi / 2
    return float(np.max(angles)) if angles.size else 0.0


def run_recursion(dsos, config, algorithm="srlrg"):
    """Run a full subspace recursion and return the final subspaces.

    All four window halves start as seeded Gaussian matrices orthonormalized
    by thin QR.  With a fixed step count the loop runs exactly ``tau`` steps
    (default: three times the first-order dimension).  With an angle
    tolerance it stops once the principal angle between consecutive current
    iterates stays below the tolerance on both sides for two steps in a row,
    and raises MaxStepsExceeded if that never happens within ``max_steps``.

    Parameters
    ----------
    dsos : SecondOrderSystem
        Difference system (preferably stable; divergence is detected and
        reported as NonFiniteIterate).
    config : RecursionConfig
    algorithm : {"srlrg", "srlrh"}

    Returns
    -------
    (ndarray, ndarray, RecursionDiagnostics)
        Final N-by-n controllability-side and observability-side subspace
        matrices, plus the per-step history.
    """
    _require_discrete(dsos)
    if algorithm not in ALGORITHMS:
        raise BadParameters(f"algorithm must be one of {ALGORITHMS}, got {algorithm!r}")
    if config.n > dsos.order:
        raise BadParameters(
            f"reduced half-order {config.n} exceeds system order {dsos.order}"
        )
    step = srlrg_step if algorithm == "srlrg" else srlrh_step

    N, n = dsos.order, config.n
    rng = np.random.default_rng(config.seed)
    window_s = SubspaceWindow(_orthonormal(rng, N, n), _orthonormal(rng, N, n))
    window_r = SubspaceWindow(_orthonormal(rng, N, n), _orthonormal(rng, N, n))

    angle_mode = config.angle_tol is not None
    limit = (config.max_steps if angle_mode else config.tau) or default_step_count(dsos)

    diag = RecursionDiagnostics()
    below_tol_streak = 0
    # Each iterate's basis is computed once and reused on the next step.
    basis_s, basis_r = _orth(window_s.curr), _orth(window_r.curr)
    for _ in range(limit):
        new_s, new_r, info = step(dsos, window_s, window_r)
        new_basis_s, new_basis_r = _orth(new_s.curr), _orth(new_r.curr)
        angle_s = _max_principal_angle(basis_s, new_basis_s)
        angle_r = _max_principal_angle(basis_r, new_basis_r)
        diag.append(info, angle_s, angle_r)
        window_s, window_r = new_s, new_r
        basis_s, basis_r = new_basis_s, new_basis_r
        if angle_mode:
            if angle_s < config.angle_tol and angle_r < config.angle_tol:
                below_tol_streak += 1
            else:
                below_tol_streak = 0
            if below_tol_streak >= 2:
                diag.termination = "angle-converged"
                break
    else:
        if angle_mode:
            raise MaxStepsExceeded(
                f"principal angles did not settle below {config.angle_tol} within "
                f"{limit} steps"
            )
        diag.termination = "fixed-steps"
    diag.final_window_s, diag.final_window_r = window_s, window_r
    return window_s.curr, window_r.curr, diag
