"""Recursive low-rank subspace iterations on difference second-order systems.

The two engines here track the dominant controllability/observability
subspaces of a difference second-order system without ever forming its
first-order matrices.  Because the first-order state stacks two
consecutive position vectors, each subspace is carried as the stacked
2N-by-n first-order iterate ``[prev; curr]`` of two consecutive N-by-n
iterates, and one step computes both halves from the N-sized blocks of
the quintuplet:

* the Gramian variant (``srlrg``) truncates the controllability and
  observability update matrices with two independent SVDs,
* the Hankel variant (``srlrh``) truncates the single SVD of their
  cross product.

One step on the blocks reproduces, column for column, the corresponding
first-order step on the same stacked iterate of the standardized
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
    "RecursionConfig",
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
class RecursionConfig:
    """Reduced half-order, stopping rule and seed for one recursion run.

    Exactly one stopping rule applies: a fixed step count ``tau`` (defaults
    to three times the full first-order dimension when neither is given) or
    an ``angle_tol`` on the principal angle between consecutive subspaces,
    bounded by ``max_steps``.  ``max_steps`` bounds only that rule, so it
    needs ``angle_tol``.
    """

    n: int
    seed: int = 0
    tau: int | None = None
    angle_tol: float | None = None
    max_steps: int | None = None

    def __post_init__(self):
        if self.n < 1:
            raise BadParameters(f"reduced half-order must be >= 1, got {self.n}")
        if self.seed < 0:
            raise BadParameters(f"seed must be >= 0, got {self.seed}")
        if self.tau is not None:
            if self.angle_tol is not None:
                raise BadParameters("give either tau or angle_tol, not both")
            if self.tau < 1:
                raise BadParameters(f"tau must be >= 1, got {self.tau}")
        if self.angle_tol is not None and not 0.0 < self.angle_tol < 1.0:
            raise BadParameters(
                f"angle_tol must lie in (0, 1), got {self.angle_tol}"
            )
        if self.max_steps is not None:
            if self.angle_tol is None:
                raise BadParameters("max_steps bounds the angle_tol stopping "
                                    "rule and needs angle_tol")
            if self.max_steps < 1:
                raise BadParameters(f"max_steps must be >= 1, got {self.max_steps}")


@dataclass
class RecursionDiagnostics:
    """Per-step history of a recursion run.

    ``final_s``/``final_r`` hold the final stacked 2N-by-n iterates
    ``[prev; curr]`` of the two sides; the run itself returns their current
    halves, as views of these arrays.  ``sigma_s``/``sigma_r`` hold one
    entry per step taken, and so do ``angles_s``/``angles_r`` unless the run
    kept no angle trace (``run_recursion(..., angle_trace=False)`` with a
    fixed step count), in which case both angle lists are empty.
    """

    steps_taken: int = 0
    sigma_s: list = field(default_factory=list)
    sigma_r: list = field(default_factory=list)
    angles_s: list = field(default_factory=list)
    angles_r: list = field(default_factory=list)
    termination: str = ""
    final_s: np.ndarray | None = None
    final_r: np.ndarray | None = None

    def to_csv(self, path_or_file):
        """Write one row per step: step index, the n retained singular
        values of the S side, and the (larger of the two) subspace angle.

        Raises BadParameters, before anything is written, for a run that
        kept no angle trace.
        """
        if min(len(self.angles_s), len(self.angles_r)) < self.steps_taken:
            raise BadParameters("the diagnostics hold no angle trace: the run "
                                "was made with angle_trace=False")
        with text_output(path_or_file) as f:
            n = len(self.sigma_s[0]) if self.sigma_s else 0
            header = ",".join(["step"] + [f"sigma_{k + 1}" for k in range(n)] + ["angle"])
            f.write(header + "\n")
            for i in range(self.steps_taken):
                row = np.asarray(self.sigma_s[i], dtype=float).tolist()
                sigma = ",".join(map(repr, row))
                angle = float(max(self.angles_s[i], self.angles_r[i]))
                f.write(f"{i + 1},{sigma},{angle!r}\n")


def default_step_count(dsos):
    """Worst-case step budget: three times the first-order dimension 2N."""
    return 3 * 2 * dsos.order


def _require_discrete(dsos):
    if not dsos.is_discrete:
        raise DomainMismatch("the subspace recursion runs on difference systems")


def _checked_iterate(dsos, z):
    """C-ordered float64 copy of the stacked iterate `z`; raises
    DimensionMismatch unless `z` is a matrix with 2N rows and at most N
    columns."""
    z = np.array(z, dtype=float, order="C")
    if z.ndim != 2 or z.shape[0] != 2 * dsos.order or z.shape[1] > dsos.order:
        raise DimensionMismatch(
            f"iterate must be 2N-by-n with n <= N = {dsos.order}, got shape "
            f"{z.shape}"
        )
    return z


def _update_matrix(z, block):
    """Update matrix for the stacked iterate `z`, 2N-by-(n+k): zero but
    for the constant N-by-k `block` in its bottom right corner.  A step
    writes its first n columns."""
    N, n = z.shape[0] // 2, z.shape[1]
    m = np.zeros((2 * N, n + block.shape[1]))
    m[N:, n:] = block
    return m


def _write_controllability(dsos, z_s, m1):
    """Write ``A @ z_s`` into the first n columns of ``m1``: ``curr`` on
    top, ``-M^{-1}(K prev + D curr)`` below; for sparse storage
    ``K prev + D curr`` is one product of the stored ``[K D]`` with
    ``z_s``."""
    N, n = dsos.order, z_s.shape[1]
    m1[:N, :n] = z_s[N:]
    np.negative(dsos.solve_mass(dsos._stiffness_damping(z_s)),
                out=m1[N:, :n])


def _write_observability(dsos, z_r, m2):
    """Write ``A^T @ z_r`` into the first n columns of ``m2``:
    ``-K^T M^{-T} curr`` on top, ``prev - D^T M^{-T} curr`` below; for
    sparse storage both blocks come from one product of the stored
    ``[K D]^T`` with ``M^{-T} curr``."""
    N, n = dsos.order, z_r.shape[1]
    kd_t = dsos._stiffness_damping_t(dsos.solve_mass_t(z_r[N:]))
    np.negative(kd_t[:N], out=m2[:N, :n])
    np.subtract(z_r[:N], kd_t[N:], out=m2[N:, :n])


class _Workspace:
    """The arrays one recursion run writes in place, allocated once.

    ``z_s`` and ``z_r`` are the stacked 2N-by-n iterates ``[prev; curr]``
    of the two sides, C-ordered float64 arrays that the workspace owns and
    overwrites at each step.  ``m1`` and ``m2`` are the controllability
    and observability update matrices, 2N-by-(n+m) and 2N-by-(n+p); their
    input and output columns ``[0; M^{-1} F]`` and ``[0; G^T]`` are
    written here once, and each step writes only their first n columns.
    """

    __slots__ = ("dsos", "z_s", "z_r", "m1", "m2")

    def __init__(self, dsos, z_s, z_r):
        self.dsos, self.z_s, self.z_r = dsos, z_s, z_r
        self.m1 = _update_matrix(z_s, dsos._mass_input)
        self.m2 = _update_matrix(z_r, dsos.G.T)

    def step(self, hankel, stacklevel):
        """Advance both iterates one step in place: assemble both update
        matrices, truncate them to the iterates' width n (two SVDs, or with
        ``hankel`` one SVD of their cross product) and multiply each by its
        n retained right (``hankel``: right and left) singular vectors.
        Returns the retained singular values of the S and R sides.  A
        RankCollapseWarning points `stacklevel` frames above this one.

        Runs under the caller's ``np.errstate(over="ignore",
        invalid="ignore")``: a diverging iterate is reported as
        NonFiniteIterate, not as floating-point warnings.
        """
        z_s, z_r, m1, m2 = self.z_s, self.z_r, self.m1, self.m2
        n = z_s.shape[1]
        _write_controllability(self.dsos, z_s, m1)
        _write_observability(self.dsos, z_r, m2)
        if hankel:
            u, s, vt = _svd(m2.T @ m1)
            if s[0] == 0.0 or s[min(n, len(s)) - 1] / s[0] < 1e-14:
                warnings.warn(
                    "cross-product singular values span more than 14 decades; "
                    "trailing subspace directions are numerically meaningless",
                    RankCollapseWarning,
                    stacklevel=stacklevel + 1,
                )
            sigma_s, sigma_r, v_s, v_r = s, s, vt[:n].T, u[:, :n]
        else:
            _, sigma_s, vst = _svd(m1, left=False)
            _, sigma_r, vrt = _svd(m2, left=False)
            v_s, v_r = vst[:n].T, vrt[:n].T
        np.matmul(m1, v_s, out=z_s)
        np.matmul(m2, v_r, out=z_r)
        _require_finite(z_s, z_r)
        return sigma_s[:n].copy(), sigma_r[:n].copy()


def assemble_controllability(dsos, S):
    """Controllability update matrix ``[A @ S | B]`` of the stacked 2N-by-n
    iterate ``S = [prev; curr]``, assembled blockwise from the quintuplet,
    shape 2N-by-(n+m).

    The top N rows are ``[curr | 0]``; the bottom rows are
    ``[-M^{-1}(K prev + D curr) | M^{-1} F]``; for sparse storage
    ``K prev + D curr`` is one product of the stored ``[K D]`` with ``S``.
    This is the assembly a recursion step writes into its workspace.
    """
    _require_discrete(dsos)
    z_s = _checked_iterate(dsos, S)
    m1 = _update_matrix(z_s, dsos._mass_input)
    _write_controllability(dsos, z_s, m1)
    return m1


def assemble_observability(dsos, R):
    """Observability update matrix ``[A^T @ R | C^T]`` of the stacked
    2N-by-n iterate ``R = [prev; curr]``, assembled blockwise from the
    quintuplet, shape 2N-by-(n+p).

    The top N rows are ``[-K^T M^{-T} curr | 0]``; the bottom rows are
    ``[prev - D^T M^{-T} curr | G^T]``; for sparse storage the ``K^T`` and
    ``D^T`` blocks come from one product of the stored ``[K D]^T`` with
    ``M^{-T} curr``.  This is the assembly a recursion step writes into
    its workspace.
    """
    _require_discrete(dsos)
    z_r = _checked_iterate(dsos, R)
    m2 = _update_matrix(z_r, dsos.G.T)
    _write_observability(dsos, z_r, m2)
    return m2


def _require_finite(*arrays):
    for a in arrays:
        if not np.isfinite(a).all():
            raise NonFiniteIterate(
                "subspace iterate diverged to NaN/Inf; the difference system "
                "is most likely unstable (check the discretization step size)"
            )


def _svd(mat, left=True):
    """Thin SVD ``(u, s, vt)`` of a finite matrix, each singular vector
    pair's sign fixed.

    With ``left`` false, ``u`` is None, and a matrix with more rows than
    columns is first reduced to the R factor of its Householder QR:
    ``mat = QR`` has the singular values and right singular vectors of
    ``R``, and the tall U is never formed.  The reflectors of a finite
    matrix near the overflow threshold can overflow; a non-finite ``R``
    raises NonFiniteIterate, as the matrix itself would.
    """
    _require_finite(mat)
    try:
        if left or mat.shape[0] <= mat.shape[1]:
            u, s, vt = _gesdd(mat, compute_uv=True)
        else:
            r = _householder(mat)[2]
            _require_finite(r)
            u, s, vt = _gesdd(r, compute_uv=True)
    except np.linalg.LinAlgError as exc:
        raise SvdFailure(f"SVD did not converge on a {mat.shape} matrix") from exc
    # Fix each right singular vector's sign by its largest-magnitude entry
    # (the first on ties) so that runs are comparable across algebraically
    # equivalent assembly orders; the matching left vector flips with it.
    flip = vt[np.arange(len(s)), np.abs(vt).argmax(axis=1)] < 0.0
    np.negative(vt, out=vt, where=flip[:, None])
    if not left:
        return None, s, vt
    np.negative(u, out=u, where=flip)
    return u, s, vt


def _public_step(dsos, S, R, hankel):
    """One recursion step on a fresh workspace holding copies of the
    iterates; a RankCollapseWarning points at the caller of the public
    step function."""
    _require_discrete(dsos)
    z_s, z_r = _checked_iterate(dsos, S), _checked_iterate(dsos, R)
    if z_s.shape[1] != z_r.shape[1]:
        raise DimensionMismatch("S and R iterates must have the same width")
    ws = _Workspace(dsos, z_s, z_r)
    with np.errstate(over="ignore", invalid="ignore"):
        sigma_s, sigma_r = ws.step(hankel, stacklevel=3)
    return ws.z_s, ws.z_r, sigma_s, sigma_r


def srlrg_step(dsos, S, R):
    """One step of the recursive low-rank Gramian iteration.

    Truncates the controllability and observability update matrices with
    two independent SVDs and maps both stacked 2N-by-n iterates
    ``S = [prev; curr]`` and ``R = [prev; curr]`` forward:

    * S side: ``prev' = curr @ V1``,
      ``curr' = -M^{-1}(K prev + D curr) @ V1 + M^{-1} F @ V2``
    * R side: ``prev' = -K^T M^{-T} curr @ W1``,
      ``curr' = (prev - D^T M^{-T} curr) @ W1 + G^T @ W2``

    where ``[V1; V2]`` (resp. ``[W1; W2]``) are the first n right singular
    vectors of the controllability (resp. observability) update matrix.

    This is one step of :func:`run_recursion`'s loop on a workspace of its
    own, so a chain of calls from the same iterates reproduces a run bit
    for bit.  The inputs are copied, not modified; any array-like with 2N
    rows and at most N columns is accepted, and S and R must have the same
    width.

    Returns
    -------
    (ndarray, ndarray, ndarray, ndarray)
        Updated S and R iterates, 2N-by-n, and the n retained singular
        values ``sigma_s`` and ``sigma_r`` that drive the S and R sides.
    """
    return _public_step(dsos, S, R, hankel=False)


def srlrh_step(dsos, S, R):
    """One step of the recursive low-rank Hankel iteration.

    Computes the single SVD of the (n+p)-by-(n+m) cross product of the
    observability and controllability update matrices; the right singular
    vectors update S and the left ones update R, with the same split and
    return value as :func:`srlrg_step` (``sigma_s`` and ``sigma_r`` are
    both the retained cross-product singular values), and like it on a
    workspace of its own.
    """
    return _public_step(dsos, S, R, hankel=True)


def _orthonormal(rng, N, n):
    q, _ = np.linalg.qr(rng.standard_normal((N, n)))
    return q


_GESDD, _GEQRF, _ORGQR, _SYEVD = scipy.linalg.get_lapack_funcs(
    ("gesdd", "geqrf", "orgqr", "syevd"), dtype=np.float64)

_EPS = np.finfo(float).eps


@functools.lru_cache(maxsize=64)
def _upper(rows, cols):
    """Read-only mask of the upper triangle of a rows-by-cols matrix."""
    mask = np.triu(np.ones((rows, cols), dtype=bool))
    mask.setflags(write=False)
    return mask


def _householder(a):
    """LAPACK ``geqrf`` of `a`: the packed factor, its reflector scales and
    the R factor (``a = QR``), square for a tall `a`."""
    qr, tau, _, info = _GEQRF(a)
    if info != 0:
        raise np.linalg.LinAlgError(f"geqrf failed ({info})")
    r = qr[:a.shape[1]]
    return qr, tau, np.where(_upper(*r.shape), r, 0.0)


def _gesdd(a, compute_uv):
    """Thin singular value decomposition ``(u, s, vt)`` of a real matrix,
    or with ``compute_uv`` false its singular values alone.

    Calls LAPACK ``gesdd`` with the arguments that
    ``scipy.linalg.svd(a, full_matrices=False)`` and
    ``scipy.linalg.svdvals`` pass it, but with the wrapper's default
    workspace and without their per-call validation.  Raises LinAlgError
    when gesdd fails.
    """
    m, n = a.shape
    if a.size == 0:
        s = np.empty(0)
        return (np.empty((m, 0)), s, np.empty((0, n))) if compute_uv else s
    u, s, vt, info = _GESDD(a, compute_uv=compute_uv,
                            full_matrices=not compute_uv)
    if info != 0:
        raise np.linalg.LinAlgError(f"gesdd failed ({info})")
    return (u, s, vt) if compute_uv else s


def _rank(s, shape):
    """Numerical rank of a matrix of `shape` with descending singular
    values `s`: the cut of ``scipy.linalg.orth``."""
    if not s.size:
        return 0
    return int(np.count_nonzero(s > s[0] * _EPS * max(shape)))


def _orth(a):
    """Orthonormal basis of the range of `a`, or None if LAPACK fails.

    The rank is cut as ``scipy.linalg.orth`` cuts it, from the singular
    values of the R factor of `a`.  At full column rank the basis is the Q
    factor; otherwise it is the basis ``scipy.linalg.orth`` returns (step 1
    of ``scipy.linalg.subspace_angles``).
    """
    try:
        if a.size:  # geqrf rejects a matrix without rows
            qr, tau, r = _householder(a)
            if _rank(_gesdd(r, compute_uv=False), a.shape) == a.shape[1]:
                q, _, info = _ORGQR(qr, tau)
                if info != 0:
                    raise np.linalg.LinAlgError(f"orgqr failed ({info})")
                return q
        u, s, _ = _gesdd(a, compute_uv=True)
    except np.linalg.LinAlgError:
        return None
    return u[:, :_rank(s, a.shape)]


def _max_principal_angle(qa, qb):
    """Largest principal angle between the ranges of two :func:`_orth`
    bases, within ``max(1e-12 * angle, 1e-15)`` of
    ``np.max(scipy.linalg.subspace_angles(a, b))`` wherever scipy's value
    is itself that accurate.  (It is not for a true angle of 0, where
    scipy reads the orthogonality error of its basis, up to ~2e-15 for
    tall ones, nor above 45 degrees when another angle is below 45, where
    scipy's arcsin of a sine near 1 resolves the angle to eps / cos.)

    The sines of the angles are the singular values of the residual of the
    narrower basis after projection onto the wider one (scipy's step 3),
    here the square roots of the eigenvalues of that residual's small Gram
    matrix.  Up to 45 degrees the largest angle is the arcsin of the largest
    sine, which resolves tiny angles where the arccos of overlap singular
    values floors near 1e-8.  Above it, scipy's steps 4-5 pair those sines
    with the arccos of the overlap singular values.
    """
    if qa is None or qb is None:
        return np.pi / 2
    if min(qa.shape[1], qb.shape[1]) == 0:
        return 0.0
    try:
        cross = qa.T @ qb
        if qa.shape[1] >= qb.shape[1]:
            resid = qb - qa @ cross
        else:
            resid = qa - qb @ cross.T
        eig, _, info = _SYEVD(resid.T @ resid, compute_v=0)
        if info != 0:
            raise np.linalg.LinAlgError(f"syevd failed ({info})")
        top = eig[-1]
        if top <= 0.5:
            return float(np.arcsin(np.sqrt(top))) if top > 0.0 else 0.0
        sines = np.sqrt(np.clip(eig[::-1], 0.0, 1.0))
        sigma = _gesdd(cross, compute_uv=False)
        angles = np.where(sigma ** 2 >= 0.5, np.arcsin(sines),
                          np.arccos(np.clip(sigma[::-1], -1.0, 1.0)))
    except np.linalg.LinAlgError:
        return np.pi / 2
    return float(np.max(angles))


def run_recursion(dsos, config, algorithm="srlrg", *, angle_trace=True):
    """Run a full subspace recursion and return the final subspaces.

    Both stacked iterates start as ``[prev; curr]`` of seeded Gaussian
    N-by-n matrices orthonormalized by thin QR, drawn in the order S prev,
    S curr, R prev, R curr.  With a fixed step count the loop runs exactly
    ``tau`` steps (default: three times the first-order dimension).  With
    an angle tolerance it stops once the principal angle between
    consecutive current iterates stays below the tolerance on both sides
    for two steps in a row, and raises MaxStepsExceeded if that never
    happens within ``max_steps``.

    The loop runs on one workspace allocated per run: both update matrices
    and both stacked iterates are written in place, and each step makes the
    calls of :func:`srlrg_step` or :func:`srlrh_step`, in the same order and
    on the same values, so a chain of those calls from the same seeded
    iterates gives the same result bit for bit.  The histories grow by one
    entry per step taken, never sized from the step budget.

    Each step's principal angles cost two orthonormal bases and two angle
    computations.  With ``angle_trace`` false, a fixed-step run skips them:
    it records every singular value, the step count, the termination and the
    final iterates, which are bitwise those of a traced run, but leaves the
    angle lists empty, and its diagnostics refuse ``to_csv``.  An angle-tol
    run computes and records the angles whatever ``angle_trace`` says,
    because its stopping rule needs them.

    Parameters
    ----------
    dsos : SecondOrderSystem
        Difference system (preferably stable; divergence is detected and
        reported as NonFiniteIterate).
    config : RecursionConfig
    algorithm : {"srlrg", "srlrh"}
    angle_trace : bool, keyword-only
        Keep the per-step angle trace of a fixed-step run (default).

    Returns
    -------
    (ndarray, ndarray, RecursionDiagnostics)
        Final N-by-n controllability-side and observability-side subspace
        matrices (the current halves of ``final_s`` and ``final_r``), plus
        the per-step history.
    """
    _require_discrete(dsos)
    if algorithm not in ALGORITHMS:
        raise BadParameters(f"algorithm must be one of {ALGORITHMS}, got {algorithm!r}")
    if config.n > dsos.order:
        raise BadParameters(
            f"reduced half-order {config.n} exceeds system order {dsos.order}"
        )
    hankel = algorithm == "srlrh"

    N, n = dsos.order, config.n
    rng = np.random.default_rng(config.seed)
    ws = _Workspace(dsos, *[np.vstack([_orthonormal(rng, N, n),
                                       _orthonormal(rng, N, n)])
                            for _ in range(2)])
    curr_s, curr_r = ws.z_s[N:], ws.z_r[N:]  # views of the in-place iterates

    angle_tol = config.angle_tol
    angle_mode = angle_tol is not None
    trace = angle_trace or angle_mode
    limit = (config.max_steps if angle_mode else config.tau) or default_step_count(dsos)

    diag = RecursionDiagnostics()
    sigmas_s, sigmas_r = diag.sigma_s, diag.sigma_r
    angles_s, angles_r = diag.angles_s, diag.angles_r
    below_tol_streak = 0
    # Each iterate's basis is computed once and reused on the next step.
    basis_s, basis_r = (_orth(curr_s), _orth(curr_r)) if trace else (None, None)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(limit):
            sigma_s, sigma_r = ws.step(hankel, stacklevel=2)
            sigmas_s.append(sigma_s)
            sigmas_r.append(sigma_r)
            if not trace:
                continue
            new_basis_s, new_basis_r = _orth(curr_s), _orth(curr_r)
            angle_s = _max_principal_angle(basis_s, new_basis_s)
            angle_r = _max_principal_angle(basis_r, new_basis_r)
            angles_s.append(angle_s)
            angles_r.append(angle_r)
            basis_s, basis_r = new_basis_s, new_basis_r
            if angle_mode:
                if angle_s < angle_tol and angle_r < angle_tol:
                    below_tol_streak += 1
                else:
                    below_tol_streak = 0
                if below_tol_streak >= 2:
                    diag.termination = "angle-converged"
                    break
        else:
            if angle_mode:
                raise MaxStepsExceeded(
                    f"principal angles did not settle below {angle_tol} "
                    f"within {limit} steps"
                )
            diag.termination = "fixed-steps"
    diag.steps_taken = len(sigmas_s)
    diag.final_s, diag.final_r = ws.z_s, ws.z_r
    return curr_s, curr_r, diag
