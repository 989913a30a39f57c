"""Second-order systems, their first-order form, transfer functions and
stability analysis.

A continuous second-order system is the quintuplet ``{M, D, K, F, G}`` of
mass, damping, stiffness, input and output matrices,

    M q''(t) + D q'(t) + K q(t) = F u(t),    y(t) = G q(t),

and the discrete (difference) counterpart advances three consecutive
states,

    M q[i+1] + D q[i] + K q[i-1] = F u[i],   y[i] = G q[i].

Both share one representation: :class:`SecondOrderSystem` with ``h=None``
for the continuous case and a positive step ``h`` for the difference case.
"""

from dataclasses import dataclass, field
import functools
from functools import cached_property
import math
import sys
import warnings

import numpy as np
from scipy.linalg import get_lapack_funcs

from .errors import (
    BadParameters,
    ConditioningWarning,
    DimensionMismatch,
    SingularAtPoint,
    SingularMass,
    ZeroPoint,
    check_real,
)

__all__ = [
    "SecondOrderSystem",
    "FirstOrderSystem",
    "StabilityReport",
    "linearize",
    "transfer",
    "stability_report",
]

# |margin| below this counts as sitting on the stability boundary.
MARGINAL_TOL = 1e-10

# Condition estimate above which a warning is recorded for the mass matrix.
COND_WARN_THRESHOLD = 1e12

# Largest share of nonzero entries of each of M, D and K (of N^2) at which a
# system stores them sparse.
SPARSE_DENSITY = 0.05

# Largest order N up to which consumers that need dense matrices
# (linearize, stability_report, the BT oracle and the spectral fallback of
# discretize) densify sparse storage; above it they raise BadParameters
# instead of allocating O(N^2) memory.
DENSE_ORDER_LIMIT = 2000

# Reciprocal condition below which a polynomial matrix counts as singular
# at the evaluation point.
_RCOND_SINGULAR = 1e-13


def _issparse(a):
    """Whether `a` is a scipy.sparse matrix.  Only a loaded scipy.sparse
    makes one, so the check imports nothing: dense models never load
    scipy.sparse."""
    sparse = sys.modules.get("scipy.sparse")
    return sparse is not None and sparse.issparse(a)


def _as_matrix(a, name):
    """A dense float copy of `a`; a scipy.sparse matrix is densified."""
    if _issparse(a):
        a = a.toarray()
    arr = np.array(a, dtype=float, copy=True, order="C")
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    elif arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    return _checked_matrix(arr, arr, name)


def _as_operator(a, name):
    """A copy of `a` in canonical CSR form (duplicates summed, zeros
    dropped) if it is a scipy.sparse matrix, else as :func:`_as_matrix`."""
    if not _issparse(a):
        return _as_matrix(a, name)
    from scipy.sparse import csr_array

    if a.ndim != 2:
        raise DimensionMismatch(f"{name} must be a matrix, got ndim={a.ndim}")
    csr = csr_array(a, dtype=float, copy=True)
    csr.sum_duplicates()
    csr.eliminate_zeros()
    return _checked_matrix(csr, csr.data, name)


def _checked_matrix(mat, values, name):
    if mat.ndim != 2:
        raise DimensionMismatch(f"{name} must be a matrix, got ndim={mat.ndim}")
    if mat.shape[0] < 1 or mat.shape[1] < 1:
        raise DimensionMismatch(f"{name} must be nonempty, got shape {mat.shape}")
    if not np.all(np.isfinite(values)):
        raise DimensionMismatch(f"{name} contains non-finite entries")
    return mat


def _checked_step(h, error):
    """``h`` as a float, raising BadParameters unless it is a real number
    and ``error`` unless it is a positive finite step."""
    h = check_real(h, "discrete step h")
    if not 0 < h < np.inf:
        raise error(f"discrete step h must be positive and finite, got {h}")
    return h


def _freeze(arr):
    """Make a dense array, or the arrays behind a CSR one, read-only."""
    parts = (arr.data, arr.indices, arr.indptr) if _issparse(arr) else (arr,)
    for part in parts:
        part.setflags(write=False)
    return arr


def _nonzeros(a):
    return a.nnz if _issparse(a) else np.count_nonzero(a)


def _dense(a):
    return a.toarray() if _issparse(a) else a


# Most bytes of dense characteristic matrices that a grid of points builds
# at a time.  The points of one chunk are built and normed together and
# then factored one by one, so a grid never holds more than this (or one
# matrix, if that is larger) of them.
_CHUNK_BYTES = 64 * 1024

# What a failed factor of the mass matrix, and of the characteristic matrix
# at {point}, raises: the error type, and the message templates for a
# matrix with a non-finite entry, one whose factorization breaks down and
# one whose rcond is too small.  (A checked M has no non-finite entry; the
# mass template reads as a breakdown.)
_MASS_FAILURE = SingularMass, {
    "nonfinite": "mass matrix M is singular: LU factorization failed",
    "broken": "mass matrix M is singular: LU factorization failed",
    "singular": "mass matrix M is numerically singular (rcond={rcond})",
}
_POINT_FAILURE = SingularAtPoint, {
    "nonfinite": "characteristic matrix is not finite at point {point}",
    "broken": "characteristic matrix is singular at point {point}",
    "singular": "characteristic matrix is numerically singular at point "
                "{point} (rcond={rcond:.2e})",
}


@functools.cache
def _lapack(dtype):
    """LAPACK ``getrf``, ``gecon`` and ``getrs`` for arrays of `dtype`."""
    return get_lapack_funcs(("getrf", "gecon", "getrs"), dtype=dtype)


def _one_norms(mats):
    """1-norm (largest absolute column sum) of a matrix, or of each matrix
    of a stack, as ``np.linalg.norm(mat, 1)``.  It is not finite exactly
    when a matrix has a non-finite entry or its column sums overflow."""
    return np.abs(mats).sum(axis=-2).max(axis=-1)


class _Factor:
    """Checked LU factor of a square dense ndarray or CSR matrix `mat`: the
    mass matrix, or the characteristic matrix at `point`.

    A dense `mat` is factored by LAPACK ``getrf`` and solved by ``getrs``:
    the results of ``scipy.linalg.lu_factor``/``lu_solve`` without their
    finiteness checks, so non-finite right-hand sides pass through.  Its
    ``rcond`` is the ``gecon`` estimate.  A Fortran-ordered `mat` given with
    its 1-norm `anorm` (of :func:`_one_norms`) is factored in place, any
    other a copy.  A CSR `mat` is factored by SuperLU, and its ``rcond`` is
    ``1 / (||mat||_1 est)``, where ``est`` is the one-column
    ``scipy.sparse.linalg.onenormest`` of ``mat^{-1}`` (the Hager-Higham
    estimator of ``gecon``), applied through the factor's solves; it draws
    no random vectors, so it is the same on every call.

    Raises SingularMass, or SingularAtPoint naming `point`, at the first
    check that fails, in this order: `mat` has a non-finite entry (looked
    for only when its 1-norm is not finite); the factorization meets a zero
    or non-finite pivot, or a CSR `mat` has no nonzeros; ``rcond`` is zero,
    not finite or, at a point, below ``_RCOND_SINGULAR``.
    """

    def __init__(self, mat, point=None, anorm=None):
        self._point = point
        self._sparse = not isinstance(mat, np.ndarray)
        if self._sparse:
            rcond = self._splu(mat)
        else:
            if anorm is None:
                mat, anorm = np.array(mat, order="F"), float(_one_norms(mat))
            getrf, gecon, _ = _lapack(mat.dtype)
            if not math.isfinite(anorm) and not np.isfinite(mat).all():
                raise self._error("nonfinite")
            lu, piv, info = getrf(mat, overwrite_a=True)
            # count_nonzero: a quicker all() on the small matrices of a grid
            if info > 0 or np.count_nonzero(np.isfinite(lu)) < lu.size:
                raise self._error("broken")
            self._lu = lu, piv
            rcond = gecon(lu, anorm)[0]
        rcond_min = 0.0 if point is None else _RCOND_SINGULAR
        if rcond == 0.0 or not math.isfinite(rcond) or rcond < rcond_min:
            raise self._error("singular", rcond)
        self.rcond = rcond

    def _error(self, reason, rcond=None):
        error, messages = (_MASS_FAILURE if self._point is None
                           else _POINT_FAILURE)
        return error(messages[reason].format(point=self._point, rcond=rcond))

    def _splu(self, mat):
        """``rcond`` of a CSR `mat`, whose SuperLU factor it keeps."""
        # Imported here so that dense models never load scipy.sparse.linalg.
        from scipy.sparse.linalg import LinearOperator, norm, onenormest, splu

        with np.errstate(over="ignore"):
            anorm = norm(mat, 1)
        if not math.isfinite(anorm) and not np.isfinite(mat.data).all():
            raise self._error("nonfinite")
        if mat.nnz == 0:
            raise self._error("broken")
        try:
            self._lu = lu = splu(mat.tocsc())
        except RuntimeError:
            raise self._error("broken") from None
        self._mat = mat
        inverse = LinearOperator(
            mat.shape, dtype=mat.dtype, matvec=lu.solve,
            rmatvec=lambda x: lu.solve(x, trans="H"))
        with np.errstate(over="ignore", invalid="ignore"):
            return 1.0 / (anorm * onenormest(inverse, t=1))

    @cached_property
    def _lu_t(self):
        """SuperLU factor of ``mat^T``, built on the first transposed solve:
        SuperLU solves a transposed system one right-hand side at a time,
        and a plain solve all of them at once."""
        from scipy.sparse.linalg import splu

        return splu(self._mat.T.tocsc(copy=True))

    def solve(self, rhs, trans=False):
        """``mat^{-1} rhs``, or ``mat^{-T} rhs`` when `trans` is set.  A real
        SuperLU factor solves a complex `rhs` as its real and imaginary
        parts."""
        if not self._sparse:
            lu, piv = self._lu
            getrs = _lapack(np.promote_types(lu.dtype, rhs.dtype))[2]
            return getrs(lu, piv, rhs, trans=int(trans))[0]
        lu = self._lu_t if trans else self._lu
        if not np.iscomplexobj(rhs) or np.iscomplexobj(self._mat.data):
            return lu.solve(rhs)
        x = lu.solve(rhs.real).astype(complex)
        x.imag = lu.solve(rhs.imag)
        return x


def _solve_grid(system, points):
    """Transfer matrices of `system` at `points`, a sequence of points as
    the caller gave them, as a ``(P, p, m)`` complex stack.

    Dense storage builds the characteristic matrices of at most
    ``_CHUNK_BYTES`` of points at a time with the expression of
    ``characteristic`` and takes their 1-norms at once; CSR storage builds
    each point's matrix alone.  Either way one :class:`_Factor` per point
    factors, checks and solves it.  Every point must be nonzero for a
    difference system.  Raises SingularAtPoint, naming the point as given,
    at the first point in order whose matrix is not finite or is
    (numerically) singular.
    """
    if isinstance(system, SecondOrderSystem):
        rhs, out, sparse = system.F, system.G, system.is_sparse
    else:
        rhs, out, sparse = system.B, system.C, False
    stack = np.empty((len(points), out.shape[0], rhs.shape[1]), complex)
    if sparse:
        for k, point in enumerate(points):
            stack[k] = out @ _Factor(system.characteristic(point),
                                     point).solve(rhs)
        return stack
    n = system.order
    per_chunk = max(1, _CHUNK_BYTES // (16 * n * n))
    size = min(per_chunk, len(points))
    # The matrices are built in C order, which is fastest, and factored in
    # place in a Fortran-ordered copy.  The solves are Fortran-ordered, as
    # getrs returns them, so that one product per chunk gives the bits of
    # one product per point.
    lus = np.empty((size, n, n), complex).transpose(0, 2, 1)
    solves = np.empty((size, rhs.shape[1], n), complex).transpose(0, 2, 1)
    rhs = np.asfortranarray(rhs, dtype=complex)
    out = out.astype(complex)
    zs = np.asarray(points, dtype=complex)[:, None, None]
    for start in range(0, len(points), per_chunk):
        stop = min(start + per_chunk, len(points))
        mats = system._characteristics(zs[start:stop])
        lus[:stop - start] = mats
        anorms = _one_norms(mats).tolist()
        del mats  # not to be held while the next chunk is built
        for k, anorm in enumerate(anorms):
            solves[k] = _Factor(lus[k], points[start + k], anorm).solve(rhs)
        np.matmul(out, solves[:stop - start], out=stack[start:stop])
    return stack


def _point_list(points):
    """`points` as a sequence, and whether it was a single point."""
    if np.ndim(points) == 0:
        return [points], True
    points = np.asarray(points)
    if points.ndim != 1:
        raise DimensionMismatch(
            f"points must be one point or a 1-D array, got ndim={points.ndim}")
    return points, False


class SecondOrderSystem:
    """Quintuplet {M, D, K, F, G} with a continuous/discrete domain tag.

    Parameters
    ----------
    M, D, K : (N, N) array_like or scipy.sparse matrix
        Mass, damping and stiffness matrices.  M must be invertible.
    F : (N, m) array_like
        Input map.
    G : (p, N) array_like
        Output map.
    h : float or None, optional
        ``None`` (default) marks a continuous system; a positive step size
        marks a difference system.

    Notes
    -----
    Instances are immutable: the stored arrays are read-only copies, and
    the factorization of M is computed once at construction.  They are
    therefore safe to share across concurrent readers.

    :meth:`transfer` keeps the transfer matrix of every distinct point it
    has solved, one ``p x m`` complex matrix each, for the life of the
    instance, so that sampling the same grid again costs no solves.  A
    CLI command builds its systems afresh and drops them when it ends.

    **Storage.**  ``F`` and ``G`` are dense.  ``M``, ``D`` and ``K`` share
    one storage kind, decided here whatever type they arrive as: when each
    has at most ``SPARSE_DENSITY`` (5 %) of ``N^2`` nonzero entries, as for
    a long mass-spring-damper chain, they are stored as canonical
    ``scipy.sparse.csr_array`` matrices (duplicates summed, zeros dropped)
    whose ``data``, ``indices`` and ``indptr`` are read-only (:attr:`is_sparse`).
    Otherwise they are dense ndarrays.  Sparse storage has a SuperLU factor
    of ``M`` and, from the first :meth:`solve_mass_t`, one of ``M^T``;
    dense storage an LU factor.  The subspace recursion,
    :meth:`solve_mass`, :meth:`apply_a`, :meth:`apply_at`,
    :meth:`transfer`, ``discretize``, ``reduce_model``
    and ``verify_structure_conditions`` work on either without densifying,
    so a sparse model costs memory in proportion to its nonzeros.
    ``linearize``, ``stability_report`` and the BT oracle need dense
    matrices: they densify sparse storage up to ``DENSE_ORDER_LIMIT``
    (N = 2000) and raise BadParameters above it.
    ``scipy.sparse`` is imported only when a sparse matrix is given, and
    ``scipy.sparse.linalg`` only when a system is stored sparse.
    """

    def __init__(self, M, D, K, F, G, h=None):
        M = _as_operator(M, "M")
        D = _as_operator(D, "D")
        K = _as_operator(K, "K")
        F = _as_matrix(F, "F")
        G = _as_matrix(G, "G")

        N = M.shape[0]
        if M.shape != (N, N):
            raise DimensionMismatch(f"M must be square, got {M.shape}")
        for name, mat in (("D", D), ("K", K)):
            if mat.shape != (N, N):
                raise DimensionMismatch(
                    f"{name} must be {N}x{N} to match M, got {mat.shape}"
                )
        if F.shape[0] != N:
            raise DimensionMismatch(f"F must have {N} rows, got {F.shape}")
        if G.shape[1] != N:
            raise DimensionMismatch(f"G must have {N} columns, got {G.shape}")

        if h is not None:
            h = _checked_step(h, DimensionMismatch)

        if all(_nonzeros(a) <= SPARSE_DENSITY * N * N for a in (M, D, K)):
            from scipy.sparse import csr_array as convert
        else:
            convert = _dense
        self.M = _freeze(convert(M))
        self.D = _freeze(convert(D))
        self.K = _freeze(convert(K))
        self.F = _freeze(F)
        self.G = _freeze(G)
        self.h = h
        self._mass_factor = _Factor(self.M)
        self.mass_condition = 1.0 / self._mass_factor.rcond
        if self.mass_condition > COND_WARN_THRESHOLD:
            warnings.warn(
                f"mass matrix M has condition estimate {self.mass_condition:.2e}; "
                "results may be inaccurate",
                ConditioningWarning,
                stacklevel=2,
            )

    # -- basic shape/domain queries --------------------------------------

    @property
    def order(self):
        """Number of second-order states N."""
        return self.M.shape[0]

    @property
    def n_inputs(self):
        return self.F.shape[1]

    @property
    def n_outputs(self):
        return self.G.shape[0]

    @property
    def is_discrete(self):
        return self.h is not None

    @property
    def is_continuous(self):
        return self.h is None

    @property
    def is_sparse(self):
        """True when M, D and K are stored as CSR matrices."""
        return not isinstance(self.M, np.ndarray)

    def __repr__(self):
        dom = f"discrete, h={self.h}" if self.is_discrete else "continuous"
        return (
            f"SecondOrderSystem(N={self.order}, m={self.n_inputs}, "
            f"p={self.n_outputs}, {dom})"
        )

    # -- mass solves (cached factor) -------------------------------------

    def solve_mass(self, rhs):
        """Return M^{-1} @ rhs using the cached factorization.

        Non-finite right-hand sides pass through as non-finite results so
        that iteration divergence can be diagnosed by the caller.
        """
        return self._mass_factor.solve(rhs)

    def solve_mass_t(self, rhs):
        """Return M^{-T} @ rhs using the cached factorization."""
        return self._mass_factor.solve(rhs, trans=True)

    # -- the first-order operator ------------------------------------------

    def apply_a(self, z, out):
        """Write ``A @ z`` into `out` and return `out`, where ``A`` is the
        first-order matrix of :func:`linearize` and `z` = ``[prev; curr]``
        has 2N rows: ``curr`` on top, ``-M^{-1}(K prev + D curr)`` below.
        Sparse storage forms ``K prev + D curr`` as one product of the
        stored ``[K D]`` with `z`, dense storage as two products.  `out`
        may be a view, such as columns of a wider buffer; `z` is only
        read."""
        N = self.order
        out[:N] = z[N:]
        kd = (self._KD @ z if self.is_sparse
              else self.K @ z[:N] + self.D @ z[N:])
        np.negative(self.solve_mass(kd), out=out[N:])
        return out

    def apply_at(self, z, out):
        """Write ``A^T @ z`` into `out` and return `out`, for a 2N-row `z` =
        ``[prev; curr]``: ``-K^T M^{-T} curr`` on top, ``prev - D^T M^{-T}
        curr`` below.  Sparse storage takes both blocks from one product of
        the stored ``[K D]^T`` with ``M^{-T} curr``, dense storage from two
        products.  `out` may be a view; `z` is only read."""
        N = self.order
        y = self.solve_mass_t(z[N:])
        if self.is_sparse:
            kd_t = self._KDt @ y
            k_t, d_t = kd_t[:N], kd_t[N:]
        else:
            k_t, d_t = self.K.T @ y, self.D.T @ y
        np.negative(k_t, out=out[:N])
        np.subtract(z[:N], d_t, out=out[N:])
        return out

    @cached_property
    def _KD(self):
        """Read-only CSR ``[K D]`` of sparse storage, N-by-2N."""
        from scipy.sparse import hstack

        return _freeze(hstack([self.K, self.D], format="csr"))

    @cached_property
    def _KDt(self):
        """Read-only CSR ``[K D]^T`` of sparse storage, built once."""
        return _freeze(self._KD.T.tocsr())

    @cached_property
    def _mass_input(self):
        """Read-only ``M^{-1} F``, solved once for every recursion step and
        the ``B`` of :func:`linearize`."""
        return _freeze(self.solve_mass(self.F))

    # -- transfer function -------------------------------------------------

    def characteristic(self, point):
        """Evaluate the characteristic polynomial matrix at a complex point.

        Continuous systems use ``P(s) = M s^2 + D s + K``; difference
        systems use ``P(z) = M z + D + K z^{-1}``.  The result is stored as
        M, D and K are: a complex ndarray or CSR matrix.
        """
        pt = complex(point)
        if self.is_discrete and pt == 0:
            raise ZeroPoint("discrete characteristic matrix is undefined at z = 0")
        return self._characteristics(pt)

    def _characteristics(self, z):
        """``characteristic`` at a nonzero complex scalar `z`, or at each
        nonzero point of a ``(k, 1, 1)`` complex array `z` as a C-ordered
        ``(k, N, N)`` stack (dense storage only), with the same bits.  The
        sums are in place, so as to hold few temporaries, and each product
        has a fresh output: numpy's complex products may round differently
        in place."""
        if self.is_continuous:
            P = self.M * z * z
            P += self.D * z
            P += self.K
        else:
            P = self.M * z
            P += self.D
            P += self.K / z
        return P

    def transfer(self, points):
        """Transfer matrices ``G P(.)^{-1} F`` at complex points.

        One point gives its ``p x m`` matrix, and a 1-D array of ``P``
        points a ``(P, p, m)`` stack; both take the same path.  Each
        distinct point is solved once per instance (see
        :func:`_solve_grid`), and a repeated point returns a fresh copy of
        the stored matrix.

        Raises
        ------
        SingularAtPoint
            At the first point that is (numerically) a characteristic
            frequency.
        ZeroPoint
            For z = 0 on a difference system, when no earlier point fails.
        """
        points, single = _point_list(points)
        keys = [complex(point) for point in points]
        memo = self._transfers
        todo = {}
        for key, point in zip(keys, points):
            if key not in memo:
                todo.setdefault(key, point)
        if todo:
            missing = list(todo.values())
            if self.is_discrete and 0 in todo:
                missing = missing[:list(todo).index(0)]
            memo.update(zip(todo, _solve_grid(self, missing)))
            if len(missing) < len(todo):
                raise ZeroPoint("discrete characteristic matrix is undefined at z = 0")
        stack = np.array([memo[key] for key in keys], dtype=complex).reshape(
            len(keys), self.n_outputs, self.n_inputs)
        return stack[0] if single else stack

    @cached_property
    def _transfers(self):
        """Transfer matrices solved so far, keyed by ``complex(point)``."""
        return {}


@dataclass(frozen=True)
class FirstOrderSystem:
    """Standardized state-space form ``x' = A x + B u, y = C x`` (or the
    difference analogue ``x[i+1] = A x[i] + B u[i]``)."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    h: float | None = None

    def __post_init__(self):
        A = _as_matrix(self.A, "A")
        B = _as_matrix(self.B, "B")
        C = _as_matrix(self.C, "C")
        n = A.shape[0]
        if A.shape != (n, n):
            raise DimensionMismatch(f"A must be square, got {A.shape}")
        if B.shape[0] != n:
            raise DimensionMismatch(f"B must have {n} rows, got {B.shape}")
        if C.shape[1] != n:
            raise DimensionMismatch(f"C must have {n} columns, got {C.shape}")
        object.__setattr__(self, "A", _freeze(A))
        object.__setattr__(self, "B", _freeze(B))
        object.__setattr__(self, "C", _freeze(C))
        if self.h is not None:
            object.__setattr__(self, "h", _checked_step(self.h, DimensionMismatch))

    @property
    def order(self):
        return self.A.shape[0]

    @property
    def n_inputs(self):
        return self.B.shape[1]

    @property
    def n_outputs(self):
        return self.C.shape[0]

    @property
    def is_discrete(self):
        return self.h is not None

    @property
    def is_continuous(self):
        return self.h is None

    def _characteristics(self, z):
        """``z[k] I - A`` for each point of the ``(k, 1, 1)`` complex array
        `z`, as a C-ordered stack."""
        P = z * np.eye(self.order, dtype=complex)
        P -= self.A
        return P

    def transfer(self, points):
        """Transfer matrices ``C (pt I - A)^{-1} B``: a ``p x m`` matrix at
        one point, a ``(P, p, m)`` stack at a 1-D array of points.  Raises
        SingularAtPoint at the first point that is (numerically) an
        eigenvalue of ``A``."""
        points, single = _point_list(points)
        stack = _solve_grid(self, points)
        return stack[0] if single else stack


def linearize(sos):
    """First-order form of a second-order system.

    For a continuous system with state ``x = [q; q']``:

        A = [[0, I], [-M^{-1}K, -M^{-1}D]],  B = [[0], [M^{-1}F]],
        C = [G, 0].

    For a difference system the natural state is the pair of consecutive
    positions ``x[i] = [q[i-1]; q[i]]``, which gives the same A and B (with
    the difference matrices) but ``C = [0, G]``, so that the first-order
    transfer function matches ``G P(z)^{-1} F`` exactly.

    Parameters
    ----------
    sos : SecondOrderSystem

    Returns
    -------
    FirstOrderSystem
        Standardized (identity-E) form of order 2N, same domain tag.

    Raises
    ------
    BadParameters
        For a sparse system above ``DENSE_ORDER_LIMIT``.
    """
    N = sos.order
    if sos.is_sparse and N > DENSE_ORDER_LIMIT:
        raise BadParameters(
            "linearize needs dense matrices, and a sparse model of order "
            f"N={N} is above DENSE_ORDER_LIMIT={DENSE_ORDER_LIMIT}")
    A = np.zeros((2 * N, 2 * N))
    A[:N, N:] = np.eye(N)
    A[N:, :N] = -sos.solve_mass(_dense(sos.K))
    A[N:, N:] = -sos.solve_mass(_dense(sos.D))

    B = np.zeros((2 * N, sos.n_inputs))
    B[N:] = sos._mass_input

    C = np.zeros((sos.n_outputs, 2 * N))
    if sos.is_continuous:
        C[:, :N] = sos.G
    else:
        C[:, N:] = sos.G
    return FirstOrderSystem(A, B, C, h=sos.h)


def transfer(sys, points):
    """Transfer matrix of a second- or first-order system at one point, or
    their ``(P, p, m)`` stack at a 1-D array of points."""
    return sys.transfer(points)


@dataclass(frozen=True)
class StabilityReport:
    """Spectrum-based stability summary.

    ``margin`` is ``-max Re(lambda)`` for continuous systems and
    ``1 - max |lambda|`` for discrete ones.  Eigenvalues within
    ``MARGINAL_TOL`` of the boundary are flagged marginal and count as
    unstable.
    """

    is_stable: bool
    margin: float
    marginal: bool
    spectrum: np.ndarray = field(repr=False)


def stability_report(sys):
    """Compute the characteristic spectrum and a stability verdict.

    Parameters
    ----------
    sys : SecondOrderSystem or FirstOrderSystem
        Second-order systems are analyzed through their standardized
        linearization (2N eigenvalues), so a sparse one above
        ``DENSE_ORDER_LIMIT`` raises BadParameters.

    Returns
    -------
    StabilityReport
    """
    if isinstance(sys, SecondOrderSystem):
        A = linearize(sys).A
    else:
        A = sys.A
    eig = np.linalg.eigvals(A)
    eig = eig[np.lexsort((eig.imag, eig.real))]
    if sys.is_continuous:
        margin = float(-np.max(eig.real)) if eig.size else np.inf
    else:
        margin = float(1.0 - np.max(np.abs(eig))) if eig.size else 1.0
    marginal = abs(margin) < MARGINAL_TOL
    return StabilityReport(
        is_stable=bool(margin > 0 and not marginal),
        margin=margin,
        marginal=marginal,
        spectrum=eig,
    )
