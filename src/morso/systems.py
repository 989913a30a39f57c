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

import contextlib
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


def _divide(a, c):
    """``a / c`` entry by entry for either storage: scipy divides a sparse
    matrix by a scalar as a product with ``1 / c``, which rounds otherwise."""
    if not _issparse(a):
        return a / c
    from scipy.sparse import csr_array

    return csr_array((a.data / c, a.indices, a.indptr), shape=a.shape)


def _band(a):
    """The tridiagonal band of a square ndarray or CSR matrix `a`, in
    LAPACK's band layout: a ``(3, N)`` array whose row 0 holds the
    super-diagonal in columns 1 to N-1, row 1 the diagonal and row 2 the
    sub-diagonal in columns 0 to N-2, so that column j holds the entries of
    column j of `a` in row order, and zeros elsewhere.  None when `a` has a
    nonzero entry off those three diagonals.  It reads ``diagonal(k)`` and
    a count of nonzeros, so it never densifies a CSR `a`."""
    diagonals = [a.diagonal(k) for k in (1, 0, -1)]
    if sum(map(np.count_nonzero, diagonals)) < _nonzeros(a):
        return None
    band = np.zeros((3, a.shape[0]))
    band[0, 1:], band[1], band[2, :-1] = diagonals
    return band


# Most bytes of characteristic matrices (dense, or tridiagonal bands) that a
# grid of points builds at a time.  The points of one chunk are built and
# normed together and then solved, so a grid never holds more than this (or
# one matrix, if that is larger) of them.
_CHUNK_BYTES = 64 * 1024

# Largest order of a dense characteristic matrix whose grid is solved a
# chunk at a time by one stacked LAPACK call (see :func:`_screened_solves`).
# Above it the stacked inverse costs more than the per-point factors it
# saves: in `compare` of a dense model of order 24, its 1,080 points took
# 43 ms per run factored one by one and 55 ms stacked (about even at 18).
_BATCH_ORDER = 16

# Largest 1-norm of P, and of its computed inverse, that the screen of
# :func:`_screened_solves` clears.  At order at most _BATCH_ORDER, partial
# pivoting grows an entry at most (1 + sqrt 2)^15 < 6e5-fold, so neither
# the LU factor of such a P nor gecon's iterates through it come near
# overflow (1.8e308), where _Factor would fail a matrix that the stacked
# solve still inverts.
_BATCH_NORM_MAX = 1e290

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

# The LAPACK factor, condition estimate and solve of a general and of a
# tridiagonal matrix.
_GENERAL = ("getrf", "gecon", "getrs")
_TRIDIAGONAL = ("gttrf", "gtcon", "gttrs")


@functools.cache
def _lapack(names, dtype):
    """The LAPACK routines `names` for arrays of `dtype`."""
    return get_lapack_funcs(names, dtype=dtype)


def _one_norms(mats):
    """1-norm (largest absolute column sum) of a matrix, or of each matrix
    of a stack, as ``np.linalg.norm(mat, 1)``.  It is not finite exactly
    when a matrix has a non-finite entry or its column sums overflow.  A
    band of :func:`_band`'s layout holds each column's entries in row
    order, so its norm is, bit for bit, that of its matrix."""
    return np.abs(mats).sum(axis=-2).max(axis=-1)


def _all_finite(*arrays):
    """Whether every entry of `arrays` is finite: one count_nonzero over
    one array, which is quicker than all() on the small arrays of a grid."""
    a = arrays[0] if len(arrays) == 1 else np.concatenate(arrays, axis=None)
    return np.count_nonzero(np.isfinite(a)) == a.size


class _Factor:
    """Checked LU factor of the mass matrix, or of the characteristic
    matrix at `point`, in one of three storages: a square dense ndarray, a
    CSR matrix or a tridiagonal triple.

    A dense `mat` is factored by LAPACK ``getrf`` and solved by ``getrs``:
    the results of ``scipy.linalg.lu_factor``/``lu_solve`` without their
    finiteness checks, so non-finite right-hand sides pass through.  Its
    ``rcond`` is the ``gecon`` estimate.  A Fortran-ordered `mat` given with
    its 1-norm `anorm` (of :func:`_one_norms`) is factored in place, any
    other a copy.  A CSR `mat` is factored by SuperLU, and its ``rcond`` is
    ``1 / (||mat||_1 est)``, where ``est`` is the one-column
    ``scipy.sparse.linalg.onenormest`` of ``mat^{-1}`` (the Hager-Higham
    estimator of ``gecon``), applied through the factor's solves; it draws
    no random vectors, so it is the same on every call.  A tuple ``(dl, d,
    du)`` of the sub-, main and super-diagonal of a tridiagonal matrix of
    order at least 3, given with its 1-norm `anorm`, is factored in place
    by ``gttrf`` and solved by ``gttrs``, which, as ``getrs``, returns
    Fortran-ordered solves; its ``rcond`` is the ``gtcon`` estimate, by the
    same estimator.

    Raises SingularMass, or SingularAtPoint naming `point`, at the first
    check that fails, in this order: `mat` has a non-finite entry (looked
    for only when its 1-norm is not finite); the factorization meets a zero
    or non-finite pivot or leaves a non-finite factor, or a CSR `mat` has no
    nonzeros; ``rcond`` is zero, not finite or, at a point, below
    ``_RCOND_SINGULAR``.

    It is the judge of every point: a grid of a small dense model
    (:func:`_screened_solves`) builds one only for the points its screen
    cannot clear, and the screen clears none that it would fail.
    """

    def __init__(self, mat, point=None, anorm=None):
        self._point = point
        if isinstance(mat, tuple):
            self._kind = "tridiagonal"
            rcond = self._gttrf(mat, anorm)
        elif isinstance(mat, np.ndarray):
            self._kind = "dense"
            rcond = self._getrf(mat, anorm)
        else:
            self._kind = "sparse"
            rcond = self._splu(mat)
        rcond_min = 0.0 if point is None else _RCOND_SINGULAR
        if rcond == 0.0 or not math.isfinite(rcond) or rcond < rcond_min:
            raise self._error("singular", rcond)
        self.rcond = rcond

    def _error(self, reason, rcond=None):
        error, messages = (_MASS_FAILURE if self._point is None
                           else _POINT_FAILURE)
        return error(messages[reason].format(point=self._point, rcond=rcond))

    def _getrf(self, mat, anorm):
        """``rcond`` of a dense `mat`, whose ``getrf`` factor it keeps."""
        if anorm is None:
            mat, anorm = np.array(mat, order="F"), float(_one_norms(mat))
        getrf, gecon, _ = _lapack(_GENERAL, mat.dtype)
        if not math.isfinite(anorm) and not np.isfinite(mat).all():
            raise self._error("nonfinite")
        lu, piv, info = getrf(mat, overwrite_a=True)
        if info > 0 or not _all_finite(lu):
            raise self._error("broken")
        self._lu = lu, piv
        return gecon(lu, anorm)[0]

    def _gttrf(self, mat, anorm):
        """``rcond`` of a tridiagonal triple `mat`, whose ``gttrf`` factor
        it keeps."""
        gttrf, gtcon, _ = _lapack(_TRIDIAGONAL, mat[1].dtype)
        if not math.isfinite(anorm) and not _all_finite(*mat):
            raise self._error("nonfinite")
        *lu, info = gttrf(*mat, overwrite_dl=True, overwrite_d=True,
                          overwrite_du=True)
        if info > 0 or not _all_finite(*lu[:4]):
            raise self._error("broken")
        self._lu = lu
        return gtcon(*lu, anorm)[0]

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
        if not _all_finite(lu.L.data, lu.U.data):
            raise self._error("broken")
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
        if self._kind == "dense":
            lu, piv = self._lu
            getrs = _lapack(_GENERAL, np.promote_types(lu.dtype, rhs.dtype))[2]
            return getrs(lu, piv, rhs, trans=int(trans))[0]
        if self._kind == "tridiagonal":
            gttrs = _lapack(_TRIDIAGONAL,
                            np.promote_types(self._lu[1].dtype, rhs.dtype))[2]
            return gttrs(*self._lu, rhs, trans="T" if trans else "N")[0]
        lu = self._lu_t if trans else self._lu
        if not np.iscomplexobj(rhs) or np.iscomplexobj(self._mat.data):
            return lu.solve(rhs)
        x = lu.solve(rhs.real).astype(complex)
        x.imag = lu.solve(rhs.imag)
        return x


def _screened_solves(mats, anorms, rhs_eye):
    """``P^{-1} rhs`` at each matrix P of the ``(c, k, k)`` stack `mats`,
    whose 1-norms are `anorms`, from one stacked ``np.linalg.solve`` of
    ``rhs_eye = [rhs | I]``, and the mask of the points its screen clears.

    The solve gives ``P^{-1} rhs``, with the bits of a solve of P alone
    with `rhs` (as the tests check for k <= 16 and up to 3 columns), and
    ``P^{-1}``, whose 1-norm gives P's exact ``rcond = 1 / (||P||_1
    ||P^{-1}||_1)``.  A point is cleared when both 1-norms are at
    most ``_BATCH_NORM_MAX``, its ``P^{-1} rhs`` is finite and its exact
    rcond is at least ``2 * _RCOND_SINGULAR``.  The ``gecon`` rcond that
    :class:`_Factor` checks is no smaller than the exact one, since its
    Hager-Higham estimate never exceeds ``||P^{-1}||_1``.  The factor 2
    covers the rounding of both figures, which is at most about k cond eps,
    2 % at cond = 5e12.  So every cleared point passes :class:`_Factor`,
    and the others are left to it.

    One exactly singular P makes ``np.linalg.solve`` raise for the whole
    stack.  The chunk is then solved again one point at a time; a singular
    point's solve is left NaN, so that the screen leaves it to _Factor,
    and every other point keeps the bits of its own solve.
    """
    try:
        # rhs_eye as a stack of one matrix: numpy 1.x reads a right-hand
        # side of one dimension fewer than `mats` as a stack of vectors.
        x = np.linalg.solve(mats, rhs_eye[None])
    except np.linalg.LinAlgError:
        x = np.full(mats.shape[:1] + rhs_eye.shape, np.nan, complex)
        for k, mat in enumerate(mats):
            with contextlib.suppress(np.linalg.LinAlgError):
                x[k] = np.linalg.solve(mat, rhs_eye)
    m = rhs_eye.shape[1] - mats.shape[1]
    solves, inverses = x[..., :m], x[..., m:]
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        inorms = _one_norms(inverses)
        rcond = 1.0 / (anorms * inorms)
    cleared = ((anorms <= _BATCH_NORM_MAX) & (inorms <= _BATCH_NORM_MAX)
               & np.isfinite(solves).all(axis=(1, 2))
               & (rcond >= 2 * _RCOND_SINGULAR))
    return solves, cleared


def _solve_grid(system, points):
    """Transfer matrices of `system` at `points`, a sequence of points as
    the caller gave them, as a ``(P, p, m)`` complex stack.

    A second-order system with tridiagonal bands (``_bands``) builds the
    ``(points, 3, N)`` bands of at most ``_CHUNK_BYTES`` of points at a
    time with the expression of ``characteristic``, takes their 1-norms at
    once and factors each point's band in place as a tridiagonal
    :class:`_Factor`, for either storage: O(N) work and memory per point.
    Other dense storage does the same with whole characteristic matrices.
    Up to order ``_BATCH_ORDER`` a chunk is solved by one stacked LAPACK
    call behind an exact-rcond screen (:func:`_screened_solves`), and only
    the points the screen cannot clear are factored, in order; above it
    each point is factored in place in a Fortran-ordered copy.  Other CSR
    storage builds and factors each point's CSR matrix alone.  A point's
    value depends on that point alone, so a grid gives the bits of its
    one-point calls.  Every point must be nonzero for a difference system.
    Raises SingularAtPoint, naming the point as given, at the first point
    in order whose matrix is not finite or is (numerically) singular.
    """
    if isinstance(system, SecondOrderSystem):
        rhs, out, sparse = system.F, system.G, system.is_sparse
        bands = system._bands
    else:
        rhs, out, sparse, bands = system.B, system.C, False, None
    stack = np.empty((len(points), out.shape[0], rhs.shape[1]), complex)
    if sparse and bands is None:
        for k, point in enumerate(points):
            stack[k] = out @ _Factor(system.characteristic(point),
                                     point).solve(rhs)
        return stack
    n = system.order
    batched = bands is None and n <= _BATCH_ORDER
    per_chunk = max(1, _CHUNK_BYTES // (16 * n * (n if bands is None else 3)))
    size = min(per_chunk, len(points))
    # The matrices are built in C order, which is fastest; a large dense
    # one is factored in place in a Fortran-ordered copy, a band in place.
    # The solves are Fortran-ordered, as getrs and gttrs return them, so
    # that one product per chunk gives the bits of one product per point.
    if bands is None and not batched:
        lus = np.empty((size, n, n), complex).transpose(0, 2, 1)
    solves = np.empty((size, rhs.shape[1], n), complex).transpose(0, 2, 1)
    rhs = np.asfortranarray(rhs, dtype=complex)
    if batched:
        rhs_eye = np.concatenate([rhs, np.eye(n, dtype=complex)], axis=1)
    out = out.astype(complex)
    zs = np.asarray(points, dtype=complex)[:, None, None]
    for start in range(0, len(points), per_chunk):
        stop = min(start + per_chunk, len(points))
        if bands is None:
            mats = system._characteristics(zs[start:stop])
        else:
            mats = system._characteristics(zs[start:stop], *bands)
        anorms = _one_norms(mats)
        if batched:
            screened, cleared = _screened_solves(mats, anorms, rhs_eye)
            solves[:stop - start] = screened
            judged = np.flatnonzero(~cleared).tolist()
        else:
            judged = range(stop - start)
            if bands is None:
                lus[:stop - start] = mats
                mats = lus
        norms = anorms.tolist()
        for k in judged:
            mat = mats[k]
            if bands is not None:
                mat = mat[2, :-1], mat[1], mat[0, 1:]
            solves[k] = _Factor(mat, points[start + k], norms[k]).solve(rhs)
        del mats  # not to be held while the next chunk is built
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

    **Tridiagonal models.**  When none of M, D and K has an entry off its
    tridiagonal band and N >= 3, as for a mass-spring-damper chain, the
    first :meth:`transfer` caches their three diagonals (``_bands``), read
    from either storage without densifying it.  Every point of
    :meth:`transfer` is then built and factored as a tridiagonal band, in
    O(N) work and memory.  The mass factor stays a general one: SuperLU
    solves the recursion's multi-column blocks faster than ``gttrs``,
    which solves one column at a time.
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

    def _characteristics(self, z, M=None, D=None, K=None):
        """``characteristic`` at a nonzero complex scalar `z`, or at each
        nonzero point of a ``(k, 1, 1)`` complex array `z` as a C-ordered
        ``(k, N, N)`` stack (dense storage only), with the same bits.  Given
        the bands of :attr:`_bands` as `M`, `D` and `K`, it builds the
        ``(k, 3, N)`` bands of those matrices instead, entry by entry the
        same arithmetic.  The sums are in place, so as to hold few
        temporaries, and each product has a fresh output: numpy's complex
        products may round differently in place."""
        if M is None:
            M, D, K = self.M, self.D, self.K
        if self.is_continuous:
            P = M * z * z
            P += D * z
            P += K
        else:
            P = M * z
            P += D
            P += _divide(K, z)
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
    def _bands(self):
        """Read-only ``(3, 3, N)`` stack of the tridiagonal bands of M, D
        and K (see :func:`_band`), built on the first transfer, when none of
        the three has an entry off its tridiagonal band and N >= 3 (below
        that, LAPACK's ``gttrf`` wrapper takes no arrays); else None."""
        if self.order < 3:
            return None
        bands = []
        for mat in (self.M, self.D, self.K):
            band = _band(mat)
            if band is None:
                return None
            bands.append(band)
        return _freeze(np.stack(bands))

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
