"""Biorthogonal projection pairs and the structure-preserved reduced model.

Given the final subspace matrices S and R of a recursion run, the SVD of
``S^T R = U Sigma V^T`` yields the projection pair

    X = S U Sigma^{-1/2},    Y = R V Sigma^{-1/2},

which is biorthogonal (``Y^T X = I``) by construction.  Applying it to
every member of the quintuplet,

    {Y^T M X, Y^T D X, Y^T K X, Y^T F, G X},

produces a reduced model that is again a second-order system: structure
preservation is inherent in the construction, not a post-hoc repair.
"""

from dataclasses import dataclass
import warnings

import numpy as np

from .errors import (
    BadParameters,
    BiorthogonalityError,
    DimensionMismatch,
    RankCollapse,
    ShrunkRankWarning,
    check_real,
)
from .systems import SecondOrderSystem, _dense, linearize

__all__ = [
    "ProjectionPair",
    "StructureReport",
    "check_rank_tol",
    "build_projection",
    "reduce_model",
    "verify_structure_conditions",
]

# Y^T X may deviate from the identity by at most this much at construction.
_BIORTH_TOL = 1e-8


@dataclass(frozen=True)
class ProjectionPair:
    """Biorthogonal pair (X, Y) with the retained coupling singular values."""

    X: np.ndarray
    Y: np.ndarray
    sigma: np.ndarray

    @property
    def order(self):
        """Number of retained directions n' (may be below the requested n)."""
        return self.X.shape[1]

    def biorthogonality_deviation(self):
        """``max |Y^T X - I|``."""
        k = self.order
        return float(np.max(np.abs(self.Y.T @ self.X - np.eye(k))))


def check_rank_tol(rank_tol):
    """Raise BadParameters if ``rank_tol`` is not a real number, or is NaN
    or above 1, which would discard every direction of
    :func:`build_projection`."""
    if not check_real(rank_tol, "rank_tol") <= 1:
        raise BadParameters(f"rank_tol must be at most 1, got {rank_tol}")


def build_projection(S, R, rank_tol=1e-12):
    """Construct the biorthogonal pair from two N-by-n subspace matrices.

    Singular values of ``S^T R`` below ``rank_tol`` times the largest are
    discarded, shrinking the effective order (with a warning); the retained
    directions are scaled by the reciprocal square root of their singular
    values, which makes ``Y^T X = I`` up to round-off.

    Raises
    ------
    DimensionMismatch
        If S and R are not matrices of one shape with at least one column.
    BadParameters
        If ``rank_tol`` is not a real number, or is NaN or above 1, which
        would discard every direction.
    RankCollapse
        If ``S^T R`` is numerically zero (the subspaces are orthogonal,
        which signals a failed recursion).
    BiorthogonalityError
        If the constructed pair misses ``Y^T X = I`` by more than 1e-8
        (severely ill-conditioned coupling).
    """
    S = np.asarray(S, dtype=float)
    R = np.asarray(R, dtype=float)
    if S.ndim != 2 or R.ndim != 2 or S.shape != R.shape or not S.shape[1]:
        raise DimensionMismatch(
            "S and R must be equal-shaped matrices with at least one column, "
            f"got {S.shape} and {R.shape}"
        )
    check_rank_tol(rank_tol)
    n = S.shape[1]

    u, sigma, vt = np.linalg.svd(S.T @ R)
    if sigma[0] < 1e-300:
        raise RankCollapse(
            "S^T R is numerically zero: the recursion produced orthogonal "
            "subspaces"
        )
    keep = sigma >= rank_tol * sigma[0]
    n_eff = int(np.count_nonzero(keep))
    if n_eff < n:
        s_rank = np.linalg.matrix_rank(S)
        r_rank = np.linalg.matrix_rank(R)
        warnings.warn(
            f"retained order shrunk from {n} to {n_eff} "
            f"(input column ranks: S={s_rank}, R={r_rank})",
            ShrunkRankWarning,
            stacklevel=2,
        )

    scale = sigma[:n_eff] ** -0.5
    X = S @ (u[:, :n_eff] * scale)
    Y = R @ (vt[:n_eff].T * scale)
    pair = ProjectionPair(X=X, Y=Y, sigma=sigma[:n_eff].copy())
    dev = pair.biorthogonality_deviation()
    if dev > _BIORTH_TOL:
        raise BiorthogonalityError(
            f"|Y^T X - I| = {dev:.2e} exceeds {_BIORTH_TOL:.0e}; the subspace "
            "coupling is too ill-conditioned to invert"
        )
    return pair


def reduce_model(sos, proj):
    """Project a quintuplet onto a biorthogonal pair.

    Works for continuous and difference systems alike; the domain tag (and
    step size) carries over.  Sparse ``M``, ``D`` and ``K`` are applied as
    they are stored, without densifying.  A singular reduced mass matrix is
    reported by the constructor rather than silently accepted.
    """
    X, Y = proj.X, proj.Y
    if X.shape[0] != sos.order:
        raise DimensionMismatch(
            f"projection has {X.shape[0]} rows, system order is {sos.order}"
        )
    return SecondOrderSystem(
        Y.T @ sos.M @ X,
        Y.T @ sos.D @ X,
        Y.T @ sos.K @ X,
        Y.T @ sos.F,
        sos.G @ X,
        h=sos.h,
    )


@dataclass(frozen=True)
class StructureReport:
    """Diagnostic report of the block-diagonal projection conditions.

    The lifted pair ``blkdiag(X, X)``/``blkdiag(Y, Y)`` applied to the
    first-order pencil of the full system must reproduce the second-order
    block pattern: a block-diagonal E, an A with zero top-left block and
    identity-like top-right block, a B with zero top block and a C with a
    zero block opposite the output map.  ``off_pattern_max`` aggregates all
    entries that the pattern requires to vanish.
    """

    t1_condition: float
    t1_deviation: float
    e_off_pattern: float
    a_off_pattern: float
    b_zero_block: float
    c_zero_block: float
    reduced_linearization_gap: float

    @property
    def off_pattern_max(self):
        return max(
            self.e_off_pattern,
            self.a_off_pattern,
            self.b_zero_block,
            self.c_zero_block,
        )


def verify_structure_conditions(proj, sos):
    """Check that the block-diagonal lift of a projection pair preserves the
    second-order block pattern of the full system's first-order pencil.

    The lifted pencil ``blkdiag(Y, Y)^T (E, A, B) blkdiag(X, X)`` and output
    row ``C blkdiag(X, X)`` are assembled from ``T1 = Y^T X`` and the
    reduced quintuplet of :func:`reduce_model`, so the check costs O(N k)
    and never densifies sparse storage.  Returns a :class:`StructureReport`;
    this is a diagnostic and never raises on pattern violations.
    """
    reduced = reduce_model(sos, proj)
    fos = linearize(reduced)
    k = proj.order
    T1 = proj.Y.T @ proj.X
    zero = np.zeros((k, k))

    Er = np.block([[T1, zero], [zero, _dense(reduced.M)]])
    Ar = np.block([[zero, T1], [-_dense(reduced.K), -_dense(reduced.D)]])
    Br = np.vstack([np.zeros_like(reduced.F), reduced.F])
    e_off = float(max(np.max(np.abs(Er[:k, k:])), np.max(np.abs(Er[k:, :k]))))
    a_off = float(np.max(np.abs(Ar[:k, :k])))
    b_zero = float(np.max(np.abs(Br[:k])))

    # The output row [G, 0] (positions) or [0, G] (current state of the
    # difference stack), as linearize lays it out, must keep its zero block.
    zero_cols = slice(k, None) if sos.is_continuous else slice(None, k)
    c_zero = float(np.max(np.abs(fos.C[:, zero_cols])))

    gap = float(np.max(np.abs(fos.A - np.linalg.solve(Er, Ar))))

    return StructureReport(
        t1_condition=float(np.linalg.cond(T1)),
        t1_deviation=proj.biorthogonality_deviation(),
        e_off_pattern=e_off,
        a_off_pattern=a_off,
        b_zero_block=b_zero,
        c_zero_block=c_zero,
        reduced_linearization_gap=gap,
    )
