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
from functools import cached_property
from typing import NamedTuple
import warnings

import numpy as np
from scipy.linalg import get_lapack_funcs

from .errors import (
    ConditioningWarning,
    DimensionMismatch,
    SingularAtPoint,
    SingularMass,
    ZeroPoint,
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

# Largest share of nonzero entries of M, D and K (of N^2) at which a system
# also keeps sparse operators for the subspace recursion.
SPARSE_DENSITY = 0.05

# Reciprocal condition below which a polynomial matrix counts as singular
# at the evaluation point.
_RCOND_SINGULAR = 1e-13


def _as_matrix(a, name, allow_empty=False):
    arr = np.array(a, dtype=float, copy=True, order="C")
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    elif arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    if arr.ndim != 2:
        raise DimensionMismatch(f"{name} must be a matrix, got ndim={arr.ndim}")
    if not allow_empty and (arr.shape[0] < 1 or arr.shape[1] < 1):
        raise DimensionMismatch(f"{name} must be nonempty, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise DimensionMismatch(f"{name} contains non-finite entries")
    return arr


def _freeze(arr):
    arr.setflags(write=False)
    return arr


def _checked_lu(mat, error, broken, singular, rcond_min=0.0):
    """LU-factorize `mat` with LAPACK ``getrf`` and estimate its reciprocal
    condition number with ``gecon``.

    Raises ``error(broken)`` when the factorization breaks down, and
    ``error(singular.format(rcond))`` when the estimate is zero, not finite
    or below ``rcond_min``.  Returns ``((lu, piv), rcond)``, where the
    factor is what ``scipy.linalg.lu_factor`` returns for `mat`.
    """
    anorm = np.linalg.norm(mat, 1)
    getrf, gecon = get_lapack_funcs(("getrf", "gecon"), (mat,))
    lu, piv, _ = getrf(mat)
    if not np.all(np.isfinite(lu)) or np.any(np.diag(lu) == 0.0):
        raise error(broken)
    rcond, _ = gecon(lu, anorm)
    if rcond == 0.0 or not np.isfinite(rcond) or rcond < rcond_min:
        raise error(singular.format(rcond))
    return (lu, piv), rcond


def _lu_solve(lu_piv, rhs, trans=0):
    """Solve with a :func:`_checked_lu` factor by LAPACK ``getrs``: the
    result of ``scipy.linalg.lu_solve(lu_piv, rhs, trans)`` without its
    finiteness check, so non-finite right-hand sides pass through."""
    lu, piv = lu_piv
    getrs = get_lapack_funcs("getrs", (lu, rhs))
    x, _ = getrs(lu, piv, rhs, trans=trans)
    return x


def _solve_at_point(mat, rhs, point):
    """Solve mat @ x = rhs, raising SingularAtPoint if mat is not finite or
    numerically singular (the evaluation point is a characteristic
    frequency)."""
    if not np.all(np.isfinite(mat)):
        raise SingularAtPoint(
            f"characteristic matrix is not finite at point {point}")
    lu_piv, _ = _checked_lu(
        mat, SingularAtPoint,
        f"characteristic matrix is singular at point {point}",
        f"characteristic matrix is numerically singular at point {point} "
        "(rcond={:.2e})",
        _RCOND_SINGULAR,
    )
    return _lu_solve(lu_piv, rhs)


class _Operators(NamedTuple):
    """What the subspace recursion applies on every step: K and D as dense
    arrays or CSR matrices (their ``.T`` is a view either way), and a
    SuperLU factor of M (None on the dense path)."""

    K: object
    D: object
    mass_splu: object


def _operators(M, D, K):
    N = M.shape[0]
    if max(np.count_nonzero(a) for a in (M, D, K)) > SPARSE_DENSITY * N * N:
        return _Operators(K, D, None)
    # Imported here so that dense models never load scipy.sparse.
    from scipy.sparse import csc_array, csr_array
    from scipy.sparse.linalg import splu

    return _Operators(csr_array(K), csr_array(D), splu(csc_array(M)))


class SecondOrderSystem:
    """Quintuplet {M, D, K, F, G} with a continuous/discrete domain tag.

    Parameters
    ----------
    M, D, K : (N, N) array_like
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
    the LU factorization of M is computed once at construction.  They are
    therefore safe to share across concurrent readers.

    :meth:`transfer` keeps the transfer matrix of every distinct point it
    has solved, one ``p x m`` complex matrix each, for the life of the
    instance, so that sampling the same grid again costs no solves.  A
    CLI command builds its systems afresh and drops them when it ends.

    ``M``, ``D`` and ``K`` are always dense.  When the largest number of
    nonzero entries among them is at most ``SPARSE_DENSITY`` (5 %) of
    ``N^2``, as for a long mass-spring-damper chain, the system also keeps
    internal sparse operators, built on the first mass solve: CSR copies
    of ``K``, ``D``, ``K^T`` and ``D^T`` for the subspace recursion, and a
    SuperLU factor of ``M`` that :meth:`solve_mass` and
    :meth:`solve_mass_t` then use for real right-hand sides.  The dense LU
    still checks ``M`` for singularity and conditioning at construction
    on both paths, and ``scipy.sparse`` is imported only when a system
    takes the sparse path.
    """

    def __init__(self, M, D, K, F, G, h=None):
        M = _as_matrix(M, "M")
        D = _as_matrix(D, "D")
        K = _as_matrix(K, "K")
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
            h = float(h)
            if not 0 < h < np.inf:
                raise DimensionMismatch(
                    f"discrete step h must be positive and finite, got {h}")

        self.M = _freeze(M)
        self.D = _freeze(D)
        self.K = _freeze(K)
        self.F = _freeze(F)
        self.G = _freeze(G)
        self.h = h
        self._mass_lu, rcond = _checked_lu(
            M, SingularMass, "mass matrix M is singular: LU factorization failed",
            "mass matrix M is numerically singular (rcond={})")
        self.mass_condition = 1.0 / rcond
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

    def __repr__(self):
        dom = f"discrete, h={self.h}" if self.is_discrete else "continuous"
        return (
            f"SecondOrderSystem(N={self.order}, m={self.n_inputs}, "
            f"p={self.n_outputs}, {dom})"
        )

    # -- mass solves (cached LU) ------------------------------------------

    def solve_mass(self, rhs):
        """Return M^{-1} @ rhs using the cached LU factorization.

        Non-finite right-hand sides pass through as non-finite results so
        that iteration divergence can be diagnosed by the caller.
        """
        if self._ops.mass_splu is None or np.iscomplexobj(rhs):
            return _lu_solve(self._mass_lu, rhs)
        return self._ops.mass_splu.solve(rhs)

    def solve_mass_t(self, rhs):
        """Return M^{-T} @ rhs using the cached LU factorization."""
        if self._ops.mass_splu is None or np.iscomplexobj(rhs):
            return _lu_solve(self._mass_lu, rhs, trans=1)
        return self._ops.mass_splu.solve(rhs, trans="T")

    @cached_property
    def _ops(self):
        """Internal operators, built on the first mass solve."""
        return _operators(self.M, self.D, self.K)

    @cached_property
    def _mass_input(self):
        """Read-only ``M^{-1} F``, solved once for every recursion step."""
        return _freeze(self.solve_mass(self.F))

    # -- transfer function -------------------------------------------------

    def characteristic(self, point):
        """Evaluate the characteristic polynomial matrix at a complex point.

        Continuous systems use ``P(s) = M s^2 + D s + K``; difference
        systems use ``P(z) = M z + D + K z^{-1}``.
        """
        pt = complex(point)
        if self.is_continuous:
            return self.M * pt * pt + self.D * pt + self.K
        if pt == 0:
            raise ZeroPoint("discrete characteristic matrix is undefined at z = 0")
        return self.M * pt + self.D + self.K / pt

    def transfer(self, point):
        """Transfer matrix ``G P(.)^{-1} F`` at a complex point.

        Each distinct point is solved once per instance; a repeated point
        returns a fresh copy of the stored matrix.

        Raises
        ------
        SingularAtPoint
            If the point is (numerically) a characteristic frequency.
        ZeroPoint
            For z = 0 on a difference system.
        """
        key = complex(point)
        value = self._transfers.get(key)
        if value is None:
            P = self.characteristic(point).astype(complex)
            X = _solve_at_point(P, self.F.astype(complex), point)
            value = self._transfers[key] = self.G @ X
        return value.copy()

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

    def transfer(self, point):
        """Transfer matrix ``C (pt I - A)^{-1} B``."""
        pt = complex(point)
        P = pt * np.eye(self.order, dtype=complex) - self.A
        X = _solve_at_point(P, self.B.astype(complex), point)
        return self.C @ X


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
    """
    N = sos.order
    m = sos.n_inputs
    A = np.zeros((2 * N, 2 * N))
    A[:N, N:] = np.eye(N)
    A[N:, :N] = -sos.solve_mass(sos.K)
    A[N:, N:] = -sos.solve_mass(sos.D)

    B = np.zeros((2 * N, m))
    B[N:] = sos.solve_mass(sos.F)

    C = np.zeros((sos.n_outputs, 2 * N))
    if sos.is_continuous:
        C[:, :N] = sos.G
    else:
        C[:, N:] = sos.G
    return FirstOrderSystem(A, B, C, h=sos.h)


def transfer(sys, point):
    """Transfer matrix of a second- or first-order system at one point."""
    return sys.transfer(point)


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
        linearization (2N eigenvalues).

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
