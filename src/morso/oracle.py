"""Dense reference computations: Stein Gramians, classic balanced
truncation, and principal angles between subspaces.

These routines are deliberately straightforward dense algorithms.  They
serve as trusted references for the low-rank machinery in the rest of the
package and as a baseline reduction method in benchmark comparisons.  The
principal angles are scipy's.  The Stein equations are solved by one
method at every size, the doubling (squared Smith) iteration, whose
residuals :func:`stein_gramians` reports.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import (
    DimensionMismatch,
    DomainMismatch,
    OrderTooLarge,
    RankDeficient,
    UnstableSystem,
    check_integer,
)
from .systems import FirstOrderSystem, stability_report

__all__ = [
    "GramianPair",
    "BalancingFactors",
    "stein_gramians",
    "balancing_factors",
    "dense_balanced_truncation",
    "subspace_angles",
]

# Upper bound on doubling rounds; 2^64 terms of the series cover any
# spectral radius that stein_gramians accepts.
_MAX_DOUBLINGS = 64


@dataclass(frozen=True)
class GramianPair:
    """Controllability/observability Gramians with solve residuals.

    Both matrices are symmetric positive semidefinite solutions of the
    Stein equations ``Wc = A Wc A^T + B B^T`` and ``Wo = A^T Wo A + C^T C``;
    the residuals are the Frobenius norms of the defect of each equation.
    """

    Wc: np.ndarray
    Wo: np.ndarray
    residual_c: float
    residual_o: float


def _solve_stein(A, Q):
    """Solve W = A W A^T + Q for symmetric Q by doubling.

    After k rounds W holds the first 2^k terms of the series
    ``sum_j A^j Q (A^j)^T`` and Ak = A^(2^k); the iteration converges
    quadratically for spectral radius < 1.  The next round would add
    ``Ak W Ak^T``, whose norm is at most ``||Ak||_F^2 ||W||``, so the loop
    stops once ``||Ak||_F^2`` falls below machine epsilon: from there on
    no round changes W beyond round-off.
    """
    W = Q.copy()
    Ak = A.copy()
    for _ in range(_MAX_DOUBLINGS):
        W = W + Ak @ W @ Ak.T
        Ak = Ak @ Ak
        if np.linalg.norm(Ak, "fro") ** 2 < np.finfo(float).eps:
            break
    return 0.5 * (W + W.T)


def stein_gramians(fos):
    """Dense Gramians of a stable difference first-order system.

    Parameters
    ----------
    fos : FirstOrderSystem
        Discrete-domain system with spectral radius strictly below one.

    Returns
    -------
    GramianPair

    Raises
    ------
    UnstableSystem
        If :func:`~morso.systems.stability_report` does not call the system
        stable: its spectral radius is within ``MARGINAL_TOL`` of (or
        beyond) one.
    """
    if not fos.is_discrete:
        raise DomainMismatch("Stein Gramians are defined for difference systems")
    report = stability_report(fos)
    if not report.is_stable:
        rho = float(np.max(np.abs(report.spectrum)))
        raise UnstableSystem(
            f"spectral radius {rho:.12f} is not strictly inside the unit disk"
        )
    Qc = fos.B @ fos.B.T
    Qo = fos.C.T @ fos.C
    Wc = _solve_stein(fos.A, Qc)
    Wo = _solve_stein(fos.A.T, Qo)
    res_c = float(np.linalg.norm(Wc - fos.A @ Wc @ fos.A.T - Qc, "fro"))
    res_o = float(np.linalg.norm(Wo - fos.A.T @ Wo @ fos.A - Qo, "fro"))
    return GramianPair(Wc=Wc, Wo=Wo, residual_c=res_c, residual_o=res_o)


def _psd_sqrt_factor(W):
    # Symmetric eigendecomposition-based square root; round-off can push
    # eigenvalues slightly negative, clip them at zero.
    lam, V = np.linalg.eigh(W)
    lam = np.clip(lam, 0.0, None)
    return V * np.sqrt(lam)


def _check_order(full, order):
    if not 1 <= check_integer(order, "order") <= full:
        raise OrderTooLarge(f"order must lie in [1, {full}], got {order}")


@dataclass(frozen=True)
class BalancingFactors:
    """Square-root factors ``Lc``, ``Lo`` of both Gramians of a stable
    difference system and the SVD ``U diag(hsv) Vt`` of their cross factor
    ``Lo^T Lc``, whose singular values are the Hankel singular values.

    Built once by :func:`balancing_factors`, they truncate the system to
    any order without solving the Stein equations again.
    """

    fos: FirstOrderSystem
    Lc: np.ndarray
    Lo: np.ndarray
    U: np.ndarray
    hsv: np.ndarray
    Vt: np.ndarray

    def truncate(self, order):
        """Balanced truncation to ``order``: the reduced system and all 2N
        Hankel singular values, as :func:`dense_balanced_truncation`."""
        fos, hsv = self.fos, self.hsv
        _check_order(fos.order, order)
        if hsv[order - 1] <= 1e-14 * hsv[0]:
            raise OrderTooLarge(
                f"requested order {order} exceeds the numerical Hankel rank"
            )
        scale = hsv[:order] ** -0.5
        Xp = self.Lc @ (self.Vt[:order].T * scale)
        Yp = self.Lo @ (self.U[:, :order] * scale)
        reduced = FirstOrderSystem(
            Yp.T @ fos.A @ Xp, Yp.T @ fos.B, fos.C @ Xp, h=fos.h
        )
        return reduced, hsv


def balancing_factors(fos):
    """Factor both Gramians of a stable difference system and take the SVD
    of the cross factor.

    Raises
    ------
    UnstableSystem
        As :func:`stein_gramians`.
    """
    pair = stein_gramians(fos)
    Lc = _psd_sqrt_factor(pair.Wc)
    Lo = _psd_sqrt_factor(pair.Wo)
    U, hsv, Vt = np.linalg.svd(Lo.T @ Lc)
    return BalancingFactors(fos, Lc, Lo, U, hsv, Vt)


def dense_balanced_truncation(fos, order):
    """Square-root balanced truncation of a stable difference system.

    Factors both Gramians, computes the SVD of the cross factor (whose
    singular values are the Hankel singular values), and truncates the
    balancing projection to the requested order.

    Parameters
    ----------
    fos : FirstOrderSystem
        Stable difference system of order 2N.
    order : int
        Reduced order, ``1 <= order <= 2N`` (the full order reproduces the
        system exactly); must not exceed the numerical Hankel rank.

    Returns
    -------
    (FirstOrderSystem, ndarray)
        The reduced system and all 2N Hankel singular values.
    """
    _check_order(fos.order, order)
    return balancing_factors(fos).truncate(order)


def subspace_angles(P, Q):
    """Principal angles between the column spaces of P and Q, computed by
    ``scipy.linalg.subspace_angles`` and returned nondecreasing.  The
    number of angles is the smaller column count.

    Raises
    ------
    RankDeficient
        If either input lacks full column rank.
    """
    P = np.atleast_2d(np.asarray(P, dtype=float))
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    if P.shape[0] != Q.shape[0]:
        raise DimensionMismatch(
            f"row counts differ: {P.shape[0]} vs {Q.shape[0]}"
        )
    for name, mat in (("P", P), ("Q", Q)):
        sv = np.linalg.svd(mat, compute_uv=False)
        if sv[0] == 0.0 or sv[-1] < max(mat.shape) * np.finfo(float).eps * sv[0]:
            raise RankDeficient(f"{name} does not have full column rank")
    return np.sort(scipy.linalg.subspace_angles(P, Q))
