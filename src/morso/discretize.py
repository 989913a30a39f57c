"""Conversion between differential and difference second-order systems.

Three explicit schemes are supported.  All of them approximate the
acceleration by the central second difference
``(q[i+1] - 2 q[i] + q[i-1]) / h^2`` and differ in the divided difference
used for the velocity:

========  =================================
forward   (q[i+1] - q[i]) / h
backward  (q[i] - q[i-1]) / h
central   (q[i+1] - q[i-1]) / (2 h)
========  =================================

Each scheme maps {M, D, K} to difference matrices {Mb, Db, Kb} such that
``Mb q[i+1] + Db q[i] + Kb q[i-1] = F u[i]``; F and G pass through
unchanged.  The maps are linear and invertible, and all of them satisfy
``Mb + Db + Kb = K`` exactly, so the DC gain is preserved for every step
size.  The explicit schemes are only conditionally stable: discretizing a
stable system with too large a step yields an unstable difference system
(a warning is emitted when that happens).
"""

import enum
import math
import warnings

import numpy as np

from .errors import (
    BadParameters,
    DomainMismatch,
    MorsoWarning,
    NonPositiveStep,
    UnstableDiscretizationWarning,
)
from .mmio import text_output
from .systems import (
    MARGINAL_TOL,
    SecondOrderSystem,
    _checked_step,
    _dense,
    _divide,
    _issparse,
    stability_report,
)

__all__ = [
    "Scheme",
    "DEFAULT_SCHEME",
    "discretize",
    "inverse_discretize",
    "consistency_error",
    "consistency_curve",
    "write_consistency_curve",
    "default_step",
]


class Scheme(enum.Enum):
    """Velocity difference used by the discretization."""

    FORWARD_VELOCITY = "forward"
    BACKWARD_VELOCITY = "backward"
    CENTRAL_VELOCITY = "central"

    @classmethod
    def from_name(cls, name):
        """The member named `name` (case and surrounding blanks ignored),
        or `name` itself if it is a member; BadParameters otherwise."""
        if isinstance(name, cls):
            return name
        try:
            return cls(str(name).strip().lower())
        except ValueError:
            valid = ", ".join(s.value for s in cls)
            raise BadParameters(f"unknown scheme {name!r}; expected one of: {valid}")


DEFAULT_SCHEME = Scheme.FORWARD_VELOCITY

# Entries of K that default_step densifies at a time from sparse storage
# (8 MB of float64).
_STEP_BLOCK_ENTRIES = 1 << 20


def discretize(sos, h, scheme=DEFAULT_SCHEME, *, stability_check=True):
    """Convert a continuous system to difference form with step ``h``.

    Parameters
    ----------
    sos : SecondOrderSystem
        Continuous system.
    h : float
        Positive finite step size: a Python or numpy real number, not a
        string (BadParameters).
    scheme : Scheme or str, optional
        Velocity difference to use, as a member or its name (default:
        forward).  An unknown name raises BadParameters.
    stability_check : bool, optional
        When True (default), emit UnstableDiscretizationWarning if the
        continuous system is stable but the difference system is not.
        The check first tries an energy certificate: when ``Mb``, ``Db``
        and ``Kb`` are symmetric, positive definiteness of ``Mb - Kb``,
        ``Mb + Db + Kb`` and ``Mb - Db + Kb`` (the Jury conditions), taken
        on the pencil scaled so that they prove a stability margin above
        ``MARGINAL_TOL``, shows that no warning is due without computing a
        spectrum.  Only when that certificate fails does it fall back to
        :func:`stability_report` on both systems (the continuous one is
        certified the same way where it can be), so the warning fires in
        the same cases either way.  A sparse system above
        ``DENSE_ORDER_LIMIT`` skips that fallback with a ``MorsoWarning``.

    Returns
    -------
    SecondOrderSystem
        Difference system tagged with the step ``h``, stored as ``sos`` is
        when the difference matrices keep its sparsity.  Each entry of
        ``Mb``, ``Db`` and ``Kb`` is the same arithmetic on the same
        entries of ``M``, ``D`` and ``K`` for either storage.
    """
    if sos.is_discrete:
        raise DomainMismatch("discretize expects a continuous system")
    scheme = Scheme.from_name(scheme)
    h = _checked_step(h, NonPositiveStep)
    h2 = h * h

    M, D, K = sos.M, sos.D, sos.K
    if scheme is Scheme.FORWARD_VELOCITY:
        Mb, Db, Kb, c = M + h * D, h2 * K - 2.0 * M - h * D, M, h2
    elif scheme is Scheme.BACKWARD_VELOCITY:
        Mb, Db, Kb, c = M, h2 * K - 2.0 * M + h * D, M - h * D, h2
    else:
        Mb, Db, Kb, c = (2.0 * M + h * D, h2 * K - 2.0 * M, 2.0 * M - h * D,
                         2.0 * h2)
    Mb, Db, Kb = _divide(Mb, c), _divide(Db, h2), _divide(Kb, c)
    dsos = SecondOrderSystem(Mb, Db, Kb, sos.F, sos.G, h=h)
    if stability_check and not _certified_stable(dsos):
        try:
            sos_stable = _certified_stable(sos) or stability_report(sos).is_stable
            unstable = sos_stable and not stability_report(dsos).is_stable
        except BadParameters as exc:  # above DENSE_ORDER_LIMIT
            warnings.warn(f"stability of the discretization with h={h} not "
                          f"checked: {exc}", MorsoWarning, stacklevel=2)
            unstable = False
        if unstable:
            warnings.warn(
                f"discretization with h={h} ({scheme.value} scheme) made a "
                "stable system unstable; reduce the step size",
                UnstableDiscretizationWarning,
                stacklevel=2,
            )
    return dsos


def _certified_stable(sos):
    """True when an energy certificate proves that ``sos`` has a stability
    margin above MARGINAL_TOL, so that :func:`stability_report` would call
    it stable; False when the certificate does not apply or fails.

    For symmetric ``P2 = M``, ``P1 = D``, ``P0 = K`` every eigenvalue
    ``lam`` with eigenvector ``x`` solves the scalar quadratic with
    coefficients ``x^H P_k x``.  A continuous system is stable when all
    three are positive definite; a difference system ``P2 z^2 + P1 z + P0``
    is when ``P2 - P0``, ``P2 + P1 + P0`` and ``P2 - P1 + P0`` are (the
    Jury conditions).  The pencil is first shifted (``s -> s - t``) or
    scaled (``z -> (1 - t) z``) by ``t = MARGINAL_TOL``.
    """
    P2, P1, P0 = sos.M, sos.D, sos.K
    if not all(_symmetric(P) for P in (P2, P1, P0)):
        return False
    t = MARGINAL_TOL
    if sos.is_continuous:
        tests = (P2, P1 - 2.0 * t * P2, P0 - t * P1 + t * t * P2)
    else:
        r = 1.0 - t
        tests = (r * r * P2 - P0, r * r * P2 + r * P1 + P0,
                 r * r * P2 - r * P1 + P0)
    return all(_positive_definite(P) for P in tests)


def _symmetric(P):
    if _issparse(P):
        return (P != P.T).nnz == 0
    return np.array_equal(P, P.T)


def _positive_definite(P):
    """Whether a symmetric `P` is positive definite: a dense one by a
    Cholesky factorization, a sparse one by a SuperLU factorization without
    pivoting, which for a symmetric matrix is ``L D L^T`` with positive
    pivots exactly when it is."""
    if not _issparse(P):
        try:
            np.linalg.cholesky(P)
        except np.linalg.LinAlgError:
            return False
        return True
    from scipy.sparse.linalg import splu

    try:
        lu = splu(P.tocsc(), permc_spec="NATURAL", diag_pivot_thresh=0)
    except RuntimeError:  # a zero pivot
        return False
    # Equal row and column orders make the factorization symmetric.
    return (np.array_equal(lu.perm_r, lu.perm_c)
            and bool(np.all(lu.U.diagonal() > 0)))


def inverse_discretize(dsos, scheme=DEFAULT_SCHEME):
    """Recover the continuous system from a difference system.

    Inverts the linear map of :func:`discretize` for the given scheme (a
    member or its name); the step size is taken from the system's domain
    tag.
    """
    if dsos.is_continuous:
        raise DomainMismatch("inverse_discretize expects a discrete system")
    scheme = Scheme.from_name(scheme)
    h = dsos.h
    h2 = h * h

    Mb, Db, Kb = dsos.M, dsos.D, dsos.K
    if scheme is Scheme.FORWARD_VELOCITY:
        M = h2 * Kb
    elif scheme is Scheme.BACKWARD_VELOCITY:
        M = h2 * Mb
    else:
        M = h2 * (Mb + Kb) / 2.0
    D, K = h * (Mb - Kb), Mb + Db + Kb
    return SecondOrderSystem(M, D, K, dsos.F, dsos.G, h=None)


def default_step(sos):
    """Heuristic step size ``0.1 / rho`` with ``rho = max(1, ||M^{-1}K||_F^{1/2})``.

    The spectral-radius proxy keeps the fastest structural frequency well
    inside the schemes' conditional stability region for typical damped
    systems; it is a default, not a guarantee.  Sparse storage is solved
    in blocks of columns of K, each densified to at most
    ``_STEP_BLOCK_ENTRIES`` entries.
    """
    N = sos.order
    K = sos.K
    width = N
    if sos.is_sparse:
        K = K.tocsc()
        width = max(1, _STEP_BLOCK_ENTRIES // N)
    norms = [np.linalg.norm(sos.solve_mass(_dense(K[:, j:j + width])), "fro")
             for j in range(0, N, width)]
    rho = max(1.0, math.hypot(*norms) ** 0.5)
    return 0.1 / rho


def consistency_error(sos, h, scheme, s_points):
    """Largest relative transfer deviation between a continuous system and
    its discretization, ``max_s ||T_d(e^{s h}) - T_c(s)|| / ||T_c(s)||``.

    The norm is the largest singular value.  All points must lie in the
    resolvent set of both systems.
    """
    dsos = discretize(sos, h, scheme, stability_check=False)
    s_points = np.asarray(s_points)
    tc = sos.transfer(s_points)
    td = dsos.transfer(np.exp(s_points.astype(complex) * h))
    num = np.linalg.svd(td - tc, compute_uv=False)[:, 0]
    den = np.linalg.svd(tc, compute_uv=False)[:, 0]
    return max(0.0, *(num / den))


def consistency_curve(sos, hs, scheme, s_points):
    """Deviation of :func:`consistency_error` for each step size in ``hs``."""
    return [(float(h), consistency_error(sos, h, scheme, s_points)) for h in hs]


def write_consistency_curve(path_or_file, sos, hs, scheme, s_points):
    """Write a ``step,max_relative_deviation`` CSV for documentation plots."""
    rows = consistency_curve(sos, hs, scheme, s_points)
    with text_output(path_or_file) as f:
        f.write("step,max_relative_deviation\n")
        for h, err in rows:
            f.write(f"{h!r},{err!r}\n")
    return rows
