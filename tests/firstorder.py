"""Independent first-order recursive low-rank oracle.

This module deliberately avoids the package's second-order machinery: the
state-space matrices are rebuilt from the quintuplet with plain solves and
the recursion works on full 2N-by-n iterates.  It exists so the blockwise
second-order implementation can be checked against a straight-line
transcription of the first-order updates

    S(i+1) = [A S(i) | B]   V(:, 1:n)
    R(i+1) = [A^T R(i) | C^T] W(:, 1:n)

with V, W taken from two SVDs (Gramian variant) or from the single SVD of
the cross product (Hankel variant).  Sign normalization follows the same
largest-entry convention as the implementation so trajectories are
comparable entry by entry.
"""

import numpy as np
import scipy.sparse


def _dense(a):
    return a.toarray() if scipy.sparse.issparse(a) else a


def state_space(dsos):
    """(A, B, C) of the difference system, built independently via dense
    solves, whatever the system's storage."""
    N = dsos.order
    M, D, K = _dense(dsos.M), _dense(dsos.D), _dense(dsos.K)
    Minv_K = np.linalg.solve(M, K)
    Minv_D = np.linalg.solve(M, D)
    Minv_F = np.linalg.solve(M, dsos.F)
    A = np.zeros((2 * N, 2 * N))
    A[:N, N:] = np.eye(N)
    A[N:, :N] = -Minv_K
    A[N:, N:] = -Minv_D
    B = np.vstack([np.zeros_like(Minv_F), Minv_F])
    C = np.hstack([np.zeros_like(dsos.G), dsos.G])
    return A, B, C


def _flip_signs(u, s, vt):
    for j in range(vt.shape[0]):
        k = int(np.argmax(np.abs(vt[j])))
        if vt[j, k] < 0.0:
            vt[j] = -vt[j]
            u[:, j] = -u[:, j]
    return u, s, vt


def rlrg_step(A, B, C, S, R, n):
    m1 = np.hstack([A @ S, B])
    m2 = np.hstack([A.T @ R, C.T])
    _, _, vct = _flip_signs(*np.linalg.svd(m1, full_matrices=False))
    _, _, vot = _flip_signs(*np.linalg.svd(m2, full_matrices=False))
    return m1 @ vct[:n].T, m2 @ vot[:n].T


def rlrh_step(A, B, C, S, R, n):
    m1 = np.hstack([A @ S, B])
    m2 = np.hstack([A.T @ R, C.T])
    u, _, vt = _flip_signs(*np.linalg.svd(m2.T @ m1, full_matrices=False))
    return m1 @ vt[:n].T, m2 @ u[:, :n]


def run(dsos, S0, R0, n, steps, variant):
    """Iterate the chosen first-order recursion from stacked initializers."""
    A, B, C = state_space(dsos)
    step = rlrg_step if variant == "srlrg" else rlrh_step
    S, R = S0.copy(), R0.copy()
    for _ in range(steps):
        S, R = step(A, B, C, S, R, n)
    return S, R
