"""Shared system generators for the test suite.

All generators are deterministic in their seed so every test run sees the
same systems.
"""

import numpy as np
import scipy.sparse

from morso import recursion, systems
from morso.systems import FirstOrderSystem, SecondOrderSystem


def count_solves(monkeypatch, order):
    """Record every point solved for an order-``order`` system, by wrapping
    the grid-solve helper behind ``transfer``."""
    points = []
    solve = systems._solve_grid

    def counting_solve(system, grid):
        if system.order == order:
            points.extend(complex(point) for point in grid)
        return solve(system, grid)

    monkeypatch.setattr(systems, "_solve_grid", counting_solve)
    return points


def count_angle_kernels(monkeypatch):
    """Count the calls of the recursion's two angle kernels."""
    calls = {"_orth": 0, "_max_principal_angle": 0}
    for name in calls:
        kernel = getattr(recursion, name)

        def counted(*args, kernel=kernel, name=name):
            calls[name] += 1
            return kernel(*args)
        monkeypatch.setattr(recursion, name, counted)
    return calls


def random_sos(seed, N, m=1, p=1):
    """Generic dense continuous quintuplet (no stability guarantee)."""
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((N, N)) + 3.0 * np.eye(N)
    D = rng.standard_normal((N, N))
    K = rng.standard_normal((N, N))
    F = rng.standard_normal((N, m))
    G = rng.standard_normal((p, N))
    return SecondOrderSystem(M, D, K, F, G)


def random_spd_sos(seed, N, m=1, p=1):
    """Symmetric continuous quintuplet with SPD mass and stiffness."""
    rng = np.random.default_rng(seed)

    def spd():
        a = rng.standard_normal((N, N))
        return a @ a.T + N * np.eye(N)

    return SecondOrderSystem(spd(), spd(), spd(),
                             rng.standard_normal((N, m)),
                             rng.standard_normal((p, N)))


def random_stable_discrete(seed, N, m=1, p=1, rho_max=0.85, dominant=0,
                           boost=30.0, identity_mass=False):
    """Stable difference quintuplet with known characteristic roots.

    Each second-order mode is a quadratic with conjugate roots of modulus
    drawn below ``rho_max``; ``dominant`` modes (if any) get moduli in
    [0.9, rho_max] and input coupling scaled by ``boost`` so the
    controllability Gramian has a pronounced spectral gap.
    """
    rng = np.random.default_rng(seed)
    if dominant:
        # fast background decay so the boosted modes own the Gramian
        r = rng.uniform(0.2, min(0.5, rho_max), N)
        r[:dominant] = rng.uniform(0.9, rho_max, dominant)
    else:
        r = rng.uniform(0.2, rho_max, N)
    th = rng.uniform(0.1, np.pi - 0.1, N)
    d = -2.0 * r * np.cos(th)
    k = r * r

    Q2, _ = np.linalg.qr(rng.standard_normal((N, N)))
    Db = Q2 @ np.diag(d) @ Q2.T
    Kb = Q2 @ np.diag(k) @ Q2.T
    if identity_mass:
        Mb = np.eye(N)
    else:
        Q, _ = np.linalg.qr(rng.standard_normal((N, N)))
        T = Q @ np.diag(rng.uniform(0.5, 2.0, N)) @ Q.T
        Mb, Db, Kb = T, T @ Db, T @ Kb

    F = rng.standard_normal((N, m))
    if dominant:
        weights = np.where(np.arange(N)[:, None] < dominant, boost, 1.0)
        F = Q2 @ (Q2.T @ F * weights)
    G = rng.standard_normal((p, N))
    return SecondOrderSystem(Mb, Db, Kb, F, G, h=1.0)


def banded_sos(rng, N, m, p, h=1.0):
    """Quintuplet with tridiagonal M, D and K, which is stored sparse from
    N = 60 on: M is diagonally dominant, D and K are small.  Difference
    (``h=1.0``) by default, continuous with ``h=None``."""
    def tridiagonal(diagonal, scale):
        off = scale * rng.standard_normal(N - 1)
        main = diagonal + scale * rng.standard_normal(N)
        return scipy.sparse.diags_array([off, main, off], offsets=[-1, 0, 1])
    return SecondOrderSystem(
        tridiagonal(3.0, 0.5), tridiagonal(0.0, 0.3), tridiagonal(0.0, 0.3),
        rng.standard_normal((N, m)), rng.standard_normal((p, N)), h=h)


def equivalence_suite():
    """The 50 seeded stable difference systems used by the stacked
    equivalence and projection acceptance checks."""
    cases = []
    seed = 100
    while len(cases) < 50:
        for N in (5, 10, 20):
            for n in (2, 4):
                for mp in (1, 2):
                    cases.append((seed, N, n, mp))
                    seed += 1
    return cases[:50]


def random_stable_fos(seed, dim, m=1, p=1, rho=0.85):
    """Dense stable difference first-order system (scaled spectral radius)."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((dim, dim))
    A *= rho / np.max(np.abs(np.linalg.eigvals(A)))
    return FirstOrderSystem(A, rng.standard_normal((dim, m)),
                            rng.standard_normal((p, dim)), h=1.0)


def known_hsv_fos(seed, dim, sigma_min=1e-4):
    """Stable difference system with prescribed Hankel singular values.

    Built from decoupled balanced scalar channels (diagonal A, B, C with
    matched gains, so both Gramians are the same diagonal) followed by a
    random state-space similarity, which leaves the Hankel values intact.
    """
    rng = np.random.default_rng(seed)
    sigma = np.geomspace(1.0, sigma_min, dim)
    a = rng.uniform(-0.9, 0.9, dim)
    g = np.sqrt(sigma * (1.0 - a * a))
    Q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    s = rng.uniform(0.5, 2.0, dim)
    T = Q * s
    Tinv = (Q / s).T
    fos = FirstOrderSystem(T @ np.diag(a) @ Tinv, T @ np.diag(g),
                           np.diag(g) @ Tinv, h=1.0)
    return fos, sigma
