"""Transfer functions evaluated a grid at a time.

``transfer(points)`` must give, bit for bit, the stack of the one-point
calls and of a scipy LU reference, fail at the first failing point with
the error a one-point call raises there, and build no stack of
characteristic matrices.
"""

import tracemalloc
from unittest import mock

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
from scipy.sparse.linalg import splu

from morso import metrics, systems
from morso.bench import generate_msd_chain
from morso.discretize import Scheme, consistency_error, discretize
from morso.errors import SingularAtPoint, ZeroPoint
from morso.systems import FirstOrderSystem, SecondOrderSystem


def _reference(P, F, G):
    """``G P^{-1} F`` by scipy, with P and F made complex first."""
    P, F = P.astype(complex), F.astype(complex)
    if isinstance(P, np.ndarray):
        X = scipy.linalg.lu_solve(scipy.linalg.lu_factor(P), F)
    else:
        X = splu(P.tocsc()).solve(F)
    return G @ X


def _second_order(rng, N, m, p, h, sparse):
    """Random damped second-order model; banded, and so stored sparse, when
    `sparse` is set."""
    if sparse:
        def band():
            offsets = (-1, 0, 1)
            diagonals = [rng.standard_normal(N - abs(k)) for k in offsets]
            return scipy.sparse.diags_array(diagonals, offsets=offsets)

        M = scipy.sparse.diags_array(
            [rng.uniform(-1, 1, N - 1), rng.uniform(3, 4, N),
             rng.uniform(-1, 1, N - 1)], offsets=(-1, 0, 1))
        D, K = band(), band()
    else:
        M = rng.uniform(-1, 1, (N, N)) + 2 * N * np.eye(N)
        D = rng.standard_normal((N, N))
        K = rng.standard_normal((N, N))
    sos = SecondOrderSystem(M, D, K, rng.standard_normal((N, m)),
                            rng.standard_normal((p, N)), h=h)
    assert sos.is_sparse == sparse
    return sos


def _points(rng, count, repeats):
    points = rng.standard_normal(count) + 1j * rng.standard_normal(count)
    if repeats:
        points = np.concatenate([points, points[rng.integers(0, count, repeats)]])
        rng.shuffle(points)
    return points


def _check_grid(make, points, reference):
    """One grid call on a fresh system equals the one-point calls on another
    fresh system, and `reference`, bit for bit."""
    stack = make().transfer(points)
    single = make()
    assert stack.shape == (len(points), *reference(points[0]).shape)
    assert np.array_equal(stack, np.stack([single.transfer(z) for z in points]))
    assert np.array_equal(stack, np.stack([reference(z) for z in points]))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), sparse=st.booleans(),
       discrete=st.booleans(), m=st.integers(1, 3), p=st.integers(1, 3),
       count=st.integers(1, 12), repeats=st.integers(0, 4),
       chunk_points=st.integers(1, 5))
def test_second_order_grid_matches_points_and_scipy(
        seed, sparse, discrete, m, p, count, repeats, chunk_points):
    rng = np.random.default_rng(seed)
    N = int(rng.integers(60, 80)) if sparse else int(rng.integers(1, 12))
    model = _second_order(rng, N, m, p, 0.5 if discrete else None, sparse)
    points = _points(rng, count, repeats)

    def make():
        return SecondOrderSystem(model.M, model.D, model.K, model.F,
                                 model.G, h=model.h)

    def reference(z):
        return _reference(model.characteristic(z), model.F, model.G)

    # Chunks of `chunk_points` points, so that grids straddle boundaries.
    with mock.patch.object(systems, "_CHUNK_BYTES", 16 * N * N * chunk_points):
        _check_grid(make, points, reference)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), discrete=st.booleans(),
       n=st.integers(1, 14), m=st.integers(1, 3), p=st.integers(1, 3),
       count=st.integers(1, 12), repeats=st.integers(0, 4),
       chunk_points=st.integers(1, 5))
def test_first_order_grid_matches_points_and_scipy(
        seed, discrete, n, m, p, count, repeats, chunk_points):
    rng = np.random.default_rng(seed)
    fos = FirstOrderSystem(rng.standard_normal((n, n)),
                           rng.standard_normal((n, m)),
                           rng.standard_normal((p, n)),
                           h=0.5 if discrete else None)
    points = _points(rng, count, repeats)

    def reference(z):
        return _reference(z * np.eye(n, dtype=complex) - fos.A, fos.B, fos.C)

    with mock.patch.object(systems, "_CHUNK_BYTES", 16 * n * n * chunk_points):
        _check_grid(lambda: fos, points, reference)


def test_grid_straddles_default_chunks():
    """N = 32 takes four points per 64 KiB chunk: a 10-point grid of the
    chain spans three chunks, continuous and discrete."""
    chain = generate_msd_chain(32, damping=1.0, seed=1)
    assert not chain.is_sparse
    assert systems._CHUNK_BYTES // (16 * 32 * 32) == 4
    omegas = np.geomspace(1e-2, 10.0, 10)
    for make, points in (
            (lambda: generate_msd_chain(32, damping=1.0, seed=1), 1j * omegas),
            (lambda: discretize(chain, 0.5), np.exp(0.5j * omegas))):
        single = make()
        assert np.array_equal(make().transfer(points),
                              np.stack([single.transfer(z) for z in points]))


def test_scalar_point_keeps_matrix_shape():
    sos = SecondOrderSystem(np.eye(2), np.eye(2), np.eye(2), np.ones((2, 3)),
                            np.ones((1, 2)))
    assert sos.transfer(0.5j).shape == (1, 3)
    assert sos.transfer([0.5j]).shape == (1, 1, 3)
    assert sos.transfer(np.array([], dtype=complex)).shape == (0, 1, 3)


# -- errors: the first failing point, as a one-point call reports it -------

def _undamped(sparse):
    """Undamped diagonal model with poles at +-i, +-2i, ..., +-Ni: N = 40,
    stored sparse, or N = 4, stored dense."""
    N = 40 if sparse else 4
    k = np.arange(1.0, N + 1) ** 2
    if sparse:
        M, D, K = (scipy.sparse.diags_array(d) for d in
                   (np.ones(N), np.zeros(N), k))
    else:
        M, D, K = np.eye(N), np.zeros((N, N)), np.diag(k)
    sos = SecondOrderSystem(M, D, K, np.ones((N, 1)), np.ones((1, N)))
    assert sos.is_sparse == sparse
    return sos


def _scalar_error(make, point):
    with pytest.raises(Exception) as info:
        make().transfer(point)
    return info.type, str(info.value)


def _assert_grid_fails_like(make, points, first):
    """The grid raises what a one-point call at ``points[first]`` raises,
    and every point before it succeeds on its own."""
    for z in points[:first]:
        make().transfer(z)
    expected = _scalar_error(make, points[first])
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(expected[0]) as info:
            make().transfer(np.asarray(points))
    assert str(info.value) == expected[1]


@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "csr"])
@pytest.mark.parametrize("chunk_points", [1, 3, 64])
def test_grid_fails_at_first_pole(sparse, chunk_points):
    sos = _undamped(sparse)
    make = lambda: SecondOrderSystem(sos.M, sos.D, sos.K, sos.F, sos.G)  # noqa: E731
    points = [0.5j, 1.5j, 2.5j, 3j, 2j, 4.5j]
    N = sos.order
    with mock.patch.object(systems, "_CHUNK_BYTES", 16 * N * N * chunk_points):
        _assert_grid_fails_like(make, points, 3)
    assert _scalar_error(make, 3j) == (
        SingularAtPoint, "characteristic matrix is singular at point 3j")


def test_grid_fails_at_first_numerically_singular_point():
    dense = SecondOrderSystem(np.diag([1.0, 2.0]), np.zeros((2, 2)),
                              np.diag([4.0, 2.0]), np.ones((2, 1)),
                              np.ones((1, 2)))
    near = 1j * (1 + 1e-15)
    # the CSR model fails through the sparse factor's condition estimate
    for sos in (dense, _undamped(True)):
        make = lambda sos=sos: SecondOrderSystem(sos.M, sos.D, sos.K, sos.F, sos.G)  # noqa: E731
        kind, message = _scalar_error(make, near)
        assert kind is SingularAtPoint and "numerically singular" in message
        _assert_grid_fails_like(make, np.array([0.5j, near, 2j]), 1)


@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "csr"])
def test_grid_fails_at_first_overflowing_point(sparse):
    sos = _undamped(sparse)
    M = sos.M * 1e305
    make = lambda: SecondOrderSystem(M, sos.D, sos.K, sos.F, sos.G)  # noqa: E731
    with np.errstate(over="ignore", invalid="ignore"):
        kind, message = _scalar_error(make, 1e4j)
    assert kind is SingularAtPoint and "not finite at point" in message
    _assert_grid_fails_like(make, [0.5j, 1e4j, 2j], 1)


@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "csr"])
def test_grid_zero_point_and_earlier_pole(sparse):
    """On a difference model, z = 0 raises ZeroPoint unless an earlier
    point of the grid fails first."""
    sos = _undamped(sparse)
    make = lambda: SecondOrderSystem(sos.M, sos.D, sos.K, sos.F, sos.G, h=0.5)  # noqa: E731
    # P(z) = M z + K / z is singular where z^2 = -k, e.g. z = 2j.
    _assert_grid_fails_like(make, [0.5, 0.7j, 0.0, 2j], 2)
    _assert_grid_fails_like(make, [0.5, 2j, 0.0], 1)
    assert _scalar_error(make, 0.0)[0] is ZeroPoint
    assert _scalar_error(make, 2j)[0] is SingularAtPoint


def test_first_order_grid_fails_at_first_eigenvalue():
    fos = FirstOrderSystem(np.diag([0.5, -2.0, 3.0]), np.ones((3, 1)),
                           np.ones((1, 3)), h=1.0)
    _assert_grid_fails_like(lambda: fos, np.array([0.1, 1.0, 3.0, 0.5]), 2)


# -- memory: no stack of characteristic matrices ---------------------------

def test_dense_grid_builds_no_matrix_stack():
    """400 points on a dense N = 300 model allocate, beyond their
    (P, p, m) output, a few N x N complex matrices (1.44 MB each), not a
    P x N x N stack (576 MB)."""
    rng = np.random.default_rng(0)
    N = 300
    sos = SecondOrderSystem(rng.standard_normal((N, N)) + N * np.eye(N),
                            rng.standard_normal((N, N)),
                            rng.standard_normal((N, N)),
                            rng.standard_normal((N, 2)),
                            rng.standard_normal((2, N)))
    assert not sos.is_sparse
    points = 1j * np.geomspace(1e-2, 1e2, 400)
    tracemalloc.start()
    try:
        stack = sos.transfer(points)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert stack.shape == (400, 2, 2)
    # The output, the per-point results the system keeps, and their keys.
    kept = 2 * stack.nbytes + 400 * 200
    assert peak - kept < 4 * 16 * N * N


# -- largest singular values: one stacked computation ---------------------

@pytest.mark.parametrize("p, m", [(1, 1), (1, 3), (2, 2), (3, 1)])
def test_stacked_gains_equal_per_matrix(p, m):
    """The stacked gains of the metrics are, bit for bit, those of the
    per-matrix formula they replaced."""
    rng = np.random.default_rng(3)
    stack = rng.standard_normal((50, p, m)) + 1j * rng.standard_normal((50, p, m))
    per_matrix = [float(np.abs(mat).ravel()[0]) if mat.size == 1
                  else float(np.linalg.svd(mat, compute_uv=False)[0])
                  for mat in stack]
    assert np.array_equal(metrics._largest_singular_values(stack), per_matrix)


# -- consistency_error: one grid call per system ---------------------------

def _consistency_per_point(sos, h, scheme, s_points):
    """The per-point formula that consistency_error replaced."""
    dsos = discretize(sos, h, scheme, stability_check=False)
    worst = 0.0
    for s in s_points:
        tc = sos.transfer(s)
        td = dsos.transfer(np.exp(complex(s) * h))
        num = np.linalg.norm(td - tc, 2)
        den = np.linalg.norm(tc, 2)
        worst = max(worst, num / den)
    return worst


@pytest.mark.parametrize("scheme", list(Scheme))
@pytest.mark.parametrize("h", [0.005, 0.05, 0.3])
@pytest.mark.parametrize("mp", [(1, 1), (2, 3)])
def test_consistency_error_is_bit_identical_to_per_point(scheme, h, mp):
    rng = np.random.default_rng(7)
    N, (m, p) = 6, mp
    M = np.eye(N) + 0.1 * rng.standard_normal((N, N))
    M = M @ M.T
    D = 0.5 * np.eye(N)
    K = np.diag(rng.uniform(0.5, 4.0, N))
    F, G = rng.standard_normal((N, m)), rng.standard_normal((p, N))
    s_points = [0.0, 0.1j, 0.5j, 1j, 2j + 0.1]

    def make():
        return SecondOrderSystem(M, D, K, F, G)

    got = consistency_error(make(), h, scheme, s_points)
    want = _consistency_per_point(make(), h, scheme, s_points)
    assert type(got) is type(want)
    assert got == want
