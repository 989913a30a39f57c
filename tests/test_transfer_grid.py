"""Transfer functions evaluated a grid at a time.

``transfer(points)`` must give, bit for bit, the stack of the one-point
calls and of a numpy or scipy reference, fail at the first failing point
with the error a one-point call raises there, and build no stack of
characteristic matrices.  The reference is a solve made Fortran-ordered,
as LAPACK ``getrs`` and ``gttrs`` return it: numpy's product of ``G`` with
equal solves of different layouts may round differently.  Where P(z) is
tridiagonal and of order at least 3, it is scipy's tridiagonal solve;
where it is dense, of order at most ``_BATCH_ORDER``, numpy's
``np.linalg.solve``, which a grid of such a model calls on a stack; else
scipy's LU solve.  (numpy's ``gesv`` and scipy's ``getrf``/``getrs`` may
differ in the last bit.)
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
from morso.projection import build_projection, reduce_model
from morso.recursion import RecursionConfig, run_recursion
from morso.systems import FirstOrderSystem, SecondOrderSystem


def _tridiagonal(P):
    """Whether P has order at least 3 and no entry off its tridiagonal."""
    P = P if isinstance(P, np.ndarray) else P.toarray()
    return len(P) >= 3 and not np.triu(P, 2).any() and not np.tril(P, -2).any()


def _reference(P, F, G):
    """``G P^{-1} F`` by numpy or scipy, with P and F made complex first."""
    P, F = P.astype(complex), F.astype(complex)
    if _tridiagonal(P):
        P = P if isinstance(P, np.ndarray) else P.toarray()
        X = np.asfortranarray(scipy.linalg.solve(P, F, assume_a="tridiagonal"))
    elif isinstance(P, np.ndarray) and len(P) <= systems._BATCH_ORDER:
        X = np.asfortranarray(np.linalg.solve(P, F))
    elif isinstance(P, np.ndarray):
        X = scipy.linalg.lu_solve(scipy.linalg.lu_factor(P), F)
    else:
        X = splu(P.tocsc()).solve(F)
    return G @ X


def _second_order(rng, N, m, p, h, sparse, banded):
    """Random damped second-order model: stored sparse when `sparse` is
    set, tridiagonal when `banded` is set, else pentadiagonal when sparse
    and full when dense."""
    offsets = range(-1, 2) if banded else range(-2, 3)

    def band(draw):
        return scipy.sparse.diags_array(
            [draw(N - abs(k)) for k in offsets], offsets=offsets)

    if sparse or banded:
        # M is diagonally dominant: entries in [-1, 1] plus [5, 6] on the
        # diagonal
        M = band(lambda n: rng.uniform(-1, 1, n)) + scipy.sparse.diags_array(
            rng.uniform(5, 6, N))
        D, K = band(rng.standard_normal), band(rng.standard_normal)
        if not sparse:
            M, D, K = M.toarray(), D.toarray(), K.toarray()
    else:
        M = rng.uniform(-1, 1, (N, N)) + 2 * N * np.eye(N)
        D = rng.standard_normal((N, N))
        K = rng.standard_normal((N, N))
    sos = SecondOrderSystem(M, D, K, rng.standard_normal((N, m)),
                            rng.standard_normal((p, N)), h=h)
    assert sos.is_sparse == sparse
    assert (sos._bands is not None) == banded
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
       banded=st.booleans(), discrete=st.booleans(), m=st.integers(1, 3),
       p=st.integers(1, 3), count=st.integers(1, 12),
       repeats=st.integers(0, 4), chunk_points=st.integers(1, 5))
def test_second_order_grid_matches_points_and_scipy(
        seed, sparse, banded, discrete, m, p, count, repeats, chunk_points):
    """Tridiagonal models of either storage take the band factors; sparse
    pentadiagonal and dense full ones the general factors."""
    rng = np.random.default_rng(seed)
    if sparse:  # pentadiagonal is below 5 % of N^2 from N = 100 on
        N = int(rng.integers(60, 80) if banded else rng.integers(100, 120))
    else:
        N = int(rng.integers(3 if banded else 1, 21))
    model = _second_order(rng, N, m, p, 0.5 if discrete else None, sparse,
                          banded)
    points = _points(rng, count, repeats)

    def make():
        return SecondOrderSystem(model.M, model.D, model.K, model.F,
                                 model.G, h=model.h)

    def reference(z):
        return _reference(model.characteristic(z), model.F, model.G)

    # Chunks of `chunk_points` points, so that grids straddle boundaries.
    per_point = 16 * N * (3 if banded else N)
    with mock.patch.object(systems, "_CHUNK_BYTES", per_point * chunk_points):
        _check_grid(make, points, reference)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), discrete=st.booleans(),
       n=st.integers(1, 20), m=st.integers(1, 3), p=st.integers(1, 3),
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

def _undamped(sparse, tridiagonal=True):
    """Undamped model with poles at +-i, +-2i, ..., +-Ni: N = 40, stored
    sparse, or N = 4, stored dense.  It is diagonal, so it takes the band
    factors; unless not `tridiagonal`, when K has a 1 in its top right
    corner too, which keeps P(s) upper triangular and its poles where they
    are, and it takes the general factors."""
    N = 40 if sparse else 4
    k = np.diag(np.arange(1.0, N + 1) ** 2)
    k[0, -1] = 0.0 if tridiagonal else 1.0
    M, D, K = np.eye(N), np.zeros((N, N)), k
    if sparse:
        M, D, K = (scipy.sparse.csr_array(a) for a in (M, D, K))
    sos = SecondOrderSystem(M, D, K, np.ones((N, 1)), np.ones((1, N)))
    assert sos.is_sparse == sparse
    assert (sos._bands is not None) == tridiagonal
    return sos


def _remake(sos, h=None, M=None):
    """A fresh system of `sos`'s matrices, with mass `M` if given."""
    M = sos.M if M is None else M
    return lambda: SecondOrderSystem(M, sos.D, sos.K, sos.F, sos.G, h=h)


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
    for tridiagonal in (True, False):
        make = _remake(_undamped(sparse, tridiagonal))
        points = [0.5j, 1.5j, 2.5j, 3j, 2j, 4.5j]
        N = make().order
        per_point = 16 * N * (3 if tridiagonal else N)
        with mock.patch.object(systems, "_CHUNK_BYTES",
                               per_point * chunk_points):
            _assert_grid_fails_like(make, points, 3)
        assert _scalar_error(make, 3j) == (
            SingularAtPoint, "characteristic matrix is singular at point 3j")


def test_grid_fails_at_first_numerically_singular_point():
    dense = SecondOrderSystem(np.diag([1.0, 2.0]), np.zeros((2, 2)),
                              np.diag([4.0, 2.0]), np.ones((2, 1)),
                              np.ones((1, 2)))
    near = 1j * (1 + 1e-15)
    # the CSR model fails through the sparse factor's condition estimate,
    # the tridiagonal ones through gtcon's
    for sos in (dense, *(_undamped(sparse, tridiagonal)
                         for sparse in (False, True)
                         for tridiagonal in (True, False))):
        make = _remake(sos)
        kind, message = _scalar_error(make, near)
        assert kind is SingularAtPoint and "numerically singular" in message
        _assert_grid_fails_like(make, np.array([0.5j, near, 2j]), 1)


@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "csr"])
def test_grid_fails_at_first_overflowing_point(sparse):
    for tridiagonal in (True, False):
        sos = _undamped(sparse, tridiagonal)
        make = _remake(sos, M=sos.M * 1e305)
        with np.errstate(over="ignore", invalid="ignore"):
            kind, message = _scalar_error(make, 1e4j)
        assert kind is SingularAtPoint and "not finite at point" in message
        _assert_grid_fails_like(make, [0.5j, 1e4j, 2j], 1)


@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "csr"])
def test_grid_zero_point_and_earlier_pole(sparse):
    """On a difference model, z = 0 raises ZeroPoint unless an earlier
    point of the grid fails first."""
    for tridiagonal in (True, False):
        make = _remake(_undamped(sparse, tridiagonal), h=0.5)
        # P(z) = M z + K / z is singular where z^2 = -k, e.g. z = 2j.
        _assert_grid_fails_like(make, [0.5, 0.7j, 0.0, 2j], 2)
        _assert_grid_fails_like(make, [0.5, 2j, 0.0], 1)
        assert _scalar_error(make, 0.0)[0] is ZeroPoint
        assert _scalar_error(make, 2j)[0] is SingularAtPoint


def test_first_order_grid_fails_at_first_eigenvalue():
    fos = FirstOrderSystem(np.diag([0.5, -2.0, 3.0]), np.ones((3, 1)),
                           np.ones((1, 3)), h=1.0)
    _assert_grid_fails_like(lambda: fos, np.array([0.1, 1.0, 3.0, 0.5]), 2)


# -- tridiagonal models: band factors --------------------------------------

def _chains():
    """The N = 32 chain, stored dense, and the N = 120 chain, stored sparse,
    each continuous and at h = 0.5, with points of their domain."""
    for N in (32, 120):
        sos = generate_msd_chain(N, damping=1.0, seed=1)
        yield sos, 1j * np.geomspace(1e-2, 10.0, 9)
        yield discretize(sos, 0.5), np.exp(1j * np.linspace(0.01, 3.1, 9))


def test_band_one_norms_are_the_matrix_one_norms(monkeypatch):
    """The 1-norm each band factor gets is np.linalg.norm(P(z), 1), bit for
    bit."""
    norms = []

    class Recording(systems._Factor):
        def __init__(self, mat, point=None, anorm=None):
            assert isinstance(mat, tuple)
            norms.append((point, anorm))
            super().__init__(mat, point, anorm)

    chains = list(_chains())
    monkeypatch.setattr(systems, "_Factor", Recording)
    for sos, points in chains:
        norms.clear()
        sos.transfer(points)
        assert [point for point, _ in norms] == list(points)
        for point, anorm in norms:
            P = sos.characteristic(point)
            P = P if isinstance(P, np.ndarray) else P.toarray()
            assert anorm == np.linalg.norm(P, 1)


@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "csr"])
def test_band_failures_are_the_dense_failures(sparse):
    """At a pole, near one and at an overflowing point, a tridiagonal
    model's grid raises the error and message that the dense factor of
    P(z) raises at its first failing point."""
    sos = _undamped(sparse)
    for make, bad in ((_remake(sos), 3j), (_remake(sos), 1j * (1 + 1e-15)),
                      (_remake(sos, M=sos.M * 1e305), 1e4j)):
        with np.errstate(over="ignore", invalid="ignore"):
            P = make().characteristic(bad)
            with pytest.raises(SingularAtPoint) as dense:
                systems._Factor(P if isinstance(P, np.ndarray)
                                else P.toarray(), bad)
            with pytest.raises(SingularAtPoint) as band:
                make().transfer([0.5j, bad, 2j])
        assert str(band.value) == str(dense.value)


def test_band_grid_memory_is_linear_in_order():
    """50 points of an N = 20000 chain allocate, beyond their output, a few
    bands of 3N complex entries (960 kB each), neither an N x N matrix
    (6.4 GB) nor one band per point (48 MB)."""
    N = 20000
    dsos = discretize(generate_msd_chain(N, damping=1.0, seed=1), 0.5)
    assert dsos.is_sparse and dsos._bands is not None
    points = np.exp(1j * np.linspace(0.01, 3.1, 50))
    tracemalloc.start()
    try:
        stack = dsos.transfer(points)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    kept = 2 * stack.nbytes + 50 * 200
    assert peak - kept < 8 * 16 * 3 * N


# -- small dense models: one stacked solve per chunk, behind a screen ------

def _record_point_factors(monkeypatch):
    """The points at which a point _Factor is built, in order."""
    points = []

    class Recording(systems._Factor):
        def __init__(self, mat, point=None, anorm=None):
            if point is not None:
                points.append(point)
            super().__init__(mat, point, anorm)

    monkeypatch.setattr(systems, "_Factor", Recording)
    return points


def test_reduced_models_take_one_stacked_solve_per_chunk(monkeypatch):
    """The N = 32 chain's srlrg reductions of order 2, 4 and 6 are solved
    on 300 points of the unit circle by one np.linalg.solve per chunk, and
    no point is factored alone."""
    dsos = discretize(generate_msd_chain(32, damping=1.0, seed=1), 0.5)
    reduced = []
    for n in (2, 4, 6):
        S, R, _ = run_recursion(dsos, RecursionConfig(n=n, tau=64, seed=1),
                                "srlrg")
        reduced.append(reduce_model(dsos, build_projection(S, R)))
    points = np.exp(1j * np.linspace(0.01, 3.1, 300))
    solve = np.linalg.solve
    calls = []

    def counting(a, b):
        # as many dimensions in b as in a: numpy 1.x and 2.x read it alike
        assert b.ndim == a.ndim == 3
        calls.append(len(a))
        return solve(a, b)

    factored = _record_point_factors(monkeypatch)
    monkeypatch.setattr(np.linalg, "solve", counting)
    for red in reduced:
        k = red.order
        assert 2 <= k <= systems._BATCH_ORDER and not red.is_sparse
        per_chunk = systems._CHUNK_BYTES // (16 * k * k)
        calls.clear()
        stack = red.transfer(points)
        assert calls == [min(per_chunk, 300 - start)
                         for start in range(0, 300, per_chunk)]
        assert factored == []
        assert np.isfinite(stack).all()


def test_point_the_screen_cannot_clear_is_factored():
    """A point whose exact rcond lies in [1e-13, 2e-13) passes _Factor but
    not the screen: its value is _Factor's, and the other points' values,
    one of rcond 2.5e-13 among them, are the stacked solve's.  C = I, so
    each value is its solve, whatever its layout."""
    # P(z) = z I - A has exact rcond |z| / 1.5 at a small real z
    A = np.array([[0.0, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.5]])
    fos = FirstOrderSystem(A, np.ones((3, 2)), np.eye(3))
    near, cleared = 2.25e-13, 3.75e-13
    points = np.array([0.5j, near, 3.0 + 1j, cleared, 1.5j])
    with pytest.MonkeyPatch.context() as patch:
        factored = _record_point_factors(patch)
        stack = fos.transfer(points)
    assert factored == [near]
    for z, value in zip(points, stack):
        P = z * np.eye(3) - A
        rcond = 1 / (np.linalg.norm(P, 1)
                     * np.linalg.norm(np.linalg.inv(P), 1))
        B = fos.B.astype(complex)
        if z == near:
            assert 1e-13 <= rcond < 2e-13
            assert np.array_equal(value, systems._Factor(P, z).solve(B))
        else:
            assert rcond >= 2e-13
            assert np.array_equal(value, np.linalg.solve(P, B))


def test_point_with_a_non_finite_solve_is_factored(monkeypatch):
    """A point whose P^{-1} B overflows, though P is well conditioned, is
    left to _Factor, whose solve it keeps."""
    fos = FirstOrderSystem(-1e-10 * np.eye(2), np.full((2, 1), 1e300),
                           np.eye(2))
    P = 1e-10 * np.eye(2, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        expected = fos.C.astype(complex) @ systems._Factor(P, 0j).solve(
            fos.B.astype(complex))
        factored = _record_point_factors(monkeypatch)
        stack = fos.transfer([1.0, 0j, 2.0])
    assert factored == [0j]
    assert not np.isfinite(stack[1]).any()
    assert np.array_equal(stack[1], expected, equal_nan=True)


def _small_dense_failures(model, discrete):
    """A small dense model of order 3 with an entry off the band, and the
    failing points of its grid by kind: a pole where P rounds to a tiny
    pivot, a point near a pole, a point where P overflows, and a point
    where P is exactly singular."""
    h = 0.5 if discrete else None
    if model == "second-order":
        # P(s) = s^2 I + K, P(z) = z I + K / z: poles at i sqrt(k)
        K = np.diag([2.0, 4.0, 9.0])
        K[0, -1] = 1.0
        eye, zero = np.eye(3), np.zeros((3, 3))
        F, G = np.ones((3, 1)), np.ones((1, 3))

        def make(M=eye):
            return lambda: SecondOrderSystem(M, zero, K, F, G, h=h)

        return {"pole": (make(), 1j * np.sqrt(2.0)),
                "near-pole": (make(), 2j * (1 + 1e-15)),
                "overflowing": (make(1e305 * eye), 1e4j),
                "exactly singular": (make(), 3j)}
    # P(z) = z I - A: eigenvalues +-i sqrt 2 and 3
    A = np.array([[0.0, 1.0, 1.0], [-2.0, 0.0, 0.0], [0.0, 0.0, 3.0]])
    B, C = np.ones((3, 1)), np.ones((1, 3))

    def make_first(A=A):
        fos = FirstOrderSystem(A, B, C, h=h)
        return lambda: fos

    return {"pole": (make_first(), 1j * np.sqrt(2.0)),
            "near-pole": (make_first(), 3 * (1 + 1e-15)),
            "overflowing": (make_first(A + 1e308 * np.eye(3)), -1e308),
            "exactly singular": (make_first(), 3.0)}


_FAILURE_MESSAGES = {
    "pole": "numerically singular at point",
    "near-pole": "numerically singular at point",
    "overflowing": "not finite at point",
    "exactly singular": "characteristic matrix is singular at point",
}


@pytest.mark.parametrize("discrete", [False, True],
                         ids=["continuous", "discrete"])
@pytest.mark.parametrize("model", ["second-order", "first-order"])
def test_small_dense_grid_fails_at_first_failing_point(model, discrete):
    """Each kind of failing point, placed mid-chunk between cleared points
    and before an exactly singular one, raises the one-point call's error,
    with chunks of 5 points and of 2."""
    failures = _small_dense_failures(model, discrete)
    for kind, (make, bad) in failures.items():
        with np.errstate(over="ignore", invalid="ignore"):
            error, message = _scalar_error(make, np.complex128(bad))
        assert error is SingularAtPoint
        assert _FAILURE_MESSAGES[kind] in message, (kind, message)
        later = failures["exactly singular"][1]
        points = np.array([0.3 + 0.5j, 0.7j, bad, 1.2 + 0.2j, later])
        for chunk_points in (5, 2):
            with mock.patch.object(systems, "_CHUNK_BYTES",
                                   16 * 9 * chunk_points), \
                    np.errstate(over="ignore", invalid="ignore"):
                _assert_grid_fails_like(make, points, 2)


def test_screen_clears_no_point_that_factor_fails():
    """Near overflow and underflow the stacked solve still inverts P where
    _Factor fails it: a 2 x 2 P of 1-norm 1.6e308 whose LU overflows, and
    3e-308 I, whose gecon rcond is 0.  The screen bounds both 1-norms, so
    the grid raises there as the one-point call does."""
    t = 8e307
    P = t * np.array([[0.5 + 0.5j, (1 + 1j) / np.sqrt(2)], [1, -1]])
    # P(1j) = -M + 1j D + K = P
    sos = SecondOrderSystem(np.eye(2), P.imag, P.real + np.eye(2),
                            np.ones((2, 1)), np.ones((1, 2)))
    assert np.array_equal(sos.characteristic(1j), P)
    # P(0) = -A
    tiny = 3e-308 * np.eye(2)
    fos = FirstOrderSystem(-tiny, np.ones((2, 1)), np.ones((1, 2)))
    for make, points, first, P in ((_remake(sos), [1j, 2j], 0, P),
                                   (lambda: fos, [1j, 0j, 2j], 1, tiny)):
        with np.errstate(over="ignore", invalid="ignore"):
            X = np.linalg.solve(P, np.eye(2))
        assert np.isfinite(X).all()
        assert np.linalg.norm(P, 1) * np.linalg.norm(X, 1) < 5
        _assert_grid_fails_like(make, np.array(points), first)


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
