import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

from morso.bench import generate_msd_chain
from morso.discretize import discretize
from morso.errors import (
    BadParameters,
    ConditioningWarning,
    DimensionMismatch,
    SingularAtPoint,
    SingularMass,
    ZeroPoint,
)
from morso.systems import (
    _Factor,
    FirstOrderSystem,
    SecondOrderSystem,
    linearize,
    stability_report,
    transfer,
)

from helpers import banded_sos, random_sos, random_stable_discrete


class TestConstruction:
    def test_scalar_promotion(self):
        s = SecondOrderSystem(1, 0, 1, 1, 1)
        assert s.order == 1 and s.n_inputs == 1 and s.n_outputs == 1
        assert s.is_continuous and not s.is_discrete

    def test_vector_input_becomes_column(self):
        eye = np.eye(3)
        s = SecondOrderSystem(eye, eye, eye, [1.0, 2.0, 3.0], np.ones((1, 3)))
        assert s.F.shape == (3, 1)
        assert s.F[:, 0].tolist() == [1.0, 2.0, 3.0]

    def test_dimension_checks(self):
        eye = np.eye(3)
        with pytest.raises(DimensionMismatch):
            SecondOrderSystem(eye, np.eye(2), eye, np.ones((3, 1)), np.ones((1, 3)))
        with pytest.raises(DimensionMismatch):
            SecondOrderSystem(eye, eye, eye, np.ones((2, 1)), np.ones((1, 3)))
        with pytest.raises(DimensionMismatch):
            SecondOrderSystem(eye, eye, eye, np.ones((3, 1)), np.ones((1, 4)))

    def test_singular_mass_rejected(self):
        M = np.diag([1.0, 0.0])
        with pytest.raises(SingularMass):
            SecondOrderSystem(M, np.eye(2), np.eye(2), np.ones((2, 1)),
                              np.ones((1, 2)))

    def test_ill_conditioned_mass_warns(self):
        M = np.diag([1.0, 1e-14])
        with pytest.warns(ConditioningWarning):
            SecondOrderSystem(M, np.eye(2), np.eye(2), np.ones((2, 1)),
                              np.ones((1, 2)))

    def test_immutability(self):
        s = random_sos(0, 4)
        with pytest.raises(ValueError):
            s.M[0, 0] = 99.0

    def test_discrete_step_positive(self):
        with pytest.raises(DimensionMismatch):
            SecondOrderSystem(1, 0, 1, 1, 1, h=-0.1)

    @pytest.mark.parametrize("h", [np.inf, np.nan])
    def test_discrete_step_finite(self, h):
        with pytest.raises(DimensionMismatch, match="positive and finite"):
            SecondOrderSystem(1, 0, 1, 1, 1, h=h)

    @pytest.mark.parametrize("h", [-1.0, 0.0, np.inf, np.nan])
    def test_first_order_step_positive_and_finite(self, h):
        with pytest.raises(DimensionMismatch, match="positive and finite"):
            FirstOrderSystem([[0.5]], [[1.0]], [[1.0]], h=h)

    def test_step_must_be_real(self):
        for make in (lambda: SecondOrderSystem(1, 0, 1, 1, 1, h="0.5"),
                     lambda: FirstOrderSystem([[0.5]], [[1.0]], [[1.0]],
                                              h="0.5")):
            with pytest.raises(BadParameters, match="^discrete step h must "
                               "be a real number, got '0.5'$"):
                make()


class TestValidation:
    """Malformed matrices and points raise DimensionMismatch (or ZeroPoint)
    with a message that names what is wrong."""

    @pytest.mark.parametrize("M, message", [
        ([[1.0, np.nan], [0.0, 1.0]], "M contains non-finite entries"),
        (np.zeros((0, 0)), r"M must be nonempty, got shape \(0, 0\)"),
        (np.ones((2, 2, 2)), "M must be a matrix, got ndim=3"),
        (scipy.sparse.coo_array(np.ones((2, 2, 2))),
         "M must be a matrix, got ndim=3"),
        (np.ones((2, 3)), r"M must be square, got \(2, 3\)"),
    ], ids=["nonfinite", "empty", "3-D", "sparse 3-D", "not square"])
    def test_bad_mass(self, M, message):
        with pytest.raises(DimensionMismatch, match=f"^{message}$"):
            SecondOrderSystem(M, 0, 0, 1, 1)

    @pytest.mark.parametrize("A, B, C, message", [
        (np.ones((2, 3)), np.ones((2, 1)), np.ones((1, 3)),
         r"A must be square, got \(2, 3\)"),
        (np.eye(2), np.ones((3, 1)), np.ones((1, 2)),
         r"B must have 2 rows, got \(3, 1\)"),
        (np.eye(2), np.ones((2, 1)), np.ones((1, 3)),
         r"C must have 2 columns, got \(1, 3\)"),
    ], ids=["A", "B", "C"])
    def test_bad_first_order_shapes(self, A, B, C, message):
        with pytest.raises(DimensionMismatch, match=f"^{message}$"):
            FirstOrderSystem(A, B, C)

    def test_two_dimensional_points(self):
        s = SecondOrderSystem(1, 1, 1, 1, 1)
        with pytest.raises(DimensionMismatch, match="^points must be one "
                           "point or a 1-D array, got ndim=2$"):
            s.transfer(np.ones((2, 2)))

    def test_characteristic_at_zero_of_difference_model(self):
        s = SecondOrderSystem(1, 0, 0.25, 1, 1, h=0.1)
        with pytest.raises(ZeroPoint, match="^discrete characteristic "
                           "matrix is undefined at z = 0$"):
            s.characteristic(0)

    def test_repr(self):
        assert repr(SecondOrderSystem(1, 0, 1, np.ones((1, 2)), 1)) == (
            "SecondOrderSystem(N=1, m=2, p=1, continuous)")
        assert repr(SecondOrderSystem(1, 0, 1, 1, 1, h=0.5)) == (
            "SecondOrderSystem(N=1, m=1, p=1, discrete, h=0.5)")


# Finite, but its LU factor is not: the second pivot is -1e308 - 1e308.
_OVERFLOWING_LU = np.array([[1.0, 1e308], [1.0, -1e308]])


def _overflowing(N, tridiagonal):
    """_OVERFLOWING_LU in the top left corner of an identity of order N;
    with a 1 in the top right corner when not `tridiagonal`."""
    a = np.eye(N)
    a[:2, :2] = _OVERFLOWING_LU
    if not tridiagonal:
        a[0, -1] = 1.0
    return a


def test_overflowing_lu_is_a_failed_factorization():
    """A finite matrix whose LU factor overflows fails its factorization:
    as M, and, negated, as K of a continuous model with M = I and D = 0,
    whose characteristic matrix at 0 it is, alone and first in a grid.
    Of order 3, a tridiagonal one is factored as a band, and one with an
    entry off the band as a general matrix."""
    for N, tridiagonal in ((2, True), (3, True), (3, False)):
        a = _overflowing(N, tridiagonal)
        eye, zero = np.eye(N), np.zeros((N, N))
        F, G = np.ones((N, 1)), np.ones((1, N))
        with np.errstate(over="ignore"):
            with pytest.raises(SingularMass, match=r"^mass matrix M is "
                               r"singular: LU factorization failed$"):
                SecondOrderSystem(a, zero, eye, F, G)
            s = SecondOrderSystem(eye, zero, -a, F, G)
            assert (s._bands is not None) == (tridiagonal and N >= 3)
            for points in (0j, [0j, 1j]):
                with pytest.raises(SingularAtPoint, match=r"^characteristic "
                                   r"matrix is singular at point 0j$"):
                    s.transfer(points)


def test_overflowing_sparse_lu_is_a_failed_factorization():
    """A CSR matrix whose SuperLU factor overflows fails its factorization
    as its dense twin does: as M, and, negated, as K of a continuous model
    with M = I and D = 0, at 0 alone and first in a grid.  Of order 70 it
    is stored sparse, and with an entry off the band it is factored by
    SuperLU at every point."""
    N = 70
    a = scipy.sparse.csr_array(_overflowing(N, tridiagonal=False))
    eye = scipy.sparse.identity(N, format="csr")
    zero = scipy.sparse.csr_array((N, N))
    F, G = np.ones((N, 1)), np.ones((1, N))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(SingularMass, match=r"^mass matrix M is "
                           r"singular: LU factorization failed$"):
            SecondOrderSystem(a, zero, eye, F, G)
        s = SecondOrderSystem(eye, zero, -a, F, G)
        assert s.is_sparse and s._bands is None
        for points in (0j, [0j, 1j]):
            with pytest.raises(SingularAtPoint, match=r"^characteristic "
                               r"matrix is singular at point 0j$"):
                s.transfer(points)


@pytest.mark.parametrize("kind", ["real", "complex", "real factor, complex rhs"])
def test_lu_helper_matches_scipy(kind):
    rng = np.random.default_rng(3)
    a = rng.standard_normal((7, 7))
    b = rng.standard_normal((7, 3))
    if kind != "real":
        b = b + 1j * rng.standard_normal((7, 3))
    if kind == "complex":
        a = a + 1j * rng.standard_normal((7, 7))
    factor = _Factor(a)
    lu, piv = factor._lu
    ref_lu, ref_piv = scipy.linalg.lu_factor(a)
    assert np.array_equal(lu, ref_lu)
    assert np.array_equal(piv, ref_piv)
    assert 0.0 < factor.rcond <= 1.0
    for trans in (0, 1):
        assert np.array_equal(
            factor.solve(b, trans=bool(trans)),
            scipy.linalg.lu_solve((ref_lu, ref_piv), b, trans=trans))


@pytest.mark.parametrize("trans", [False, True])
def test_band_factor_matches_lapack(trans):
    """A tridiagonal triple is factored in place by gttrf, its rcond is the
    gtcon estimate and its solves are gttrs', Fortran-ordered."""
    rng = np.random.default_rng(5)
    N = 9
    dl, d, du = (rng.standard_normal(n) + 1j * rng.standard_normal(n)
                 for n in (N - 1, N, N - 1))
    b = rng.standard_normal((N, 2)) + 1j * rng.standard_normal((N, 2))
    P = np.diag(dl, -1) + np.diag(d) + np.diag(du, 1)
    anorm = np.linalg.norm(P, 1)
    gttrf, gtcon, gttrs = scipy.linalg.get_lapack_funcs(
        ("gttrf", "gtcon", "gttrs"), dtype=complex)
    *lu, _ = gttrf(dl, d, du)
    triple = dl.copy(), d.copy(), du.copy()
    factor = _Factor(triple, 1j, anorm)
    assert all(np.shares_memory(a, b) for a, b in zip(factor._lu, triple))
    assert factor.rcond == gtcon(*lu, anorm)[0]
    x = factor.solve(np.asfortranarray(b), trans=trans)
    assert x.flags.f_contiguous
    assert np.array_equal(x, gttrs(*lu, b, trans="T" if trans else "N")[0])
    assert np.allclose((P.T if trans else P) @ x, b)


def _complex_solve(P, F, tridiagonal=False):
    """``P^{-1} F`` by scipy, with P and F made complex first: an LU solve,
    or, for a `tridiagonal` P, scipy's tridiagonal solve (LAPACK ``gttrf``
    and ``gttrs``) made Fortran-ordered, as ``gttrs`` returns it."""
    P, F = P.astype(complex), F.astype(complex)
    if tridiagonal:
        return np.asfortranarray(scipy.linalg.solve(
            P if isinstance(P, np.ndarray) else P.toarray(), F,
            assume_a="tridiagonal"))
    return scipy.linalg.lu_solve(scipy.linalg.lu_factor(P), F)


@pytest.mark.parametrize("N, sparse", [(32, False), (120, True)])
@pytest.mark.parametrize("h", [None, 0.5])
def test_transfer_is_a_solve_with_complex_matrices(N, sparse, h):
    """``transfer`` passes P and F as they are: its result is bit-identical
    to a solve with explicitly complex copies, for dense and sparse
    storage, in both domains, and for the first-order form.  The chain's
    P(z) is tridiagonal, so its reference is a tridiagonal solve."""
    sos = generate_msd_chain(N, damping=1.0, seed=1)
    if h is not None:
        sos = discretize(sos, h)
    assert sos.is_sparse == sparse
    assert sos._bands is not None
    points = [0.3j, 1.5 + 0.2j] if h is None else np.exp([0.3j, 2.0j])
    for pt in points:
        X = _complex_solve(sos.characteristic(pt), sos.F, tridiagonal=True)
        assert np.array_equal(sos.transfer(pt), sos.G @ X)
    if not sparse:
        fos = linearize(sos)
        for pt in points:
            P = pt * np.eye(fos.order) - fos.A
            assert np.array_equal(fos.transfer(pt),
                                  fos.C @ _complex_solve(P, fos.B))


class TestLinearize:
    def test_identity_mass_example(self):
        fos = linearize(SecondOrderSystem(1, 0, 1, 1, 1))
        assert np.allclose(fos.A, [[0, 1], [-1, 0]])
        assert np.allclose(fos.B, [[0], [1]])
        assert np.allclose(fos.C, [[1, 0]])

    def test_scalar_mass_example(self):
        fos = linearize(SecondOrderSystem(2, 3, 4, 1, 1))
        assert np.allclose(fos.A, [[0, 1], [-2, -1.5]])
        assert np.allclose(fos.B, [[0], [0.5]])
        assert np.allclose(fos.C, [[1, 0]])

    def test_shapes(self):
        s = random_sos(1, 5, m=2, p=3)
        fos = linearize(s)
        assert fos.A.shape == (10, 10)
        assert fos.B.shape == (10, 2)
        assert fos.C.shape == (3, 10)

    def test_transfer_equivalence_continuous(self):
        s = random_sos(2, 5, m=2, p=2)
        fos = linearize(s)
        rng = np.random.default_rng(3)
        for _ in range(20):
            pt = complex(rng.standard_normal(), rng.standard_normal())
            t_sos = s.transfer(pt)
            t_fos = fos.transfer(pt)
            assert np.max(np.abs(t_sos - t_fos)) <= 1e-10 * np.max(np.abs(t_sos))

    def test_transfer_equivalence_discrete(self):
        s = random_stable_discrete(4, 6, m=2, p=2)
        fos = linearize(s)
        rng = np.random.default_rng(5)
        for _ in range(20):
            pt = complex(rng.standard_normal(), rng.standard_normal())
            if abs(pt) < 0.1:
                continue
            t_sos = s.transfer(pt)
            t_fos = fos.transfer(pt)
            assert np.max(np.abs(t_sos - t_fos)) <= 1e-10 * np.max(np.abs(t_sos))


_OPERATOR_MODELS = {
    "dense-discrete": lambda: random_stable_discrete(4, 6, m=2, p=3),
    "dense-continuous": lambda: random_sos(2, 5, m=3, p=2),
    "csr-discrete": lambda: banded_sos(np.random.default_rng(7), 80, 2, 3),
    "csr-continuous": lambda: banded_sos(np.random.default_rng(8), 80, 3, 2,
                                         h=None),
}


@pytest.mark.parametrize("transpose", [False, True],
                         ids=["apply_a", "apply_at"])
@pytest.mark.parametrize("model", list(_OPERATOR_MODELS))
def test_operator_is_the_linearized_matrix(model, transpose):
    """``apply_a``/``apply_at`` write ``A @ z``/``A^T @ z`` for the dense
    ``A`` of ``linearize``, into columns of a wider buffer as the recursion
    workspace passes them, return that view and leave `z` unchanged."""
    sos = _OPERATOR_MODELS[model]()
    assert sos.is_sparse == model.startswith("csr")
    A = linearize(sos).A
    N, n = sos.order, 4
    z = np.random.default_rng(3).standard_normal((2 * N, n))
    before = z.copy()
    buffer = np.full((2 * N, n + 3), 7.0)
    out = buffer[:, :n]
    apply = sos.apply_at if transpose else sos.apply_a
    assert apply(z, out) is out
    expected = (A.T if transpose else A) @ z
    assert np.max(np.abs(out - expected)) <= 1e-12 * np.max(np.abs(expected))
    assert np.all(buffer[:, n:] == 7.0)
    assert z.tobytes() == before.tobytes()


def test_linearize_reads_the_cached_input_solve(monkeypatch):
    """``B`` is the system's ``M^{-1} F``, solved once: ``linearize`` solves
    only ``M^{-1} K`` and ``M^{-1} D`` itself."""
    sos = random_sos(5, 4, m=3, p=2)
    solved = []
    solve_mass = SecondOrderSystem.solve_mass

    def recording(self, rhs):
        solved.append(rhs.shape)
        return solve_mass(self, rhs)
    monkeypatch.setattr(SecondOrderSystem, "solve_mass", recording)
    for _ in range(2):
        fos = linearize(sos)
        assert fos.B[4:].tobytes() == sos._mass_input.tobytes()
    assert solved == [(4, 4), (4, 4), (4, 3), (4, 4), (4, 4)]


class TestTransfer:
    def test_dc_gain(self):
        s = SecondOrderSystem(1, 1, 1, 1, 1)
        assert s.transfer(0.0) == pytest.approx(1.0)

    def test_complex_point(self):
        s = SecondOrderSystem(1, 1, 1, 1, 1)
        val = s.transfer(1j)[0, 0]
        assert val == pytest.approx(-1j)
        assert abs(val) == pytest.approx(1.0)

    def test_discrete_point(self):
        s = SecondOrderSystem(1, 0, 0.25, 1, 1, h=0.1)
        assert s.transfer(1.0)[0, 0] == pytest.approx(0.8)

    def test_zero_point_rejected(self):
        s = SecondOrderSystem(1, 0, 0.25, 1, 1, h=0.1)
        with pytest.raises(ZeroPoint):
            s.transfer(0.0)

    def test_characteristic_frequency_detected(self):
        s = SecondOrderSystem(1, 0, 1, 1, 1)  # undamped: poles at +-i
        with pytest.raises(SingularAtPoint):
            s.transfer(1j)

    def test_characteristic_frequency_message(self):
        s = SecondOrderSystem(np.diag([1.0, 2.0]), np.zeros((2, 2)),
                              np.diag([4.0, 2.0]), np.ones((2, 1)),
                              np.ones((1, 2)))  # poles at +-i and +-2i
        for _ in range(2):  # a failed point is not stored
            with pytest.raises(SingularAtPoint, match=r"^characteristic "
                               r"matrix is singular at point 2j$"):
                s.transfer(2j)

    def test_overflow_is_not_finite_error(self):
        s = SecondOrderSystem(1e305, 1, 1, 1, 1)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(SingularAtPoint, match="not finite at point"):
                s.transfer(1e4j)

    def test_repeated_point_returns_fresh_copy(self):
        s = random_stable_discrete(1, 5, m=2, p=2)
        z = np.exp(0.3j)
        first = s.transfer(z)
        expected = first.copy()
        first[:] = 0.0
        again = s.transfer(z)
        assert again is not first
        assert np.array_equal(again, expected)

    def test_module_level_delegation(self):
        s = SecondOrderSystem(1, 1, 1, 1, 1)
        assert transfer(s, 0.5) == pytest.approx(s.transfer(0.5))


class TestStability:
    def test_damped_oscillator(self):
        rep = stability_report(SecondOrderSystem(1, 1, 1, 1, 1))
        assert rep.is_stable and not rep.marginal
        assert rep.margin == pytest.approx(0.5, abs=1e-12)

    def test_undamped_marginal(self):
        rep = stability_report(SecondOrderSystem(1, 0, 1, 1, 1))
        assert not rep.is_stable
        assert rep.marginal

    def test_discrete_example(self):
        rep = stability_report(SecondOrderSystem(1, 0, 0.25, 1, 1, h=0.1))
        assert rep.is_stable
        assert rep.margin == pytest.approx(0.5, abs=1e-12)

    def test_spectrum_matches_quadratic_roots(self):
        # closed-form roots of det(M s^2 + D s + K) for small diagonal systems
        rng = np.random.default_rng(7)
        for _ in range(5):
            m, d, k = rng.uniform(0.5, 2.0, 3)
            s = SecondOrderSystem(m, d, k, 1, 1)
            roots = np.roots([m, d, k])
            rep = stability_report(s)
            got = np.sort_complex(rep.spectrum)
            want = np.sort_complex(roots)
            assert np.allclose(got, want, atol=1e-10)

    def test_spectrum_matches_modal_roots_n3(self):
        # diagonal triple: the 2N spectrum is the union of per-mode quadratics
        rng = np.random.default_rng(8)
        m = rng.uniform(0.5, 2.0, 3)
        d = rng.uniform(0.1, 1.0, 3)
        k = rng.uniform(0.5, 2.0, 3)
        s = SecondOrderSystem(np.diag(m), np.diag(d), np.diag(k),
                              np.ones((3, 1)), np.ones((1, 3)))
        want = np.concatenate([np.roots([m[j], d[j], k[j]]) for j in range(3)])
        rep = stability_report(s)
        got = np.sort_complex(rep.spectrum)
        assert np.allclose(got, np.sort_complex(want), atol=1e-10)
        assert rep.is_stable == (np.max(want.real) < -1e-10)

    def test_first_order_system(self):
        fos = FirstOrderSystem(np.diag([0.3, -0.5]), np.ones((2, 1)),
                               np.ones((1, 2)), h=1.0)
        rep = stability_report(fos)
        assert rep.is_stable
        assert rep.margin == pytest.approx(0.5)
