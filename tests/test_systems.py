import numpy as np
import pytest
import scipy.linalg

from morso.errors import (
    ConditioningWarning,
    DimensionMismatch,
    SingularAtPoint,
    SingularMass,
    ZeroPoint,
)
from morso.systems import (
    _checked_lu,
    _lu_solve,
    FirstOrderSystem,
    SecondOrderSystem,
    linearize,
    stability_report,
    transfer,
)

from helpers import random_sos, random_stable_discrete


class TestConstruction:
    def test_scalar_promotion(self):
        s = SecondOrderSystem(1, 0, 1, 1, 1)
        assert s.order == 1 and s.n_inputs == 1 and s.n_outputs == 1
        assert s.is_continuous and not s.is_discrete

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


@pytest.mark.parametrize("kind", ["real", "complex", "real factor, complex rhs"])
def test_lu_helper_matches_scipy(kind):
    rng = np.random.default_rng(3)
    a = rng.standard_normal((7, 7))
    b = rng.standard_normal((7, 3))
    if kind != "real":
        b = b + 1j * rng.standard_normal((7, 3))
    if kind == "complex":
        a = a + 1j * rng.standard_normal((7, 7))
    (lu, piv), rcond = _checked_lu(a, SingularMass, "broken", "singular {}")
    ref_lu, ref_piv = scipy.linalg.lu_factor(a)
    assert np.array_equal(lu, ref_lu)
    assert np.array_equal(piv, ref_piv)
    assert 0.0 < rcond <= 1.0
    for trans in (0, 1):
        assert np.array_equal(
            _lu_solve((lu, piv), b, trans),
            scipy.linalg.lu_solve((ref_lu, ref_piv), b, trans=trans))


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
