import numpy as np
import pytest
import scipy.linalg

from morso.bench import generate_msd_chain
from morso.discretize import default_step, discretize
from morso.errors import (
    BadParameters,
    DimensionMismatch,
    DomainMismatch,
    OrderTooLarge,
    RankDeficient,
    UnstableSystem,
)
from morso.metrics import error_response
from morso.oracle import (
    balancing_factors,
    dense_balanced_truncation,
    stein_gramians,
    subspace_angles,
)
from morso.systems import FirstOrderSystem, linearize, stability_report

from helpers import known_hsv_fos, random_stable_fos


def _chain_fos(N, h=None):
    """First-order form of a discretized MSD chain; ``h=None`` takes the
    default step, where the spectral radius is closest to one."""
    sos = generate_msd_chain(N, stiffness=1.0, damping=1.0, seed=1)
    step = default_step(sos) if h is None else h
    return linearize(discretize(sos, step, stability_check=False))


def _kronecker_stein(A, Q):
    # Independent reference: the Stein equation as one dense linear system.
    d = A.shape[0]
    w = np.linalg.solve(np.eye(d * d) - np.kron(A, A), Q.reshape(-1, order="F"))
    return w.reshape((d, d), order="F")


class TestSteinGramians:
    def test_zero_dynamics(self):
        fos = FirstOrderSystem(np.zeros((3, 3)), np.ones((3, 1)),
                               np.ones((1, 3)), h=1.0)
        pair = stein_gramians(fos)
        assert np.allclose(pair.Wc, fos.B @ fos.B.T, atol=1e-14)
        assert np.allclose(pair.Wo, fos.C.T @ fos.C, atol=1e-14)

    def test_scalar_geometric_series(self):
        fos = FirstOrderSystem([[0.5]], [[1.0]], [[1.0]], h=1.0)
        pair = stein_gramians(fos)
        assert pair.Wc[0, 0] == pytest.approx(4.0 / 3.0, rel=1e-13)

    def test_residual_certificate(self):
        fos = random_stable_fos(1, 20, m=2, p=2, rho=0.9)
        pair = stein_gramians(fos)
        qc = np.linalg.norm(fos.B @ fos.B.T, "fro")
        qo = np.linalg.norm(fos.C.T @ fos.C, "fro")
        assert pair.residual_c < 1e-12 * qc
        assert pair.residual_o < 1e-12 * qo

    def test_matches_scipy(self):
        fos = random_stable_fos(2, 16, m=2, p=1, rho=0.85)
        pair = stein_gramians(fos)
        ref = scipy.linalg.solve_discrete_lyapunov(fos.A, fos.B @ fos.B.T)
        assert np.max(np.abs(pair.Wc - ref)) <= 1e-11 * np.max(np.abs(ref))

    def test_dimension_80(self):
        # a larger random system keeps the certificate and semidefiniteness
        fos = random_stable_fos(3, 80, m=2, p=2, rho=0.95)
        pair = stein_gramians(fos)
        qc = np.linalg.norm(fos.B @ fos.B.T, "fro")
        assert pair.residual_c < 1e-12 * qc
        lam = np.linalg.eigvalsh(pair.Wc)
        assert lam.min() >= -1e-10 * lam.max()

    @pytest.mark.parametrize("N", [6, 12])
    @pytest.mark.parametrize("h", [0.5, None], ids=["h0.5", "default_step"])
    def test_chain_matches_kronecker(self, N, h):
        fos = _chain_fos(N, h)
        pair = stein_gramians(fos)
        for W, A, Q in ((pair.Wc, fos.A, fos.B @ fos.B.T),
                        (pair.Wo, fos.A.T, fos.C.T @ fos.C)):
            ref = _kronecker_stein(A, Q)
            assert np.linalg.norm(W - ref) <= 1e-9 * np.linalg.norm(ref)

    def test_chain_residual_at_dimension_64(self):
        # spectral radius 1 - 2.3e-3: the series needs ~2^14 terms
        fos = _chain_fos(32, 0.5)
        pair = stein_gramians(fos)
        assert pair.residual_c <= 1e-10 * np.linalg.norm(fos.B @ fos.B.T, "fro")
        assert pair.residual_o <= 1e-10 * np.linalg.norm(fos.C.T @ fos.C, "fro")

    def test_symmetry_and_semidefiniteness(self):
        fos = random_stable_fos(4, 14, m=1, p=1)
        pair = stein_gramians(fos)
        for W in (pair.Wc, pair.Wo):
            assert np.max(np.abs(W - W.T)) <= 1e-12 * np.max(np.abs(W))
            lam = np.linalg.eigvalsh(W)
            assert lam.min() >= -1e-10 * max(lam.max(), 1.0)

    def test_unstable_rejected(self):
        fos = FirstOrderSystem([[1.0]], [[1.0]], [[1.0]], h=1.0)
        with pytest.raises(UnstableSystem):
            stein_gramians(fos)

    def test_continuous_rejected(self):
        fos = FirstOrderSystem([[-0.5]], [[1.0]], [[1.0]], h=None)
        with pytest.raises(DomainMismatch):
            stein_gramians(fos)

    def test_rejects_what_stability_report_calls_unstable(self):
        # spectral radii 1 - k 1e-11 straddle the marginal band's edge
        verdicts = set()
        for k in range(21):
            A = np.diag([0.5, 1.0 - k * 1e-11])
            fos = FirstOrderSystem(A, [[1.0], [1.0]], [[1.0, 1.0]], h=1.0)
            stable = stability_report(fos).is_stable
            verdicts.add(stable)
            if stable:
                stein_gramians(fos)
            else:
                with pytest.raises(UnstableSystem, match="spectral radius"):
                    stein_gramians(fos)
        assert verdicts == {False, True}


class TestBalancedTruncation:
    def test_hsv_match_eig_product(self):
        fos, sigma = known_hsv_fos(0, 12)
        pair = stein_gramians(fos)
        _, hsv = dense_balanced_truncation(fos, 6)
        ev = np.sort(np.linalg.eigvals(pair.Wc @ pair.Wo).real)[::-1]
        ref = np.sqrt(np.clip(ev, 0.0, None))
        assert np.max(np.abs(hsv - ref)) <= 1e-10 * hsv[0]
        assert np.max(np.abs(hsv - sigma)) <= 1e-10 * sigma[0]

    def test_full_order_reproduces_transfer(self):
        fos = random_stable_fos(5, 12, m=2, p=2)
        red, _ = dense_balanced_truncation(fos, 12)
        for z in (1.5, 2.0 + 1.0j, np.exp(0.7j)):
            t0, t1 = fos.transfer(z), red.transfer(z)
            assert np.max(np.abs(t0 - t1)) <= 1e-9 * np.max(np.abs(t0))

    def test_hand_built_balanced_cascade(self):
        # decoupled two-channel realization: Gramians diagonal by design,
        # truncation must keep the larger-gain channel
        cas = FirstOrderSystem(np.diag([0.5, 0.2]), np.diag([1.0, 0.5]),
                               np.diag([1.0, 0.5]), h=1.0)
        red, hsv = dense_balanced_truncation(cas, 1)
        assert hsv == pytest.approx([4.0 / 3.0, 0.25 / 0.96], rel=1e-12)
        z = 2.0
        expected = np.array([[1.0 / (z - 0.5), 0.0], [0.0, 0.0]])
        assert np.max(np.abs(red.transfer(z) - expected)) <= 1e-12

    def test_reduced_is_stable_across_seeds(self):
        # classic balanced-truncation property, checked empirically
        for seed in range(100):
            fos = random_stable_fos(seed, 8, m=1, p=1, rho=0.9)
            red, _ = dense_balanced_truncation(fos, 4)
            rho = np.max(np.abs(np.linalg.eigvals(red.A)))
            assert rho < 1.0, seed

    def test_error_bound(self):
        for seed in range(5):
            fos = random_stable_fos(seed + 50, 16, m=2, p=2, rho=0.85)
            for order in (4, 8):
                red, hsv = dense_balanced_truncation(fos, order)
                err = error_response(fos, red)
                bound = 2.0 * float(np.sum(hsv[order:]))
                assert err.hinf_estimate <= bound * 1.05

    def test_order_guard(self):
        fos = random_stable_fos(6, 10)
        with pytest.raises(OrderTooLarge):
            dense_balanced_truncation(fos, 11)
        with pytest.raises(OrderTooLarge):
            dense_balanced_truncation(fos, 0)

    @pytest.mark.parametrize("order", [2.5, 2.0])
    def test_order_must_be_an_integer(self, order):
        """A fractional order used to end in an IndexError."""
        fos = random_stable_fos(6, 10)
        with pytest.raises(BadParameters, match="^order must be an integer"):
            dense_balanced_truncation(fos, order)
        with pytest.raises(BadParameters, match="^order must be an integer"):
            balancing_factors(fos).truncate(order)

    def test_order_above_hankel_rank(self):
        # the input never reaches the second state: one Hankel singular
        # value is nonzero
        fos = FirstOrderSystem(np.diag([0.5, 0.5]), [[1.0], [0.0]],
                               [[1.0, 1.0]], h=1.0)
        factors = balancing_factors(fos)
        with pytest.raises(OrderTooLarge, match="numerical Hankel rank"):
            factors.truncate(2)


class TestSubspaceAngles:
    def test_identical(self):
        rng = np.random.default_rng(0)
        P, _ = np.linalg.qr(rng.standard_normal((8, 3)))
        assert np.max(subspace_angles(P, P)) <= 1e-7

    def test_orthogonal_complements(self):
        P = np.eye(6)[:, :3]
        Q = np.eye(6)[:, 3:]
        assert np.allclose(subspace_angles(P, Q), np.pi / 2, atol=1e-12)

    def test_embedded_rotation(self):
        theta = 0.3
        P = np.zeros((5, 2))
        P[0, 0] = P[2, 1] = 1.0
        Q = np.zeros((5, 2))
        Q[0, 0], Q[1, 0], Q[2, 1] = np.cos(theta), np.sin(theta), 1.0
        ang = subspace_angles(P, Q)
        assert np.all(np.diff(ang) >= 0)
        assert abs(ang.max() - theta) <= 1e-12

    def test_tiny_angle_resolved(self):
        theta = 1e-10
        P = np.array([[1.0], [0.0]])
        Q = np.array([[np.cos(theta)], [np.sin(theta)]])
        assert abs(subspace_angles(P, Q)[0] - theta) <= 1e-12 * theta

    def test_symmetric_and_rotation_invariant(self):
        rng = np.random.default_rng(1)
        P = rng.standard_normal((10, 3))
        Q = rng.standard_normal((10, 3))
        a1 = subspace_angles(P, Q)
        a2 = subspace_angles(Q, P)
        assert np.max(np.abs(a1 - a2)) <= 1e-12
        O, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        a3 = subspace_angles(P @ O, Q)
        assert np.max(np.abs(a1 - a3)) <= 1e-12

    def test_rank_deficient_rejected(self):
        P = np.zeros((5, 2))
        P[:, 0] = 1.0
        P[:, 1] = 2.0
        Q = np.eye(5)[:, :2]
        with pytest.raises(RankDeficient):
            subspace_angles(P, Q)

    def test_row_mismatch(self):
        with pytest.raises(DimensionMismatch):
            subspace_angles(np.eye(4)[:, :2], np.eye(5)[:, :2])
