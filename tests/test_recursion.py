import io

import numpy as np
import pytest
import scipy.linalg

import firstorder
from helpers import random_stable_discrete

from morso.errors import (
    BadParameters,
    DimensionMismatch,
    DomainMismatch,
    MaxStepsExceeded,
    NonFiniteIterate,
    RankCollapseWarning,
)
from morso.oracle import stein_gramians, subspace_angles
from morso.recursion import (
    _gesdd,
    _max_principal_angle,
    _orth,
    RecursionConfig,
    SubspaceWindow,
    assemble_controllability,
    assemble_observability,
    default_step_count,
    run_recursion,
    srlrg_step,
    srlrh_step,
)
from morso.systems import SecondOrderSystem, linearize


def _window(rng, N, n):
    return SubspaceWindow(*(np.linalg.qr(rng.standard_normal((N, n)))[0]
                            for _ in range(2)))


class TestAssembly:
    def test_zero_window_controllability(self):
        dsos = random_stable_discrete(0, 4, m=1)
        w = SubspaceWindow(np.zeros((4, 2)), np.zeros((4, 2)))
        m1 = assemble_controllability(dsos, w)
        assert m1.shape == (8, 3)
        assert np.array_equal(m1[:, :2], np.zeros((8, 2)))
        assert np.allclose(m1[4:, 2:], dsos.solve_mass(dsos.F))
        assert np.array_equal(m1[:4, 2:], np.zeros((4, 1)))

    def test_zero_window_observability(self):
        dsos = random_stable_discrete(0, 4, p=2)
        w = SubspaceWindow(np.zeros((4, 2)), np.zeros((4, 2)))
        m2 = assemble_observability(dsos, w)
        assert m2.shape == (8, 4)
        assert np.array_equal(m2[:, :2], np.zeros((8, 2)))
        assert np.array_equal(m2[4:, 2:], dsos.G.T)
        assert np.array_equal(m2[:4, 2:], np.zeros((4, 2)))

    def test_matches_linearization(self):
        dsos = random_stable_discrete(1, 6, m=2, p=2)
        fos = linearize(dsos)
        rng = np.random.default_rng(2)
        ws = _window(rng, 6, 3)
        wr = _window(rng, 6, 3)
        m1 = assemble_controllability(dsos, ws)
        m2 = assemble_observability(dsos, wr)
        ref1 = np.hstack([fos.A @ ws.stacked(), fos.B])
        ref2 = np.hstack([fos.A.T @ wr.stacked(), fos.C.T])
        assert np.max(np.abs(m1 - ref1)) <= 1e-13
        assert np.max(np.abs(m2 - ref2)) <= 1e-13

    def test_continuous_rejected(self):
        from helpers import random_sos
        sos = random_sos(3, 4)
        w = SubspaceWindow(np.zeros((4, 2)), np.zeros((4, 2)))
        with pytest.raises(DomainMismatch):
            assemble_controllability(sos, w)


@pytest.mark.parametrize("step,variant", [(srlrg_step, "srlrg"),
                                          (srlrh_step, "srlrh")])
class TestSteps:
    def test_shapes(self, step, variant):
        dsos = random_stable_discrete(4, 5, m=1, p=2)
        rng = np.random.default_rng(5)
        ws, wr = _window(rng, 5, 2), _window(rng, 5, 2)
        ns, nr, info = step(dsos, ws, wr)
        for mat in (ns.prev, ns.curr, nr.prev, nr.curr):
            assert mat.shape == (5, 2)
        assert info.sigma_s.shape == (2,)
        assert info.sigma_r.shape == (2,)

    def test_singular_values_ordered(self, step, variant):
        dsos = random_stable_discrete(5, 6, m=2, p=2)
        rng = np.random.default_rng(6)
        ws, wr = _window(rng, 6, 3), _window(rng, 6, 3)
        for _ in range(10):
            ws, wr, info = step(dsos, ws, wr)
            assert np.all(np.diff(info.sigma_s) <= 0)
            assert np.all(info.sigma_s >= 0)
            assert np.all(np.diff(info.sigma_r) <= 0)

    def test_single_step_matches_first_order(self, step, variant):
        dsos = random_stable_discrete(6, 8, m=2, p=1)
        A, B, C = firstorder.state_space(dsos)
        rng = np.random.default_rng(7)
        ws, wr = _window(rng, 8, 3), _window(rng, 8, 3)
        ostep = firstorder.rlrg_step if variant == "srlrg" else firstorder.rlrh_step
        s_ref, r_ref = ostep(A, B, C, ws.stacked(), wr.stacked(), 3)
        ns, nr, _ = step(dsos, ws, wr)
        assert np.max(np.abs(ns.stacked() - s_ref)) <= 1e-12
        assert np.max(np.abs(nr.stacked() - r_ref)) <= 1e-12

    def test_nonfinite_detected(self, step, variant):
        # a blatantly unstable difference system diverges fast
        dsos = SecondOrderSystem(np.eye(3), np.eye(3) * -5.0, np.eye(3) * 6.0,
                                 np.ones((3, 1)), np.ones((1, 3)), h=1.0)
        rng = np.random.default_rng(8)
        ws, wr = _window(rng, 3, 2), _window(rng, 3, 2)
        with pytest.raises(NonFiniteIterate):
            for _ in range(4000):
                ws, wr, _ = step(dsos, ws, wr)


def test_rank_collapse_warning_points_at_caller():
    # zero windows leave one nonzero block, G M^{-1} F, in the cross product
    dsos = random_stable_discrete(0, 3)
    w = SubspaceWindow(np.zeros((3, 2)), np.zeros((3, 2)))
    with pytest.warns(RankCollapseWarning) as record:
        srlrh_step(dsos, w, w)
    assert [r.filename for r in record] == [__file__]


def test_zero_input_side_stays_zero():
    dsos_f0 = SecondOrderSystem(np.eye(3), np.diag([0.5, 0.4, 0.3]),
                                np.diag([0.2, 0.1, 0.05]),
                                np.zeros((3, 1)), np.ones((1, 3)), h=1.0)
    rng = np.random.default_rng(9)
    ws = SubspaceWindow(np.zeros((3, 2)), np.zeros((3, 2)))
    wr = _window(rng, 3, 2)
    for _ in range(5):
        ws, wr, _ = srlrg_step(dsos_f0, ws, wr)
        assert np.array_equal(ws.prev, np.zeros((3, 2)))
        assert np.array_equal(ws.curr, np.zeros((3, 2)))


def test_hankel_symmetric_duality():
    # Symmetric quintuplet with F = G^T: pairing the windows through the
    # energy metric blkdiag(-K, M) keeps the cross product symmetric, so
    # the two sides evolve in lockstep (equal current column spaces).
    rng = np.random.default_rng(3)
    N, n = 6, 2
    Q, _ = np.linalg.qr(rng.standard_normal((N, N)))
    r = rng.uniform(0.2, 0.8, N)
    th = rng.uniform(0.1, np.pi - 0.1, N)
    Db = Q @ np.diag(-2 * r * np.cos(th)) @ Q.T
    Kb = Q @ np.diag(r * r) @ Q.T
    F = rng.standard_normal((N, 1))
    dsos = SecondOrderSystem(np.eye(N), Db, Kb, F, F.T, h=1.0)

    sp = np.linalg.qr(rng.standard_normal((N, n)))[0]
    sc = np.linalg.qr(rng.standard_normal((N, n)))[0]
    ws = SubspaceWindow(sp, sc)
    wr = SubspaceWindow(-Kb @ sp, sc)
    for _ in range(40):
        m1 = assemble_controllability(dsos, ws)
        m2 = assemble_observability(dsos, wr)
        cross = m2.T @ m1
        assert np.max(np.abs(cross - cross.T)) <= 1e-12 * np.max(np.abs(cross))
        ws, wr, _ = srlrh_step(dsos, ws, wr)
        angle = np.max(scipy.linalg.subspace_angles(ws.curr, wr.curr))
        assert angle < 1e-8


class TestRunRecursion:
    def test_default_step_count(self):
        dsos = random_stable_discrete(10, 24)
        assert default_step_count(dsos) == 144

    def test_output_shapes(self):
        dsos = random_stable_discrete(11, 7, m=2, p=2)
        for algo in ("srlrg", "srlrh"):
            S, R, diag = run_recursion(dsos, RecursionConfig(n=3, seed=1), algo)
            assert S.shape == (7, 3) and R.shape == (7, 3)
            assert diag.steps_taken == default_step_count(dsos)
            assert diag.termination == "fixed-steps"
            S2, R2, diag2 = run_recursion(
                dsos, RecursionConfig(n=3, seed=1, angle_tol=1e-6,
                                      max_steps=2000), algo)
            assert S2.shape == (7, 3) and R2.shape == (7, 3)
            assert diag2.termination == "angle-converged"

    def test_determinism(self):
        dsos = random_stable_discrete(12, 6, m=1, p=1)
        cfg = RecursionConfig(n=2, seed=42)
        S1, R1, d1 = run_recursion(dsos, cfg, "srlrh")
        S2, R2, d2 = run_recursion(dsos, cfg, "srlrh")
        assert np.array_equal(S1, S2) and np.array_equal(R1, R2)
        assert all(np.array_equal(a, b) for a, b in zip(d1.sigma_s, d2.sigma_s))
        assert d1.angles_s == d2.angles_s

    def test_angle_mode_matches_fixed(self):
        dsos = random_stable_discrete(1, 10, m=1, p=1, rho_max=0.6)
        S_fix, _, _ = run_recursion(dsos, RecursionConfig(n=4, seed=7), "srlrg")
        S_ang, _, diag = run_recursion(
            dsos, RecursionConfig(n=4, seed=7, angle_tol=1e-8), "srlrg")
        assert diag.steps_taken < default_step_count(dsos)
        assert np.max(subspace_angles(S_fix, S_ang)) < 1e-6

    def test_angle_mode_budget_exceeded(self):
        dsos = random_stable_discrete(13, 6, m=1, p=1)
        with pytest.raises(MaxStepsExceeded):
            run_recursion(dsos, RecursionConfig(n=2, seed=0, angle_tol=1e-12,
                                                max_steps=3), "srlrg")

    def test_stacked_window_tracks_gramian_subspace(self):
        # module-level variant of the convergence property: the stacked
        # window approaches the dominant n-eigenspace of the reachability
        # Gramian when the spectrum has a gap there
        found = 0
        for seed in range(1, 30):
            dsos = random_stable_discrete(seed, 10, m=2, p=2, rho_max=0.97,
                                          dominant=1, boost=30.0,
                                          identity_mass=True)
            pair = stein_gramians(linearize(dsos))
            lam, V = np.linalg.eigh(pair.Wc)
            lam, V = lam[::-1], V[:, ::-1]
            n = 2
            if lam[n] / lam[n - 1] >= 0.1:
                continue
            _, _, diag = run_recursion(dsos, RecursionConfig(n=n, seed=seed),
                                       "srlrg")
            stack = diag.final_window_s.stacked()
            angle = np.max(subspace_angles(stack, V[:, :n]))
            assert angle < 0.15
            found += 1
            if found >= 5:
                break
        assert found >= 5

    def test_config_validation(self):
        with pytest.raises(BadParameters):
            RecursionConfig(n=0)
        with pytest.raises(BadParameters):
            RecursionConfig(n=2, tau=5, angle_tol=0.1)
        with pytest.raises(BadParameters):
            RecursionConfig(n=2, angle_tol=1.5)
        dsos = random_stable_discrete(14, 4)
        with pytest.raises(BadParameters):
            run_recursion(dsos, RecursionConfig(n=9), "srlrg")
        with pytest.raises(BadParameters):
            run_recursion(dsos, RecursionConfig(n=2), "newton")

    def test_window_validation(self):
        with pytest.raises(DimensionMismatch):
            SubspaceWindow(np.zeros((4, 2)), np.zeros((3, 2)))
        with pytest.raises(DimensionMismatch):
            SubspaceWindow(np.zeros((2, 4)), np.zeros((2, 4)))


def test_diagnostics_csv():
    dsos = random_stable_discrete(15, 5, m=1, p=1)
    _, _, diag = run_recursion(dsos, RecursionConfig(n=2, seed=3, tau=4),
                               "srlrg")
    buf = io.StringIO()
    diag.to_csv(buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "step,sigma_1,sigma_2,angle"
    assert len(lines) == 5
    first = lines[1].split(",")
    assert int(first[0]) == 1
    assert float(first[1]) >= float(first[2]) >= 0.0


def _angle_cases():
    rng = np.random.default_rng(21)
    a = rng.standard_normal((30, 4))
    rank2 = rng.standard_normal((30, 2)) @ rng.standard_normal((2, 4))
    yield "random", a, rng.standard_normal((30, 4))
    yield "wider", a, rng.standard_normal((30, 6))
    yield "narrower", a, rng.standard_normal((30, 2))
    yield "equal", a, a.copy()
    yield "nearly equal", a, a + 1e-12 * rng.standard_normal(a.shape)
    yield "close", a, a + 1e-7 * rng.standard_normal(a.shape)
    yield "orthogonal", np.eye(30)[:, :4], np.eye(30)[:, 4:8]
    yield "rank deficient", rank2, a
    yield "both rank deficient", rank2, rank2 + 1e-9 * a
    yield "repeated column", np.hstack([a[:, :2], a[:, :2]]), a
    yield "zero", np.zeros((30, 4)), a


@pytest.mark.parametrize("case", list(_angle_cases()), ids=lambda c: c[0])
def test_cached_basis_angle_matches_subspace_angles(case):
    _, a, b = case
    expected = scipy.linalg.subspace_angles(a, b)
    expected = float(np.max(expected)) if expected.size else 0.0
    assert _max_principal_angle(_orth(a), _orth(b)) == expected


def _svd_cases():
    rng = np.random.default_rng(5)
    yield "tall", rng.standard_normal((30, 4))
    yield "wide", rng.standard_normal((4, 30))
    yield "square", rng.standard_normal((6, 6))
    yield "rank deficient", (rng.standard_normal((30, 2))
                             @ rng.standard_normal((2, 5)))
    yield "wide rank deficient", (rng.standard_normal((3, 1))
                                  @ rng.standard_normal((1, 8)))
    yield "no columns", np.zeros((30, 0))
    yield "no rows", np.zeros((0, 4))


@pytest.mark.parametrize("case", list(_svd_cases()), ids=lambda c: c[0])
def test_direct_gesdd_matches_scipy(case):
    _, a = case
    basis = _orth(a)
    expected = scipy.linalg.orth(a)
    assert basis.shape == expected.shape
    assert np.array_equal(basis, expected)
    values = _gesdd(a, compute_uv=False)
    assert values.shape == (min(a.shape),)
    assert np.array_equal(values, scipy.linalg.svdvals(a))


def test_logged_angles_are_subspace_angles_of_consecutive_iterates():
    dsos = random_stable_discrete(16, 8, m=2, p=2)
    _, _, diag = run_recursion(dsos, RecursionConfig(n=3, seed=4, tau=6),
                               "srlrh")
    rng = np.random.default_rng(4)
    start = [np.linalg.qr(rng.standard_normal((8, 3)))[0] for _ in range(4)]
    ws, wr = SubspaceWindow(*start[:2]), SubspaceWindow(*start[2:])
    for i in range(6):
        new_s, new_r, _ = srlrh_step(dsos, ws, wr)
        assert diag.angles_s[i] == np.max(
            scipy.linalg.subspace_angles(ws.curr, new_s.curr))
        assert diag.angles_r[i] == np.max(
            scipy.linalg.subspace_angles(wr.curr, new_r.curr))
        ws, wr = new_s, new_r
