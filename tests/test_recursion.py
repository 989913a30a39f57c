import io
import re
import tracemalloc

from hypothesis import example, given, settings, strategies as st
import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

import firstorder
from helpers import banded_sos, count_angle_kernels, random_stable_discrete

from morso.errors import (
    BadParameters,
    DimensionMismatch,
    DomainMismatch,
    MaxStepsExceeded,
    NonFiniteIterate,
    RankCollapseWarning,
    SvdFailure,
)
from morso import recursion
from morso.bench import generate_msd_chain
from morso.discretize import discretize
from morso.oracle import stein_gramians, subspace_angles
from morso.recursion import (
    ALGORITHMS,
    _gesdd,
    _max_principal_angle,
    _orth,
    _svd,
    RecursionConfig,
    assemble_controllability,
    assemble_observability,
    default_step_count,
    run_recursion,
    srlrg_step,
    srlrh_step,
)
from morso.systems import SecondOrderSystem, linearize


def _iterate(rng, N, n):
    """Stacked 2N-by-n iterate ``[prev; curr]`` of two orthonormal halves."""
    return np.vstack([np.linalg.qr(rng.standard_normal((N, n)))[0]
                      for _ in range(2)])


class TestAssembly:
    def test_zero_window_controllability(self):
        dsos = random_stable_discrete(0, 4, m=1)
        m1 = assemble_controllability(dsos, np.zeros((8, 2)))
        assert m1.shape == (8, 3)
        assert np.array_equal(m1[:, :2], np.zeros((8, 2)))
        assert np.allclose(m1[4:, 2:], dsos.solve_mass(dsos.F))
        assert np.array_equal(m1[:4, 2:], np.zeros((4, 1)))

    def test_zero_window_observability(self):
        dsos = random_stable_discrete(0, 4, p=2)
        m2 = assemble_observability(dsos, np.zeros((8, 2)))
        assert m2.shape == (8, 4)
        assert np.array_equal(m2[:, :2], np.zeros((8, 2)))
        assert np.array_equal(m2[4:, 2:], dsos.G.T)
        assert np.array_equal(m2[:4, 2:], np.zeros((4, 2)))

    def test_observability_makes_no_input_solve(self, monkeypatch):
        # Only the controllability side needs M^{-1} F; assembling the
        # observability side makes its one M^{-T} solve and no M solve.
        dsos = random_stable_discrete(0, 4, m=1, p=2)
        calls = []
        for name in ("solve_mass", "solve_mass_t"):
            kernel = getattr(dsos, name)
            monkeypatch.setattr(dsos, name, lambda rhs, kernel=kernel, name=name:
                                calls.append(name) or kernel(rhs))
        assemble_observability(dsos, _iterate(np.random.default_rng(0), 4, 2))
        assert calls == ["solve_mass_t"]
        assemble_controllability(dsos, _iterate(np.random.default_rng(1), 4, 2))
        assert sorted(calls[1:]) == ["solve_mass", "solve_mass"]

    def test_matches_linearization(self):
        dsos = random_stable_discrete(1, 6, m=2, p=2)
        fos = linearize(dsos)
        rng = np.random.default_rng(2)
        S = _iterate(rng, 6, 3)
        R = _iterate(rng, 6, 3)
        m1 = assemble_controllability(dsos, S)
        m2 = assemble_observability(dsos, R)
        ref1 = np.hstack([fos.A @ S, fos.B])
        ref2 = np.hstack([fos.A.T @ R, fos.C.T])
        assert np.max(np.abs(m1 - ref1)) <= 1e-13
        assert np.max(np.abs(m2 - ref2)) <= 1e-13

    def test_continuous_rejected(self):
        from helpers import random_sos
        sos = random_sos(3, 4)
        with pytest.raises(DomainMismatch):
            assemble_controllability(sos, np.zeros((8, 2)))


@pytest.mark.parametrize("step,variant", [(srlrg_step, "srlrg"),
                                          (srlrh_step, "srlrh")])
class TestSteps:
    def test_shapes(self, step, variant):
        dsos = random_stable_discrete(4, 5, m=1, p=2)
        rng = np.random.default_rng(5)
        S, R = _iterate(rng, 5, 2), _iterate(rng, 5, 2)
        ns, nr, sigma_s, sigma_r = step(dsos, S, R)
        assert ns.shape == (10, 2) and nr.shape == (10, 2)
        assert sigma_s.shape == (2,)
        assert sigma_r.shape == (2,)

    def test_singular_values_ordered(self, step, variant):
        dsos = random_stable_discrete(5, 6, m=2, p=2)
        rng = np.random.default_rng(6)
        S, R = _iterate(rng, 6, 3), _iterate(rng, 6, 3)
        for _ in range(10):
            S, R, sigma_s, sigma_r = step(dsos, S, R)
            assert np.all(np.diff(sigma_s) <= 0)
            assert np.all(sigma_s >= 0)
            assert np.all(np.diff(sigma_r) <= 0)

    def test_single_step_matches_first_order(self, step, variant):
        dsos = random_stable_discrete(6, 8, m=2, p=1)
        A, B, C = firstorder.state_space(dsos)
        rng = np.random.default_rng(7)
        S, R = _iterate(rng, 8, 3), _iterate(rng, 8, 3)
        ostep = firstorder.rlrg_step if variant == "srlrg" else firstorder.rlrh_step
        s_ref, r_ref = ostep(A, B, C, S, R, 3)
        ns, nr, _, _ = step(dsos, S, R)
        assert np.max(np.abs(ns - s_ref)) <= 1e-12
        assert np.max(np.abs(nr - r_ref)) <= 1e-12

    def test_nonfinite_detected(self, step, variant):
        # a blatantly unstable difference system diverges fast
        dsos = SecondOrderSystem(np.eye(3), np.eye(3) * -5.0, np.eye(3) * 6.0,
                                 np.ones((3, 1)), np.ones((1, 3)), h=1.0)
        rng = np.random.default_rng(8)
        S, R = _iterate(rng, 3, 2), _iterate(rng, 3, 2)
        with pytest.raises(NonFiniteIterate):
            for _ in range(4000):
                S, R, _, _ = step(dsos, S, R)


# Malformed iterates for a system of order N = 4 (update matrices have
# 2N = 8 rows), each paired with a well-formed 8-by-2 iterate.  The last
# case is well formed on its own; only the steps, which take both sides,
# reject it.
_MALFORMED = [
    ("1-D", np.zeros(8), True),
    ("odd row count", np.zeros((7, 2)), True),
    ("N rows", np.zeros((4, 2)), True),
    ("more columns than N", np.zeros((8, 5)), True),
    ("other width", np.zeros((8, 3)), False),
]


@pytest.mark.parametrize("name,bad,alone", _MALFORMED,
                         ids=[case[0] for case in _MALFORMED])
def test_malformed_iterate_raises_dimension_mismatch(name, bad, alone):
    dsos = random_stable_discrete(0, 4, m=1, p=1)
    good = _iterate(np.random.default_rng(0), 4, 2)
    for step in (srlrg_step, srlrh_step):
        for S, R in ((bad, good), (good, bad)):
            with pytest.raises(DimensionMismatch):
                step(dsos, S, R)
    for assemble in (assemble_controllability, assemble_observability):
        if alone:
            with pytest.raises(DimensionMismatch):
                assemble(dsos, bad)
        else:
            assemble(dsos, bad)


def _step_and_assembly_bytes(dsos, S, R):
    """Bytes of both steps' outputs and both assemblies of (S, R)."""
    out = [assemble_controllability(dsos, S), assemble_observability(dsos, R)]
    for step in (srlrg_step, srlrh_step):
        out.extend(step(dsos, S, R))
    return [a.tobytes() for a in out]


@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "csr"])
@pytest.mark.parametrize("kind", ["fortran order", "integer"])
def test_iterate_layout_and_dtype_do_not_change_bits(kind, sparse):
    """An F-ordered or integer-valued iterate steps and assembles to the
    same bits as its C-ordered float64 copy."""
    rng = np.random.default_rng(10)
    N, n = (60, 3) if sparse else (6, 3)
    dsos = (banded_sos(rng, N, 2, 1) if sparse
            else random_stable_discrete(10, N, m=2, p=1))
    if kind == "integer":
        S, R = (rng.integers(-3, 4, (2 * N, n)) for _ in range(2))
    else:
        S, R = (np.asfortranarray(_iterate(rng, N, n)) for _ in range(2))
    copies = [np.ascontiguousarray(x, dtype=float) for x in (S, R)]
    assert not S.flags.c_contiguous or S.dtype != float
    assert (_step_and_assembly_bytes(dsos, S, R)
            == _step_and_assembly_bytes(dsos, *copies))


def test_step_leaves_its_inputs_unchanged():
    dsos = random_stable_discrete(4, 5, m=1, p=2)
    rng = np.random.default_rng(11)
    S, R = _iterate(rng, 5, 2), _iterate(rng, 5, 2)
    before = S.copy(), R.copy()
    for step in (srlrg_step, srlrh_step):
        new_s, new_r, _, _ = step(dsos, S, R)
        assert not np.shares_memory(new_s, S) and not np.shares_memory(new_r, R)
        assert S.tobytes() == before[0].tobytes()
        assert R.tobytes() == before[1].tobytes()


def test_rank_collapse_warning_points_at_caller():
    # zero iterates leave one nonzero block, G M^{-1} F, in the cross product
    dsos = random_stable_discrete(0, 3)
    zero = np.zeros((6, 2))
    with pytest.warns(RankCollapseWarning) as record:
        srlrh_step(dsos, zero, zero)
    assert [r.filename for r in record] == [__file__]


def test_zero_input_side_stays_zero():
    dsos_f0 = SecondOrderSystem(np.eye(3), np.diag([0.5, 0.4, 0.3]),
                                np.diag([0.2, 0.1, 0.05]),
                                np.zeros((3, 1)), np.ones((1, 3)), h=1.0)
    rng = np.random.default_rng(9)
    S = np.zeros((6, 2))
    R = _iterate(rng, 3, 2)
    for _ in range(5):
        S, R, _, _ = srlrg_step(dsos_f0, S, R)
        assert np.array_equal(S, np.zeros((6, 2)))


def test_hankel_symmetric_duality():
    # Symmetric quintuplet with F = G^T: pairing the iterates through the
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
    S = np.vstack([sp, sc])
    R = np.vstack([-Kb @ sp, sc])
    for _ in range(40):
        m1 = assemble_controllability(dsos, S)
        m2 = assemble_observability(dsos, R)
        cross = m2.T @ m1
        assert np.max(np.abs(cross - cross.T)) <= 1e-12 * np.max(np.abs(cross))
        S, R, _, _ = srlrh_step(dsos, S, R)
        angle = np.max(scipy.linalg.subspace_angles(S[N:], R[N:]))
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
        # iterate approaches the dominant n-eigenspace of the reachability
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
            angle = np.max(subspace_angles(diag.final_s, V[:, :n]))
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

    @pytest.mark.parametrize("tau", [None, 5])
    def test_max_steps_needs_angle_tol(self, tau):
        with pytest.raises(BadParameters, match="needs angle_tol"):
            RecursionConfig(n=2, tau=tau, max_steps=3)
        assert RecursionConfig(n=2, angle_tol=0.1, max_steps=3).max_steps == 3


@pytest.mark.parametrize("kwargs, name", [
    ({"n": 2.5}, "n"),
    ({"n": 2, "tau": 2.5}, "tau"),
    ({"n": 2, "seed": 1.5}, "seed"),
    ({"n": 2, "angle_tol": 0.1, "max_steps": 2.5}, "max_steps"),
    ({"n": 3.0}, "n"),
    ({"n": "3"}, "n"),
    ({"n": None}, "n"),
], ids=["n", "tau", "seed", "max_steps", "integral-float", "string", "none"])
def test_config_integers_must_be_integers(kwargs, name):
    """A non-integer count or seed fails at construction, not deep in numpy."""
    with pytest.raises(BadParameters, match=f"^{name} must be an integer, got "):
        RecursionConfig(**kwargs)


@pytest.mark.parametrize("angle_tol", [0.0, -0.1, 1.0, 1.5])
def test_config_angle_tol_must_lie_in_unit_interval(angle_tol):
    with pytest.raises(BadParameters, match=r"^angle_tol must lie in \(0, 1\), "
                       f"got {angle_tol}$"):
        RecursionConfig(n=2, angle_tol=angle_tol)


def test_config_tau_conflicts_with_angle_tol():
    with pytest.raises(BadParameters,
                       match="^give either tau or angle_tol, not both$"):
        RecursionConfig(n=2, tau=5, angle_tol=0.1)


@pytest.mark.parametrize("angle_tol", ["0.1", [0.1]], ids=["string", "list"])
def test_config_angle_tol_must_be_real(angle_tol):
    """A string tolerance used to end in a TypeError from the comparison."""
    with pytest.raises(BadParameters,
                       match="^angle_tol must be a real number, got "):
        RecursionConfig(n=2, angle_tol=angle_tol)


def test_config_accepts_numpy_integers():
    config = RecursionConfig(n=np.int64(2), seed=np.uint8(3), tau=np.int32(4))
    dsos = random_stable_discrete(4, 6)
    _, _, diag = run_recursion(dsos, config, "srlrg")
    assert diag.steps_taken == 4
    RecursionConfig(n=np.int16(1), angle_tol=0.1, max_steps=np.int64(5))


@pytest.mark.parametrize("kwargs, message", [
    ({"tau": 0}, "tau must be >= 1, got 0"),
    ({"angle_tol": 0.1, "max_steps": 0}, "max_steps must be >= 1, got 0"),
], ids=["tau", "max_steps"])
def test_step_counts_below_one_rejected(kwargs, message):
    with pytest.raises(BadParameters, match=f"^{message}$"):
        RecursionConfig(n=1, **kwargs)


def test_diagnostics_csv(tmp_path):
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
    # The exact bytes of the per-cell formatting: repr of each value as a
    # Python float, the larger angle of each step last.
    rows = ["step,sigma_1,sigma_2,angle"] + [
        ",".join([str(i + 1)] + [repr(float(v)) for v in diag.sigma_s[i]]
                 + [repr(float(max(diag.angles_s[i], diag.angles_r[i])))])
        for i in range(diag.steps_taken)]
    expected = "".join(row + "\n" for row in rows)
    assert buf.getvalue() == expected
    diag.to_csv(tmp_path / "diagnostics.csv")
    assert (tmp_path / "diagnostics.csv").read_bytes() == expected.encode()


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
    # as tall as the iterates of long chains
    for rows, cols in ((400, 6), (800, 7)):
        t = rng.standard_normal((rows, cols))
        yield f"tall {rows}x{cols}", t, rng.standard_normal((rows, cols))
        yield (f"tall {rows}x{cols} nearly equal", t,
               t + 1e-12 * rng.standard_normal(t.shape))
        yield f"tall {rows}x{cols} close", t, t + 1e-7 * rng.standard_normal(t.shape)
        yield (f"tall {rows}x{cols} rank deficient",
               t[:, :3] @ rng.standard_normal((3, cols)), t)


def _assert_angle_close(angle, expected, resolution=0.0):
    """The accuracy contract of the diagnostic angles against scipy, give or
    take scipy's own `resolution`."""
    assert abs(angle - expected) <= max(1e-12 * expected, 1e-15) + resolution


@pytest.mark.parametrize("case", list(_angle_cases()), ids=lambda c: c[0])
def test_cached_basis_angle_matches_subspace_angles(case):
    name, a, b = case
    expected = scipy.linalg.subspace_angles(a, b)
    expected = float(np.max(expected)) if expected.size else 0.0
    angle = _max_principal_angle(_orth(a), _orth(b))
    if name == "repeated column":
        # The true angle is 0: scipy reads the orthogonality error of its
        # SVD bases (1.45e-15), this code that of the QR basis of b
        # (4.2e-16), as in the nested tall test below.
        assert angle <= max(expected, 1e-15)
    else:
        _assert_angle_close(angle, expected)


@settings(max_examples=300, deadline=None)
@given(cols=st.integers(1, 7),
       ratio=st.sampled_from([2, 47, 48, 96]),
       kind=st.sampled_from(["full", "rank deficient", "wider", "narrower"]),
       log_angle=st.floats(-14.0, np.log10(np.pi / 2)),
       seed=st.integers(0, 2**32 - 1))
def test_angle_kernels_match_subspace_angles(cols, ratio, kind, log_angle,
                                             seed):
    """``_max_principal_angle(_orth(a), _orth(b))`` keeps the accuracy
    contract from 2 to 96 rows per column, with b's range turned
    away from a's by a largest angle from 1e-14 to pi/2; rank-deficient and
    unequal-rank pairs take the fallback paths."""
    rng = np.random.default_rng(seed)
    rows = ratio * cols
    a = rng.standard_normal((rows, cols))
    rank = cols
    if kind == "rank deficient" and cols > 1:
        rank = int(rng.integers(1, cols))
        a = a[:, :rank] @ rng.standard_normal((rank, cols))
    q = scipy.linalg.orth(a)
    away = rng.standard_normal(rows)
    away -= q @ (q.T @ away)
    theta = 10.0 ** log_angle
    q[:, 0] = np.cos(theta) * q[:, 0] + np.sin(theta) * away / np.linalg.norm(away)
    if kind == "wider":
        q = np.hstack([q, rng.standard_normal((rows, 1))])
    elif kind == "narrower" and rank > 1:
        q = q[:, :-1]
    b = q @ rng.standard_normal((q.shape[1], cols))
    expected = float(np.max(scipy.linalg.subspace_angles(a, b)))
    # Above 45 degrees, when some other angle is below it, scipy takes the
    # largest angle from the arcsin of a sine near 1 (its step 5 pairs the
    # mask of the descending cosines with the descending sines), and so
    # resolves it only to eps / cos, at most sqrt(eps).  The same steps
    # here, on a different basis of a tall range, can differ by that much.
    resolution = 0.0
    if expected > np.pi / 4:
        eps = np.finfo(float).eps
        resolution = min(4 * eps / np.cos(expected), np.sqrt(8 * eps))
    _assert_angle_close(_max_principal_angle(_orth(a), _orth(b)), expected,
                        resolution)


@pytest.mark.parametrize("shape", [(400, 6), (800, 7)])
@pytest.mark.parametrize("nested", [False, True])
def test_nested_tall_subspaces_have_round_off_angle(shape, nested):
    # Against scipy the contract does not hold when the true angle is 0:
    # scipy's angle is then the orthogonality error of its SVD basis of a
    # (1.5e-15 for a == b at 400x6, 2e-15 for a nested range).  The
    # QR-first basis is at least as orthonormal, so the angle is at most
    # scipy's.
    rng = np.random.default_rng(3)
    a = rng.standard_normal(shape)
    b = a[:, 1:] @ rng.standard_normal((shape[1] - 1, 3)) if nested else a.copy()
    angle = _max_principal_angle(_orth(a), _orth(b))
    assert angle <= max(np.max(scipy.linalg.subspace_angles(a, b)), 1e-15)


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
    yield "tall 400x6", rng.standard_normal((400, 6))
    yield "tall 800x7", rng.standard_normal((800, 7))
    yield "tall rank deficient", (rng.standard_normal((400, 3))
                                  @ rng.standard_normal((3, 6)))


@pytest.mark.parametrize("case", list(_svd_cases()), ids=lambda c: c[0])
def test_direct_gesdd_matches_scipy(case):
    _, a = case
    basis = _orth(a)
    expected = scipy.linalg.orth(a)
    # the same rank, an orthonormal basis and the same range
    assert basis.shape == expected.shape
    assert np.max(np.abs(basis.T @ basis - np.eye(basis.shape[1])),
                  initial=0.0) <= 1e-12
    assert np.max(np.abs(basis @ basis.T - expected @ expected.T),
                  initial=0.0) <= 1e-12
    values = _gesdd(a, compute_uv=False)
    assert values.shape == (min(a.shape),)
    assert np.array_equal(values, scipy.linalg.svdvals(a))


def _sign_fixed_cases():
    rng = np.random.default_rng(6)
    yield "tall", rng.standard_normal((800, 7))
    yield "square", rng.standard_normal((7, 7))
    yield "wide", rng.standard_normal((5, 9))
    a = rng.standard_normal((30, 4))
    yield "repeated column", np.hstack([a, a[:, 1:2]])
    yield "equal magnitudes", np.array([[1.0, 1.0], [1.0, -1.0]])


@pytest.mark.parametrize("case", list(_sign_fixed_cases()), ids=lambda c: c[0])
def test_svd_is_scipy_gesdd_with_per_vector_sign_fix(case):
    _, a = case
    u, s, vt = scipy.linalg.svd(a, full_matrices=False, lapack_driver="gesdd",
                                check_finite=False)
    for j in range(vt.shape[0]):
        k = int(np.argmax(np.abs(vt[j])))
        if vt[j, k] < 0.0:
            vt[j] = -vt[j]
            u[:, j] = -u[:, j]
    got = _svd(a)
    assert all(np.array_equal(x, y) for x, y in zip(got, (u, s, vt)))


def test_svd_failure_is_svd_failure(monkeypatch):
    def fail(a, compute_uv):
        raise np.linalg.LinAlgError("gesdd failed (1)")
    monkeypatch.setattr(recursion, "_gesdd", fail)
    with pytest.raises(SvdFailure, match="did not converge"):
        _svd(np.eye(3))


def test_logged_angles_are_subspace_angles_of_consecutive_iterates():
    dsos = random_stable_discrete(16, 8, m=2, p=2)
    _, _, diag = run_recursion(dsos, RecursionConfig(n=3, seed=4, tau=6),
                               "srlrh")
    rng = np.random.default_rng(4)
    start = [np.linalg.qr(rng.standard_normal((8, 3)))[0] for _ in range(4)]
    S, R = np.vstack(start[:2]), np.vstack(start[2:])
    for i in range(6):
        new_s, new_r, _, _ = srlrh_step(dsos, S, R)
        _assert_angle_close(diag.angles_s[i], np.max(
            scipy.linalg.subspace_angles(S[8:], new_s[8:])))
        _assert_angle_close(diag.angles_r[i], np.max(
            scipy.linalg.subspace_angles(R[8:], new_r[8:])))
        S, R = new_s, new_r


def _replayed_run(dsos, config, algorithm):
    """:func:`run_recursion` replayed with public step calls: the same
    seeded start, angle kernels and stopping rule.  Returns the final
    stacked S and R iterates, the run's sigma and angle histories, and
    whether the angles settled."""
    step = srlrg_step if algorithm == "srlrg" else srlrh_step
    N, n, tol = dsos.order, config.n, config.angle_tol
    rng = np.random.default_rng(config.seed)
    start = [np.linalg.qr(rng.standard_normal((N, n)))[0] for _ in range(4)]
    S, R = np.vstack(start[:2]), np.vstack(start[2:])
    history = {"sigma_s": [], "sigma_r": [], "angles_s": [], "angles_r": []}
    basis_s, basis_r = _orth(S[N:]), _orth(R[N:])
    streak = 0
    for _ in range(config.tau if tol is None else config.max_steps):
        S, R, sigma_s, sigma_r = step(dsos, S, R)
        new_s, new_r = _orth(S[N:]), _orth(R[N:])
        angle_s = _max_principal_angle(basis_s, new_s)
        angle_r = _max_principal_angle(basis_r, new_r)
        basis_s, basis_r = new_s, new_r
        for key, value in (("sigma_s", sigma_s), ("sigma_r", sigma_r),
                           ("angles_s", angle_s), ("angles_r", angle_r)):
            history[key].append(value)
        if tol is not None:
            streak = streak + 1 if angle_s < tol and angle_r < tol else 0
            if streak >= 2:
                return S, R, history, True
    return S, R, history, False


def _one_algorithm_cases():
    yield ("dense m=2 p=1 fixed steps",
           lambda: random_stable_discrete(17, 9, m=2, p=1),
           RecursionConfig(n=3, seed=5, tau=15))
    yield ("csr m=1 p=3 fixed steps",
           lambda: banded_sos(np.random.default_rng(8), 80, 1, 3),
           RecursionConfig(n=4, seed=2, tau=12))
    yield ("dense m=1 p=2 angle converges",
           lambda: random_stable_discrete(1, 10, m=1, p=2, rho_max=0.6),
           RecursionConfig(n=4, seed=7, angle_tol=1e-8, max_steps=500))
    yield ("csr m=1 p=2 angle converges",
           lambda: banded_sos(np.random.default_rng(9), 60, 1, 2),
           RecursionConfig(n=2, seed=3, angle_tol=1e-8, max_steps=500))


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("case", list(_one_algorithm_cases()),
                         ids=lambda c: c[0])
def test_run_is_a_chain_of_public_steps(case, algorithm):
    """One algorithm: the run's loop and a chain of public step calls from
    the same seeded iterates agree bit for bit, in the subspaces, every
    sigma, the final stacked iterates and the angles of consecutive
    iterates."""
    name, make, config = case
    dsos = make()
    assert dsos.is_sparse == name.startswith("csr")
    S, R, diag = run_recursion(dsos, config, algorithm)
    final_s, final_r, history, settled = _replayed_run(dsos, config, algorithm)
    if config.angle_tol is None:
        assert diag.termination == "fixed-steps" and not settled
    else:
        assert diag.termination == "angle-converged" and settled
    assert diag.steps_taken == len(history["sigma_s"])
    N = dsos.order
    assert S.tobytes() == final_s[N:].tobytes()
    assert R.tobytes() == final_r[N:].tobytes()
    assert diag.final_s.tobytes() == final_s.tobytes()
    assert diag.final_r.tobytes() == final_r.tobytes()
    for key in ("sigma_s", "sigma_r"):
        assert (np.concatenate(getattr(diag, key)).tobytes()
                == np.concatenate(history[key]).tobytes())
    assert diag.angles_s == history["angles_s"]
    assert diag.angles_r == history["angles_r"]


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_budget_exceeded_after_the_replayed_steps(algorithm, monkeypatch):
    """A run that never settles raises MaxStepsExceeded after max_steps
    steps, with the angles of the replayed chain."""
    dsos = random_stable_discrete(13, 6, m=1, p=2)
    config = RecursionConfig(n=2, seed=0, angle_tol=1e-12, max_steps=5)
    _, _, history, settled = _replayed_run(dsos, config, algorithm)
    assert not settled
    angles = []

    def logged(qa, qb):
        angles.append(_max_principal_angle(qa, qb))
        return angles[-1]

    monkeypatch.setattr(recursion, "_max_principal_angle", logged)
    with pytest.raises(MaxStepsExceeded, match="within 5 steps"):
        run_recursion(dsos, config, algorithm)
    assert angles[0::2] == history["angles_s"]
    assert angles[1::2] == history["angles_r"]


def _chain(N):
    """The damped MSD chain at h = 0.5: dense storage below N = 60, CSR
    from there on."""
    return discretize(generate_msd_chain(N, damping=1.0, seed=1), 0.5)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("N, sparse", [(32, False), (80, True)],
                         ids=["dense-32", "csr-80"])
def test_fixed_step_run_without_angle_trace(N, sparse, algorithm,
                                             monkeypatch):
    """``angle_trace=False`` skips every basis and angle of a fixed-step
    run, and leaves its iterates, singular values, step count and
    termination bitwise those of the traced run."""
    dsos = _chain(N)
    assert dsos.is_sparse == sparse
    tau = 40
    config = RecursionConfig(n=4, seed=1, tau=tau)
    calls = count_angle_kernels(monkeypatch)
    S, R, diag = run_recursion(dsos, config, algorithm)
    assert calls == {"_orth": 2 * tau + 2, "_max_principal_angle": 2 * tau}
    calls.update(_orth=0, _max_principal_angle=0)
    S0, R0, bare = run_recursion(dsos, config, algorithm, angle_trace=False)
    assert calls == {"_orth": 0, "_max_principal_angle": 0}
    assert S0.tobytes() == S.tobytes() and R0.tobytes() == R.tobytes()
    assert bare.final_s.tobytes() == diag.final_s.tobytes()
    assert bare.final_r.tobytes() == diag.final_r.tobytes()
    for key in ("sigma_s", "sigma_r"):
        assert len(getattr(bare, key)) == tau
        assert (np.concatenate(getattr(bare, key)).tobytes()
                == np.concatenate(getattr(diag, key)).tobytes())
    assert (bare.steps_taken, bare.termination) == (tau, "fixed-steps")
    assert bare.angles_s == [] and bare.angles_r == []
    assert len(diag.angles_s) == len(diag.angles_r) == tau


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("case", [c for c in _one_algorithm_cases()
                                  if c[2].angle_tol is not None],
                         ids=lambda c: c[0])
def test_angle_mode_ignores_angle_trace(case, algorithm, monkeypatch):
    """An angle-tol run needs its angles to stop, so ``angle_trace=False``
    changes neither its kernel calls, its steps, its angles nor its
    termination."""
    _, make, config = case
    dsos = make()
    calls = count_angle_kernels(monkeypatch)
    S, R, diag = run_recursion(dsos, config, algorithm)
    traced_calls = dict(calls)
    calls.update(_orth=0, _max_principal_angle=0)
    S0, R0, bare = run_recursion(dsos, config, algorithm, angle_trace=False)
    assert calls == traced_calls == {
        "_orth": 2 * diag.steps_taken + 2,
        "_max_principal_angle": 2 * diag.steps_taken}
    assert diag.termination == bare.termination == "angle-converged"
    assert diag.steps_taken == bare.steps_taken
    assert diag.angles_s == bare.angles_s and diag.angles_r == bare.angles_r
    assert S0.tobytes() == S.tobytes() and R0.tobytes() == R.tobytes()


def test_diagnostics_csv_needs_angle_trace(tmp_path):
    """A run without an angle trace has no angle column to write: to_csv
    refuses it before it opens the file."""
    _, _, diag = run_recursion(_chain(32), RecursionConfig(n=2, seed=1, tau=5),
                               "srlrg", angle_trace=False)
    path = tmp_path / "diagnostics.csv"
    for target in (io.StringIO(), path):
        with pytest.raises(BadParameters, match="no angle trace"):
            diag.to_csv(target)
    assert not path.exists()


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_step_budget_is_not_allocated(algorithm):
    """A run that settles early allocates in proportion to the steps it
    takes, not to its budget of a billion steps."""
    dsos = random_stable_discrete(1, 10, m=1, p=1, rho_max=0.6)
    config = RecursionConfig(n=4, seed=7, angle_tol=1e-6, max_steps=10**9)
    tracemalloc.start()
    try:
        _, _, diag = run_recursion(dsos, config, algorithm)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert diag.termination == "angle-converged"
    assert peak < 2e6


@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "csr"])
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_unstable_run_raises_nonfinite_iterate(algorithm, sparse):
    """Roots 2 and 3 on every mode: the iterates overflow, and the run
    reports it as NonFiniteIterate, not as SvdFailure or LinAlgError."""
    N = 60 if sparse else 3
    eye = scipy.sparse.eye_array(N, format="csr") if sparse else np.eye(N)
    dsos = SecondOrderSystem(eye, -5.0 * eye, 6.0 * eye, np.ones((N, 1)),
                             np.ones((1, N)), h=1.0)
    assert dsos.is_sparse == sparse
    with pytest.raises(NonFiniteIterate, match="diverged to NaN/Inf"):
        run_recursion(dsos, RecursionConfig(n=2, seed=0, tau=4000), algorithm)


def test_rank_collapsing_run_warns():
    # With D = K = 0 the cross product [[0, prev_r^T F], [0, G F]] has rank
    # one, below n = 2, from the first step on.
    dsos = SecondOrderSystem(np.eye(4), np.zeros((4, 4)), np.zeros((4, 4)),
                             np.ones((4, 1)), np.ones((1, 4)), h=1.0)
    message = ("cross-product singular values span more than 14 decades; "
               "trailing subspace directions are numerically meaningless")
    with pytest.warns(RankCollapseWarning,
                      match=f"^{re.escape(message)}$") as record:
        run_recursion(dsos, RecursionConfig(n=2, seed=1, tau=3), "srlrh")
    assert {r.filename for r in record} == {__file__}


@st.composite
def _step_cases(draw):
    banded = draw(st.booleans())
    N = draw(st.integers(60, 150) if banded else st.integers(2, 12))
    return (banded, N, draw(st.integers(1, N - 1)), draw(st.integers(1, 3)),
            draw(st.integers(1, 3)), draw(st.integers(0, 2**32 - 1)))


@settings(max_examples=30, deadline=None)
# Long banded chains: update matrices of at least 48 rows per column.
@example(case=(True, 150, 2, 1, 3, 0))
@example(case=(True, 150, 1, 3, 1, 1))
@example(case=(True, 120, 1, 1, 2, 2))
@given(case=_step_cases())
def test_stacked_equivalence_random_systems(case):
    """One srlrg and one srlrh step against the first-order oracle at
    criterion 1's per-step tolerance, with m and p drawn independently (so
    srlrh's cross product need not be square), n up to N - 1, on dense
    systems and on banded ones stored sparse."""
    banded, N, n, m, p, seed = case
    rng = np.random.default_rng(seed)
    if banded:
        dsos = banded_sos(rng, N, m, p)
        assert dsos.is_sparse
    else:
        dsos = random_stable_discrete(seed, N, m=m, p=p)
    A, B, C = firstorder.state_space(dsos)
    S, R = _iterate(rng, N, n), _iterate(rng, N, n)
    for step, ostep in ((srlrg_step, firstorder.rlrg_step),
                        (srlrh_step, firstorder.rlrh_step)):
        s_ref, r_ref = ostep(A, B, C, S, R, n)
        new_s, new_r, _, _ = step(dsos, S, R)
        assert np.max(np.abs(new_s - s_ref)) <= 1e-10
        assert np.max(np.abs(new_r - r_ref)) <= 1e-10
