"""Systems that take the sparse operator path.

Long mass-spring-damper chains are below the ``SPARSE_DENSITY`` rule, so
their mass solves go through a SuperLU factor and the recursion's products
through CSR copies of K and D.  The stacked-equivalence check of acceptance
criterion 1 must hold there at the same tolerances, against the same
independent first-order oracle.
"""

import numpy as np
import pytest

import firstorder

from morso import systems
from morso.bench import BenchmarkSpec, generate_msd_chain, load_matrix_market
from morso.cli import cli_main
from morso.discretize import discretize
from morso.recursion import SubspaceWindow, srlrg_step, srlrh_step
from morso.systems import SPARSE_DENSITY

STEP = 0.5


def _chain(N):
    sos = generate_msd_chain(N, damping=1.0, seed=N)
    return discretize(sos, STEP)


def _window(rng, N, n):
    return SubspaceWindow(*(np.linalg.qr(rng.standard_normal((N, n)))[0]
                            for _ in range(2)))


@pytest.mark.parametrize("N", [80, 200])
def test_chain_takes_sparse_path(N):
    dsos = _chain(N)
    nnz = max(np.count_nonzero(a) for a in (dsos.M, dsos.D, dsos.K))
    assert nnz <= SPARSE_DENSITY * N * N
    assert dsos._ops.mass_splu is not None


def test_sparse_transposes_are_csr():
    ops = _chain(80)._ops
    for op, op_t in ((ops.K, ops.Kt), (ops.D, ops.Dt)):
        assert op_t.format == "csr"
        assert np.array_equal(op_t.toarray(), op.T.toarray())


def test_small_chain_stays_dense():
    dsos = _chain(32)
    assert dsos._ops.mass_splu is None
    assert dsos._ops.K is dsos.K


@pytest.mark.parametrize("N", [80, 200])
def test_public_matrices_stay_dense_and_read_only(N):
    dsos = _chain(N)
    for role in ("M", "D", "K", "F", "G"):
        mat = getattr(dsos, role)
        assert type(mat) is np.ndarray
        assert not mat.flags.writeable
    assert not dsos._mass_input.flags.writeable


@pytest.mark.parametrize("N", [80, 200])
def test_mass_solves_match_dense(N):
    dsos = _chain(N)
    rhs = np.random.default_rng(N).standard_normal((N, 3))
    scale = np.max(np.abs(rhs))
    assert np.allclose(dsos.solve_mass(rhs), np.linalg.solve(dsos.M, rhs),
                       rtol=1e-12, atol=1e-12 * scale)
    assert np.allclose(dsos.solve_mass_t(rhs),
                       np.linalg.solve(dsos.M.T, rhs),
                       rtol=1e-12, atol=1e-12 * scale)
    complex_rhs = rhs * (1.0 + 2.0j)
    assert np.allclose(dsos.solve_mass(complex_rhs),
                       np.linalg.solve(dsos.M, complex_rhs))


STEPS = {"srlrg": (srlrg_step, firstorder.rlrg_step),
         "srlrh": (srlrh_step, firstorder.rlrh_step)}


def _trajectories(dsos, algo, dense_twin=None, n=6):
    """Run 6N steps from seeded windows.  Return the worst per-step
    deviation from the first-order oracle applied to the same iterate, and
    the final windows of the run, the oracle's own run and (if given) the
    same recursion on ``dense_twin``."""
    step, ostep = STEPS[algo]
    N = dsos.order
    A, B, C = firstorder.state_space(dsos)
    rng = np.random.default_rng(N + 1)
    s_win, r_win = _window(rng, N, n), _window(rng, N, n)
    S_fo, R_fo = s_win.stacked(), r_win.stacked()
    s_dense, r_dense = s_win, r_win
    worst_step = 0.0
    for _ in range(6 * N):
        s_ref, r_ref = ostep(A, B, C, s_win.stacked(), r_win.stacked(), n)
        s_win, r_win, _ = step(dsos, s_win, r_win)
        worst_step = max(worst_step,
                         float(np.max(np.abs(s_win.stacked() - s_ref))),
                         float(np.max(np.abs(r_win.stacked() - r_ref))))
        S_fo, R_fo = ostep(A, B, C, S_fo, R_fo, n)
        if dense_twin is not None:
            s_dense, r_dense, _ = step(dense_twin, s_dense, r_dense)
    final = np.hstack([s_win.stacked(), r_win.stacked()])
    return (worst_step, final, np.hstack([S_fo, R_fo]),
            np.hstack([s_dense.stacked(), r_dense.stacked()]))


@pytest.mark.parametrize("N", [80, 200])
@pytest.mark.parametrize("algo", ["srlrg", "srlrh"])
def test_stacked_equivalence(N, algo, monkeypatch):
    """Criterion 1's per-step tolerance against the first-order oracle, and
    its accumulated tolerance against the same recursion on the dense
    path.  (Over 6N = 1200 steps of the N = 200 chain the dense path itself
    drifts from the oracle's own run by up to ~7e-8, as rounding is
    amplified where the retained singular values cluster.)"""
    dsos = _chain(N)
    monkeypatch.setattr(systems, "SPARSE_DENSITY", 0.0)
    dense = _chain(N)
    assert dense._ops.mass_splu is None
    worst_step, final, _, final_dense = _trajectories(dsos, algo, dense)
    assert worst_step <= 1e-10
    assert float(np.max(np.abs(final - final_dense))) <= 1e-8


@pytest.mark.parametrize("algo", ["srlrg", "srlrh"])
def test_accumulated_equivalence_with_oracle(algo):
    dsos = _chain(80)
    worst_step, final, final_oracle, _ = _trajectories(dsos, algo)
    assert worst_step <= 1e-10
    assert float(np.max(np.abs(final - final_oracle))) <= 1e-8


def test_cli_reduce_on_sparse_chain(tmp_path):
    spec_dir = tmp_path / "bench"
    assert cli_main(["gen-msd", "--n", "80", "--damping", "1.0", "--seed",
                     "4", "--out", str(spec_dir)]) == 0
    out = tmp_path / "run"
    assert cli_main(["reduce", str(spec_dir / "msd_chain.spec"), "--algo",
                     "srlrh", "--order", "6", "--h", str(STEP), "--seed", "2",
                     "--out", str(out)]) == 0
    red = load_matrix_market(BenchmarkSpec.read(out / "msd_chain_reduced.spec"))
    assert red.order == 6
    for role in ("M", "D", "K", "F", "G"):
        assert np.all(np.isfinite(getattr(red, role)))
