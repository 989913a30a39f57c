"""Systems stored sparse.

Long mass-spring-damper chains are below the ``SPARSE_DENSITY`` rule, so
their M, D and K are stored as CSR matrices, their mass solves go through a
SuperLU factor (the transposed ones through a factor of ``M^T``) and the
recursion's products through the stored ``[K D]`` and its CSR transpose.
The stacked-equivalence check of acceptance criterion 1 must hold there at
the same tolerances, against the same independent first-order oracle.
"""

import tracemalloc
from unittest import mock

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest
import scipy.sparse

import firstorder

from morso import recursion, systems
from morso.bench import BenchmarkSpec, generate_msd_chain, load_matrix_market
from morso.cli import cli_main
from morso.discretize import (
    Scheme,
    _certified_stable,
    _positive_definite,
    discretize,
    inverse_discretize,
)
from morso.errors import (
    BadParameters,
    ConditioningWarning,
    MorsoWarning,
    SingularAtPoint,
    SingularMass,
    UnstableDiscretizationWarning,
)
from morso.oracle import balancing_factors
from morso.projection import (
    build_projection,
    reduce_model,
    verify_structure_conditions,
)
from morso.recursion import (
    RecursionConfig,
    run_recursion,
    srlrg_step,
    srlrh_step,
)
from morso.systems import (
    SPARSE_DENSITY,
    SecondOrderSystem,
    linearize,
    stability_report,
)

STEP = 0.5


def _chain(N):
    sos = generate_msd_chain(N, damping=1.0, seed=N)
    return discretize(sos, STEP)


def _iterate(rng, N, n):
    """Stacked 2N-by-n iterate ``[prev; curr]`` of two orthonormal halves."""
    return np.vstack([np.linalg.qr(rng.standard_normal((N, n)))[0]
                      for _ in range(2)])


@pytest.mark.parametrize("N", [80, 200])
def test_chain_takes_sparse_path(N):
    dsos = _chain(N)
    assert dsos.is_sparse
    assert max(dsos.M.nnz, dsos.D.nnz, dsos.K.nnz) <= SPARSE_DENSITY * N * N
    assert type(dsos._mass_factor._lu).__name__ == "SuperLU"


def test_sparse_transposes_are_csr():
    dsos = _chain(80)
    fused = np.hstack([dsos.K.toarray(), dsos.D.toarray()])
    for op, expected in ((dsos._KD, fused), (dsos._KDt, fused.T)):
        assert op.format == "csr"
        assert np.array_equal(op.toarray(), expected)
        assert not op.data.flags.writeable
    factor_t = dsos._mass_factor._lu_t
    assert type(factor_t).__name__ == "SuperLU"
    rhs = np.random.default_rng(0).standard_normal((80, 3))
    assert np.allclose(dsos.M.T @ factor_t.solve(rhs), rhs, rtol=0, atol=1e-12)


def test_small_chain_stays_dense():
    dsos = _chain(32)
    assert not dsos.is_sparse
    assert type(dsos.K) is np.ndarray
    rng = np.random.default_rng(0)
    srlrg_step(dsos, _iterate(rng, 32, 4), _iterate(rng, 32, 4))
    assert "_KD" not in vars(dsos)  # no N-by-2N copy of dense K and D


@pytest.mark.parametrize("N", [80, 200])
def test_sparse_matrices_are_read_only_csr(N):
    """M, D and K are canonical CSR matrices whose arrays are read-only;
    F, G and M^{-1} F are dense and read-only."""
    dsos = _chain(N)
    for role in ("M", "D", "K"):
        mat = getattr(dsos, role)
        assert type(mat) is scipy.sparse.csr_array
        assert mat.has_canonical_format
        assert np.all(mat.data != 0)
        for part in (mat.data, mat.indices, mat.indptr):
            assert not part.flags.writeable
        with pytest.raises(ValueError):
            mat.data[0] = 99.0
    for mat in (dsos.F, dsos.G, dsos._mass_input):
        assert type(mat) is np.ndarray
        assert not mat.flags.writeable


@pytest.mark.parametrize("N", [80, 200])
def test_mass_solves_match_dense(N):
    dsos = _chain(N)
    rhs = np.random.default_rng(N).standard_normal((N, 3))
    scale = np.max(np.abs(rhs))
    M = dsos.M.toarray()
    assert np.allclose(dsos.solve_mass(rhs), np.linalg.solve(M, rhs),
                       rtol=1e-12, atol=1e-12 * scale)
    assert np.allclose(dsos.solve_mass_t(rhs),
                       np.linalg.solve(M.T, rhs),
                       rtol=1e-12, atol=1e-12 * scale)
    complex_rhs = rhs * (1.0 + 2.0j)
    assert np.allclose(dsos.solve_mass(complex_rhs),
                       np.linalg.solve(M, complex_rhs))


class _RecordingFactor:
    """A SuperLU factor that logs the ``trans`` of every solve as
    ``(name, trans)``."""

    def __init__(self, name, lu, log):
        self.name, self.lu, self.log = name, lu, log

    def solve(self, rhs, trans="N"):
        self.log.append((self.name, trans))
        return self.lu.solve(rhs, trans=trans)


@pytest.mark.parametrize("algo", ["srlrg", "srlrh"])
def test_step_kernels_on_long_chain(algo, monkeypatch):
    """Three recursion steps on the N = 400 chain, angles included, give
    gesdd no matrix with more rows than columns.  Each step makes, in this
    order, the ``[K D]`` product, one plain solve with the factor of M, one
    plain solve with the factor of ``M^T`` and the ``[K D]^T`` product: a
    workspace that skips, repeats or reorders a kernel call fails here."""
    dsos = _chain(400)
    assert dsos._mass_input is not None  # solved once, before counting
    calls = []
    for name in ("_lu", "_lu_t"):
        setattr(dsos._mass_factor, name,
                _RecordingFactor(name, getattr(dsos._mass_factor, name), calls))
    shapes = []
    gesdd = recursion._gesdd

    def recording_gesdd(a, compute_uv):
        shapes.append(a.shape)
        return gesdd(a, compute_uv)

    monkeypatch.setattr(recursion, "_gesdd", recording_gesdd)
    for cls in (scipy.sparse.csr_array, scipy.sparse.csc_array):
        def counted(a, b, matmul=cls.__matmul__):
            calls.append(("product", a.shape))
            return matmul(a, b)
        monkeypatch.setattr(cls, "__matmul__", counted)

    run_recursion(dsos, RecursionConfig(n=6, seed=1, tau=3), algo)
    assert shapes
    assert all(rows <= cols for rows, cols in shapes)
    assert calls == [("product", (400, 800)), ("_lu", "N"), ("_lu_t", "N"),
                     ("product", (800, 400))] * 3


def test_srlrg_truncates_every_tall_update_matrix_through_geqrf(monkeypatch):
    """At 400x13 (31 rows per column) an srlrg step takes sigma and V from
    the R factor: geqrf sees both update matrices, gesdd only their R."""
    dsos = _chain(200)
    rng = np.random.default_rng(12)
    S, R = _iterate(rng, 200, 12), _iterate(rng, 200, 12)
    calls = []
    for name in ("_GESDD", "_GEQRF"):
        def recording(a, *args, name=name, kernel=getattr(recursion, name),
                      **kwargs):
            calls.append((name, a.shape))
            return kernel(a, *args, **kwargs)
        monkeypatch.setattr(recursion, name, recording)
    srlrg_step(dsos, S, R)
    assert calls == [("_GEQRF", (400, 13)), ("_GESDD", (13, 13))] * 2


@pytest.mark.parametrize("algo", ["srlrg", "srlrh"])
def test_long_chain_recursion_is_deterministic(algo):
    """Acceptance criterion 10 on sparse storage with 800x7 update
    matrices."""
    dsos = _chain(400)
    runs = [run_recursion(dsos, RecursionConfig(n=6, seed=5, tau=50), algo)
            for _ in range(2)]
    (s1, r1, d1), (s2, r2, d2) = runs
    assert s1.tobytes() == s2.tobytes() and r1.tobytes() == r2.tobytes()
    for key in ("sigma_s", "sigma_r"):
        assert (np.concatenate(getattr(d1, key)).tobytes()
                == np.concatenate(getattr(d2, key)).tobytes())
    assert d1.angles_s == d2.angles_s and d1.angles_r == d2.angles_r


STEPS = {"srlrg": (srlrg_step, firstorder.rlrg_step),
         "srlrh": (srlrh_step, firstorder.rlrh_step)}


def _trajectories(dsos, algo, dense_twin=None, n=6):
    """Run 6N steps from seeded iterates.  Return the worst per-step
    deviation from the first-order oracle applied to the same iterate, and
    the final iterates of the run, the oracle's own run and (if given) the
    same recursion on ``dense_twin``."""
    step, ostep = STEPS[algo]
    N = dsos.order
    A, B, C = firstorder.state_space(dsos)
    rng = np.random.default_rng(N + 1)
    S, R = _iterate(rng, N, n), _iterate(rng, N, n)
    S_fo, R_fo = S, R
    S_dense, R_dense = S, R
    worst_step = 0.0
    for _ in range(6 * N):
        s_ref, r_ref = ostep(A, B, C, S, R, n)
        S, R, _, _ = step(dsos, S, R)
        worst_step = max(worst_step,
                         float(np.max(np.abs(S - s_ref))),
                         float(np.max(np.abs(R - r_ref))))
        S_fo, R_fo = ostep(A, B, C, S_fo, R_fo, n)
        if dense_twin is not None:
            S_dense, R_dense, _, _ = step(dense_twin, S_dense, R_dense)
    return (worst_step, np.hstack([S, R]), np.hstack([S_fo, R_fo]),
            np.hstack([S_dense, R_dense]))


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
    assert not dense.is_sparse
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


def test_reduce_memory_in_proportion_to_nonzeros(tmp_path):
    """A reduce of an N = 1500 chain peaks below one dense 1500 x 1500
    matrix (18 MB) of traced memory."""
    spec_dir = tmp_path / "bench"
    assert cli_main(["gen-msd", "--n", "1500", "--damping", "1.0",
                     "--out", str(spec_dir)]) == 0
    tracemalloc.start()
    try:
        code = cli_main(["reduce", str(spec_dir / "msd_chain.spec"), "--h",
                         "0.5", "--tau", "20", "--out", str(tmp_path / "run")])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 16e6


def _sparse_symmetric(rng, N, diagonal_weight):
    """Symmetric N x N matrix with about 1 % of its entries off the
    diagonal, and a diagonal of ``diagonal_weight`` times each row's
    off-diagonal absolute sum plus one."""
    a = scipy.sparse.random_array((N, N), density=0.005, rng=rng)
    a = (a + a.T).tocsr()
    a.setdiag(0.0)
    a.eliminate_zeros()
    row_sums = np.asarray(abs(a).sum(axis=1)).ravel()
    return a + scipy.sparse.diags_array(diagonal_weight * row_sums + 1.0)


@settings(max_examples=40, deadline=None)
@given(N=st.integers(60, 120), seed=st.integers(0, 2**32 - 1),
       weights=st.tuples(st.floats(0.5, 1.5), st.floats(0.5, 1.5)),
       h=st.sampled_from([0.05, 0.2, 0.5]), scheme=st.sampled_from(Scheme))
def test_sparse_storage_matches_dense_twin(N, seed, weights, h, scheme):
    """Discretize and inverse_discretize matrices equal to the sign of zero,
    the same certificate verdict, and mass solves and transfers within
    1e-12 relative."""
    rng = np.random.default_rng(seed)
    M = _sparse_symmetric(rng, N, 2.0)
    D, K = (_sparse_symmetric(rng, N, w) for w in weights)
    F, G = rng.standard_normal((N, 2)), rng.standard_normal((2, N))
    sparse, sparse_d, dense, dense_d = _scheme_twins(M, D, K, F, G, h, scheme)
    for a, b in ((sparse, dense), (sparse_d, dense_d)):
        assert _certified_stable(a) == _certified_stable(b)

    def close(x, y):
        return np.linalg.norm(x - y) <= 1e-12 * np.linalg.norm(y)

    rhs = rng.standard_normal((N, 3)) + 1j * rng.standard_normal((N, 3))
    for a, b in ((sparse, dense), (sparse_d, dense_d)):
        for solve in ("solve_mass", "solve_mass_t"):
            for x in (rhs.real, rhs):
                assert close(getattr(a, solve)(x), getattr(b, solve)(x))
    assert close(sparse.transfer(3 + 4j), dense.transfer(3 + 4j))
    assert close(sparse_d.transfer(2.0), dense_d.transfer(2.0))


def _scheme_twins(M, D, K, F, G, h, scheme):
    """The system of M, D, K, F, G and its discretization, stored sparse and
    stored dense, after checking that the sparse discretization and its
    inverse equal their dense twins byte for byte, up to the sign of zero."""
    sparse = SecondOrderSystem(M, D, K, F, G)
    sparse_d = discretize(sparse, h, scheme, stability_check=False)
    sparse_c = inverse_discretize(sparse_d, scheme)
    with mock.patch.object(systems, "SPARSE_DENSITY", 0.0):
        dense = SecondOrderSystem(M, D, K, F, G)
        dense_d = discretize(dense, h, scheme, stability_check=False)
        dense_c = inverse_discretize(dense_d, scheme)
    assert sparse.is_sparse and sparse_d.is_sparse and sparse_c.is_sparse
    assert not (dense.is_sparse or dense_d.is_sparse or dense_c.is_sparse)
    for a, b in ((sparse_d, dense_d), (sparse_c, dense_c)):
        for role in ("M", "D", "K"):
            assert (getattr(a, role).toarray().tobytes()
                    == (getattr(b, role) + 0.0).tobytes())
    return sparse, sparse_d, dense, dense_d


def test_characteristic_and_transfer_match_dense_twin():
    """On the N = 120 chain at h = 0.5 the CSR P(z) divides K by z entry by
    entry, as the dense one does, so both storages give the same bytes of
    ``characteristic`` and of ``transfer``."""
    sparse = _chain(120)
    with mock.patch.object(systems, "SPARSE_DENSITY", 0.0):
        dense = SecondOrderSystem(sparse.M, sparse.D, sparse.K, sparse.F,
                                  sparse.G, h=sparse.h)
    assert sparse.is_sparse and not dense.is_sparse
    for z in np.exp([0.7j, 0.05j, 2.9j]):
        assert (sparse.characteristic(z).toarray().tobytes()
                == dense.characteristic(z).tobytes())
        assert sparse.transfer(z).tobytes() == dense.transfer(z).tobytes()


@pytest.mark.parametrize("scheme", list(Scheme), ids=lambda s: s.value)
def test_scheme_maps_on_distinct_patterns(scheme):
    """M diagonal, D on every other off-diagonal pair and K pentadiagonal,
    at the non-dyadic h = 0.1: the sums take entries that only one or two
    of the matrices have, and the divisions by h^2 and 2 h^2 round."""
    N = 200
    rng = np.random.default_rng(7)
    M = scipy.sparse.diags_array(rng.uniform(1.0, 2.0, N))
    off = rng.uniform(-0.3, 0.3, N - 1)
    off[::2] = 0.0
    D = scipy.sparse.diags_array([off, rng.uniform(1.0, 2.0, N), off],
                                 offsets=[-1, 0, 1])
    o1, o2 = rng.uniform(-1.0, 0.0, N - 1), rng.uniform(-0.5, 0.0, N - 2)
    K = scipy.sparse.diags_array([o2, o1, rng.uniform(4.0, 5.0, N), o1, o2],
                                 offsets=[-2, -1, 0, 1, 2])
    F, G = rng.standard_normal((N, 2)), rng.standard_normal((2, N))
    assert len({frozenset(zip(*a.nonzero())) for a in (M, D, K)}) == 3
    _scheme_twins(M, D, K, F, G, 0.1, scheme)


def test_certificate_refuses_non_symmetric_sparse_model():
    """A damping entry above the diagonal with no twin below it leaves no
    energy certificate, continuous or discrete, for sparse storage."""
    sos = generate_msd_chain(80, damping=1.0, seed=80)
    bump = scipy.sparse.csr_array(([0.1], ([0], [2])), shape=(80, 80))
    skew = SecondOrderSystem(sos.M, sos.D + bump, sos.K, sos.F, sos.G)
    assert skew.is_sparse and _certified_stable(sos)
    assert not _certified_stable(skew)
    assert not _certified_stable(discretize(skew, STEP, stability_check=False))


def test_certificate_rejects_indefinite_sparse_matrix():
    a = _sparse_symmetric(np.random.default_rng(1), 80, 1.0)
    assert _positive_definite(a.tocsr())
    shifted = (a - scipy.sparse.diags_array(np.full(80, 2.0)) * a.max()).tocsr()
    assert not _positive_definite(shifted)
    assert not _positive_definite(scipy.sparse.csr_array(
        np.kron(np.eye(40), [[0.0, 1.0], [1.0, 0.0]])))


@pytest.fixture
def small_dense_limit(monkeypatch):
    monkeypatch.setattr(systems, "DENSE_ORDER_LIMIT", 60)


def test_dense_consumers_refuse_sparse_models_above_limit(small_dense_limit):
    dsos = _chain(80)
    message = "above DENSE_ORDER_LIMIT=60"
    with pytest.raises(BadParameters, match=message):
        linearize(dsos)
    with pytest.raises(BadParameters, match=message):
        stability_report(dsos)
    with pytest.raises(BadParameters, match=message):
        balancing_factors(linearize(dsos))
    S, R, _ = run_recursion(dsos, RecursionConfig(n=4, tau=20))
    proj = build_projection(S, R)
    assert reduce_model(dsos, proj).order == 4  # needs nothing dense


def test_structure_report_above_limit_matches_dense_twin(small_dense_limit,
                                                         monkeypatch):
    """The report is read off the reduced model, so a sparse model above
    the limit gets one, equal to its dense twin's."""
    dsos = _chain(80)
    S, R, _ = run_recursion(dsos, RecursionConfig(n=4, tau=20))
    proj = build_projection(S, R)
    sparse = verify_structure_conditions(proj, dsos)
    monkeypatch.setattr(systems, "SPARSE_DENSITY", 0.0)
    twin = _chain(80)
    assert dsos.is_sparse and not twin.is_sparse
    dense = verify_structure_conditions(proj, twin)
    for name in ("t1_condition", "t1_deviation"):
        assert (np.float64(getattr(sparse, name)).tobytes()
                == np.float64(getattr(dense, name)).tobytes())
    for rep in (sparse, dense):
        assert (rep.e_off_pattern, rep.a_off_pattern, rep.b_zero_block,
                rep.c_zero_block) == (0.0, 0.0, 0.0, 0.0)
        assert rep.reduced_linearization_gap <= 1e-12


def test_structure_report_memory_in_proportion_to_nonzeros():
    """The report of an N = 2000 chain peaks below 5 MB of traced memory:
    it never forms the 4000 x 4000 first-order pencil (128 MB a matrix)."""
    dsos = discretize(generate_msd_chain(2000, damping=1.0, seed=1), STEP)
    S, R, _ = run_recursion(dsos, RecursionConfig(n=6, tau=30))
    proj = build_projection(S, R)
    tracemalloc.start()
    try:
        rep = verify_structure_conditions(proj, dsos)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.off_pattern_max == 0.0
    assert peak < 5e6


def test_dense_consumers_densify_below_limit(small_dense_limit):
    dsos = _chain(60)  # sparse: 178 nonzeros <= 5 % of 60^2
    assert dsos.is_sparse
    assert linearize(dsos).A.shape == (120, 120)
    assert stability_report(dsos).is_stable


def test_discretize_skips_spectral_fallback_above_limit(monkeypatch):
    """At h = 5 the chain's forward discretization is unstable, so its
    certificate fails; above the limit no spectrum is computed."""
    sos = generate_msd_chain(80, damping=1.0, seed=80)
    with pytest.warns(UnstableDiscretizationWarning):
        discretize(sos, 5.0)
    monkeypatch.setattr(systems, "DENSE_ORDER_LIMIT", 40)
    with pytest.warns(MorsoWarning, match="not checked") as record:
        discretize(sos, 5.0)
    assert not any(issubclass(w.category, UnstableDiscretizationWarning)
                   for w in record)


def test_sparse_mass_and_point_checks():
    N = 40  # N nonzeros is at most 5 % of N^2
    eye = scipy.sparse.eye_array(N)
    zero = scipy.sparse.csr_array((N, N))
    F, G = np.ones((N, 1)), np.ones((1, N))
    singular = scipy.sparse.diags_array(np.r_[np.ones(N - 1), 0.0])
    for M in (zero, singular):
        with pytest.raises(SingularMass, match="singular"):
            SecondOrderSystem(M, zero, eye, F, G)
    ill = scipy.sparse.diags_array(np.r_[np.ones(N - 1), 1e-14])
    with pytest.warns(ConditioningWarning):
        sos = SecondOrderSystem(ill, zero, eye, F, G)
    assert sos.is_sparse
    assert sos.mass_condition == pytest.approx(1e14)
    # P(1) = K + I is 0, or, with K's top right corner set, a matrix whose
    # one nonzero is off the tridiagonal band; each stored sparse and dense.
    corner = scipy.sparse.csr_array(([1.0], ([0], [N - 1])), shape=(N, N))
    for K, tridiagonal in ((-eye, True), (corner - eye, False)):
        undamped = SecondOrderSystem(eye, zero, K, F, G)
        with mock.patch.object(systems, "SPARSE_DENSITY", 0.0):
            twin = SecondOrderSystem(eye, zero, K, F, G)
        assert undamped.is_sparse and not twin.is_sparse
        for sos in (undamped, twin):
            assert (sos._bands is not None) == tridiagonal
            with pytest.raises(SingularAtPoint, match="singular at point"):
                sos.transfer(1.0)


def test_sparse_condition_estimate_draws_no_random_numbers(monkeypatch):
    dsos = _chain(120)

    def refuse(*args, **kwargs):
        raise AssertionError("np.random called")
    for name in dir(np.random):
        if callable(getattr(np.random, name)) and not name[0].isupper():
            monkeypatch.setattr(np.random, name, refuse)
    conditions = [SecondOrderSystem(dsos.M, dsos.D, dsos.K, dsos.F, dsos.G,
                                    h=dsos.h).mass_condition
                  for _ in range(2)]
    assert conditions[0].hex() == conditions[1].hex()


def test_sparse_condition_estimate_repeats_and_keeps_global_random_state():
    rng = np.random.default_rng(7)
    M = _sparse_symmetric(rng, 100, 1.1)
    D, K = M * 0.1, M * 2.0
    F, G = np.ones((100, 1)), np.ones((1, 100))
    np.random.seed(5)
    expected = np.random.rand(3)
    np.random.seed(5)
    conditions = {SecondOrderSystem(M, D, K, F, G).mass_condition
                  for _ in range(3)}
    assert np.array_equal(np.random.rand(3), expected)
    assert len(conditions) == 1
