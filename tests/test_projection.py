import warnings

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

from morso.errors import DimensionMismatch, RankCollapse, ShrunkRankWarning
from morso.projection import (
    build_projection,
    reduce_model,
    verify_structure_conditions,
)
from morso.recursion import RecursionConfig, run_recursion
from morso.systems import SecondOrderSystem, linearize

from helpers import random_stable_discrete, random_sos


def _pipeline(seed, N=10, n=4, m=2, p=2, algo="srlrg"):
    dsos = random_stable_discrete(seed, N, m=m, p=p)
    S, R, _ = run_recursion(dsos, RecursionConfig(n=n, seed=seed), algo)
    return dsos, S, R


class TestBuildProjection:
    def test_identical_orthonormal_inputs(self):
        rng = np.random.default_rng(0)
        S, _ = np.linalg.qr(rng.standard_normal((12, 4)))
        proj = build_projection(S, S)
        assert proj.order == 4
        assert proj.biorthogonality_deviation() <= 1e-13
        assert np.allclose(proj.sigma, 1.0, atol=1e-12)

    def test_random_full_rank(self):
        rng = np.random.default_rng(1)
        S = rng.standard_normal((20, 5))
        R = rng.standard_normal((20, 5))
        proj = build_projection(S, R)
        assert proj.biorthogonality_deviation() < 1e-10

    def test_duplicated_column_shrinks(self):
        rng = np.random.default_rng(2)
        S = rng.standard_normal((10, 4))
        S[:, 3] = S[:, 2]
        R = rng.standard_normal((10, 4))
        with pytest.warns(ShrunkRankWarning):
            proj = build_projection(S, R)
        assert proj.order == 3

    def test_orthogonal_subspaces_collapse(self):
        S = np.zeros((6, 2))
        S[0, 0] = S[1, 1] = 1.0
        R = np.zeros((6, 2))
        R[2, 0] = R[3, 1] = 1.0
        with pytest.raises(RankCollapse):
            build_projection(S, R)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            build_projection(np.zeros((5, 2)), np.zeros((6, 2)))

    def test_sigma_positive_nonincreasing(self):
        _, S, R = _pipeline(3)
        proj = build_projection(S, R)
        assert np.all(proj.sigma > 0)
        assert np.all(np.diff(proj.sigma) <= 0)


class TestReduceModel:
    def test_identity_projection_is_identity(self):
        dsos = random_stable_discrete(4, 5)
        from morso.projection import ProjectionPair
        eye = np.eye(5)
        proj = ProjectionPair(X=eye, Y=eye, sigma=np.ones(5))
        red = reduce_model(dsos, proj)
        for name in ("M", "D", "K", "F", "G"):
            assert np.allclose(getattr(red, name), getattr(dsos, name),
                               atol=1e-14)

    def test_domain_tag_propagates(self):
        dsos, S, R = _pipeline(5)
        red = reduce_model(dsos, build_projection(S, R))
        assert red.is_discrete and red.h == dsos.h
        cont = random_sos(5, 10, m=2, p=2)
        red_c = reduce_model(cont, build_projection(S, R))
        assert red_c.is_continuous

    def test_reduced_is_second_order_system(self):
        dsos, S, R = _pipeline(6, n=3)
        red = reduce_model(dsos, build_projection(S, R))
        assert red.order == 3
        fos = linearize(red)  # the block pattern is inherent to the type
        assert np.array_equal(fos.A[:3, :3], np.zeros((3, 3)))
        assert np.array_equal(fos.A[:3, 3:], np.eye(3))

    def test_dimension_guard(self):
        dsos = random_stable_discrete(7, 5)
        _, S, R = _pipeline(7, N=6)
        with pytest.raises(DimensionMismatch):
            reduce_model(dsos, build_projection(S, R))

    def test_transfer_invariant_under_orthogonal_remix(self):
        # (S Q1, R Q2) with orthogonal Qi gives the same reduced transfer
        dsos, S, R = _pipeline(8, n=4)
        rng = np.random.default_rng(80)
        q1, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        q2, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        red_a = reduce_model(dsos, build_projection(S, R))
        red_b = reduce_model(dsos, build_projection(S @ q1, R @ q2))
        for theta in np.linspace(0.2, np.pi, 7):
            z = np.exp(1j * theta)
            ta, tb = red_a.transfer(z), red_b.transfer(z)
            assert np.max(np.abs(ta - tb)) <= 1e-8 * max(np.max(np.abs(ta)), 1e-30)


class TestStructureConditions:
    def test_pattern_zeros_and_t1(self):
        dsos, S, R = _pipeline(9, n=3)
        proj = build_projection(S, R)
        rep = verify_structure_conditions(proj, dsos)
        assert rep.t1_deviation <= 1e-10
        assert rep.off_pattern_max <= 1e-10
        assert rep.b_zero_block <= 1e-12
        assert rep.t1_condition < 1e3

    def test_reduced_linearization_gap(self):
        dsos, S, R = _pipeline(10, n=4)
        proj = build_projection(S, R)
        rep = verify_structure_conditions(proj, dsos)
        assert rep.reduced_linearization_gap <= 1e-8

    def test_continuous_system_pattern(self):
        sos = random_sos(11, 8, m=2, p=2)
        rng = np.random.default_rng(11)
        S = rng.standard_normal((8, 3))
        R = rng.standard_normal((8, 3))
        rep = verify_structure_conditions(build_projection(S, R), sos)
        assert rep.off_pattern_max <= 1e-10


def test_full_pipeline_smoke_building_scale():
    # SISO chain at benchmark scale: the whole chain of operations
    # (discretize, recursion, projection, reduction, error metric) finishes
    # in well under a second and produces a finite relative error
    import time

    from morso.bench import generate_msd_chain
    from morso.discretize import discretize
    from morso.metrics import rre

    chain = generate_msd_chain(24, stiffness=1.0, damping=1.0, mass=1.0,
                               seed=11)
    t0 = time.monotonic()
    dsos = discretize(chain, 0.5)
    S, R, _ = run_recursion(dsos, RecursionConfig(n=5, seed=0), "srlrg")
    red = reduce_model(dsos, build_projection(S, R, 1e-7))
    err = rre(chain, red)
    elapsed = time.monotonic() - t0
    assert np.isfinite(err) and err >= 0.0
    assert elapsed < 1.0, f"pipeline took {elapsed:.2f}s"


def test_projection_equivalence_with_block_first_order():
    # reducing the quintuplet equals reducing the first-order pencil with the
    # block-diagonal lift: compare transfer functions
    import scipy.linalg
    dsos, S, R = _pipeline(12, n=4)
    proj = build_projection(S, R)
    red = reduce_model(dsos, proj)

    N = dsos.order
    k = proj.order
    Xb = scipy.linalg.block_diag(proj.X, proj.X)
    Yb = scipy.linalg.block_diag(proj.Y, proj.Y)
    E = scipy.linalg.block_diag(np.eye(N), dsos.M)
    A = np.block([[np.zeros((N, N)), np.eye(N)], [-dsos.K, -dsos.D]])
    B = np.vstack([np.zeros_like(dsos.F), dsos.F])
    C = np.zeros((dsos.n_outputs, 2 * N))
    C[:, N:] = dsos.G  # difference-domain output block

    Er, Ar, Br, Cr = Yb.T @ E @ Xb, Yb.T @ A @ Xb, Yb.T @ B, C @ Xb
    for theta in np.linspace(0.3, np.pi, 5):
        z = np.exp(1j * theta)
        t_block = Cr @ np.linalg.solve(z * Er - Ar, Br)
        t_red = red.transfer(z)
        assert np.max(np.abs(t_block - t_red)) <= 1e-8 * np.max(np.abs(t_red))


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    N=st.integers(3, 10),
    n=st.integers(1, 3),
    io=st.integers(1, 2),
    algo=st.sampled_from(["srlrg", "srlrh"]),
)
def test_projection_properties(seed, N, n, io, algo):
    """On random stable systems the pair is biorthogonal and the reduced
    model is a second-order system whose transfer is the projected one,
    ``G X (Y^T P(z) X)^{-1} Y^T F``."""
    dsos = random_stable_discrete(seed, N, m=io, p=io)
    S, R, _ = run_recursion(dsos, RecursionConfig(n=n, seed=seed), algo)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ShrunkRankWarning)
        proj = build_projection(S, R)
    assert proj.biorthogonality_deviation() <= 1e-8
    red = reduce_model(dsos, proj)
    assert isinstance(red, SecondOrderSystem)
    assert red.order == proj.order and red.h == dsos.h
    X, Y = proj.X, proj.Y
    for z in np.exp(1j * np.array([0.3, 1.7, np.pi])):
        Pr = Y.T @ dsos.characteristic(z) @ X
        projected = (dsos.G @ X) @ np.linalg.solve(Pr, Y.T @ dsos.F)
        bound = 1e-12 * np.linalg.cond(Pr) * np.max(np.abs(projected))
        assert np.max(np.abs(red.transfer(z) - projected)) <= bound
