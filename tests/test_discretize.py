import io
import warnings

from hypothesis import example, given, settings, strategies as st
import numpy as np
import pytest

from morso.discretize import (
    Scheme,
    consistency_error,
    default_step,
    discretize,
    inverse_discretize,
    write_consistency_curve,
)
from morso.errors import (
    DomainMismatch,
    NonPositiveStep,
    UnstableDiscretizationWarning,
)
from morso.bench import generate_msd_chain
from morso.systems import SecondOrderSystem, stability_report

from helpers import random_sos, random_spd_sos

ALL_SCHEMES = list(Scheme)


def test_forward_row_formulas():
    s = SecondOrderSystem(1, 0, 1, 1, 1)
    d = discretize(s, 0.1, Scheme.FORWARD_VELOCITY, stability_check=False)
    assert d.M[0, 0] == pytest.approx(100.0, rel=1e-14)
    assert d.D[0, 0] == pytest.approx(-199.0, rel=1e-14)
    assert d.K[0, 0] == pytest.approx(100.0, rel=1e-14)
    assert d.h == 0.1


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_symmetry_preserved_exactly(scheme):
    s = random_spd_sos(1, 5)
    d = discretize(s, 0.07, scheme, stability_check=False)
    for mat in (d.M, d.D, d.K):
        assert np.array_equal(mat, mat.T)


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
@pytest.mark.parametrize("h", [0.05, 0.1, 0.5])
def test_sum_identity(scheme, h):
    # Mb + Db + Kb == K for every scheme and step; the float cancellation
    # scale is the difference-matrix magnitude ~||M||/h^2
    s = random_sos(2, 6, m=2, p=2)
    d = discretize(s, h, scheme, stability_check=False)
    total = d.M + d.D + d.K
    scale = max(np.max(np.abs(d.M)), np.max(np.abs(d.K)))
    assert np.max(np.abs(total - s.K)) <= 1e-12 * scale


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_dc_gain_identity(scheme):
    s = random_sos(3, 5, m=2, p=2)
    d = discretize(s, 0.1, scheme, stability_check=False)
    dc_full = np.linalg.solve(s.K, s.F)
    dc_disc = np.linalg.solve(d.M + d.D + d.K, d.F)
    ref = s.G @ dc_full
    assert np.max(np.abs(s.G @ dc_disc - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
@pytest.mark.parametrize("h", [1e-3, 1e-2, 0.1])
def test_roundtrip(scheme, h):
    s = random_sos(4, 5, m=2, p=2)
    back = inverse_discretize(discretize(s, h, scheme, stability_check=False), scheme)
    # M and D recover to eps/h and the K channel to eps/h^2 of the dominant
    # difference-matrix scale ~||M||/h^2; at h=0.1 that is 1e-12 relative.
    scale = np.max(np.abs(s.M))
    eps = np.finfo(float).eps
    tol_mk = max(1e-12, 50 * eps / h**2)
    assert np.max(np.abs(back.M - s.M)) <= 1e-12 * scale
    assert np.max(np.abs(back.D - s.D)) <= max(1e-12, 50 * eps / h) * scale
    assert np.max(np.abs(back.K - s.K)) <= tol_mk * scale
    assert np.array_equal(back.F, s.F)
    assert np.array_equal(back.G, s.G)
    assert back.is_continuous


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    N=st.integers(1, 6),
    io=st.integers(1, 2),
    scheme=st.sampled_from(ALL_SCHEMES),
    log_h=st.floats(-3.0, 0.0),
)
def test_roundtrip_property(seed, N, io, scheme, log_h):
    """inverse_discretize undoes discretize up to round-off: a difference
    matrix is ~scale/h^2, so the recovered M, D and K carry errors of
    eps*scale, eps*scale/h and eps*scale/h^2."""
    s = random_spd_sos(seed, N, m=io, p=io)
    h = 10.0 ** log_h
    back = inverse_discretize(discretize(s, h, scheme, stability_check=False),
                              scheme)
    scale = max(np.max(np.abs(getattr(s, name))) for name in "MDK")
    tol = 50 * np.finfo(float).eps * scale
    assert np.max(np.abs(back.M - s.M)) <= tol
    assert np.max(np.abs(back.D - s.D)) <= tol * (1 + 1 / h)
    assert np.max(np.abs(back.K - s.K)) <= tol * (1 + 1 / h) ** 2
    assert np.array_equal(back.F, s.F) and np.array_equal(back.G, s.G)
    assert back.is_continuous


def test_roundtrip_strict_at_default_scale():
    # at h = 0.1 the full quintuplet round-trips to 1e-12 relative
    s = random_sos(5, 6, m=1, p=1)
    for scheme in ALL_SCHEMES:
        back = inverse_discretize(discretize(s, 0.1, scheme, stability_check=False),
                                  scheme)
        for name in ("M", "D", "K"):
            a, b = getattr(back, name), getattr(s, name)
            scale = max(np.max(np.abs(s.M)), np.max(np.abs(s.D)), np.max(np.abs(s.K)))
            assert np.max(np.abs(a - b)) <= 1e-12 * scale, (scheme, name)


def test_inverse_of_forward_example():
    d = SecondOrderSystem(100.0, -199.0, 100.0, 1, 1, h=0.1)
    back = inverse_discretize(d, Scheme.FORWARD_VELOCITY)
    assert back.M[0, 0] == pytest.approx(1.0, rel=1e-12)
    assert back.D[0, 0] == pytest.approx(0.0, abs=1e-12)
    assert back.K[0, 0] == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_equal_mass_stiffness_gives_zero_damping(scheme):
    d = SecondOrderSystem(np.eye(2) * 7.0, np.eye(2), np.eye(2) * 7.0,
                          np.ones((2, 1)), np.ones((1, 2)), h=0.25)
    back = inverse_discretize(d, scheme)
    assert np.max(np.abs(back.D)) == 0.0


def test_central_with_zero_damping_is_palindromic():
    s = SecondOrderSystem(np.diag([1.0, 2.0]), np.zeros((2, 2)),
                          np.diag([3.0, 1.0]), np.ones((2, 1)), np.ones((1, 2)))
    d = discretize(s, 0.1, Scheme.CENTRAL_VELOCITY, stability_check=False)
    assert np.array_equal(d.M, d.K)


def test_domain_guards():
    s = random_sos(6, 3)
    d = discretize(s, 0.1, stability_check=False)
    with pytest.raises(DomainMismatch):
        discretize(d, 0.1)
    with pytest.raises(DomainMismatch):
        inverse_discretize(s)
    with pytest.raises(NonPositiveStep):
        discretize(s, 0.0)


def test_unstable_discretization_warns():
    chain = generate_msd_chain(6, damping=0.3)
    with pytest.warns(UnstableDiscretizationWarning):
        discretize(chain, 5.0, Scheme.FORWARD_VELOCITY)


def _warns(sos, h, scheme):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        dsos = discretize(sos, h, scheme)
    warned = any(issubclass(w.category, UnstableDiscretizationWarning)
                 for w in caught)
    return warned, dsos


@settings(max_examples=80, deadline=None)
@given(
    family=st.sampled_from(["spd", "chain"]),
    seed=st.integers(0, 10_000),
    N=st.integers(1, 8),
    scheme=st.sampled_from(ALL_SCHEMES),
    log_ratio=st.floats(-3.0, 1.5),
)
@example(family="chain", seed=0, N=6, scheme=Scheme.FORWARD_VELOCITY,
         log_ratio=-2.0)
@example(family="chain", seed=0, N=6, scheme=Scheme.FORWARD_VELOCITY,
         log_ratio=1.0)
def test_warning_matches_spectra(family, seed, N, scheme, log_ratio):
    """The certificate only skips spectra: the warning fires exactly when
    the spectra say a stable system became unstable.  The step is drawn
    around 1/omega_max, the scale of the explicit schemes' stability
    limit, so that both outcomes occur."""
    if family == "spd":
        sos = random_spd_sos(seed, N)
    else:
        sos = generate_msd_chain(N + 1, damping=0.05 + (seed % 20) / 10.0,
                                 seed=seed)
    omega_max = np.sqrt(np.max(np.abs(np.linalg.eigvals(
        np.linalg.solve(sos.M, sos.K)))))
    h = 10.0 ** log_ratio / omega_max
    warned, dsos = _warns(sos, h, scheme)
    assert warned == (stability_report(sos).is_stable
                      and not stability_report(dsos).is_stable)


@pytest.mark.parametrize("log_ratio, unstable", [(-2.0, False), (1.0, True)])
def test_property_sampling_covers_both_outcomes(log_ratio, unstable):
    sos = generate_msd_chain(7, damping=0.05, seed=0)
    omega_max = np.sqrt(np.max(np.abs(np.linalg.eigvals(
        np.linalg.solve(sos.M, sos.K)))))
    warned, _ = _warns(sos, 10.0 ** log_ratio / omega_max,
                       Scheme.FORWARD_VELOCITY)
    assert warned is unstable


def test_consistency_zero_at_dc():
    s = random_sos(7, 4)
    for scheme in ALL_SCHEMES:
        assert consistency_error(s, 0.05, scheme, [0.0]) <= 1e-12


@pytest.mark.parametrize("scheme",
                         [Scheme.FORWARD_VELOCITY, Scheme.BACKWARD_VELOCITY])
def test_consistency_halving(scheme):
    osc = generate_msd_chain(4, stiffness=1.0, damping=0.5, mass=1.0)
    pts = [0.01j, 0.02j, 0.05j]
    e1 = consistency_error(osc, 0.02, scheme, pts)
    e2 = consistency_error(osc, 0.01, scheme, pts)
    assert e1 / e2 >= 1.8


def test_consistency_curve_csv():
    s = generate_msd_chain(3, damping=0.5)
    buf = io.StringIO()
    rows = write_consistency_curve(buf, s, [0.02, 0.01], Scheme.FORWARD_VELOCITY,
                                   [0.05j])
    text = buf.getvalue().splitlines()
    assert text[0] == "step,max_relative_deviation"
    assert len(text) == 3
    assert float(text[1].split(",")[0]) == 0.02
    assert rows[0][1] > rows[1][1]


def test_default_step_positive():
    s = generate_msd_chain(10, damping=0.5)
    h = default_step(s)
    assert 0 < h <= 0.1
