import importlib
import io
import warnings

from hypothesis import example, given, settings, strategies as st
import numpy as np
import pytest
import scipy.sparse

from morso.discretize import (
    DEFAULT_SCHEME,
    Scheme,
    consistency_error,
    default_step,
    discretize,
    inverse_discretize,
    write_consistency_curve,
)
from morso.errors import (
    BadParameters,
    DomainMismatch,
    NonPositiveStep,
    UnstableDiscretizationWarning,
)
from morso.bench import generate_msd_chain
from morso.metrics import rre
from morso.systems import SecondOrderSystem, stability_report

from helpers import random_sos, random_spd_sos

# The package exports the function under the module's name.
discretize_module = importlib.import_module("morso.discretize")

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


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_scheme_name_gives_the_member_bits(scheme):
    chain = generate_msd_chain(6, damping=1.0, seed=2)
    by_member = discretize(chain, 0.1, scheme)
    by_name = discretize(chain, 0.1, scheme.value)
    back_member = inverse_discretize(by_member, scheme)
    back_name = inverse_discretize(by_member, scheme.value)
    for a, b in ((by_member, by_name), (back_member, back_name)):
        for role in ("M", "D", "K", "F", "G"):
            assert getattr(a, role).tobytes() == getattr(b, role).tobytes()
    assert (rre(chain, by_member, scheme=scheme)
            == rre(chain, by_member, scheme=scheme.value))


def test_unknown_scheme_name_is_bad_parameters():
    chain = generate_msd_chain(6, damping=1.0, seed=2)
    d = discretize(chain, 0.5)
    for call in (lambda: discretize(chain, 0.5, "bogus"),
                 lambda: inverse_discretize(d, "bogus"),
                 lambda: rre(chain, d, scheme="bogus")):
        with pytest.raises(BadParameters, match="unknown scheme 'bogus'"):
            call()


def test_domain_guards():
    s = random_sos(6, 3)
    d = discretize(s, 0.1, stability_check=False)
    with pytest.raises(DomainMismatch):
        discretize(d, 0.1)
    with pytest.raises(DomainMismatch):
        inverse_discretize(s)
    with pytest.raises(NonPositiveStep):
        discretize(s, 0.0)


@pytest.mark.parametrize("h", [np.inf, np.nan])
def test_non_finite_step_rejected_before_any_matrix(h):
    chain = generate_msd_chain(4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonPositiveStep, match="positive and finite"):
            discretize(chain, h)


@pytest.mark.parametrize("h", ["abc", None, "0.5"])
def test_step_must_be_real(h):
    """'abc' used to raise a bare ValueError, None a TypeError, and '0.5'
    was taken as 0.5."""
    with pytest.raises(BadParameters,
                       match="^discrete step h must be a real number, got "):
        discretize(generate_msd_chain(4), h)


def test_numpy_real_steps():
    chain = generate_msd_chain(4)
    for h, value in ((np.float32(0.5), 0.5), (np.int64(1), 1.0)):
        d = discretize(chain, h)
        assert type(d.h) is float and d.h == value
        assert d.M.tobytes() == discretize(chain, value).M.tobytes()


def test_unstable_discretization_warns():
    chain = generate_msd_chain(6, damping=0.3)
    with pytest.warns(UnstableDiscretizationWarning):
        discretize(chain, 5.0, Scheme.FORWARD_VELOCITY)


def test_non_symmetric_model_is_decided_by_its_spectra():
    """No energy certificate applies to a non-symmetric D, so the spectra
    decide: at h = 5 the difference model is unstable (margin -1.94) and
    discretize warns, at h = 0.5 it is stable and discretize is silent."""
    sos = SecondOrderSystem(np.eye(2), [[1.0, 0.5], [0.0, 1.0]], np.eye(2),
                            np.ones((2, 1)), np.ones((1, 2)))
    assert not discretize_module._certified_stable(sos)
    warned, dsos = _warns(sos, 5.0, DEFAULT_SCHEME)
    assert warned
    assert stability_report(dsos).margin == pytest.approx(-1.94, abs=5e-3)
    warned, dsos = _warns(sos, 0.5, DEFAULT_SCHEME)
    assert not warned and stability_report(dsos).is_stable


@pytest.mark.parametrize("mdk, h", [
    ((-1.0, 1.0, 1.0), None), ((1.0, -0.1, 1.0), None),
    ((1.0, 1.0, -1.0), None), ((1.0, 0.0, 2.0), 1.0),
    ((1.0, -2.0, 0.5), 1.0), ((1.0, 2.0, 0.5), 1.0),
    ((1.0, 1e-11, 1.0), None), ((1.0, 0.0, 1.0 - 1e-12), 1.0),
], ids=["mass", "damping", "stiffness", "Mb-Kb", "Mb+Db+Kb", "Mb-Db+Kb",
        "continuous-margin", "discrete-margin"])
def test_certificate_refuses_each_failed_condition(mdk, h):
    """Scalar models that fail exactly one condition of the certificate,
    each not stable by its spectrum: the continuous conditions on M, D and
    K, the three Jury conditions, and a stable model whose margin (5e-12
    and 5e-13) is below MARGINAL_TOL, which only the shift or scaling by
    MARGINAL_TOL refuses."""
    sos = SecondOrderSystem(*mdk, 1.0, 1.0, h=h)
    assert not stability_report(sos).is_stable
    assert not discretize_module._certified_stable(sos)


@pytest.mark.parametrize("P", [np.diag([1.0, -1.0]), np.diag([1.0, 0.0])],
                         ids=["indefinite", "zero pivot"])
def test_sparse_positive_definite_rejects(P):
    assert not discretize_module._positive_definite(scipy.sparse.csr_array(P))


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


def test_default_step_blocks_match_one_block(monkeypatch):
    chain = generate_msd_chain(64, damping=1.0)
    assert chain.is_sparse
    whole = default_step(chain)
    # 22 columns of K at a time: three blocks
    monkeypatch.setattr(discretize_module, "_STEP_BLOCK_ENTRIES", 22 * 64)
    assert default_step(chain) == pytest.approx(whole, rel=1e-15, abs=0)


def test_default_step_positive():
    s = generate_msd_chain(10, damping=0.5)
    h = default_step(s)
    assert 0 < h <= 0.1
