import io
import json

import numpy as np
import pytest

from morso.bench import generate_msd_chain
from morso.discretize import Scheme, discretize
from morso.errors import BadParameters, DimensionMismatch, DomainMismatch
from morso import metrics
from morso.metrics import (
    MAX_GRID_COUNT,
    FrequencyGrid,
    error_response,
    frequency_response,
    rre,
)
from morso.oracle import dense_balanced_truncation
from morso.projection import build_projection, reduce_model
from morso.recursion import RecursionConfig, run_recursion
from morso.systems import SecondOrderSystem, linearize

from helpers import count_solves, random_stable_discrete


class TestGrid:
    def test_log_grid(self):
        g = FrequencyGrid.log_continuous(1e-1, 1e2, 10)
        assert len(g.points) == 10
        assert g.parameters[0] == pytest.approx(0.1)
        assert g.parameters[-1] == pytest.approx(100.0)
        assert np.all(np.diff(g.parameters) > 0)
        assert np.allclose(g.points, 1j * g.parameters)

    def test_circle_grid(self):
        g = FrequencyGrid.unit_circle(8)
        assert len(g.points) == 8
        assert g.parameters[0] > 0
        assert g.parameters[-1] == pytest.approx(np.pi)
        assert np.allclose(np.abs(g.points), 1.0)

    def test_validation(self):
        with pytest.raises(BadParameters):
            FrequencyGrid.log_continuous(count=1)
        with pytest.raises(BadParameters):
            FrequencyGrid.log_continuous(omega_min=0.0)
        with pytest.raises(BadParameters):
            FrequencyGrid.unit_circle(1)

    @pytest.mark.parametrize("count", [10.5, 10.0, "10", None],
                             ids=["fraction", "integral-float", "string",
                                  "none"])
    def test_count_must_be_an_integer(self, count):
        """``unit_circle(10.5)`` used to give 11 points, the last one past
        pi, and ``log_continuous(count=10.5)`` a TypeError."""
        for grid in (FrequencyGrid.unit_circle,
                     lambda c: FrequencyGrid.log_continuous(count=c)):
            with pytest.raises(BadParameters,
                               match="^grid count must be an integer, got "):
                grid(count)

    @pytest.mark.parametrize("bounds, name", [
        (("1", 10.0), "omega_min"), ((1.0, None), "omega_max"),
    ], ids=["string-min", "none-max"])
    def test_bounds_must_be_real(self, bounds, name):
        """A string bound used to end in a TypeError from the comparison."""
        with pytest.raises(BadParameters,
                           match=f"^{name} must be a real number, got "):
            FrequencyGrid.log_continuous(*bounds, count=5)

    def test_numpy_real_bounds(self):
        g = FrequencyGrid.log_continuous(np.float32(1), np.int64(10), 3)
        assert g.parameters.tobytes() == np.geomspace(1.0, 10.0, 3).tobytes()

    def test_numpy_integer_count(self):
        g = FrequencyGrid.unit_circle(np.int64(10))
        assert len(g.points) == 10 and g.parameters[-1] == np.pi
        assert len(FrequencyGrid.log_continuous(count=np.int32(7)).points) == 7

    def test_count_capped_before_allocating(self):
        assert len(FrequencyGrid.unit_circle(MAX_GRID_COUNT).points) == MAX_GRID_COUNT
        for count in (MAX_GRID_COUNT + 1, 10**11):
            with pytest.raises(BadParameters, match="grid needs 2 to 1000000"):
                FrequencyGrid.unit_circle(count)
            with pytest.raises(BadParameters, match="grid needs 2 to 1000000"):
                FrequencyGrid.log_continuous(count=count)


class TestFrequencyResponse:
    def test_static_limit(self):
        s = SecondOrderSystem(1, 2, 1, 1, 1)
        g = FrequencyGrid.log_continuous(1e-4, 1e2, 100)
        resp = frequency_response(s, g)
        assert resp.sigma_max[0] == pytest.approx(1.0, rel=1e-6)

    def test_resonance_peak_within_2_percent(self):
        d = 0.01
        s = SecondOrderSystem(1.0, d, 1.0, 1.0, 1.0)
        resp = frequency_response(s)  # default grid + refinement
        analytic = 1.0 / (d * np.sqrt(1.0 - d * d / 4.0))
        assert abs(resp.hinf_estimate - analytic) <= 0.02 * analytic

    def test_nested_grid_never_decreases_peak(self):
        s = generate_msd_chain(6, damping=0.3)
        for count in (50, 99):
            g1 = FrequencyGrid.log_continuous(1e-2, 1e2, count)
            g2 = FrequencyGrid.log_continuous(1e-2, 1e2, 2 * count - 1)
            r1 = frequency_response(s, g1, refinement_rounds=0)
            r2 = frequency_response(s, g2, refinement_rounds=0)
            assert r2.hinf_estimate >= r1.hinf_estimate

    def test_refinement_only_increases(self):
        s = generate_msd_chain(6, damping=0.3)
        r0 = frequency_response(s, refinement_rounds=0)
        r3 = frequency_response(s, refinement_rounds=3)
        assert r3.hinf_estimate >= r0.hinf_estimate
        assert r3.hinf_estimate >= np.max(r3.sigma_max)

    def test_conjugate_symmetry(self):
        dsos = random_stable_discrete(0, 6, m=2, p=2)
        rng = np.random.default_rng(1)
        for theta in rng.uniform(0.1, np.pi - 0.1, 5):
            a = np.linalg.svd(dsos.transfer(np.exp(1j * theta)),
                              compute_uv=False)[0]
            b = np.linalg.svd(dsos.transfer(np.exp(1j * (2 * np.pi - theta))),
                              compute_uv=False)[0]
            assert a == pytest.approx(b, abs=1e-12 * a)

    def test_domain_mismatch(self):
        s = generate_msd_chain(4)
        with pytest.raises(DomainMismatch):
            frequency_response(s, FrequencyGrid.unit_circle(16))

    def test_csv_and_summary(self):
        dsos = random_stable_discrete(2, 4)
        resp = frequency_response(dsos, FrequencyGrid.unit_circle(16))
        buf = io.StringIO()
        resp.to_csv(buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "angle,sigma_max"
        assert len(lines) == 17
        buf2 = io.StringIO()
        resp.write_summary(buf2)
        data = json.loads(buf2.getvalue())
        assert data["hinf"] == resp.hinf_estimate
        assert data["grid_kind"] == "circle"
        assert data["refinement_rounds"] == 3
        assert len(data["argmax"]) == 2


def _reduced_pair(seed, n=3):
    dsos = random_stable_discrete(seed, 8, m=2, p=2)
    S, R, _ = run_recursion(dsos, RecursionConfig(n=n, seed=seed), "srlrg")
    red = reduce_model(dsos, build_projection(S, R))
    return dsos, red


class TestRre:
    def test_identical_models(self):
        dsos, _ = _reduced_pair(3)
        assert rre(dsos, dsos) == 0.0

    def test_zero_reduction_is_one(self):
        dsos, red = _reduced_pair(4)
        zero = SecondOrderSystem(red.M, red.D, red.K, np.zeros_like(red.F),
                                 red.G, h=red.h)
        assert rre(dsos, zero) == pytest.approx(1.0, abs=1e-10)

    def test_triangle_sanity(self):
        dsos, red = _reduced_pair(5)
        g = FrequencyGrid.unit_circle(64)
        val = rre(dsos, red, g)
        hf = frequency_response(dsos, g).hinf_estimate
        hr = frequency_response(red, g).hinf_estimate
        assert val <= (hf + hr) / hf * (1.0 + 1e-9)

    def test_io_mismatch(self):
        dsos, _ = _reduced_pair(6)
        other = random_stable_discrete(7, 8, m=1, p=1)
        with pytest.raises(DimensionMismatch):
            rre(dsos, other)

    def test_mixed_domain_discrete_mode(self):
        chain = generate_msd_chain(8, damping=1.0)
        dsos = discretize(chain, 0.5, Scheme.FORWARD_VELOCITY)
        S, R, _ = run_recursion(dsos, RecursionConfig(n=3, seed=0), "srlrh")
        red = reduce_model(dsos, build_projection(S, R))
        val = rre(chain, red, scheme=Scheme.FORWARD_VELOCITY, mode="discrete")
        direct = rre(dsos, red)
        assert val == pytest.approx(direct, rel=1e-12)

    def test_mixed_domain_continuous_mode(self):
        chain = generate_msd_chain(8, damping=1.0)
        dsos = discretize(chain, 0.5, Scheme.FORWARD_VELOCITY)
        S, R, _ = run_recursion(dsos, RecursionConfig(n=3, seed=0), "srlrh")
        red = reduce_model(dsos, build_projection(S, R))
        val = rre(chain, red, scheme=Scheme.FORWARD_VELOCITY, mode="continuous")
        assert 0.0 <= val < 2.0

    def test_mixed_domain_discretizes_full_model_once(self, monkeypatch):
        chain = generate_msd_chain(8, damping=1.0)
        dsos = discretize(chain, 0.5, Scheme.FORWARD_VELOCITY)
        S, R, _ = run_recursion(dsos, RecursionConfig(n=3, seed=0), "srlrh")
        red = reduce_model(dsos, build_projection(S, R))
        calls = []

        def counting_discretize(*args, **kwargs):
            calls.append(args)
            return discretize(*args, **kwargs)

        monkeypatch.setattr(metrics, "discretize", counting_discretize)
        val = rre(chain, red, scheme=Scheme.FORWARD_VELOCITY)
        assert len(calls) == 1
        err = error_response(chain, red, scheme=Scheme.FORWARD_VELOCITY)
        f_sys = discretize(chain, 0.5, Scheme.FORWARD_VELOCITY,
                           stability_check=False)
        assert val == (err.hinf_estimate
                       / frequency_response(f_sys, err.grid).hinf_estimate)

    def test_unknown_scheme_or_mode_rejected_in_every_domain(self):
        chain = generate_msd_chain(6)
        dsos = discretize(chain, 0.5)
        for f in (rre, error_response):
            for full, red in ((dsos, dsos), (chain, chain)):
                with pytest.raises(BadParameters, match="unknown scheme"):
                    f(full, red, scheme="bogus")
                with pytest.raises(BadParameters, match="mode must be"):
                    f(full, red, mode="bogus")

    def test_continuous_mode_needs_second_order_reduction(self):
        chain = generate_msd_chain(8, damping=1.0)
        bt = dense_balanced_truncation(linearize(discretize(chain, 0.5)), 2)[0]
        with pytest.raises(DomainMismatch, match="^continuous-mode comparison "
                           r"needs a second-order reduction \(first-order "
                           r"models cannot be mapped back\)$"):
            rre(chain, bt, mode="continuous")

    def test_reversed_mismatch_rejected(self):
        chain = generate_msd_chain(6, damping=1.0)
        dsos = discretize(chain, 0.5)
        with pytest.raises(DomainMismatch):
            rre(dsos, chain)


def test_error_response_curve_matches_pointwise():
    dsos, red = _reduced_pair(9)
    g = FrequencyGrid.unit_circle(32)
    err = error_response(dsos, red, g)
    for i in (0, 7, 31):
        pt = g.points[i]
        ref = np.linalg.svd(dsos.transfer(pt) - red.transfer(pt),
                            compute_uv=False)[0]
        assert err.sigma_max[i] == pytest.approx(ref, rel=1e-12)
    assert err.hinf_estimate >= np.max(err.sigma_max) - 1e-15


def test_rre_solves_full_model_once_per_point(monkeypatch):
    dsos, red = _reduced_pair(3)
    solved = count_solves(monkeypatch, dsos.order)
    rre(dsos, red, FrequencyGrid.unit_circle(64))
    assert len(solved) >= 64
    assert len(solved) == len(set(solved))
