from dataclasses import fields

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

from morso.bench import (
    BenchmarkSpec,
    RunConfig,
    generate_msd_chain,
    load_matrix_market,
    read_keyvalue_file,
    write_benchmark,
)
from morso.errors import BadParameters, DimensionMismatch, ParseError
from morso.systems import stability_report

from helpers import random_stable_discrete


class TestMsdChain:
    def test_tridiagonal_stencil(self):
        s = generate_msd_chain(3, stiffness=1.0, damping=0.0, mass=1.0)
        assert np.array_equal(s.K, [[2, -1, 0], [-1, 2, -1], [0, -1, 2]])
        assert np.array_equal(s.M, np.eye(3))
        assert np.array_equal(s.D, np.zeros((3, 3)))
        assert np.array_equal(s.F.ravel(), [1, 0, 0])
        assert np.array_equal(s.G.ravel(), [0, 0, 1])

    def test_symmetric_and_positive_definite(self):
        s = generate_msd_chain(10, stiffness=2.0, damping=0.5, mass=1.5, seed=4)
        for mat in (s.M, s.D, s.K):
            assert np.array_equal(mat, mat.T)
        assert np.linalg.eigvalsh(s.K).min() > 0

    def test_damped_chain_is_stable(self):
        s = generate_msd_chain(8, damping=0.3, seed=1)
        rep = stability_report(s)
        assert rep.is_stable and rep.margin > 0

    def test_seed_perturbs_masses(self):
        a = generate_msd_chain(5, seed=1)
        b = generate_msd_chain(5, seed=2)
        c = generate_msd_chain(5, seed=1)
        assert not np.array_equal(a.M, b.M)
        assert np.array_equal(a.M, c.M)
        assert np.max(np.abs(np.diag(a.M) - 1.0)) <= 0.1

    def test_bad_parameters(self):
        with pytest.raises(BadParameters):
            generate_msd_chain(1)
        with pytest.raises(BadParameters):
            generate_msd_chain(4, stiffness=0.0)
        with pytest.raises(BadParameters):
            generate_msd_chain(4, damping=-1.0)
        with pytest.raises(BadParameters):
            generate_msd_chain(4, mass=0.0)


class TestBenchmarkRoundtrip:
    def test_write_load_bit_exact(self, tmp_path):
        sos = random_stable_discrete(0, 6, m=2, p=2)
        spec_path = write_benchmark(tmp_path, "model", sos, suggested_halforder=2)
        spec = BenchmarkSpec.read(spec_path)
        assert spec.name == "model"
        assert spec.h == sos.h
        assert spec.expected == {"2N": 12, "m": 2, "p": 2, "2n": 4}
        loaded = load_matrix_market(spec)
        for name in ("M", "D", "K", "F", "G"):
            assert np.array_equal(getattr(loaded, name), getattr(sos, name))
        assert loaded.h == sos.h

    def test_continuous_spec_has_no_step(self, tmp_path):
        sos = generate_msd_chain(4, damping=0.5)
        spec = BenchmarkSpec.read(write_benchmark(tmp_path, "chain", sos))
        assert spec.h is None
        assert load_matrix_market(spec).is_continuous

    def test_expected_dims_enforced(self, tmp_path):
        sos = generate_msd_chain(4, damping=0.5)
        spec = BenchmarkSpec.read(write_benchmark(tmp_path, "chain", sos))
        spec.expected["2N"] = 10
        with pytest.raises(DimensionMismatch, match="2N"):
            load_matrix_market(spec)

    def test_missing_role_rejected(self):
        with pytest.raises(BadParameters):
            BenchmarkSpec(name="x", paths={"M": "m.mtx"})

    def test_spec_parse_errors(self, tmp_path):
        bad = tmp_path / "bad.spec"
        bad.write_text("name=x\nM broken line\n")
        with pytest.raises(ParseError):
            read_keyvalue_file(bad)


class TestRunConfig:
    def test_manifest_roundtrip(self, tmp_path):
        cfg = RunConfig(algorithm="srlrh", order=5, scheme="central", h=0.25,
                        tau=99, seed=7, rank_tol=1e-6, rre_mode="continuous")
        path = tmp_path / "manifest.txt"
        cfg.to_manifest(path, version="0.1.0")
        data = read_keyvalue_file(path)
        cfg2 = RunConfig.from_mapping(data)
        assert cfg2 == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(BadParameters):
            RunConfig.from_mapping({"bogus": "1"})

    def test_none_values_roundtrip(self, tmp_path):
        cfg = RunConfig()
        assert cfg.tau is None
        path = tmp_path / "m.txt"
        cfg.to_manifest(path)
        cfg2 = RunConfig.from_mapping(read_keyvalue_file(path))
        assert cfg2.tau is None and cfg2.h is None

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_manifest_roundtrip_property(self, tmp_path_factory, data):
        # NaN is the one float the manifest cannot round-trip by equality.
        floats = st.floats(allow_nan=False)
        strategies = {
            "algorithm": st.sampled_from(["srlrg", "srlrh"]),
            "order": st.integers(),
            "scheme": st.sampled_from(["forward", "backward", "central"]),
            "h": st.none() | floats,
            "tau": st.none() | st.integers(),
            "angle_tol": st.none() | floats,
            "max_steps": st.none() | st.integers(),
            "seed": st.none() | st.integers(),
            "rank_tol": floats,
            "grid_count": st.integers(),
            "omega_min": floats,
            "omega_max": floats,
            "rre_mode": st.sampled_from(["discrete", "continuous"]),
        }
        assert set(strategies) == {f.name for f in fields(RunConfig)}
        cfg = RunConfig(**{key: data.draw(strategy, label=key)
                           for key, strategy in strategies.items()})
        path = tmp_path_factory.mktemp("manifest") / "manifest.txt"
        cfg.to_manifest(path, version="0.1.0")
        assert RunConfig.from_mapping(read_keyvalue_file(path)) == cfg
