from dataclasses import fields

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

from morso.bench import (
    ROLES,
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


_SPEC_LINES = [f"{role}={role}.mtx" for role in ROLES] + [
    "name=x", "h=0.5", "expected_2N=8", "expected_m=1", "suggested_2n=2"]


@st.composite
def _edited_spec(draw):
    lines = list(_SPEC_LINES)
    i = draw(st.integers(0, len(lines) - 1))
    if draw(st.booleans()):
        del lines[i]
    else:
        lines[i] = lines[i].partition("=")[0] + "=" + draw(st.text(max_size=8))
    return "".join(line + "\n" for line in lines).encode("utf-8")


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

    @pytest.mark.parametrize("kwargs, name", [
        ({"N": 5.5}, "N"), ({"N": 5.0}, "N"), ({"N": 5, "seed": 1.5}, "seed"),
    ], ids=["fraction", "integral-float", "seed"])
    def test_size_and_seed_must_be_integers(self, kwargs, name):
        """These used to end in a numpy TypeError."""
        with pytest.raises(BadParameters, match=f"^{name} must be an integer"):
            generate_msd_chain(**kwargs)

    @pytest.mark.parametrize("name, value", [
        ("stiffness", None), ("damping", "0.5"), ("mass", "1"),
    ])
    def test_constants_must_be_real(self, name, value):
        """These used to end in a TypeError from the comparison."""
        with pytest.raises(BadParameters,
                           match=f"^{name} must be a real number, got "):
            generate_msd_chain(4, **{name: value})

    def test_numpy_integer_size_and_seed(self):
        a = generate_msd_chain(np.int64(5), seed=np.int32(1))
        b = generate_msd_chain(5, seed=1)
        assert a.order == 5 and np.array_equal(a.M, b.M)


class TestBenchmarkRoundtrip:
    def test_write_load_bit_exact(self, tmp_path):
        sos = random_stable_discrete(0, 6, m=2, p=2)
        spec_path = write_benchmark(tmp_path, "model", sos)
        spec = BenchmarkSpec.read(spec_path)
        assert spec.name == "model"
        assert spec.h == sos.h
        assert spec.expected == {"2N": 12, "m": 2, "p": 2}
        loaded = load_matrix_market(spec)
        for name in ("M", "D", "K", "F", "G"):
            assert np.array_equal(getattr(loaded, name), getattr(sos, name))
        assert loaded.h == sos.h
        # A suggested reduced order in the spec is written and read back.
        spec.expected["2n"] = 4
        spec.write(spec_path)
        assert BenchmarkSpec.read(spec_path).expected == {
            "2N": 12, "m": 2, "p": 2, "2n": 4}

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

    @pytest.mark.parametrize("key,value", [("h", "abc"), ("expected_2N", "x")])
    def test_bad_spec_value_is_parse_error(self, tmp_path, key, value):
        path = tmp_path / "s.spec"
        path.write_text("".join(line + "\n" for line in _SPEC_LINES)
                        + f"{key}={value}\n")
        with pytest.raises(ParseError, match=f"'{key}': '{value}'"):
            BenchmarkSpec.read(path)

    def test_non_utf8_spec_is_parse_error(self, tmp_path):
        path = tmp_path / "s.spec"
        path.write_bytes(b"name=x\nM=\xff.mtx\n")
        with pytest.raises(ParseError, match="0xff") as exc:
            BenchmarkSpec.read(path)
        assert exc.value.lineno == 2

    @settings(max_examples=150, deadline=None)
    @given(raw=st.binary(max_size=200) | _edited_spec())
    def test_spec_fuzz(self, tmp_path_factory, raw):
        """Arbitrary bytes, or a valid spec with one line deleted or one
        value replaced, either read or raise ParseError."""
        path = tmp_path_factory.getbasetemp() / "fuzz.spec"
        path.write_bytes(raw)
        try:
            spec = BenchmarkSpec.read(path)
        except ParseError:
            return
        assert isinstance(spec, BenchmarkSpec)


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
