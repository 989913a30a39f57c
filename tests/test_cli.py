import io
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

import morso
from morso import cli, oracle, systems
from morso.bench import (
    BenchmarkSpec,
    generate_msd_chain,
    load_matrix_market,
    write_benchmark,
)
from morso.cli import cli_main
from morso.discretize import DEFAULT_SCHEME, discretize
from morso.errors import (
    MorsoError,
    ParseError,
    ShrunkRankWarning,
    UnstableReductionWarning,
    ValidationError,
)
from morso.metrics import (
    default_grid,
    error_response,
    frequency_response,
    rre,
)
from morso.projection import build_projection, reduce_model
from morso.recursion import RecursionConfig, run_recursion

from helpers import count_angle_kernels, count_solves


@pytest.fixture(scope="module")
def chain_spec(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench")
    code = cli_main(["gen-msd", "--n", "10", "--damping", "1.0", "--seed", "3",
                     "--out", str(out)])
    assert code == 0
    return str(out / "msd_chain.spec")


def test_info(chain_spec, capsys):
    assert cli_main(["info", chain_spec]) == 0
    out = capsys.readouterr().out
    assert "N=10" in out
    assert "stable" in out
    assert "hinf" in out


def test_reduce_outputs(chain_spec, tmp_path):
    out = tmp_path / "run"
    code = cli_main(["reduce", chain_spec, "--algo", "srlrh", "--order", "3",
                     "--h", "0.5", "--seed", "5", "--out", str(out)])
    assert code == 0
    files = set(os.listdir(out))
    assert "diagnostics.csv" in files
    assert "manifest.txt" in files
    assert "msd_chain_reduced.spec" in files
    spec = BenchmarkSpec.read(out / "msd_chain_reduced.spec")
    red = load_matrix_market(spec)
    assert red.order == 3
    assert red.is_discrete and red.h == 0.5
    manifest = (out / "manifest.txt").read_text()
    assert "seed=5" in manifest
    assert "algorithm=srlrh" in manifest


def test_reduce_deterministic(chain_spec, tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = cli_main(["reduce", chain_spec, "--algo", "srlrg", "--order",
                         "2", "--h", "0.5", "--seed", "9", "--out", str(out)])
        assert code == 0
        outs.append(out)
    for fname in os.listdir(outs[0]):
        a = (outs[0] / fname).read_bytes()
        b = (outs[1] / fname).read_bytes()
        assert a == b, fname


def test_reduce_continuous_output(chain_spec, tmp_path):
    out = tmp_path / "cont"
    code = cli_main(["reduce", chain_spec, "--algo", "srlrg", "--order", "2",
                     "--h", "0.5", "--seed", "1", "--continuous-output",
                     "--out", str(out)])
    assert code == 0
    red = load_matrix_market(BenchmarkSpec.read(out / "msd_chain_reduced.spec"))
    assert red.is_continuous


def test_compare_table(chain_spec, tmp_path):
    out = tmp_path / "cmp"
    code = cli_main(["compare", chain_spec, "--orders", "2,4", "--methods",
                     "srlrg,srlrh,bt", "--h", "0.5", "--seed", "0",
                     "--out", str(out)])
    assert code == 0
    lines = (out / "comparison.csv").read_text().splitlines()
    assert lines[0] == "model,method,order,hinf_full,rre,stable_reduced,error"
    assert len(lines) == 7  # 2 orders x 3 methods
    for line in lines[1:]:
        cells = line.split(",")
        assert cells[0] == "msd_chain"
        assert cells[1] in ("srlrg", "srlrh", "bt")
        assert cells[6] == ""  # no failure rows expected here
        assert float(cells[4]) >= 0.0
    assert (out / "sigma_full.csv").exists()
    assert (out / "sigma_error_bt_2.csv").exists()
    assert (out / "sigma_error_srlrh_4.csv").exists()


def test_compare_continuous_mode(chain_spec, tmp_path):
    """Continuous mode scores srlrg/srlrh on the imaginary axis against the
    inverse-discretized reductions and bt on the circle, as discrete mode
    does."""
    outs = {mode: tmp_path / mode for mode in ("discrete", "continuous")}
    for mode, out in outs.items():
        assert cli_main(["compare", chain_spec, "--orders", "2,3", "--h",
                         "0.5", "--seed", "1", "--rre-mode", mode,
                         "--out", str(out)]) == 0
    out = outs["continuous"]
    assert not (outs["discrete"] / "sigma_full_continuous.csv").exists()
    sos = load_matrix_market(BenchmarkSpec.read(chain_spec))
    grid = default_grid(sos)
    table = io.StringIO()
    frequency_response(sos, grid).to_csv(table)
    assert (out / "sigma_full_continuous.csv").read_text() == table.getvalue()

    rows = {mode: [line.split(",") for line in
                   (o / "comparison.csv").read_text().splitlines()[1:]]
            for mode, o in outs.items()}
    assert ([r for r in rows["continuous"] if r[1] == "bt"]
            == [r for r in rows["discrete"] if r[1] == "bt"])
    for name in ("sigma_error_bt_2.csv", "sigma_error_bt_3.csv"):
        assert (out / name).read_bytes() == (outs["discrete"] / name).read_bytes()
    dsos = discretize(sos, 0.5)
    cells = [r for r in rows["continuous"] if r[1] != "bt"]
    assert len(cells) == 4
    for _, method, n, _, value, _, error in cells:
        S, R, _ = run_recursion(dsos, RecursionConfig(n=int(n), seed=1), method)
        red = reduce_model(dsos, build_projection(S, R, 1e-7))
        assert error == ""
        expected = rre(sos, red, grid, scheme=DEFAULT_SCHEME, mode="continuous")
        assert value == f"{expected:.6e}"


@pytest.fixture(scope="module")
def discrete_spec(tmp_path_factory):
    dsos = discretize(generate_msd_chain(12, damping=1.0), 0.5)
    return write_benchmark(tmp_path_factory.mktemp("dbench"), "dchain", dsos)


@pytest.mark.parametrize("command", [["reduce", "--order", "2"],
                                     ["compare", "--orders", "2"]])
def test_discrete_spec_runs_at_its_own_step(discrete_spec, tmp_path, capsys,
                                            command):
    name, *flags = command
    outs = []
    for h_flag in ([], ["--h", "0.5"]):
        outs.append(tmp_path / f"run{len(outs)}")
        assert cli_main([name, discrete_spec, *flags, *h_flag, "--seed", "1",
                         "--out", str(outs[-1])]) == 0
    # the manifest records --h; every other output is the same either way
    files = sorted(p.name for p in outs[0].iterdir())
    assert files == sorted(p.name for p in outs[1].iterdir())
    for fname in files:
        if fname != "manifest.txt":
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()
    capsys.readouterr()
    bad = tmp_path / "bad"
    assert cli_main([name, discrete_spec, *flags, "--h", "0.25",
                     "--out", str(bad)]) == 1
    assert "conflicts with the model's own step" in capsys.readouterr().err
    assert not bad.exists()


def test_compare_has_failure_rows_not_omissions(tmp_path):
    # an unstable model makes the bt cell fail; the row must still appear
    out_b = tmp_path / "bench"
    assert cli_main(["gen-msd", "--n", "6", "--damping", "0.0", "--out",
                     str(out_b)]) == 0
    spec = str(out_b / "msd_chain.spec")
    out = tmp_path / "cmp"
    code = cli_main(["compare", spec, "--orders", "2", "--methods", "bt",
                     "--h", "0.3", "--out", str(out)])
    assert code == 0
    lines = (out / "comparison.csv").read_text().splitlines()
    assert len(lines) == 2
    assert lines[1].split(",")[6] != ""


def test_compare_failed_bt_factors_give_a_row_per_cell(tmp_path):
    out_b = tmp_path / "bench"
    assert cli_main(["gen-msd", "--n", "6", "--damping", "0.0", "--out",
                     str(out_b)]) == 0
    out = tmp_path / "cmp"
    assert cli_main(["compare", str(out_b / "msd_chain.spec"), "--orders",
                     "1,2", "--methods", "bt", "--h", "0.3",
                     "--out", str(out)]) == 0
    rows = (out / "comparison.csv").read_text().splitlines()[1:]
    assert [row.split(",")[6] for row in rows] == ["UnstableSystem"] * 2


def test_compare_builds_bt_factors_once(chain_spec, tmp_path, monkeypatch):
    calls = []
    stein = oracle.stein_gramians

    def counting_stein(fos):
        calls.append(fos)
        return stein(fos)

    monkeypatch.setattr(oracle, "stein_gramians", counting_stein)
    assert cli_main(["compare", chain_spec, "--orders", "2,4,6", "--methods",
                     "bt", "--h", "0.5", "--out", str(tmp_path / "cmp")]) == 0
    assert len(calls) == 1


@pytest.mark.filterwarnings("ignore::morso.errors.ShrunkRankWarning")
def test_compare_solves_full_model_once_per_point(tmp_path, monkeypatch):
    bench = tmp_path / "bench"
    assert cli_main(["gen-msd", "--n", "32", "--damping", "1.0", "--seed", "1",
                     "--out", str(bench)]) == 0
    solved = count_solves(monkeypatch, 32)
    assert cli_main(["compare", str(bench / "msd_chain.spec"), "--h", "0.5",
                     "--seed", "1", "--orders", "2,4,6",
                     "--out", str(tmp_path / "cmp")]) == 0
    # the continuous model on its table grid, the discretized one on the
    # circle, and the refinement points of every peak
    assert len(solved) > 800
    assert len(solved) == len(set(solved))


def test_info_rejects_infinite_step(tmp_path, capsys):
    bench = tmp_path / "bench"
    assert cli_main(["gen-msd", "--n", "4", "--out", str(bench)]) == 0
    spec = bench / "msd_chain.spec"
    spec.write_text(spec.read_text() + "h=inf\n")
    capsys.readouterr()
    assert cli_main(["info", str(spec)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "finite" in err


@pytest.mark.parametrize("flags, message", [
    (["--h", "inf"], "error: discrete step h must be positive and finite"),
    (["--h", "0.5", "--rank-tol", "nan"], "error: rank_tol must be at most 1"),
], ids=["h-inf", "rank-tol-nan"])
def test_reduce_bad_step_or_rank_tol_exit_1(chain_spec, tmp_path, capsys,
                                            flags, message):
    capsys.readouterr()
    assert cli_main(["reduce", chain_spec, *flags,
                     "--out", str(tmp_path / "x")]) == 1
    assert capsys.readouterr().err.startswith(message)


@pytest.mark.parametrize("argv, env_seed, config, message", [
    (["reduce", "--seed", "-1"], None, "", "seed must be >= 0, got -1"),
    (["reduce"], "-1", "", "seed must be >= 0, got -1"),
    (["compare", "--orders", "2"], None, "omega_max=inf\n",
     "need 0 < omega_min < omega_max < inf, got [0.01, inf]"),
], ids=["seed-flag", "seed-env", "omega-max-inf"])
def test_run_out_of_range_input_exit_1(chain_spec, tmp_path, monkeypatch,
                                       capsys, argv, env_seed, config,
                                       message):
    if env_seed is not None:
        monkeypatch.setenv("MORSO_SEED", env_seed)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config)
    capsys.readouterr()
    assert cli_main([argv[0], chain_spec, *argv[1:], "--h", "0.5", "--config",
                     str(cfg), "--out", str(tmp_path / "x")]) == 1
    assert capsys.readouterr().err.startswith(f"error: {message}")


@pytest.mark.parametrize("flags, message", [
    (["--seed", "-1"], "seed must be >= 0, got -1"),
    (["--stiffness", "inf"], "stiffness must be positive and finite, got inf"),
    (["--damping", "nan"], "damping must be nonnegative and finite, got nan"),
    (["--mass", "inf"], "mass must be positive and finite, got inf"),
], ids=["seed", "stiffness", "damping", "mass"])
def test_gen_msd_out_of_range_input_exit_1(tmp_path, capsys, flags, message):
    assert cli_main(["gen-msd", "--n", "8", *flags,
                     "--out", str(tmp_path / "g")]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


_BAD_NAMES = ["../../escaped", "a,b", "a/b", "", ".", ".."]


@pytest.mark.parametrize("name", [*_BAD_NAMES, "a\nb"])
def test_gen_msd_bad_name_exit_1(tmp_path, capsys, name):
    """A name stems the output file names, so it may not leave --out, and
    fills the spec's name line, so it may not break it."""
    out = tmp_path / "g" / "deep"
    assert cli_main(["gen-msd", "--n", "8", "--name", name,
                     "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: name must not be empty")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", [
    ["info", "{spec}"],
    ["reduce", "{spec}", "--h", "0.5", "--out", "{out}"],
    ["compare", "{spec}", "--orders", "2", "--h", "0.5", "--out", "{out}"],
], ids=lambda c: c[0])
@pytest.mark.parametrize("name", _BAD_NAMES)
def test_spec_bad_name_exit_1(tmp_path, capsys, command, name):
    """A spec's name escapes --out as a file name stem ("../../escaped") or
    adds a comparison.csv column ("a,b") unless it is refused."""
    bench = tmp_path / "bench"
    assert cli_main(["gen-msd", "--n", "8", "--out", str(bench)]) == 0
    spec = bench / "bad.spec"
    spec.write_text((bench / "msd_chain.spec").read_text() + f"name={name}\n")
    before = sorted(p for p in tmp_path.rglob("*"))
    capsys.readouterr()
    out = tmp_path / "run" / "deep"
    assert cli_main([a.format(spec=spec, out=out) for a in command]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "name must not be empty" in err
    assert sorted(p for p in tmp_path.rglob("*")) == before


def test_compare_reports_shrunk_order(tmp_path, capsys):
    # on this chain the srlrh n=6 cell keeps only 5 directions
    bench = tmp_path / "bench"
    assert cli_main(["gen-msd", "--n", "32", "--damping", "1.0", "--seed", "1",
                     "--out", str(bench)]) == 0
    capsys.readouterr()
    with pytest.warns(ShrunkRankWarning):
        assert cli_main(["compare", str(bench / "msd_chain.spec"), "--h", "0.5",
                         "--seed", "1", "--orders", "6", "--methods", "srlrh",
                         "--out", str(tmp_path / "cmp")]) == 0
    status = capsys.readouterr().out.splitlines()[1]
    assert status.startswith("  srlrh  n=6 ")
    assert status.endswith(" retained=5")


def test_order_validation_exit_1(chain_spec, tmp_path):
    code = cli_main(["reduce", chain_spec, "--algo", "srlrg", "--order", "10",
                     "--out", str(tmp_path / "x")])
    assert code == 1


def test_missing_spec_exit_1(tmp_path):
    assert cli_main(["info", str(tmp_path / "none.spec")]) == 1


def test_bad_usage_exit_1():
    assert cli_main(["frobnicate"]) == 1


def _error_classes(cls=MorsoError):
    for sub in cls.__subclasses__():
        yield sub
        yield from _error_classes(sub)


@pytest.mark.parametrize("error", list(_error_classes()),
                         ids=lambda c: c.__name__)
def test_exit_code_follows_error_class(error, monkeypatch, capsys):
    def fail(args):
        if issubclass(error, ParseError):
            raise error("model.spec", 3, "boom")
        raise error("boom")

    monkeypatch.setitem(cli._COMMANDS, "info", fail)
    code = cli_main(["info", "model.spec"])
    err = capsys.readouterr().err
    if issubclass(error, ValidationError):
        assert code == 1
        assert err.startswith("error: ")
    else:
        assert code == 2
        assert err.startswith(f"numerical failure ({error.__name__}): ")


def test_env_seed_override(chain_spec, tmp_path, monkeypatch):
    monkeypatch.setenv("MORSO_SEED", "77")
    out = tmp_path / "env"
    assert cli_main(["reduce", chain_spec, "--algo", "srlrg", "--order", "2",
                     "--h", "0.5", "--out", str(out)]) == 0
    assert "seed=77" in (out / "manifest.txt").read_text()


def test_env_seed_not_integer_exit_1(chain_spec, tmp_path, monkeypatch,
                                    capsys):
    monkeypatch.setenv("MORSO_SEED", "abc")
    assert cli_main(["reduce", chain_spec, "--h", "0.5",
                     "--out", str(tmp_path / "x")]) == 1
    assert "error: MORSO_SEED must be an integer" in capsys.readouterr().err


def test_compare_bad_orders_exit_1(chain_spec, tmp_path, capsys):
    assert cli_main(["compare", chain_spec, "--orders", "2,x", "--h", "0.5",
                     "--out", str(tmp_path / "x")]) == 1
    assert "error: --orders must be an integer" in capsys.readouterr().err


def test_compare_honours_config_recursion_settings(chain_spec, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("angle_tol=1e-12\nmax_steps=3\n")
    out = tmp_path / "cmp"
    assert cli_main(["compare", chain_spec, "--orders", "2", "--h", "0.5",
                     "--config", str(cfg), "--out", str(out)]) == 0
    rows = [line.split(",") for line in
            (out / "comparison.csv").read_text().splitlines()[1:]]
    errors = {row[1]: row[6] for row in rows}
    assert errors == {"srlrg": "MaxStepsExceeded",
                      "srlrh": "MaxStepsExceeded", "bt": ""}


@pytest.mark.parametrize("config", ["", "angle_tol=1e-6\nmax_steps=3000\n"],
                         ids=["fixed-steps", "angle-converged"])
# Some of these reductions of the chain are unstable; reduce warns of it.
@pytest.mark.filterwarnings("ignore::morso.errors.UnstableReductionWarning")
def test_compare_scores_the_model_reduce_writes(tmp_path, capsys, monkeypatch,
                                                config):
    """Each srlrg/srlrh cell of compare scores the very reduced model that
    reduce writes under the same settings: its error curve is byte for
    byte the curve of reduce's reloaded spec.  Compare keeps no angle trace
    in a fixed-step run, so it calls no angle kernel there; an angle-tol
    cell computes every angle its stopping rule reads, as reduce does."""
    bench = tmp_path / "bench"
    assert cli_main(["gen-msd", "--n", "32", "--damping", "1.0", "--seed",
                     "1", "--out", str(bench)]) == 0
    spec = str(bench / "msd_chain.spec")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config)
    run = ["--h", "0.5", "--seed", "1", "--config", str(cfg)]
    cmp_out = tmp_path / "cmp"
    calls = count_angle_kernels(monkeypatch)
    assert cli_main(["compare", spec, "--orders", "2,4", "--methods",
                     "srlrg,srlrh", *run, "--out", str(cmp_out)]) == 0
    compare_calls = dict(calls)
    dsos = discretize(load_matrix_market(BenchmarkSpec.read(spec)), 0.5)
    termination = "angle-converged" if config else "fixed-steps"
    traced_calls = {"_orth": 0, "_max_principal_angle": 0}
    for algo in ("srlrg", "srlrh"):
        for n in (2, 4):
            out = tmp_path / f"{algo}-{n}"
            capsys.readouterr()
            assert cli_main(["reduce", spec, "--algo", algo, "--order",
                             str(n), *run, "--out", str(out)]) == 0
            taken = re.search(rf"steps taken: +(\d+) \({termination}\)",
                              capsys.readouterr().out)
            assert taken is not None
            traced_calls["_orth"] += 2 * int(taken[1]) + 2
            traced_calls["_max_principal_angle"] += 2 * int(taken[1])
            reduced = load_matrix_market(
                BenchmarkSpec.read(out / "msd_chain_reduced.spec"))
            buf = io.StringIO()
            error_response(dsos, reduced, default_grid(dsos),
                           scheme=DEFAULT_SCHEME, mode="discrete").to_csv(buf)
            assert (buf.getvalue().encode()
                    == (cmp_out / f"sigma_error_{algo}_{n}.csv").read_bytes())
    if config:
        assert compare_calls == traced_calls
    else:
        assert compare_calls == {"_orth": 0, "_max_principal_angle": 0}


def test_compare_tau_with_config_angle_tol_exit_1(chain_spec, tmp_path,
                                                  capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("angle_tol=1e-6\n")
    assert cli_main(["compare", chain_spec, "--orders", "2", "--h", "0.5",
                     "--tau", "5", "--config", str(cfg),
                     "--out", str(tmp_path / "cmp")]) == 1
    assert ("give either tau or angle_tol, not both"
            in capsys.readouterr().err)


@pytest.mark.parametrize("command", [
    ["reduce", "--max-steps", "3"],
    ["reduce", "--config", "steps.cfg"],
    ["compare", "--orders", "2", "--config", "steps.cfg"],
])
def test_max_steps_without_angle_tol_exit_1(chain_spec, tmp_path, capsys,
                                            command):
    """``max_steps`` bounds only the angle stopping rule: without
    ``angle_tol`` it would be ignored, so it fails the run instead."""
    (tmp_path / "steps.cfg").write_text("max_steps=3\n")
    command = [str(tmp_path / a) if a.endswith(".cfg") else a for a in command]
    out = tmp_path / "run"
    assert cli_main([command[0], chain_spec, "--h", "0.5", *command[1:],
                     "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: max_steps bounds the angle_tol stopping rule and needs "
        "angle_tol\n")
    assert not out.exists()


@pytest.mark.parametrize("flags, message", [
    (["--orders", "2,4,2"], "--orders names 2 more than once"),
    (["--orders", "2", "--methods", "srlrg,bt,srlrg"],
     "--methods names srlrg more than once"),
])
def test_compare_repeated_cell_exit_1(chain_spec, tmp_path, capsys, flags,
                                      message):
    out = tmp_path / "cmp"
    assert cli_main(["compare", chain_spec, "--h", "0.5", *flags,
                     "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("flags, message", [
    (["--orders", ","], "--orders must name at least one half-order"),
    (["--orders", "2", "--methods", ","],
     "--methods must name at least one method"),
], ids=["orders", "methods"])
def test_compare_empty_list_exit_1(chain_spec, tmp_path, capsys, flags,
                                   message):
    out = tmp_path / "cmp"
    assert cli_main(["compare", chain_spec, "--h", "0.5", *flags,
                     "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_compare_unknown_method_exit_1(chain_spec, tmp_path, capsys):
    out = tmp_path / "cmp"
    assert cli_main(["compare", chain_spec, "--orders", "2", "--h", "0.5",
                     "--methods", "foo", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: unknown method 'foo'\n"
    assert not out.exists()


def test_config_bad_value_exit_1(chain_spec, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("tau=abc\n")
    out = tmp_path / "x"
    assert cli_main(["reduce", chain_spec, "--h", "0.5", "--config", str(cfg),
                     "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: bad value for 'tau': 'abc'\n"
    assert not out.exists()


def test_reduce_warns_about_unstable_reduced_model(tmp_path, capsys):
    """An unstable reduced model is written as before, with a warning that
    gives its stability margin."""
    bench = tmp_path / "bench"
    assert cli_main(["gen-msd", "--n", "32", "--damping", "1.0", "--seed",
                     "1", "--out", str(bench)]) == 0
    out = tmp_path / "run"
    with pytest.warns(UnstableReductionWarning,
                      match=r"^the reduced model is unstable: stability "
                            r"margin -\d\.\d{6}e[+-]\d\d$") as record:
        assert cli_main(["reduce", str(bench / "msd_chain.spec"), "--h",
                         "0.5", "--seed", "1", "--order", "4",
                         "--out", str(out)]) == 0
    red = load_matrix_market(BenchmarkSpec.read(out / "msd_chain_reduced.spec"))
    margin = float(str(record[0].message).rsplit(" ", 1)[1])
    assert margin == pytest.approx(systems.stability_report(red).margin,
                                   rel=1e-6)
    assert "steps taken:    192 (fixed-steps)" in capsys.readouterr().out


def test_reduce_stable_reduced_model_is_silent(chain_spec, tmp_path):
    out = tmp_path / "run"
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        assert cli_main(["reduce", chain_spec, "--algo", "srlrh", "--order",
                         "3", "--h", "0.5", "--seed", "5",
                         "--out", str(out)]) == 0
    red = load_matrix_market(BenchmarkSpec.read(out / "msd_chain_reduced.spec"))
    assert systems.stability_report(red).is_stable
    assert not [w for w in record
                if issubclass(w.category, UnstableReductionWarning)]


@pytest.mark.parametrize("methods", ["bt", "srlrg,bt"])
def test_compare_checks_recursion_settings_before_writing(chain_spec, tmp_path,
                                                          capsys, methods):
    """A bad recursion setting fails compare before ``--out`` is created,
    whichever methods run."""
    out = tmp_path / "cmp"
    assert cli_main(["compare", chain_spec, "--orders", "2", "--h", "0.5",
                     "--methods", methods, "--seed", "-1",
                     "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
    assert not out.exists()


@pytest.mark.parametrize("methods", ["bt", "srlrg,bt"])
def test_compare_checks_rank_tol_before_writing(chain_spec, tmp_path, capsys,
                                                methods):
    out = tmp_path / "cmp"
    assert cli_main(["compare", chain_spec, "--orders", "2", "--h", "0.5",
                     "--methods", methods, "--rank-tol", "nan",
                     "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: rank_tol must be at most 1, got nan\n"
    assert not out.exists()


def test_compare_rejects_huge_grid_before_writing(chain_spec, tmp_path, capsys):
    cfg = tmp_path / "grid.cfg"
    cfg.write_text("grid_count=100000000000\n")
    out = tmp_path / "cmp"
    assert cli_main(["compare", chain_spec, "--orders", "2", "--h", "0.5",
                     "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: grid needs 2 to 1000000 points, got 100000000000\n")
    assert not out.exists()


def test_compare_refuses_bt_above_dense_limit_before_writing(
        tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(systems, "DENSE_ORDER_LIMIT", 60)
    spec_dir = tmp_path / "bench"
    assert cli_main(["gen-msd", "--n", "80", "--out", str(spec_dir)]) == 0
    out = tmp_path / "cmp"
    assert cli_main(["compare", str(spec_dir / "msd_chain.spec"), "--orders",
                     "2", "--h", "0.5", "--methods", "srlrg,bt",
                     "--out", str(out)]) == 1
    assert "above DENSE_ORDER_LIMIT=60" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("entry,message", [
    ("order=", "configuration key 'order' needs a value"),
    ("seed=", "configuration key 'seed' needs a value"),
    ("rre_mode=bogus", "rre_mode must be 'discrete' or 'continuous'"),
    ("to_manifest=x", "unknown configuration key 'to_manifest'"),
    ("from_mapping=1", "unknown configuration key 'from_mapping'"),
])
def test_config_leaving_a_setting_empty_exit_1(chain_spec, tmp_path, capsys,
                                               entry, message):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(entry + "\n")
    assert cli_main(["reduce", chain_spec, "--h", "0.5", "--config", str(cfg),
                     "--out", str(tmp_path / "x")]) == 1
    assert f"error: {message}" in capsys.readouterr().err


def test_config_file_defaults(chain_spec, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("algorithm=srlrh\norder=2\nh=0.5\nseed=11\n")
    out = tmp_path / "cfgrun"
    assert cli_main(["reduce", chain_spec, "--config", str(cfg),
                     "--out", str(out)]) == 0
    manifest = (out / "manifest.txt").read_text()
    assert "algorithm=srlrh" in manifest
    assert "seed=11" in manifest


def test_manifest_reusable_as_config(chain_spec, tmp_path):
    out1 = tmp_path / "r1"
    assert cli_main(["reduce", chain_spec, "--algo", "srlrg", "--order", "2",
                     "--h", "0.5", "--seed", "2", "--out", str(out1)]) == 0
    out2 = tmp_path / "r2"
    assert cli_main(["reduce", chain_spec, "--config",
                     str(out1 / "manifest.txt"), "--out", str(out2)]) == 0
    for fname in ("msd_chain_reduced_M.mtx", "diagnostics.csv"):
        assert (out1 / fname).read_bytes() == (out2 / fname).read_bytes()


def test_default_step_manifest_reusable_as_config(chain_spec, tmp_path):
    """The default step is written as a plain float that ``--config``
    reads back."""
    out1 = tmp_path / "r1"
    assert cli_main(["reduce", chain_spec, "--order", "2", "--tau", "20",
                     "--out", str(out1)]) == 0
    manifest = (out1 / "manifest.txt").read_text()
    assert "h=0." in manifest
    out2 = tmp_path / "r2"
    assert cli_main(["reduce", chain_spec, "--config",
                     str(out1 / "manifest.txt"), "--out", str(out2)]) == 0
    for path in out1.iterdir():
        assert (out2 / path.name).read_bytes() == path.read_bytes()


def test_small_models_never_load_scipy_io(tmp_path):
    """An N = 32 chain's files are below the size from which mmio hands
    array text to scipy's C++ reader and writer, so generating, reducing,
    comparing and inspecting it never imports scipy.io."""
    script = """
import sys
from morso.cli import cli_main
spec = "b/msd_chain.spec"
for argv in (["gen-msd", "--n", "32", "--out", "b"],
             ["reduce", spec, "--h", "0.5", "--out", "r"],
             ["compare", spec, "--orders", "2", "--h", "0.5", "--out", "c"],
             ["info", spec]):
    assert cli_main(argv) == 0, argv
print("scipy.io" in sys.modules)
"""
    src = os.path.dirname(os.path.dirname(morso.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-c", script], cwd=tmp_path,
                            env=env, capture_output=True, text=True,
                            timeout=300)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "False"
