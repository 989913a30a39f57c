import os

import numpy as np
import pytest

from morso import oracle
from morso.bench import BenchmarkSpec, load_matrix_market
from morso.cli import cli_main
from morso.errors import ShrunkRankWarning

from helpers import count_solves


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


def test_compare_tau_with_config_angle_tol_exit_1(chain_spec, tmp_path,
                                                  capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("angle_tol=1e-6\n")
    assert cli_main(["compare", chain_spec, "--orders", "2", "--h", "0.5",
                     "--tau", "5", "--config", str(cfg),
                     "--out", str(tmp_path / "cmp")]) == 1
    assert ("give either tau or angle_tol, not both"
            in capsys.readouterr().err)


@pytest.mark.parametrize("entry,message", [
    ("order=", "configuration key 'order' needs a value"),
    ("seed=", "configuration key 'seed' needs a value"),
    ("rre_mode=bogus", "rre_mode must be 'discrete' or 'continuous'"),
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
