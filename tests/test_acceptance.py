"""Acceptance suite.

Each test checks one release criterion at its stated tolerance and prints a
single PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s`` to
see them).  Criterion 8 needs externally supplied benchmark data; point
``MORSO_BENCH_DIR`` at a directory containing ``building.spec`` (and
optionally ``iss1r.spec``) to enable it, otherwise it is skipped.
"""

import os
import time

import numpy as np
import pytest

import firstorder
from helpers import (
    equivalence_suite,
    known_hsv_fos,
    random_sos,
    random_stable_discrete,
    random_stable_fos,
)

from morso.bench import BenchmarkSpec, generate_msd_chain, load_matrix_market
from morso.cli import cli_main
from morso.discretize import Scheme, consistency_error, discretize, inverse_discretize
from morso.metrics import FrequencyGrid, error_response, frequency_response, rre
from morso.oracle import dense_balanced_truncation, stein_gramians, subspace_angles
from morso.projection import build_projection, reduce_model, verify_structure_conditions
from morso.recursion import (
    RecursionConfig,
    run_recursion,
    srlrg_step,
    srlrh_step,
)
from morso.systems import SecondOrderSystem, linearize

ALL_SCHEMES = list(Scheme)


def _report(num, name, ok, detail):
    print(f"[acceptance {num}] {name}: {detail} -> {'PASS' if ok else 'FAIL'}")


def _suite_iterates(rng_seed_offset=1000):
    """Initial stacked iterates ``[prev; curr]`` per suite case, matching
    the equivalence runs."""
    for seed, N, n, mp in equivalence_suite():
        dsos = random_stable_discrete(seed, N, m=mp, p=mp)
        rng = np.random.default_rng(seed + rng_seed_offset)
        S, R = (np.vstack([np.linalg.qr(rng.standard_normal((N, n)))[0]
                           for _ in range(2)]) for _ in range(2))
        yield dsos, n, S, R


@pytest.fixture(scope="module")
def suite_final_subspaces():
    """Final (S, R) of a full recursion for every suite case and algorithm."""
    results = []
    for dsos, n, S0, R0 in _suite_iterates():
        N = dsos.order
        for algo, step in (("srlrg", srlrg_step), ("srlrh", srlrh_step)):
            S, R = S0, R0
            for _ in range(3 * 2 * N):
                S, R, _, _ = step(dsos, S, R)
            results.append((dsos, algo, S[N:], R[N:]))
    return results


def test_criterion_1_stacked_equivalence():
    worst_step = 0.0
    worst_acc = 0.0
    t0 = time.monotonic()
    for dsos, n, S0, R0 in _suite_iterates():
        A, B, C = firstorder.state_space(dsos)
        for algo, step, ostep in (
            ("srlrg", srlrg_step, firstorder.rlrg_step),
            ("srlrh", srlrh_step, firstorder.rlrh_step),
        ):
            S, R = S0, R0
            S_fo, R_fo = S0, R0
            for _ in range(3 * 2 * dsos.order):
                s_ref, r_ref = ostep(A, B, C, S, R, n)
                S, R, _, _ = step(dsos, S, R)
                worst_step = max(
                    worst_step,
                    float(np.max(np.abs(S - s_ref))),
                    float(np.max(np.abs(R - r_ref))),
                )
                S_fo, R_fo = ostep(A, B, C, S_fo, R_fo, n)
            worst_acc = max(
                worst_acc,
                float(np.max(np.abs(S - S_fo))),
                float(np.max(np.abs(R - R_fo))),
            )
    elapsed = time.monotonic() - t0
    ok = worst_step <= 1e-10 and worst_acc <= 1e-8
    _report(1, "stacked equivalence (50 systems x 2 algorithms)", ok,
            f"per-step max {worst_step:.2e} (tol 1e-10), accumulated max "
            f"{worst_acc:.2e} (tol 1e-8), {elapsed:.1f}s")
    assert worst_step <= 1e-10
    assert worst_acc <= 1e-8


def test_criterion_2_biorthogonality(suite_final_subspaces):
    worst = 0.0
    for _, _, S, R in suite_final_subspaces:
        proj = build_projection(S, R)
        worst = max(worst, proj.biorthogonality_deviation())
    ok = worst <= 1e-10
    _report(2, "biorthogonality of every projection", ok,
            f"max |Y^T X - I| = {worst:.2e} (tol 1e-10)")
    assert ok


def test_criterion_3_structure_preservation(suite_final_subspaces):
    worst = 0.0
    for dsos, _, S, R in suite_final_subspaces:
        proj = build_projection(S, R)
        reduced = reduce_model(dsos, proj)
        assert isinstance(reduced, SecondOrderSystem)
        assert reduced.is_discrete and reduced.h == dsos.h
        rep = verify_structure_conditions(proj, dsos)
        worst = max(worst, rep.off_pattern_max)
    ok = worst <= 1e-10
    _report(3, "structure preservation (block pattern)", ok,
            f"max off-pattern entry = {worst:.2e} (tol 1e-10)")
    assert ok


def test_criterion_4_gramian_subspace_convergence():
    t0 = time.monotonic()
    checked = 0
    worst = 0.0
    seed = 0
    while checked < 20 and seed < 120:
        seed += 1
        n = 2 if seed % 2 else 4
        dsos = random_stable_discrete(seed, 10, m=2, p=2, rho_max=0.97,
                                      dominant=max(1, n // 2), boost=30.0,
                                      identity_mass=True)
        pair = stein_gramians(linearize(dsos))
        lam, V = np.linalg.eigh(pair.Wc)
        lam, V = lam[::-1], V[:, ::-1]
        if lam[n] / lam[n - 1] >= 0.1:
            continue
        _, _, diag = run_recursion(dsos, RecursionConfig(n=n, seed=seed),
                                   "srlrg")
        angle = float(np.max(subspace_angles(diag.final_s, V[:, :2 * n])))
        worst = max(worst, angle)
        checked += 1
    elapsed = time.monotonic() - t0
    ok = checked == 20 and worst < 0.15 and elapsed < 60.0
    _report(4, "Gramian dominant-subspace convergence", ok,
            f"{checked} gapped systems, worst angle {worst:.3f} rad "
            f"(tol 0.15), {elapsed:.1f}s")
    assert checked == 20
    assert worst < 0.15
    assert elapsed < 60.0


def test_criterion_5_discretization_identities():
    h = 0.1
    worst_dc = worst_rt = 0.0
    for seed in range(20):
        sos = random_sos(seed + 300, 5, m=2, p=2)
        sym = None
        for scheme in ALL_SCHEMES:
            d = discretize(sos, h, scheme, stability_check=False)
            # DC-gain identity
            ref = sos.G @ np.linalg.solve(sos.K, sos.F)
            got = d.G @ np.linalg.solve(d.M + d.D + d.K, d.F)
            worst_dc = max(worst_dc,
                           float(np.max(np.abs(got - ref)) / np.max(np.abs(ref))))
            # roundtrip
            back = inverse_discretize(d, scheme)
            scale = max(np.max(np.abs(sos.M)), np.max(np.abs(sos.D)),
                        np.max(np.abs(sos.K)))
            for name in ("M", "D", "K"):
                diff = np.max(np.abs(getattr(back, name) - getattr(sos, name)))
                worst_rt = max(worst_rt, float(diff / scale))
        # exact symmetry preservation on a symmetric sibling
        from helpers import random_spd_sos
        sym = random_spd_sos(seed + 300, 5)
        for scheme in ALL_SCHEMES:
            d = discretize(sym, h, scheme, stability_check=False)
            assert np.array_equal(d.M, d.M.T)
            assert np.array_equal(d.D, d.D.T)
            assert np.array_equal(d.K, d.K.T)

    # first-order consistency: halving h at least halves the deviation
    osc = generate_msd_chain(4, stiffness=1.0, damping=0.5, mass=1.0)
    pts = [0.01j, 0.02j, 0.05j]
    ratios = []
    for scheme in (Scheme.FORWARD_VELOCITY, Scheme.BACKWARD_VELOCITY):
        e1 = consistency_error(osc, 0.02, scheme, pts)
        e2 = consistency_error(osc, 0.01, scheme, pts)
        ratios.append(e1 / e2)
    ok = worst_dc <= 1e-12 and worst_rt <= 1e-12 and min(ratios) >= 1.8
    _report(5, "discretization identities", ok,
            f"DC {worst_dc:.2e} (tol 1e-12), roundtrip {worst_rt:.2e} "
            f"(tol 1e-12), halving ratios {[f'{r:.2f}' for r in ratios]} "
            f"(need >= 1.8), symmetry exact")
    assert worst_dc <= 1e-12
    assert worst_rt <= 1e-12
    assert min(ratios) >= 1.8


def test_criterion_6_metrics_sanity():
    dsos = random_stable_discrete(42, 8, m=2, p=2)
    S, R, _ = run_recursion(dsos, RecursionConfig(n=3, seed=0), "srlrg")
    red = reduce_model(dsos, build_projection(S, R))
    self_rre = rre(dsos, dsos)
    zero = SecondOrderSystem(red.M, red.D, red.K, np.zeros_like(red.F), red.G,
                             h=red.h)
    zero_rre = rre(dsos, zero)

    d = 0.01
    osc = SecondOrderSystem(1.0, d, 1.0, 1.0, 1.0)
    peak = frequency_response(osc).hinf_estimate
    analytic = 1.0 / (d * np.sqrt(1.0 - d * d / 4.0))
    peak_rel = abs(peak - analytic) / analytic

    ok = self_rre == 0.0 and abs(zero_rre - 1.0) <= 1e-10 and peak_rel <= 0.02
    _report(6, "metrics sanity", ok,
            f"rre(S,S)={self_rre}, rre(S,zero)={zero_rre!r} (tol 1e-10), "
            f"oscillator peak rel err {peak_rel:.2e} (tol 0.02)")
    assert self_rre == 0.0
    assert abs(zero_rre - 1.0) <= 1e-10
    assert peak_rel <= 0.02


def test_criterion_7_balanced_truncation_oracle():
    worst_hsv = 0.0
    for seed in range(5):
        for dim in (10, 20):
            fos, _ = known_hsv_fos(seed, dim)
            pair = stein_gramians(fos)
            _, hsv = dense_balanced_truncation(fos, dim // 2)
            ev = np.sort(np.linalg.eigvals(pair.Wc @ pair.Wo).real)[::-1]
            ref = np.sqrt(np.clip(ev, 0.0, None))
            worst_hsv = max(worst_hsv, float(np.max(np.abs(hsv - ref)) / hsv[0]))

    bound_ok = True
    worst_margin = 0.0
    for seed in range(5):
        fos = random_stable_fos(seed + 50, 16, m=2, p=2, rho=0.85)
        for order in (4, 8):
            red, hsv = dense_balanced_truncation(fos, order)
            err = error_response(fos, red)
            bound = 2.0 * float(np.sum(hsv[order:])) * 1.05
            bound_ok = bound_ok and err.hinf_estimate <= bound
            worst_margin = max(worst_margin, err.hinf_estimate / bound)

    ok = worst_hsv <= 1e-10 and bound_ok
    _report(7, "balanced truncation oracle", ok,
            f"HSV vs sqrt(eig(Wc Wo)) max {worst_hsv:.2e} (tol 1e-10), "
            f"error/bound max ratio {worst_margin:.3f} (must be <= 1)")
    assert worst_hsv <= 1e-10
    assert bound_ok


def _bench_spec(name):
    root = os.environ.get("MORSO_BENCH_DIR")
    if not root:
        return None
    path = os.path.join(root, name)
    return path if os.path.isfile(path) else None


@pytest.mark.skipif(_bench_spec("building.spec") is None,
                    reason="benchmark data not supplied (set MORSO_BENCH_DIR)")
def test_criterion_8_paper_numbers():
    t0 = time.monotonic()
    building = load_matrix_market(BenchmarkSpec.read(_bench_spec("building.spec")))
    hinf_b = frequency_response(building).hinf_estimate
    hinf_ok = abs(hinf_b - 0.0053) <= 0.05 * 0.0053

    dsos = discretize(building, 0.02, Scheme.FORWARD_VELOCITY,
                      stability_check=False)
    rres = {}
    for algo, target in (("srlrg", 0.4301), ("srlrh", 0.4320)):
        S, R, _ = run_recursion(dsos, RecursionConfig(n=5, seed=0), algo)
        red = reduce_model(dsos, build_projection(S, R, 1e-7))
        val = rre(building, red, scheme=Scheme.FORWARD_VELOCITY)
        # two orders of magnitude around the reported value: randomized
        # initialization and an unspecified discretization forbid more
        rres[algo] = (val, 0.01 * target <= val <= 100.0 * target)
    build_elapsed = time.monotonic() - t0
    ok = hinf_ok and all(flag for _, flag in rres.values()) and build_elapsed < 10.0

    detail = (f"building hinf {hinf_b:.4e} vs 0.0053 +-5%, "
              + ", ".join(f"rre({a})={v:.3e}" for a, (v, _) in rres.items())
              + f", {build_elapsed:.1f}s (< 10s)")

    iss = _bench_spec("iss1r.spec")
    if iss is not None:
        t1 = time.monotonic()
        iss_sys = load_matrix_market(BenchmarkSpec.read(iss))
        hinf_i = frequency_response(iss_sys).hinf_estimate
        iss_ok = abs(hinf_i - 0.1159) <= 0.05 * 0.1159
        # end-to-end comparison at the benchmark's reduced order 2n = 32
        iss_d = discretize(iss_sys, 0.02, Scheme.FORWARD_VELOCITY,
                           stability_check=False)
        S, R, _ = run_recursion(iss_d, RecursionConfig(n=16, seed=0), "srlrg")
        red = reduce_model(iss_d, build_projection(S, R, 1e-7))
        iss_rre = rre(iss_sys, red, scheme=Scheme.FORWARD_VELOCITY)
        iss_elapsed = time.monotonic() - t1
        ok = ok and iss_ok and iss_elapsed < 300.0
        detail += (f"; iss1r hinf {hinf_i:.4e} vs 0.1159 +-5%, "
                   f"rre(srlrg)={iss_rre:.3e}, {iss_elapsed:.1f}s (< 300s)")

    _report(8, "benchmark reproduction", ok, detail)
    assert hinf_ok
    for algo, (val, flag) in rres.items():
        assert flag, (algo, val)
    assert build_elapsed < 10.0


def test_criterion_9_rre_monotonicity():
    chain = generate_msd_chain(24, stiffness=1.0, damping=1.0, mass=1.0,
                               seed=11)
    dsos = discretize(chain, 0.5, Scheme.FORWARD_VELOCITY)
    orders = (2, 4, 8, 12)
    medians = {}
    for algo in ("srlrg", "srlrh"):
        med = []
        for n in orders:
            vals = []
            for seed in range(5):
                S, R, _ = run_recursion(dsos, RecursionConfig(n=n, seed=seed),
                                        algo)
                red = reduce_model(dsos, build_projection(S, R, 1e-7))
                vals.append(rre(chain, red, scheme=Scheme.FORWARD_VELOCITY))
            med.append(float(np.median(vals)))
        medians[algo] = med

    def monotone_with_one_small_inversion(seq):
        inversions = 0
        for a, b in zip(seq, seq[1:]):
            if b > a:
                inversions += 1
                if b > 1.10 * a or inversions > 1:
                    return False
        return True

    ok = all(monotone_with_one_small_inversion(m) for m in medians.values())
    detail = "; ".join(
        f"{algo}: " + " -> ".join(f"{v:.2e}" for v in med)
        for algo, med in medians.items()
    )
    _report(9, "rre monotonicity on the N=24 chain", ok, detail)
    for algo, med in medians.items():
        assert monotone_with_one_small_inversion(med), (algo, med)


def test_criterion_10_determinism(tmp_path):
    bench = tmp_path / "bench"
    assert cli_main(["gen-msd", "--n", "12", "--damping", "1.0", "--seed", "3",
                     "--out", str(bench)]) == 0
    spec = str(bench / "msd_chain.spec")
    outs = []
    for name in ("one", "two"):
        out = tmp_path / name
        assert cli_main(["reduce", spec, "--algo", "srlrh", "--order", "4",
                         "--h", "0.5", "--seed", "13", "--out", str(out)]) == 0
        outs.append(out)
    mismatched = []
    for fname in sorted(os.listdir(outs[0])):
        if (outs[0] / fname).read_bytes() != (outs[1] / fname).read_bytes():
            mismatched.append(fname)
    ok = not mismatched
    _report(10, "bit-identical reruns", ok,
            "all output files identical" if ok else f"mismatch: {mismatched}")
    assert not mismatched
