"""The mutation gate's table: one entry per mutant of ``src/morso``.

Each mutant names the file it edits, an exact old text that occurs once in
that file, the new text that replaces it, and the test ids that must fail
on the mutated tree.  A test id without a ``[parameter]`` suffix stands for
every parametrized case of that test.  An equivalent mutant, one that no
test can tell from the program because the program's behaviour does not
change, carries the reason instead; the runner checks that its old text
still matches and runs no test for it.

A change that adds a correctness check adds a mutant that removes or
weakens it here, with the tests that catch that.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str
    old: str
    new: str
    tests: tuple = ()
    equivalent: str = ""


RECURSION = "src/morso/recursion.py"
CLI = "src/morso/cli.py"
METRICS = "src/morso/metrics.py"
DISCRETIZE = "src/morso/discretize.py"
SYSTEMS = "src/morso/systems.py"
MMIO = "src/morso/mmio.py"
PROJECTION = "src/morso/projection.py"

MUTANTS = (
    # -- the recursion's angle trace ---------------------------------------
    Mutant(
        "angle-mode-skips-its-angles", RECURSION,
        "trace = angle_trace or angle_mode",
        "trace = angle_trace",
        ("tests/test_cli.py::test_compare_scores_the_model_reduce_writes"
         "[angle-converged]",
         "tests/test_recursion.py::test_angle_mode_ignores_angle_trace"),
    ),
    Mutant(
        "sigma-r-unrecorded-without-trace", RECURSION,
        "            sigmas_r.append(sigma_r)\n"
        "            if not trace:\n"
        "                continue\n",
        "            if not trace:\n"
        "                continue\n"
        "            sigmas_r.append(sigma_r)\n",
        ("tests/test_recursion.py::test_fixed_step_run_without_angle_trace",),
    ),
    Mutant(
        "csv-written-without-angle-trace", RECURSION,
        "        if min(len(self.angles_s), len(self.angles_r)) < "
        "self.steps_taken:\n",
        "        if False:\n",
        ("tests/test_recursion.py::test_diagnostics_csv_needs_angle_trace",),
    ),
    Mutant(
        "compare-keeps-angle-trace", CLI,
        "cfg.rank_tol, angle_trace=False)",
        "cfg.rank_tol, angle_trace=True)",
        ("tests/test_cli.py::test_compare_scores_the_model_reduce_writes"
         "[fixed-steps]",),
    ),
    Mutant(
        "reduce-cell-drops-angle-trace", CLI,
        "run_recursion(dsos, rec_cfg, method, angle_trace=angle_trace)",
        "run_recursion(dsos, rec_cfg, method)",
        ("tests/test_cli.py::test_compare_scores_the_model_reduce_writes"
         "[fixed-steps]",),
    ),
    # -- the stacked iterate ------------------------------------------------
    Mutant(
        "iterate-not-copied", RECURSION,
        'z = np.array(z, dtype=float, order="C")',
        'z = np.asarray(z, dtype=float, order="C")',
        ("tests/test_recursion.py::test_step_leaves_its_inputs_unchanged",),
    ),
    Mutant(
        "no-iterate-width-check", RECURSION,
        "    if z_s.shape[1] != z_r.shape[1]:\n"
        '        raise DimensionMismatch("S and R iterates must have the same '
        'width")\n',
        "",
        ("tests/test_recursion.py::test_malformed_iterate_raises_dimension_"
         "mismatch",),
    ),
    Mutant(
        "no-iterate-order-check", RECURSION,
        "z.shape[0] != 2 * dsos.order or z.shape[1] > dsos.order:",
        "z.shape[0] != 2 * dsos.order:",
        ("tests/test_recursion.py::test_malformed_iterate_raises_dimension_"
         "mismatch",),
    ),
    Mutant(
        "iterate-rows-only-even", RECURSION,
        "z.shape[0] != 2 * dsos.order or",
        "z.shape[0] % 2 or",
        ("tests/test_recursion.py::test_malformed_iterate_raises_dimension_"
         "mismatch",),
    ),
    Mutant(
        "start-halves-reversed", RECURSION,
        "np.vstack([_orthonormal(rng, N, n),\n"
        "                                       _orthonormal(rng, N, n)])",
        "np.vstack([_orthonormal(rng, N, n),\n"
        "                                       _orthonormal(rng, N, n)][::-1])",
        ("tests/test_recursion.py::test_run_is_a_chain_of_public_steps",),
    ),
    # -- one scoring path -----------------------------------------------------
    Mutant(
        "scheme-unchecked-in-same-domain", METRICS,
        "    scheme = Scheme.from_name(scheme)\n",
        "",
        ("tests/test_metrics.py::TestRre::test_unknown_scheme_or_mode_"
         "rejected_in_every_domain",),
    ),
    Mutant(
        "mode-checked-after-same-domain-return", METRICS,
        "    if mode not in RRE_MODES:\n"
        "        raise BadParameters(f\"mode must be {' or '.join(map(repr, "
        "RRE_MODES))}\"\n"
        "                            f\", got {mode!r}\")\n"
        "    if full.is_discrete == reduced.is_discrete:\n"
        "        return full, reduced\n",
        "    if full.is_discrete == reduced.is_discrete:\n"
        "        return full, reduced\n"
        "    if mode not in RRE_MODES:\n"
        "        raise BadParameters(f\"mode must be {' or '.join(map(repr, "
        "RRE_MODES))}\"\n"
        "                            f\", got {mode!r}\")\n",
        ("tests/test_metrics.py::TestRre::test_unknown_scheme_or_mode_"
         "rejected_in_every_domain",),
    ),
    Mutant(
        "continuous-mode-scored-on-circle", CLI,
        "        target = (sos, full_resp)\n",
        "        target = (dsos, circle_full)\n",
        ("tests/test_cli.py::test_compare_continuous_mode",),
    ),
    Mutant(
        "bt-scored-on-continuous-target", CLI,
        'full, ref = (dsos, circle_full) if method == "bt" else target',
        "full, ref = target",
        ("tests/test_cli.py::test_compare_continuous_mode",),
    ),
    Mutant(
        "no-step-conflict-check", CLI,
        "if cfg.h is not None and cfg.h != sos.h:",
        "if False:",
        ("tests/test_cli.py::test_discrete_spec_runs_at_its_own_step",),
    ),
    Mutant(
        "default-step-first-block-only", DISCRETIZE,
        "for j in range(0, N, width)]",
        "for j in range(0, min(N, width), width)]",
        ("tests/test_discretize.py::test_default_step_blocks_match_one_block",),
    ),
    # -- one LU path ----------------------------------------------------------
    Mutant(
        "no-point-rcond-threshold", SYSTEMS,
        "if rcond == 0.0 or not math.isfinite(rcond) or rcond < rcond_min:",
        "if rcond == 0.0 or not math.isfinite(rcond):",
        ("tests/test_transfer_grid.py::test_grid_fails_at_first_numerically_"
         "singular_point",),
    ),
    Mutant(
        "non-finite-lu-accepted", SYSTEMS,
        "if info > 0 or np.count_nonzero(np.isfinite(lu)) < lu.size:",
        "if info > 0:",
        ("tests/test_systems.py::test_overflowing_lu_is_a_failed_"
         "factorization",),
    ),
    # -- dense Matrix Market through scipy's C++ reader and writer -------------
    Mutant(
        "zero-sign-not-restored", MMIO,
        '    values[zeros] = np.where(raw[starts[zeros]] == ord("-"), -0.0, '
        "0.0)\n",
        "",
        ("tests/test_mmio.py::test_array_reader_keeps_the_sign_of_zero",),
    ),
    Mutant(
        "no-nan-certificate", MMIO,
        "    if not np.isnan(z.imag).all():\n        return None\n",
        "",
        ("tests/test_mmio.py::test_array_reader_junk_the_fast_reader_would_"
         "cut_short",),
    ),
    Mutant(
        "no-byte-alphabet-check", MMIO,
        "if (data.translate(None, _DECIMAL) or newline[0]",
        "if (newline[0]",
        ("tests/test_mmio.py::test_array_reader_two_values_on_one_line_past_"
         "the_gate",),
    ),
    Mutant(
        "blank-lines-reach-fast-reader", MMIO,
        "    if (data.translate(None, _DECIMAL) or newline[0]\n"
        "            or (newline[1:] & newline[:-1]).any()):\n",
        "    if data.translate(None, _DECIMAL):\n",
        equivalent="scipy's reader raises ValueError on the ' nan' line that "
                   "a blank line becomes, so the block falls back to the "
                   "numpy parser either way",
    ),
    Mutant(
        "line-starts-shifted", MMIO,
        "starts = np.flatnonzero(np.r_[True, newline[:-1]])",
        "starts = np.flatnonzero(np.r_[newline[:-1], True])",
        ("tests/test_mmio.py::test_array_reader_keeps_the_sign_of_zero",),
    ),
    Mutant(
        "fast-block-line-count-off-by-one", MMIO,
        "    return values, len(starts)\n",
        "    return values, len(starts) + 1\n",
        ("tests/test_mmio.py::test_array_reader_bad_value_in_second_block",),
    ),
    Mutant(
        "fast-gate-at-zero", MMIO,
        "_FAST_MIN_CHARS = 1 << 16",
        "_FAST_MIN_CHARS = 0",
        ("tests/test_cli.py::test_small_models_never_load_scipy_io",),
    ),
    Mutant(
        "fast-writer-takes-infinities", MMIO,
        "            if (rows * cols * _LINE_CHARS >= _FAST_MIN_CHARS\n"
        "                    and np.isfinite(a).all()):\n",
        "            if rows * cols * _LINE_CHARS >= _FAST_MIN_CHARS:\n",
        ("tests/test_mmio.py::test_array_writer_keeps_python_format_for_"
         "infinities",),
    ),
    Mutant(
        "fast-writer-drops-a-column", MMIO,
        "block = a[:, j:j + step]",
        "block = a[:, j:j + step][:, :-1]",
        ("tests/test_mmio.py::test_array_writer_blocks_match_python_format",),
    ),
    # -- the structure report -------------------------------------------------
    Mutant(
        "output-row-zero-block-swapped", PROJECTION,
        "zero_cols = slice(k, None) if sos.is_continuous else slice(None, k)",
        "zero_cols = slice(None, k) if sos.is_continuous else slice(k, None)",
        ("tests/test_projection.py::TestStructureConditions",),
    ),
)
