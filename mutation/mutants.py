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
ERRORS = "src/morso/errors.py"

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
    # -- the first-order operator -------------------------------------------
    Mutant(
        "apply-a-copies-prev", SYSTEMS,
        "out[:N] = z[N:]",
        "out[:N] = z[:N]",
        ("tests/test_systems.py::test_operator_is_the_linearized_matrix",
         "tests/test_recursion.py::test_run_is_a_chain_of_public_steps"),
    ),
    Mutant(
        "apply-at-adds-damping", SYSTEMS,
        "np.subtract(z[:N], d_t, out=out[N:])",
        "np.add(z[:N], d_t, out=out[N:])",
        ("tests/test_systems.py::test_operator_is_the_linearized_matrix",),
    ),
    # -- validation of parameters -------------------------------------------
    Mutant(
        "integer-check-passes-anything", ERRORS,
        "        return operator.index(value)\n",
        "        return value\n",
        ("tests/test_recursion.py::test_config_integers_must_be_integers",
         "tests/test_metrics.py::TestGrid::test_count_must_be_an_integer",
         "tests/test_bench.py::TestMsdChain::test_size_and_seed_must_be_"
         "integers",
         "tests/test_oracle.py::TestBalancedTruncation::test_order_must_be_"
         "an_integer"),
    ),
    Mutant(
        "config-integers-unchecked", RECURSION,
        "if check_integer(value, name) < least:",
        "if value < least:",
        ("tests/test_recursion.py::test_config_integers_must_be_integers",),
    ),
    Mutant(
        "grid-count-unchecked", METRICS,
        'if not 2 <= check_integer(count, "grid count") <= MAX_GRID_COUNT:',
        "if not 2 <= count <= MAX_GRID_COUNT:",
        ("tests/test_metrics.py::TestGrid::test_count_must_be_an_integer",),
    ),
    Mutant(
        "tau-with-angle-tol-accepted", RECURSION,
        "if self.tau is not None and self.angle_tol is not None:",
        "if False:",
        ("tests/test_recursion.py::test_config_tau_conflicts_with_angle_tol",
         "tests/test_cli.py::test_compare_tau_with_config_angle_tol_exit_1"),
    ),
    Mutant(
        "angle-tol-without-upper-bound", RECURSION,
        'not 0.0 < check_real(self.angle_tol, "angle_tol") < 1.0):',
        'not 0.0 < check_real(self.angle_tol, "angle_tol")):',
        ("tests/test_recursion.py::test_config_angle_tol_must_lie_in_unit_"
         "interval[1.0]",
         "tests/test_recursion.py::test_config_angle_tol_must_lie_in_unit_"
         "interval[1.5]"),
    ),
    Mutant(
        "angle-tol-without-lower-bound", RECURSION,
        'not 0.0 < check_real(self.angle_tol, "angle_tol") < 1.0):',
        'not check_real(self.angle_tol, "angle_tol") < 1.0):',
        ("tests/test_recursion.py::test_config_angle_tol_must_lie_in_unit_"
         "interval[0.0]",
         "tests/test_recursion.py::test_config_angle_tol_must_lie_in_unit_"
         "interval[-0.1]"),
    ),
    Mutant(
        "max-steps-without-angle-tol", RECURSION,
        "if self.max_steps is not None and self.angle_tol is None:",
        "if False:",
        ("tests/test_recursion.py::TestRunRecursion::test_max_steps_needs_"
         "angle_tol",),
    ),
    Mutant(
        "real-check-passes-anything", ERRORS,
        "    if isinstance(value, numbers.Real):\n",
        "    return value\n    if isinstance(value, numbers.Real):\n",
        ("tests/test_discretize.py::test_step_must_be_real",
         "tests/test_systems.py::TestConstruction::test_step_must_be_real",
         "tests/test_recursion.py::test_config_angle_tol_must_be_real",
         "tests/test_projection.py::TestBuildProjection::test_rank_tol_must_"
         "be_real",
         "tests/test_bench.py::TestMsdChain::test_constants_must_be_real",
         "tests/test_metrics.py::TestGrid::test_bounds_must_be_real"),
    ),
    Mutant(
        "projection-takes-zero-columns", PROJECTION,
        "S.shape != R.shape or not S.shape[1]:",
        "S.shape != R.shape:",
        ("tests/test_projection.py::TestBuildProjection::test_zero_columns_"
         "are_a_dimension_mismatch",),
    ),
    Mutant(
        "jury-drops-alternating-sum", DISCRETIZE,
        "tests = (r * r * P2 - P0, r * r * P2 + r * P1 + P0,\n"
        "                 r * r * P2 - r * P1 + P0)",
        "tests = (r * r * P2 - P0, r * r * P2 + r * P1 + P0)",
        ("tests/test_discretize.py::test_unstable_discretization_warns",
         "tests/test_discretize.py::test_warning_matches_spectra",
         "tests/test_discretize.py::test_certificate_refuses_each_failed_"
         "condition[Mb-Db+Kb]"),
    ),
    Mutant(
        "jury-drops-mass-minus-stiffness", DISCRETIZE,
        "tests = (r * r * P2 - P0, r * r * P2 + r * P1 + P0,",
        "tests = (r * r * P2 + r * P1 + P0,",
        ("tests/test_discretize.py::test_certificate_refuses_each_failed_"
         "condition[Mb-Kb]",),
    ),
    Mutant(
        "jury-drops-sum", DISCRETIZE,
        "r * r * P2 - P0, r * r * P2 + r * P1 + P0,",
        "r * r * P2 - P0,",
        ("tests/test_discretize.py::test_certificate_refuses_each_failed_"
         "condition[Mb+Db+Kb]",),
    ),
    Mutant(
        "continuous-certificate-drops-damping", DISCRETIZE,
        "tests = (P2, P1 - 2.0 * t * P2, P0 - t * P1 + t * t * P2)",
        "tests = (P2, P0 - t * P1 + t * t * P2)",
        ("tests/test_discretize.py::test_certificate_refuses_each_failed_"
         "condition[damping]",),
    ),
    Mutant(
        "certificate-without-margin", DISCRETIZE,
        "    t = MARGINAL_TOL\n",
        "    t = 0.0\n",
        ("tests/test_discretize.py::test_certificate_refuses_each_failed_"
         "condition[continuous-margin]",
         "tests/test_discretize.py::test_certificate_refuses_each_failed_"
         "condition[discrete-margin]"),
    ),
    Mutant(
        "csr-division-by-reciprocal", SYSTEMS,
        "a.data / c",
        "a.data * (1.0 / c)",
        ("tests/test_sparse_path.py::test_scheme_maps_on_distinct_patterns",
         "tests/test_sparse_path.py::test_characteristic_and_transfer_match_"
         "dense_twin"),
    ),
    Mutant(
        "symmetry-check-dense-passes-anything", DISCRETIZE,
        "    return np.array_equal(P, P.T)\n",
        "    return True\n",
        ("tests/test_discretize.py::test_non_symmetric_model_is_decided_by_"
         "its_spectra",),
    ),
    Mutant(
        "symmetry-check-sparse-passes-anything", DISCRETIZE,
        "        return (P != P.T).nnz == 0\n",
        "        return True\n",
        ("tests/test_sparse_path.py::test_certificate_refuses_non_symmetric_"
         "sparse_model",),
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
        "if info > 0 or not _all_finite(lu):",
        "if info > 0:",
        ("tests/test_systems.py::test_overflowing_lu_is_a_failed_"
         "factorization",),
    ),
    # -- tridiagonal point factors ---------------------------------------------
    Mutant(
        "band-non-finite-entry-unchecked", SYSTEMS,
        "        if not math.isfinite(anorm) and not _all_finite(*mat):\n"
        '            raise self._error("nonfinite")\n',
        "",
        ("tests/test_transfer_grid.py::test_grid_fails_at_first_overflowing_"
         "point",
         "tests/test_transfer_grid.py::test_band_failures_are_the_dense_"
         "failures"),
    ),
    Mutant(
        "band-non-finite-factor-accepted", SYSTEMS,
        "if info > 0 or not _all_finite(*lu[:4]):",
        "if info > 0:",
        ("tests/test_systems.py::test_overflowing_lu_is_a_failed_"
         "factorization",),
    ),
    Mutant(
        "band-rcond-unchecked", SYSTEMS,
        "        return gtcon(*lu, anorm)[0]\n",
        "        return 1.0\n",
        ("tests/test_transfer_grid.py::test_grid_fails_at_first_numerically_"
         "singular_point",
         "tests/test_transfer_grid.py::test_band_failures_are_the_dense_"
         "failures"),
    ),
    Mutant(
        "band-one-norm-drops-super-diagonal", SYSTEMS,
        "anorms = _one_norms(mats)\n",
        "anorms = _one_norms(mats if bands is None else mats[:, 1:])\n",
        ("tests/test_transfer_grid.py::test_band_one_norms_are_the_matrix_"
         "one_norms",),
    ),
    Mutant(
        "sparse-non-finite-factor-accepted", SYSTEMS,
        "        if not _all_finite(lu.L.data, lu.U.data):\n"
        '            raise self._error("broken")\n',
        "",
        ("tests/test_systems.py::test_overflowing_sparse_lu_is_a_failed_"
         "factorization",),
    ),
    # -- the screen of the stacked solves of small dense models -------------
    Mutant(
        "screen-without-factor-2-margin", SYSTEMS,
        "& (rcond >= 2 * _RCOND_SINGULAR))",
        "& (rcond >= _RCOND_SINGULAR))",
        ("tests/test_transfer_grid.py::test_point_the_screen_cannot_clear_"
         "is_factored",),
    ),
    Mutant(
        "screen-without-finiteness-test", SYSTEMS,
        "               & np.isfinite(solves).all(axis=(1, 2))\n",
        "",
        ("tests/test_transfer_grid.py::test_point_with_a_non_finite_solve_"
         "is_factored",),
    ),
    Mutant(
        "screen-ignores-rcond", SYSTEMS,
        "               & (rcond >= 2 * _RCOND_SINGULAR))",
        "               )",
        ("tests/test_transfer_grid.py::test_grid_fails_at_first_numerically_"
         "singular_point",
         "tests/test_transfer_grid.py::test_small_dense_grid_fails_at_first_"
         "failing_point",
         "tests/test_transfer_grid.py::test_point_the_screen_cannot_clear_"
         "is_factored"),
    ),
    Mutant(
        "screen-bounds-no-norm", SYSTEMS,
        "cleared = ((anorms <= _BATCH_NORM_MAX) & (inorms <= _BATCH_NORM_MAX)",
        "cleared = ((anorms < np.inf) & (inorms < np.inf)",
        ("tests/test_transfer_grid.py::test_screen_clears_no_point_that_"
         "factor_fails",),
    ),
    Mutant(
        "stacked-rhs-one-dimension-short", SYSTEMS,
        "x = np.linalg.solve(mats, rhs_eye[None])",
        "x = np.linalg.solve(mats, rhs_eye)",
        ("tests/test_transfer_grid.py::test_reduced_models_take_one_stacked_"
         "solve_per_chunk",),
    ),
    # -- dense Matrix Market through scipy's C++ reader and writer -------------
    Mutant(
        "zero-sign-not-restored", MMIO,
        '    values[zeros] = np.where(raw[starts[zeros]] == ord("-"), -0.0, '
        "0.0)\n",
        "",
        ("tests/test_mmio.py::test_array_reader_keeps_the_sign_of_zero",
         "tests/test_mmio.py::test_fast_array_reader_misread_line"),
    ),
    Mutant(
        "no-nan-certificate", MMIO,
        "    if not np.isnan(z.imag).all():\n        return None\n",
        "",
        ("tests/test_mmio.py::test_array_reader_junk_the_fast_reader_would_"
         "cut_short",
         "tests/test_mmio.py::test_fast_array_reader_misread_line"),
    ),
    Mutant(
        "no-byte-alphabet-check", MMIO,
        "if (data.translate(None, _DECIMAL) or newline[0]",
        "if (newline[0]",
        ("tests/test_mmio.py::test_array_reader_two_values_on_one_line_past_"
         "the_gate",
         "tests/test_mmio.py::test_fast_array_reader_misread_line"),
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
        ("tests/test_mmio.py::test_array_reader_keeps_the_sign_of_zero",
         "tests/test_mmio.py::test_fast_array_reader_misread_line"),
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
    Mutant(
        "reduced-damping-and-stiffness-swapped", PROJECTION,
        "        Y.T @ sos.D @ X,\n        Y.T @ sos.K @ X,\n",
        "        Y.T @ sos.K @ X,\n        Y.T @ sos.D @ X,\n",
        ("tests/test_projection.py::test_projection_equivalence_with_block_"
         "first_order",),
    ),
)
