"""Command-line frontend for the reduction pipeline.

Subcommands
-----------
info      Load a benchmark spec and print dimensions, stability and peak gain.
reduce    Full pipeline: (discretize ->) subspace recursion -> projection ->
          reduced quintuplet, diagnostics CSV and a reproducible manifest.
compare   Run several methods/orders on one model and emit a comparison CSV
          plus the sigma-max curves of the full and error systems.
gen-msd   Write a synthetic mass-spring-damper benchmark to disk.

Exit codes: 0 success, 1 validation error, 2 numerical failure.
The environment variable ``MORSO_SEED`` overrides the default seed when no
``--seed`` (or config entry) is given.
"""

import argparse
import os
import sys

from . import __version__
from .bench import (
    BenchmarkSpec,
    RunConfig,
    generate_msd_chain,
    load_matrix_market,
    read_keyvalue_file,
    write_benchmark,
)
from .discretize import Scheme, default_step, discretize, inverse_discretize
from .errors import (
    BadParameters,
    DimensionMismatch,
    DomainMismatch,
    MissingFile,
    MorsoError,
    NonPositiveStep,
    ParseError,
)
from .metrics import FrequencyGrid, error_response, frequency_response
from .oracle import dense_balanced_truncation
from .projection import build_projection, reduce_model
from .recursion import RecursionConfig, run_recursion
from .systems import linearize, stability_report

_VALIDATION_ERRORS = (
    BadParameters,
    DimensionMismatch,
    DomainMismatch,
    MissingFile,
    NonPositiveStep,
    ParseError,
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad usage; the contract here is 1.
    def error(self, message):
        raise _UsageError(message)


def _build_parser():
    parser = _Parser(prog="morso", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version",
                        version=f"morso {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_info = sub.add_parser("info", help="print model dimensions, stability "
                                         "and peak gain")
    p_info.add_argument("spec", help="benchmark spec file")

    p_red = sub.add_parser("reduce", help="run the reduction pipeline")
    p_red.add_argument("spec", help="benchmark spec file")
    p_red.add_argument("--algo", choices=("srlrg", "srlrh"), default=None)
    p_red.add_argument("--order", type=int, default=None,
                       help="reduced half-order n")
    p_red.add_argument("--scheme", choices=("forward", "backward", "central"),
                       default=None)
    p_red.add_argument("--h", type=float, default=None,
                       help="discretization step (continuous models only)")
    p_red.add_argument("--tau", type=int, default=None,
                       help="fixed number of recursion steps")
    p_red.add_argument("--angle-tol", type=float, default=None,
                       help="subspace-angle stopping tolerance")
    p_red.add_argument("--max-steps", type=int, default=None)
    p_red.add_argument("--seed", type=int, default=None)
    p_red.add_argument("--rank-tol", type=float, default=None,
                       help="relative cut on the subspace coupling singular "
                            "values (pipeline default 1e-7)")
    p_red.add_argument("--config", default=None,
                       help="key=value file with defaults for the flags above")
    p_red.add_argument("--continuous-output", action="store_true",
                       help="map the reduced difference model back to "
                            "continuous form before writing it")
    p_red.add_argument("--out", required=True, help="output directory")

    p_cmp = sub.add_parser("compare", help="compare methods on one model")
    p_cmp.add_argument("spec", help="benchmark spec file")
    p_cmp.add_argument("--orders", required=True,
                       help="comma-separated reduced half-orders")
    p_cmp.add_argument("--methods", default="srlrg,srlrh,bt",
                       help="comma-separated subset of srlrg,srlrh,bt")
    p_cmp.add_argument("--scheme", choices=("forward", "backward", "central"),
                       default=None)
    p_cmp.add_argument("--h", type=float, default=None)
    p_cmp.add_argument("--tau", type=int, default=None)
    p_cmp.add_argument("--seed", type=int, default=None)
    p_cmp.add_argument("--rank-tol", type=float, default=None)
    p_cmp.add_argument("--rre-mode", choices=("discrete", "continuous"),
                       default=None,
                       help="error evaluation domain for a continuous model: "
                            "on the unit circle against its discretization "
                            "(default) or on the imaginary axis against the "
                            "inverse-discretized reduction (bt always uses "
                            "the circle)")
    p_cmp.add_argument("--config", default=None)
    p_cmp.add_argument("--out", required=True, help="output directory")

    p_gen = sub.add_parser("gen-msd", help="write a synthetic benchmark")
    p_gen.add_argument("--n", type=int, required=True, help="number of masses")
    p_gen.add_argument("--stiffness", type=float, default=1.0)
    p_gen.add_argument("--damping", type=float, default=0.1)
    p_gen.add_argument("--mass", type=float, default=1.0)
    p_gen.add_argument("--seed", type=int, default=None)
    p_gen.add_argument("--name", default="msd_chain")
    p_gen.add_argument("--out", required=True, help="output directory")
    return parser


def _resolve_run_config(args):
    """Merge CLI flags over an optional config file over environment/default."""
    cfg = RunConfig()
    if getattr(args, "config", None):
        cfg = RunConfig.from_mapping(read_keyvalue_file(args.config))
    for flag, attr in (
        ("algo", "algorithm"),
        ("order", "order"),
        ("scheme", "scheme"),
        ("h", "h"),
        ("tau", "tau"),
        ("angle_tol", "angle_tol"),
        ("max_steps", "max_steps"),
        ("seed", "seed"),
        ("rank_tol", "rank_tol"),
        ("rre_mode", "rre_mode"),
    ):
        value = getattr(args, flag, None)
        if value is not None:
            setattr(cfg, attr, value)
    if getattr(args, "seed", None) is None and "MORSO_SEED" in os.environ:
        if not (getattr(args, "config", None)
                and "seed" in read_keyvalue_file(args.config)):
            cfg.seed = int(os.environ["MORSO_SEED"])
    return cfg


def _prepare_discrete(sos, cfg):
    """Discretize a continuous model per the run config; pass discrete
    models through (rejecting a stray --h)."""
    scheme = Scheme.from_name(cfg.scheme)
    if sos.is_discrete:
        if cfg.h is not None and cfg.h != sos.h:
            raise BadParameters(
                f"--h {cfg.h} conflicts with the model's own step {sos.h}"
            )
        return sos, scheme
    h = cfg.h if cfg.h is not None else default_step(sos)
    cfg.h = h
    return discretize(sos, h, scheme), scheme


def _cmd_info(args):
    spec = BenchmarkSpec.read(args.spec)
    sos = load_matrix_market(spec)
    rep = stability_report(sos)
    resp = frequency_response(sos)
    dom = f"discrete (h={sos.h})" if sos.is_discrete else "continuous"
    print(f"model:    {spec.name}")
    print(f"order:    N={sos.order} (first-order dimension {2 * sos.order})")
    print(f"io:       m={sos.n_inputs}, p={sos.n_outputs}")
    print(f"domain:   {dom}")
    verdict = "stable" if rep.is_stable else ("marginal" if rep.marginal else "unstable")
    print(f"spectrum: {verdict}, margin={rep.margin:.6e}")
    print(f"hinf:     {resp.hinf_estimate:.6e} (grid estimate, "
          f"{resp.refinement_rounds} refinement rounds)")
    return 0


def _cmd_reduce(args):
    cfg = _resolve_run_config(args)
    spec = BenchmarkSpec.read(args.spec)
    sos = load_matrix_market(spec)
    if cfg.order < 1 or cfg.order >= sos.order:
        raise BadParameters(
            f"--order must satisfy 1 <= n < N={sos.order}, got {cfg.order}"
        )
    dsos, scheme = _prepare_discrete(sos, cfg)

    rec_cfg = RecursionConfig(n=cfg.order, seed=cfg.seed, tau=cfg.tau,
                              angle_tol=cfg.angle_tol, max_steps=cfg.max_steps)
    S, R, diag = run_recursion(dsos, rec_cfg, cfg.algorithm)
    proj = build_projection(S, R, cfg.rank_tol)
    reduced = reduce_model(dsos, proj)
    if args.continuous_output and reduced.is_discrete:
        reduced = inverse_discretize(reduced, scheme)

    os.makedirs(args.out, exist_ok=True)
    name = f"{spec.name}_reduced"
    spec_path = write_benchmark(args.out, name, reduced)
    diag.to_csv(os.path.join(args.out, "diagnostics.csv"))
    cfg.to_manifest(os.path.join(args.out, "manifest.txt"), version=__version__)
    print(f"reduced model:  {spec_path}")
    print(f"retained order: {proj.order} (requested {cfg.order})")
    print(f"steps taken:    {diag.steps_taken} ({diag.termination})")
    return 0


def _format_cell(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.6e}"
    return str(value)


def _cmd_compare(args):
    cfg = _resolve_run_config(args)
    spec = BenchmarkSpec.read(args.spec)
    sos = load_matrix_market(spec)

    orders = []
    for tok in args.orders.split(","):
        tok = tok.strip()
        if tok:
            orders.append(int(tok))
    if not orders:
        raise BadParameters("--orders must name at least one half-order")
    methods = [t.strip() for t in args.methods.split(",") if t.strip()]
    for method in methods:
        if method not in ("srlrg", "srlrh", "bt"):
            raise BadParameters(f"unknown method {method!r}")
    for n in orders:
        if n < 1 or n >= sos.order:
            raise BadParameters(
                f"half-order {n} must satisfy 1 <= n < N={sos.order}"
            )

    dsos, scheme = _prepare_discrete(sos, cfg)
    circle_grid = FrequencyGrid.unit_circle(cfg.grid_count)
    continuous_cells = cfg.rre_mode == "continuous" and sos.is_continuous

    os.makedirs(args.out, exist_ok=True)
    if sos.is_continuous:
        table_grid = FrequencyGrid.log_continuous(cfg.omega_min, cfg.omega_max,
                                                  cfg.grid_count)
    else:
        table_grid = circle_grid
    full_resp = frequency_response(sos, table_grid)  # original domain, table
    full_resp.write_summary(os.path.join(args.out, "hinf_full.json"))
    circle_full = frequency_response(dsos, circle_grid)
    circle_full.to_csv(os.path.join(args.out, "sigma_full.csv"))
    if continuous_cells:
        full_resp.to_csv(os.path.join(args.out, "sigma_full_continuous.csv"))

    rows = []
    for n in orders:
        for method in methods:
            try:
                if method == "bt":
                    fos = linearize(dsos)
                    red, _ = dense_balanced_truncation(fos, 2 * n)
                else:
                    rec_cfg = RecursionConfig(n=n, seed=cfg.seed, tau=cfg.tau)
                    S, R, _ = run_recursion(dsos, rec_cfg, method)
                    red = reduce_model(dsos, build_projection(S, R, cfg.rank_tol))
                if continuous_cells and method != "bt":
                    # imaginary-axis comparison against the back-mapped model
                    err = error_response(sos, red, table_grid, scheme=scheme,
                                         mode="continuous")
                    rre_val = err.hinf_estimate / full_resp.hinf_estimate
                else:
                    err = error_response(dsos, red, circle_grid, scheme=scheme)
                    rre_val = err.hinf_estimate / circle_full.hinf_estimate
                stable = stability_report(red).is_stable
                err.to_csv(os.path.join(args.out, f"sigma_error_{method}_{n}.csv"))
                rows.append((method, n, full_resp.hinf_estimate, rre_val,
                             stable, None))
            except MorsoError as exc:
                rows.append((method, n, full_resp.hinf_estimate, None, None,
                             type(exc).__name__))

    csv_path = os.path.join(args.out, "comparison.csv")
    with open(csv_path, "w", encoding="utf-8") as f:
        f.write("model,method,order,hinf_full,rre,stable_reduced,error\n")
        for method, n, hinf, rre_val, stable, err_name in rows:
            cells = [spec.name, method, str(n), _format_cell(hinf),
                     _format_cell(rre_val),
                     "" if stable is None else str(bool(stable)).lower(),
                     err_name or ""]
            f.write(",".join(cells) + "\n")
    cfg.to_manifest(os.path.join(args.out, "manifest.txt"), version=__version__)

    print(f"comparison table: {csv_path}")
    for method, n, _, rre_val, stable, err_name in rows:
        status = err_name if err_name else (
            f"rre={rre_val:.4e} stable={str(bool(stable)).lower()}"
        )
        print(f"  {method:6s} n={n:<4d} {status}")
    print(f"hinf_full = {full_resp.hinf_estimate:.6e}")
    return 0


def _cmd_gen_msd(args):
    sos = generate_msd_chain(args.n, stiffness=args.stiffness,
                             damping=args.damping, mass=args.mass,
                             seed=args.seed)
    spec_path = write_benchmark(args.out, args.name, sos)
    print(f"benchmark spec: {spec_path}")
    return 0


_COMMANDS = {
    "info": _cmd_info,
    "reduce": _cmd_reduce,
    "compare": _cmd_compare,
    "gen-msd": _cmd_gen_msd,
}


def cli_main(argv=None):
    """Run the CLI; returns the process exit code instead of raising."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        return _COMMANDS[args.command](args)
    except _VALIDATION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MorsoError as exc:
        print(f"numerical failure ({type(exc).__name__}): {exc}", file=sys.stderr)
        return 2


def main(argv=None):
    return cli_main(argv)


if __name__ == "__main__":
    sys.exit(main())
