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
from dataclasses import fields, replace
import os
import sys
from typing import get_args
import warnings

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
    MorsoError,
    UnstableReductionWarning,
    ValidationError,
)
from .metrics import RRE_MODES, default_grid, error_response, frequency_response
from .oracle import balancing_factors
from .projection import build_projection, check_rank_tol, reduce_model
from .recursion import ALGORITHMS, RecursionConfig, run_recursion
from .systems import linearize, stability_report

_METHODS = (*ALGORITHMS, "bt")


class _UsageError(ValidationError):
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

    # Run flags shared by reduce and compare; every dest but spec, config and
    # out names a RunConfig field.
    run = _Parser(add_help=False)
    run.add_argument("spec", help="benchmark spec file")
    run.add_argument("--scheme", choices=[s.value for s in Scheme],
                     default=None)
    run.add_argument("--h", type=float, default=None,
                     help="discretization step (continuous models only)")
    run.add_argument("--tau", type=int, default=None,
                     help="fixed number of recursion steps")
    run.add_argument("--seed", type=int, default=None)
    run.add_argument("--rank-tol", type=float, default=None,
                     help="relative cut on the subspace coupling singular "
                          "values (pipeline default 1e-7)")
    run.add_argument("--config", default=None,
                     help="key=value file with defaults for the run flags")
    run.add_argument("--out", required=True, help="output directory")

    p_red = sub.add_parser("reduce", parents=[run],
                           help="run the reduction pipeline")
    p_red.add_argument("--algo", dest="algorithm",
                       choices=ALGORITHMS, default=None)
    p_red.add_argument("--order", type=int, default=None,
                       help="reduced half-order n")
    p_red.add_argument("--angle-tol", type=float, default=None,
                       help="subspace-angle stopping tolerance")
    p_red.add_argument("--max-steps", type=int, default=None)
    p_red.add_argument("--continuous-output", action="store_true",
                       help="map the reduced difference model back to "
                            "continuous form before writing it")

    p_cmp = sub.add_parser("compare", parents=[run],
                           help="compare methods on one model")
    p_cmp.add_argument("--orders", required=True,
                       help="comma-separated reduced half-orders")
    p_cmp.add_argument("--methods", default=",".join(_METHODS),
                       help=f"comma-separated subset of {','.join(_METHODS)}")
    p_cmp.add_argument("--rre-mode", choices=RRE_MODES,
                       default=None,
                       help="error evaluation domain for a continuous model: "
                            "on the unit circle against its discretization "
                            "(default) or on the imaginary axis against the "
                            "inverse-discretized reduction (bt always uses "
                            "the circle)")

    p_gen = sub.add_parser("gen-msd", help="write a synthetic benchmark")
    p_gen.add_argument("--n", type=int, required=True, help="number of masses")
    p_gen.add_argument("--stiffness", type=float, default=1.0)
    p_gen.add_argument("--damping", type=float, default=0.1)
    p_gen.add_argument("--mass", type=float, default=1.0)
    p_gen.add_argument("--seed", type=int, default=None)
    p_gen.add_argument("--name", default="msd_chain")
    p_gen.add_argument("--out", required=True, help="output directory")
    return parser


def _parse_int(name, text):
    try:
        return int(text)
    except ValueError:
        raise BadParameters(f"{name} must be an integer, got {text!r}") from None


def _set_up(args, orders=None):
    """Resolve the run config (flags over ``--config`` over MORSO_SEED over
    the defaults), load the model, check the half-orders (default: the
    config's ``order``) against N, the recursion settings and ``rank_tol``,
    and discretize a continuous model.

    Returns ``(cfg, spec, sos, dsos, scheme, rec_cfg)``, where ``rec_cfg``
    is the recursion config for the first half-order.
    """
    data = read_keyvalue_file(args.config) if args.config else {}
    cfg = RunConfig.from_mapping(data)
    for fld in fields(RunConfig):
        value = getattr(args, fld.name, None)
        if value is not None:
            setattr(cfg, fld.name, value)
        elif getattr(cfg, fld.name) is None and type(None) not in get_args(fld.type):
            raise BadParameters(f"configuration key {fld.name!r} needs a value")
    if cfg.rre_mode not in RRE_MODES:
        raise BadParameters(f"rre_mode must be {' or '.join(map(repr, RRE_MODES))}"
                            f", got {cfg.rre_mode!r}")
    env_seed = os.environ.get("MORSO_SEED")
    if env_seed is not None and args.seed is None and "seed" not in data:
        cfg.seed = _parse_int("MORSO_SEED", env_seed)

    spec = BenchmarkSpec.read(args.spec)
    sos = load_matrix_market(spec)
    orders = orders or [cfg.order]
    for n in orders:
        if n < 1 or n >= sos.order:
            raise BadParameters(
                f"half-order {n} must satisfy 1 <= n < N={sos.order}"
            )
    rec_cfg = RecursionConfig(n=orders[0], seed=cfg.seed, tau=cfg.tau,
                              angle_tol=cfg.angle_tol, max_steps=cfg.max_steps)
    check_rank_tol(cfg.rank_tol)
    scheme = Scheme.from_name(cfg.scheme)
    if sos.is_discrete:
        if cfg.h is not None and cfg.h != sos.h:
            raise BadParameters(
                f"--h {cfg.h} conflicts with the model's own step {sos.h}"
            )
        return cfg, spec, sos, sos, scheme, rec_cfg
    if cfg.h is None:
        cfg.h = default_step(sos)
    return cfg, spec, sos, discretize(sos, cfg.h, scheme), scheme, rec_cfg


def _reduce_cell(dsos, method, rec_cfg, rank_tol, *, angle_trace=True):
    """Reduce a discrete model with srlrg or srlrh under ``rec_cfg``;
    returns ``(reduced, diagnostics)``.  ``angle_trace`` goes to
    :func:`run_recursion`."""
    S, R, diag = run_recursion(dsos, rec_cfg, method, angle_trace=angle_trace)
    return reduce_model(dsos, build_projection(S, R, rank_tol)), diag


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
    cfg, spec, _, dsos, scheme, rec_cfg = _set_up(args)
    reduced, diag = _reduce_cell(dsos, cfg.algorithm, rec_cfg, cfg.rank_tol)
    if args.continuous_output and reduced.is_discrete:
        reduced = inverse_discretize(reduced, scheme)
    rep = stability_report(reduced)
    if not rep.is_stable:
        verdict = "marginally stable" if rep.marginal else "unstable"
        warnings.warn(f"the reduced model is {verdict}: stability margin "
                      f"{rep.margin:.6e}", UnstableReductionWarning)

    os.makedirs(args.out, exist_ok=True)
    name = f"{spec.name}_reduced"
    spec_path = write_benchmark(args.out, name, reduced)
    diag.to_csv(os.path.join(args.out, "diagnostics.csv"))
    cfg.to_manifest(os.path.join(args.out, "manifest.txt"), version=__version__)
    print(f"reduced model:  {spec_path}")
    print(f"retained order: {reduced.order} (requested {cfg.order})")
    print(f"steps taken:    {diag.steps_taken} ({diag.termination})")
    return 0


def _cmd_compare(args):
    orders = [_parse_int("--orders", tok) for tok in args.orders.split(",")
              if tok.strip()]
    methods = [t.strip() for t in args.methods.split(",") if t.strip()]
    for method in methods:
        if method not in _METHODS:
            raise BadParameters(f"unknown method {method!r}")
    for flag, values, what in (("--orders", orders, "half-order"),
                               ("--methods", methods, "method")):
        if not values:
            raise BadParameters(f"{flag} must name at least one {what}")
        repeated = [v for i, v in enumerate(values) if v in values[:i]]
        if repeated:
            raise BadParameters(f"{flag} names {repeated[0]} more than once")
    cfg, spec, sos, dsos, scheme, rec_cfg = _set_up(args, orders)
    table_grid = default_grid(sos, cfg.grid_count, cfg.omega_min, cfg.omega_max)
    circle_grid = default_grid(dsos, cfg.grid_count, cfg.omega_min, cfg.omega_max)
    # Linearized for bt before anything is written: it refuses a sparse
    # model above DENSE_ORDER_LIMIT.
    bt_model = linearize(dsos) if "bt" in methods else None

    os.makedirs(args.out, exist_ok=True)
    full_resp = frequency_response(sos, table_grid)  # original domain, table
    full_resp.write_summary(os.path.join(args.out, "hinf_full.json"))
    circle_full = frequency_response(dsos, circle_grid)
    circle_full.to_csv(os.path.join(args.out, "sigma_full.csv"))
    # The full model and response the srlrg/srlrh cells are scored against;
    # continuous mode compares on the imaginary axis against the back-mapped
    # reductions.  bt cells are always scored on the circle.
    target = (dsos, circle_full)
    if cfg.rre_mode == "continuous" and sos.is_continuous:
        full_resp.to_csv(os.path.join(args.out, "sigma_full_continuous.csv"))
        target = (sos, full_resp)

    rows, statuses = [], []
    hinf_full = f"{full_resp.hinf_estimate:.6e}"
    bt_factors = None  # built on the first bt cell, shared by the others
    for n in orders:
        for method in methods:
            full, ref = (dsos, circle_full) if method == "bt" else target
            try:
                if method == "bt":  # linearized, order 2n
                    if bt_factors is None:
                        bt_factors = balancing_factors(bt_model)
                    red, _ = bt_factors.truncate(2 * n)
                else:  # no diagnostics.csv, so no fixed-step angle trace
                    red, _ = _reduce_cell(dsos, method, replace(rec_cfg, n=n),
                                          cfg.rank_tol, angle_trace=False)
                err = error_response(full, red, ref.grid, scheme=scheme,
                                     mode=cfg.rre_mode)
                rre_val = err.hinf_estimate / ref.hinf_estimate
                stable = str(bool(stability_report(red).is_stable)).lower()
                err.to_csv(os.path.join(args.out, f"sigma_error_{method}_{n}.csv"))
                cells = (f"{rre_val:.6e}", stable, "")
                status = f"rre={rre_val:.4e} stable={stable}"
                retained = red.order // 2 if method == "bt" else red.order
                if retained < n:
                    status += f" retained={retained}"
            except ValidationError:
                raise  # a bad run parameter fails the run (exit 1), not a cell
            except MorsoError as exc:
                cells = ("", "", type(exc).__name__)
                status = type(exc).__name__
            rows.append(",".join((spec.name, method, str(n), hinf_full, *cells)))
            statuses.append(f"  {method:6s} n={n:<4d} {status}")

    csv_path = os.path.join(args.out, "comparison.csv")
    with open(csv_path, "w", encoding="utf-8") as f:
        f.write("model,method,order,hinf_full,rre,stable_reduced,error\n")
        f.writelines(row + "\n" for row in rows)
    cfg.to_manifest(os.path.join(args.out, "manifest.txt"), version=__version__)

    print(f"comparison table: {csv_path}")
    print(*statuses, sep="\n")
    print(f"hinf_full = {hinf_full}")
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
    try:
        args = _build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MorsoError as exc:
        print(f"numerical failure ({type(exc).__name__}): {exc}", file=sys.stderr)
        return 2
