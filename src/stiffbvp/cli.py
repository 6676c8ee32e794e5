"""Command-line front end.

Subcommands:
  solve   solve one problem instance and export the solution CSV
  srn     run lambda-continuation and report the stiffness resistance number
  errors  compute relative-error curves over a list of lambda values
  deep    continue Troesch's problem through its deep boundary layer,
          then solve once at a fixed fine step, and export the solution

Options may also come from a key=value config file (--config); explicit
flags win.  Progress goes to stderr, data only to files.  Exit codes:
0 success, 2 solver failure, 3 configuration error.
"""

from __future__ import annotations

import argparse
import sys

from .bench import (SrnConfig, StopCriterion, deep_layer,
                    endpoint_derivatives, error_curve, export_solution,
                    run_continuation, solve_spec, uniform_mesh,
                    write_error_curve, write_srn_result)
from .errors import ConfigError, StiffBvpError
from .mesh import RefinementConfig
from .problems import problem_by_name, troesch, troesch_endpoints
from .strategy import STRATEGIES, strategy_by_name
from .trapezoid import NewtonConfig


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stiffbvp",
        description="Stiff two-point BVP solver with swap/flip variable "
                    "transformations")
    sub = parser.add_subparsers(dest="command", required=True)

    def io_flags(p):
        p.add_argument("--config", default=None,
                       help="key=value file; flags override")
        p.add_argument("--out", default=None, help="output CSV path")
        p.add_argument("--quiet", action="store_true")

    def common(p):
        io_flags(p)
        p.add_argument("--strategy", default="identity",
                       choices=list(STRATEGIES))
        p.add_argument("--h-min", type=float, default=None)
        p.add_argument("--h-max", type=float, default=None)
        p.add_argument("--M", type=float, default=0.1)
        p.add_argument("--tol", type=float, default=1e-10)
        p.add_argument("--h0", type=float, default=0.1,
                       help="cold-start uniform step")

    p_solve = sub.add_parser("solve", help="solve a single instance")
    common(p_solve)
    p_solve.add_argument("--problem", default="troesch")
    p_solve.add_argument("--lambda", dest="lam", type=float, default=None)

    p_srn = sub.add_parser("srn", help="continuation protocol")
    common(p_srn)
    p_srn.add_argument("--lambda0", type=float, default=3.0)
    p_srn.add_argument("--delta-lambda", type=float, default=1.0)
    p_srn.add_argument("--stop", default="accuracy",
                       choices=["accuracy", "convergence"])
    p_srn.add_argument("--lambda-cap", type=float, default=200.0)

    p_err = sub.add_parser("errors", help="relative-error curve")
    common(p_err)
    p_err.add_argument("--lambdas", default="2,3,4,5",
                       help="comma-separated lambda list")

    p_deep = sub.add_parser("deep", help="deep three-zone boundary layer")
    io_flags(p_deep)
    p_deep.add_argument("--lambda", dest="lam", type=float, default=50.0)
    p_deep.add_argument("--h-fine", type=float, default=1.76e-4,
                        help="natural step of the final solve")
    return parser


def _with_config_file(parser, args, argv) -> argparse.Namespace:
    """Re-parse with the --config file's key=value lines as flags ahead of
    the command line's: argparse types and checks each value, and an
    explicit flag wins because the last one given does."""
    try:
        with open(args.config) as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}")
    file_args = []
    for ln, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"config line {ln}: expected key=value")
        key, val = (s.strip() for s in line.split("=", 1))
        file_args.append(f"--{key.replace('_', '-')}={val}")
    try:
        return parser.parse_args([args.command] + file_args + argv[1:])
    except SystemExit:
        raise ConfigError(f"config file {args.config} sets a bad option "
                          "(see above)")


def _refinement(args) -> RefinementConfig:
    if args.h_min is None and args.h_max is None:
        return None
    if args.h_min is None or args.h_max is None:
        raise ConfigError("give both --h-min and --h-max or neither")
    return RefinementConfig(M=args.M, h_min=args.h_min, h_max=args.h_max)


def _cmd_solve(args) -> int:
    spec = problem_by_name(args.problem, args.lam)
    strategy = strategy_by_name(args.strategy)
    newton = NewtonConfig(tol=args.tol)
    rcfg = _refinement(args)
    if not args.quiet:
        print(f"solving {spec.name} with strategy {args.strategy}",
              file=sys.stderr)
    sol = solve_spec(spec, uniform_mesh(spec, args.h0), strategy, newton,
                     rcfg)
    if not args.quiet:
        print(f"converged: {sol.mesh.knot_count} knots, "
              f"{sol.iterations} Newton steps, "
              f"residual {sol.residual_norm:.3e}", file=sys.stderr)
    if args.out:
        export_solution(sol, args.out)
    return 0


def _cmd_srn(args) -> int:
    cfg = SrnConfig(
        lambda0=args.lambda0, delta_lambda=args.delta_lambda,
        stop=StopCriterion(args.stop),
        strategy=strategy_by_name(args.strategy),
        newton=NewtonConfig(tol=args.tol),
        refinement=_refinement(args), h0=args.h0,
        lambda_cap=args.lambda_cap, progress=not args.quiet)
    result = run_continuation(troesch, cfg)
    if not args.quiet:
        print(f"SRN = {result.srn} (stop: {result.stop_reason.value})",
              file=sys.stderr)
    if args.out:
        write_srn_result(result, args.out)
    return 0


def _cmd_errors(args) -> int:
    try:
        lambdas = [float(s) for s in args.lambdas.split(",") if s.strip()]
    except ValueError:
        raise ConfigError(f"bad --lambdas list {args.lambdas!r}")
    if not lambdas:
        raise ConfigError("--lambdas list is empty")
    rows = error_curve(
        troesch, lambdas, strategy=strategy_by_name(args.strategy),
        newton=NewtonConfig(tol=args.tol), rcfg=_refinement(args),
        h0=args.h0, progress=not args.quiet)
    if not args.quiet:
        for row in rows:
            if row.get("failed"):
                print(f"lambda={row['lambda']:g}: failed", file=sys.stderr)
            else:
                print(f"lambda={row['lambda']:g}: "
                      f"rel_err_0={row['rel_err_u2_0']:.3e}",
                      file=sys.stderr)
    if args.out:
        write_error_curve(rows, args.out)
    return 0


def _cmd_deep(args) -> int:
    sol = deep_layer(args.lam, args.h_fine, progress=not args.quiet)
    if not args.quiet:
        d0, d1 = endpoint_derivatives(sol)
        ref0 = troesch_endpoints(args.lam)[0]
        print(f"lambda={args.lam:g}: {sol.mesh.knot_count} knots, "
              f"u2(0)={d0:.9e}, u2(1)={d1:.9e}", file=sys.stderr)
        print(f"reference u2(0)={ref0:.9e}, "
              f"rel err {abs(d0 - ref0) / ref0:.3e}", file=sys.stderr)
    if args.out:
        export_solution(sol, args.out)
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 3 if exc.code not in (0, None) else 0
    try:
        if args.config is not None:
            args = _with_config_file(parser, args, argv)
        if args.command == "solve":
            if args.problem == "troesch" and args.lam is None:
                raise ConfigError("troesch needs --lambda")
            return _cmd_solve(args)
        if args.command == "srn":
            return _cmd_srn(args)
        if args.command == "deep":
            return _cmd_deep(args)
        return _cmd_errors(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 3
    except StiffBvpError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
