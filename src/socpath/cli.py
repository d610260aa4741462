"""Command-line interface: solve, warmstart, check, bench.

Exit codes: 0 solved or classified, 2 input error, 3 numerical failure.
All failures print a one-line JSON error document to stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import Dict, Union

from .errors import (InvalidParams, InvalidPoint, MaxIterationsExceeded,
                     NotInterior, ParseError, SingularSystem, SocpathError,
                     StartOutsideNeighborhood)
from . import fileio
from .fileio import parse_point, parse_problem, write_solution
from .geometry import Evaluation
from .problem import SocpProblem, compute_residuals
from .solver import (SCALINGS, STOP_MODES, SolverParams, predicted_iterations,
                     solve)
from .warmstart import (BENCH_EPSILON, _finite_or_none, cold_start,
                        run_bench, warm_start)

NUMERICAL_ERRORS = (SingularSystem, MaxIterationsExceeded,
                    StartOutsideNeighborhood, NotInterior)
INPUT_ERRORS = (SocpathError, OSError)


def _emit_error(exc: BaseException) -> None:
    doc: Dict = {"error": {"type": type(exc).__name__, "message": str(exc)}}
    if isinstance(exc, ParseError):
        ctx = exc.context()
        if ctx:
            doc["error"]["context"] = ctx
    sys.stderr.write(json.dumps(doc) + "\n")


def _load_problem(path: str) -> SocpProblem:
    return parse_problem(Path(path).read_text())


def _solver_params(args, trace: bool) -> SolverParams:
    return SolverParams(gamma=args.gamma, delta=args.delta,
                        epsilon=args.epsilon, scaling=args.scaling,
                        stop_mode=args.stop_mode, trace_enabled=trace)


def cmd_solve(args) -> int:
    problem = _load_problem(args.problem)
    params = _solver_params(args, bool(args.trace))
    start = cold_start(problem.cones, p=problem.p)
    result = solve(problem, start, params)
    Path(args.output).write_text(write_solution(problem, result, params))
    if args.trace:
        with Path(args.trace).open("w") as out:
            fileio.write_trace(result.trace, out)
    sys.stdout.write(
        f"status={result.status.status} iterations={result.iterations}\n")
    return 0


def diagnostics_document(diag) -> Dict:
    return {
        "c_A": diag.c_a, "c_b": diag.c_b, "c_p": diag.c_p,
        "c_AT": diag.c_at, "c_c": diag.c_c, "c_d": diag.c_d,
        "c_mu": diag.c_mu, "c_xs": diag.c_xs,
        "psi_o": diag.psi_o, "rho": diag.rho, "rho_raw": diag.rho_raw,
        "xi_o": diag.xi_o, "xi_o_raw": diag.xi_o_raw,
        "omega_min": diag.omega_min, "infeasible": diag.infeasible,
        "gamma_o": _finite_or_none(diag.gamma_o),
        "c_w": _finite_or_none(diag.c_w),
        "predicted_saving": diag.predicted_saving,
        "primal_vacuous": diag.primal_vacuous,
        "dual_vacuous": diag.dual_vacuous,
        "conditions_hold": diag.conditions_hold,
        "omega_eval": diag.omega_eval,
    }


def _omega_policy(flag: str) -> Union[str, float]:
    if flag == "auto":
        return "max-admissible"
    try:
        return float(flag)
    except ValueError as exc:
        raise InvalidParams(str(exc)) from None


def cmd_warmstart(args) -> int:
    prev_problem = _load_problem(args.prev_problem)
    new_problem = _load_problem(args.problem)
    sol = parse_point(Path(args.prev_solution).read_text())
    if sol.tau <= 0.0:
        raise InvalidPoint("previous solution must have tau > 0")
    prev = (sol.x / sol.tau, sol.y / sol.tau, sol.s / sol.tau)
    params = _solver_params(args, False)
    ws = warm_start(prev_problem, new_problem, prev, params,
                    _omega_policy(args.omega))
    warm = solve(new_problem, ws.start, params)
    Path(args.output).write_text(write_solution(new_problem, warm, params))
    # the closed form, which every solve runs exactly, so no cold solve
    cold = predicted_iterations(cold_start(new_problem.cones, p=new_problem.p),
                                new_problem, params)
    if args.report:
        diag = ws.diagnostics.at_omega(ws.omega) if ws.omega > 0.0 \
            else ws.diagnostics
        report = {
            "omega": ws.omega,
            "fallback": ws.fallback,
            "cold_iterations": cold,
            "warm_iterations": warm.iterations,
            "measured_saving": cold - warm.iterations,
            "predicted_saving": diag.predicted_saving if ws.omega > 0.0 else 0,
            "status": warm.status.status,
            "diagnostics": diagnostics_document(diag),
        }
        Path(args.report).write_text(json.dumps(report, indent=2) + "\n")
    sys.stdout.write(f"status={warm.status.status} omega={ws.omega:.4f} "
                     f"cold={cold} warm={warm.iterations}\n")
    return 0


def cmd_check(args) -> int:
    problem = _load_problem(args.problem)
    z = parse_point(Path(args.point).read_text())
    res = compute_residuals(problem, z)
    ev = Evaluation(z, problem.cones)
    interior = ev.interior()
    dist2, distinf = (ev.d2(), ev.dinf()) if interior else (math.nan, math.nan)
    in_n2 = ev.within(SolverParams(gamma=args.gamma).gamma)
    in_ninf = interior and distinf <= args.gamma * ev.mu
    lines = [
        f"mu={ev.mu:.17g}",
        f"d2={dist2:.17g}",
        f"dinf={distinf:.17g}",
        f"rp_norm={res.rp_norm:.17g}",
        f"rd_norm={res.rd_norm:.17g}",
        f"rg_abs={res.rg_abs:.17g}",
        f"interior={'true' if interior else 'false'}",
        f"in_n2={'true' if in_n2 else 'false'}",
        f"in_ninf={'true' if in_ninf else 'false'}",
    ]
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


def cmd_bench(args) -> int:
    base = _load_problem(args.base_problem)
    report = run_bench(base, args.steps, args.perturb_a, args.perturb_b,
                       args.perturb_c, args.seed, gamma=args.gamma,
                       delta=args.delta, epsilon=args.epsilon,
                       omega_policy=_omega_policy(args.omega))
    Path(args.report).write_text(json.dumps(report, indent=2) + "\n")
    header = (f"{'step':>4} {'cold':>6} {'warm':>6} {'omega':>8} "
              f"{'c_w':>10} {'pred':>5} {'meas':>5} fallback")
    lines = [header]
    for row in report["rows"]:
        warm = row["warm_iterations"]
        lines.append(
            f"{row['step']:>4} {row['cold_iterations']:>6} "
            f"{warm if warm is not None else '-':>6} "
            f"{format(row['omega'], '.4f') if row['omega'] is not None else '-':>8} "
            f"{format(row['c_w'], '.4e') if row['c_w'] is not None else '-':>10} "
            f"{row['predicted_saving'] if row['predicted_saving'] is not None else '-':>5} "
            f"{row['measured_saving'] if row['measured_saving'] is not None else '-':>5} "
            f"{row['fallback'] or '-'}")
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


def _solver_flags(parser: argparse.ArgumentParser, stop_mode: str) -> None:
    """The flags that solve and warmstart share, with SolverParams' defaults
    and the solver's choices; `stop_mode` is the command's default."""
    parser.add_argument("--problem", required=True)
    parser.add_argument("--output", required=True)
    parser.add_argument("--gamma", type=float, default=SolverParams.gamma)
    parser.add_argument("--delta", type=float, default=SolverParams.delta)
    parser.add_argument("--epsilon", type=float, default=SolverParams.epsilon)
    parser.add_argument("--scaling", choices=SCALINGS,
                        default=SolverParams.scaling)
    parser.add_argument("--stop-mode", choices=STOP_MODES, default=stop_mode)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="socpath",
        description="Second-order cone programming by a short-step "
                    "interior-point method on the self-dual embedding.")
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="solve a problem from the cold start")
    _solver_flags(ps, "relative")
    ps.add_argument("--trace")
    ps.set_defaults(func=cmd_solve)

    pw = sub.add_parser("warmstart",
                        help="solve a perturbed problem from a warm start")
    pw.add_argument("--prev-problem", required=True)
    pw.add_argument("--prev-solution", required=True)
    _solver_flags(pw, "unified")
    pw.add_argument("--omega", default="auto",
                    help="'auto' or a fixed weight in [0,1]")
    pw.add_argument("--report")
    pw.set_defaults(func=cmd_warmstart)

    pc = sub.add_parser("check", help="evaluate a point against a problem")
    pc.add_argument("--problem", required=True)
    pc.add_argument("--point", required=True)
    pc.add_argument("--gamma", type=float, default=SolverParams.gamma)
    pc.set_defaults(func=cmd_check)

    pb = sub.add_parser("bench",
                        help="cold vs warm iteration counts on a drift "
                             "sequence of perturbed problems")
    pb.add_argument("--base-problem", required=True)
    pb.add_argument("--steps", type=int, required=True)
    pb.add_argument("--perturb-a", type=float, default=0.0)
    pb.add_argument("--perturb-b", type=float, default=0.0)
    pb.add_argument("--perturb-c", type=float, default=0.0)
    pb.add_argument("--seed", type=int, default=0)
    pb.add_argument("--report", required=True)
    pb.add_argument("--epsilon", type=float, default=BENCH_EPSILON)
    pb.add_argument("--gamma", type=float, default=SolverParams.gamma)
    pb.add_argument("--delta", type=float, default=SolverParams.delta)
    pb.add_argument("--omega", default="auto")
    pb.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except NUMERICAL_ERRORS as exc:
        _emit_error(exc)
        return 3
    except INPUT_ERRORS as exc:
        _emit_error(exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
