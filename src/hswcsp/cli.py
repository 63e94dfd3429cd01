"""Batch command line: solve instances, generate them, cross-check solvers.

Exit codes: 0 success (OPTIMAL for solve, agreement for verify), 1 usage or
input error, 2 solve timed out or was interrupted (Ctrl-C) before its
bounds met, or verify was interrupted during a solve, 3 instance
infeasible, 4 verify found the solvers and the exhaustive oracle
disagreeing. An interrupted solve reports the bounds it reached, OPTIMAL
(exit 0) if they had met.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Sequence

from .bruteforce import generate, optimal_cost
from .engine import (
    INFEASIBLE,
    OPTIMAL,
    SolveResult,
    hs_lb,
    hs_lub,
    hs_ub,
)
from .model import INF, Wcsp
from .wcsp_io import ParseError, TraceWriter, parse_wcsp_file, wcsp_to_text

__all__ = ["main"]

_EXIT_OK = 0
_EXIT_USAGE = 1
_EXIT_TIMEOUT = 2
_EXIT_INFEASIBLE = 3
_EXIT_MISMATCH = 4


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; 2 is taken by TIMEOUT here
    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(_EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _seconds(text: str) -> float:
    """--time-limit value: nonnegative seconds; inf is allowed, nan is not."""
    try:
        if float(text) >= 0:  # false for nan
            return float(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected nonnegative seconds, got {text!r}")


def _build_parser() -> _Parser:
    parser = _Parser(prog="hswcsp", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve a .wcsp instance")
    solve.add_argument("instance", help="path to a .wcsp file")
    solve.add_argument("--alg", choices=("lb", "ub", "lub"), default="lub")
    solve.add_argument("--time-limit", type=_seconds, default=None, metavar="SEC")
    solve.add_argument("--seed-disjoint", action="store_true",
                       help="pre-seed the pool with disjoint cores")
    solve.add_argument("--trace", default=None, metavar="FILE",
                       help="write the bound trace as CSV")
    solve.add_argument("--deterministic", action="store_true",
                       help="accepted and ignored; every solve is a "
                       "single-thread round-robin")

    gen = sub.add_parser("gen", help="generate a random .wcsp instance")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--vars", type=int, required=True, dest="num_vars")
    gen.add_argument("--dom", type=int, required=True)
    gen.add_argument("--funcs", type=int, required=True)
    gen.add_argument("--arity", type=int, default=2)
    gen.add_argument("--max-cost", type=int, default=10)
    gen.add_argument("--hard-density", type=float, default=0.0)
    gen.add_argument("-o", "--output", required=True, metavar="FILE")

    verify = sub.add_parser(
        "verify", help="check all three solvers against exhaustive search"
    )
    verify.add_argument("instance", help="path to a .wcsp file")
    verify.add_argument("--time-limit", type=_seconds, default=None, metavar="SEC")
    return parser


class _InputError(Exception):
    """Input error carrying a message for stderr; mapped to exit 1."""


def _load(path: str) -> Wcsp:
    try:
        return parse_wcsp_file(path)
    except OSError as exc:
        raise _InputError(f"cannot read {path}: {exc.strerror or exc}")
    except UnicodeDecodeError as exc:
        raise _InputError(f"cannot read {path}: not UTF-8 text ({exc.reason})")
    except ParseError as exc:
        raise _InputError(f"{path}: {exc}")


def _format_ub(ub: int | float) -> str:
    return "inf" if ub == INF else str(int(ub))


def _run_solver(args: argparse.Namespace, w: Wcsp, sink: Callable | None) -> SolveResult:
    solver = {"lb": hs_lb, "ub": hs_ub, "lub": hs_lub}[args.alg]
    return solver(
        w, time_limit=args.time_limit, seed_disjoint=args.seed_disjoint, trace=sink
    )


def cmd_solve(args: argparse.Namespace, invocation: str) -> int:
    w = _load(args.instance)
    if args.trace is None:
        result = _run_solver(args, w, None)
    else:
        # opening, writing, flushing or closing the trace may fail
        try:
            with open(args.trace, "w") as trace_file:
                writer = TraceWriter(
                    trace_file,
                    comments=[f"invocation: {invocation}", f"instance: {w.name}"],
                )
                result = _run_solver(args, w, writer.write)
        except OSError as exc:
            raise _InputError(f"cannot write {args.trace}: {exc.strerror or exc}")

    if result.status == OPTIMAL:
        print(f"OPTIMAL {result.optimum}")
    else:
        print(result.status)
    print(
        f"STATUS {result.status} LB {result.lb} UB {_format_ub(result.ub)}"
        f" CORES {result.cores_used} TIME_MS {int(round(result.wall_ms))}"
    )
    return {
        OPTIMAL: _EXIT_OK,
        INFEASIBLE: _EXIT_INFEASIBLE,
    }.get(result.status, _EXIT_TIMEOUT)


def cmd_gen(args: argparse.Namespace) -> int:
    try:
        w = generate(
            seed=args.seed,
            num_vars=args.num_vars,
            max_dom=args.dom,
            num_funcs=args.funcs,
            max_arity=args.arity,
            cost_range=args.max_cost,
            hard_density=args.hard_density,
        )
    except ValueError as exc:
        raise _InputError(str(exc))
    try:
        with open(args.output, "w") as f:
            f.write(wcsp_to_text(w))
    except OSError as exc:
        raise _InputError(f"cannot write {args.output}: {exc.strerror or exc}")
    return _EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    w = _load(args.instance)
    try:
        w_star = optimal_cost(w)
    except ValueError as exc:
        raise _InputError(str(exc))

    # a solve's wall time counts from its deadline's anchor, so a TIMEOUT
    # reported before the limit is up can only be an interrupt
    limit_ms = INF if args.time_limit is None else args.time_limit * 1000
    cells: dict[str, tuple[str, bool]] = {}
    for name, solver in (("hs_lb", hs_lb), ("hs_ub", hs_ub), ("hs_lub", hs_lub)):
        result = solver(w, time_limit=args.time_limit)
        if result.status == OPTIMAL:
            cells[name] = str(result.optimum), result.optimum == w_star
        elif result.status == INFEASIBLE:
            cells[name] = INFEASIBLE, w_star is None
        elif result.wall_ms < limit_ms:
            print(f"hswcsp: verify interrupted during {name}", file=sys.stderr)
            return _EXIT_TIMEOUT
        else:
            cells[name] = result.status, False

    expected = INFEASIBLE if w_star is None else str(w_star)
    ok = all(agree for _, agree in cells.values())
    summary = ", ".join(f"{name}={text}" for name, (text, _) in cells.items())
    print(f"w*={expected}, {summary}, {'OK' if ok else 'MISMATCH'}")
    if not ok:
        for name, (text, agree) in cells.items():
            if not agree:
                print(f"{name}: got {text}, expected {expected}", file=sys.stderr)
        return _EXIT_MISMATCH
    return _EXIT_OK


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else _EXIT_USAGE
    try:
        if args.command == "solve":
            return cmd_solve(args, " ".join(["hswcsp", *argv]))
        if args.command == "gen":
            return cmd_gen(args)
        return cmd_verify(args)
    except _InputError as exc:
        print(f"hswcsp: error: {exc}", file=sys.stderr)
        return _EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
