"""Command-line front end.

Subcommands read a problem file (a path, or "-" for stdin) holding
either an interpolation problem

    {"points": [{"x": "0", "values": ["-2"]}, ...]}

or a plane parametrization

    {"r0": ["0", "0", "6", "0", "-4"], "r1": ["0", "4", "0", "-4"]}

with rationals as strings "p/q" or integers and polynomial arrays in
ascending degree.  ``--json`` switches every subcommand to a
machine-readable mirror of the report types, each of which renders
itself; this module only parses arguments, reads input, dispatches and
maps errors to exit codes.  Exit status: 0 on success, 1 when a request
has no valid answer, 2 on malformed input, conflicting mode flags, or a
problem of degree above ``MAX_DEGREE``.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from . import deltasolver, kappasolver, oracle
from .eea import extended_euclid
from .errors import DomainError
from .exactpoly import Poly
from .hermite import InterpolationData
from .mubasis import PlaneParametrization, mu_basis

# Largest accepted n, the sum of the multiplicities or deg r0.  The cost of
# the exact arithmetic grows steeply with n, so larger problems are refused
# before any of it runs.
MAX_DEGREE = 128


def _capped(degree: int) -> int:
    if degree > MAX_DEGREE:
        raise ValueError(f"degree {degree} exceeds the limit {MAX_DEGREE}")
    return degree


def _read_problem(args):
    """The one decoder of problems: a file, stdin ("-") or mu-basis --r0/--r1.

    Malformed, too deeply nested and too large problems raise ValueError.
    """
    r0, r1 = getattr(args, "r0", None), getattr(args, "r1", None)
    if (r0 is None) != (r1 is None):
        raise ValueError("--r0 and --r1 must be given together")
    if (r0 is None) == (args.problem is None):
        raise ValueError("give exactly one of a problem file and --r0/--r1")
    try:
        if r0 is None:
            obj = json.loads(sys.stdin.read() if args.problem == "-" else Path(args.problem).read_text())
        else:
            obj = {"r0": json.loads(r0), "r1": json.loads(r1)}
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None
    if not isinstance(obj, dict):
        raise ValueError("problem file must be a JSON object")
    if "points" in obj:
        problem = InterpolationData.from_json_dict(obj)
    elif "r0" in obj and "r1" in obj:
        problem = PlaneParametrization(Poly.from_json(obj["r0"]), Poly.from_json(obj["r1"]))
    else:
        raise ValueError('problem file must contain "points" or "r0"/"r1"')
    _capped(problem.n)
    return problem


def _interpolation(problem) -> InterpolationData:
    if not isinstance(problem, InterpolationData):
        raise ValueError("this subcommand needs an interpolation problem file")
    return problem


def _emit(args, payload, text) -> int:
    """Print payload() as JSON with --json, else text(); the other form is never built."""
    print(json.dumps(payload(), indent=2) if args.json else text())
    return 0


def _emit_sample(args, name: str, value: int, rf) -> int:
    return _emit(args, lambda: {name: value, "solution": rf.to_json()},
                 lambda: f"{name} = {value}: {rf}")


def _cmd_eea(args) -> int:
    problem = _read_problem(args)
    if isinstance(problem, InterpolationData):
        trace = extended_euclid(*problem.newton_pair)
    else:
        trace = extended_euclid(problem.r0, problem.r1)
    return _emit(args, trace.to_json, lambda: str(trace))


def _cmd_delta(args) -> int:
    data = _interpolation(_read_problem(args))
    if args.solve is not None:
        return _emit_sample(args, "delta", args.solve,
                            deltasolver.sample_solution_of_delta(data, _capped(args.solve)))
    if args.basis:
        basis = deltasolver.minimal_basis(data)
        return _emit(args, basis.to_json, lambda: str(basis))
    degree_set = deltasolver.admissible_delta_set(data)
    if args.set:
        return _emit(args, degree_set.to_json, lambda: f"admissible delta: {degree_set}")
    basis = deltasolver.minimal_basis(data)
    report = deltasolver.minimal_delta_solutions(data)
    return _emit(
        args,
        lambda: {"basis": basis.to_json(), "report": report.to_json(), "admissible": degree_set.to_json()},
        lambda: f"{basis}\n{report}\nadmissible delta: {degree_set}",
    )


def _cmd_kappa(args) -> int:
    data = _interpolation(_read_problem(args))
    if args.solve is not None:
        return _emit_sample(args, "kappa", args.solve,
                            kappasolver.sample_solution_of_kappa(data, _capped(args.solve)))
    report = kappasolver.admissible_kappa(data)
    return _emit(args, lambda: report.to_json(args.min), lambda: report.text(args.min))


def _cmd_hermite_d(args) -> int:
    data = _interpolation(_read_problem(args))
    d = args.degree
    rf = kappasolver.hermite_rational(data, d)
    return _emit(
        args,
        lambda: {"d": d, "solvable": rf is not None, "solution": None if rf is None else rf.to_json()},
        lambda: f"d = {d}: {'no solution' if rf is None else rf}",
    )


def _cmd_mu_basis(args) -> int:
    param = _read_problem(args)
    if not isinstance(param, PlaneParametrization):
        raise ValueError("this subcommand needs a parametrization problem file")
    basis = mu_basis(param)
    return _emit(args, lambda: basis.to_json(args.projective), lambda: basis.text(args.projective))


def _cmd_oracle(args) -> int:
    problem = _read_problem(args)
    if args.min_mu:
        if not isinstance(problem, PlaneParametrization):
            raise ValueError("--min-mu needs a parametrization problem file")
        value = oracle.min_mu_oracle(problem)
        return _emit(args, lambda: {"min_mu": value}, lambda: f"min mu = {value}")
    data = _interpolation(problem)
    if args.kappa_set:
        values = sorted(oracle.kappa_values_below_n(data))
        return _emit(args, lambda: {"kappa_below_n": values}, lambda: f"kappa values below n: {values}")
    value = oracle.min_degree_weak_pair(data)
    return _emit(args, lambda: {"min_delta": value}, lambda: f"min delta = {value}")


# -- parser ------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ratinterp",
        description="Exact rational interpolation with multiplicities and "
        "mu-bases of polynomial plane curves.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eea", help="print the remainder/cofactor table")
    p.add_argument("problem", help="problem file, or - for stdin")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_eea)

    p = sub.add_parser("delta", help="minimal max-degree solutions")
    p.add_argument("problem", help="interpolation problem file, or -")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--basis", action="store_true", help="print only the minimal basis")
    mode.add_argument("--set", action="store_true", help="print only the admissible set")
    mode.add_argument("--solve", type=int, metavar="DELTA", help="sample a solution of this degree")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_delta)

    p = sub.add_parser("kappa", help="minimal degree-sum solutions")
    p.add_argument("problem", help="interpolation problem file, or -")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--min", action="store_true", help="print only the minimum and witnesses")
    mode.add_argument("--solve", type=int, metavar="KAPPA", help="sample a solution of this degree sum")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_kappa)

    p = sub.add_parser("hermite-d", help="prescribed-split rational interpolation")
    p.add_argument("problem", help="interpolation problem file, or -")
    p.add_argument("-d", "--degree", type=int, required=True, help="numerator degree bound")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_hermite_d)

    p = sub.add_parser("mu-basis", help="minimal moving lines of a parametrization")
    p.add_argument("problem", nargs="?", help="parametrization problem file, or -")
    p.add_argument("--r0", help="first coordinate as a JSON coefficient array")
    p.add_argument("--r1", help="second coordinate as a JSON coefficient array")
    p.add_argument("--projective", action="store_true", help="also print homogenized lines")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_mu_basis)

    p = sub.add_parser("oracle", help="slow brute-force cross-checks (debugging)")
    p.add_argument("problem", help="problem file, or -")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--kappa-set", action="store_true",
                      help="exhaustive degree sums below n (default: minimal weak-pair degree)")
    mode.add_argument("--min-mu", action="store_true", help="minimal moving-line degree")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_oracle)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and reused by every later ``main``."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError, TypeError, OSError, json.JSONDecodeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
