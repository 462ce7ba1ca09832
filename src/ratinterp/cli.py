"""Command-line front end.

Subcommands read a problem file (a path, or "-" for stdin) holding
either an interpolation problem

    {"points": [{"x": "0", "values": ["-2"]}, ...]}

or a plane parametrization

    {"r0": ["0", "0", "6", "0", "-4"], "r1": ["0", "4", "0", "-4"]}

with rationals as strings "p/q" or integers and polynomial arrays in
ascending degree.  ``--json`` switches every subcommand to a
machine-readable mirror of the report types, each of which renders
itself; this module parses arguments, reads input, dispatches, writes
the JSON text (byte for byte what ``json.dumps(payload, indent=2)`` gives)
and maps errors to exit codes.  Exit status: 0 on success, 1 when a request
has no valid answer or stdout is closed before the answer is written (as
``| head`` does; quietly), 2 on malformed input, conflicting mode flags, a
problem of degree above ``MAX_DEGREE`` (``ORACLE_MAX_DEGREE`` for ``oracle``
on interpolation data, ``KAPPA_SET_MAX_DEGREE`` for ``oracle --kappa-set``),
or a problem whose size in bits (``_input_size``, ``_polynomial``) is above
``MAX_INPUT_SIZE``.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction
from pathlib import Path

from . import deltasolver, kappasolver, oracle
from .eea import extended_euclid
from .errors import DomainError
from .exactpoly import Poly, as_fraction, as_sequence
from .hermite import InterpolationData
from .mubasis import PlaneParametrization, mu_basis

# Largest accepted n, the sum of the multiplicities or deg r0.  The cost of
# the exact arithmetic grows steeply with n, so larger problems are refused
# before any of it runs.
MAX_DEGREE = 128

# Largest n for the default ``oracle`` mode, about log2(n) eliminations of n rows: its worst
# measured family, rational nodes, took 5.8–6.7 s at n = 72 and 10–12 s at n = 80 (README).
ORACLE_MAX_DEGREE = 72

# Largest n for ``oracle --kappa-set``, which eliminates one system per split,
# about n**2 / 2 of them: its worst measured family, constant data, took 5–6 s
# at n = 24 and 20 s at n = 32 (README).
KAPPA_SET_MAX_DEGREE = 24


# Largest accepted n*B (``_input_size``; ``_polynomial`` gives B of a parametrization).  Trace
# coefficients grow with n times the bits of the two inputs, not with n alone, and node
# denominators multiply into lead f.  Fitted to `hermite-d -d 2` run in-process on nodes
# k/(10^D + k), k = 1..n (README): 17 s at n = 128, D = 1 (n*B = 175,616) and 8.3 s at n = 64,
# D = 12 (173,440) are refused, while the largest input of the benchmark, the CI runs and the
# problem files, the probe's integer nodes 0..127 (115,456, 1.8 s), is accepted.  On
# parametrizations `mu-basis` runs below 1 s at every size under it (README), and degree 64 with
# 100-digit coefficients (2.7 million, 16 s) is refused; `eea` on them, whose full trace has raw
# rows, is many times slower than `mu-basis`, so the same cap stays.
MAX_INPUT_SIZE = 150_000


def _input_size(data: InterpolationData) -> int:
    """n*B, with B the bits of each node's numerator and denominator summed over the conditions,
    plus the bits of the largest value's numerator and denominator: O(n) ``bit_length`` calls."""
    nodes = value = 0
    for x, values in data.points:
        p, q = x.as_integer_ratio()  # one call, where .numerator and .denominator are two
        nodes += (p.bit_length() + q.bit_length()) * len(values)
        for v in values:
            p, q = v.as_integer_ratio()
            bits = p.bit_length() + q.bit_length()
            if bits > value:
                value = bits
    return data.n * (nodes + value)


def _polynomial(data) -> tuple[Poly, int]:
    """The polynomial of a JSON coefficient array, and the bits of its coefficients' numerators and
    denominators summed; each coefficient is parsed once for both."""
    coeffs = [as_fraction(c) for c in as_sequence(data, "each of r0 and r1")]
    return Poly(coeffs), sum(p.bit_length() + q.bit_length() for p, q in map(Fraction.as_integer_ratio, coeffs))


def _capped(degree: int, limit: int = MAX_DEGREE, name: str = "the limit") -> int:
    if degree > limit:
        raise ValueError(f"degree {degree} exceeds {name} {limit}")
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
        (r0, bits0), (r1, bits1) = _polynomial(obj["r0"]), _polynomial(obj["r1"])
        problem = PlaneParametrization(r0, r1)
    else:
        raise ValueError('problem file must contain "points" or "r0"/"r1"')
    _capped(problem.n)
    if isinstance(problem, InterpolationData):
        size = _input_size(problem)
        what = "the node numerators and denominators over the conditions and adds the bits of the largest value"
    else:
        size, what = problem.n * (bits0 + bits1), "the coefficient numerators and denominators of r0 and r1"
    if size > MAX_INPUT_SIZE:
        raise ValueError(f"input size n*B = {size} exceeds the limit {MAX_INPUT_SIZE}, "
                         f"where B sums the bits of {what}")
    return problem


def _interpolation(problem) -> InterpolationData:
    if not isinstance(problem, InterpolationData):
        raise ValueError("this subcommand needs an interpolation problem file")
    return problem


_encode_str = json.encoder.encode_basestring_ascii


def _json_text(obj, indent: str = "\n") -> str:
    """``json.dumps(obj, indent=2)`` without its pure-Python encoder.

    ``obj`` is a tree of dict (str keys), list, tuple, str, int, bool and None;
    any other type raises TypeError.  ``indent`` is the newline and indent of
    the enclosing level.
    """
    if isinstance(obj, str):
        return _encode_str(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    inner = indent + "  "
    separator = "," + inner
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        try:  # a list of strings, such as every coefficient array, in one join
            body = separator.join(map(_encode_str, obj))
        except TypeError:
            body = separator.join([_json_text(item, inner) for item in obj])
        return "[" + inner + body + indent + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for key, value in obj.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            items.append(_encode_str(key) + ": " + _json_text(value, inner))
        return "{" + inner + separator.join(items) + indent + "}"
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _emit(args, payload, text) -> int:
    """Print payload() as JSON with --json, else text(); the other form is never built.

    The flush makes a closed stdout fail here, inside ``main``, not at shutdown.
    """
    print(_json_text(payload()) if args.json else text(), flush=True)
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
        _capped(data.n, KAPPA_SET_MAX_DEGREE, "the --kappa-set limit")
        values = sorted(oracle.kappa_values_below_n(data))
        return _emit(args, lambda: {"kappa_below_n": values}, lambda: f"kappa values below n: {values}")
    _capped(data.n, ORACLE_MAX_DEGREE, "the oracle limit")
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
    parser.subcommands = sub.choices  # name -> subparser, for ``main``'s dispatch

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
                      help=f"degree sums below n, one kernel per degree split (n <= {KAPPA_SET_MAX_DEGREE}; "
                      f"default: minimal weak-pair degree, n <= {ORACLE_MAX_DEGREE})")
    mode.add_argument("--min-mu", action="store_true", help="minimal moving-line degree")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_oracle)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and reused by every later ``main``."""
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    sub = parser.subcommands.get(argv[0]) if argv else None
    if sub is None:  # no subcommand word: usage, help and errors come from the top level
        args = parser.parse_args(argv)
    else:  # what the top level does with a subcommand word, without its own parse
        args, extras = sub.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
        if extras:
            parser.error(f"unrecognized arguments: {' '.join(extras)}")
    try:
        return args.func(args)
    except BrokenPipeError:
        # stdout was closed early, as by `| head`: no answer was delivered, so exit 1, quietly; as
        # Python's docs on SIGPIPE advise, stdout goes to devnull so the flush at shutdown succeeds
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError, TypeError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
