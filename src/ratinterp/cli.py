"""Command-line front end.

Subcommands read a problem file (a path, or "-" for stdin) holding
either an interpolation problem

    {"points": [{"x": "0", "values": ["-2"]}, ...]}

or a plane parametrization

    {"r0": ["0", "0", "6", "0", "-4"], "r1": ["0", "4", "0", "-4"]}

with rationals as strings "p/q" or integers and polynomial arrays in
ascending degree.  ``--json`` switches every subcommand to a
machine-readable mirror of the report types.  Exit status: 0 on
success, 1 when a request has no valid answer or a sampling scan runs
out of its bound, 2 on malformed input.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import deltasolver, kappasolver, oracle
from .eea import extended_euclid
from .errors import DomainError, ScanExhausted
from .exactpoly import Poly
from .hermite import InterpolationData, RationalFunction, hermite_polynomial, nodal_poly
from .mubasis import MuBasis, PlaneParametrization, mu_basis, projective_form


def _read_problem(path: str):
    text = sys.stdin.read() if path == "-" else Path(path).read_text()
    obj = json.loads(text)
    if not isinstance(obj, dict):
        raise ValueError("problem file must be a JSON object")
    if "points" in obj:
        return InterpolationData.from_json_dict(obj)
    if "r0" in obj and "r1" in obj:
        return PlaneParametrization(Poly.from_json(obj["r0"]), Poly.from_json(obj["r1"]))
    raise ValueError('problem file must contain "points" or "r0"/"r1"')


def _interpolation(problem) -> InterpolationData:
    if not isinstance(problem, InterpolationData):
        raise ValueError("this subcommand needs an interpolation problem file")
    return problem


def _rf_json(rf: RationalFunction) -> dict:
    return rf.to_json()


def _pair_json(pair) -> dict:
    return {"a": pair[0].to_json(), "b": pair[1].to_json()}


def _emit(args, payload: dict, text: str) -> int:
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(text)
    return 0


# -- eea -----------------------------------------------------------------------


def _trace_for(problem):
    if isinstance(problem, InterpolationData):
        return extended_euclid(nodal_poly(problem), hermite_polynomial(problem))
    return extended_euclid(problem.r0, problem.r1)


def _fmt_table(rows: list[list[str]], header: list[str]) -> str:
    table = [header] + rows
    widths = [max(len(line[c]) for line in table) for c in range(len(header))]
    lines = []
    for idx, line in enumerate(table):
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(line, widths)).rstrip())
        if idx == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def _cmd_eea(args) -> int:
    trace = _trace_for(_read_problem(args.problem))
    rows = []
    for i in range(trace.N + 2):
        deg = trace.r(i).degree
        rows.append(
            [
                str(i),
                "-inf" if trace.r(i).is_zero else str(deg),
                str(trace.r(i)),
                str(trace.s(i)),
                str(trace.t(i)),
                str(trace.q(i)) if 1 <= i <= trace.N else "",
            ]
        )
    payload = {
        "n": trace.n,
        "N": trace.N,
        "rows": [
            {
                "i": i,
                "r": trace.r(i).to_json(),
                "s": trace.s(i).to_json(),
                "t": trace.t(i).to_json(),
            }
            for i in range(trace.N + 2)
        ],
        "quotients": [q.to_json() for q in trace.quotients],
    }
    return _emit(args, payload, _fmt_table(rows, ["i", "deg r_i", "r_i", "s_i", "t_i", "q_i"]))


# -- delta ----------------------------------------------------------------------


def _report_json(report: deltasolver.DeltaSolutionReport) -> dict:
    return {
        "kind": report.kind,
        "minimal_delta": report.minimal_delta,
        "representative": _rf_json(report.representative),
        "family_degree": report.family_degree,
        "node_constraints": [
            {"node": str(x), "forbidden": None if v is None else str(v)}
            for x, v in report.node_constraints
        ],
    }


def _basis_text(basis: deltasolver.MinimalBasis) -> str:
    a1, b1 = basis.pair1
    a2, b2 = basis.pair2
    return (
        f"mu1 = {basis.mu1}, mu2 = {basis.mu2} (critical index {basis.critical_index})\n"
        f"pair1: a = {a1}, b = {b1}\n"
        f"pair2: a = {a2}, b = {b2}"
    )


def _family_text(report: deltasolver.DeltaSolutionReport) -> str:
    lines = [
        f"family: (a2 + p*a1)/(b2 + p*b1) with deg p = {report.family_degree}",
        f"sample member: {report.representative}",
    ]
    constraints = [
        f"p({x}) != {v}" for x, v in report.node_constraints if v is not None
    ]
    if constraints:
        lines.append("denominator constraints: " + "; ".join(constraints))
    return "\n".join(lines)


def _cmd_delta(args) -> int:
    data = _interpolation(_read_problem(args.problem))
    basis = deltasolver.minimal_basis(data)
    if args.solve is not None:
        rf = deltasolver.sample_solution_of_delta(data, args.solve)
        return _emit(
            args,
            {"delta": args.solve, "solution": _rf_json(rf)},
            f"delta = {args.solve}: {rf}",
        )
    if args.basis:
        payload = {
            "mu1": basis.mu1,
            "mu2": basis.mu2,
            "critical_index": basis.critical_index,
            "pair1": _pair_json(basis.pair1),
            "pair2": _pair_json(basis.pair2),
        }
        return _emit(args, payload, _basis_text(basis))
    degree_set = deltasolver.admissible_delta_set(data)
    if args.set:
        payload = {"isolated": degree_set.isolated, "threshold": degree_set.threshold}
        return _emit(args, payload, f"admissible delta: {degree_set}")
    report = deltasolver.minimal_delta_solutions(data)
    payload = {
        "basis": {
            "mu1": basis.mu1,
            "mu2": basis.mu2,
            "critical_index": basis.critical_index,
            "pair1": _pair_json(basis.pair1),
            "pair2": _pair_json(basis.pair2),
        },
        "report": _report_json(report),
        "admissible": {"isolated": degree_set.isolated, "threshold": degree_set.threshold},
    }
    text = [_basis_text(basis), f"kind = {report.kind}", f"minimal delta = {report.minimal_delta}"]
    if report.kind == "UNIQUE":
        text.append(f"unique minimal solution: {report.representative}")
    else:
        text.append(_family_text(report))
    text.append(f"admissible delta: {degree_set}")
    return _emit(args, payload, "\n".join(text))


# -- kappa ----------------------------------------------------------------------


def _kappa_json(report: kappasolver.KappaReport) -> dict:
    return {
        "tail_threshold": report.tail_threshold,
        "minimal_kappa": report.minimal_kappa,
        "isolated": [
            {
                "kappa": e.kappa,
                "index": e.index,
                "solution": _rf_json(e.solution),
                "raw_pair": {"r": e.raw_pair[0].to_json(), "s": e.raw_pair[1].to_json()},
            }
            for e in report.isolated
        ],
        "minimal_solutions": [_rf_json(rf) for rf in report.minimal_solutions],
    }


def _kappa_text(report: kappasolver.KappaReport) -> str:
    lines = [f"every kappa >= {report.tail_threshold} is admissible"]
    lines.append("isolated admissible kappa values:")
    for e in report.isolated:
        lines.append(f"  kappa = {e.kappa} via row {e.index}: {e.solution}")
    lines.append(f"minimal kappa = {report.minimal_kappa}")
    lines.append(
        "minimal solutions: " + "; ".join(str(rf) for rf in report.minimal_solutions)
    )
    return "\n".join(lines)


def _cmd_kappa(args) -> int:
    data = _interpolation(_read_problem(args.problem))
    if args.hermite_d is not None:
        return _run_hermite_d(args, data, args.hermite_d)
    if args.solve is not None:
        rf = kappasolver.sample_solution_of_kappa(data, args.solve)
        return _emit(
            args,
            {"kappa": args.solve, "solution": _rf_json(rf)},
            f"kappa = {args.solve}: {rf}",
        )
    report = kappasolver.admissible_kappa(data)
    if args.min:
        payload = {
            "minimal_kappa": report.minimal_kappa,
            "minimal_solutions": [_rf_json(rf) for rf in report.minimal_solutions],
        }
        text = (
            f"minimal kappa = {report.minimal_kappa}\n"
            + "minimal solutions: "
            + "; ".join(str(rf) for rf in report.minimal_solutions)
        )
        return _emit(args, payload, text)
    return _emit(args, _kappa_json(report), _kappa_text(report))


def _run_hermite_d(args, data: InterpolationData, d: int) -> int:
    rf = kappasolver.hermite_rational(data, d)
    payload = {"d": d, "solvable": rf is not None, "solution": None if rf is None else _rf_json(rf)}
    text = f"d = {d}: no solution" if rf is None else f"d = {d}: {rf}"
    return _emit(args, payload, text)


def _cmd_hermite_d(args) -> int:
    data = _interpolation(_read_problem(args.problem))
    return _run_hermite_d(args, data, args.degree)


# -- mu-basis --------------------------------------------------------------------


def _mu_payload(basis: MuBasis, projective: bool) -> dict:
    payload = {
        "mu": basis.mu,
        "low": {
            "ct0": basis.low.ct0.to_json(),
            "ct1": basis.low.ct1.to_json(),
            "c1": basis.low.c1.to_json(),
        },
        "high": {
            "ct0": basis.high.ct0.to_json(),
            "ct1": basis.high.ct1.to_json(),
            "c1": basis.high.c1.to_json(),
        },
    }
    if projective:
        payload["projective"] = [projective_form(basis.low), projective_form(basis.high)]
    return payload


def _cmd_mu_basis(args) -> int:
    if args.r0 is not None or args.r1 is not None:
        if args.r0 is None or args.r1 is None:
            raise ValueError("--r0 and --r1 must be given together")
        param = PlaneParametrization(
            Poly.from_json(json.loads(args.r0)), Poly.from_json(json.loads(args.r1))
        )
    elif args.problem is not None:
        problem = _read_problem(args.problem)
        if not isinstance(problem, PlaneParametrization):
            raise ValueError("this subcommand needs a parametrization problem file")
        param = problem
    else:
        raise ValueError("give a problem file or --r0/--r1")
    basis = mu_basis(param)
    lines = [
        f"mu = {basis.mu}",
        f"low  (degree {basis.low.degree}): {basis.low}",
        f"high (degree {basis.high.degree}): {basis.high}",
    ]
    if args.projective:
        lines.append(f"projective low:  {projective_form(basis.low)}")
        lines.append(f"projective high: {projective_form(basis.high)}")
    return _emit(args, _mu_payload(basis, args.projective), "\n".join(lines))


# -- oracle (debugging) -----------------------------------------------------------


def _cmd_oracle(args) -> int:
    problem = _read_problem(args.problem)
    if args.min_mu:
        if not isinstance(problem, PlaneParametrization):
            raise ValueError("--min-mu needs a parametrization problem file")
        value = oracle.min_mu_oracle(problem)
        return _emit(args, {"min_mu": value}, f"min mu = {value}")
    data = _interpolation(problem)
    if args.kappa_set:
        values = sorted(oracle.kappa_values_below_n(data))
        return _emit(
            args, {"kappa_below_n": values}, f"kappa values below n: {values}"
        )
    value = oracle.min_degree_weak_pair(data)
    return _emit(args, {"min_delta": value}, f"min delta = {value}")


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
    p.add_argument("--basis", action="store_true", help="print only the minimal basis")
    p.add_argument("--set", action="store_true", help="print only the admissible set")
    p.add_argument("--solve", type=int, metavar="DELTA", help="sample a solution of this degree")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_delta)

    p = sub.add_parser("kappa", help="minimal degree-sum solutions")
    p.add_argument("problem", help="interpolation problem file, or -")
    p.add_argument("--set", action="store_true", help="print the full report (default)")
    p.add_argument("--min", action="store_true", help="print only the minimum and witnesses")
    p.add_argument("--solve", type=int, metavar="KAPPA", help="sample a solution of this degree sum")
    p.add_argument("--hermite-d", type=int, metavar="D", dest="hermite_d",
                   help="solve the prescribed-split problem for numerator degree D")
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
    p.add_argument("--min-delta", action="store_true", help="minimal weak-pair degree (default)")
    p.add_argument("--kappa-set", action="store_true", help="exhaustive degree sums below n")
    p.add_argument("--min-mu", action="store_true", help="minimal moving-line degree")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_oracle)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (DomainError, ScanExhausted) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError, TypeError, OSError, json.JSONDecodeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
