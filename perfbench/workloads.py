"""The four workloads: seeded request streams, execution and answer checks.

Each stream is a sequence of decks.  A deck lists the same request
templates (family, size, mode) for every seed and is shuffled with the
seed, so every seed runs the same mix of sizes and modes on different
instances.  No instance repeats within a run, and the warm-up draws
from its own namespace, so the library's caches never serve a timed
request that a fresh process would not have cached.
"""

from __future__ import annotations

import io
import json
import random
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction

import generate as gen
import ratinterp as ri
import ratinterp.cli
from check import Checker, CheckFailed

WORKLOADS = ("cli-mix", "family-session", "large-trace", "recover")
TRACED_DECKS = {"cli-mix": 10, "family-session": 1, "large-trace": 1, "recover": 1}
# whether the machine-speed calibration includes CLI-like small-object work;
# large-trace spends its time on big coefficients alone
SMALL_REQUESTS = {"cli-mix": True, "family-session": True, "large-trace": False, "recover": True}
# peak RSS is read after this many decks (about 8 s of work here), so it
# measures a fixed amount of work however fast the machine runs
RSS_DECKS = {"cli-mix": 15, "family-session": 10, "large-trace": 3, "recover": 6}


@dataclass
class Request:
    kind: str
    inst: gen.Instance
    argv: list | None = None  # CLI requests
    stdin: str = ""
    arg: int | None = None
    expect_exit: int = 0
    session: dict | None = None  # shared by the queries of one library session
    obj: object = None  # library input, built outside the timed region
    result: object = field(default=None, repr=False)


# -- cli-mix -----------------------------------------------------------------------

CLI_SIZES = range(3, 13)
CLI_FAMILIES = ("int", "rep", "rat", "plant", "zero")
CLI_MODES = (
    "delta", "delta --basis", "delta --set", "delta --solve",
    "kappa", "kappa --min", "kappa --solve", "hermite-d", "eea",
)
PARAM_MODES = ("mu-basis", "mu-basis --projective", "eea")
ERROR_MODES = ("delta --solve", "kappa --solve", "malformed")


def _cli_deck(index: int) -> list[tuple[str, str, int]]:
    """Every (family, mode) once; sizes rotate, so ten decks cover every size of each."""
    templates = [(fam, mode) for fam in CLI_FAMILIES for mode in CLI_MODES]
    templates += [("param", mode) for mode in PARAM_MODES]
    templates += [("error", mode) for mode in ERROR_MODES]
    return [
        (fam, mode, CLI_SIZES[(t + index) % len(CLI_SIZES)])
        for t, (fam, mode) in enumerate(templates)
    ]


def _cli_request(rng: random.Random, family: str, mode: str, n: int) -> Request:
    words = mode.split()
    if family == "error":
        return _error_request(rng, mode, n)
    inst = gen.make_instance(rng, family, n)
    argv = [words[0], "-", "--json", *words[1:]]
    expect_exit = 0
    if mode == "delta --solve":
        arg = inst.expected["minimal_delta"] if family == "plant" else n
        argv.append(str(arg))
    elif mode == "kappa --solve":
        arg = inst.expected["minimal_kappa"] if family == "plant" else n
        argv.append(str(arg))
    elif mode == "hermite-d":
        low, high = inst.expected.get("hermite_range", (0, n - 1))
        arg = rng.randint(low, high)
        argv += ["-d", str(arg)]
    else:
        arg = None
        if mode == "eea" and family == "zero":
            expect_exit = 1  # no remainder sequence for g = 0
    return Request(mode, inst, argv, json.dumps(inst.problem()), arg, expect_exit)


def _error_request(rng: random.Random, mode: str, n: int) -> Request:
    """About 6% of cli-mix: exit 1 for an inadmissible degree, exit 2 for bad input."""
    if mode == "malformed":
        inst = gen.make_instance(rng, "int", n)
        problem = inst.problem()
        variant = n % 4
        if variant == 0:
            return Request("malformed", inst, ["delta", "-", "--json"],
                           json.dumps(problem)[: 20 + n], expect_exit=2)
        if variant == 1:
            problem["points"][0]["values"][0] = "1/0"
            return Request("malformed", inst, ["kappa", "-", "--json"],
                           json.dumps(problem), expect_exit=2)
        if variant == 2:
            problem["points"].append(problem["points"][0])
            return Request("malformed", inst, ["eea", "-", "--json"],
                           json.dumps(problem), expect_exit=2)
        return Request("malformed", inst, ["hermite-d", "-", "--json", "-d", str(n)],
                       json.dumps(problem), expect_exit=2)
    pairs = [
        (p, q) for p, q in gen.planted_degrees(n, 2)
        if n - 2 * max(p, q) >= 2 and n - max(p, q) - p - q >= 2
    ]
    p, q = rng.choice(pairs)
    inst = gen.planted(rng, n, p, q)
    if mode == "delta --solve":
        top = max(p, q)
        arg = rng.randint(top + 1, n - top - 1)
    else:
        arg = rng.randint(p + q + 1, n - max(p, q) - 1)
    cmd = mode.split()[0]
    return Request(f"{mode} (inadmissible)", inst, [cmd, "-", "--json", "--solve", str(arg)],
                   json.dumps(inst.problem()), arg, expect_exit=1)


# -- library workloads --------------------------------------------------------------

SESSION_DECK = (
    [("int", n) for n in (8, 10, 12)]
    + [("rep", n) for n in (8, 10, 12)]
    + [("rat", n) for n in (8, 10)]
)
LARGE_DECK = (
    [("eea", "int", n) for n in range(18, 29)]
    + [("eea", "rep", n) for n in range(18, 29, 2)]
    + [("mu_basis", "param", n) for n in range(18, 35, 2)]
)
RECOVER_SIZES = range(24, 65, 4)
RECOVER_DEGREES = ((1, 1), (2, 1), (1, 2), (2, 2), (3, 2), (2, 3), (3, 3))


def _data(inst):
    return ri.InterpolationData.from_pairs(inst.points)


def _session(inst: gen.Instance) -> list[Request]:
    data = _data(inst)
    state: dict = {}
    n = inst.n
    reqs = [
        Request("minimal_delta_solutions", inst, session=state, obj=data),
        Request("admissible_delta_set", inst, session=state, obj=data),
        Request("admissible_kappa", inst, session=state, obj=data),
    ]
    reqs += [Request("hermite_rational", inst, arg=d, session=state, obj=data) for d in range(n)]
    reqs += [
        Request("sample_solution_of_delta", inst, session=state, obj=data),
        Request("sample_solution_of_kappa", inst, arg=n, session=state, obj=data),
    ]
    return reqs


def _large_requests(rng: random.Random, kind: str, family: str, n: int) -> list[Request]:
    inst = gen.make_instance(rng, family, n)
    if kind == "eea":
        return [Request("extended_euclid", inst, obj=_data(inst))]
    param = ri.PlaneParametrization(ri.Poly(inst.r0), ri.Poly(inst.r1))
    return [Request("mu_basis", inst, obj=param)]


def _recover_requests(rng: random.Random, n: int, index: int) -> list[Request]:
    p, q = RECOVER_DEGREES[index % len(RECOVER_DEGREES)]
    inst = gen.planted(rng, n, p, q)
    data = _data(inst)
    state: dict = {}
    return [
        Request("minimal_delta_solutions", inst, session=state, obj=data),
        Request("admissible_delta_set", inst, session=state, obj=data),
        Request("admissible_kappa", inst, session=state, obj=data),
        Request("hermite_rational", inst, arg=p, session=state, obj=data),
    ]


# -- streams ------------------------------------------------------------------------


def _distinct(rng, seen: set, make):
    for _ in range(100):
        item = make(rng)
        key = item[0].inst.key() if isinstance(item, list) else item.inst.key()
        if key not in seen:
            seen.add(key)
            return item
    raise RuntimeError("could not draw a fresh instance")


def deck(workload: str, seed, index: int, seen: set) -> list[Request]:
    """The index-th deck of a workload's stream: every template once, seeded order."""
    rng = random.Random(f"{workload}:{seed}:{index}")
    out: list[Request] = []
    if workload == "cli-mix":
        templates = _cli_deck(index)
        rng.shuffle(templates)
        for fam, mode, n in templates:
            out.append(_distinct(rng, seen, lambda r: _cli_request(r, fam, mode, n)))
    elif workload == "family-session":
        templates = list(SESSION_DECK)
        rng.shuffle(templates)
        for fam, n in templates:
            out += _distinct(rng, seen, lambda r: _session(gen.make_instance(r, fam, n)))
    elif workload == "large-trace":
        templates = list(LARGE_DECK)
        rng.shuffle(templates)
        for kind, fam, n in templates:
            out += _distinct(rng, seen, lambda r: _large_requests(r, kind, fam, n))
    elif workload == "recover":
        templates = list(enumerate(RECOVER_SIZES))
        rng.shuffle(templates)
        for i, n in templates:
            out += _distinct(rng, seen, lambda r: _recover_requests(r, n, i + index))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return out


def decks(workload: str, seed, seen: set):
    index = 0
    while True:
        yield deck(workload, seed, index, seen)
        index += 1


def warmup(workload: str, seed, rep: int, seen: set) -> list[Request]:
    """Some program work from a namespace of its own, disjoint from the timed requests."""
    rng = random.Random(f"warmup:{workload}:{seed}:{rep}")
    out: list[Request] = []
    if workload == "cli-mix":
        for fam, mode, n in _cli_deck(rep):
            out.append(_distinct(rng, seen, lambda r: _cli_request(r, fam, mode, n)))
    elif workload == "family-session":
        for fam in ("int", "rep"):
            out += _distinct(rng, seen, lambda r: _session(gen.make_instance(r, fam, 8)))
    elif workload == "large-trace":
        for n in (20, 24):
            out += _distinct(rng, seen, lambda r: _large_requests(r, "eea", "int", n))
            out += _distinct(rng, seen, lambda r: _large_requests(r, "mu_basis", "param", n))
    else:
        for i, n in enumerate((24, 32)):
            out += _distinct(rng, seen, lambda r: _recover_requests(r, n, rep + i))
    return out


# -- execution --------------------------------------------------------------------


def execute(req: Request) -> float:
    """Run one request and return its wall time in seconds.

    The result, or the exception, lands on req.result.  The public API
    is looked up at call time, so a tracer's wrappers apply.
    """
    if req.argv is not None:
        out = io.StringIO()
        saved = sys.stdin
        sys.stdin = io.StringIO(req.stdin)
        try:
            with redirect_stdout(out), redirect_stderr(io.StringIO()):
                start = time.perf_counter()
                try:
                    code = ratinterp.cli.main(req.argv)
                except SystemExit as exc:
                    code = exc.code
                except Exception as exc:  # a traceback breaks the CLI contract
                    code = exc
                elapsed = time.perf_counter() - start
        finally:
            sys.stdin = saved
        req.result = (code, out.getvalue())
        return elapsed
    if req.kind == "sample_solution_of_delta":
        req.arg = _session_mu2(req) + 1
    call = _LIBRARY_CALLS[req.kind]
    start = time.perf_counter()
    try:
        req.result = call(req.obj, req.arg)
    except Exception as exc:  # counted as a failed request, never aborts the run
        req.result = exc
    return time.perf_counter() - start


_LIBRARY_CALLS = {
    "minimal_delta_solutions": lambda data, _: ri.minimal_delta_solutions(data),
    "admissible_delta_set": lambda data, _: ri.admissible_delta_set(data),
    "admissible_kappa": lambda data, _: ri.admissible_kappa(data),
    "hermite_rational": lambda data, d: ri.hermite_rational(data, d),
    "sample_solution_of_delta": lambda data, delta: ri.sample_solution_of_delta(data, delta),
    "sample_solution_of_kappa": lambda data, kappa: ri.sample_solution_of_kappa(data, kappa),
    "extended_euclid": lambda data, _: ri.extended_euclid(
        ri.nodal_poly(data), ri.hermite_polynomial(data)),
    "mu_basis": lambda param, _: ri.mu_basis(param),
}


def _session_mu2(req: Request) -> int:
    report = req.session.get("report")
    return report.basis.mu2 if report is not None else req.inst.n


# -- checking ---------------------------------------------------------------------


def _fr(coeffs) -> tuple:
    return tuple(Fraction(c) for c in coeffs)


def _rf(obj):
    """(numer, denom) coefficient tuples from a RationalFunction or its JSON."""
    if obj is None:
        return None
    if isinstance(obj, dict):
        return _fr(obj["numer"]), _fr(obj["denom"])
    return obj.numer.coeffs, obj.denom.coeffs


def _basis_tuple(b) -> tuple:
    if isinstance(b, dict):
        pair = lambda p: (_fr(p["a"]), _fr(p["b"]))  # noqa: E731
        return pair(b["pair1"]), pair(b["pair2"]), b["mu1"], b["mu2"]
    return ((b.pair1[0].coeffs, b.pair1[1].coeffs), (b.pair2[0].coeffs, b.pair2[1].coeffs),
            b.mu1, b.mu2)


def _report_tuple(r) -> tuple:
    if isinstance(r, dict):
        constraints = [
            (Fraction(c["node"]), None if c["forbidden"] is None else Fraction(c["forbidden"]))
            for c in r["node_constraints"]
        ]
        return r["kind"], r["minimal_delta"], _rf(r["representative"]), r["family_degree"], constraints
    return (r.kind, r.minimal_delta, _rf(r.representative), r.family_degree,
            list(r.node_constraints))


def _kappa_entries(report) -> tuple:
    if isinstance(report, dict):
        entries = [
            (e["kappa"], (_fr(e["raw_pair"]["r"]), _fr(e["raw_pair"]["s"])), _rf(e["solution"]))
            for e in report["isolated"]
        ]
        return report["tail_threshold"], report["minimal_kappa"], entries, [
            _rf(s) for s in report["minimal_solutions"]
        ]
    entries = [
        (e.kappa, (e.raw_pair[0].coeffs, e.raw_pair[1].coeffs), _rf(e.solution))
        for e in report.isolated
    ]
    return (report.tail_threshold, report.minimal_kappa, entries,
            [_rf(s) for s in report.minimal_solutions])


def check(req: Request, checker: Checker) -> None:
    """Raise CheckFailed unless the request's answer is right."""
    try:
        if req.argv is not None:
            _check_cli(req, checker)
        else:
            _check_library(req, checker)
    except CheckFailed:
        raise
    except Exception as exc:  # a malformed answer the checks could not even read
        raise CheckFailed(f"unreadable answer: {type(exc).__name__}: {exc}") from exc


def _check_cli(req: Request, checker: Checker) -> None:
    code, text = req.result
    if code != req.expect_exit:
        raise CheckFailed(f"{req.kind}: exit {code!r}, expected {req.expect_exit}")
    if code != 0:
        return
    out = json.loads(text)
    inst = req.inst
    cmd = req.argv[0]
    if cmd == "eea":
        rows = [(_fr(r["r"]), _fr(r["s"]), _fr(r["t"])) for r in out["rows"]]
        checker.trace(rows, [_fr(q) for q in out["quotients"]], inst)
    elif cmd == "mu-basis":
        line = lambda d: (_fr(d["ct0"]), _fr(d["ct1"]), _fr(d["c1"]))  # noqa: E731
        checker.mu_basis(out["mu"], line(out["low"]), line(out["high"]), inst)
        if "--projective" in req.argv and len(out["projective"]) != 2:
            raise CheckFailed("mu-basis --projective: two homogenized lines expected")
    elif req.kind == "delta":
        basis = _basis_tuple(out["basis"])
        checker.basis(basis, inst)
        kind, _ = checker.delta_report(_report_tuple(out["report"]), basis, inst)
        adm = out["admissible"]
        checker.delta_set(adm["isolated"], adm["threshold"], (kind, basis[2], basis[3]))
    elif req.kind == "delta --basis":
        checker.basis(_basis_tuple(out), inst)
    elif req.kind == "delta --set":
        checker.delta_set(out["isolated"], out["threshold"], checker.delta_truth(inst))
    elif req.kind == "delta --solve":
        checker.delta_sample(_rf(out["solution"]), req.arg, inst)
    elif req.kind == "kappa":
        checker.kappa_report(*_kappa_entries(out), inst)
    elif req.kind == "kappa --min":
        checker.kappa_minimum(out["minimal_kappa"], [_rf(s) for s in out["minimal_solutions"]], inst)
    elif req.kind == "kappa --solve":
        checker.kappa_solution(_rf(out["solution"]), req.arg, inst, "kappa sample")
    elif req.kind == "hermite-d":
        if out["solvable"] != (out["solution"] is not None):
            raise CheckFailed("hermite-d: solvable flag contradicts the solution")
        checker.hermite(req.arg, _rf(out["solution"]), inst)
    else:
        raise CheckFailed(f"no check for {req.kind!r}")


def _check_library(req: Request, checker: Checker) -> None:
    res = req.result
    if isinstance(res, Exception):
        raise CheckFailed(f"{req.kind} raised {type(res).__name__}: {res}")
    inst = req.inst
    if req.kind == "minimal_delta_solutions":
        basis = _basis_tuple(res.basis)
        checker.basis(basis, inst)
        kind, _ = checker.delta_report(_report_tuple(res), basis, inst)
        req.session["report"] = res
        req.session["truth"] = (kind, basis[2], basis[3])
    elif req.kind == "admissible_delta_set":
        truth = req.session.get("truth") or checker.delta_truth(inst)
        checker.delta_set(res.isolated, res.threshold, truth)
    elif req.kind == "admissible_kappa":
        checker.kappa_report(*_kappa_entries(res), inst)
    elif req.kind == "hermite_rational":
        checker.hermite(req.arg, _rf(res), inst)
    elif req.kind == "sample_solution_of_delta":
        checker.delta_sample(_rf(res), req.arg, inst)
    elif req.kind == "sample_solution_of_kappa":
        checker.kappa_solution(_rf(res), req.arg, inst, "kappa sample")
    elif req.kind == "extended_euclid":
        checker.trace([tuple(p.coeffs for p in row) for row in res.rows],
                      [q.coeffs for q in res.quotients], inst)
    elif req.kind == "mu_basis":
        line = lambda m: (m.ct0.coeffs, m.ct1.coeffs, m.c1.coeffs)  # noqa: E731
        checker.mu_basis(res.mu, line(res.low), line(res.high), inst)
    else:
        raise CheckFailed(f"no check for {req.kind!r}")
