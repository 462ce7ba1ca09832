"""Tests of the benchmark itself: expected answers, checks, tracing determinism.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

from __future__ import annotations

import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import generate as gen  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402
from check import Checker, CheckFailed  # noqa: E402
from ratinterp import oracle  # noqa: E402


def test_expected_table_matches_oracle():
    """The answers the generator records agree with brute-force linear algebra (n <= 7)."""
    rng = random.Random(1)
    for n in range(3, 8):
        for inst in (gen.make_instance(rng, "zero", n), gen.make_instance(rng, "plant", n)):
            _agrees_with_oracle(inst)


def _agrees_with_oracle(inst: gen.Instance) -> None:
    exp = inst.expected
    data = Checker.data(inst)
    mu1 = oracle.min_degree_weak_pair(data)
    assert (mu1, inst.n - mu1) == exp["mu"]
    assert exp["minimal_delta"] == mu1
    (pair,) = oracle.weak_pairs_upto(data, mu1, mu1)
    assert all(pair[1](x) != 0 for x in data.nodes)  # UNIQUE: the pair interpolates
    kappas = sorted(oracle.kappa_values_below_n(data))
    low, bound = exp["kappa_below"]
    assert [k for k in kappas if k < bound] == [low] == [exp["minimal_kappa"]]
    a, b = exp["solution"]
    lo, hi = exp["hermite_range"]
    for d in range(lo, hi + 1):  # every weak pair of the split is a multiple of (a, b)
        for na, nb in oracle.weak_pairs_upto(data, d, inst.n - d - 1):
            assert gen.poly_mul(na.coeffs, b) == gen.poly_mul(nb.coeffs, a)


def test_planted_values_are_samples_of_the_fraction():
    rng = random.Random(5)
    inst = gen.planted(rng, 9, 2, 1, derivative_every=1)
    a, b = inst.expected["solution"]
    Checker(0).interpolant((a, b), inst, "planted")


def test_every_cli_mix_request_passes_its_check():
    """One whole deck at the seed: the library answers and exit codes are right."""
    checker = Checker(3)
    reqs = wl.deck("cli-mix", 3, 0, set())
    exits = {}
    for req in reqs:
        wl.execute(req)
        wl.check(req, checker)
        exits[req.expect_exit] = exits.get(req.expect_exit, 0) + 1
    share = (exits.get(1, 0) + exits.get(2, 0)) / len(reqs)
    assert 0.04 <= share <= 0.09
    assert len({r.inst.key() for r in reqs}) == len(reqs)


def _answered(kind: str, seed: int = 4):
    for req in wl.deck("cli-mix", seed, 0, set()):
        if req.kind == kind and req.inst.family == "int":
            wl.execute(req)
            return req
    raise AssertionError(kind)


def test_checks_reject_wrong_answers():
    checker = Checker(1)
    req = _answered("delta")
    code, text = req.result
    req.result = (code, text.replace('"numer": [', '"numer": ["1", ', 1))
    with pytest.raises(CheckFailed):
        wl.check(req, checker)
    req.result = (1, text)
    with pytest.raises(CheckFailed):
        wl.check(req, checker)
    req = _answered("eea")
    code, text = req.result
    req.result = (code, text.replace('"quotients": [\n    [\n      "', '"quotients": [\n    [\n      "7', 1))
    with pytest.raises(CheckFailed):
        wl.check(req, checker)


def test_checks_raise_under_optimize():
    """Checks raise, not assert, so they hold under python -O."""
    script = (
        "import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
        "import random, generate as gen\n"
        "from check import Checker, CheckFailed\n"
        "inst = gen.planted(random.Random(1), 7, 1, 1)\n"
        "a, b = inst.expected['solution']\n"
        "try:\n"
        "    Checker(0).interpolant((a + (1,), b), inst, 'x')\n"
        "except CheckFailed:\n"
        "    raise SystemExit(0)\n"
        "raise SystemExit(1)\n"
    )
    done = subprocess.run([sys.executable, "-O", "-c", script, str(BENCH.parent / "src"), str(BENCH)],
                          timeout=60)
    assert done.returncode == 0


def test_a_failed_request_is_counted_and_the_run_goes_on():
    checker = Checker(1)
    req = _answered("kappa")
    req.expect_exit = 2
    timed = run.Pass()
    timed.run(req, checker, lambda r: 0.001, wl.check)
    assert len(timed.failures) == 1 and timed.latencies == [0.001]


def _traced(workload: str, seed: int, count: int):
    reqs = wl.deck(workload, seed, 0, set())[:count]
    return run.trace_requests(wl, reqs, Checker(seed))


COUNTS = ("eea.runs_per_request", "exactpoly.gcd.calls", "eea.max_coeff_bits", "eea.trace_len",
          "hermite.canon.calls", "exactpoly.mul.calls", "exactpoly.div_rem.calls")


def test_traced_counts_repeat_for_a_seed_and_instances_change_with_it():
    first = _traced("cli-mix", 7, 60)
    again = _traced("cli-mix", 7, 60)
    assert first.failures == [] and again.failures == []
    for name in COUNTS:
        assert first.metrics[name] == again.metrics[name], name
    assert first.report["per_request"] == again.report["per_request"]
    keys = lambda s: [r.inst.key() for r in wl.deck("cli-mix", s, 0, set())]  # noqa: E731
    assert keys(7) != keys(8)


def test_traced_counts_match_the_seed_code():
    large = _traced("large-trace", 2, 4)
    assert large.metrics["hermite.canon.calls"][0] == 0
    assert large.metrics["exactpoly.gcd.calls"][0] == 0
    assert large.metrics["eea.runs_per_request"][0] == 1
    cli = _traced("cli-mix", 2, 100)
    for kind, runs in cli.report["eea_runs_by_kind"].items():
        if kind.startswith("delta [") and "zero" not in kind:
            assert runs == [3], kind
    recover = _traced("recover", 2, 8)
    assert all(r["max_quotient_degree"] > 1 for r in recover.report["per_request"])


def test_taylor_check_sees_derivatives():
    inst = gen.Instance("rep", ((Fraction(0), (Fraction(1), Fraction(2))),))
    checker = Checker(0)
    checker.weak((Fraction(1), Fraction(2)), (Fraction(1),), inst, "ok")
    with pytest.raises(CheckFailed):
        checker.weak((Fraction(1), Fraction(3)), (Fraction(1),), inst, "bad")
