"""Certificates the solvers rely on in place of a generic gcd."""

import json
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from ratinterp import (
    DegreeNotAdmissible,
    DenominatorVanishesAtNode,
    InterpolationData,
    RationalFunction,
    admissible_delta_set,
    admissible_kappa,
    evaluate_parametrization,
    extended_euclid,
    hermite_rational,
    minimal_basis,
    minimal_delta_solutions,
    sample_solution_of_delta,
    sample_solution_of_kappa,
    yy_form,
)
from ratinterp.cli import main

from conftest import DATA_ALL_ZERO, DATA_SIX_EVEN, P, coprimality_for_free_check

SRC = Path(__file__).resolve().parents[1] / "src"

GUARDS = """
import sys
import ratinterp.deltasolver as ds
import ratinterp.eea as ea
from ratinterp import (
    CertificateError, EEATrace, InterpolationData, MinimalBasis, ONE, ZERO, X,
    PlaneParametrization, Poly, critical_indices, decompose, extended_euclid,
    hermite_polynomial, hermite_rational, minimal_delta_solutions, monomial, mu_basis, nodal_poly,
)

data = InterpolationData.from_pairs([(0, [-2]), (2, [6]), (-1, [-3, 3])])
f, g = nodal_poly(data), hermite_polynomial(data)
trace = extended_euclid(f, g)
basis = ds.minimal_basis(data)


def padded(r0, r1, **kw):
    # every row times x**5: the critical indices survive, the degree split does not
    real = extended_euclid(r0, r1, **kw)
    rows = tuple(tuple(monomial(5) * p for p in row) for row in real.rows)
    return EEATrace(rows=rows, quotients=real.quotients)


def raises(label, fn):
    try:
        fn()
    except CertificateError:
        return
    sys.exit(f"{label}: no CertificateError")


raises("MinimalBasis", lambda: MinimalBasis((ZERO, ONE), (f, ZERO), 5, 1, critical_index=0))
# b1 and b2 vanish at the node 0: every k is forbidden
raises("every k", lambda: ds._family_member(data, MinimalBasis((ONE, X), (monomial(2), monomial(2) - X), 1, 2, 0), 2))
# pair2 + x**(mu2 - mu1 + 1)*pair1 has degree mu2 + 1: its row degrees sum past n
shift = monomial(basis.mu2 - basis.mu1 + 1)
skew = tuple(q + shift * p for p, q in zip(basis.pair1, basis.pair2))
raises("member degree", lambda: ds._family_member(
    data, MinimalBasis(basis.pair1, skew, basis.mu1, basis.mu2, basis.critical_index), basis.mu2))
raises("critical_indices", lambda: critical_indices(EEATrace(rows=trace.rows[:2], quotients=())))
raises("decompose", lambda: decompose(X * g, X, ZERO, EEATrace(trace.rows, (ONE,) * trace.N)))
raises("check_invariants", EEATrace(trace.rows, (ONE,) * trace.N).check_invariants)
raises("check_invariants", EEATrace(trace.rows[:-1], trace.quotients).check_invariants)
# s_0 = 1 is no start row of the EEA, though these rows of (f, 0) satisfy the row identity and cross to (f, 0, 1)
raises("start rows", EEATrace(((f, ONE), (ZERO, ONE)), ()).check_invariants)
raises("start rows", EEATrace(((f, ONE, ONE), (ZERO, ONE, ZERO)), ()).check_invariants)
cut = extended_euclid(monomial(8) + ONE, Poly([1, 2, 3, 4, 5, 6, 7]), half=True, bound=ea.split_bound(8))
cut.check_invariants()
if cut.complete:
    sys.exit("the truncated trace runs to the zero remainder")
mutated = (cut.r(cut.N + 1) + X, cut.s(cut.N + 1))
raises("truncated check_invariants", EEATrace(cut.rows[:-1] + (mutated,), cut.quotients).check_invariants)
ea.extended_euclid = padded
raises("split", lambda: ds.minimal_basis(data))
ds.minimal_basis = lambda d: MinimalBasis(basis.pair1, basis.pair2, 1, 2, 2)
raises("family member", lambda: minimal_delta_solutions(data))
curve = PlaneParametrization(Poly([0, 0, 6, 0, -4]), Poly([0, 4, 0, -4]))
raises("mu_basis", lambda: mu_basis(curve))
# n = 4: at d = 3 = n - 1 no division runs, so the padded trace is never built
for d in range(3):
    raises(f"hermite_rational at d = {d}", lambda: hermite_rational(data, d))


def tampered(r0, r1, **kw):
    # s_i + 1 from row 1 on: every degree survives, the row identity does not
    real = extended_euclid(r0, r1, **kw)
    return EEATrace(real.rows[:1] + tuple((r, s + ONE) for r, s in real.rows[1:]), real.quotients)


raises("half t", lambda: tampered(f, g, half=True).t(2))
ea.extended_euclid = tampered
raises("mu_basis t", lambda: mu_basis(curve))
"""


def test_guards_raise_under_optimize():
    done = subprocess.run(
        [sys.executable, "-O", "-c", f"import sys; sys.path.insert(0, {str(SRC)!r})\n" + GUARDS],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr


def _instances(rng):
    """Integer, repeated and rational nodes, all-zero data, and a FAMILY
    instance whose member for k = 0 is forbidden at every delta >= mu2."""
    rational = sorted({Fraction(k, d) for k in range(-9, 10) for d in (1, 2, 3)})
    for _ in range(8):
        n = rng.randint(2, 8)
        nodes = rng.sample(range(-6, 7), n)
        yield InterpolationData.from_pairs([(x, [rng.randint(-4, 4)]) for x in nodes])
        yield InterpolationData.from_pairs(
            [(x, [rng.randint(-3, 3) for _ in range(rng.randint(1, 3))]) for x in nodes[:3]]
        )
        yield InterpolationData.from_pairs(
            [(x, [Fraction(rng.randint(-9, 9), rng.randint(1, 3))])
             for x in rng.sample(rational, n)]
        )
        yield InterpolationData.from_pairs([(x, [0] * rng.randint(1, 2)) for x in nodes[:3]])
    yield InterpolationData.from_pairs([(1, [2]), (-3, [2]), (0, [-1])])


# multiplier pairs sharing x^2 + 1, which has no rational root and so no node root
_H = P(1, 0, 1)
SHARED = [(_H * u, _H * v) for u, v in [(P(1), P(2)), (P(0, 1), P(1)), (P(1, 1), P(-3)), (P(2), _H)]]


def test_solver_fractions_match_the_generic_gcd():
    kinds = set()
    shared = 0
    for data in _instances(random.Random(41)):
        coprimality_for_free_check(data)
        n = data.n
        report = minimal_delta_solutions(data)
        kinds.add(report.kind if any(v for _, vs in data.points for v in vs) else "ZERO")
        fractions = [report.representative]
        kappa = admissible_kappa(data)
        fractions += [e.solution for e in kappa.isolated] + list(kappa.minimal_solutions)
        fractions += [rf for d in range(n) if (rf := hermite_rational(data, d)) is not None]
        mu2 = minimal_basis(data).mu2
        fractions += [sample_solution_of_delta(data, delta) for delta in range(mu2, mu2 + 3)]
        fractions += [sample_solution_of_kappa(data, k) for k in (n, n + 1, n + 2)]
        fractions += [sample_solution_of_kappa(data, e.kappa) for e in kappa.isolated]
        for p, q in SHARED:
            try:
                fractions.append(evaluate_parametrization(minimal_basis(data), p, q, data))
                shared += 1
            except DenominatorVanishesAtNode:
                pass
        for rf in fractions:
            assert rf == RationalFunction(rf.numer, rf.denom), (data, rf)
    assert kinds == {"UNIQUE", "FAMILY", "ZERO"}
    assert shared > 20


def test_each_query_runs_at_most_one_eea(monkeypatch, tmp_path, capsys):
    runs = []

    def counted(f, g, **kw):
        runs.append((f, g))
        return extended_euclid(f, g, **kw)

    monkeypatch.setattr("ratinterp.eea.extended_euclid", counted)
    data = DATA_SIX_EVEN  # FAMILY, mu1 = 2, mu2 = 4, n = 6
    path = tmp_path / "six.json"
    path.write_text(json.dumps(data.to_json_dict()))

    def count(query, *args) -> int:
        runs.clear()
        query(*args)
        return len(runs)

    assert count(sample_solution_of_kappa, data, data.n) == 0
    assert count(sample_solution_of_kappa, data, data.n + 1) == 0
    assert count(hermite_rational, data, data.n - 1) == 0  # its bound n lets no division run
    runs.clear()
    with pytest.raises(DegreeNotAdmissible, match="admissible: delta >= 4"):
        sample_solution_of_delta(data, 3)
    assert len(runs) == 1
    for argv in (["delta", "--solve", "5"], ["delta", "--set"]):
        assert count(main, [*argv, str(path)]) == 1, argv
    assert count(main, ["kappa", "--solve", "6", str(path)]) == 0
    capsys.readouterr()
    rf = minimal_delta_solutions(data).representative
    single = [(minimal_delta_solutions, data), (admissible_delta_set, data), (admissible_kappa, data),
              (yy_form, rf, data), *((hermite_rational, data, d) for d in range(data.n - 1))]
    for query, *args in single:
        assert count(query, *args) == 1, (query.__name__, args)

    zero = DATA_ALL_ZERO  # n = 3, the trivial trace
    queries = [(minimal_basis, zero), (minimal_delta_solutions, zero), (admissible_delta_set, zero),
               (admissible_kappa, zero), *((hermite_rational, zero, d) for d in range(zero.n)),
               *((sample_solution_of_delta, zero, delta) for delta in (0, 3, 4)),
               *((sample_solution_of_kappa, zero, kappa) for kappa in (0, 3, 4))]
    for query, *args in queries:
        assert count(query, *args) == 0, (query.__name__, args)
    runs.clear()
    assert yy_form(RationalFunction(P(0), P(1)), zero).m == (P(0), P(1))
    assert len(runs) == 0
