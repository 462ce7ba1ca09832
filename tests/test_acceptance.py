"""Acceptance suite: one test per criterion, zero tolerance everywhere.

Every assertion is exact rational equality.  Each test prints a single
PASS line on success (run with ``pytest -s`` to see them); a failure
surfaces through pytest as usual.

Some table entries for the six-node instance are easy to mis-transcribe,
so criteria 2 and 4 do double duty: they assert the recurrence-forced
values (r3 = -14, s3 = -x^4 + 10x^2 - 23, witness 14/(x^4 - 10x^2 + 23))
and additionally prove in-line that the tempting alternatives (-4,
-x^4 + 2x^2 - 3, 4/(x^4 - 2x^2 + 3)) contradict the quotient list or
fail to interpolate at all.  Criterion 6 pins the quartic-curve trace
the same way.
"""

import random

from ratinterp import (
    DenominatorVanishesAtNode,
    MovingLine,
    ONE,
    PlaneParametrization,
    RationalFunction,
    ZERO,
    admissible_delta_set,
    admissible_kappa,
    check_interpolates,
    critical_indices,
    decompose,
    evaluate_parametrization,
    extended_euclid,
    hermite_rational,
    minimal_basis,
    monomial,
    mu_basis,
    weak_cofactor,
)
from ratinterp.oracle import (
    kappa_values_below_n,
    min_degree_weak_pair,
    min_mu_oracle,
    weak_pairs_upto,
)

from conftest import (
    DATA_FOUR,
    DATA_GENERIC4,
    DATA_SIX_EVEN,
    P,
    coprimality_for_free_check,
    full_trace_check,
    interp_trace,
    random_data,
    random_param,
    row_sum,
)
from fractions import Fraction as F


def _report(number: int, detail: str) -> None:
    print(f"\n[acceptance] criterion {number}: PASS  ({detail})")


def test_criterion_1_four_point_table():
    trace = interp_trace(DATA_FOUR)
    assert trace.N == 3
    assert trace.r(1) == P(-2, 0, 0, 1)
    assert trace.r(2) == P(0, 0, -3)
    assert trace.r(3) == P(-2)
    assert [trace.s(i) for i in range(4)] == [ZERO, ONE, P(0, -1), P(1, 0, "-1/3")]
    assert list(trace.quotients) == [P(0, 1), P(0, "-1/3"), P(0, 0, "3/2")]
    _report(1, "four-point trace bit-exact: N=3, r, s, q")


def test_criterion_2_six_even_table_and_basis():
    trace = interp_trace(DATA_SIX_EVEN)
    assert trace.r(2) == P(4, 0, -1)
    quotients = [P(-4, 0, 1), P(6, 0, -1), P("-2/7", 0, "1/14")]
    assert list(trace.quotients) == quotients  # q3 == (x^2 - 4)/14

    # the recurrence forces r3 and s3; the tempting values r3 = -4 and
    # s3 = -x^4 + 2x^2 - 3 contradict the very quotient list above
    assert trace.r(1) == trace.q(2) * trace.r(2) + trace.r(3)
    assert trace.r(3) == P(-14)
    assert trace.s(3) == P(-23, 0, 10, 0, -1)
    assert quotients[2] * P(-14) == trace.r(2)       # q3 * r3 reproduces r2 ...
    assert quotients[2] * P(-4) != trace.r(2)        # ... which r3 = -4 cannot
    assert trace.s(1) - trace.q(2) * trace.s(2) != P(-3, 0, 2, 0, -1)

    basis = minimal_basis(DATA_SIX_EVEN)
    assert (basis.mu1, basis.mu2) == (2, 4)
    assert critical_indices(trace) == (1, 2)
    degree_set = admissible_delta_set(DATA_SIX_EVEN)
    assert (degree_set.isolated, degree_set.threshold) == (None, 4)
    _report(2, "six-node trace, mu split 2+4, indices {1,2}, set {delta>=4}; "
               "r3/s3 at their recurrence-forced values")


def test_criterion_3_four_point_family():
    report_basis = minimal_basis(DATA_FOUR)
    assert admissible_delta_set(DATA_FOUR).threshold == 2
    rejected = []
    for lam in (0, 1, 2, -1, F(-1, 6), F(-2, 3), F(1, 6), -2, 5):
        try:
            member = evaluate_parametrization(report_basis, P(lam), ONE, DATA_FOUR)
        except DenominatorVanishesAtNode:
            rejected.append(lam)
            continue
        assert check_interpolates(member, DATA_FOUR)
        assert member.delta_degree == 2
    assert rejected == [F(-1, 6), F(-2, 3)]
    _report(3, "minimal delta 2; family rejects exactly lambda in {-1/6, -2/3}")


def test_criterion_4_kappa_results():
    # four-point instance
    four = admissible_kappa(DATA_FOUR)
    assert four.minimal_kappa == 2
    assert four.minimal_solutions == (RationalFunction(P(6), P(-3, 0, 1)),)

    # six-node instance: both minimal witnesses; the near-miss
    # 4/(x^4 - 2x^2 + 3) is not an interpolant at all
    six = admissible_kappa(DATA_SIX_EVEN)
    assert six.minimal_kappa == 4
    corrected = RationalFunction(P(14), P(23, 0, -10, 0, 1))
    assert six.minimal_solutions == (
        RationalFunction(P(10, 0, -10, 0, 1), ONE),
        corrected,
    )
    assert check_interpolates(corrected, DATA_SIX_EVEN)
    near_miss = RationalFunction(P(4), P(3, 0, -2, 0, 1))
    assert not check_interpolates(near_miss, DATA_SIX_EVEN)
    assert kappa_values_below_n(DATA_SIX_EVEN) == {4}  # independent confirmation

    # generic four-point instance: table plus the lambda-family exclusions
    trace = interp_trace(DATA_GENERIC4)
    assert trace.N == 4
    assert [trace.r(i) for i in range(5)] == [
        P(0, 2, -1, -2, 1),
        P(-2, 0, 0, 1),
        P(-4, 4, -1),
        P(-18, 12),
        P("-1/4"),
    ]
    assert [trace.s(i) for i in range(4)] == [ZERO, ONE, P(2, -1), P(9, -2, -1)]
    # s4 as forced by s2 - q3*s3 (note the cubic term: dropping it is a
    # classic slip here)
    assert trace.s(4) == trace.s(2) - trace.q(3) * trace.s(3)
    assert trace.s(4) == P("1/8", "1/6", "1/24", "-1/12")

    basis = minimal_basis(DATA_GENERIC4)
    assert basis.pair1 == (P(-4, 4, -1), P(2, -1))
    assert basis.pair2 == (P(-18, 12), P(9, -2, -1))
    rejected = []
    for lam in (0, 1, -1, 2, F(-10, 3), F(-9, 2), -6, 3, F(1, 2)):
        try:
            member = evaluate_parametrization(basis, P(lam), ONE, DATA_GENERIC4)
        except DenominatorVanishesAtNode:
            rejected.append(lam)
            continue
        assert check_interpolates(member, DATA_GENERIC4)
        assert member.delta_degree == 2
    assert rejected == [F(-10, 3), F(-9, 2), -6]
    assert admissible_kappa(DATA_GENERIC4).minimal_kappa == 3
    _report(4, "kappa minima 2 / 4 / 3 with exact witnesses; generic family "
               "rejects exactly {-10/3, -9/2, -6}")


def test_criterion_5_prescribed_split():
    assert hermite_rational(DATA_FOUR, 2) is None
    assert hermite_rational(DATA_FOUR, 3) == RationalFunction(P(-2, 0, 0, 1), ONE)
    assert hermite_rational(DATA_SIX_EVEN, 2) is None
    assert hermite_rational(DATA_SIX_EVEN, 3) is None
    _report(5, "split d=2 unsolvable / d=3 -> x^3 - 2; six-node d=2,3 unsolvable")


def test_criterion_6_mu_bases():
    curve = PlaneParametrization(P(0, 0, 6, 0, -4), P(0, 4, 0, -4))
    basis = mu_basis(curve)
    assert basis.mu == 2
    assert basis.low == MovingLine(ONE, P(0, -1), P(0, 0, -2))        # T0 - x*T1 - 2x^2
    assert basis.high == MovingLine(P(0, 2), P(1, 0, -2), P(0, -4))   # 2x*T0 + (1-2x^2)*T1 - 4x
    # the trace's second row is the curve's second coordinate itself;
    # anything else (say -4x^3 + x) breaks the recurrence against r2 = 2x^2
    trace = extended_euclid(curve.r0, curve.r1)
    assert trace.r(0) == trace.q(1) * trace.r(1) + trace.r(2)
    assert trace.r(2) == P(0, 0, 2)

    for n, m in ((5, 2), (7, 3), (6, 3)):
        param = PlaneParametrization(monomial(n), monomial(m))
        mono = mu_basis(param)
        assert mono.mu == min(m, n - m)
        lines = {mono.low, mono.high}
        assert lines == {
            MovingLine(ZERO, ONE, -monomial(m)),
            MovingLine(ONE, -monomial(n - m), ZERO),
        }
    _report(6, "quartic curve mu=2 with the stated basis; monomial curves "
               "mu = min(m, n-m) with the stated shape")


def test_criterion_7_oracle_equivalence():
    rng = random.Random(20240)
    instances = [random_data(rng, max_n=7) for _ in range(200)]
    for data in instances:
        basis = minimal_basis(data)
        # (a) brute-force minimal degree equals mu1
        assert min_degree_weak_pair(data) == basis.mu1
        # (b) dimension formula at every delta <= n
        for delta in range(data.n + 1):
            expected = max(0, delta + 1 - basis.mu1) + max(0, delta + 1 - basis.mu2)
            assert len(weak_pairs_upto(data, delta, delta)) == expected
        # (c) exhaustive degree sums below n
        report = admissible_kappa(data)
        assert {e.kappa for e in report.isolated} == kappa_values_below_n(data)

    params = [random_param(rng, max_n=8) for _ in range(100)]
    for param in params:
        # (d) brute-force minimal moving-line degree
        assert min_mu_oracle(param) == mu_basis(param).mu
    _report(7, "200 instances: min delta, dimension formula, exhaustive kappa; "
               "100 parametrizations: min mu -- all exact")


def test_criterion_8_invariant_batteries():
    rng = random.Random(20241)
    corpus = [DATA_FOUR, DATA_SIX_EVEN, DATA_GENERIC4]
    corpus += [random_data(rng, max_n=7) for _ in range(40)]
    checked = 0
    for data in corpus:
        from ratinterp import hermite_polynomial

        if hermite_polynomial(data).is_zero:
            continue
        trace = interp_trace(data)
        # degree identities, row identity, unimodularity, minor identities,
        # weak-pair rows, decomposition round trip
        full_trace_check(trace, data, rng=rng)
        basis = minimal_basis(data)
        assert basis.mu1 + basis.mu2 == data.n
        # a row is coprime exactly when its s passes the node test
        coprimality_for_free_check(data)
        # uniqueness round trip on one more targeted decomposition
        c = weak_cofactor(trace.r(1), trace.s(1), data)
        dec = decompose(trace.r(1), trace.s(1), c, trace)
        assert row_sum(dec.m, trace) == (trace.r(1), trace.s(1), c)
        checked += 1
    for _ in range(25):
        param = random_param(rng, max_n=7)
        if not param.r1.is_zero:
            full_trace_check(extended_euclid(param.r0, param.r1), rng=rng)
    _report(8, f"full invariant battery over {checked} interpolation traces "
               "and 25 parametrization traces")
