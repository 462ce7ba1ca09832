import random
import sys
from fractions import Fraction

import pytest

from ratinterp import (
    DegreeTie,
    NotASyzygy,
    ONE,
    X,
    ZERO,
    ZeroSecondInput,
    decompose,
    extended_euclid,
)
from ratinterp.eea import PAD_WIDTH, Decomposition

from conftest import (
    P,
    full_trace_check,
    integer_node_data,
    interp_trace,
    planted_data,
    random_data,
    random_param,
    random_poly,
    rational_node_data,
    reference_euclid,
    repeated_node_data,
    row_sum,
)
from ratinterp import Poly, hermite_polynomial, nodal_poly


class TestFourPointTrace:
    """The degree-4 instance with one double node, traced exactly."""

    def trace(self):
        return extended_euclid(P(0, -2, -3, 0, 1), P(-2, 0, 0, 1))

    def test_length(self):
        assert self.trace().N == 3

    def test_remainders(self):
        tr = self.trace()
        assert [tr.r(i) for i in range(5)] == [
            P(0, -2, -3, 0, 1),
            P(-2, 0, 0, 1),
            P(0, 0, -3),
            P(-2),
            ZERO,
        ]

    def test_cofactors(self):
        tr = self.trace()
        assert [tr.s(i) for i in range(4)] == [ZERO, ONE, P(0, -1), P(1, 0, "-1/3")]
        assert [tr.t(i) for i in range(4)] == [ONE, ZERO, ONE, P(0, "1/3")]

    def test_quotients(self):
        assert list(self.trace().quotients) == [X, P(0, "-1/3"), P(0, 0, "3/2")]

    def test_invariants(self):
        full_trace_check(self.trace())


class TestSixEvenTrace:
    def test_rows_and_quotients(self, data_six_even):
        tr = interp_trace(data_six_even)
        assert tr.N == 3
        assert tr.r(2) == P(4, 0, -1)
        # forced by the recurrence: reducing g = x^4 - 10x^2 + 10 modulo
        # -x^2 + 4 substitutes x^2 = 4, giving 16 - 40 + 10
        assert tr.r(3) == P(-14)
        assert tr.s(2) == P(4, 0, -1)
        assert tr.s(3) == P(-23, 0, 10, 0, -1)
        assert list(tr.quotients) == [P(-4, 0, 1), P(6, 0, -1), P("-2/7", 0, "1/14")]

    def test_invariants(self, data_six_even):
        full_trace_check(interp_trace(data_six_even), data_six_even)


class TestSmallTraces:
    def test_exact_division_stops_immediately(self):
        tr = extended_euclid(P(0, 0, 1), X)
        assert tr.N == 1
        assert list(tr.quotients) == [X]
        assert tr.r(2) == ZERO
        full_trace_check(tr)

    def test_equal_degrees_allowed(self):
        tr = extended_euclid(P(1, 0, 1), P(0, 0, 1))
        assert tr.q(1) == ONE
        assert tr.r(2) == ONE
        full_trace_check(tr)

    def test_zero_second_input(self):
        with pytest.raises(ZeroSecondInput):
            extended_euclid(X, ZERO)

    def test_order_violations(self):
        with pytest.raises(ValueError):
            extended_euclid(X, P(0, 0, 1))
        with pytest.raises(ZeroSecondInput):
            extended_euclid(ZERO, ZERO)
        with pytest.raises(ValueError):
            extended_euclid(ZERO, ONE)

    def test_quotient_degrees(self):
        rng = random.Random(41)
        for _ in range(40):
            d0 = rng.randint(1, 7)
            r0 = random_poly(rng, d0)
            r1 = random_poly(rng, rng.randint(0, d0))
            tr = extended_euclid(r0, r1)
            for i in range(2, tr.N + 1):
                assert tr.q(i).degree >= 1
            if r0.degree > r1.degree:
                assert tr.q(1).degree >= 1
            full_trace_check(tr)


class TestTextTable:
    def test_wide_t_column_prints_unpadded(self):
        tr = extended_euclid(P(0, 3, 10, 7), P(-6, 4, -6, 9))
        rows = tr.full_rows()
        width = [max(len(str(row[c])) for row in rows) for c in range(3)]
        assert max(width[:2]) <= PAD_WIDTH < width[2]
        lines = str(tr).splitlines()
        assert lines[1].split("  ")[4] == "---"  # the rule of t_i is as wide as its header
        for i, (r, s, t) in enumerate(rows):
            q = str(tr.q(i)) if 1 <= i <= tr.N else ""
            cells = [str(i), f"{r.degree:<7}", str(r).ljust(width[0]), str(s).ljust(width[1]), str(t), q]
            assert lines[i + 2] == "  ".join(cells).rstrip()  # s_i is padded, t_i is not


class TestDecompose:
    def test_basis_rows_are_units(self, data_four):
        tr = interp_trace(data_four)
        for i in (0, 1):
            dec = decompose(tr.r(i), tr.s(i), tr.t(i), tr)
            expected = [ZERO] * (tr.N + 2)
            expected[i] = ONE
            assert list(dec.m) == expected

    def test_round_trip_random_combinations(self, data_four):
        tr = interp_trace(data_four)
        rng = random.Random(43)
        for _ in range(50):
            m = [random_poly(rng, rng.randint(-1, 2))]
            for i in range(1, tr.N + 1):
                m.append(random_poly(rng, rng.randint(-1, tr.q(i).degree - 1)))
            m.append(random_poly(rng, rng.randint(-1, 2)))
            dec = Decomposition(tuple(m))
            a, b, c = row_sum(dec.m, tr)
            assert decompose(a, b, c, tr) == dec

    def test_rejects_non_syzygy(self, data_four):
        tr = interp_trace(data_four)
        with pytest.raises(NotASyzygy):
            decompose(ONE, ONE, ONE, tr)

    def test_rejects_degree_tie(self):
        tr = extended_euclid(P(1, 0, 1), P(0, 0, 1))
        with pytest.raises(DegreeTie):
            decompose(tr.r(0), tr.s(0), tr.t(0), tr)


class TestBasisPairs:
    def test_initial_rows(self, data_four):
        tr = interp_trace(data_four)
        first, second = tr.full_rows()[0:2]
        assert first == (tr.r(0), ZERO, ONE)
        assert second == (tr.r(1), ONE, ZERO)

    def test_four_point_pair_two(self, data_four):
        tr = interp_trace(data_four)
        first, second = tr.full_rows()[2:4]
        assert first == (P(0, 0, -3), P(0, -1), ONE)
        assert second == (P(-2), P(1, 0, "-1/3"), P(0, "1/3"))

    def test_returned_pair_is_unimodular(self, data_four):
        tr = interp_trace(data_four)
        for i in range(tr.N):
            (_, s0, t0), (_, s1, t1) = tr.full_rows()[i:i + 2]
            det = s0 * t1 - s1 * t0
            assert det == ONE or det == P(-1)


def assert_matches_reference(r0, r1):
    """extended_euclid equals the Fraction reference row by row and quotient by quotient."""
    trace = extended_euclid(r0, r1)
    ref_rows, ref_quotients = reference_euclid(r0.coeffs, r1.coeffs)
    assert trace.N == len(ref_quotients)
    for i, (row, ref_row) in enumerate(zip(trace.rows, ref_rows)):
        assert tuple(p.coeffs for p in row) == ref_row, i
    for i, (q, ref_q) in enumerate(zip(trace.quotients, ref_quotients), start=1):
        assert q.coeffs == ref_q, i
    trace.check_invariants()
    return trace


def remainder_degrees(trace):
    return [int(trace.r(i).degree) for i in range(trace.N + 1)]


class TestAgainstReference:
    """extended_euclid against the Fraction-tuple reference, and against sympy."""

    @pytest.mark.parametrize("family", [integer_node_data, repeated_node_data, rational_node_data])
    def test_seeded_instances(self, family):
        rng = random.Random(f"eea-{family.__name__}")
        for _ in range(25):
            data = family(rng, rng.randint(1, 16))
            g = hermite_polynomial(data)
            if not g.is_zero:
                assert_matches_reference(nodal_poly(data), g)

    def test_small_random_data(self):
        rng = random.Random(71)
        for _ in range(60):
            data = random_data(rng)
            g = hermite_polynomial(data)
            if not g.is_zero:
                assert_matches_reference(nodal_poly(data), g)

    def test_planted_abnormal_traces(self):
        rng = random.Random(72)
        for n in (24, 28, 32):
            num = random_poly(rng, 2)
            den = P(Fraction(2 * rng.randint(-6, 5) + 1, 2), 1) * P(rng.randint(1, 5), 0, 1)
            data = planted_data(rng, n, num, den)
            trace = assert_matches_reference(nodal_poly(data), hermite_polynomial(data))
            assert max(q.degree for q in trace.quotients) >= 10

    def test_parametrizations(self):
        rng = random.Random(73)
        for _ in range(60):
            param = random_param(rng, max_n=14)
            if not param.r1.is_zero:
                assert_matches_reference(param.r0, param.r1)

    def test_equal_degrees_constant_first_quotient(self):
        rng = random.Random(74)
        for d in range(1, 12):
            trace = assert_matches_reference(random_poly(rng, d), random_poly(rng, d))
            assert trace.q(1).degree == 0

    def test_constant_second_input(self):
        trace = assert_matches_reference(P(3, -1, 0, "2/3"), P("-5/7"))
        assert trace.N == 1

    def test_second_input_divides_first(self):
        r1 = P(1, 2, "-3/4")
        trace = assert_matches_reference(r1 * P(-2, 0, 5, 1), r1)
        assert trace.N == 1 and trace.r(2).is_zero

    def test_negative_and_rational_leading_coefficients(self):
        rng = random.Random(75)
        for _ in range(30):
            d0 = rng.randint(1, 10)
            lead0 = Fraction(rng.choice((-7, -3, -1, 2, 5)), rng.choice((1, 3, 4)))
            lead1 = Fraction(rng.choice((-5, -2, 1, 3)), rng.choice((1, 2, 9)))
            r0 = Poly([Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(d0)] + [lead0])
            d1 = rng.randint(0, d0)
            r1 = Poly([Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(d1)] + [lead1])
            assert_matches_reference(r0, r1)

    def test_coefficients_past_the_int_to_str_limit(self):
        huge = 10 ** sys.get_int_max_str_digits() + 7
        assert_matches_reference(P(huge, 1, 0, -huge, 3), P(Fraction(1, huge), huge, 2))
        assert_matches_reference(P(1, 1, 0, 1), P(1, 0, huge))

    def test_remainder_degrees_match_sympy(self):
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")

        def expr(p):
            return sum(sympy.Rational(c.numerator, c.denominator) * x**k for k, c in enumerate(p.coeffs))

        rng = random.Random(76)
        cases = [(nodal_poly(d), hermite_polynomial(d))
                 for d in (integer_node_data(rng, 10), repeated_node_data(rng, 12), rational_node_data(rng, 9))]
        num, den = random_poly(rng, 2), P(1, 0, 1)
        planted = planted_data(rng, 24, num, den)
        cases.append((nodal_poly(planted), hermite_polynomial(planted)))
        cases += [(p.r0, p.r1) for p in (random_param(rng, max_n=10) for _ in range(8)) if not p.r1.is_zero]
        cases.append((P(1, 0, 1), P(0, 0, 1)))
        for r0, r1 in cases:
            prs = sympy.subresultants(expr(r0), expr(r1), x)
            assert [sympy.degree(p, x) for p in prs] == remainder_degrees(extended_euclid(r0, r1))
