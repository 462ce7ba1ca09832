import random
import sys
from fractions import Fraction

import pytest

from ratinterp import NEG_INF, ONE, X, ZERO, Poly, gcd, monomial
from ratinterp.exactpoly import _rational_str, as_fraction

from conftest import P, random_poly


class TestArithmetic:
    def test_add_cancels_leading_terms(self):
        assert P(1, 1) + P(0, -1) == ONE

    def test_add_identity(self):
        p = P(3, 0, "1/2")
        assert ZERO + p == p

    def test_add_disjoint_supports(self):
        assert P(0, 0, 1) + P(0, 1) == P(0, 1, 1)

    def test_mul_monomials(self):
        assert X * X == P(0, 0, 1)

    def test_mul_absorbs_zero(self):
        assert ZERO * P(1, 2, 3) == ZERO

    def test_mul_node_factors(self):
        # (x - 2)(x + 1)^2 * x
        product = P(-2, 1) * P(1, 1) ** 2 * X
        assert product == P(0, -2, -3, 0, 1)

    def test_pow(self):
        assert P(1, 1) ** 3 == P(1, 3, 3, 1)
        assert P(5, 1) ** 0 == ONE

    def test_scalar_coercion(self):
        assert 2 * X + 1 == P(1, 2)
        assert X - Fraction(1, 2) == P("-1/2", 1)


class TestDivision:
    def test_quartic_by_cubic(self):
        q, r = P(0, -2, -3, 0, 1).div_rem(P(-2, 0, 0, 1))
        assert q == X
        assert r == P(0, 0, -3)

    def test_cubic_by_quadratic(self):
        q, r = P(-2, 0, 0, 1).div_rem(P(0, 0, -3))
        assert q == P(0, "-1/3")
        assert r == P(-2)

    def test_division_by_one(self):
        p = P(7, 0, -1)
        assert p.div_rem(ONE) == (p, ZERO)

    def test_zero_divisor(self):
        with pytest.raises(ZeroDivisionError):
            P(1, 1).div_rem(ZERO)

    def test_reconstruction_property(self):
        rng = random.Random(7)
        for _ in range(200):
            p = random_poly(rng, rng.randint(0, 8))
            d = random_poly(rng, rng.randint(0, 5))
            q, r = p.div_rem(d)
            assert p == q * d + r
            assert r.degree < d.degree


class TestEvalAndDerivative:
    def test_eval(self):
        cubic = P(-2, 0, 0, 1)
        assert cubic(0) == -2
        assert cubic(2) == 6
        assert ZERO(Fraction(22, 7)) == 0

    def test_derivative_power_rule(self):
        assert P(-2, 0, 0, 1).derivative() == P(0, 0, 3)

    def test_derivative_value(self):
        assert P(-2, 0, 0, 1).derivative()(-1) == 3

    def test_derivative_of_constant(self):
        assert P(9).derivative() == ZERO

    def test_higher_orders(self):
        p = P(1, 1, 1, 1)
        assert p.derivative(0) == p
        assert p.derivative(2) == P(2, 6)
        assert p.derivative(5) == ZERO
        with pytest.raises(ValueError):
            p.derivative(-1)

    def test_leibniz_property(self):
        rng = random.Random(11)
        for _ in range(100):
            p = random_poly(rng, rng.randint(0, 5))
            q = random_poly(rng, rng.randint(0, 5))
            x = Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3)))
            lhs = (p * q).derivative()(x)
            rhs = (p.derivative() * q + p * q.derivative())(x)
            assert lhs == rhs


class TestGcd:
    def test_shared_linear_factor(self):
        assert gcd(P(0, 0, -3), P(0, -1)) == X

    def test_coprime_with_unit(self):
        assert gcd(P(-2, 0, 0, 1), ONE) == ONE

    def test_equal_inputs_monic(self):
        assert gcd(P(4, 0, -1), P(4, 0, -1)) == P(-4, 0, 1)

    def test_gcd_of_zeros_is_an_error(self):
        with pytest.raises(ValueError):
            gcd(ZERO, ZERO)

    def test_divides_both_and_monic(self):
        rng = random.Random(13)
        for _ in range(100):
            common = random_poly(rng, rng.randint(0, 3))
            p = common * random_poly(rng, rng.randint(0, 3))
            q = common * random_poly(rng, rng.randint(0, 3))
            if p.is_zero and q.is_zero:
                continue
            d = gcd(p, q)
            assert d.leading == 1
            assert p.div_rem(d)[1].is_zero
            assert q.div_rem(d)[1].is_zero


class TestDegreeConventions:
    def test_zero_degree_sentinel(self):
        assert ZERO.degree == NEG_INF
        assert NEG_INF < -(10**18)
        assert NEG_INF + 5 == NEG_INF

    def test_product_degree_identity(self):
        rng = random.Random(17)
        for _ in range(100):
            p = random_poly(rng, rng.randint(-1, 5))
            q = random_poly(rng, rng.randint(-1, 5))
            assert (p * q).degree == p.degree + q.degree

    def test_monic(self):
        assert P(2, 4).monic() == P("1/2", 1)
        assert ZERO.monic() == ZERO

    def test_monomial(self):
        assert monomial(3) == P(0, 0, 0, 1)
        assert monomial(0, "2/3") == P("2/3")
        with pytest.raises(ValueError):
            monomial(-1)


class TestFormatting:
    def test_str_descending(self):
        assert str(P(0, -2, -3, 0, 1)) == "x^4 - 3*x^2 - 2*x"
        assert str(P(1, 0, "-1/3")) == "-1/3*x^2 + 1"
        assert str(ZERO) == "0"
        assert str(ONE) == "1"
        assert str(P(0, -1)) == "-x"

    def test_json_round_trip(self):
        rng = random.Random(19)
        for _ in range(50):
            p = random_poly(rng, rng.randint(-1, 6)) * Fraction(1, rng.randint(1, 5))
            assert Poly.from_json(p.to_json()) == p

    def test_json_accepts_ints_and_strings(self):
        assert Poly.from_json([0, "-2", 0, "-3"]) == P(0, -2, 0, -3)

    def test_json_rejects_bad_input(self):
        with pytest.raises(ValueError):
            Poly.from_json("nope")
        with pytest.raises(ValueError):
            Poly.from_json(["1/0"])
        with pytest.raises(ValueError):
            Poly.from_json([1, True])
        with pytest.raises(ValueError):
            Poly.from_json(["1e3"])

    def test_huge_integers_print_in_full(self):
        """Output passes the interpreter's int-to-str digit limit; parsing keeps it."""
        big = -(7**12000)  # 10,142 digits
        values = [Fraction(big), Fraction(1, 10**5000), Fraction(big, 10**4999 + 1), Fraction(3, 7)]
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            expected = [str(c) for c in values]
        finally:
            sys.set_int_max_str_digits(limit)
        assert [_rational_str(c) for c in values] == expected
        p = Poly(values)
        assert p.to_json() == expected
        assert repr(p) == f"Poly({expected!r})"
        assert p.format() == f"3/7*x^3 - {expected[2][1:]}*x^2 + {expected[1]}*x - {expected[0][1:]}"
        with pytest.raises(ValueError):
            Poly.from_json([expected[0]])

    def test_hash_and_eq(self):
        assert hash(P(1, 2)) == hash(P(1, 2, 0))
        assert P(3) == 3
        assert P(0, 1) != 1


class TestRationalGrammar:
    """as_fraction is the one reader of outside scalars, for the constructors and JSON alike."""

    @pytest.mark.parametrize(
        "value, expected",
        [(Fraction(-3, 7), Fraction(-3, 7)), (5, Fraction(5)), ("-12", Fraction(-12)),
         ("6/4", Fraction(3, 2)), ("-0/5", Fraction(0))],
    )
    def test_accepted(self, value, expected):
        assert as_fraction(value) == expected

    @pytest.mark.parametrize(
        "bad", [True, False, 1.5, 2.0, None, [1], "0.5", "1e3", "1e3000", " 2 ", "+3", "2.5", "1/0", "", "1/-2"]
    )
    def test_rejected_everywhere(self, bad):
        for build in (as_fraction, lambda v: Poly([1, v]), lambda v: monomial(2, v), lambda v: P(0, 1)(v)):
            with pytest.raises(ValueError):
                build(bad)

    def test_zero_denominator_message(self):
        with pytest.raises(ValueError, match="zero denominator"):
            Poly(["1/0"])
        with pytest.raises(ValueError, match='expected an integer or a "p/q" string'):
            Poly([1.5])
