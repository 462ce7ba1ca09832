import ast
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ratinterp.exactpoly as exactpoly
from ratinterp import cli
from ratinterp import (
    NEG_INF, ONE, X, ZERO, DenominatorVanishesAtNode, InterpolationData, PlaneParametrization, Poly,
    RationalFunction, admissible_kappa, evaluate_parametrization, extended_euclid, gcd, hermite_polynomial,
    hermite_rational, minimal_basis, monomial, mu_basis, nodal_poly, sample_solution_of_delta,
    sample_solution_of_kappa,
)
from ratinterp.exactpoly import (
    _decimal_digits, _horner, _ratio_str, _rational_str, as_fraction, euclid_step, euclid_update, value_ratios,
)

from conftest import (
    DATA_FOUR, P, count_fractions, derivative, frac_add, frac_div_rem, frac_eval, frac_format, frac_mul, frac_neg,
    frac_trim, integer_node_data, interp_trace, random_poly, rational_node_data, repeated_node_data, unit_split,
)

CONSTANTS = st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=4))


def past_the_limit(make):
    """make() run with the int-to-str digit limit lifted, so str() prints at any length."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return make()
    finally:
        sys.set_int_max_str_digits(limit)


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
        product = P(-2, 1) * P(1, 1) * P(1, 1) * X
        assert product == P(0, -2, -3, 0, 1)

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

    @given(st.lists(CONSTANTS, max_size=6), CONSTANTS.filter(bool))
    def test_division_by_a_constant_scales_each_coefficient(self, cs, k):
        q, r = P(*cs).div_rem(P(k))
        assert q.coeffs == frac_trim(Fraction(c) / Fraction(k) for c in cs) and r == ZERO

    def test_reconstruction_property(self):
        rng = random.Random(7)
        for _ in range(200):
            p = random_poly(rng, rng.randint(0, 8))
            d = random_poly(rng, rng.randint(0, 5))
            q, r = p.div_rem(d)
            assert p == q * d + r
            assert r.degree < d.degree


class TestEvalAndDerivative:
    """Evaluation, and the conftest derivative helper that builds Hermite data, read off Poly.coeffs."""

    def test_eval(self):
        cubic = P(-2, 0, 0, 1)
        assert cubic(0) == -2
        assert cubic(2) == 6
        assert ZERO(Fraction(22, 7)) == 0

    def test_horner_at_an_integer_node_matches_the_general_path(self):
        """_horner's q == 1 loop against the general loop at the same point written p*k/k."""
        rng = random.Random(17)
        for _ in range(200):
            ints = [rng.randint(-10**30, 10**30) for _ in range(rng.randint(1, 12))]
            p, k = rng.randint(-50, 50), rng.randint(2, 9)
            d = len(ints) - 1
            acc, qpow = _horner(ints, p, 1)
            assert qpow == 1 and acc == frac_eval(ints, Fraction(p))
            assert _horner(ints, p * k, k) == (acc * k**d, k**d)

    def test_derivative_power_rule(self):
        assert derivative(P(-2, 0, 0, 1)) == P(0, 0, 3)

    def test_derivative_value(self):
        assert derivative(P(-2, 0, 0, 1))(-1) == 3

    def test_derivative_of_constant(self):
        assert derivative(P(9)) == ZERO

    def test_higher_orders(self):
        p = P(1, 1, 1, 1)
        assert derivative(p, 0) == p
        assert derivative(p, 2) == P(2, 6)
        assert derivative(p, 5) == ZERO
        with pytest.raises(ValueError):
            derivative(p, -1)

    def test_leibniz_property(self):
        rng = random.Random(11)
        for _ in range(100):
            p = random_poly(rng, rng.randint(0, 5))
            q = random_poly(rng, rng.randint(0, 5))
            x = Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3)))
            lhs = derivative(p * q)(x)
            rhs = (derivative(p) * q + p * derivative(q))(x)
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
            assert d.coeff(d.degree) == 1
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
            assert Poly(p.to_json()) == p

    def test_json_accepts_ints_and_strings(self):
        assert Poly([0, "-2", 0, "-3"]) == P(0, -2, 0, -3)

    def test_json_rejects_bad_input(self):
        with pytest.raises(ValueError):
            Poly("nope")
        with pytest.raises(ValueError):
            Poly(["1/0"])
        with pytest.raises(ValueError):
            Poly([1, True])
        with pytest.raises(ValueError):
            Poly(["1e3"])

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
            Poly([expected[0]])

    def test_digits_match_str(self):
        """The digit routine, the pair printer and _rational_str against str() at any length."""
        digits = sys.get_int_max_str_digits()
        rng = random.Random(26)
        ints = [0, 1, -1]
        ints += [s * (10**k + e) for k in range(digits - 2, digits + 3) for e in (-1, 1) for s in (1, -1)]
        ints += [rng.choice((1, -1)) * rng.getrandbits(bits)
                 for bits in (64, 1023, 1024, 1025, 14_300, 100_000, 400_000)]
        big = 10**digits + 1
        fractions = [Fraction(v, d) for v in ints[:-1] for d in (1, 7, big)] + [Fraction(ints[-1], 7)]
        expected = past_the_limit(lambda: ([str(v) for v in ints], [str(c) for c in fractions]))
        assert [_decimal_digits(v) for v in ints] == expected[0]
        assert [_ratio_str(c.numerator, c.denominator) for c in fractions] == expected[1]
        assert [_rational_str(c) for c in fractions] == expected[1]
        # a million digits: past the exponent limit of decimal's default context
        assert _decimal_digits(-(10**1_000_000 + 1)) == "-1" + "0" * 999_999 + "1"

    def test_printing_matches_the_fraction_reference(self):
        """to_json() and format() on trace rows, one of them past 4,300 digits, read off coeffs."""
        rng = random.Random(27)
        traces = [interp_trace(make(rng, n)) for make in (integer_node_data, repeated_node_data,
                                                           rational_node_data) for n in (3, 6, 9)]
        traces.append(extended_euclid(P(1, 1, 0, 1), P(1, 0, 7**3500)))
        polys = [p for trace in traces for row in trace.rows for p in row]
        polys += [-p * Fraction(3, 14) for p in polys]
        homs = [None if p.is_zero else p.degree + rng.randint(0, 2) for p in polys]
        expected = past_the_limit(lambda: [
            ([str(c) for c in p.coeffs], frac_format(p.coeffs), frac_format(p.coeffs, hom))
            for p, hom in zip(polys, homs)])
        assert max(len(text) for texts, _, _ in expected for text in texts) > sys.get_int_max_str_digits()
        assert [(p.to_json(), p.format(), p.format(hom)) for p, hom in zip(polys, homs)] == expected

    def test_hash_and_eq(self):
        assert hash(P(1, 2)) == hash(P(1, 2, 0))
        assert P(3) == 3
        assert P(0, 1) != 1

    @pytest.mark.parametrize("scalar", [0, 5, Fraction(-3, 7)])
    def test_a_constant_hashes_as_its_scalar(self, scalar):
        const = P(scalar)  # P(0) == ZERO, so ZERO must hash as 0
        assert const == scalar and hash(const) == hash(scalar)
        assert len({const, scalar}) == 1 and len({scalar, const}) == 1
        assert {scalar: "a"}.get(const) == "a" and {const: "a"}.get(scalar) == "a"
        assert {scalar: "a"}.get(P(0, scalar or 1)) is None

    @settings(database=None, max_examples=200)
    @given(a=CONSTANTS, b=CONSTANTS)
    def test_equal_constants_hash_equal(self, a, b):
        for x, y in ((P(a), a), (P(a), P(b)), (P(a), b), (P(a) * P(b), a * b)):
            if x == y:
                assert hash(x) == hash(y)


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

    @pytest.mark.parametrize(
        "operation", [lambda: P(1, 2) + True, lambda: True * P(1), lambda: P(1) - False]
    )
    def test_bool_operand_is_rejected(self, operation):
        with pytest.raises(ValueError, match='expected an integer or a "p/q" string'):
            operation()

    @pytest.mark.parametrize("text", [
        "-" + "7" * 5000, "7" * 5000, "-3/" + "7" * 5000, "3/" + "7" * 5000, "-" + "7" * 5000 + "/0",
        "1/0", "-0/0", "007/010", "-12/18",
    ])
    def test_matches_the_fraction_string_parser(self, text):
        """Past the 4,300-digit limit of int(str) too: the same value, or the same ValueError message."""
        def reference(text):
            try:
                return Fraction(text)
            except ZeroDivisionError as exc:
                raise ValueError("rational with zero denominator") from exc

        results = []
        for read in (as_fraction, reference):
            try:
                results.append(read(text))
            except ValueError as exc:
                results.append(str(exc))
        assert results[0] == results[1]

    def test_zero_denominator_message(self):
        with pytest.raises(ValueError, match="zero denominator"):
            Poly(["1/0"])
        with pytest.raises(ValueError, match='expected an integer or a "p/q" string'):
            Poly([1.5])

    @pytest.mark.parametrize("text", ["12", "", "1/2", b"12", bytearray(b"12"), {3: "x", 5: "y"}, 5],
                             ids=["str", "empty str", "ratio str", "bytes", "bytearray", "dict", "int"])
    def test_a_string_is_not_a_coefficient_sequence(self, text):
        """Iterating "12" would read 2x + 1, b"12" the bytes 49 and 50, and {3: "x", 5: "y"} its keys 3 and 5."""
        with pytest.raises(ValueError, match="sequence of scalars"):
            Poly(text)


# the four functions that take a degree, each with an in-range degree and its answer
DEGREE_TAKERS = {
    "monomial": (monomial, 2, P(0, 0, 1)),
    "sample_solution_of_delta": (lambda delta: sample_solution_of_delta(DATA_FOUR, delta), 2,
                                 RationalFunction(P(6, 0, 9), P(-3, 3, 1))),
    "sample_solution_of_kappa": (lambda kappa: sample_solution_of_kappa(DATA_FOUR, kappa), 2,
                                 RationalFunction(P(6), P(-3, 0, 1))),
    "hermite_rational": (lambda d: hermite_rational(DATA_FOUR, d), 2, None),  # no solution at d = 2
}


class TestDegreeRule:
    """``exactpoly.as_degree`` is the one reader of a degree argument: an int, not a bool, >= 0."""

    @pytest.mark.parametrize("name", DEGREE_TAKERS)
    def test_a_degree_is_a_nonnegative_int(self, name):
        take, degree, expected = DEGREE_TAKERS[name]
        assert take(degree) == expected
        wrong = {}
        # hermite_rational keeps its upper bound n - 1 = 3 on top of the rule
        for bad in (1.5, True, "2", Fraction(2), -1, *([4] if name == "hermite_rational" else [])):
            try:
                take(bad)
            except ValueError:
                continue
            except Exception as exc:  # a TypeError is a wrong refusal
                wrong[repr(bad)] = repr(exc)
            else:
                wrong[repr(bad)] = "accepted"
        assert wrong == {}

    @pytest.mark.parametrize("name", DEGREE_TAKERS)
    def test_every_degree_takes_the_one_rule(self, name, monkeypatch):
        def refused(*args):
            raise RuntimeError("as_degree called")
        rule = exactpoly.as_degree
        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("ratinterp") and getattr(module, "as_degree", None) is rule:
                monkeypatch.setattr(module, "as_degree", refused)
        take, degree, _ = DEGREE_TAKERS[name]
        with pytest.raises(RuntimeError, match="as_degree called"):
            take(degree)


# -- every Poly operation against the Fraction-tuple reference in conftest --------

LIMIT = 10 ** sys.get_int_max_str_digits()  # str() refuses integers of this size and up
BIG = LIMIT + 1
RATIONALS = st.builds(
    Fraction,
    st.one_of(st.integers(-3, 3), st.integers(-10**30, 10**30)),
    st.one_of(st.just(1), st.integers(1, 12), st.integers(1, 10**20)),
)
COEFFS = st.lists(st.one_of(st.just(Fraction(0)), RATIONALS), max_size=7)
# zero, constants, negative and rational leads, a coefficient past the int-to-str limit
EXAMPLES = [
    (), (Fraction(0), Fraction(0)), (Fraction(5),), (Fraction(-2, 3),), (Fraction(1), Fraction(-4)),
    (Fraction(3), Fraction(0), Fraction(-7, 2)), (Fraction(BIG), Fraction(1, 3), Fraction(-BIG, 7)),
]


def check_ring_operations(a, b, c):
    pa, pb, ref_a, ref_b = Poly(a), Poly(b), frac_trim(a), frac_trim(b)
    assert pa.coeffs == ref_a
    assert (pa + pb).coeffs == frac_add(ref_a, ref_b)
    assert (pa - pb).coeffs == frac_add(ref_a, frac_neg(ref_b))
    assert (-pa).coeffs == frac_neg(ref_a)
    assert (pa * pb).coeffs == frac_mul(ref_a, ref_b)
    assert (pa + c).coeffs == (c + pa).coeffs == frac_add(ref_a, frac_trim((c,)))
    assert (c - pa).coeffs == frac_add(frac_trim((c,)), frac_neg(ref_a))
    assert (pa * c).coeffs == (c * pa).coeffs == frac_mul(ref_a, frac_trim((c,)))


def check_division_and_evaluation(a, b, c):
    pa, pb, ref_a, ref_b = Poly(a), Poly(b), frac_trim(a), frac_trim(b)
    if ref_b:
        q, r = pa.div_rem(pb)
        assert (q.coeffs, r.coeffs) == frac_div_rem(ref_a, ref_b)
        assert pa.over_lead_of(pb).coeffs == tuple(v / ref_b[-1] for v in ref_a)
    else:
        with pytest.raises(ZeroDivisionError):
            pa.div_rem(pb)
    for x in (c, Fraction(0), Fraction(1), -c):
        assert pa(x) == frac_eval(ref_a, x)


def check_queries(a, b, c):
    pa, ref_a = Poly(a), frac_trim(a)
    assert pa.degree == (len(ref_a) - 1 if ref_a else NEG_INF)
    assert pa.is_zero == (not ref_a)
    assert pa.coeff(pa.degree) == (ref_a[-1] if ref_a else 0)
    assert [pa.coeff(k) for k in range(-1, len(ref_a) + 2)] == [0, *ref_a, 0, 0]
    assert pa.monic().coeffs == (tuple(v / ref_a[-1] for v in ref_a) if ref_a else ())


def check_equality_hash_and_json(a, b, c):
    pa, pb, ref_a = Poly(a), Poly(b), frac_trim(a)
    assert (pa == pb) == (ref_a == frac_trim(b))
    if c:
        scaled = Poly([v * c for v in a]) * (1 / c)  # equal, built another way
        assert scaled == pa and hash(scaled) == hash(pa)
    assert pa.to_json() == [_rational_str(v) for v in ref_a]
    if all(abs(v.numerator) < LIMIT and v.denominator < LIMIT for v in ref_a):  # input stays capped
        assert Poly(pa.to_json()) == pa
    assert Poly(pa.coeffs) == pa and hash(Poly(pa.coeffs)) == hash(pa)
    if len(ref_a) <= 1:  # a constant equals its scalar
        assert pa == (ref_a[0] if ref_a else 0)
        if ref_a and ref_a[0].denominator == 1:
            assert pa == int(ref_a[0])
    else:
        assert pa != ref_a[0]


CHECKS = [check_ring_operations, check_division_and_evaluation, check_queries,
          check_equality_hash_and_json]


class TestAgainstFractionReference:
    """The integer-list kernel agrees with plain Fraction coefficient arithmetic."""

    @pytest.mark.parametrize("check", CHECKS)
    @settings(database=None, deadline=None, max_examples=150)
    @given(a=COEFFS, b=COEFFS, c=RATIONALS)
    def test_random(self, check, a, b, c):
        check(a, b, c)

    @pytest.mark.parametrize("check", CHECKS)
    def test_explicit_cases(self, check):
        for a in EXAMPLES:
            for b in EXAMPLES:
                check(a, b, Fraction(-3, 4))
                check(a, b, Fraction(BIG, 5))

    def test_equal_polynomials_from_different_inputs(self):
        assert P(1, 2) * 2 == P(2, 4) and hash(P(1, 2) * 2) == hash(P(2, 4))
        assert P("1/2", 1) == P(2, 4) * Fraction(1, 4)
        assert P(0, 0) == ZERO == 0 and P(-3) == -3 and P("-3/5") == Fraction(-3, 5)
        assert P(Fraction(BIG, 3), 1) - P(Fraction(BIG, 3)) == X


class TestValueRatios:
    """value_ratios(top, bottom, nodes) is top(x)/bottom(x) per node, None where bottom vanishes."""

    @staticmethod
    def check(a, b, nodes):
        top, bottom = Poly(a), Poly(b)
        expected = tuple(None if frac_eval(frac_trim(b), x) == 0
                         else frac_eval(frac_trim(a), x) / frac_eval(frac_trim(b), x) for x in nodes)
        assert value_ratios(top, bottom, nodes) == expected

    @settings(database=None, deadline=None, max_examples=100)
    @given(a=COEFFS, b=COEFFS.filter(lambda b: any(b)), nodes=st.lists(RATIONALS, max_size=4))
    def test_random(self, a, b, nodes):
        self.check(a, b, nodes)

    def test_roots_zero_top_and_scales(self):
        nodes = [Fraction(-1, 2), Fraction(0), Fraction(3), Fraction(BIG, 7)]
        bottom = P(1, 2) * P(-3, 1) * Fraction(BIG, 11)  # vanishes at -1/2 and 3
        for top in (ZERO, P(5), P(0, "-7/3") * Fraction(-5, BIG), P(1, 2) * monomial(3)):
            self.check(top.coeffs, bottom.coeffs, nodes)
        assert value_ratios(P(1), bottom, nodes)[::2] == (None, None)

    def test_one_fraction_per_node(self, monkeypatch):
        rng = random.Random(8)
        top, bottom = (Poly([rng.randint(-9, 9) for _ in range(30)]) * Fraction(3**400, 2**500 + 1)
                       for _ in range(2))
        nodes = [Fraction(k, 3) for k in range(-5, 6)]
        built = count_fractions(monkeypatch)
        value_ratios(top, bottom, nodes)
        assert len(built) == len(nodes)


# -- the normal form is unique, whatever operation built it -----------------------

NEGATIVE_RATIONALS = st.builds(Fraction, st.integers(-10**20, -1), st.integers(1, 10**20))


def assert_normal(p):
    """p equals, and hashes like, the polynomial built afresh from its coefficients."""
    fresh = Poly(p.coeffs)
    assert fresh == p and hash(fresh) == hash(p)


def operation_results(pa, pb, c):
    yield from (pa + pb, pa - pb, pb - pa, -pa, pa * pb, pa * c, c * pa, pa + c, c - pa)
    if not pb.is_zero:
        yield from pa.div_rem(pb)
    yield pa.monic()


class TestUniqueNormalForm:
    """Every operation returns the normal form, so == and hash stay exact comparisons."""

    @settings(database=None, deadline=None, max_examples=200)
    @given(a=COEFFS, b=COEFFS, c=NEGATIVE_RATIONALS)
    def test_random(self, a, b, c):
        for p in operation_results(Poly(a), Poly(b), c):
            assert_normal(p)

    def test_division_whose_scalings_share_a_factor_with_the_divisor_scale(self):
        # the divisor x + 1/2 is (1/2)*(2x + 1): its lead 2 enters the scalings D,
        # and D = 2 shares the factor 2 with the denominator of the divisor's scale
        q, r = P(0, 0, 1).div_rem(P("1/2", 1))
        assert (q, r) == (P("-1/2", 1), P("1/4"))
        assert_normal(q)
        assert_normal(r)
        q, r = P(5, "-4/9", 0, "2/3").div_rem(P("-3/4", "1/6", "3/2"))
        assert q * P("-3/4", "1/6", "3/2") + r == P(5, "-4/9", 0, "2/3")
        assert_normal(q)
        assert_normal(r)


NONZERO = RATIONALS.filter(bool)


def linear_quotient_pair(dd):
    """(a, b) with deg b = dd >= 1 and deg a = dd + 1: the division with a linear quotient."""
    return st.tuples(st.lists(RATIONALS, min_size=dd + 1, max_size=dd + 1), NONZERO,
                     st.lists(RATIONALS, min_size=dd, max_size=dd), NONZERO).map(
        lambda t: ((*t[0], t[1]), (*t[2], t[3])))


def check_linear_division(a, b):
    a, b = [as_fraction(c) for c in a], [as_fraction(c) for c in b]
    pa, pb = Poly(a), Poly(b)
    assert pa.degree == pb.degree + 1 >= 2
    q, r = pa.div_rem(pb)
    assert (q.coeffs, r.coeffs) == frac_div_rem(frac_trim(a), frac_trim(b))
    assert q * pb + r == pa
    assert_normal(q)
    assert_normal(r)


class TestLinearQuotient:
    """A quotient of degree 1 is closed form: L^2*a == (q1*X + q0)*b + R for L = lead(b)."""

    @settings(database=None, deadline=None, max_examples=120)
    @given(st.integers(1, 6).flatmap(linear_quotient_pair))
    def test_random(self, pair):
        check_linear_division(*pair)

    @pytest.mark.parametrize("a, b", [
        ((3, -1, "2/3"), ("-5/7", 2)),                            # a linear divisor, dd = 1
        ((1, 2, 3, 4), (5, 0, 3)),                                # b_{dd-1} = 0
        ((1, 2, 0, 4), (1, -1, 3)),                               # a_{top-1} = 0
        ((P(1, 2, "-3/4") * P(-2, 5)).coeffs, (1, 2, "-3/4")),   # an exact division
        ((7, 1, 1, 0, 1), (1, 1, 0, 1)),                          # x*b + 7: R drops from degree 2 to 0
        (("-3/5", "7/2", 0, "-9/4"), ("2/3", 0, "-5/6")),         # negative, rational scales on both sides
        ((BIG, 1, -BIG), (Fraction(1, BIG), BIG)),                # past the int-to-str limit
    ])
    def test_explicit_cases(self, a, b):
        check_linear_division(a, b)


def int_times(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


@st.composite
def division_lists(draw):
    """Integer lists (a, b) with len(a) >= len(b) >= 1 and nonzero, possibly negative, leads."""
    entries, lead = st.integers(-50, 50), st.integers(-50, 50).filter(bool)
    dd, top = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    b = (*draw(st.lists(entries, min_size=dd, max_size=dd)), draw(lead))
    a = (*draw(st.lists(entries, min_size=dd + top, max_size=dd + top)), draw(lead))
    return a, b


class TestIntegerDivision:
    """_division(a, b) is (D, Q, R) with D*a == Q*b + R on integer lists, len(R) == len(b) - 1."""

    @staticmethod
    def check(a, b):
        D, Q, R = exactpoly._division(tuple(a), tuple(b))
        assert D != 0 and len(Q) == len(a) - len(b) + 1 and len(R) == len(b) - 1
        total = int_times(Q, b)
        for j, r in enumerate(R):
            total[j] += r
        assert total == [D * x for x in a]
        if len(a) == len(b) + 1:  # the closed form
            assert D == b[-1] ** 2
        return D, Q, R

    @settings(database=None, deadline=None, max_examples=150)
    @given(division_lists())
    def test_random(self, lists):
        self.check(*lists)

    @pytest.mark.parametrize("a, b", [
        ((5, -3, 2), (4,)),                    # a constant divisor, linear quotient
        ((1, 0, 0, 7, -2), (3,)),              # a constant divisor, quotient of degree 4
        ((2, 1, 9), (4, -1, 6)),               # equal lengths: a constant quotient
        ((0, 0, 0, 0, 0, 0, 1), (0, 0, 1)),    # an exact division by a monomial
        ((1, 2, 0, 0, 0, 5), (7, 0, 3)),       # zero entries under the window
        ((BIG, 1, 0, -BIG, 3), (1, -BIG)),     # past the int-to-str limit
    ])
    def test_explicit_cases(self, a, b):
        self.check(a, b)


class TestEuclidUpdate:
    """euclid_update(p, q, c, rho) is (p - q*c)/rho, in normal form."""

    @staticmethod
    def check(p, q, c, rho):
        out = euclid_update(p, q, c, rho)
        assert out == (p - q * c).div_rem(rho)[0]
        assert_normal(out)
        return out

    def test_zero_p(self):
        assert self.check(ZERO, P(1, 2), P(3, "1/2", 5), P("-2/3")) == -P(1, 2) * P(3, "1/2", 5) * P("-3/2")

    def test_zero_c(self):
        assert self.check(P(4, "-1/3"), P(1, 2), ZERO, P(-6)) == P(4, "-1/3") * P("-1/6")

    def test_constant_q(self):
        self.check(P(1, 0, 2), P("5/7"), P(3, -1, "1/2", 4), P(3))

    def test_zero_result(self):
        assert self.check(P(1, 2) * P(3, 4), P(1, 2), P(3, 4), P("7/5")).is_zero

    def test_p_longer_than_the_product(self):
        self.check(P(1, 2, 3, 4, "5/6"), P(-1, 3), P("2/9", 1), P(-5))

    def test_random(self):
        rng = random.Random(17)
        for _ in range(300):
            p, q, c = (random_poly(rng, rng.randint(-1, 6)) for _ in range(3))
            rho = random_poly(rng, 0)
            if rng.random() < 0.2:
                p, q, c = p * BIG, q * Fraction(1, BIG), -c
            self.check(p, q, c, rho)


def three_calls(prev, cur):
    """One Euclidean row as div_rem, the split of the remainder and euclid_update per column:
    euclid_step's reference."""
    q, r = prev[0].div_rem(cur[0])
    rho, r = unit_split(r)
    return q, rho, (r, *[euclid_update(p, q, c, rho) for p, c in zip(prev[1:], cur[1:])])


@st.composite
def step_rows(draw):
    """Rows (r, *cofactors) of 2 or 3 columns with deg r_prev >= deg r_cur >= 0.

    The quotient is linear about half the time; the remainder is random, zero, or two or more
    degrees short; the remainders are unit rows at scale 1 or keep their drawn, often negative
    and rational, scales; a cofactor may be the zero polynomial.
    """
    dd, top = draw(st.integers(0, 5)), draw(st.one_of(st.just(1), st.integers(0, 3)))
    cur_r = Poly([*draw(st.lists(RATIONALS, min_size=dd, max_size=dd)), draw(NONZERO)])
    q = Poly([*draw(st.lists(RATIONALS, min_size=top, max_size=top)), draw(NONZERO)])
    kind = draw(st.sampled_from(("random", "zero", "drop")))
    size = {"random": dd, "zero": 0, "drop": max(dd - 1, 0)}[kind]
    prev_r = q * cur_r + Poly(draw(st.lists(RATIONALS, min_size=size, max_size=size)))
    if draw(st.booleans()):
        prev_r, cur_r = unit_split(prev_r)[1], unit_split(cur_r)[1]
    width = draw(st.sampled_from((2, 3)))
    cofactors = st.one_of(st.just(ZERO), COEFFS.map(Poly))
    prev = (prev_r, *[draw(cofactors) for _ in range(width - 1)])
    cur = (cur_r, *[draw(cofactors) for _ in range(width - 1)])
    return prev, cur


class TestEuclidStep:
    """euclid_step(prev, cur) is div_rem, the split and euclid_update per column, in normal form."""

    @staticmethod
    def check(prev, cur):
        q, rho, row = euclid_step(prev, cur)
        assert (q, rho, row) == three_calls(prev, cur)
        assert rho * row[0] == prev[0] - q * cur[0] and rho.degree == 0
        for p in (q, rho, *row):
            assert_normal(p)
        return q, rho, row

    @settings(database=None, deadline=None, max_examples=100)
    @given(step_rows())
    def test_random(self, rows):
        self.check(*rows)

    @pytest.mark.parametrize("prev, cur", [
        ((P(3, -1, 0, "2/3"), ZERO, ONE), (P("-5/7", 2, 1), ONE, ZERO)),           # start rows, rational scales
        ((P(1, 2, 3), P(4, 5)), (P(0, 1), P("-1/2"))),                            # unit rows at scale 1
        ((P(1, 2, "-3/4") * P(-2, 5), P(1, 1)), (P(1, 2, "-3/4"), P(3))),         # a zero remainder
        ((P(7, 1, 1, 0, 1), P(2, 0, 1), ZERO), (P(1, 1, 0, 1), P(-1), P(5))),    # R drops two degrees
        ((P(1, 0, 0, 0, 0, -2), P(1), P(-3)), (P(-1, 0, 3), P(2, 1), ZERO)),      # a quotient of degree 3
        ((P(-4, 0, 9), P(1, 2)), (P("-2/3"), P(0, 1))),                            # a constant r_cur
        ((P(3, "5/7"), P(1, 2), ZERO), (P("-2/3"), P(0, 1), ONE)),                  # and a linear step onto it
        ((P(3, 5), P(2)), (ONE, P(1, 1))),                                         # onto the unit constant
        # past the int-to-str limit, at drawn scales and at scale 1
        ((P(BIG, 1, 0, -BIG), P(BIG, "1/3"), ONE), (P(Fraction(1, BIG), BIG, 1), P(-1, BIG), P(BIG))),
        ((P(BIG, 1, 0, 7), P(1, BIG)), (P(1, -BIG, 3), P(BIG))),
    ])
    def test_explicit_cases(self, prev, cur):
        self.check(prev, cur)

    @pytest.mark.parametrize("prev", [(P(3), ONE), (P(1, 2), ZERO), (P(-1, 0, 4), P(2))])
    def test_a_zero_divisor(self, prev):
        with pytest.raises(ZeroDivisionError):
            euclid_step(prev, (ZERO, ONE))

    @pytest.mark.parametrize("prev, cur", [
        ((P(3, -1, 4, 2), P(1, 5), P("2/7")), (P(5, 0, 3), P("-1/3", 2, 1), P(4, 0, "1/9"))),  # linear, unit rows
        ((P(2, 0, 1, 0, 0, 3), P(1, 1), ZERO), (P(-1, 0, 3), P(2), P(0, 1))),                   # a quotient of degree 3
        ((P(-4, 0, 9), P(1, 2)), (P("-2/3"), P(0, 1))),                                         # a constant r_cur
        ((P(3, -1, 0, "2/3"), ZERO, ONE), (P("-5/7", 2, 1), ONE, ZERO)),                        # raw start rows
    ])
    def test_a_step_takes_one_division_and_no_div_rem_or_euclid_update(self, monkeypatch, prev, cur):
        expected = self.check(prev, cur)
        divisions = []
        division = exactpoly._division
        monkeypatch.setattr(exactpoly, "_division", lambda a, b: divisions.append(1) or division(a, b))
        monkeypatch.setattr(Poly, "div_rem", lambda *args: pytest.fail("div_rem in a step"))
        monkeypatch.setattr(exactpoly, "euclid_update", lambda *args: pytest.fail("euclid_update in a step"))
        assert euclid_step(prev, cur) == expected and divisions == [1]


class TestOneKernel:
    """Every sum, difference and EEA column goes through ``_combine``, and every product of two
    nonconstant polynomials through ``_convolve``: a second sum path or convolution fails here."""

    A, B = P(1, "-2/3", 4), P("1/2", -1)

    @staticmethod
    def refuse(monkeypatch, name):
        def refused(*args):
            raise RuntimeError(f"{name} called")
        monkeypatch.setattr(exactpoly, name, refused)

    @pytest.mark.parametrize("operation", [
        lambda a, b: a + b,
        lambda a, b: a - b,
        lambda a, b: 2 + a,                   # reflected +
        lambda a, b: Fraction(3, 5) - a,      # reflected -
        lambda a, b: euclid_update(a, b, a, P("-2/7")),
        lambda a, b: euclid_step((a, ONE), (b, ZERO)),
    ])
    def test_sums_differences_and_columns_take_combine(self, monkeypatch, operation):
        self.refuse(monkeypatch, "_combine")
        with pytest.raises(RuntimeError, match="_combine called"):
            operation(self.A, self.B)

    def test_a_product_takes_no_combine(self, monkeypatch):
        expected = Poly(frac_mul(self.A.coeffs, self.B.coeffs))
        self.refuse(monkeypatch, "_combine")
        assert self.A * self.B == expected and 3 * self.A == P(3, -2, 12)

    def test_a_product_takes_convolve(self, monkeypatch):
        self.refuse(monkeypatch, "_convolve")
        with pytest.raises(RuntimeError, match="_convolve called"):
            self.A * self.B


class TestOneSequenceRule:
    """Every coefficient list, value list and list of points read from outside goes through
    ``exactpoly.as_sequence``, in the library and in the CLI: a second shape check on any of
    these paths fails here."""

    FOUR_POINTS = str(Path(__file__).resolve().parents[1] / "problems" / "four_points.json")

    @pytest.fixture(autouse=True)
    def refuse(self, monkeypatch):
        """Refuse the rule in every module that binds it, as hermite and cli import it by name."""
        def refused(*args):
            raise RuntimeError("as_sequence called")
        rule = exactpoly.as_sequence
        for name, module in list(sys.modules.items()):
            if name.startswith("ratinterp") and getattr(module, "as_sequence", None) is rule:
                monkeypatch.setattr(module, "as_sequence", refused)

    @pytest.mark.parametrize("read", [
        lambda: Poly([1]),
        lambda: InterpolationData.from_pairs([(0, [1])]),
        lambda: cli.main(["delta", TestOneSequenceRule.FOUR_POINTS]),
        lambda: cli.main(["mu-basis", "--r0", "[0, 1]", "--r1", "[1]"]),
    ], ids=["Poly", "from_pairs", "cli points", "cli r0 r1"])
    def test_every_outside_sequence_takes_the_one_rule(self, read):
        with pytest.raises(RuntimeError, match="as_sequence called"):
            read()


# -- scales are integer pairs: the trace and the mu-basis build no Fraction --------


class TestNoFractionInArithmetic:
    def test_counter_sees_fraction_arithmetic(self, monkeypatch):
        built = count_fractions(monkeypatch)
        Fraction(1, 3) * Fraction(3, 5) + 1
        assert len(built) >= 2

    def test_extended_euclid_on_rational_nodes(self, monkeypatch):
        rng = random.Random(5)
        data = InterpolationData.from_pairs(
            [(Fraction(k, 3), [Fraction(rng.randint(-9, 9), rng.randint(1, 7))]) for k in range(20)])
        f, g = nodal_poly(data), hermite_polynomial(data)
        built = count_fractions(monkeypatch)
        trace = extended_euclid(f, g)
        assert len(built) == 0 and trace.N >= 10

    def test_node_test_on_every_row_of_a_rational_node_trace(self, monkeypatch):
        rng = random.Random(6)
        data = InterpolationData.from_pairs(
            [(Fraction(k, 3), [Fraction(rng.randint(-9, 9), rng.randint(1, 7))]) for k in range(20)])
        trace = data.trace()
        rows = [trace.s(k) for k in range(trace.N + 2)]
        rows += [s * (X - rng.choice(data.nodes)) for s in rows]  # each has a root at a node
        built = count_fractions(monkeypatch)
        answers = [s.nonzero_at(data.nodes) for s in rows]
        # s_0 = 0, and s_{N+1} is a multiple of f
        assert len(built) == 0 and answers == [False] + [True] * trace.N + [False] * (trace.N + 3)

    def test_vanishing_member_is_found_by_the_node_test(self, monkeypatch):
        rng = random.Random(7)
        data = InterpolationData.from_pairs(
            [(Fraction(k, 3), [Fraction(rng.randint(-9, 9), rng.randint(1, 7))]) for k in range(8)])
        basis = minimal_basis(data)
        last = data.nodes[-1]
        b1, b2 = basis.pair1[1], basis.pair2[1]
        # the reduced denominator, then gcd(p, q), vanishes at the last node and at no other
        cases = [(P(b2(last)), P(-b1(last))), (X - last, ZERO)]
        built = count_fractions(monkeypatch)
        nodes = []
        for p, q in cases:
            with pytest.raises(DenominatorVanishesAtNode) as caught:
                evaluate_parametrization(basis, p, q, data)
            nodes.append(caught.value.node)
        assert len(built) == 0 and nodes == [last, last]

    def test_printing_every_row_of_a_rational_node_trace(self, monkeypatch):
        rng = random.Random(8)
        data = InterpolationData.from_pairs(
            [(Fraction(k, 3), [Fraction(rng.randint(-9, 9), rng.randint(1, 7))]) for k in range(20)])
        trace = extended_euclid(nodal_poly(data), hermite_polynomial(data))
        polys = [p for row in trace.rows for p in row]
        built = count_fractions(monkeypatch)
        printed = [(p.to_json(), p.format(), p.format(len(data.nodes))) for p in polys]
        assert len(built) == 0 and len(printed) == 3 * (trace.N + 2)

    def test_answers_scaled_monic_on_a_rational_node_instance(self, monkeypatch):
        rng = random.Random(9)
        data = InterpolationData.from_pairs(
            [(Fraction(k, 3), [Fraction(rng.randint(-9, 9), rng.randint(1, 7))]) for k in range(12)])
        data.newton_pair  # built once per instance, from the input Fractions
        built = count_fractions(monkeypatch)
        splits = [hermite_rational(data, d) for d in range(data.n)]
        report = admissible_kappa(data)
        answers = [rf for rf in splits if rf is not None] + [e.solution for e in report.isolated]
        assert len(built) == 0 and len(answers) == 2 * data.n  # a normal trace: every split is solvable
        assert all(rf.denom.coeff(rf.denom.degree) == 1 for rf in answers)

    def test_division_by_a_constant(self, monkeypatch):
        scale, unit = unit_split(P("3/7", -5, "22/9", "-5/3"))
        built = count_fractions(monkeypatch)
        assert unit.div_rem(scale)[0] * scale == unit
        assert len(built) == 0

    def test_mu_basis_with_a_rational_negative_lead(self, monkeypatch):
        param = PlaneParametrization(P("1/2", -3, "5/7", 0, 2, "-7/5", "-11/3"),
                                     P(4, "-2/9", 1, "3/4", "-1/6"))
        built = count_fractions(monkeypatch)
        basis = mu_basis(param)
        assert len(built) == 0 and basis.mu >= 1


def test_only_exactpoly_reads_the_representation():
    """No module but exactpoly imports its private names or reads a private Poly attribute.

    ``_rational_str`` is the one private name others may import.
    """
    src = Path(__file__).resolve().parents[1] / "src" / "ratinterp"
    private = {name for name in dir(Poly) if name.startswith("_") and not name.startswith("__")}
    offences = []
    for path in sorted(src.glob("*.py")):
        if path.name == "exactpoly.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("exactpoly"):
                offences += [f"{path.name}: imports {a.name}" for a in node.names
                             if a.name.startswith("_") and a.name != "_rational_str"]
            elif isinstance(node, ast.Attribute) and node.attr in private:
                offences.append(f"{path.name}:{node.lineno}: reads .{node.attr}")
    assert not offences
