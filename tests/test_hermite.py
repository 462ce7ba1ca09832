import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ratinterp.deltasolver as ds
from ratinterp import (
    CertificateError,
    InterpolationData,
    ONE,
    Poly,
    RationalFunction,
    X,
    ZERO,
    ZeroDenominator,
    admissible_kappa,
    check_interpolates,
    check_weak,
    hermite_polynomial,
    minimal_basis,
    minimal_delta_solutions,
    nodal_poly,
    sample_solution_of_kappa,
    weak_cofactor,
    yy_form,
)
from ratinterp.hermite import combine, interpolant, nonzero_at_nodes

from conftest import (
    P,
    count_fractions,
    frac_mul,
    integer_node_data,
    planted_data,
    random_data,
    random_poly,
    rational_node_data,
    reference_hermite_polynomial,
    repeated_node_data,
)

MOD_P = 2**61 - 1  # the prime of the modular node test
BIG = 10 ** sys.get_int_max_str_digits() + 1  # str() refuses integers of this size and up

# inputs that take the Newton pass off its common path
EDGE_CASES = {
    # g = x^2 after three conditions: every later correction is 0
    "zero_corrections": [(x, [x * x]) for x in (-3, -1, 0, 2, 4, 5, 7, 9)],
    # a negative rational node of multiplicity 4 between simple nodes
    "negative_rational_repeated": [(2, [1]), (Fraction(-5, 3), ["1/2", -3, 0, "7/4"]), (0, [-2]),
                                   (Fraction(1, 2), [5])],
    # values past the int-to-str limit, at an integer and at a rational node
    "past_the_str_limit": [(1, [BIG, -BIG]), (Fraction(-2, 7), [Fraction(1, BIG)]), (3, [0])],
}


class TestInterpolationData:
    def test_duplicate_nodes_rejected(self):
        with pytest.raises(ValueError):
            InterpolationData.from_pairs([(1, [2]), (1, [3])])

    def test_empty_values_rejected(self):
        with pytest.raises(ValueError):
            InterpolationData.from_pairs([(1, [])])

    def test_no_points_rejected(self):
        with pytest.raises(ValueError):
            InterpolationData.from_pairs([])

    @pytest.mark.parametrize(
        "pairs",
        [
            [(True, [1])],
            [(1, [True])],
            [("0.5", [1])],
            [(1, ["1e3"])],
            [(1, [" 2 "])],
            [(1.5, [1])],
            [(True, ["1e50"]), ("0.5", [" 2 "])],
        ],
    )
    def test_constructor_scalars_follow_the_json_grammar(self, pairs):
        with pytest.raises(ValueError):
            InterpolationData.from_pairs(pairs)

    def test_counts(self, data_four):
        assert data_four.n == 4
        assert data_four.node_count == 3
        assert data_four.nodes == (0, 2, -1)

    def test_json_round_trip(self, data_four):
        again = InterpolationData.from_json_dict(data_four.to_json_dict())
        assert again == data_four

    @pytest.mark.parametrize(
        "obj",
        [
            {"nodes": []},
            {"points": "x"},
            {"points": [{"x": "1"}]},
            {"points": [{"x": "1", "values": "2"}]},
            {"points": [{"x": "1/0", "values": ["1"]}]},
            {"points": [{"x": "1", "values": ["1"]}, {"x": "1", "values": ["2"]}]},
            {"points": [{"x": True, "values": ["1"]}]},
            {"points": [{"x": "1", "values": ["1e3"]}]},
        ],
    )
    def test_json_schema_violations(self, obj):
        with pytest.raises(ValueError):
            InterpolationData.from_json_dict(obj)


def reference_nodal_poly(data):
    """f as a product of Fraction coefficient tuples (x - x_i), one per condition."""
    f = (Fraction(1),)
    for x, values in data.points:
        for _ in values:
            f = frac_mul(f, (-x, Fraction(1)))
    return f


class TestNewtonPair:
    """f and g come from one Newton pass, built at most once per instance."""

    @pytest.fixture
    def builds(self, monkeypatch):
        """The instances whose (f, g) pair is built, in build order."""
        built = []
        pair = InterpolationData.__dict__["newton_pair"]
        build = pair.func

        def counted(data):
            built.append(data)
            return build(data)

        monkeypatch.setattr(pair, "func", counted)
        return built

    def test_every_query_on_an_instance_shares_one_build(self, builds):
        pairs = [(-1, [-3]), (0, [-2]), (1, [-1, 2]), (2, [6]), (3, [0])]
        data = InterpolationData.from_pairs(pairs)
        nodal_poly(data)
        hermite_polynomial(data)
        minimal_delta_solutions(data)
        admissible_kappa(data)
        rf = sample_solution_of_kappa(data, data.n)
        yy_form(rf, data)
        assert len(builds) == 1 and builds[0] is data

        twin = InterpolationData.from_pairs(pairs)
        assert twin == data and nodal_poly(twin) == nodal_poly(data)
        assert len(builds) == 2 and builds[1] is twin

    @settings(database=None, deadline=None, max_examples=100)
    @given(points=st.lists(
        st.tuples(st.fractions(-4, 4, max_denominator=6),
                  st.lists(st.fractions(-20, 20, max_denominator=9), min_size=1, max_size=6)),
        min_size=1, max_size=4, unique_by=lambda point: point[0]))
    def test_matches_the_fraction_reference(self, points):
        data = InterpolationData(tuple((x, tuple(values)) for x, values in points))
        assert hermite_polynomial(data).coeffs == reference_hermite_polynomial(data)
        assert nodal_poly(data).coeffs == reference_nodal_poly(data)

    def test_high_multiplicity_next_to_simple_nodes(self):
        data = InterpolationData.from_pairs(
            [(-1, [3]), (Fraction(2, 3), [1, -2, 0, 5, "7/2", -1, 0, 4]), (2, ["-1/5"])])
        f, g = nodal_poly(data), hermite_polynomial(data)
        assert f.coeffs == reference_nodal_poly(data)
        assert g.coeffs == reference_hermite_polynomial(data)
        assert g.degree < data.n == 10
        for x, values in data.points:
            for j, y in enumerate(values):
                assert g.derivative(j)(x) == y

    @pytest.mark.parametrize("case", sorted(EDGE_CASES))
    def test_off_the_common_path(self, case):
        """f against the Fraction product, g against every condition; g's reference check is below."""
        data = InterpolationData.from_pairs(EDGE_CASES[case])
        f, g = data.newton_pair
        assert f.coeffs == reference_nodal_poly(data)
        for x, values in data.points:
            for j, y in enumerate(values):
                assert g.derivative(j)(x) == y and f.derivative(j)(x) == 0

    def test_builds_no_fraction(self, monkeypatch):
        """The pass runs on integer lists: no Fraction for any condition, on any kind of node."""
        rng = random.Random(10)
        cases = [family(rng, 10) for family in (integer_node_data, repeated_node_data, rational_node_data)]
        cases.append(planted_data(rng, 10, P(1, -2), P(Fraction(1, 2), 0, 1)))
        cases += [InterpolationData.from_pairs(pairs) for pairs in EDGE_CASES.values()]
        built = count_fractions(monkeypatch)
        for data in cases:
            data.newton_pair
        assert built == []


class TestNodalPoly:
    def test_four_point(self, data_four):
        assert nodal_poly(data_four) == P(0, -2, -3, 0, 1)

    def test_six_even(self, data_six_even):
        assert nodal_poly(data_six_even) == P(-36, 0, 49, 0, -14, 0, 1)

    def test_single_node(self):
        data = InterpolationData.from_pairs([(5, [1])])
        assert nodal_poly(data) == P(-5, 1)

    def test_monic_and_vanishing_orders(self):
        rng = random.Random(23)
        for _ in range(30):
            data = random_data(rng, max_n=6)
            f = nodal_poly(data)
            assert f.degree == data.n
            assert f.leading == 1
            for x, values in data.points:
                for j in range(len(values)):
                    assert f.derivative(j)(x) == 0
                assert f.derivative(len(values))(x) != 0


class TestHermitePolynomial:
    def test_four_point(self, data_four):
        assert hermite_polynomial(data_four) == P(-2, 0, 0, 1)

    def test_six_even(self, data_six_even):
        assert hermite_polynomial(data_six_even) == P(10, 0, -10, 0, 1)

    def test_single_point_constant(self):
        data = InterpolationData.from_pairs([(0, [7])])
        assert hermite_polynomial(data) == P(7)

    def test_single_node_high_multiplicity_is_a_taylor_polynomial(self):
        data = InterpolationData.from_pairs([(1, [2, 3, 4, 5])])
        shifted = X - 1
        taylor = (
            P(2) + 3 * shifted + 2 * shifted**2 + Fraction(5, 6) * shifted**3
        )
        assert hermite_polynomial(data) == taylor

    def test_matches_the_fraction_construction(self):
        rng = random.Random(30)
        cases = [random_data(rng, max_n=7) for _ in range(40)]
        for family in (integer_node_data, repeated_node_data, rational_node_data):
            cases += [family(rng, rng.randint(1, 20)) for _ in range(10)]
        cases += [planted_data(rng, n, random_poly(rng, 2), P(Fraction(1, 2), 0, 1)) for n in (24, 40)]
        cases.append(InterpolationData.from_pairs([(Fraction(1, 3), [0, 0]), (Fraction(-2, 5), [0])]))
        cases += [InterpolationData.from_pairs(pairs) for pairs in EDGE_CASES.values()]
        for data in cases:
            assert hermite_polynomial(data).coeffs == reference_hermite_polynomial(data)

    def test_matches_all_conditions(self):
        rng = random.Random(29)
        for _ in range(40):
            data = random_data(rng, max_n=7)
            g = hermite_polynomial(data)
            assert g.degree < data.n
            for x, values in data.points:
                for j, y in enumerate(values):
                    assert g.derivative(j)(x) == y


class TestWeakConditions:
    def test_nodal_pair(self, data_four):
        assert check_weak(nodal_poly(data_four), ZERO, data_four)

    def test_hermite_pair(self, data_four):
        assert check_weak(hermite_polynomial(data_four), ONE, data_four)

    def test_low_degree_trace_pair(self, data_four):
        assert check_weak(P(-2), P(1, 0, "-1/3"), data_four)

    def test_non_weak_pair(self, data_four):
        assert not check_weak(X, ONE, data_four)

    def test_multiplying_by_node_free_factor_preserves(self):
        rng = random.Random(31)
        for _ in range(30):
            data = random_data(rng, max_n=5)
            g = hermite_polynomial(data)
            xi = Fraction(11, 1)  # outside the node pool
            factor = X - xi
            assert check_weak(g * factor, factor, data)
            rf_plain = RationalFunction(g, ONE)
            rf_scaled = RationalFunction(g * factor, factor)
            assert rf_scaled == rf_plain  # reduction undoes the common factor
            assert check_interpolates(rf_scaled, data)

    def test_scaling_preserves_weakness_of_trace_rows(self, data_four):
        from ratinterp import extended_euclid

        factor = X - Fraction(7)
        trace = extended_euclid(nodal_poly(data_four), hermite_polynomial(data_four))
        for i in range(trace.N + 2):
            assert check_weak(trace.r(i) * factor, trace.s(i) * factor, data_four)


class TestNodeTest:
    """nonzero_at_nodes decides on residues modulo P and confirms zeros exactly."""

    @pytest.fixture
    def exact_calls(self, monkeypatch):
        """The nodes at which a Poly is evaluated exactly, in call order."""
        calls = []
        exact = Poly.__call__

        def counted(self, x):
            calls.append(x)
            return exact(self, x)

        monkeypatch.setattr(Poly, "__call__", counted)
        return calls

    def test_zero_residue_falls_back_to_the_exact_value(self, exact_calls):
        data = InterpolationData.from_pairs([(0, [1])])
        assert nonzero_at_nodes(P(-MOD_P, 1), data)  # x - P: residue 0 at 0, value -P
        assert exact_calls == [0]
        assert not nonzero_at_nodes(X, data)

    def test_node_with_denominator_p_is_tested_exactly(self, exact_calls):
        data = InterpolationData.from_pairs([(2, [1]), (Fraction(1, MOD_P), [1])])
        assert nonzero_at_nodes(P(3, 1), data)
        assert exact_calls == [Fraction(1, MOD_P)]
        assert not nonzero_at_nodes(P(-1, MOD_P), data)

    def test_coefficient_with_denominator_p_is_tested_exactly(self, exact_calls):
        # residues come from the integer list (1, P) with scale 1/P, so a
        # coefficient's denominator never forces the exact path
        data = InterpolationData.from_pairs([(1, [1]), (2, [1])])
        assert nonzero_at_nodes(P(Fraction(1, MOD_P), 1), data)
        assert exact_calls == []

    def test_nonzero_residue_needs_no_exact_value(self, exact_calls):
        assert nonzero_at_nodes(P(1, 0, 1), InterpolationData.from_pairs([(0, [1]), (3, [1])]))
        assert exact_calls == []

    def test_agrees_with_exact_evaluation(self):
        rng = random.Random(39)
        for _ in range(200):
            data = random_data(rng, max_n=6)
            b = random_poly(rng, rng.randint(0, 4))
            if rng.random() < 0.5:  # plant a root at a node
                b = b * (X - rng.choice(data.nodes))
            assert nonzero_at_nodes(b, data) == all(b(x) != 0 for x in data.nodes)


class TestFamilyMember:
    """``deltasolver._family_member``, the one search for members above the minimum."""

    def test_returns_the_member_of_the_least_k_that_passes_the_node_test(self):
        # UNIQUE, mu1 = 1, mu2 = 2: at delta = 3, p = x**2 and x**2 + 1 vanish at a node
        data = InterpolationData.from_pairs([(-1, [0]), (-3, [2]), (0, [-1])])
        basis = minimal_basis(data)
        (a1, b1), (a2, b2) = basis.pair1, basis.pair2
        members = [interpolant(a2 + (X**2 + k) * a1, b2 + (X**2 + k) * b1, data) for k in range(3)]
        assert members[0] is None and members[1] is None and members[2] is not None
        assert ds._family_member(data, basis, 3) == members[2]
        assert members[2] == combine(basis.pair1, basis.pair2, X**2 + 2, ONE, data)

    def test_raises_when_every_k_is_forbidden(self, data_four):
        # b1 and b2 vanish at the node 0, so b2 + p*b1 does for every p
        basis = ds.MinimalBasis((ONE, X), (X**2, X**2 - X), 1, 2, critical_index=0)
        with pytest.raises(CertificateError, match="every k"):
            ds._family_member(data_four, basis, 2)

    def test_raises_on_a_basis_that_is_not_row_reduced(self, data_four):
        # pair2 + x**(mu2 - mu1 + 1)*pair1 has degree mu2 + 1, declared mu2
        basis = minimal_basis(data_four)
        shift = X ** (basis.mu2 - basis.mu1 + 1)
        skew = tuple(q + shift * p for p, q in zip(basis.pair1, basis.pair2))
        bad = ds.MinimalBasis(basis.pair1, skew, basis.mu1, basis.mu2, basis.critical_index)
        with pytest.raises(CertificateError, match="max-degree 3, not 2"):
            ds._family_member(data_four, bad, basis.mu2)


class TestCheckInterpolates:
    def test_hermite_always_interpolates(self, data_four):
        assert check_interpolates(RationalFunction(hermite_polynomial(data_four), ONE), data_four)

    def test_minimal_fraction(self, data_four):
        assert check_interpolates(RationalFunction(P(6), P(-3, 0, 1)), data_four)

    def test_reduced_node_sharing_pair_fails(self, data_four):
        # (-3x^2, -x) satisfies the weak conditions but reduces to 3x/1,
        # which no longer does
        assert check_weak(P(0, 0, -3), P(0, -1), data_four)
        rf = RationalFunction(P(0, 0, -3), P(0, -1))
        assert rf == RationalFunction(P(0, 3), ONE)
        assert not check_interpolates(rf, data_four)

    def test_pole_elsewhere_fails_weakly(self, data_four):
        assert not check_interpolates(RationalFunction(ONE, X), data_four)


class TestWeakCofactor:
    def test_nodal_row(self, data_four):
        assert weak_cofactor(nodal_poly(data_four), ZERO, data_four) == ONE

    def test_hermite_row(self, data_four):
        assert weak_cofactor(hermite_polynomial(data_four), ONE, data_four) == ZERO

    def test_trace_row(self, data_four):
        assert weak_cofactor(P(0, 0, -3), P(0, -1), data_four) == ONE

    def test_rejects_non_weak_pair(self, data_four):
        with pytest.raises(ValueError):
            weak_cofactor(X, ONE, data_four)

    def test_reconstruction(self):
        rng = random.Random(37)
        for _ in range(20):
            data = random_data(rng, max_n=5)
            f, g = nodal_poly(data), hermite_polynomial(data)
            b = P(rng.randint(-3, 3), rng.randint(-3, 3))
            c = P(rng.randint(-3, 3))
            a = b * g + c * f
            assert weak_cofactor(a, b, data) == c


class TestRationalFunction:
    def test_canonicalization(self):
        rf = RationalFunction(P(-2), P(1, 0, "-1/3"))
        assert rf.numer == P(6)
        assert rf.denom == P(-3, 0, 1)
        assert str(rf) == "6/(x^2 - 3)"

    def test_zero_numerator(self):
        rf = RationalFunction(ZERO, P(0, 0, 5))
        assert rf.numer == ZERO and rf.denom == ONE
        assert rf.delta_degree == 0

    def test_zero_denominator(self):
        with pytest.raises(ZeroDenominator):
            RationalFunction(ONE, ZERO)

    def test_coprime_constructor_only_rescales(self):
        rf = RationalFunction.coprime(P(0, 2), P(0, 0, 4))  # x is not divided out
        assert (rf.numer, rf.denom) == (P(0, "1/2"), P(0, 0, 1))
        reduced = (P(-2), P(1, 0, "-1/3"))
        assert RationalFunction.coprime(*reduced) == RationalFunction(*reduced)
        zero = RationalFunction.coprime(ZERO, P(0, 3))
        assert (zero.numer, zero.denom) == (ZERO, ONE)
        with pytest.raises(ZeroDenominator):
            RationalFunction.coprime(ONE, ZERO)

    def test_equality_of_representations(self):
        assert RationalFunction(P(0, 2), P(2)) == RationalFunction(X, ONE)

    def test_hash_agrees_with_equality(self):
        half, inverse = RationalFunction(P(2), P(0, 2)), RationalFunction(ONE, X)
        assert half == inverse and hash(half) == hash(inverse)
        assert len({half, inverse}) == 1
        assert {half: "half"}[inverse] == "half" and {inverse: "inverse"}[half] == "inverse"
        assert (half == 5) is False

    def test_delta_degree(self):
        assert RationalFunction(P(6), P(-3, 0, 1)).delta_degree == 2
        assert RationalFunction(P(-2, 0, 0, 1), ONE).delta_degree == 3

    def test_call(self):
        rf = RationalFunction(P(6), P(-3, 0, 1))
        assert rf(0) == -2
        assert rf(2) == 6
        with pytest.raises(ZeroDivisionError):
            RationalFunction(ONE, X)(0)
