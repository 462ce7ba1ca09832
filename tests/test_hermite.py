import math
import random
import sys
import types
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ratinterp.deltasolver as ds
import ratinterp.exactpoly as exactpoly
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
    evaluate_parametrization,
    hermite_polynomial,
    minimal_basis,
    minimal_delta_solutions,
    monomial,
    nodal_poly,
    sample_solution_of_kappa,
    weak_cofactor,
    yy_form,
)
from ratinterp.hermite import interpolant

from conftest import (
    DATA_ALL_ZERO,
    P,
    count_fractions,
    derivative,
    frac_eval,
    frac_mul,
    integer_node_data,
    planted_data,
    random_data,
    random_poly,
    rational_node_data,
    reference_hermite_polynomial,
    repeated_node_data,
    unit_split,
)

BIG_P = 2**61 - 1  # a prime
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

    def test_duplicate_nodes_rejected_in_any_spelling(self):
        with pytest.raises(ValueError, match="duplicate node 1/2"):
            InterpolationData.from_pairs([("2/4", [2]), ("1/2", [3])])
        with pytest.raises(ValueError, match="duplicate node 3"):
            InterpolationData.from_pairs([(3, [2]), ("6/2", [3])])

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

    @pytest.mark.parametrize("values", ["12", "", b"12", bytearray(b"12")], ids=["str", "empty str", "bytes", "bytearray"])
    def test_a_string_is_not_a_value_list(self, values):
        """Iterating "12" would read value 1 and derivative 2, and b"12" the bytes 49 and 50."""
        with pytest.raises(ValueError, match="sequence of scalars"):
            InterpolationData.from_pairs([(0, values)])
        with pytest.raises(ValueError, match="sequence of scalars"):
            InterpolationData.from_pairs([(1, [2]), ("1/2", values)])

    def test_counts(self, data_four):
        assert data_four.n == 4
        assert data_four.node_count == 3
        assert data_four.nodes == (0, 2, -1)

    def test_n_and_nodes_are_built_once_and_stay_out_of_equality(self):
        pairs = [(1, [2, 0]), ("1/2", [3]), (-4, [0, 1, 5])]
        data, twin = InterpolationData.from_pairs(pairs), InterpolationData.from_pairs(pairs)
        assert (data.n, data.nodes) == (6, (1, Fraction(1, 2), -4))
        assert {"n", "nodes"} <= vars(data).keys() and data.nodes is data.nodes
        assert data == twin and hash(data) == hash(twin)  # twin has read neither
        assert {data: 1}[twin] == 1

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


def wide_rational_node_data(rng, n):
    """n simple rational nodes p/q, q <= 7, among them integer ones, with rational values."""
    pool = sorted({Fraction(p, q) for q in (1, 2, 3, 5, 7) for p in range(-4 * q, 4 * q + 1)})
    return InterpolationData.from_pairs(
        [(x, [Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3)))]) for x in rng.sample(pool, n)])


def content_passes(monkeypatch):
    """The results of newton_pair's content passes, ``math.gcd(dG, *G)``, in call order.

    exactpoly's ``math`` is replaced by a copy whose gcd records every call
    made from newton_pair with three or more arguments: only the content
    pass has that many, as F and G have two or more entries by then.
    """
    passes = []
    gcd = math.gcd

    def recording(*args):
        result = gcd(*args)
        if len(args) > 2 and sys._getframe(1).f_code.co_name == "newton_pair":
            passes.append(result)
        return result

    proxy = types.SimpleNamespace(**{name: getattr(math, name) for name in dir(math) if not name.startswith("_")})
    proxy.gcd = recording
    monkeypatch.setattr(exactpoly, "math", proxy)
    return passes


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

    @settings(database=None, deadline=None, max_examples=150)
    @given(points=st.lists(
        st.tuples(st.one_of(st.integers(-6, 6).map(Fraction), st.fractions(-4, 4, max_denominator=6)),
                  st.lists(st.fractions(-20, 20, max_denominator=9), min_size=1, max_size=6)),
        min_size=1, max_size=6, unique_by=lambda point: point[0]))
    def test_matches_the_fraction_reference(self, points):
        """Integer and rational nodes mixed in any order: the q == 1 paths meet the general ones."""
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
                assert derivative(g, j)(x) == y

    @pytest.mark.parametrize("case", sorted(EDGE_CASES))
    def test_off_the_common_path(self, case):
        """f against the Fraction product, g against every condition; g's reference check is below."""
        data = InterpolationData.from_pairs(EDGE_CASES[case])
        f, g = data.newton_pair
        assert f.coeffs == reference_nodal_poly(data)
        for x, values in data.points:
            for j, y in enumerate(values):
                assert derivative(g, j)(x) == y and derivative(f, j)(x) == 0

    @pytest.mark.parametrize("n", [48, 56, 64])
    @pytest.mark.parametrize("family", ["int", "rep", "rat", "planted"])
    def test_at_size_matches_the_fraction_reference(self, family, n):
        rng = random.Random(f"newton-pair-{family}-{n}")
        data = {
            "int": lambda: integer_node_data(rng, n),
            "rep": lambda: repeated_node_data(rng, n),
            "rat": lambda: wide_rational_node_data(rng, n),
            "planted": lambda: planted_data(rng, n, random_poly(rng, 3), P(rng.randint(1, 5), 0, 1)),
        }[family]()
        f, g = data.newton_pair
        assert f.coeffs == reference_nodal_poly(data)
        assert g.coeffs == reference_hermite_polynomial(data)

    def test_content_pass_runs_only_where_lead_f_shares_a_prime(self, monkeypatch):
        """The pass over G runs only when gcd(dG, lead F) != 1, and there it can find content.

        At (5/3, [-1, 1]), (-3, [-2]) the third condition leaves content 3 in
        G and dG, through lead(F) = 9; at integer nodes lead(F) = 1, and the
        pass never runs.
        """
        passes = content_passes(monkeypatch)
        for family in (integer_node_data, repeated_node_data):
            family(random.Random(12), 40).newton_pair
        planted_data(random.Random(12), 40, P(1, -2, 3), P(2, 0, 1)).newton_pair
        assert passes == []

        data = InterpolationData.from_pairs([(Fraction(5, 3), [-1, 1]), (-3, [-2])])
        f, g = data.newton_pair
        assert passes == [3]
        assert f.coeffs == reference_nodal_poly(data)
        assert g.coeffs == reference_hermite_polynomial(data)

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
            assert f.coeff(f.degree) == 1
            for x, values in data.points:
                for j in range(len(values)):
                    assert derivative(f, j)(x) == 0
                assert derivative(f, len(values))(x) != 0


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
            P(2) + 3 * shifted + 2 * shifted * shifted + Fraction(5, 6) * shifted * shifted * shifted
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
                    assert derivative(g, j)(x) == y


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


def vanishes_at_no_node(b, data):
    """The reference node test: Fraction Horner over b's coefficients, cleared of denominators.

    Clearing them keeps the Fraction products cheap at integer nodes and
    leaves each value zero exactly when b's is.
    """
    m = math.lcm(*(c.denominator for c in b.coeffs))
    cleared = [c * m for c in b.coeffs]
    return all(frac_eval(cleared, x) != 0 for x in data.nodes)


class TestNodeTest:
    """Poly.nonzero_at decides every node exactly, from integer Horner alone."""

    def test_value_divisible_by_a_large_prime(self):
        data = InterpolationData.from_pairs([(0, [1])])
        assert P(-BIG_P, 1).nonzero_at(data.nodes)  # x - p has the value -p at 0
        assert not X.nonzero_at(data.nodes)

    def test_node_with_a_large_prime_denominator(self):
        data = InterpolationData.from_pairs([(2, [1]), (Fraction(1, BIG_P), [1])])
        assert P(3, 1).nonzero_at(data.nodes)
        assert not P(-1, BIG_P).nonzero_at(data.nodes)

    def test_coefficient_with_a_large_prime_denominator(self):
        data = InterpolationData.from_pairs([(1, [1]), (2, [1])])
        assert P(Fraction(1, BIG_P), 1).nonzero_at(data.nodes)

    def test_nonzero_at_every_node(self):
        assert P(1, 0, 1).nonzero_at(InterpolationData.from_pairs([(0, [1]), (3, [1])]).nodes)

    def test_zero_polynomial_vanishes_at_every_node(self):
        assert not ZERO.nonzero_at(InterpolationData.from_pairs([(5, [1])]).nodes)
        assert not ZERO.nonzero_at([Fraction(1, 3)])
        assert ZERO.nonzero_at([]) and X.nonzero_at([])
        nodes = (Fraction(1, 3), Fraction(0), Fraction(-4))
        assert ZERO.roots_among(nodes) == nodes and X.roots_among(()) == ()

    def test_roots_among_are_the_nodes_that_fail_the_node_test(self):
        rng = random.Random(40)
        for _ in range(100):
            data = random_data(rng, max_n=6)
            b = random_poly(rng, rng.randint(0, 3)) * (X - rng.choice(data.nodes))
            assert b.roots_among(data.nodes) == tuple(x for x in data.nodes if not b.nonzero_at((x,)))

    def test_agrees_with_exact_evaluation(self):
        rng = random.Random(39)
        for _ in range(200):
            data = random_data(rng, max_n=6)
            b = random_poly(rng, rng.randint(0, 4))
            if rng.random() < 0.5:  # plant a root at a node
                b = b * (X - rng.choice(data.nodes))
            assert b.nonzero_at(data.nodes) == vanishes_at_no_node(b, data)

    @pytest.mark.parametrize("family, n", [(integer_node_data, 32), (rational_node_data, 28),
                                           (repeated_node_data, 24)])
    def test_agrees_on_every_row_of_a_complete_trace(self, family, n):
        rng = random.Random(f"node-test-{family.__name__}")
        data = family(rng, n)
        trace = data.trace()
        assert trace.complete and trace.N >= n // 2
        for k in range(trace.N + 2):
            s = trace.s(k)
            for b in (s, s * (X - rng.choice(data.nodes))):  # the second has a root at a node
                assert b.nonzero_at(data.nodes) == vanishes_at_no_node(b, data)


def weak_pairs(data):
    """Every trace row raw and as a unit row, each also times a node factor, and family members."""
    trace = data.trace()
    nodes = data.nodes
    for k in range(trace.N + 2):  # row N + 1 is the zero row
        for a, b in ((trace.r(k), trace.s(k)), trace.unit_pair(k)):
            shared = X - nodes[k % len(nodes)]
            yield from ((a, b), (a * shared, b * shared))
    basis = minimal_basis(data)
    (a1, b1), (a2, b2) = basis.pair1, basis.pair2
    for e in range(basis.mu2 - basis.mu1, basis.mu2 - basis.mu1 + 2):
        for k in range(len(nodes) + 1):
            p = monomial(e) + k
            yield a2 + p * a1, b2 + p * b1


class TestWeakPairNodeTest:
    """interpolant tests b only where a vanishes when 0 <= deg a < deg b, and answers as if it tested b everywhere."""

    def test_none_exactly_when_b_vanishes_at_a_node(self, data_four, data_six_even):
        rng = random.Random(41)
        cases = [DATA_ALL_ZERO, data_four, data_six_even,
                 planted_data(rng, 24, P(1, -2, 3), P(-6, 1, 1))]  # b = (x - 2)(x + 3) vanishes at no node
        for family in (integer_node_data, repeated_node_data, rational_node_data):
            cases += [family(rng, n) for n in (6, 9, 12)]
        seen = {"low a": 0, "low a, None": 0, "zero b": 0}
        for data in cases:
            for a, b in weak_pairs(data):
                answer = interpolant(a, b, data)
                assert (answer is None) == (not b.nonzero_at(data.nodes))
                if answer is not None:
                    assert answer == RationalFunction(a, b)
                low = 0 <= a.degree < b.degree
                seen["low a"] += low
                seen["low a, None"] += low and answer is None
                seen["zero b"] += b.is_zero
        assert all(seen.values()), seen

    def test_b_is_evaluated_only_where_a_vanishes(self, monkeypatch):
        data = integer_node_data(random.Random(5), 12)
        trace = data.trace()
        k = next(k for k in range(1, trace.N + 1) if trace.r(k).degree < trace.s(k).degree)
        x0, x1 = data.nodes[3], data.nodes[7]
        shared = (X - x0) * (X - x1)
        a, b = trace.r(k) * shared, trace.s(k) * shared
        assert a.degree < b.degree
        where_a_vanishes = [x for x in data.nodes if a(x) == 0]
        assert x0 in where_a_vanishes and x1 in where_a_vanishes
        evaluated = []
        horner = exactpoly._horner

        def recording(ints, p, q):
            evaluated.append((Poly(ints), Fraction(p, q)))
            return horner(ints, p, q)

        monkeypatch.setattr(exactpoly, "_horner", recording)
        unit_a, unit_b = unit_split(a)[1], unit_split(b)[1]
        assert interpolant(a, b, data) is None
        assert [x for poly, x in evaluated if poly == unit_a] == list(data.nodes)
        # b first vanishes at x0, so the test stops there
        assert [x for poly, x in evaluated if poly == unit_b] == where_a_vanishes[:where_a_vanishes.index(x0) + 1]
        assert len(evaluated) == len(data.nodes) + where_a_vanishes.index(x0) + 1

        evaluated.clear()  # with deg a >= deg b, b at every node, a at none
        assert interpolant(trace.r(1), trace.s(1), data) is not None
        assert [x for _, x in evaluated] == list(data.nodes)


class TestFamilyMember:
    """``deltasolver._family_member``, the one search for members above the minimum."""

    def test_returns_the_member_of_the_least_k_that_passes_the_node_test(self):
        # UNIQUE, mu1 = 1, mu2 = 2: at delta = 3, p = x**2 and x**2 + 1 vanish at a node
        data = InterpolationData.from_pairs([(-1, [0]), (-3, [2]), (0, [-1])])
        basis = minimal_basis(data)
        (a1, b1), (a2, b2) = basis.pair1, basis.pair2
        members = [interpolant(a2 + (monomial(2) + k) * a1, b2 + (monomial(2) + k) * b1, data) for k in range(3)]
        assert members[0] is None and members[1] is None and members[2] is not None
        assert ds._family_member(data, basis, 3) == members[2]
        assert members[2] == evaluate_parametrization(basis, monomial(2) + 2, ONE, data)

    def test_raises_when_every_k_is_forbidden(self, data_four):
        # b1 and b2 vanish at the node 0, so b2 + p*b1 does for every p
        basis = ds.MinimalBasis((ONE, X), (monomial(2), monomial(2) - X), 1, 2, critical_index=0)
        with pytest.raises(CertificateError, match="every k"):
            ds._family_member(data_four, basis, 2)

    def test_raises_on_a_basis_that_is_not_row_reduced(self, data_four):
        # pair2 + x**(mu2 - mu1 + 1)*pair1 has degree mu2 + 1, declared mu2
        basis = minimal_basis(data_four)
        shift = monomial(basis.mu2 - basis.mu1 + 1)
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
