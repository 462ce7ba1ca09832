import random
from fractions import Fraction

import pytest

from ratinterp import (
    DegreeNotAdmissible,
    DenominatorVanishesAtNode,
    InterpolationData,
    ONE,
    RationalFunction,
    ZERO,
    ZeroDenominator,
    admissible_delta_set,
    check_interpolates,
    critical_indices,
    evaluate_parametrization,
    gcd,
    minimal_basis,
    minimal_delta_solutions,
    nodal_poly,
    sample_solution_of_delta,
)
from ratinterp.oracle import weak_pairs_upto

from conftest import P, basis_split_check, express_in_pair_basis, interp_trace, random_data


class TestCriticalIndices:
    def test_four_point(self, data_four):
        assert critical_indices(interp_trace(data_four)) == (2,)

    def test_six_even_has_two(self, data_six_even):
        assert critical_indices(interp_trace(data_six_even)) == (1, 2)

    def test_generic_even_count(self, data_generic4):
        # all quotient degrees are 1 and n = 2k, so the index is k
        assert critical_indices(interp_trace(data_generic4)) == (2,)

    def test_reciprocal(self, data_reciprocal):
        assert critical_indices(interp_trace(data_reciprocal)) == (1,)


class TestMinimalBasis:
    def test_four_point(self, data_four):
        b = minimal_basis(data_four)
        assert (b.mu1, b.mu2) == (2, 2)
        assert b.critical_index == 2
        assert b.pair1 == (P(0, 0, -3), P(0, -1))
        assert b.pair2 == (P(-2), P(1, 0, "-1/3"))

    def test_six_even(self, data_six_even):
        b = minimal_basis(data_six_even)
        assert (b.mu1, b.mu2) == (2, 4)
        assert b.critical_index == 1
        assert b.pair1 == (P(4, 0, -1), P(4, 0, -1))
        assert b.pair2 == (P(10, 0, -10, 0, 1), ONE)

    def test_all_zero_data(self, data_all_zero):
        b = minimal_basis(data_all_zero)
        assert b.pair1 == (ZERO, ONE)
        assert b.pair2 == (nodal_poly(data_all_zero), ZERO)
        assert (b.mu1, b.mu2) == (0, 3)

    def test_degree_split(self):
        rng = random.Random(47)
        for _ in range(60):
            basis_split_check(random_data(rng))


class TestMinimalDeltaSolutions:
    def test_four_point_family(self, data_four):
        report = minimal_delta_solutions(data_four)
        assert report.kind == "FAMILY"
        assert report.minimal_delta == 2
        assert report.family_degree == 0
        assert report.excluded_lambdas() == (Fraction(-2, 3), Fraction(-1, 6))
        assert check_interpolates(report.representative, data_four)
        assert report.representative.delta_degree == 2

    def test_six_even_family(self, data_six_even):
        report = minimal_delta_solutions(data_six_even)
        assert report.kind == "FAMILY"
        assert report.minimal_delta == 4
        assert report.family_degree == 2
        assert check_interpolates(report.representative, data_six_even)

    def test_reciprocal_unique(self, data_reciprocal):
        report = minimal_delta_solutions(data_reciprocal)
        assert report.kind == "UNIQUE"
        assert report.minimal_delta == 1
        assert report.representative == RationalFunction(ONE, P(-5, 1))
        assert report.node_constraints == ()

    def test_all_zero_unique(self, data_all_zero):
        report = minimal_delta_solutions(data_all_zero)
        assert report.kind == "UNIQUE"
        assert report.minimal_delta == 0
        assert report.representative == RationalFunction(ZERO, ONE)

    def test_exact_division_trace_family(self):
        # g | f: the one-quotient trace still yields a split 1 + 1 family,
        # and the full parametrization recovers g itself at (p, q) = (1, 0)
        data = InterpolationData.from_pairs([(0, [0]), (1, [1])])
        report = minimal_delta_solutions(data)
        assert report.kind == "FAMILY"
        assert report.minimal_delta == 1
        assert check_interpolates(report.representative, data)
        member = evaluate_parametrization(minimal_basis(data), ONE, ZERO, data)
        assert member == RationalFunction(P(0, 1), ONE)

    def test_line_data_is_unique(self):
        data = InterpolationData.from_pairs([(0, [1]), (1, [2]), (2, [3]), (3, [4])])
        report = minimal_delta_solutions(data)
        assert report.kind == "UNIQUE"
        assert report.representative == RationalFunction(P(1, 1), ONE)
        s = admissible_delta_set(data)
        assert (s.isolated, s.threshold) == (1, 3)

    def test_parabola_data_is_a_family(self):
        # two distinct minimal interpolants exist, so no uniqueness here
        data = InterpolationData.from_pairs([(0, [1]), (1, [2]), (2, [5]), (3, [10])])
        report = minimal_delta_solutions(data)
        assert report.kind == "FAMILY"
        assert report.minimal_delta == 2
        parabola = RationalFunction(P(1, 0, 1), ONE)
        other = RationalFunction(P(10), P(10, -6, 1))
        assert check_interpolates(parabola, data)
        assert check_interpolates(other, data)
        assert admissible_delta_set(data).isolated is None


class TestAdmissibleDeltaSet:
    def test_four_point(self, data_four):
        s = admissible_delta_set(data_four)
        assert (s.isolated, s.threshold) == (None, 2)
        assert 2 in s and 7 in s and 1 not in s

    def test_six_even(self, data_six_even):
        s = admissible_delta_set(data_six_even)
        assert (s.isolated, s.threshold) == (None, 4)
        assert 3 not in s

    def test_reciprocal(self, data_reciprocal):
        s = admissible_delta_set(data_reciprocal)
        assert (s.isolated, s.threshold) == (1, 3)
        assert 1 in s and 2 not in s and 3 in s

    def test_all_zero(self, data_all_zero):
        s = admissible_delta_set(data_all_zero)
        assert (s.isolated, s.threshold) == (0, 3)


class TestEvaluateParametrization:
    def test_family_members_accepted(self, data_four):
        basis = minimal_basis(data_four)
        for lam in (0, 1, 2, -1):
            rf = evaluate_parametrization(basis, P(lam), ONE, data_four)
            assert check_interpolates(rf, data_four)
            assert rf.delta_degree == 2

    def test_kappa_minimal_witness_is_the_lambda_zero_member(self, data_four):
        basis = minimal_basis(data_four)
        member = evaluate_parametrization(basis, ZERO, ONE, data_four)
        assert member == RationalFunction(P(6), P(-3, 0, 1))

    def test_forbidden_lambdas_rejected(self, data_four):
        basis = minimal_basis(data_four)
        with pytest.raises(DenominatorVanishesAtNode) as info:
            evaluate_parametrization(basis, P("-1/6"), ONE, data_four)
        assert info.value.node == 2
        with pytest.raises(DenominatorVanishesAtNode) as info:
            evaluate_parametrization(basis, P("-2/3"), ONE, data_four)
        assert info.value.node == -1

    def test_six_even_shared_factor_pair(self, data_six_even):
        # the small pair alone has denominator -x^2 + 4, zero at the node 2
        basis = minimal_basis(data_six_even)
        with pytest.raises(DenominatorVanishesAtNode) as info:
            evaluate_parametrization(basis, ONE, ZERO, data_six_even)
        assert info.value.node == 2

    def test_zero_pair_rejected(self, data_four):
        with pytest.raises(ValueError):
            evaluate_parametrization(minimal_basis(data_four), ZERO, ZERO, data_four)

    def test_zero_denominator_combination(self, data_four):
        basis = minimal_basis(data_four)
        # p*b1 + q*b2 == 0 for p = 3*b2, q = -3*b1
        with pytest.raises(ZeroDenominator):
            evaluate_parametrization(basis, P(3, 0, -1), P(0, 3), data_four)


class TestSampleSolutionOfDelta:
    def test_four_point_minimal(self, data_four):
        rf = sample_solution_of_delta(data_four, 2)
        assert rf.delta_degree == 2
        assert check_interpolates(rf, data_four)

    def test_four_point_above_minimal(self, data_four):
        rf = sample_solution_of_delta(data_four, 3)
        assert rf.delta_degree == 3
        assert check_interpolates(rf, data_four)

    def test_below_threshold_rejected(self, data_four, data_six_even):
        with pytest.raises(DegreeNotAdmissible):
            sample_solution_of_delta(data_four, 1)
        with pytest.raises(DegreeNotAdmissible):
            sample_solution_of_delta(data_six_even, 3)

    def test_reciprocal_ladder(self, data_reciprocal):
        assert sample_solution_of_delta(data_reciprocal, 1) == RationalFunction(ONE, P(-5, 1))
        with pytest.raises(DegreeNotAdmissible):
            sample_solution_of_delta(data_reciprocal, 2)
        for delta in (3, 4, 5):
            rf = sample_solution_of_delta(data_reciprocal, delta)
            assert rf.delta_degree == delta
            assert check_interpolates(rf, data_reciprocal)

    def test_all_zero_ladder(self, data_all_zero):
        assert sample_solution_of_delta(data_all_zero, 0) == RationalFunction(ZERO, ONE)
        with pytest.raises(DegreeNotAdmissible):
            sample_solution_of_delta(data_all_zero, 2)
        rf = sample_solution_of_delta(data_all_zero, 4)
        assert rf.delta_degree == 4
        assert check_interpolates(rf, data_all_zero)

    def test_negative_degree(self, data_four):
        with pytest.raises(ValueError):
            sample_solution_of_delta(data_four, -1)

    def test_random_ladders(self):
        rng = random.Random(53)
        for _ in range(15):
            data = random_data(rng, max_n=6)
            dset = admissible_delta_set(data)
            for delta in range(data.n + 2):
                if delta in dset:
                    rf = sample_solution_of_delta(data, delta)
                    assert rf.delta_degree == delta
                    assert check_interpolates(rf, data)
                else:
                    with pytest.raises(DegreeNotAdmissible):
                        sample_solution_of_delta(data, delta)


class TestModuleStructure:
    def test_kernel_triples_max_degree(self, data_four):
        # for kernel triples the cofactor never dominates the pair
        rng = random.Random(59)
        tr = interp_trace(data_four)
        rows = [tr.rows[i] for i in range(tr.N + 2)]
        for _ in range(40):
            pick = rng.sample(range(len(rows)), 2)
            w0 = rng.randint(-3, 3)
            w1 = rng.randint(-3, 3)
            a = w0 * rows[pick[0]][0] + w1 * rows[pick[1]][0]
            b = w0 * rows[pick[0]][1] + w1 * rows[pick[1]][1]
            c = w0 * rows[pick[0]][2] + w1 * rows[pick[1]][2]
            assert max(a.degree, b.degree, c.degree) == max(a.degree, b.degree)

    def test_basis_common_factors_are_node_factors(self):
        rng = random.Random(61)
        for _ in range(40):
            data = random_data(rng, max_n=6)
            basis = minimal_basis(data)
            for a, b in (basis.pair1, basis.pair2):
                if a.is_zero or b.is_zero:
                    continue
                common = gcd(a, b)
                for x in data.nodes:
                    while common(x) == 0:
                        common = common.div_rem(P(-x, 1))[0]
                assert common.degree == 0, "non-node common factor in a basis pair"
            b1 = basis.pair1[1]
            b2 = basis.pair2[1]
            assert all(b1(x) != 0 or b2(x) != 0 for x in data.nodes)

    def test_every_bounded_weak_pair_lies_in_the_basis_span(self):
        """Exact membership of brute-force pairs in the two-pair module."""
        rng = random.Random(67)
        for _ in range(300):
            data = random_data(rng, max_n=5)
            basis = minimal_basis(data)
            delta = basis.mu2 + rng.randint(0, 1)
            for a, b in weak_pairs_upto(data, delta, delta):
                combo = express_in_pair_basis(
                    (a, b), basis.pair1, basis.pair2, delta - basis.mu1, delta - basis.mu2
                )
                assert combo is not None
                p, q = combo
                assert p * basis.pair1[0] + q * basis.pair2[0] == a
                assert p * basis.pair1[1] + q * basis.pair2[1] == b

    def test_no_degree_strictly_between(self):
        # between mu1 and mu2 every bounded weak pair is a multiple of pair1
        rng = random.Random(71)
        seen = 0
        while seen < 25:
            data = random_data(rng, max_n=7)
            basis = minimal_basis(data)
            if basis.mu1 == basis.mu2:
                continue
            seen += 1
            for delta in range(basis.mu1 + 1, basis.mu2):
                for pair in weak_pairs_upto(data, delta, delta):
                    combo = express_in_pair_basis(
                        pair, basis.pair1, basis.pair2, delta - basis.mu1, -1
                    )
                    assert combo is not None, "weak pair outside the span of pair1"
