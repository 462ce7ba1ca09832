import random

import pytest

import ratinterp.kappasolver as kappasolver
from ratinterp import (
    InterpolationData,
    KappaNotAdmissible,
    NotAnInterpolant,
    ONE,
    RationalFunction,
    ZERO,
    admissible_kappa,
    check_interpolates,
    decompose,
    hermite_polynomial,
    hermite_rational,
    kappa_of,
    minimal_basis,
    minimal_delta_solutions,
    sample_solution_of_kappa,
    weak_cofactor,
    yy_form,
)
from ratinterp.oracle import _split_has_interpolant, kappa_values_below_n

from conftest import (
    P,
    coprimality_for_free_check,
    integer_node_data,
    interp_trace,
    planted_data,
    random_data,
    random_poly,
    rational_node_data,
    repeated_node_data,
)


def beyond_the_old_scan(seed):
    """Instances at n = 8..12, where a grid scan never ran: repeated and rational
    nodes, and samples of a planted a/b, whose degree sums below n are not all n - 1."""
    rng = random.Random(seed)
    instances = [family(rng, rng.randint(8, 12)) for family in (repeated_node_data, rational_node_data) * 2]
    instances.append(planted_data(rng, rng.randint(8, 12), random_poly(rng, 2), random_poly(rng, 2)))
    return instances


class TestKappaOf:
    def test_polynomial(self):
        assert kappa_of(RationalFunction(P(-2, 0, 0, 1), ONE)) == 3

    def test_proper_fraction(self):
        assert kappa_of(RationalFunction(P(6), P(-3, 0, 1))) == 2

    def test_quartic_denominator(self):
        assert kappa_of(RationalFunction(P(4), P(3, 0, -2, 0, 1))) == 4

    def test_zero_function(self):
        assert kappa_of(RationalFunction(ZERO, ONE)) == 0


class TestYYForm:
    def test_hermite_polynomial_is_row_one(self, data_four):
        dec = yy_form(RationalFunction(hermite_polynomial(data_four), ONE), data_four)
        assert list(dec.m) == [ZERO, ONE, ZERO, ZERO, ZERO]

    def test_minimal_fraction_is_a_scaled_last_row(self, data_four):
        dec = yy_form(RationalFunction(P(6), P(-3, 0, 1)), data_four)
        assert list(dec.m) == [ZERO, ZERO, ZERO, P(-3), ZERO]

    def test_family_member_raw_and_canonical(self, data_four):
        # raw sum of rows 2 and 3 decomposes with unit coordinates; the
        # canonical representative is that pair rescaled by -3
        tr = interp_trace(data_four)
        a = tr.r(2) + tr.r(3)
        b = tr.s(2) + tr.s(3)
        c = tr.t(2) + tr.t(3)
        raw = decompose(a, b, c, tr)
        assert list(raw.m) == [ZERO, ZERO, ONE, ONE, ZERO]
        rf = RationalFunction(a, b)
        canonical = yy_form(rf, data_four)
        assert list(canonical.m) == [ZERO, ZERO, P(-3), P(-3), ZERO]

    def test_rejects_non_interpolant(self, data_four):
        with pytest.raises(NotAnInterpolant):
            yy_form(RationalFunction(P(0, 3), ONE), data_four)

    def test_a_pole_at_a_node_is_refused_before_the_weak_division(self, data_four, monkeypatch):
        """1/(x - 2) has a pole at the node 2: the node test refuses it, and a - b*g is never divided by f."""
        def refused(*args):
            raise RuntimeError("weak_cofactor called")
        monkeypatch.setattr(kappasolver, "weak_cofactor", refused)
        with pytest.raises(NotAnInterpolant):
            yy_form(RationalFunction(ONE, P(-2, 1)), data_four)

    def test_zero_data_decomposes_on_the_trivial_trace(self, data_all_zero):
        assert yy_form(RationalFunction(ZERO, ONE), data_all_zero).m == (ZERO, ONE)


class TestAdmissibleKappa:
    def test_four_point(self, data_four):
        report = admissible_kappa(data_four)
        assert report.tail_threshold == 4
        assert [(e.kappa, e.index) for e in report.isolated] == [(3, 1), (2, 3)]
        assert report.minimal_kappa == 2
        assert report.minimal_solutions == (RationalFunction(P(6), P(-3, 0, 1)),)
        assert str(report) == report.text()

    def test_four_point_row_two_excluded(self, data_four):
        # s_2 = -x vanishes at the node 0
        assert all(e.index != 2 for e in admissible_kappa(data_four).isolated)

    def test_six_even(self, data_six_even):
        report = admissible_kappa(data_six_even)
        assert report.minimal_kappa == 4
        assert [(e.kappa, e.index) for e in report.isolated] == [(4, 1), (4, 3)]
        assert report.minimal_solutions == (
            RationalFunction(P(10, 0, -10, 0, 1), ONE),
            RationalFunction(P(14), P(23, 0, -10, 0, 1)),
        )

    def test_generic_four(self, data_generic4):
        report = admissible_kappa(data_generic4)
        assert report.minimal_kappa == 3  # n - 1 in the all-linear-quotient case
        assert [e.index for e in report.isolated] == [1, 3, 4]
        hermite = RationalFunction(hermite_polynomial(data_generic4), ONE)
        assert hermite in report.minimal_solutions

    def test_reciprocal(self, data_reciprocal):
        report = admissible_kappa(data_reciprocal)
        assert report.minimal_kappa == 1
        assert report.minimal_solutions == (RationalFunction(ONE, P(-5, 1)),)
        assert {e.kappa for e in report.isolated} == {1, 3}

    def test_all_zero(self, data_all_zero):
        report = admissible_kappa(data_all_zero)
        assert report.minimal_kappa == 0
        assert report.minimal_solutions == (RationalFunction(ZERO, ONE),)

    def test_witnesses_interpolate_at_the_right_degree(self):
        rng = random.Random(73)
        for _ in range(30):
            data = random_data(rng, max_n=6)
            report = admissible_kappa(data)
            for entry in report.isolated:
                assert entry.kappa < data.n
                assert check_interpolates(entry.solution, data)
                assert kappa_of(entry.solution) == entry.kappa
            coprimality_for_free_check(data)


class TestSampleSolutionOfKappa:
    def test_four_point_minimal(self, data_four):
        assert sample_solution_of_kappa(data_four, 2) == RationalFunction(P(6), P(-3, 0, 1))

    def test_four_point_isolated_three(self, data_four):
        assert sample_solution_of_kappa(data_four, 3) == RationalFunction(P(-2, 0, 0, 1), ONE)

    def test_four_point_tail(self, data_four):
        for kappa in (4, 5, 6):
            rf = sample_solution_of_kappa(data_four, kappa)
            assert kappa_of(rf) == kappa
            assert check_interpolates(rf, data_four)

    def test_four_point_inadmissible(self, data_four):
        for kappa in (0, 1):
            with pytest.raises(KappaNotAdmissible):
                sample_solution_of_kappa(data_four, kappa)

    def test_six_even_gap(self, data_six_even):
        with pytest.raises(KappaNotAdmissible):
            sample_solution_of_kappa(data_six_even, 5)
        assert sample_solution_of_kappa(data_six_even, 4) == RationalFunction(
            P(10, 0, -10, 0, 1), ONE
        )

    def test_all_zero_ladder(self, data_all_zero):
        assert sample_solution_of_kappa(data_all_zero, 0) == RationalFunction(ZERO, ONE)
        with pytest.raises(KappaNotAdmissible):
            sample_solution_of_kappa(data_all_zero, 2)
        for kappa in (3, 5):
            rf = sample_solution_of_kappa(data_all_zero, kappa)
            assert kappa_of(rf) == kappa
            assert check_interpolates(rf, data_all_zero)

    def test_negative(self, data_four):
        with pytest.raises(ValueError):
            sample_solution_of_kappa(data_four, -2)

    def test_exact_division_trace(self):
        # g divides f here, so the trace stops after one quotient and the
        # degree-sum n sampler has no consecutive row pair above index 0
        data = InterpolationData.from_pairs([(0, [0]), (1, [1])])
        report = admissible_kappa(data)
        assert [(e.kappa, e.index) for e in report.isolated] == [(1, 1)]
        assert report.minimal_solutions == (RationalFunction(P(0, 1), ONE),)
        rf = sample_solution_of_kappa(data, 2)
        assert kappa_of(rf) == 2
        assert check_interpolates(rf, data)
        with pytest.raises(KappaNotAdmissible):
            sample_solution_of_kappa(data, 0)

    def test_random_ladders(self):
        rng = random.Random(79)
        for _ in range(10):
            data = random_data(rng, max_n=6)
            report = admissible_kappa(data)
            for kappa in range(data.n + 2):
                if report.is_admissible(kappa):
                    rf = sample_solution_of_kappa(data, kappa)
                    assert kappa_of(rf) == kappa
                    assert check_interpolates(rf, data)
                else:
                    with pytest.raises(KappaNotAdmissible):
                        sample_solution_of_kappa(data, kappa)


class TestHermiteRational:
    def test_four_point_table(self, data_four):
        minimal = RationalFunction(P(6), P(-3, 0, 1))
        hermite = RationalFunction(P(-2, 0, 0, 1), ONE)
        assert hermite_rational(data_four, 0) == minimal
        assert hermite_rational(data_four, 1) == minimal
        assert hermite_rational(data_four, 2) is None
        assert hermite_rational(data_four, 3) == hermite

    def test_six_even_table(self, data_six_even):
        low = RationalFunction(P(14), P(23, 0, -10, 0, 1))
        hermite = RationalFunction(P(10, 0, -10, 0, 1), ONE)
        assert hermite_rational(data_six_even, 0) == low
        assert hermite_rational(data_six_even, 1) == low
        assert hermite_rational(data_six_even, 2) is None
        assert hermite_rational(data_six_even, 3) is None
        assert hermite_rational(data_six_even, 4) == hermite
        assert hermite_rational(data_six_even, 5) == hermite

    def test_reciprocal(self, data_reciprocal):
        low = RationalFunction(ONE, P(-5, 1))
        for d in (0, 1, 2):
            assert hermite_rational(data_reciprocal, d) == low
        assert hermite_rational(data_reciprocal, 3) == RationalFunction(
            hermite_polynomial(data_reciprocal), ONE
        )

    def test_all_zero(self, data_all_zero):
        for d in range(data_all_zero.n):
            assert hermite_rational(data_all_zero, d) == RationalFunction(ZERO, ONE)

    def test_range_errors(self, data_four):
        with pytest.raises(ValueError):
            hermite_rational(data_four, -1)
        with pytest.raises(ValueError):
            hermite_rational(data_four, 4)

    def test_solution_satisfies_the_split(self):
        rng = random.Random(83)
        for _ in range(25):
            data = random_data(rng, max_n=6)
            for d in range(data.n):
                rf = hermite_rational(data, d)
                if rf is None:
                    continue
                assert max(rf.numer.degree, 0) <= d
                assert rf.denom.degree <= data.n - d - 1
                assert check_interpolates(rf, data)

    def test_agreement_with_brute_force_existence(self):
        rng = random.Random(89)
        for data in [random_data(rng, max_n=5) for _ in range(15)] + beyond_the_old_scan(91):
            n = data.n
            for d in range(n):
                exists = any(
                    _split_has_interpolant(data, da, db)
                    for da in range(d + 1)
                    for db in range(n - d)
                )
                assert (hermite_rational(data, d) is not None) == exists


def test_isolated_set_matches_exhaustive_search():
    rng = random.Random(97)
    for data in [random_data(rng, max_n=6) for _ in range(12)] + beyond_the_old_scan(99):
        report = admissible_kappa(data)
        assert {e.kappa for e in report.isolated} == kappa_values_below_n(data)


def test_kappa_and_delta_minimums_are_consistent():
    # kappa(y) >= delta(y), so the kappa minimum can never undercut mu1
    rng = random.Random(101)
    for _ in range(25):
        data = random_data(rng, max_n=6)
        assert admissible_kappa(data).minimal_kappa >= minimal_basis(data).mu1


def test_minimal_delta_is_a_trace_row_answer():
    """The three solvers read one trace: a UNIQUE minimal-delta solution is the
    prescribed-split interpolant at d = mu1 and an isolated kappa witness, and a
    FAMILY with mu1 < mu2 has no interpolant of numerator degree <= mu1."""
    rng = random.Random(151)
    kinds = {"UNIQUE": 0, "FAMILY": 0}
    for _ in range(200):
        for family in (integer_node_data, repeated_node_data, rational_node_data):
            data = family(rng, rng.randint(1, 12))
            report = minimal_delta_solutions(data)
            mu1, mu2 = report.basis.mu1, report.basis.mu2
            if report.kind == "UNIQUE":
                assert hermite_rational(data, mu1) == report.representative
                assert report.representative in {e.solution for e in admissible_kappa(data).isolated}
            elif mu1 < mu2:
                assert hermite_rational(data, mu1) is None
            else:
                continue
            kinds[report.kind] += 1
    assert min(kinds.values()) >= 1


def test_weak_cofactor_feeds_yy_form(data_four):
    rf = RationalFunction(P(6), P(-3, 0, 1))
    c = weak_cofactor(rf.numer, rf.denom, data_four)
    assert c == P(0, -1)  # 6 - (x^2 - 3)(x^3 - 2) == -x * f
