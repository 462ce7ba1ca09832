import random
from fractions import Fraction

import pytest

from ratinterp import CertificateError, PlaneParametrization, check_weak, minimal_basis, monomial
from ratinterp import oracle
from ratinterp.oracle import (
    _convolution_rows,
    kappa_values_below_n,
    min_degree_weak_pair,
    min_mu_oracle,
    nullspace,
    solve_linear,
    weak_pairs_upto,
    weak_system,
)

from conftest import (
    DATA_ALL_ZERO,
    DATA_FOUR,
    DATA_GENERIC4,
    DATA_RECIPROCAL,
    DATA_SIX_EVEN,
    P,
    random_data,
    random_poly,
)

F = Fraction


class TestElimination:
    def test_nullspace_of_rank_one_matrix(self):
        basis = nullspace([[F(1), F(2)], [F(2), F(4)]], 2)
        assert len(basis) == 1
        v = basis[0]
        assert v[0] + 2 * v[1] == 0 and any(v)

    def test_nullspace_of_full_rank(self):
        assert nullspace([[F(1), F(0)], [F(1), F(1)]], 2) == []

    def test_nullspace_of_zero_matrix(self):
        basis = nullspace([[F(0), F(0)]], 2)
        assert len(basis) == 2

    def test_nullspace_with_fractions(self):
        rows = [[F(1, 3), F(1, 6), F(0)], [F(0), F(1, 2), F(1, 7)]]
        for v in nullspace(rows, 3):
            for row in rows:
                assert sum(c * x for c, x in zip(row, v)) == 0

    def test_solve_linear(self):
        x = solve_linear([[F(2), F(0)], [F(1), F(1)]], [F(4), F(5)])
        assert x == [F(2), F(3)]

    def test_solve_inconsistent(self):
        assert solve_linear([[F(1), F(1)], [F(2), F(2)]], [F(1), F(3)]) is None

    def test_solve_underdetermined(self):
        x = solve_linear([[F(1), F(1)]], [F(3)])
        assert x is not None and x[0] + x[1] == 3

    def test_nullspace_checks_its_vectors(self, monkeypatch):
        # an elimination that loses the second column yields (0, 1), which fails x + y = 0
        monkeypatch.setattr(oracle, "_row_echelon_ff", lambda rows: ([[1, 0]], [0]))
        with pytest.raises(CertificateError, match="does not solve"):
            nullspace([[F(1), F(1)]], 2)

    def test_random_nullspaces_are_exact(self):
        rng = random.Random(109)
        for _ in range(40):
            nrows, ncols = rng.randint(1, 5), rng.randint(1, 6)
            rows = [
                [F(rng.randint(-6, 6), rng.choice((1, 2, 3))) for _ in range(ncols)]
                for _ in range(nrows)
            ]
            basis = nullspace(rows, ncols)
            for v in basis:
                assert any(v)
                for row in rows:
                    assert sum(c * x for c, x in zip(row, v)) == 0
            # dimension = ncols - rank; re-derive rank by a second pass
            rank = ncols - len(basis)
            assert 0 <= rank <= min(nrows, ncols)

    def test_convolution_rows_apply_the_product_map(self):
        # every coefficient of sum p_j*u_j has its row, a negative bound included
        rng = random.Random(131)
        for _ in range(60):
            k = rng.randint(1, 3)
            degrees = tuple(rng.randint(-1, 3) for _ in range(k))
            block = tuple(random_poly(rng, rng.randint(-1, 4)) for _ in range(k))
            us = [random_poly(rng, rng.randint(-1, d)) for d in degrees]
            rows = _convolution_rows([block], degrees)
            vector = [u.coeff(i) for u, d in zip(us, degrees) for i in range(d + 1)]
            total = sum((p * u for p, u in zip(block, us)), P())
            assert total.degree < len(rows)
            assert all(len(row) == len(vector) for row in rows)
            assert [sum(c * x for c, x in zip(row, vector)) for row in rows] == [
                total.coeff(m) for m in range(len(rows))
            ]


class TestWeakPairs:
    def test_system_row_count(self):
        matrix = weak_system(DATA_FOUR, 2, 2)
        assert len(matrix) == DATA_FOUR.n
        assert all(len(row) == 6 for row in matrix)

    def test_four_point_space(self):
        pairs = weak_pairs_upto(DATA_FOUR, 2, 2)
        assert len(pairs) == 2
        for a, b in pairs:
            assert check_weak(a, b, DATA_FOUR)

    def test_four_point_below_minimal(self):
        assert weak_pairs_upto(DATA_FOUR, 1, 1) == []

    def test_trace_rows_lie_in_the_space(self):
        # both degree-2 trace pairs must be combinations of the basis
        pairs = weak_pairs_upto(DATA_FOUR, 2, 2)
        targets = [(P(0, 0, -3), P(0, -1)), (P(-2), P(1, 0, "-1/3"))]
        for ta, tb in targets:
            cols = [[pa.coeff(k) for pa, _ in pairs] for k in range(3)]
            cols += [[pb.coeff(k) for _, pb in pairs] for k in range(3)]
            rhs = [ta.coeff(k) for k in range(3)] + [tb.coeff(k) for k in range(3)]
            assert solve_linear(cols, rhs) is not None

    def test_min_degree_examples(self):
        assert min_degree_weak_pair(DATA_FOUR) == 2
        assert min_degree_weak_pair(DATA_SIX_EVEN) == 2
        assert min_degree_weak_pair(DATA_GENERIC4) == 2
        assert min_degree_weak_pair(DATA_RECIPROCAL) == 1
        assert min_degree_weak_pair(DATA_ALL_ZERO) == 0

    def test_min_degree_without_a_pair_is_a_certificate_error(self, monkeypatch):
        monkeypatch.setattr(oracle, "weak_pairs_upto", lambda data, da, db: [])
        with pytest.raises(CertificateError, match="no weak pair up to degree n"):
            min_degree_weak_pair(DATA_FOUR)

    def test_dimension_formula(self):
        rng = random.Random(113)
        for _ in range(25):
            data = random_data(rng, max_n=6)
            basis = minimal_basis(data)
            for delta in range(data.n + 1):
                expected = max(0, delta + 1 - basis.mu1) + max(0, delta + 1 - basis.mu2)
                assert len(weak_pairs_upto(data, delta, delta)) == expected


class TestMovingLineOracle:
    def test_examples(self):
        assert min_mu_oracle(PlaneParametrization(P(0, 0, 6, 0, -4), P(0, 4, 0, -4))) == 2
        assert min_mu_oracle(PlaneParametrization(monomial(5), monomial(2))) == 2
        assert min_mu_oracle(PlaneParametrization(monomial(2), monomial(1))) == 1

    def test_no_moving_line_is_a_certificate_error(self, monkeypatch):
        monkeypatch.setattr(oracle, "nullspace", lambda matrix, ncols: [])
        with pytest.raises(CertificateError, match="no moving line up to degree n"):
            min_mu_oracle(PlaneParametrization(monomial(2), monomial(1)))


class TestKappaSearch:
    def test_standard_instances(self):
        assert kappa_values_below_n(DATA_FOUR) == {2, 3}
        assert kappa_values_below_n(DATA_SIX_EVEN) == {4}
        assert kappa_values_below_n(DATA_GENERIC4) == {3}
        assert kappa_values_below_n(DATA_RECIPROCAL) == {1, 3}
        assert kappa_values_below_n(DATA_ALL_ZERO) == {0}

    def test_elimination_coprimality_matches_gcd(self):
        import random

        from ratinterp import ZERO, gcd
        from ratinterp.oracle import _coprime

        from conftest import random_poly

        rng = random.Random(127)
        for _ in range(150):
            shared = random_poly(rng, rng.randint(-1, 2))
            a = random_poly(rng, rng.randint(-1, 4))
            b = random_poly(rng, rng.randint(-1, 4))
            if not shared.is_zero:
                a, b = a * shared, b * shared
            if a.is_zero and b.is_zero:
                continue
            assert _coprime(a, b) == (gcd(a, b).degree == 0)
        assert _coprime(ZERO, P(5))
        assert not _coprime(ZERO, P(0, 5))
