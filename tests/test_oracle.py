import itertools
import random
from fractions import Fraction

import pytest

from ratinterp import (
    CertificateError,
    InterpolationData,
    PlaneParametrization,
    X,
    check_weak,
    gcd,
    minimal_basis,
    monomial,
    mu_basis,
)
from ratinterp import oracle
from ratinterp.oracle import (
    _convolution_rows,
    _split_has_interpolant,
    kappa_values_below_n,
    min_degree_weak_pair,
    min_mu_oracle,
    nullspace,
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
    express_in_pair_basis,
    integer_node_data,
    random_data,
    random_poly,
    rational_node_data,
    repeated_node_data,
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
        # an all-zero system, or no rows at all, leaves every column free
        for rows in ([[F(0), F(0)]], [[F(0), F(0)], [F(0), F(0)]], []):
            assert nullspace(rows, 2) == [[F(1), F(0)], [F(0), F(1)]]

    def test_nullspace_with_fractions(self):
        rows = [[F(1, 3), F(1, 6), F(0)], [F(0), F(1, 2), F(1, 7)]]
        for v in nullspace(rows, 3):
            for row in rows:
                assert sum(c * x for c, x in zip(row, v)) == 0

    def test_nullspace_checks_its_vectors(self, monkeypatch):
        # an elimination that loses the second column yields (0, 1), which fails x + y = 0
        monkeypatch.setattr(oracle, "_row_echelon_ff", lambda rows, width: ([[1, 0]], [0]))
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
        for target in targets:
            assert express_in_pair_basis(target, pairs[0], pairs[1], 0, 0) is not None

    def test_pair_outside_the_span_has_no_coordinates(self):
        # (1, 0) is no combination of (x, 0) and (0, 1), at any degree bounds
        for dp, dq in ((0, 0), (2, 3), (-1, 1)):
            assert express_in_pair_basis((P(1), P()), (X, P()), (P(), P(1)), dp, dq) is None

    def test_surplus_degree_bounds_reproduce_the_pair(self):
        rng = random.Random(137)
        for _ in range(30):
            basis1 = (random_poly(rng, rng.randint(0, 3)), random_poly(rng, rng.randint(0, 3)))
            basis2 = (random_poly(rng, rng.randint(0, 3)), random_poly(rng, rng.randint(0, 3)))
            u, v = random_poly(rng, rng.randint(-1, 2)), random_poly(rng, rng.randint(-1, 2))
            pair = (u * basis1[0] + v * basis2[0], u * basis1[1] + v * basis2[1])
            combo = express_in_pair_basis(pair, basis1, basis2, 3, 3)
            assert combo is not None
            p, q = combo
            assert p.degree <= 3 and q.degree <= 3
            assert (p * basis1[0] + q * basis2[0], p * basis1[1] + q * basis2[1]) == pair

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

    def test_search_stops_at_the_dimension_count(self, monkeypatch):
        # degree <= d has 2(d + 1) unknowns for n = 74 conditions, so a kernel exists at
        # d = 37 and the bisection covers 0..37 only: for mu = 1 it starts at d = 19
        degrees = []

        def recording(matrix, ncols):
            degrees.append(ncols // 2 - 1)
            return nullspace(matrix, ncols)

        monkeypatch.setattr(oracle, "nullspace", recording)
        assert min_mu_oracle(PlaneParametrization(monomial(74), monomial(1))) == 1
        assert degrees and max(degrees) <= 19, degrees


class TestKappaSearch:
    def test_standard_instances(self):
        assert kappa_values_below_n(DATA_FOUR) == {2, 3}
        assert kappa_values_below_n(DATA_SIX_EVEN) == {4}
        assert kappa_values_below_n(DATA_GENERIC4) == {3}
        assert kappa_values_below_n(DATA_RECIPROCAL) == {1, 3}
        assert kappa_values_below_n(DATA_ALL_ZERO) == {0}


def constant_data(rng, n, double=False):
    """One constant value at simple nodes 0..n-1, or at double nodes (derivative 0)."""
    c = rng.randint(-9, 9)
    if not double:
        return InterpolationData.from_pairs([(x, [c]) for x in range(n)])
    return InterpolationData.from_pairs([(x, [c, 0][: n - 2 * x]) for x in range((n + 1) // 2)])


def splits_below_n(n):
    return [(da, kappa - da) for kappa in range(n) for da in range(kappa + 1)]


def grid_scan_reference(data, da, db):
    """The split decision by scanning a grid of multipliers of the weak-pair basis.

    The valid members of the space (exact top degrees, denominator nonzero
    at the nodes, coprime) form the complement of finitely many
    hypersurfaces, so a full scan of a grid larger than the product degree
    exhibits a member or proves there is none; the grid is exponential in
    the dimension of the space.
    """
    basis = weak_pairs_upto(data, da, db)
    if not basis:
        return False
    # identically-failing linear conditions end the search early;
    # the zero numerator is still a valid reduced fraction when db == 0
    if (da > 0 or db > 0) and all(a.coeff(da) == 0 for a, _ in basis):
        return False
    if all(b.coeff(db) == 0 for _, b in basis):
        return False
    if any(all(b(x) == 0 for _, b in basis) for x in data.nodes):
        return False
    grid_size = 2 + len(data.nodes) + da + db + 1
    for lams in itertools.product(range(grid_size), repeat=len(basis)):
        if not any(lams):
            continue
        a = sum((lam * ba for lam, (ba, _) in zip(lams, basis)), P())
        b = sum((lam * bb for lam, (_, bb) in zip(lams, basis)), P())
        if (a.degree == da or (a.is_zero and da == 0)) and b.degree == db \
                and all(b(x) != 0 for x in data.nodes) and gcd(a, b).degree == 0:
            return True
    return False


class TestSplitKernel:
    """Below n every weak pair of a split is proportional, so one kernel decides it."""

    def test_weak_pairs_of_a_split_are_proportional(self):
        rng = random.Random(137)
        families = [integer_node_data, repeated_node_data, rational_node_data,
                    constant_data, lambda r, n: constant_data(r, n, double=True),
                    lambda r, n: InterpolationData.from_pairs([(x, [0]) for x in range(n)])]
        for family in families:
            for n in (rng.randint(3, 6), rng.randint(7, 10)):
                data = family(rng, n)
                for da, db in splits_below_n(data.n):
                    basis = weak_pairs_upto(data, da, db)
                    for (a, b), (a2, b2) in itertools.combinations(basis, 2):
                        assert a * b2 == a2 * b, (data, da, db)

    def test_a_one_vector_kernel_is_reduced(self):
        """Why the split decision needs no coprimality test of its own.

        Every accepted split's vector is coprime; and a reduced pair times a
        factor h with no node root spans, with it, a kernel of dimension >= 2.
        """
        rng = random.Random(149)
        families = [integer_node_data, repeated_node_data, rational_node_data, constant_data,
                    lambda r, n: InterpolationData.from_pairs([(x, [0]) for x in range(n)])]
        h = monomial(2) + 1  # no rational root, so prime to every f
        accepted = 0
        for family in families:
            for n in (rng.randint(2, 6), rng.randint(7, 10)):
                data = family(rng, n)
                for da, db in splits_below_n(data.n):
                    if not _split_has_interpolant(data, da, db):
                        continue
                    ((a, b),) = weak_pairs_upto(data, da, db)
                    assert gcd(a, b).degree == 0, (data, da, db)
                    box = (max((h * a).degree, 0), (h * b).degree)
                    assert len(weak_pairs_upto(data, *box)) >= 2, (data, da, db)
                    accepted += 1
        assert accepted >= 30

    def test_non_proportional_pairs_are_a_certificate_error(self, monkeypatch):
        monkeypatch.setattr(oracle, "weak_pairs_upto", lambda data, da, db: [(P(1), P(1)), (P(0, 1), P(1))])
        with pytest.raises(CertificateError, match="not proportional"):
            _split_has_interpolant(DATA_FOUR, 1, 0)

    def test_split_of_degree_sum_n_is_a_value_error(self):
        with pytest.raises(ValueError, match="needs da \\+ db < n"):
            _split_has_interpolant(DATA_FOUR, 2, 2)

    def test_kernel_matches_the_grid_scan(self):
        rng = random.Random(139)
        instances = [random_data(rng, max_n=5) for _ in range(12)]
        instances += [constant_data(rng, n, double) for n in (4, 5) for double in (False, True)]
        instances.append(DATA_ALL_ZERO)
        for data in instances:
            for da, db in splits_below_n(data.n):
                assert _split_has_interpolant(data, da, db) == grid_scan_reference(data, da, db), (data, da, db)


def test_minimum_searches_bisect_the_degree(monkeypatch):
    # a nonzero pair or line of degree <= d is one of degree <= d + 1, so
    # about log2(n + 2) eliminations decide the minimum, not one per degree
    eliminations = []
    real = oracle.nullspace

    def counted(matrix, ncols):
        eliminations.append(ncols)
        return real(matrix, ncols)

    monkeypatch.setattr(oracle, "nullspace", counted)
    rng = random.Random(5)
    data = InterpolationData.from_pairs([(x, [rng.randint(-9, 9)]) for x in range(16)])
    assert min_degree_weak_pair(data) == minimal_basis(data).mu1
    assert len(eliminations) <= 5
    eliminations.clear()
    curve = PlaneParametrization(random_poly(rng, 16), random_poly(rng, 15))
    assert min_mu_oracle(curve) == mu_basis(curve).mu
    assert len(eliminations) <= 5
