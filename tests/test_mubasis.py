import random

import pytest

from ratinterp import (
    MovingLine,
    MuBasis,
    ONE,
    PlaneParametrization,
    Poly,
    X,
    ZERO,
    cross_product_certificate,
    extended_euclid,
    monomial,
    mu_basis,
    projective_form,
)
from ratinterp.oracle import min_mu_oracle

from conftest import P, full_trace_check, on_curve, random_param

QUARTIC_CURVE = PlaneParametrization(P(0, 0, 6, 0, -4), P(0, 4, 0, -4))


class TestQuarticCurve:
    def test_trace_is_recurrence_consistent(self):
        # dividing -4x^4 + 6x^2 by -4x^3 + 4x leaves 2x^2, which pins the
        # second remainder row to -4x^3 + 4x (the second curve coordinate)
        tr = extended_euclid(QUARTIC_CURVE.r0, QUARTIC_CURVE.r1)
        assert tr.r(1) == P(0, 4, 0, -4)
        assert tr.r(2) == P(0, 0, 2)
        assert tr.r(3) == P(0, 4)
        assert tr.s(2) == P(0, -1)
        assert tr.s(3) == P(1, 0, -2)
        assert tr.t(2) == ONE
        assert tr.t(3) == P(0, 2)
        full_trace_check(tr)

    def test_mu_basis(self):
        basis = mu_basis(QUARTIC_CURVE)
        assert basis.mu == 2
        assert basis.low == MovingLine(ONE, P(0, -1), P(0, 0, -2))
        assert basis.high == MovingLine(P(0, 2), P(1, 0, -2), P(0, -4))
        assert str(basis.low) == "T0 - x*T1 - 2*x^2"
        assert str(basis.high) == "2*x*T0 + (-2*x^2 + 1)*T1 - 4*x"

    def test_certificates(self):
        basis = mu_basis(QUARTIC_CURVE)
        assert on_curve(basis.low, QUARTIC_CURVE)
        assert on_curve(basis.high, QUARTIC_CURVE)
        assert cross_product_certificate(basis, QUARTIC_CURVE)
        assert min_mu_oracle(QUARTIC_CURVE) == 2

    def test_projective_display(self):
        basis = mu_basis(QUARTIC_CURVE)
        assert projective_form(basis.low) == "z^2*T0 - x*z*T1 - 2*x^2*T2"
        assert projective_form(basis.high) == "2*x*z*T0 + (-2*x^2 + z^2)*T1 - 4*x*z*T2"


class TestMonomialCurves:
    @pytest.mark.parametrize("n,m", [(5, 2), (7, 3), (6, 3), (2, 1)])
    def test_shape(self, n, m):
        param = PlaneParametrization(monomial(n), monomial(m))
        basis = mu_basis(param)
        assert basis.mu == min(m, n - m)
        low_line = MovingLine(ZERO, ONE, -monomial(m))      # T1 - x^m
        high_line = MovingLine(ONE, -monomial(n - m), ZERO)  # T0 - x^(n-m)*T1
        if m <= n - m:
            assert basis.low == low_line and basis.high == high_line
        else:
            assert basis.low == high_line and basis.high == low_line
        assert cross_product_certificate(basis, param)
        assert min_mu_oracle(param) == basis.mu

    def test_projective_display(self):
        basis = mu_basis(PlaneParametrization(monomial(5), monomial(2)))
        assert projective_form(basis.low) == "z^2*T1 - x^2*T2"
        assert projective_form(basis.high) == "z^3*T0 - x^3*T1"


class TestEdgeCases:
    def test_vanishing_second_coordinate(self):
        param = PlaneParametrization(P(0, 0, -4), ZERO)
        basis = mu_basis(param)
        assert basis.mu == 0
        assert basis.low == MovingLine(ZERO, ONE, ZERO)
        assert basis.high == MovingLine(ONE, ZERO, P(0, 0, 4))
        assert on_curve(basis.low, param)
        assert on_curve(basis.high, param)
        assert cross_product_certificate(basis, param)
        assert min_mu_oracle(param) == 0

    def test_equal_degrees(self):
        param = PlaneParametrization(P(1, 0, 1), P(0, 0, 1))
        basis = mu_basis(param)
        assert basis.mu == 0
        assert basis.low == MovingLine(ONE, P(-1), P(-1))  # T0 - T1 - 1
        assert basis.high == MovingLine(ZERO, ONE, P(0, 0, -1))  # T1 - x^2
        assert on_curve(basis.low, param)
        assert cross_product_certificate(basis, param)
        assert min_mu_oracle(param) == 0

    def test_constant_second_coordinate(self):
        param = PlaneParametrization(P(0, 0, 0, 1), P(5))
        basis = mu_basis(param)
        assert basis.mu == 0
        assert basis.low == MovingLine(ZERO, ONE, P(-5))  # T1 - 5
        assert basis.high == MovingLine(ONE, ZERO, P(0, 0, 0, -1))  # T0 - x^3
        assert on_curve(basis.low, param)
        assert on_curve(basis.high, param)
        assert min_mu_oracle(param) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            PlaneParametrization(P(3), P(1))
        with pytest.raises(ValueError):
            PlaneParametrization(X, P(0, 0, 1))

    def test_degenerate_line_rejected(self):
        assert not on_curve(MovingLine(ONE, ZERO, ZERO), QUARTIC_CURVE)


class TestRandomParametrizations:
    def test_oracle_agreement_and_certificates(self):
        rng = random.Random(103)
        for _ in range(40):
            param = random_param(rng, max_n=8)
            basis = mu_basis(param)
            assert 0 <= basis.mu <= param.n - basis.mu
            assert int(basis.low.degree) == basis.mu
            assert int(basis.high.degree) == param.n - basis.mu
            assert on_curve(basis.low, param)
            assert on_curve(basis.high, param)
            assert cross_product_certificate(basis, param)
            assert min_mu_oracle(param) == basis.mu

    def test_minor_identities_on_traces(self):
        rng = random.Random(107)
        for _ in range(25):
            param = random_param(rng, max_n=7)
            if param.r1.is_zero:
                continue
            full_trace_check(extended_euclid(param.r0, param.r1), rng=rng)


def test_moving_line_degree():
    assert MovingLine(ONE, P(0, -1), P(0, 0, -2)).degree == 2
    assert MovingLine(ZERO, ZERO, ZERO).degree == float("-inf")


def test_mu_basis_dataclass_shape():
    basis = mu_basis(QUARTIC_CURVE)
    assert isinstance(basis, MuBasis)
    assert isinstance(basis.low.ct0, Poly)
