"""All-zero data, constant data and a constant or zero second coordinate go
through the same trace as every other instance: index 0 is critical when
deg r1 <= 0, and the trivial trace of (f, 0) has rows (f, 0), (0, 1)."""

import pytest

import ratinterp.kappasolver as ks
from ratinterp import (
    ONE,
    ZERO,
    InterpolationData,
    MovingLine,
    PlaneParametrization,
    Poly,
    RationalFunction,
    admissible_kappa,
    critical_indices,
    hermite_rational,
    minimal_basis,
    mu_basis,
    nodal_poly,
    yy_form,
)
from ratinterp.eea import half_trace

from conftest import DATA_ALL_ZERO, DATA_FOUR, DATA_SIX_EVEN, P

DATA_CONSTANT = InterpolationData.from_pairs([(0, [5]), (1, [5]), (3, [5])])


def test_trivial_trace_of_zero_data():
    f = nodal_poly(DATA_ALL_ZERO)
    trace = DATA_ALL_ZERO.trace()
    assert trace == half_trace(f, ZERO)
    assert (trace.N, trace.r(0), trace.s(0), trace.r(1), trace.s(1)) == (0, f, ZERO, ZERO, ONE)
    trace.check_invariants()
    assert critical_indices(trace) == (0,)


def test_zero_data_basis_sits_at_index_0():
    basis = minimal_basis(DATA_ALL_ZERO)
    f = nodal_poly(DATA_ALL_ZERO)
    assert (basis.pair1, basis.pair2, basis.mu1, basis.mu2, basis.critical_index) == (
        (ZERO, ONE), (f, ZERO), 0, 3, 0)


def test_constant_data_basis_sits_at_index_0():
    f = nodal_poly(DATA_CONSTANT)
    trace = DATA_CONSTANT.trace()
    assert critical_indices(trace) == (0, 1)
    basis = minimal_basis(DATA_CONSTANT)
    assert (basis.pair1, basis.pair2, basis.mu1, basis.mu2, basis.critical_index) == (
        (P(5), ONE), (f, ZERO), 0, 3, 0)


@pytest.mark.parametrize("r1", [P(-7), ZERO], ids=["constant", "zero"])
def test_mu_basis_of_a_constant_or_zero_r1_is_rows_1_and_0(r1):
    r0 = P(1, 0, -3, 2)
    trace = half_trace(r0, r1)
    trace.check_invariants()
    basis = mu_basis(PlaneParametrization(r0, r1))
    assert basis.mu == 0
    assert basis.low == MovingLine.from_row(trace, 1) == MovingLine(ZERO, ONE, -r1)
    assert basis.high == MovingLine.from_row(trace, 0) == MovingLine(ONE, ZERO, -r0)


def test_zero_data_queries_read_the_trivial_trace():
    zero = RationalFunction(ZERO, ONE)
    assert yy_form(zero, DATA_ALL_ZERO).m == (ZERO, ONE)
    assert all(hermite_rational(DATA_ALL_ZERO, d) == zero for d in range(DATA_ALL_ZERO.n))
    report = admissible_kappa(DATA_ALL_ZERO)
    assert [(e.kappa, e.index, e.raw_pair) for e in report.isolated] == [(0, 1, (ZERO, ONE))]


@pytest.mark.parametrize("data", [DATA_FOUR, DATA_SIX_EVEN, DATA_CONSTANT, DATA_ALL_ZERO],
                         ids=["four", "six", "constant", "zero"])
def test_admissible_kappa_tests_rows_1_to_n_only(monkeypatch, data):
    # the zero row N + 1 never interpolates when N >= 1, and its node test is dear
    tested = []

    def recording(a, b, data):
        tested.append((a, b))
        return interpolant(a, b, data)

    interpolant = ks.interpolant
    monkeypatch.setattr(ks, "interpolant", recording)
    admissible_kappa(data)
    trace = data.trace()
    rows = range(1, max(trace.N, 1) + 1)
    assert tested == [trace.unit_pair(k) for k in rows]  # each row over its scale, which cancels


def test_yy_form_divides_by_f_once_for_the_weak_residue(monkeypatch):
    # one division of a - b*g by f for the weak test and the cofactor, one in decompose
    f = nodal_poly(DATA_FOUR)
    rf = RationalFunction(P(6), P(-3, 0, 1))
    divisions = []
    div_rem = Poly.div_rem

    def counting(self, other):
        if other == f:
            divisions.append(self)
        return div_rem(self, other)

    monkeypatch.setattr(Poly, "div_rem", counting)
    yy_form(rf, DATA_FOUR)
    assert len(divisions) == 2
