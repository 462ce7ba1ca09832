"""The half trace, rows (r_i, s_i), agrees with the full trace, and no solver derives t."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ratinterp import (
    ZERO,
    DegreeTie,
    EEATrace,
    MovingLine,
    PlaneParametrization,
    Poly,
    X,
    admissible_delta_set,
    admissible_kappa,
    decompose,
    degree_split,
    extended_euclid,
    hermite_rational,
    minimal_basis,
    minimal_delta_solutions,
    mu_basis,
    sample_solution_of_delta,
    sample_solution_of_kappa,
    yy_form,
)
from ratinterp.eea import Decomposition

from conftest import (
    DATA_FOUR,
    DATA_GENERIC4,
    DATA_SIX_EVEN,
    P,
    integer_node_data,
    planted_data,
    random_data,
    random_param,
    random_poly,
    rational_node_data,
    repeated_node_data,
    row_sum,
)


def agree(r0, r1, rng=None):
    """Every reading of the half trace of (r0, r1) equals that of the full trace."""
    full, half = extended_euclid(r0, r1), extended_euclid(r0, r1, half=True)
    assert all(len(row) == 2 for row in half.rows)
    assert [row[:2] for row in full.rows] == list(half.rows)
    assert full.quotients == half.quotients
    assert [full.t(i) for i in range(full.N + 2)] == [half.t(i) for i in range(half.N + 2)]
    assert half.full_rows() == full.rows
    assert str(half) == str(full)
    assert half.to_json() == full.to_json()
    full.check_invariants()
    half.check_invariants()
    if r0.degree == r1.degree:
        for trace in (full, half):
            with pytest.raises(DegreeTie):
                decompose(r0, ZERO, ZERO, trace)
        return half
    rng = rng or random.Random(7)
    for _ in range(3):
        m = [random_poly(rng, rng.randint(-1, 2))]
        m += [random_poly(rng, rng.randint(-1, full.q(i).degree - 1)) for i in range(1, full.N + 1)]
        m.append(random_poly(rng, rng.randint(-1, 2)))
        dec = Decomposition(tuple(m))
        triple = row_sum(dec.m, full)
        assert row_sum(dec.m, half) == triple
        assert decompose(*triple, half) == decompose(*triple, full) == dec
    return half


rationals = st.fractions(min_value=-20, max_value=20, max_denominator=6)


@st.composite
def input_pairs(draw):
    d1 = draw(st.integers(0, 5))
    d0 = draw(st.integers(max(d1, 1), 7))
    r0 = Poly(draw(st.lists(rationals, min_size=d0, max_size=d0)) + [draw(rationals.filter(bool))])
    r1 = Poly(draw(st.lists(rationals, min_size=d1, max_size=d1)) + [draw(rationals.filter(bool))])
    return r0, r1


@settings(database=None, max_examples=150, deadline=None)
@given(input_pairs())
def test_half_agrees_with_full_on_random_inputs(pair):
    agree(*pair)


@pytest.mark.parametrize("r0, r1", [
    (P(1, -2, 0, 1), P(5)),  # constant r1: N = 1
    (P(-3, 1, -3, 1), P(1, 0, 1)),  # r1 divides r0: (x^2 + 1)(x - 3)
    (P(1, 3, 2), P(4, 0, -1)),  # deg r0 = deg r1
    (P("-7/5", 0, 0, "-3/2"), P(1, "-2/3", "-5/4")),  # negative, rational leads
    (P(0, 0, 6, 0, -4), P(0, 4, 0, -4)),  # the quartic curve
    (P(1, 1, 0, 1), P(1, 0, 7**3500)),  # remainders past the int-to-str limit
], ids=["constant-r1", "r1-divides-r0", "equal-degrees", "rational-leads", "quartic", "huge"])
def test_half_agrees_with_full_on_edge_cases(r0, r1):
    agree(r0, r1)


def test_half_agrees_with_full_on_interpolation_traces():
    rng = random.Random(14)
    corpus = [DATA_FOUR, DATA_SIX_EVEN, DATA_GENERIC4]
    corpus += [make(rng, rng.randint(2, 8)) for make in (integer_node_data, repeated_node_data,
                                                          rational_node_data) for _ in range(5)]
    planted = planted_data(rng, 16, P(1, 2, 0, -1), P(-3, 1, 1))
    corpus.append(planted)
    for data in corpus:
        f, g = data.newton_pair
        if g.is_zero:
            continue
        half = agree(f, g, rng)
        assert data.trace().rows == half.rows
    assert max(q.degree for q in planted.trace().quotients) > 1


def test_mu_basis_matches_the_full_trace_rows():
    rng = random.Random(23)
    for _ in range(30):
        param = random_param(rng)
        if param.r1.degree <= 0:
            continue
        full = extended_euclid(param.r0, param.r1)
        _, lo, hi, mu = degree_split(full)
        low, high = full.rows[lo], full.rows[hi]
        basis = mu_basis(param)
        assert basis.mu == mu
        assert basis.low == MovingLine(low[2], low[1], -low[0])
        assert basis.high == MovingLine(high[2], high[1], -high[0])


def test_t_is_derived_only_where_an_answer_prints_it(monkeypatch):
    derived = []
    real = EEATrace.t

    def counted(self, i):
        derived.append(i)
        return real(self, i)

    monkeypatch.setattr(EEATrace, "t", counted)
    rng = random.Random(5)
    corpus = [DATA_FOUR, DATA_SIX_EVEN, DATA_GENERIC4, *(random_data(rng) for _ in range(6))]
    for data in corpus:
        if data.newton_pair[1].is_zero:
            continue
        assert all(len(row) == 2 for row in data.trace().rows)
        n, mu2 = data.n, minimal_basis(data).mu2
        rf = minimal_delta_solutions(data).representative
        derived.clear()
        minimal_delta_solutions(data)
        admissible_delta_set(data)
        kappa = admissible_kappa(data)
        for d in range(n):
            hermite_rational(data, d)
        for delta in range(mu2, mu2 + 3):
            sample_solution_of_delta(data, delta)
        for k in (*(e.kappa for e in kappa.isolated), n, n + 1):
            sample_solution_of_kappa(data, k)
        yy_form(rf, data)
        assert derived == [], data
    for r1 in (P(0, 4, 0, -4), P(1, 0, 2, 0, 3) * X):
        derived.clear()
        mu_basis(PlaneParametrization(P(0, 0, 6, 0, -4, 0, 1), r1))
        assert len(derived) == 2
