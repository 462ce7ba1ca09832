"""Truncated traces: each query runs the EEA only as far as the rows it reads,
and reads the same answer off them as off the complete trace.  A trace stops
one row past the first remainder of degree <= its bound."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ratinterp import (
    ONE,
    ZERO,
    CertificateError,
    EEATrace,
    InterpolationData,
    MovingLine,
    PlaneParametrization,
    RationalFunction,
    admissible_delta_set,
    admissible_kappa,
    critical_indices,
    decompose,
    degree_split,
    extended_euclid,
    hermite_rational,
    minimal_basis,
    minimal_delta_solutions,
    mu_basis,
    recombine,
    sample_solution_of_delta,
    sample_solution_of_kappa,
    yy_form,
)
from ratinterp.eea import Decomposition, half_trace, split_bound
from ratinterp.hermite import interpolant

from conftest import (
    DATA_ALL_ZERO,
    P,
    integer_node_data,
    planted_data,
    random_data,
    random_param,
    random_poly,
    rational_node_data,
    repeated_node_data,
)

DATA24 = integer_node_data(random.Random(24), 24)
_rng = random.Random(124)
PARAM24 = PlaneParametrization(random_poly(_rng, 24), random_poly(_rng, 23))


def assert_prefix(trace: EEATrace, complete: EEATrace) -> None:
    """trace holds the first rows and quotients of complete, and says whether it holds them all."""
    assert trace.rows == complete.rows[:len(trace.rows)]
    assert trace.quotients == complete.quotients[:trace.N]
    assert trace.complete == (trace.rows == complete.rows)


def _record(mp) -> list[EEATrace]:
    """The traces that extended_euclid returns from now on."""
    traces = []

    def recording(r0, r1, **kw):
        traces.append(extended_euclid(r0, r1, **kw))
        return traces[-1]

    mp.setattr("ratinterp.eea.extended_euclid", recording)
    return traces


@pytest.fixture
def recorded(monkeypatch):
    return _record(monkeypatch)


def _run(traces, query, *args) -> EEATrace:
    traces.clear()
    query(*args)
    assert len(traces) == 1, query.__name__
    return traces[0]


def _first_at_most(trace: EEATrace, bound) -> int:
    """The first row whose remainder has degree <= bound."""
    return next(j for j in range(trace.N + 2) if trace.r(j).degree <= bound)


def test_each_query_computes_the_rows_it_reads(recorded):
    data, n = DATA24, DATA24.n
    complete = half_trace(*data.newton_pair)
    j = _first_at_most(complete, n // 2)
    assert j + 2 == 14 < complete.N + 2  # the stop saves rows here
    mu2 = n - degree_split(complete)[3]
    for query, *args in [(minimal_basis, data), (minimal_delta_solutions, data),
                         (admissible_delta_set, data), (sample_solution_of_delta, data, mu2 + 1)]:
        trace = _run(recorded, query, *args)
        assert len(trace.rows) == j + 2, query.__name__
        assert_prefix(trace, complete)
    saved = 0
    for d in range(n - 1):
        k = _first_at_most(complete, d)
        trace = _run(recorded, hermite_rational, data, d)
        # one row past the first remainder of degree <= d + 1, which is row k - 1 or row k
        rows = min(_first_at_most(complete, d + 1) + 2, complete.N + 2)
        assert len(trace.rows) == rows and k < rows <= min(k + 2, complete.N + 2), d
        assert_prefix(trace, complete)
        saved += rows < min(k + 2, complete.N + 2)
    # each step drops one degree, to deg r_21 = 3 and then to r_22 = 0: row k is the last row
    # for every d >= 3; below, row k is the zero row
    assert complete.N == 21 and saved == n - 4
    recorded.clear()
    hermite_rational(data, n - 1)
    assert recorded == []  # the bound n lets no division run: row 1 = (g, 1) and no EEA
    sample_solution_of_kappa(data, n)
    assert recorded == []  # a polynomial from f and g: no trace
    assert _run(recorded, admissible_kappa, data).complete
    rf = admissible_kappa(data).minimal_solutions[0]
    assert _run(recorded, yy_form, rf, data).complete

    param_complete = half_trace(PARAM24.r0, PARAM24.r1)
    j = _first_at_most(param_complete, PARAM24.n // 2)
    assert j + 2 == 14 < param_complete.N + 2
    trace = _run(recorded, mu_basis, PARAM24)
    assert len(trace.rows) == j + 2
    assert_prefix(trace, param_complete)


def test_bound_stops_one_row_past_the_first_remainder_of_degree_at_most_bound():
    r0, r1 = PARAM24.r0, PARAM24.r1
    complete = extended_euclid(r0, r1)
    assert complete.complete
    for k in range(complete.N + 1):
        trace = extended_euclid(r0, r1, bound=complete.r(k).degree)
        assert len(trace.rows) == k + 2
        assert_prefix(trace, complete)
    # the zero remainder ends the run even below every degree
    assert extended_euclid(r0, r1, bound=-1) == complete
    # where no division runs, half_trace returns the start rows without running the algorithm
    assert half_trace(r0, r1, bound=r0.degree) == extended_euclid(r0, r1, half=True, bound=r0.degree)


def _past_split_rows(complete: EEATrace) -> int:
    """Rows the rule before the degree bound computed: one past the first row with deg s >= deg r."""
    j = next(j for j in range(complete.N + 2) if complete.s(j).degree >= complete.r(j).degree)
    return min(j + 2, complete.N + 2)


def test_the_split_bound_keeps_what_the_row_rule_kept_in_no_more_rows():
    saved = 0
    for n in range(2, 33):
        rng = random.Random(n)
        pairs = [data.newton_pair for data in (integer_node_data(rng, n), repeated_node_data(rng, n),
                                               rational_node_data(rng, n))]
        param = random_param(rng, max_n=n)
        for r0, r1 in pairs + [(param.r0, param.r1)]:
            complete = half_trace(r0, r1)
            rows = _past_split_rows(complete)
            old = EEATrace(complete.rows[:rows], complete.quotients[:rows - 2])
            new = half_trace(r0, r1, bound=split_bound(r0.degree))
            assert new.rows == old.rows[:len(new.rows)], n
            assert new.quotients == old.quotients[:new.N], n
            assert critical_indices(new) == critical_indices(old), n
            assert degree_split(new) == degree_split(old), n
            saved += len(new.rows) < len(old.rows)
    assert saved > 0


def test_a_truncated_trace_is_certified_but_refuses_the_readers_of_every_row():
    r0, r1 = PARAM24.r0, PARAM24.r1
    for half in (False, True):
        complete = extended_euclid(r0, r1, half=half)
        cut = extended_euclid(r0, r1, half=half, bound=split_bound(r0.degree))
        assert complete.complete and not cut.complete
        cut.check_invariants()
        dec = Decomposition((ONE,) + (ZERO,) * (complete.N + 1))
        triple = recombine(dec, complete)  # row 0
        for read in (cut.full_rows, cut.to_json, lambda: str(cut),
                     lambda: decompose(*triple, cut), lambda: recombine(dec, cut)):
            with pytest.raises(ValueError, match="truncated"):
                read()
        last = (cut.r(cut.N + 1) + r1,) + cut.rows[-1][1:]
        with pytest.raises(CertificateError):
            EEATrace(cut.rows[:-1] + (last,), cut.quotients).check_invariants()


def _answers(data):
    n = data.n
    return (minimal_basis(data), minimal_delta_solutions(data),
            [hermite_rational(data, d) for d in range(n)], sample_solution_of_kappa(data, n))


def _untruncated(r0, r1, *, half=False, bound=None):
    return extended_euclid(r0, r1, half=half)


@settings(database=None, deadline=None, max_examples=40)
@given(seed=st.integers(0, 2**32 - 1))
def test_truncated_interpolation_traces_read_as_the_complete_one(seed):
    data = random_data(random.Random(seed), max_n=14)
    complete = half_trace(*data.newton_pair)
    split = data.trace(bound=split_bound(data.n))
    assert_prefix(split, complete)
    assert critical_indices(split) == critical_indices(complete)
    assert degree_split(split) == degree_split(complete)
    with pytest.MonkeyPatch.context() as mp:
        traces = _record(mp)
        answers = _answers(data)
    for trace in traces:
        assert_prefix(trace, complete)
        trace.check_invariants()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("ratinterp.eea.extended_euclid", _untruncated)
        assert _answers(data) == answers


@settings(database=None, deadline=None, max_examples=60)
@given(seed=st.integers(0, 2**32 - 1))
def test_truncated_mu_basis_traces_read_as_the_complete_one(seed):
    param = random_param(random.Random(seed), max_n=14)
    complete = half_trace(param.r0, param.r1)
    split = half_trace(param.r0, param.r1, bound=split_bound(param.n))
    assert_prefix(split, complete)
    split.check_invariants()
    assert critical_indices(split) == critical_indices(complete)
    _, low, high, mu = degree_split(complete)
    assert degree_split(split) == degree_split(complete)
    basis = mu_basis(param)
    assert (basis.mu, basis.low, basis.high) == (
        mu, MovingLine.from_row(complete, low), MovingLine.from_row(complete, high))


def _check_hermite_rational(data) -> int:
    """hermite_rational(data, d) at every d against the complete trace's row k, the first with deg r_k <= d.

    Each query's trace must hold row k, and at d = n - 1 it runs no division.  Returns the
    number of d whose trace ends one row past row k, as it does where r_{k-1} drops to r_k
    by more than one degree.
    """
    complete = half_trace(*data.newton_pair)
    door, traces = InterpolationData.trace, []
    past = 0
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(InterpolationData, "trace", lambda self, **kw: traces.append(door(self, **kw)) or traces[-1])
        for d in range(data.n):
            k = _first_at_most(complete, d)
            traces.clear()
            answer = hermite_rational(data, d)
            (trace,) = traces
            assert answer == interpolant(complete.r(k), complete.s(k), data), d
            assert_prefix(trace, complete)
            assert k < len(trace.rows) <= k + 2, d
            past += len(trace.rows) == k + 2
    assert trace.N == 0  # d = n - 1
    return past


@settings(database=None, deadline=None, max_examples=30)
@given(seed=st.integers(0, 2**32 - 1))
def test_hermite_rational_reads_the_row_of_the_complete_trace(seed):
    rng = random.Random(seed)
    for data in (random_data(rng, max_n=14), repeated_node_data(rng, rng.randint(1, 14)),
                 rational_node_data(rng, rng.randint(1, 12))):
        _check_hermite_rational(data)


def test_hermite_rational_on_planted_data_stops_one_row_past_the_abnormal_quotient():
    rng = random.Random(27)
    past = 0
    for n in (8, 12, 16):
        data = planted_data(rng, n, random_poly(rng, 2), P(1, 0, 1))
        assert max(q.degree for q in data.trace().quotients) > 1
        past += _check_hermite_rational(data)
    assert past > 0


def test_hermite_rational_on_all_zero_and_constant_data():
    constant = InterpolationData.from_pairs([(0, [5]), (1, [5, 0]), (3, [5, 0, 0])])
    # all-zero data has the trivial trace, N = 0; constant data drops from deg f = n to row 1
    # at once, so every d < n - 1 stops one row past it, at the zero row 2
    for data, value, past in ((DATA_ALL_ZERO, 0, 0), (constant, 5, 5)):
        assert _check_hermite_rational(data) == past
        assert [hermite_rational(data, d) for d in range(data.n)] == [RationalFunction(P(value), ONE)] * data.n
