"""The EEA runs on unit rows: each remainder's own integer list at scale 1, with its
cofactors over the same scale.  Raw rows and quotients are rebuilt from them, equal
to the Fraction reference row by row; the unit rows stay near the subresultant size;
and a half trace rebuilds a raw row only where one is read."""

import math
import random
import sys
from fractions import Fraction

import pytest

import ratinterp.eea as eea
from ratinterp import (
    ONE,
    X,
    ZERO,
    CertificateError,
    EEATrace,
    InterpolationData,
    Poly,
    admissible_delta_set,
    critical_indices,
    degree_split,
    extended_euclid,
    hermite_polynomial,
    hermite_rational,
    minimal_delta_solutions,
    nodal_poly,
    yy_form,
)
from ratinterp.eea import half_trace, split_bound

from conftest import (
    DATA_ALL_ZERO,
    P,
    count_fractions,
    integer_node_data,
    planted_data,
    random_param,
    random_poly,
    rational_node_data,
    reference_euclid,
    repeated_node_data,
    unit_split,
)


def coeffs(p):
    return tuple(p.coeffs)


def assert_equals_reference(r0, r1):
    """Full and half traces at three bounds equal the reference, row by row and quotient by quotient."""
    ref_rows, ref_quotients = reference_euclid(coeffs(r0), coeffs(r1))
    degrees = [len(row[0]) - 1 if row[0] else -math.inf for row in ref_rows]
    n = int(r0.degree)
    for bound in (-math.inf, split_bound(n), n - 2):
        for half in (False, True):
            trace = extended_euclid(r0, r1, half=half, bound=bound)
            # the run stops one row past the first remainder of degree <= bound
            N = min(next(j for j, d in enumerate(degrees) if d <= bound), len(ref_quotients))
            assert trace.N == N, (bound, half)
            width = 2 if half else 3
            assert [tuple(coeffs(p) for p in row) for row in trace.rows] == \
                [row[:width] for row in ref_rows[:N + 2]], (bound, half)
            assert [coeffs(q) for q in trace.quotients] == ref_quotients[:N], (bound, half)
            # rows 0 and 1 are raw; each later nonzero remainder is its raw one's integer list at
            # scale 1, with the cofactors over the same scale
            assert trace.unit_rows[:2] == trace.rows[:2]
            for i in range(2, N + 2):
                c, unit = unit_split(trace.r(i))
                if not unit.is_zero:
                    assert trace.unit_rows[i][0] == unit, (bound, half, i)
                    assert tuple(c * p for p in trace.unit_rows[i]) == trace.rows[i], (bound, half, i)
            trace.check_invariants()


def interpolation_pair(data):
    return nodal_poly(data), hermite_polynomial(data)


@pytest.mark.parametrize("family", [integer_node_data, repeated_node_data, rational_node_data])
def test_seeded_data_equals_the_reference(family):
    rng = random.Random(f"unit-{family.__name__}")
    for _ in range(12):
        r0, r1 = interpolation_pair(family(rng, rng.randint(2, 14)))
        if not r1.is_zero:
            assert_equals_reference(r0, r1)


def test_planted_data_equals_the_reference():
    rng = random.Random(81)
    for n in (12, 20, 26):
        data = planted_data(rng, n, random_poly(rng, 2), P(rng.randint(1, 5), 0, 1))
        assert_equals_reference(*interpolation_pair(data))


def test_parametrizations_equal_the_reference():
    rng = random.Random(82)
    for _ in range(25):
        param = random_param(rng, max_n=12)
        if not param.r1.is_zero:
            assert_equals_reference(param.r0, param.r1)


def test_all_zero_data_has_the_trivial_trace_at_every_bound():
    f, g = interpolation_pair(DATA_ALL_ZERO)
    for bound in (-math.inf, split_bound(DATA_ALL_ZERO.n), DATA_ALL_ZERO.n - 2):
        trace = half_trace(f, g, bound)
        assert trace.rows == ((f, ZERO), (ZERO, ONE)) and trace.quotients == ()
        assert trace.unit_pair(1) == (ZERO, ONE)


@pytest.mark.parametrize("r0, r1", [
    (P(3, -1, 4, "2/3"), P("-5/7", 2, 1, 9)),                # deg r0 = deg r1
    (P(3, -1, 0, "2/3", 5), P("-5/7")),                      # constant r1
    (P(1, 2, "-3/4") * P(-2, 0, 5, 1), P(1, 2, "-3/4")),     # r1 divides r0
    (P(1, 0, 0, 0, -2, 0, "-7/3"), P(2, 5, 0, "-4/9", -6)),  # negative and rational leads
    (P(-1, 0, 0, 0, 1) * P(3, 0, 1), P(-1, 0, 0, 0, 1) * P(2, 1)),  # a common factor
    (P(0, 0, 0, 0, 0, 1), P(0, 0, 0, 1)),                    # the last row before zero is a monomial
])
def test_edge_cases_equal_the_reference(r0, r1):
    assert_equals_reference(r0, r1)


@pytest.mark.parametrize("r0, r1", [(P(-1, 0, 0, 0, 0, "2/3"), P(4, 0, 1, "-5/2")),  # r_N a constant
                                     (P(1, 0, 0, 0, 0, 1), P(2, -1, 0, 3))])         # r_N of degree 1
def test_the_zero_last_row(r0, r1):
    trace = extended_euclid(r0, r1)
    assert trace.complete and trace.r(trace.N + 1).is_zero and trace.unit_pair(trace.N + 1)[0].is_zero
    assert_equals_reference(r0, r1)


def test_a_coefficient_past_the_int_to_str_limit():
    huge = 10 ** sys.get_int_max_str_digits() + 7
    assert_equals_reference(P(huge, 1, 0, -huge), P(Fraction(1, huge), huge))


# -- size: the unit rows stay near the subresultant bound ------------------------------


def hadamard_bits(r0: Poly, r1: Poly) -> float:
    """log2 of the Hadamard bound on the Sylvester determinant of the two integer lists.

    Every subresultant coefficient and its cofactor coefficients are minors of that
    matrix, each at most |r0|^deg r1 * |r1|^deg r0 in absolute value.
    """
    def norm_bits(p):
        ints = unit_split(p)[1]
        return math.log2(math.sqrt(sum(int(c) ** 2 for c in ints.coeffs)))
    return r1.degree * norm_bits(r0) + r0.degree * norm_bits(r1)


def coefficient_bits(p: Poly) -> int:
    return max((max(c.numerator.bit_length(), c.denominator.bit_length()) for c in p.coeffs), default=0)


@pytest.mark.parametrize("seed", [48, 49])
def test_unit_rows_stay_within_twice_the_hadamard_bound_at_n_48(seed):
    # a parametrization with entries of a few bits: there the bound is tight enough to bite
    rng = random.Random(seed)
    r0 = Poly([rng.randint(-9, 9) for _ in range(48)] + [rng.choice((1, 2, 3))])
    r1 = Poly([rng.randint(-9, 9) for _ in range(47)] + [rng.choice((-3, -2, -1, 1, 2, 3))])
    limit = 2 * hadamard_bits(r0, r1)
    trace = extended_euclid(r0, r1)
    assert trace.complete and trace.N >= 40
    unit = max(coefficient_bits(p) for row in trace.unit_rows for p in row)
    assert unit <= limit
    # the raw rows, what a loop that does not normalize stores, are far past it
    raw = max(coefficient_bits(p) for row in trace.rows for p in row)
    assert raw > 4 * limit


# -- laziness: a half trace rebuilds a raw row only where one is read ----------------


@pytest.fixture
def no_rebuild(monkeypatch):
    # a half trace rebuilds its raw quotients on the first read of ``quotients``
    def refuse(*args):
        raise AssertionError("a raw row or quotient was rebuilt")
    monkeypatch.setattr(eea, "_rescale", refuse)
    monkeypatch.setattr(eea.EEATrace, "quotients", property(refuse))


@pytest.mark.parametrize("family", [integer_node_data, repeated_node_data, rational_node_data])
def test_hermite_rational_and_the_split_build_no_raw_row(no_rebuild, family):
    rng = random.Random(f"lazy-{family.__name__}")
    for n in (5, 9, 16):
        data = family(rng, n)
        for d in range(n):
            hermite_rational(data, d)
        admissible_delta_set(data)
        for bound in (-math.inf, split_bound(n)):
            trace = data.trace(bound)
            degree_split(trace)
            critical_indices(trace)
            assert trace.complete or bound > -math.inf


def test_a_half_trace_rebuilds_only_the_rows_read(monkeypatch):
    built = []
    rescale = eea._rescale

    def counting(c, unit):
        built.append(len(unit))
        return rescale(c, unit)

    monkeypatch.setattr(eea, "_rescale", counting)
    trace = integer_node_data(random.Random(90), 12).trace()
    assert trace.N >= 8 and built == []
    trace.r(5), trace.s(5), trace.r(5)
    assert built == [2]
    trace.rows
    assert built == [2] + [2] * (trace.N - 1)  # rows 0 and 1 are raw from the start


def test_a_full_trace_is_built_inside_the_run(monkeypatch):
    data = integer_node_data(random.Random(91), 12)
    trace = extended_euclid(*interpolation_pair(data))
    # no reader of a full trace divides, so a division now could only rebuild a raw quotient
    monkeypatch.setattr(eea, "_rescale", lambda c, unit: pytest.fail("a row rebuilt after the run"))
    monkeypatch.setattr(Poly, "div_rem", lambda self, divisor: pytest.fail("a quotient rebuilt after the run"))
    assert len(trace.rows) == trace.N + 2 and len(trace.quotients) == trace.N
    str(trace), trace.to_json(), trace.check_invariants()


@pytest.mark.parametrize("family", [integer_node_data, repeated_node_data])
def test_a_trace_built_from_raw_rows_reads_as_the_loops(family):
    # every step 1: the same trace from the raw rows and quotients, at N >= 1 and at N = 0
    f, g = interpolation_pair(family(random.Random(f"raw-{family.__name__}"), 12))
    n = int(f.degree)
    loops = [extended_euclid(f, g), extended_euclid(f, g, half=True), half_trace(f, g, split_bound(n)),
             extended_euclid(f, g, bound=split_bound(n)), extended_euclid(f, g, bound=n), half_trace(f, ZERO)]
    assert {loop.N >= 1 for loop in loops} == {True, False}
    for loop in loops:
        raw = EEATrace(loop.rows, loop.quotients)
        assert raw.rows == loop.rows and raw.quotients == loop.quotients and raw.N == loop.N
        assert [raw.t(i) for i in range(raw.N + 2)] == [loop.t(i) for i in range(loop.N + 2)]
        assert raw.complete == loop.complete
        if loop.complete:
            assert str(raw) == str(loop) and raw.to_json() == loop.to_json()
        raw.check_invariants()
        loop.check_invariants()


def test_the_loop_builds_no_fraction(monkeypatch):
    data = InterpolationData.from_pairs(
        [(Fraction(k, 3), [Fraction(k % 5 - 2, k % 4 + 1)]) for k in range(16)])
    f, g = interpolation_pair(data)
    built = count_fractions(monkeypatch)
    half = half_trace(f, g)
    half.rows, half.quotients
    assert len(built) == 0 and half.N >= 8


# -- one fused update per cofactor, and a check that reads the stored rows -----------


def refuse(*args):
    raise AssertionError("a polynomial operation the loop no longer takes")


def test_each_cofactor_takes_one_fused_update(monkeypatch):
    # a normal remainder sequence: every quotient linear, each cofactor (p - q*c)/rho in one pass,
    # and each row one euclid_step that neither divides through div_rem nor splits a remainder
    f, g = interpolation_pair(integer_node_data(random.Random(92), 12))
    monkeypatch.setattr(Poly, "__sub__", refuse)
    full = extended_euclid(f, g)
    assert full.complete and full.N == 12 and all(q.degree == 1 for q in full.unit_quotients)
    for name in ("__mul__", "div_rem"):
        monkeypatch.setattr(Poly, name, refuse)
    half = extended_euclid(f, g, half=True)
    assert half.unit_rows == tuple(row[:2] for row in full.unit_rows)


def test_each_cofactor_of_an_abnormal_trace_takes_one_fused_update(monkeypatch):
    # planted data: a jump, a quotient of degree >= 2, takes the same one integer division and
    # fused update per cofactor as a linear step, so no row divides through div_rem
    rng = random.Random(95)
    f, g = interpolation_pair(planted_data(rng, 24, random_poly(rng, 2), P(rng.randint(1, 5), 0, 1)))
    monkeypatch.setattr(Poly, "__sub__", refuse)
    full = extended_euclid(f, g)
    assert full.complete and max(q.degree for q in full.unit_quotients) >= 2
    for name in ("__mul__", "div_rem"):
        monkeypatch.setattr(Poly, name, refuse)
    half = extended_euclid(f, g, half=True)
    assert half.unit_rows == tuple(row[:2] for row in full.unit_rows)


def test_decompose_reads_the_quotient_degrees_off_the_unit_quotients(monkeypatch):
    # yy_form's decompose reads raw rows, but a quotient's degree is its unit quotient's
    rng = random.Random(96)
    cases = [integer_node_data(rng, 12), repeated_node_data(rng, 10),
             planted_data(rng, 20, random_poly(rng, 2), P(rng.randint(1, 5), 0, 1))]
    answers = [(minimal_delta_solutions(data).representative, data) for data in cases]
    monkeypatch.setattr(eea.EEATrace, "quotients", property(refuse))
    for rf, data in answers:
        dec = yy_form(rf, data)
        assert len(dec.m) == data.trace().N + 2


def stored_traces():
    """Full, half and truncated traces of normal and abnormal instances."""
    rng = random.Random(93)
    for data in (integer_node_data(rng, 14), repeated_node_data(rng, 12), rational_node_data(rng, 10),
                 planted_data(rng, 20, random_poly(rng, 2), P(rng.randint(1, 5), 0, 1))):
        f, g = interpolation_pair(data)
        yield from (extended_euclid(f, g), extended_euclid(f, g, half=True),
                    half_trace(f, g, split_bound(data.n)), extended_euclid(f, g, bound=data.n - 3))


def test_check_invariants_builds_no_raw_row(monkeypatch):
    traces = list(stored_traces())
    monkeypatch.setattr(eea, "_rescale", refuse)
    monkeypatch.setattr(eea.EEATrace, "quotients", property(refuse))
    for trace in traces:
        trace.check_invariants()


def stored_mutations(trace, rng):
    """Traces whose unit rows, unit quotients or steps differ from this one's in one place."""
    rows, quotients, steps = list(trace.unit_rows), list(trace.unit_quotients), list(trace._steps)

    def build(rows=rows, quotients=quotients, steps=steps):
        return EEATrace(tuple(rows), tuple(quotients), tuple(steps))

    for k in range(len(steps)):
        for step in (2 * steps[k], -steps[k], ZERO, X * steps[k]):
            yield build(steps=steps[:k] + [step] + steps[k + 1:])
    for k in range(2, len(rows)):
        yield build(rows=rows[:k] + [tuple(2 * p for p in rows[k])] + rows[k + 1:])
        col = rng.randrange(len(rows[k]))
        yield build(rows=rows[:k] + [tuple(p + ONE if m == col else p for m, p in enumerate(rows[k]))] + rows[k + 1:])
    for k in range(len(quotients)):
        yield build(quotients=quotients[:k] + [quotients[k] + ONE] + quotients[k + 1:])
    yield build(steps=steps[:-1])


def same_raw_trace(mutated, trace):
    try:
        return mutated.rows == trace.rows and mutated.quotients == trace.quotients
    except (ArithmeticError, IndexError):
        return False


def test_a_broken_unit_row_quotient_or_step_is_refused():
    rng = random.Random(94)
    refused = accepted = 0
    for trace in stored_traces():
        for mutated in stored_mutations(trace, rng):
            if same_raw_trace(mutated, trace):  # e.g. any nonzero step over the zero last row
                mutated.check_invariants()
                accepted += 1
            else:
                with pytest.raises(CertificateError):
                    mutated.check_invariants()
                refused += 1
    assert refused > 20 * accepted and refused > 500
