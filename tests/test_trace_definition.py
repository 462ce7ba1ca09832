"""`EEATrace.check_invariants` checks what defines the trace: N + 2 rows, the
start rows, deg r0 >= deg r1 with r_N != 0, the strict degree drop and the
recurrence in every stored column.  The identities it no longer computes
follow from those; these tests compute them on every row of every kind of
trace, and show that a trace broken in any of the usual ways is refused."""

import random

import pytest

from ratinterp import ONE, X, ZERO, CertificateError, EEATrace, extended_euclid
from ratinterp.eea import half_trace, split_bound

from conftest import P, derived_identities_check, random_data, random_param, random_poly


def trivial(r0, half):
    """The trace of (r0, 0): rows (r0, 0, 1), (0, 1, 0), or their (r, s) half."""
    return half_trace(r0, ZERO) if half else EEATrace(((r0, ZERO, ONE), (ZERO, ONE, ZERO)), ())


def traces(rng, count):
    """Full, half and truncated traces of interpolation data and of curves, with trivial,
    equal-degree and constant-r1 ones among them; every kind at least once."""
    kinds = set()
    for _ in range(count):
        if rng.random() < 0.5:
            r0, r1 = random_data(rng, max_n=8).newton_pair
        else:
            param = random_param(rng)
            r0, r1 = param.r0, param.r1
        half = rng.random() < 0.5
        bound = split_bound(r0.degree) if rng.random() < 0.3 else float("-inf")
        if r1.is_zero:
            kinds.add("trivial")
            yield trivial(r0, half)
            continue
        if r0.degree == r1.degree:
            kinds.add("equal-degree")
        if r1.degree == 0:
            kinds.add("constant-r1")
        trace = extended_euclid(r0, r1, half=half, bound=bound)
        kinds.add("truncated" if not trace.complete else "half" if half else "full")
        yield trace
    assert len(kinds) == 6, kinds


def test_start_rows_must_be_the_eea_start_rows():
    r0 = P(1, 0, 1)
    trivial(r0, half=True).check_invariants()
    trivial(r0, half=False).check_invariants()
    with pytest.raises(CertificateError, match="start rows"):
        EEATrace(((r0, ONE), (ZERO, ONE)), ()).check_invariants()
    with pytest.raises(CertificateError, match="start rows"):
        EEATrace(((r0, ONE, ONE), (ZERO, ONE, ZERO)), ()).check_invariants()


def test_the_identities_that_follow_hold_on_every_row():
    for trace in traces(random.Random(251), 120):
        trace.check_invariants()
        derived_identities_check(trace)


def mutations(trace, rng):
    """Traces that differ from this one in one of the usual ways."""
    rows, qs, N = list(trace.rows), list(trace.quotients), trace.N
    width = len(rows[0])

    def with_row(k, row):
        return EEATrace(tuple(rows[:k] + [tuple(row)] + rows[k + 1:]), tuple(qs))

    for k in range(N + 2):
        row = rows[k]
        yield with_row(k, [2 * p for p in row])
        yield with_row(k, [X * p for p in row])
        j = rng.choice([j for j in range(N + 2) if j != k])
        c = random_poly(rng, rng.randint(0, 1))
        yield with_row(k, [p + c * o for p, o in zip(row, rows[j])])
        for col in range(1, width):
            yield with_row(k, [p + ONE if m == col else p for m, p in enumerate(row)])
    for k in range(N):
        yield EEATrace(tuple(rows), tuple(qs[:k] + [qs[k] + ONE] + qs[k + 1:]))
    yield EEATrace(tuple(rows[:-1]), tuple(qs))
    yield EEATrace(tuple(rows[:-1]), tuple(qs[:-1]))
    yield EEATrace((rows[1], rows[0], *rows[2:]), tuple(qs))


def genuine(trace):
    """Is this the trace of its own (r0, r1), complete or truncated?"""
    rows = trace.rows
    if len(rows) < 2 or rows[0][0].is_zero or rows[0][0].degree < rows[1][0].degree:
        return False
    r0, r1, half = rows[0][0], rows[1][0], len(rows[0]) == 2
    ref = trivial(r0, half) if r1.is_zero else extended_euclid(r0, r1, half=half)
    N = trace.N
    return N <= ref.N and rows == ref.rows[:N + 2] and trace.quotients == ref.quotients[:N]


def test_every_mutation_that_is_not_a_genuine_trace_is_refused():
    rng = random.Random(252)
    refused = accepted = 0
    for trace in traces(rng, 120):
        for mutated in mutations(trace, rng):
            if genuine(mutated):
                mutated.check_invariants()
                accepted += 1
            else:
                with pytest.raises(CertificateError):
                    mutated.check_invariants()
                refused += 1
    assert refused > 10 * accepted and refused > 1000
