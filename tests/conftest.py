import random
from fractions import Fraction

import pytest

from ratinterp import (
    InterpolationData,
    PlaneParametrization,
    Poly,
    ZERO,
    check_weak,
    decompose,
    extended_euclid,
    gcd,
    hermite_polynomial,
    minimal_basis,
    nodal_poly,
    recombine,
)
from ratinterp.eea import Decomposition


def P(*coeffs):
    """Polynomial from ascending coefficients; accepts ints and 'p/q' strings."""
    return Poly(coeffs)


DATA_FOUR = InterpolationData.from_pairs([(0, [-2]), (2, [6]), (-1, [-3, 3])])
DATA_SIX_EVEN = InterpolationData.from_pairs(
    [(1, [1]), (-1, [1]), (2, [-14]), (-2, [-14]), (3, [1]), (-3, [1])]
)
DATA_GENERIC4 = InterpolationData.from_pairs([(-1, [-3]), (0, [-2]), (1, [-1]), (2, [6])])
# samples of x -> 1/(x - 5); the minimal interpolant is unique here
DATA_RECIPROCAL = InterpolationData.from_pairs(
    [(0, ["-1/5"]), (1, ["-1/4"]), (2, ["-1/3"]), (3, ["-1/2"])]
)
DATA_ALL_ZERO = InterpolationData.from_pairs([(0, [0]), (1, [0, 0])])


@pytest.fixture
def data_four():
    return DATA_FOUR


@pytest.fixture
def data_six_even():
    return DATA_SIX_EVEN


@pytest.fixture
def data_generic4():
    return DATA_GENERIC4


@pytest.fixture
def data_reciprocal():
    return DATA_RECIPROCAL


@pytest.fixture
def data_all_zero():
    return DATA_ALL_ZERO


def random_data(rng, max_n=7):
    total = rng.randint(1, max_n)
    mults = []
    remaining = total
    while remaining:
        m = rng.randint(1, min(3, remaining))
        mults.append(m)
        remaining -= m
    pool = sorted({Fraction(k, 2) for k in range(-10, 11)})
    nodes = rng.sample(pool, len(mults))

    def value():
        den = rng.choice((1, 1, 2, 3))
        return Fraction(rng.randint(-10 * den, 10 * den), den)

    return InterpolationData.from_pairs(
        [(x, [value() for _ in range(m)]) for x, m in zip(nodes, mults)]
    )


def random_poly(rng, degree):
    if degree < 0:
        return ZERO
    coeffs = [rng.randint(-4, 4) for _ in range(degree)]
    coeffs.append(rng.choice((-3, -2, -1, 1, 2, 3)))
    return Poly(coeffs)


def random_param(rng, max_n=8):
    n = rng.randint(1, max_n)
    r0 = random_poly(rng, n)
    if rng.random() < 0.1:
        return PlaneParametrization(r0, ZERO)
    return PlaneParametrization(r0, random_poly(rng, rng.randint(0, n)))


def interp_trace(data):
    return extended_euclid(nodal_poly(data), hermite_polynomial(data))


def full_trace_check(trace, data=None, rng=None):
    """The whole invariant battery for one trace.

    Structural identities (check_invariants), weak-pair rows when the
    trace comes from an interpolation instance, and uniqueness of the
    trace-row decomposition via a random bounded round-trip.
    """
    trace.check_invariants()
    if data is not None:
        for i in range(trace.N + 2):
            assert check_weak(trace.r(i), trace.s(i), data)
    if trace.r(0).degree == trace.r(1).degree:
        return
    rng = rng or random.Random(2024)
    for _ in range(3):
        m = [random_poly(rng, rng.randint(-1, 2))]
        for i in range(1, trace.N + 1):
            m.append(random_poly(rng, rng.randint(-1, trace.q(i).degree - 1)))
        m.append(random_poly(rng, rng.randint(-1, 2)))
        dec = Decomposition(tuple(m))
        a, b, c = recombine(dec, trace)
        assert decompose(a, b, c, trace) == dec


def coprimality_for_free_check(data):
    """A trace row is coprime exactly when its s passes the node test.

    Rows whose s vanishes at no node are coprime, and a row whose s
    vanishes at a node shares that node's factor with r.
    """
    g = hermite_polynomial(data)
    if g.is_zero:
        return
    trace = interp_trace(data)
    for k in range(trace.N + 2):
        passes = all(trace.s(k)(x) != 0 for x in data.nodes)
        assert (gcd(trace.r(k), trace.s(k)).degree == 0) == passes, k


def basis_split_check(data):
    basis = minimal_basis(data)
    assert basis.mu1 + basis.mu2 == data.n
