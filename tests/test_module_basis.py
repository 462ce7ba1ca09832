"""The library's degree split against ``module_basis``, a minimal basis built by node insertion.

The library reads the minimal basis of the weak pairs off the EEA rows at the critical index;
``module_basis`` (conftest) builds one from the syzygy side, one node at a time, and shares no
code with the trace.  On simple nodes at n = 32 to 96, and on multiple nodes at n = 32 and 64,
the two must agree on mu1 and mu2, on UNIQUE or FAMILY, and, where mu1 < mu2, on the low pair up
to a constant.  With the shift 2d + 1 - n the low column answers the prescribed split
deg a <= d, deg b <= n - 1 - d, which the library reads off the trace in ``hermite_rational``;
and the low columns over all shifts give the admissible degree sums below n, which the library
reads off the trace rows in ``admissible_kappa``.
"""

import math
import random
from fractions import Fraction

import pytest

from ratinterp import (
    InterpolationData, Poly, admissible_delta_set, admissible_kappa, check_weak, hermite_rational, minimal_basis,
)

from conftest import derivative, module_basis, planted_data, repeated_node_data


def integer_nodes(rng, n):
    """n distinct integer nodes in [-n/2, n/2], integer values."""
    return InterpolationData.from_pairs([(x, [rng.randint(-9, 9)]) for x in rng.sample(range(-n // 2, n // 2 + 1), n)])


def rational_nodes(rng, n):
    """n distinct nodes k/2 in [-n/2, n/2], about half of them not integers, rational values."""
    pool = [Fraction(k, 2) for k in range(-n, n + 1)]
    return InterpolationData.from_pairs(
        [(x, [Fraction(rng.randint(-9, 9), rng.randint(1, 3))]) for x in rng.sample(pool, n)])


def samples(num, den, n):
    """Samples of num/den at the first n integers from -n/2 where den does not vanish."""
    pairs, x = [], -n // 2
    while len(pairs) < n:
        if den(x):
            pairs.append((x, [num(x) / den(x)]))
        x += 1
    return InterpolationData.from_pairs(pairs)


def random_fraction(rng):
    """num/den, each of degree 3 to 8 with small integer coefficients."""
    return tuple(Poly([*[rng.randint(-5, 5) for _ in range(rng.randint(3, 8))], rng.choice((-2, -1, 1, 3))])
                 for _ in range(2))


def planted(rng, n):
    """Samples of a random num/den, each of degree 3 to 8."""
    return samples(*random_fraction(rng), n)


def unattainable(rng, n):
    """Planted samples with one value moved off num/den: the low pair takes that node's factor, so FAMILY."""
    points = list(planted(rng, n).points)
    k = rng.randrange(n)
    x, (y,) = points[k]
    points[k] = (x, (y + 1,))
    return InterpolationData(tuple(points))


def hermite_values(num, den, x, m):
    """The values and first m - 1 derivatives of num/den at x, by dividing the Taylor series at x."""
    a, b = ([derivative(p, k)(x) / math.factorial(k) for k in range(m)] for p in (num, den))
    t = []
    for k in range(m):
        t.append((a[k] - sum(b[i] * t[k - i] for i in range(1, k + 1))) / b[0])
    return [math.factorial(k) * c for k, c in enumerate(t)]


def hermite_data(rng, nodes, planted):
    """(x, multiplicity) nodes with random values, or with those of a random num/den whose den vanishes at none."""
    if not planted:
        return InterpolationData.from_pairs([(x, [rng.randint(-9, 9) for _ in range(m)]) for x, m in nodes])
    num, den = random_fraction(rng)
    while not den.nonzero_at([Fraction(x) for x, _ in nodes]):
        num, den = random_fraction(rng)
    return InterpolationData.from_pairs([(x, hermite_values(num, den, Fraction(x), m)) for x, m in nodes])


def one_high_node(rng, n, planted=False):
    """The node 1/2 with multiplicity n/2, and n/2 simple integer nodes."""
    simple = rng.sample(range(-n // 2, n // 2 + 1), n // 2)
    return hermite_data(rng, [(Fraction(1, 2), n // 2), *[(x, 1) for x in simple]], planted)


def two_high_nodes(rng, n, planted=False):
    """Two integer nodes, each with multiplicity n/2."""
    return hermite_data(rng, [(x, n // 2) for x in rng.sample(range(-3, 4), 2)], planted)


def planted_one_high_node(rng, n):
    return one_high_node(rng, n, planted=True)


def planted_two_high_nodes(rng, n):
    return two_high_nodes(rng, n, planted=True)


def planted_double_nodes(rng, n):
    """Samples of a random num/den at integer nodes, every third node double (conftest)."""
    return planted_data(rng, n, *random_fraction(rng))


def moved_double_node(rng, n):
    """Planted double nodes with the derivative at the first double node moved off num/den."""
    points = list(planted_double_nodes(rng, n).points)
    x, (y, dy) = points[0]
    points[0] = (x, (y, dy + 1))
    return InterpolationData(tuple(points))


def normalized(pair):
    """(a, b) divided by the leading coefficient of b, or of a when b is zero."""
    a, b = pair
    lead = (a if b.is_zero else b).coeffs[-1]
    return a * (1 / lead), b * (1 / lead)


# rational nodes stop at n = 64: at n = 96 the library's half trace alone takes about 1 s there
KINDS = (integer_nodes, rational_nodes, planted, unattainable)
CASES = ([(make, 32, seed) for make in KINDS for seed in range(3)]
         + [(make, n, 0) for make in KINDS for n in (64, 96) if (make, n) != (rational_nodes, 96)])

HERMITE = (one_high_node, planted_one_high_node, two_high_nodes, planted_two_high_nodes, planted_double_nodes,
           moved_double_node)
CASES += [(make, n, 0) for make in HERMITE for n in (32, 64)]


@pytest.mark.parametrize("make, n, seed", CASES, ids=[f"{make.__name__}-{n}-{seed}" for make, n, seed in CASES])
def test_the_degree_split_matches_node_insertion(make, n, seed):
    data = make(random.Random(seed), n)
    low, high = module_basis(data)
    mu1, mu2 = (max(a.degree, b.degree) for a, b in (low, high))
    assert mu1 + mu2 == n and all(check_weak(*pair, data) for pair in (low, high))
    unique = mu1 < mu2 and low[1].nonzero_at(data.nodes)  # the low pair is reduced: no node factor
    degrees = admissible_delta_set(data)
    assert (degrees.isolated, degrees.threshold) == (mu1 if unique else None, mu2)
    if mu1 < mu2:
        basis = minimal_basis(data)
        assert (basis.mu1, basis.mu2) == (mu1, mu2)
        assert normalized(basis.pair1) == normalized(low)


@pytest.mark.parametrize("num, den", [
    (Poly([1, 0, -2]), Poly([3, 1])),
    (Poly([0, 0, 0, 5]), Poly([-1, 2, 0, 0, 1])),
    (Poly(["1/2", 3, -1, 7]), Poly([4, 0, 0, 0, 0, -3])),
    (Poly([2]), Poly([1, 1, 1])),
])
def test_a_planted_fraction_is_the_low_column(num, den):
    """The comparator itself: on samples of a reduced num/den the low column is (num, den), up to a constant."""
    low, high = module_basis(samples(num, den, 24))
    assert max(num.degree, den.degree) == max(low[0].degree, low[1].degree) < max(high[0].degree, high[1].degree)
    assert normalized(low) == normalized((num, den))


SPLIT_CASES = [(make, n) for make in (integer_nodes, planted, repeated_node_data) for n in (32, 48)]


@pytest.mark.parametrize("make, n", SPLIT_CASES, ids=[f"{make.__name__}-{n}" for make, n in SPLIT_CASES])
def test_hermite_rational_is_the_shifted_low_column(make, n):
    """hermite_rational(d) is None exactly when b of the low column at shift 2d + 1 - n vanishes at
    a node, and a/b otherwise, compared by cross-multiplication (a generic gcd is slow at n = 48).
    On the repeated-node data at n = 48 every d takes 1.6 s in the library alone, so d runs over
    the ends, the quarter and the middle."""
    data = make(random.Random(n), n)
    for d in sorted({0, 1, n // 4, n // 2 - 1, n // 2, n - 2, n - 1}):
        a, b = module_basis(data, shift=2 * d + 1 - n)[0]
        assert a.degree <= d and b.degree <= n - 1 - d and check_weak(a, b, data)
        rf = hermite_rational(data, d)
        if b.nonzero_at(data.nodes):
            assert rf is not None and rf.numer * b == rf.denom * a, d
        else:
            assert rf is None, d


def small_values(rng, n):
    """n distinct integer nodes with values in {-1, 0, 1}: many low rows and node factors."""
    return InterpolationData.from_pairs([(x, [rng.randint(-1, 1)]) for x in rng.sample(range(-n, n + 1), n)])


def small_fraction(rng):
    """num/den with deg num in 0..3 and deg den in 1..3, small integer coefficients."""
    return (Poly([*[rng.randint(-5, 5) for _ in range(rng.randint(0, 3))], rng.choice((-2, -1, 1, 3))]),
            Poly([*[rng.randint(-5, 5) for _ in range(rng.randint(1, 3))], rng.choice((-1, 1, 2))]))


def planted_small(rng, n, moved=False):
    """Samples of a small num/den; if ``moved``, one value is moved off it, so the row of num/den takes
    that node's factor in its denominator and its degree sum is no longer admissible."""
    data = samples(*small_fraction(rng), n)
    if not moved:
        return data
    points = list(data.points)
    k = rng.randrange(n)
    points[k] = (points[k][0], (points[k][1][0] + 1,))
    return InterpolationData(tuple(points))


def planted_small_double_nodes(rng, n):
    """Samples of a small num/den at integer nodes, every third node double (conftest)."""
    return planted_data(rng, n, *small_fraction(rng))


def planted_moved(rng, n):
    return planted_small(rng, n, moved=True)


def kappa_set(data):
    """The admissible degree sums below n, from ``module_basis`` alone.

    kappa = da + db is admissible iff, at shift da - db, the low column (a, b) has shifted degree
    exactly da with deg a = da (or a = 0 and da = 0), deg b = db and b nonzero at every node.  The
    low column at a shift fixes da and db, so each shift from 1 - n to n - 1 is built once.
    """
    found = set()
    for shift in range(1 - data.n, data.n):
        a, b = module_basis(data, shift=shift)[0]
        da = 0 if a.is_zero else a.degree
        if not b.is_zero and da - b.degree == shift and da + b.degree < data.n and b.nonzero_at(data.nodes):
            found.add(da + b.degree)
    return found


KAPPA_KINDS = (integer_nodes, small_values, repeated_node_data, rational_nodes, planted_small, planted_moved,
               planted_small_double_nodes)
KAPPA_CASES = [(make, n) for make in KAPPA_KINDS for n in (8, 12, 16)] + [(planted_moved, 24)]


@pytest.mark.parametrize("make, n", KAPPA_CASES, ids=[f"{make.__name__}-{n}" for make, n in KAPPA_CASES])
def test_the_kappa_set_matches_the_shifted_low_columns(make, n):
    data = make(random.Random(n), n)
    assert kappa_set(data) == {e.kappa for e in admissible_kappa(data).isolated}
