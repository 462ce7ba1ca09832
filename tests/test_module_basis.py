"""The library's degree split against ``module_basis``, a minimal basis built by node insertion.

The library reads the minimal basis of the weak pairs off the EEA rows at the critical index;
``module_basis`` (conftest) builds one from the syzygy side, one node at a time, and shares no
code with the trace.  On simple nodes at n = 32 to 96 the two must agree on mu1 and mu2, on
UNIQUE or FAMILY, and, where mu1 < mu2, on the low pair up to a constant.
"""

import random
from fractions import Fraction

import pytest

from ratinterp import InterpolationData, Poly, admissible_delta_set, check_weak, minimal_basis

from conftest import module_basis


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


def planted(rng, n):
    """Samples of a random num/den, each of degree 3 to 8."""
    num, den = (Poly([*[rng.randint(-5, 5) for _ in range(rng.randint(3, 8))], rng.choice((-2, -1, 1, 3))])
                for _ in range(2))
    return samples(num, den, n)


def unattainable(rng, n):
    """Planted samples with one value moved off num/den: the low pair takes that node's factor, so FAMILY."""
    points = list(planted(rng, n).points)
    k = rng.randrange(n)
    x, (y,) = points[k]
    points[k] = (x, (y + 1,))
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
