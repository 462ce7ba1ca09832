"""Seeded instance generators for every benchmark workload.

Everything here is plain ``Fraction`` arithmetic: the generators never
call the solvers they feed, so the answers they record as ``expected``
follow from the construction alone.

* ``int``   -- n distinct integer nodes from a compact range, integer values
* ``rep``   -- repeated nodes, multiplicity 2-3, integer derivative values
* ``rat``   -- rational nodes p/q (q <= 3) with rational values
* ``zero``  -- all prescribed values zero
* ``plant`` -- samples (some with a derivative) of a planted reduced a/b
* ``param`` -- a random integer plane parametrization (r0, r1)

Construction fixes the answers of ``zero`` and ``plant`` instances.  For
a planted a/b with deg a = p, deg b = q, m = max(p, q) and
n > p + q + m, and b nonzero at every node:

* the minimal interpolant is unique, a/b itself, so delta_min = mu1 = m
  and mu2 = n - m; the admissible max-degrees are {m} u {delta >= n - m};
* any other interpolant c/e gives a*e - b*c, a nonzero multiple of the
  node polynomial, so deg c + deg e >= n - m: the admissible degree sums
  below n - m are exactly {p + q}, witnessed by a/b alone;
* for p <= d <= n - 1 - q the prescribed split (d, n - d - 1) is solved
  by a/b and nothing else.

All-zero data has the single interpolant 0/1 below degree sum n, the
basis split 0 + n, and every split solvable.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

Coeffs = tuple  # ascending Fraction coefficients, no trailing zeros


def strip(coeffs) -> Coeffs:
    cs = [Fraction(c) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def poly_mul(a: Coeffs, b: Coeffs) -> Coeffs:
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return strip(out)


def from_roots(roots, lead=1) -> Coeffs:
    p: Coeffs = (Fraction(lead),)
    for r in roots:
        p = poly_mul(p, (-Fraction(r), Fraction(1)))
    return p


def taylor(p: Coeffs, x: Fraction, order: int) -> list[Fraction]:
    """Coefficients of p(x + h) in h up to h**(order - 1)."""
    return [
        sum((c * math.comb(i, k) * x ** (i - k) for i, c in enumerate(p) if i >= k), Fraction(0))
        for k in range(order)
    ]


def derivative_values(a: Coeffs, b: Coeffs, x: Fraction, order: int) -> list[Fraction]:
    """(a/b)^(j)(x) for j < order, by power-series division at x."""
    ta, tb = taylor(a, x, order), taylor(b, x, order)
    series: list[Fraction] = []
    for k in range(order):
        acc = ta[k] - sum((tb[j] * series[k - j] for j in range(1, k + 1)), Fraction(0))
        series.append(acc / tb[0])
    return [math.factorial(k) * c for k, c in enumerate(series)]


@dataclass
class Instance:
    """One generated problem plus the answers its construction fixes."""

    family: str
    points: tuple = ()  # ((x, (y0, y1, ...)), ...) for interpolation problems
    r0: Coeffs = ()
    r1: Coeffs = ()
    expected: dict = field(default_factory=dict)

    @property
    def is_param(self) -> bool:
        return self.family == "param"

    @property
    def n(self) -> int:
        if self.is_param:
            return len(self.r0) - 1
        return sum(len(values) for _, values in self.points)

    def problem(self) -> dict:
        if self.is_param:
            return {"r0": [str(c) for c in self.r0], "r1": [str(c) for c in self.r1]}
        return {
            "points": [
                {"x": str(x), "values": [str(v) for v in values]}
                for x, values in self.points
            ]
        }

    def key(self) -> str:
        return json.dumps(self.problem(), sort_keys=True)


def _compact_nodes(rng: random.Random, count: int) -> list[int]:
    """count distinct integers from a window of about count + 3 around 0."""
    half = (count + 2) // 2
    return rng.sample(range(-half, half + 1), count)


def _multiplicities(n: int, low: int, high: int) -> list[int]:
    """Split n into parts cycling through low..high (the last part may be smaller).

    A fixed pattern keeps the cost of equal-size instances close, so
    runs with different seeds stay comparable.
    """
    parts = []
    while n > 0:
        m = min(low + len(parts) % (high - low + 1), n)
        parts.append(m)
        n -= m
    return parts


def _not_all_zero(points: tuple) -> tuple:
    """Random data keeps at least one nonzero value; all-zero data is its own family."""
    if any(v for _, values in points for v in values):
        return points
    (x, values), *rest = points
    return ((x, (Fraction(1), *values[1:])), *rest)


def integer_nodes(rng: random.Random, n: int) -> Instance:
    nodes = _compact_nodes(rng, n)
    points = tuple((Fraction(x), (Fraction(rng.randint(-9, 9)),)) for x in nodes)
    return Instance("int", _not_all_zero(points))


def repeated_nodes(rng: random.Random, n: int) -> Instance:
    mults = _multiplicities(n, 2, 3)
    nodes = _compact_nodes(rng, len(mults))
    points = tuple(
        (Fraction(x), tuple(Fraction(rng.randint(-9, 9)) for _ in range(m)))
        for x, m in zip(nodes, mults)
    )
    return Instance("rep", _not_all_zero(points))


_RATIONAL_POOL = sorted({Fraction(p, q) for q in (1, 2, 3) for p in range(-3 * q, 3 * q + 1)})


def rational_nodes(rng: random.Random, n: int) -> Instance:
    nodes = rng.sample(_RATIONAL_POOL, n)
    points = tuple((x, (Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3))),)) for x in nodes)
    return Instance("rat", _not_all_zero(points))


def zero_data(rng: random.Random, n: int) -> Instance:
    mults = _multiplicities(n, 1, 3)
    nodes = rng.sample(range(-3 * n, 3 * n + 1), len(mults))  # wide: the values never vary
    inst = Instance(
        "zero", tuple((Fraction(x), (Fraction(0),) * m) for x, m in zip(nodes, mults))
    )
    inst.expected = {
        "kind": "UNIQUE", "minimal_delta": 0, "mu": (0, n),
        "minimal_kappa": 0, "kappa_below": (0, n),
        "solution": ((), (Fraction(1),)), "hermite_range": (0, n - 1),
    }
    return inst


def planted_degrees(n: int, max_degree: int) -> list[tuple[int, int]]:
    """Degree pairs (p, q) whose planted fraction is determined at size n."""
    return [
        (p, q)
        for p in range(max_degree + 1)
        for q in range(max_degree + 1)
        if n > p + q + max(p, q)
    ]


def planted(rng: random.Random, n: int, p: int, q: int, derivative_every: int = 3) -> Instance:
    """Samples of a reduced a/b, deg a = p, deg b = q; every k-th node also gets a'/b'.

    a has integer roots and b monic with half-integer roots, so a and b
    are coprime and b vanishes at no (integer) node.
    """
    a = from_roots([rng.randint(-6, 6) for _ in range(p)], lead=rng.choice((-3, -2, -1, 1, 2, 3)))
    b = from_roots([Fraction(2 * rng.randint(-6, 5) + 1, 2) for _ in range(q)])
    mults = []
    remaining = n
    while remaining:
        m = 2 if remaining >= 2 and len(mults) % derivative_every == 0 else 1
        mults.append(m)
        remaining -= m
    nodes = _compact_nodes(rng, len(mults))
    points = tuple(
        (Fraction(x), tuple(derivative_values(a, b, Fraction(x), m)))
        for x, m in zip(nodes, mults)
    )
    top = max(p, q)
    inst = Instance("plant", points)
    inst.expected = {
        "kind": "UNIQUE", "minimal_delta": top, "mu": (top, n - top),
        "minimal_kappa": p + q, "kappa_below": (p + q, n - top), "solution": (a, b),
        "hermite_range": (p, n - 1 - q),
    }
    return inst


def parametrization(rng: random.Random, n: int) -> Instance:
    r0 = [rng.randint(-9, 9) for _ in range(n)] + [rng.choice((-3, -2, -1, 1, 2, 3))]
    r1 = [rng.randint(-9, 9) for _ in range(n - 1)] + [rng.choice((-3, -2, -1, 1, 2, 3))]
    return Instance("param", r0=strip(r0), r1=strip(r1))


FAMILIES = {
    "int": integer_nodes,
    "rep": repeated_nodes,
    "rat": rational_nodes,
    "zero": zero_data,
    "param": parametrization,
}


def make_instance(rng: random.Random, family: str, n: int, max_planted_degree: int = 2) -> Instance:
    if family == "plant":
        p, q = rng.choice(planted_degrees(n, max_planted_degree))
        return planted(rng, n, p, q)
    return FAMILIES[family](rng, n)
