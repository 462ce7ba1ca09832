"""Interpolation data with multiplicities and its two canonical polynomials.

An instance prescribes, at each of finitely many distinct nodes x_i, the
values of a function and of its first few derivatives: values[j] is the
j-th derivative value at the node.  Two polynomials are attached to the
instance:

* the node polynomial f = prod (x - x_i)**n_i, monic of degree n, and
* the unique interpolating polynomial g of degree < n.

Both come from one incremental Newton pass on integer lists
(``exactpoly.newton_pair``) that adds the conditions one at a time, each
node once per unit of its multiplicity.  The instance builds the pair on
first use and keeps it (``InterpolationData.newton_pair``), so every
query on one instance shares one build, and nothing is cached beyond
the instance.

The constructor is the one door for points: it reads them, whatever
their sequence types, in one pass through ``exactpoly.as_sequence`` and
``as_fraction``, checks them, stores tuples of Fractions and sets ``n``
and ``nodes``, so equal points give equal, hashable instances and
malformed ones raise ValueError there, not in a solver.

``InterpolationData.trace()`` is the one door from an instance to the
remainder trace of (f, g), which every solver query reads its answer
from.  All-zero data has the trivial trace, rows (f, 0), (0, 1) and
N = 0 (``eea.half_trace``).  The trace is a half one, rows (r_i, s_i):
every answer is a weak pair, and none prints t.  A query that reads
only early rows passes ``bound``, and the trace stops one row past the
first remainder of degree <= bound.  It runs the EEA anew on each call,
as the benchmark pins three runs per full CLI ``delta``.

A pair (a, b) satisfies the *weak* conditions when f divides a - b*g;
it yields an actual interpolating fraction a/b exactly when, in
addition, b vanishes at no node.  ``interpolant`` makes that fraction
for a pair that can share only node factors (a trace row, or a basis
combination p*pair1 + pair2), deciding coprimality by the node test
``Poly.nonzero_at``, never by a generic gcd.  As a(x) = b(x)*g(x) at
every node, b can vanish only where a does, so when a has the lower
degree b is tested only at a's roots among the nodes;
``deltasolver.evaluate_parametrization`` does the same for any
multipliers of the two basis pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .eea import EEATrace, half_trace
from .errors import ZeroDenominator
from .exactpoly import (NEG_INF, ONE, ZERO, Poly, Scalar, _rational_str, as_fraction, as_sequence, gcd,
                        newton_pair)


@dataclass(frozen=True)
class InterpolationData:
    """Nodes with multiplicities and prescribed derivative values.

    ``points[i] == (x_i, (y_i0, ..., y_i(n_i - 1)))`` where y_ij is the
    required j-th derivative value at x_i; ``n`` is the number of
    conditions, the sum of the multiplicities, and ``nodes`` the x_i in
    data order.  ``input_size`` is n*B, with B the bits of each node's
    numerator and denominator summed over the conditions plus the bits of
    the largest value's numerator and denominator: the CLI's size cap.
    """

    points: tuple[tuple[Fraction, tuple[Fraction, ...]], ...]

    def __post_init__(self) -> None:
        """Read the points in one pass and store them as tuples of Fractions, with ``n``, ``nodes`` and ``input_size``.

        The points, each (x, values) point and each value list are read by
        ``exactpoly.as_sequence`` (a list or a tuple), every number by
        ``as_fraction``; anything else raises ValueError, as do no points, a
        node with no values and a repeated node, however it is spelled.
        """
        points, seen, n, node_bits, value_bits = [], {}, 0, 0, 0
        for pair in as_sequence(self.points, "the points"):
            x, values = as_sequence(pair, "a point (x, values)")
            x = as_fraction(x)
            values = tuple([as_fraction(v) for v in as_sequence(values, "a node's values")])
            if not values:
                raise ValueError(f"node {x} has no prescribed values")
            node_bits += (x.numerator.bit_length() + x.denominator.bit_length()) * len(values)
            value_bits = max(value_bits, *[v.numerator.bit_length() + v.denominator.bit_length() for v in values])
            # a reduced fraction is its (numerator, denominator) pair, which hashes
            # without the modular inverse that Fraction.__hash__ takes
            key = (x.numerator, x.denominator)
            if key in seen:
                raise ValueError(f"duplicate node {x}")
            seen[key] = x
            points.append((x, values))
            n += len(values)
        if not points:
            raise ValueError("at least one interpolation node is required")
        # the instance is frozen, so the read points, n and the nodes go straight into its __dict__
        vars(self).update(points=tuple(points), n=n, nodes=tuple(seen.values()),
                          input_size=n * (node_bits + value_bits))

    @cached_property
    def newton_pair(self) -> tuple[Poly, Poly]:
        """(f, g), built together on first use by ``exactpoly.newton_pair``."""
        return newton_pair(self.points)

    def trace(self, bound: int | float = NEG_INF) -> EEATrace:
        """The half trace of (f, g), rows (r_i, s_i), run anew on each call; ``bound`` truncates it."""
        return half_trace(*self.newton_pair, bound=bound)

    @classmethod
    def from_pairs(cls, pairs) -> "InterpolationData":
        """Build from (node, values) pairs of ints, strings, or Fractions; the constructor reads them."""
        return cls(pairs)

    @property
    def node_count(self) -> int:
        return len(self.points)

    # -- JSON schema: {"points": [{"x": "...", "values": ["...", ...]}]} ----

    @classmethod
    def from_json_dict(cls, obj) -> "InterpolationData":
        if not isinstance(obj, dict) or "points" not in obj:
            raise ValueError('interpolation problem must be {"points": [...]}')
        items = as_sequence(obj["points"], '"points"')
        if not all(isinstance(item, dict) and "x" in item and "values" in item for item in items):
            raise ValueError('each point must be {"x": ..., "values": [...]}')
        return cls.from_pairs([(item["x"], item["values"]) for item in items])

    def to_json_dict(self) -> dict:
        return {
            "points": [
                {"x": _rational_str(x), "values": [_rational_str(v) for v in values]}
                for x, values in self.points
            ]
        }


class RationalFunction:
    """A reduced fraction of polynomials with a monic denominator.

    ``RationalFunction(numer, denom)`` canonicalizes a fraction from any
    source: the generic gcd of numerator and denominator is divided out
    and the denominator is rescaled monic, so equal fractions compare
    equal.  The zero function is 0/1.

    The solvers build their fractions with ``interpolant`` and
    ``deltasolver.evaluate_parametrization`` instead, which decide
    coprimality from the trace and then only rescale
    (``RationalFunction.coprime``).
    """

    __slots__ = ("numer", "denom")

    def __init__(self, numer: Poly, denom: Poly) -> None:
        if denom.is_zero:
            raise ZeroDenominator("zero denominator")
        if not numer.is_zero:
            common = gcd(numer, denom)
            if common.degree > 0:
                numer = numer.div_rem(common)[0]
                denom = denom.div_rem(common)[0]
        self._scale_monic(numer, denom)

    @classmethod
    def coprime(cls, numer: Poly, denom: Poly) -> "RationalFunction":
        """numer/denom for a pair already known to be coprime; takes no gcd.

        Rejects a zero denominator, maps 0 to 0/1 and scales the
        denominator monic.
        """
        if denom.is_zero:
            raise ZeroDenominator("zero denominator")
        rf = cls.__new__(cls)
        rf._scale_monic(numer, denom)
        return rf

    def _scale_monic(self, numer: Poly, denom: Poly) -> None:
        """Store numer/denom scaled so that denom is monic, and 0 as 0/1; builds no Fraction."""
        if numer.is_zero:
            self.numer: Poly = ZERO
            self.denom: Poly = ONE
            return
        self.numer = numer.over_lead_of(denom)
        self.denom = denom.monic()

    @property
    def delta_degree(self) -> int:
        """max(deg numer, deg denom); 0 for the zero function."""
        return max(self.numer.degree, self.denom.degree)

    def __call__(self, x: Scalar) -> Fraction:
        bottom = self.denom(x)
        if bottom == 0:
            raise ZeroDivisionError(f"pole at {x}")
        return self.numer(x) / bottom

    def __eq__(self, other: object) -> bool:
        if isinstance(other, RationalFunction):
            return self.numer == other.numer and self.denom == other.denom
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.numer, self.denom))

    def __str__(self) -> str:
        if self.denom == ONE:
            return str(self.numer)
        top = str(self.numer)
        if " " in top:
            top = f"({top})"
        return f"{top}/({self.denom})"

    def __repr__(self) -> str:
        return f"RationalFunction({self.numer!r}, {self.denom!r})"

    def to_json(self) -> dict:
        return {"numer": self.numer.to_json(), "denom": self.denom.to_json()}


def nodal_poly(data: InterpolationData) -> Poly:
    """The monic polynomial vanishing to the prescribed order at each node."""
    return data.newton_pair[0]


def hermite_polynomial(data: InterpolationData) -> Poly:
    """The unique polynomial of degree < n matching all prescribed values.

    Built with f by adding the conditions one at a time: each adds a
    multiple of the node polynomial of the conditions before it.
    """
    return data.newton_pair[1]


def _weak_division(a: Poly, b: Poly, data: InterpolationData) -> tuple[Poly, Poly]:
    """Quotient and remainder of a - b*g by the node polynomial f."""
    return (a - b * hermite_polynomial(data)).div_rem(nodal_poly(data))


def check_weak(a: Poly, b: Poly, data: InterpolationData) -> bool:
    """True iff the node polynomial divides a - b*g."""
    return _weak_division(a, b, data)[1].is_zero


def interpolant(a: Poly, b: Poly, data: InterpolationData) -> RationalFunction | None:
    """a/b for a weak pair that can share only node factors, such as a trace row.

    s_i*t_{i+1} - s_{i+1}*t_i = +-1 and r_i = s_i*g + t_i*f make
    gcd(r_i, s_i) divide f, and r_i = s_i*g at every node, so such a
    pair is reduced exactly when b vanishes at no node (``Poly.nonzero_at``).
    None when b is zero or vanishes at a node; otherwise it is only scaled monic.

    f | a - b*g gives a(x) = b(x)*g(x) at every node, so b can vanish only
    where a does.  When 0 <= deg a < deg b, a is evaluated at every node
    (``Poly.roots_among``) and b only where a vanishes; otherwise b at every node.
    """
    nodes = data.nodes
    if 0 <= a.degree < b.degree:
        nodes = a.roots_among(nodes)
    if not b.nonzero_at(nodes):
        return None
    return RationalFunction.coprime(a, b)


def check_interpolates(rf: RationalFunction, data: InterpolationData) -> bool:
    """True iff rf matches every prescribed value and is defined at every node."""
    return check_weak(rf.numer, rf.denom, data) and rf.denom.nonzero_at(data.nodes)


def weak_cofactor(a: Poly, b: Poly, data: InterpolationData) -> Poly:
    """The unique c with a == b*g + c*f, for a pair satisfying the weak conditions."""
    q, r = _weak_division(a, b, data)
    if not r.is_zero:
        raise ValueError("pair does not satisfy the weak interpolation conditions")
    return q
