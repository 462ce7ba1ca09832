"""Minimal max-degree (delta) solutions of the rational interpolation problem.

The pairs (a, b) satisfying the weak conditions form a free module of
rank 2.  Consecutive rows of the remainder trace of (f, g) are bases of
it, and at a *critical* index, where the cumulative quotient degrees
straddle n, the two row degrees split n as mu1 + mu2 with mu1 <= mu2.
Such a basis is minimal and answers every question about the max-degree
of interpolants:

* if mu1 < mu2 and the small pair is coprime, the unique interpolant of
  minimal degree mu1 is a1/b1;
* otherwise the minimal degree is mu2, realized by the one-parameter
  family (a2 + p*a1)/(b2 + p*b1), deg p = mu2 - mu1, denominator
  nonvanishing at the nodes;
* the admissible degrees are exactly {mu1} u {delta >= mu2} in the first
  case and {delta >= mu2} in the second.

Every fraction is built by ``hermite.interpolant`` (the small pair, a
trace row) or ``hermite.combine`` (a combination u*pair1 + v*pair2),
where the trace decides coprimality; no generic gcd runs on the basis.
The family representative and the samples above the minimum are the
first passing combinations of bounded multipliers (``hermite.first_member``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .eea import degree_split
from .errors import CertificateError, DegreeNotAdmissible, DenominatorVanishesAtNode, ZeroDenominator
from .exactpoly import ONE, ZERO, Poly, _rational_str, monomial
from .hermite import InterpolationData, RationalFunction, combine, first_member, interpolant

Pair = tuple[Poly, Poly]


@dataclass(frozen=True)
class MinimalBasis:
    """Two weak pairs generating all of them, with degree split mu1 + mu2 = n."""

    pair1: Pair
    pair2: Pair
    mu1: int
    mu2: int
    critical_index: int  # trace index i of the basis rows i and i + 1

    def __post_init__(self) -> None:
        if self.mu1 > self.mu2:
            raise CertificateError(f"mu1 = {self.mu1} exceeds mu2 = {self.mu2}")

    def to_json(self) -> dict:
        return {
            "mu1": self.mu1,
            "mu2": self.mu2,
            "critical_index": self.critical_index,
            "pair1": _pair_json(self.pair1),
            "pair2": _pair_json(self.pair2),
        }

    def __str__(self) -> str:
        (a1, b1), (a2, b2) = self.pair1, self.pair2
        return (
            f"mu1 = {self.mu1}, mu2 = {self.mu2} (critical index {self.critical_index})\n"
            f"pair1: a = {a1}, b = {b1}\n"
            f"pair2: a = {a2}, b = {b2}"
        )


def _pair_json(pair: Pair) -> dict:
    return {"a": pair[0].to_json(), "b": pair[1].to_json()}


@dataclass(frozen=True)
class DegreeSet:
    """Admissible max-degrees: an optional isolated value plus a tail."""

    isolated: int | None
    threshold: int

    def __contains__(self, delta: int) -> bool:
        return delta == self.isolated or delta >= self.threshold

    def to_json(self) -> dict:
        return {"isolated": self.isolated, "threshold": self.threshold}

    def __str__(self) -> str:
        tail = f"delta >= {self.threshold}"
        if self.isolated is not None:
            return f"{{{self.isolated}}} or {tail}"
        return tail


@dataclass(frozen=True)
class DeltaSolutionReport:
    """Everything known about the minimal max-degree for one instance.

    ``kind`` is "UNIQUE" (a single minimal interpolant, the
    representative) or "FAMILY" (the representative is one member of the
    family (a2 + p*a1)/(b2 + p*b1) with deg p == family_degree).
    ``node_constraints`` lists, per node, the forbidden value of p there
    (None when the denominator cannot vanish at that node).
    """

    kind: str
    minimal_delta: int
    basis: MinimalBasis
    representative: RationalFunction
    family_degree: int | None
    node_constraints: tuple[tuple[Fraction, Fraction | None], ...]

    def excluded_lambdas(self) -> tuple[Fraction, ...]:
        """Forbidden constant parameters, meaningful when family_degree == 0."""
        banned = {v for _, v in self.node_constraints if v is not None}
        return tuple(sorted(banned))

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "minimal_delta": self.minimal_delta,
            "representative": self.representative.to_json(),
            "family_degree": self.family_degree,
            "node_constraints": [
                {"node": _rational_str(x), "forbidden": None if v is None else _rational_str(v)}
                for x, v in self.node_constraints
            ],
        }

    def __str__(self) -> str:
        """Kind, minimum and the solution; the basis prints on its own."""
        lines = [f"kind = {self.kind}", f"minimal delta = {self.minimal_delta}"]
        if self.kind == "UNIQUE":
            lines.append(f"unique minimal solution: {self.representative}")
            return "\n".join(lines)
        lines += [
            f"family: (a2 + p*a1)/(b2 + p*b1) with deg p = {self.family_degree}",
            f"sample member: {self.representative}",
        ]
        constraints = [
            f"p({_rational_str(x)}) != {_rational_str(v)}" for x, v in self.node_constraints if v is not None
        ]
        if constraints:
            lines.append("denominator constraints: " + "; ".join(constraints))
        return "\n".join(lines)


def minimal_basis(data: InterpolationData) -> MinimalBasis:
    """A minimal basis of the weak pairs, from the smallest critical index."""
    trace = data.trace()
    i, low, high, mu = degree_split(trace)
    pair1, pair2 = ((trace.r(j), trace.s(j)) for j in (low, high))
    return MinimalBasis(pair1=pair1, pair2=pair2, mu1=mu, mu2=data.n - mu, critical_index=i)


def _unique_solution(basis: MinimalBasis, data: InterpolationData) -> RationalFunction | None:
    """a1/b1 when mu1 < mu2 and the small pair, a trace row, is reduced; else None."""
    return interpolant(*basis.pair1, data) if basis.mu1 < basis.mu2 else None


def _degree_set(basis: MinimalBasis, unique: RationalFunction | None) -> DegreeSet:
    return DegreeSet(isolated=None if unique is None else basis.mu1, threshold=basis.mu2)


def _node_constraints(
    data: InterpolationData, basis: MinimalBasis
) -> tuple[tuple[Fraction, Fraction | None], ...]:
    """Per node, the value of p at which b2 + p*b1 vanishes there (None: never)."""
    b1, b2 = basis.pair1[1], basis.pair2[1]
    out = []
    for x in data.nodes:
        b1_x = b1(x)
        out.append((x, -b2(x) / b1_x if b1_x != 0 else None))
    return tuple(out)


def _family_member(data: InterpolationData, basis: MinimalBasis) -> tuple[Poly, Poly, RationalFunction]:
    """(p, 1, (a2 + p*a1)/(b2 + p*b1)) for p = x**e + k, e = mu2 - mu1, k >= 0 least.

    A node forbids at most one k, so one of k = 0..node_count passes.
    """
    e = basis.mu2 - basis.mu1
    multipliers = ((monomial(e) + k, ONE) for k in range(data.node_count + 1))
    return first_member(basis.pair1, basis.pair2, multipliers, lambda rf: rf.delta_degree == basis.mu2, data)


def minimal_delta_solutions(data: InterpolationData) -> DeltaSolutionReport:
    """Classify the minimal max-degree solutions for the instance."""
    basis = minimal_basis(data)
    unique = _unique_solution(basis, data)
    if unique is not None:
        return DeltaSolutionReport(
            kind="UNIQUE",
            minimal_delta=basis.mu1,
            basis=basis,
            representative=unique,
            family_degree=None,
            node_constraints=(),
        )
    return DeltaSolutionReport(
        kind="FAMILY",
        minimal_delta=basis.mu2,
        basis=basis,
        representative=_family_member(data, basis)[2],
        family_degree=basis.mu2 - basis.mu1,
        node_constraints=_node_constraints(data, basis),
    )


def admissible_delta_set(data: InterpolationData) -> DegreeSet:
    """The exact set of max-degrees realized by interpolants."""
    basis = minimal_basis(data)
    return _degree_set(basis, _unique_solution(basis, data))


def evaluate_parametrization(
    basis: MinimalBasis, p: Poly, q: Poly, data: InterpolationData
) -> RationalFunction:
    """The member (p*a1 + q*a2)/(p*b1 + q*b2), validated at the nodes."""
    if p.is_zero and q.is_zero:
        raise ValueError("(p, q) must not both be zero")
    member = combine(basis.pair1, basis.pair2, p, q, data)
    if member is not None:
        return member
    denom = p * basis.pair1[1] + q * basis.pair2[1]
    if denom.is_zero:
        raise ZeroDenominator("the combined denominator is the zero polynomial")
    raise DenominatorVanishesAtNode(next(x for x in data.nodes if denom(x) == 0))


def sample_solution_of_delta(data: InterpolationData, delta: int) -> RationalFunction:
    """A concrete interpolant whose reduced max-degree is exactly delta."""
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    basis = minimal_basis(data)
    unique = _unique_solution(basis, data)
    admissible = _degree_set(basis, unique)
    if delta not in admissible:
        raise DegreeNotAdmissible(f"no interpolant has max-degree {delta}; admissible: {admissible}")
    u0, v0, minimal = (ONE, ZERO, unique) if unique is not None else _family_member(data, basis)
    if delta == minimal.delta_degree:
        return minimal
    # Climb from the minimal solution c*(u0*pair1 + v0*pair2), with
    # c = 1/lead(u0*b1 + v0*b2): adding lam * x**m * pair2, m = delta - mu2,
    # raises the degree to exactly delta for every lam != 0.  Each node
    # forbids at most one lam and gcd(c*u0, c*v0 + lam*x**m) != 1 at most
    # deg u0 of them, so one of the first node_count + deg u0 + 1 values
    # is accepted.
    c = 1 / (u0 * basis.pair1[1] + v0 * basis.pair2[1]).leading
    shift = monomial(delta - basis.mu2)
    multipliers = ((c * u0, c * v0 + lam * shift) for lam in range(1, data.node_count + u0.degree + 2))
    return first_member(basis.pair1, basis.pair2, multipliers, lambda rf: rf.delta_degree == delta, data)[2]
