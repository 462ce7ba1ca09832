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

The two rows' leading coefficient vectors are independent (at most one
row has deg r == deg s), so deg(u*pair1 + v*pair2) = max(deg u + mu1,
deg v + mu2): every admissible delta >= mu2 is reached by the member for
p = x**(delta - mu1) + k, k >= 0 least (``_family_member``), which at
delta = mu2 is the FAMILY representative.  Every fraction comes from
``hermite.interpolant`` or ``evaluate_parametrization``: the trace
decides coprimality, and no generic gcd runs on the basis.  The basis
pairs are the raw trace rows; ``admissible_delta_set`` reads only the
split and the unique test, which do not depend on a row's scale, so it
rebuilds no raw row.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .eea import EEATrace, degree_split, split_bound
from .errors import CertificateError, DegreeNotAdmissible, DenominatorVanishesAtNode, ZeroDenominator
from .exactpoly import Poly, _rational_str, as_degree, gcd, monomial, value_ratios
from .hermite import InterpolationData, RationalFunction, interpolant

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


def _split(data: InterpolationData) -> tuple[EEATrace, int, int, int, int]:
    """The trace truncated at the split, and its ``degree_split`` (i, low, high, mu1)."""
    trace = data.trace(bound=split_bound(data.n))
    return (trace, *degree_split(trace))


def minimal_basis(data: InterpolationData) -> MinimalBasis:
    """A minimal basis of the weak pairs, from the smallest critical index; no later row is run."""
    trace, i, low, high, mu = _split(data)
    pair1, pair2 = ((trace.r(j), trace.s(j)) for j in (low, high))
    return MinimalBasis(pair1=pair1, pair2=pair2, mu1=mu, mu2=data.n - mu, critical_index=i)


def _unique_solution(pair1: Pair, mu1: int, mu2: int, data: InterpolationData) -> RationalFunction | None:
    """a1/b1 when mu1 < mu2 and the small pair, a trace row up to a constant, is reduced; else None."""
    return interpolant(*pair1, data) if mu1 < mu2 else None


def _degree_set(mu1: int, mu2: int, unique: RationalFunction | None) -> DegreeSet:
    return DegreeSet(isolated=None if unique is None else mu1, threshold=mu2)


def _node_constraints(
    data: InterpolationData, basis: MinimalBasis
) -> tuple[tuple[Fraction, Fraction | None], ...]:
    """Per node, the value of p at which b2 + p*b1 vanishes there (None: never)."""
    return tuple(zip(data.nodes, value_ratios(-basis.pair2[1], basis.pair1[1], data.nodes)))


def _family_member(data: InterpolationData, basis: MinimalBasis, delta: int) -> RationalFunction:
    """(a2 + p*a1)/(b2 + p*b1) for p = x**(delta - mu1) + k, k >= 0 least, delta >= mu2.

    With v = 1 the pair shares only node factors, so ``interpolant``'s node
    test decides it.  A node forbids at most one k, so one of
    k = 0..node_count passes, and the predictable-degree property gives
    every member max-degree delta; either failing certifies a broken basis.
    """
    (a1, b1), (a2, b2) = basis.pair1, basis.pair2
    shift = monomial(delta - basis.mu1)
    for p in (shift + k for k in range(data.node_count + 1)):
        member = interpolant(a2 + p * a1, b2 + p * b1, data)
        if member is None:
            continue
        if member.delta_degree != delta:
            raise CertificateError(f"a member has max-degree {member.delta_degree}, not {delta}; broken basis")
        return member
    raise CertificateError("every k in 0..node_count is forbidden at a node; broken basis")


def minimal_delta_solutions(data: InterpolationData) -> DeltaSolutionReport:
    """Classify the minimal max-degree solutions for the instance."""
    basis = minimal_basis(data)
    unique = _unique_solution(basis.pair1, basis.mu1, basis.mu2, data)
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
        representative=_family_member(data, basis, basis.mu2),
        family_degree=basis.mu2 - basis.mu1,
        node_constraints=_node_constraints(data, basis),
    )


def admissible_delta_set(data: InterpolationData) -> DegreeSet:
    """The exact set of max-degrees realized by interpolants; it reads no raw row, as no scale matters here."""
    trace, _, low, _, mu = _split(data)
    mu2 = data.n - mu
    return _degree_set(mu, mu2, _unique_solution(trace.unit_pair(low), mu, mu2, data))


def evaluate_parametrization(
    basis: MinimalBasis, p: Poly, q: Poly, data: InterpolationData
) -> RationalFunction:
    """The member (p*a1 + q*a2)/(p*b1 + q*b2), validated at the nodes.

    The basis pairs' 2x2 minor is +-c*f, so once gcd(p, q) is divided out
    any common factor left divides f: it is a node factor.  So the member
    is the reduced combination, or DenominatorVanishesAtNode at the first
    node, in data order, where gcd(p, q) or that denominator vanishes.
    """
    if p.is_zero and q.is_zero:
        raise ValueError("(p, q) must not both be zero")
    common = gcd(p, q)
    u, v = p.div_rem(common)[0], q.div_rem(common)[0]
    denom = u * basis.pair1[1] + v * basis.pair2[1]
    if denom.is_zero:
        raise ZeroDenominator("the combined denominator is the zero polynomial")
    for x in data.nodes:
        if not (common.nonzero_at((x,)) and denom.nonzero_at((x,))):
            raise DenominatorVanishesAtNode(x)
    return RationalFunction.coprime(u * basis.pair1[0] + v * basis.pair2[0], denom)


def sample_solution_of_delta(data: InterpolationData, delta: int) -> RationalFunction:
    """A concrete interpolant whose reduced max-degree is exactly delta."""
    delta = as_degree(delta, "delta")
    basis = minimal_basis(data)
    unique = _unique_solution(basis.pair1, basis.mu1, basis.mu2, data)
    admissible = _degree_set(basis.mu1, basis.mu2, unique)
    if delta not in admissible:
        raise DegreeNotAdmissible(f"no interpolant has max-degree {delta}; admissible: {admissible}")
    if unique is not None and delta == basis.mu1:
        return unique
    return _family_member(data, basis, delta)
