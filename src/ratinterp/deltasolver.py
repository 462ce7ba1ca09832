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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .eea import degree_split
from .errors import CertificateError, DegreeNotAdmissible, DenominatorVanishesAtNode, ZeroDenominator
from .exactpoly import ONE, ZERO, Poly, _rational_str, monomial
from .hermite import InterpolationData, RationalFunction, combine, interpolant

Pair = tuple[Poly, Poly]


@dataclass(frozen=True)
class MinimalBasis:
    """Two weak pairs generating all of them, with degree split mu1 + mu2 = n."""

    pair1: Pair
    pair2: Pair
    mu1: int
    mu2: int
    critical_index: int  # trace index of the basis rows; -1 for the all-zero case

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
    n = data.n
    trace = data.trace()
    if trace is None:
        # all prescribed values are zero: (0, 1) interpolates and the
        # split 0 + n certifies minimality directly
        return MinimalBasis(
            pair1=(ZERO, ONE), pair2=(data.newton_pair[0], ZERO),
            mu1=0, mu2=n, critical_index=-1,
        )
    i, low, high, mu = degree_split(trace)
    return MinimalBasis(pair1=low, pair2=high, mu1=mu, mu2=n - mu, critical_index=i)


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


def _family_parameter(basis: MinimalBasis, constraints) -> Poly:
    """p = x**e + k, e = mu2 - mu1, with the least k >= 0 that no node forbids.

    Node x_i forbids p(x_i) == v_i, that is k == v_i - x_i**e.
    """
    e = basis.mu2 - basis.mu1
    banned = {v - x**e for x, v in constraints if v is not None}
    k = 0
    while k in banned:
        k += 1
    return monomial(e) + k


def _family_member(data: InterpolationData, basis: MinimalBasis, p: Poly) -> RationalFunction:
    """The member (a2 + p*a1)/(b2 + p*b1), for p from ``_family_parameter``.

    Its node test and its degree are checked.
    """
    member = combine(basis.pair1, basis.pair2, p, ONE, data)
    if member is None or member.delta_degree != basis.mu2:
        raise CertificateError(f"family member for p = {p} fails its degree or node check")
    return member


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
    constraints = _node_constraints(data, basis)
    return DeltaSolutionReport(
        kind="FAMILY",
        minimal_delta=basis.mu2,
        basis=basis,
        representative=_family_member(data, basis, _family_parameter(basis, constraints)),
        family_degree=basis.mu2 - basis.mu1,
        node_constraints=constraints,
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
    if not (unique is not None and delta == basis.mu1) and delta < basis.mu2:
        raise DegreeNotAdmissible(
            f"no interpolant has max-degree {delta}; "
            f"admissible: {_degree_set(basis, unique)}"
        )
    if unique is not None:
        if delta == basis.mu1:
            return unique
        u0, v0 = ONE, ZERO
    else:
        u0, v0 = _family_parameter(basis, _node_constraints(data, basis)), ONE
        if delta == basis.mu2:
            return _family_member(data, basis, u0)
    # Climb from the minimal solution c*(u0*pair1 + v0*pair2), with
    # c = 1/lead(u0*b1 + v0*b2): adding lam * x**m * pair2, m = delta - mu2,
    # raises the degree to exactly delta for every lam != 0.  Each node
    # forbids at most one lam and gcd(c*u0, c*v0 + lam*x**m) != 1 at most
    # deg u0 of them, so one of the first node_count + deg u0 + 1 values
    # is accepted.
    c = 1 / (u0 * basis.pair1[1] + v0 * basis.pair2[1]).leading
    shift = monomial(delta - basis.mu2)
    for lam in range(1, data.node_count + u0.degree + 2):
        candidate = combine(basis.pair1, basis.pair2, c * u0, c * v0 + lam * shift, data)
        if candidate is not None and candidate.delta_degree == delta:
            return candidate
    raise CertificateError(f"no multiplier up to {lam} gives degree {delta}; broken basis")
