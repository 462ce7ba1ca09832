"""Minimal-degree moving lines of a polynomial plane parametrization.

A moving line u(x)*T0 + v(x)*T1 + w(x) follows the parametrization
t -> (r0(t), r1(t)) when u*r0 + v*r1 + w = 0, i.e. (u, v, w) is a
relation among (r0, r1, 1).  The rows of the remainder trace of
(r0, r1) supply such relations, (t_i, s_i, -r_i), and at the critical
index, where consecutive row degrees split n = deg r0, the two rows
form a basis of all moving lines with degrees mu and n - mu, mu
minimal.  It is the split that also gives the minimal basis of the
interpolation problem (``eea.degree_split``).  The trace is a half one
truncated at ``eea.split_bound``, which keeps both split rows, and t is
derived, with its certificate, at those two rows only.  A constant or
zero r1 needs no case of its own: index 0 is then critical, and row 1
gives the degree-0 line T1 - r1.
"""

from __future__ import annotations

from dataclasses import dataclass

from .eea import EEATrace, degree_split, half_trace, split_bound
from .exactpoly import ONE, Poly


@dataclass(frozen=True)
class PlaneParametrization:
    """t -> (r0(t), r1(t)) with deg r0 >= deg r1 and r0 nonconstant."""

    r0: Poly
    r1: Poly

    def __post_init__(self) -> None:
        if self.r0.is_zero or self.r0.degree < 1:
            raise ValueError("r0 must be nonconstant")
        if self.r0.degree < self.r1.degree:
            raise ValueError("inputs must satisfy deg r0 >= deg r1")

    @property
    def n(self) -> int:
        return self.r0.degree


@dataclass(frozen=True)
class MovingLine:
    """The line ct0(x)*T0 + ct1(x)*T1 + c1(x)."""

    ct0: Poly
    ct1: Poly
    c1: Poly

    @property
    def degree(self) -> int | float:
        return max(self.ct0.degree, self.ct1.degree, self.c1.degree)

    def __str__(self) -> str:
        return _line_str([(self.ct0, "T0"), (self.ct1, "T1"), (self.c1, "")])

    def to_json(self) -> dict:
        return {"ct0": self.ct0.to_json(), "ct1": self.ct1.to_json(), "c1": self.c1.to_json()}

    @classmethod
    def from_row(cls, trace: EEATrace, i: int) -> "MovingLine":
        """The line t_i*T0 + s_i*T1 - r_i of trace row i."""
        return cls(trace.t(i), trace.s(i), -trace.r(i))


@dataclass(frozen=True)
class MuBasis:
    """Two moving lines of degrees mu <= n - mu generating all of them."""

    mu: int
    low: MovingLine
    high: MovingLine

    def to_json(self, projective: bool = False) -> dict:
        """The basis as JSON; with the homogenized lines if asked."""
        out = {"mu": self.mu, "low": self.low.to_json(), "high": self.high.to_json()}
        if projective:
            out["projective"] = [projective_form(self.low), projective_form(self.high)]
        return out

    def text(self, projective: bool = False) -> str:
        """The basis as text; with the homogenized lines if asked."""
        lines = [
            f"mu = {self.mu}",
            f"low  (degree {self.low.degree}): {self.low}",
            f"high (degree {self.high.degree}): {self.high}",
        ]
        if projective:
            lines.append(f"projective low:  {projective_form(self.low)}")
            lines.append(f"projective high: {projective_form(self.high)}")
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.text()


def mu_basis(param: PlaneParametrization) -> MuBasis:
    """Minimal-degree basis of the moving lines of the parametrization."""
    trace = half_trace(param.r0, param.r1, bound=split_bound(param.n))
    _, low, high, mu = degree_split(trace)
    return MuBasis(mu=mu, low=MovingLine.from_row(trace, low), high=MovingLine.from_row(trace, high))


def verify_moving_line(line: MovingLine, param: PlaneParametrization) -> bool:
    """True iff the line vanishes identically along the parametrization."""
    return (line.ct0 * param.r0 + line.ct1 * param.r1 + line.c1).is_zero


def cross_product_certificate(basis: MuBasis, param: PlaneParametrization) -> bool:
    """True iff the cross product of the two coefficient triples is +-(r0, r1, 1).

    This is the determinant identity that makes a row pair a basis; it
    fails for any pair of lines that merely happen to follow the curve.
    """
    u = (basis.low.ct0, basis.low.ct1, basis.low.c1)
    v = (basis.high.ct0, basis.high.ct1, basis.high.c1)
    cross = (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )
    target = (param.r0, param.r1, ONE)
    return cross == target or cross == tuple(-p for p in target)


# -- display helpers ---------------------------------------------------------


def _line_str(slots: list[tuple[Poly, str]], homogeneous_degree: int | None = None) -> str:
    terms: list[str] = []
    for poly, label in slots:
        if poly.is_zero:
            continue
        body = poly.format(homogeneous_degree)
        if not label:
            terms.append(body)
        elif " " in body:
            terms.append(f"({body})*{label}")
        elif body in ("1", "-1"):
            terms.append(label if body == "1" else f"-{label}")
        else:
            terms.append(f"{body}*{label}")
    return " + ".join(terms).replace(" + -", " - ") or "0"


def projective_form(line: MovingLine) -> str:
    """Render with each coefficient homogenized by z to the line's degree.

    The constant slot becomes the T2 coefficient.  Display only; no
    homogeneous arithmetic is performed.
    """
    return _line_str(
        [(line.ct0, "T0"), (line.ct1, "T1"), (line.c1, "T2")],
        homogeneous_degree=int(line.degree),
    )
