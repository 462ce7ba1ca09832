"""Exception types shared across the library.

``DomainError`` covers requests that are syntactically fine but have no
valid answer (an inadmissible degree, a denominator vanishing at a node,
and so on).  Malformed input keeps raising ``ValueError`` as usual; the
CLI maps the two families to different exit codes.
"""

from __future__ import annotations


class DomainError(Exception):
    """A well-formed request with no valid answer."""


class ZeroSecondInput(DomainError):
    """The remainder sequence needs a nonzero second polynomial."""


class DegreeTie(DomainError):
    """Decomposition in the remainder-sequence basis needs deg r0 > deg r1."""


class NotASyzygy(DomainError):
    """The triple does not satisfy a = r1*b + r0*c."""


class NotAnInterpolant(DomainError):
    """The fraction does not interpolate the given data."""


class ZeroDenominator(DomainError):
    """A rational function needs a nonzero denominator."""


class DenominatorVanishesAtNode(DomainError):
    """The combined denominator vanishes at one of the interpolation nodes."""

    def __init__(self, node):
        self.node = node
        super().__init__(f"denominator vanishes at node {node}")


class DegreeNotAdmissible(DomainError):
    """No interpolant has the requested max-degree."""


class KappaNotAdmissible(DomainError):
    """No interpolant has the requested degree sum."""


class CertificateError(AssertionError):
    """A certificate the library checks on its own output failed: a broken trace or basis."""
