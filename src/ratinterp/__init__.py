"""Exact rational interpolation with multiplicities over the rationals.

The library answers, with exact arithmetic throughout:

* which rational functions match prescribed values and derivatives at
  given nodes (with a full parametrization of all of them),
* the minimal max-degree (delta) and minimal degree-sum (kappa) of such
  interpolants, with concrete witnesses,
* rational Hermite interpolation for a prescribed numerator/denominator
  degree split, and
* mu-bases of polynomial plane-curve parametrizations,

all read off the cofactor trace of the extended Euclidean algorithm.
"""

from .deltasolver import (
    DegreeSet,
    DeltaSolutionReport,
    MinimalBasis,
    admissible_delta_set,
    evaluate_parametrization,
    minimal_basis,
    minimal_delta_solutions,
    sample_solution_of_delta,
)
from .eea import (
    Decomposition,
    EEATrace,
    critical_indices,
    decompose,
    degree_split,
    extended_euclid,
)
from .errors import (
    CertificateError,
    DegreeNotAdmissible,
    DegreeTie,
    DenominatorVanishesAtNode,
    DomainError,
    KappaNotAdmissible,
    NotAnInterpolant,
    NotASyzygy,
    ZeroDenominator,
    ZeroSecondInput,
)
from .exactpoly import NEG_INF, ONE, X, ZERO, Poly, gcd, monomial
from .hermite import (
    InterpolationData,
    RationalFunction,
    check_interpolates,
    check_weak,
    hermite_polynomial,
    nodal_poly,
    weak_cofactor,
)
from .kappasolver import (
    KappaIsolated,
    KappaReport,
    admissible_kappa,
    hermite_rational,
    kappa_of,
    sample_solution_of_kappa,
    yy_form,
)
from .mubasis import (
    MovingLine,
    MuBasis,
    PlaneParametrization,
    cross_product_certificate,
    mu_basis,
    projective_form,
)

__version__ = "0.1.0"

__all__ = [
    "NEG_INF", "ONE", "X", "ZERO", "Poly", "gcd", "monomial",
    "InterpolationData", "RationalFunction", "check_interpolates", "check_weak",
    "hermite_polynomial", "nodal_poly", "weak_cofactor",
    "EEATrace", "Decomposition", "extended_euclid", "decompose",
    "critical_indices", "degree_split",
    "MinimalBasis", "DegreeSet", "DeltaSolutionReport",
    "minimal_basis", "minimal_delta_solutions", "admissible_delta_set",
    "evaluate_parametrization", "sample_solution_of_delta",
    "KappaIsolated", "KappaReport", "kappa_of", "yy_form", "admissible_kappa",
    "sample_solution_of_kappa", "hermite_rational",
    "PlaneParametrization", "MovingLine", "MuBasis", "mu_basis",
    "cross_product_certificate", "projective_form",
    "DomainError", "ZeroSecondInput", "DegreeTie", "NotASyzygy",
    "NotAnInterpolant", "ZeroDenominator", "DenominatorVanishesAtNode",
    "DegreeNotAdmissible", "KappaNotAdmissible", "CertificateError",
]
