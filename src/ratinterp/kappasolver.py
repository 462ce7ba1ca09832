"""Minimal degree-sum (kappa) solutions and rational Hermite interpolation.

For a reduced fraction a/b the degree sum is deg a + deg b.  Writing any
interpolant in the trace-row basis of (f, g) shows the degree sums below
n are exactly the values n - deg q_k for which s_k vanishes at no node,
each realized by the reduced row fraction r_k/s_k; every value >= n is
admissible as well, realized by the polynomial (x**(kappa - n) + 1)*f + g.

The prescribed-split problem (numerator degree <= d, denominator degree
<= n - d - 1) is decided by the single trace row whose remainder degree
first drops to d or below: it is solvable iff that row's r and s are
coprime, and then the reduced row fraction is the solution.

Row fractions are built by ``hermite.interpolant``, which reads
coprimality off the trace, never from a generic gcd.  It reads each row
as its unit pair (``EEATrace.unit_pair``): the fraction r_k/s_k scaled
monic does not depend on the row's scale, so ``hermite_rational``
rebuilds no raw row, and ``admissible_kappa`` rebuilds only the rows it
reports as ``raw_pair``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .eea import Decomposition, decompose
from .errors import KappaNotAdmissible, NotAnInterpolant
from .exactpoly import ONE, Poly, as_degree, monomial
from .hermite import InterpolationData, RationalFunction, interpolant, weak_cofactor

Pair = tuple[Poly, Poly]


@dataclass(frozen=True)
class KappaIsolated:
    """One admissible degree sum below n, with its witness row."""

    kappa: int
    index: int
    solution: RationalFunction
    raw_pair: Pair  # the trace row (r_k, s_k) before canonical rescaling

    def to_json(self) -> dict:
        return {
            "kappa": self.kappa,
            "index": self.index,
            "solution": self.solution.to_json(),
            "raw_pair": {"r": self.raw_pair[0].to_json(), "s": self.raw_pair[1].to_json()},
        }


@dataclass(frozen=True)
class KappaReport:
    """Isolated admissible degree sums, the tail threshold n, and the minimum."""

    isolated: tuple[KappaIsolated, ...]
    tail_threshold: int
    minimal_kappa: int
    minimal_solutions: tuple[RationalFunction, ...]

    def is_admissible(self, kappa: int) -> bool:
        if kappa >= self.tail_threshold:
            return True
        return any(entry.kappa == kappa for entry in self.isolated)

    def to_json(self, minimum_only: bool = False) -> dict:
        """The report as JSON; only the minimum and its witnesses if asked."""
        solutions = [rf.to_json() for rf in self.minimal_solutions]
        if minimum_only:
            return {"minimal_kappa": self.minimal_kappa, "minimal_solutions": solutions}
        return {
            "tail_threshold": self.tail_threshold,
            "minimal_kappa": self.minimal_kappa,
            "isolated": [entry.to_json() for entry in self.isolated],
            "minimal_solutions": solutions,
        }

    def text(self, minimum_only: bool = False) -> str:
        """The report as text; only the minimum and its witnesses if asked.

        The full form prints each solution once, in the isolated list, and
        names the minimal ones by their rows.
        """
        if minimum_only:
            return (f"minimal kappa = {self.minimal_kappa}\n"
                    "minimal solutions: " + "; ".join(str(rf) for rf in self.minimal_solutions))
        rows = [str(e.index) for e in self.isolated if e.kappa == self.minimal_kappa]
        return "\n".join([
            f"every kappa >= {self.tail_threshold} is admissible",
            "isolated admissible kappa values:",
            *(f"  kappa = {e.kappa} via row {e.index}: {e.solution}" for e in self.isolated),
            f"minimal kappa = {self.minimal_kappa}",
            f"minimal solutions: row{'s' * (len(rows) > 1)} {', '.join(rows)}",
        ])

    def __str__(self) -> str:
        return self.text()


def kappa_of(rf: RationalFunction) -> int:
    """deg numer + deg denom of a reduced fraction; constants count as 0."""
    top = rf.numer.degree if not rf.numer.is_zero else 0
    return top + rf.denom.degree


def yy_form(rf: RationalFunction, data: InterpolationData) -> Decomposition:
    """Trace-row coordinates of the canonical weak pair of an interpolant."""
    # check_interpolates would divide a - b*g by f once more than weak_cofactor
    if not rf.denom.nonzero_at(data.nodes):
        raise NotAnInterpolant(f"{rf} does not interpolate the data")
    try:
        c = weak_cofactor(rf.numer, rf.denom, data)
    except ValueError:
        raise NotAnInterpolant(f"{rf} does not interpolate the data") from None
    return decompose(rf.numer, rf.denom, c, data.trace())


def admissible_kappa(data: InterpolationData) -> KappaReport:
    """All admissible degree sums below n, with witnesses, plus the tail n."""
    trace = data.trace()
    entries = []
    # rows 1..N; the zero row N + 1 only when it is row 1 (all-zero data, 0/1)
    for k in range(1, max(trace.N, 1) + 1):
        solution = interpolant(*trace.unit_pair(k), data)  # r_k/s_k scaled monic: c_k cancels
        if solution is not None:
            # kappa_of(r_k/s_k) = n - deg q_k by the degree identities
            entries.append(KappaIsolated(
                kappa=kappa_of(solution), index=k,
                solution=solution, raw_pair=(trace.r(k), trace.s(k)),
            ))
    # k = 1 always qualifies (s_1 == 1), so the set is never empty
    minimal = min(entry.kappa for entry in entries)
    return KappaReport(
        isolated=tuple(entries),
        tail_threshold=data.n,
        minimal_kappa=minimal,
        minimal_solutions=tuple(e.solution for e in entries if e.kappa == minimal),
    )


def sample_solution_of_kappa(data: InterpolationData, kappa: int) -> RationalFunction:
    """A concrete interpolant of degree sum exactly kappa."""
    kappa = as_degree(kappa, "kappa")
    n = data.n
    if kappa >= n:
        # deg g < n, so the numerator has degree kappa over the denominator 1
        f, g = data.newton_pair
        return RationalFunction.coprime((monomial(kappa - n) + ONE) * f + g, ONE)
    report = admissible_kappa(data)
    for entry in report.isolated:
        if entry.kappa == kappa:
            return entry.solution
    raise KappaNotAdmissible(
        f"no interpolant has degree sum {kappa}; isolated values "
        f"{sorted({e.kappa for e in report.isolated})}, tail >= {n}"
    )


def hermite_rational(data: InterpolationData, d: int) -> RationalFunction | None:
    """The interpolant with deg numer <= d and deg denom <= n-d-1, if one exists."""
    n = data.n
    if as_degree(d, "d") > n - 1:
        raise ValueError(f"d must lie in 0..{n - 1}, got {d}")
    # the answer is row k, the first with deg r_k <= d.  Degrees drop strictly from row 1
    # on, so the first remainder of degree <= d + 1 is row k - 1 or row k, and the trace,
    # which stops one row past it, ends at row k or k + 1.  k may be the zero row N + 1:
    # 0/1 for all-zero data, else None (its s vanishes at a node)
    trace = data.trace(bound=d + 1)
    k = next(k for k in range(1, trace.N + 2) if trace.unit_pair(k)[0].degree <= d)
    return interpolant(*trace.unit_pair(k), data)
