"""Answer checking for the benchmark, run outside every timed region.

Every check raises ``CheckFailed``; none uses ``assert``, so the checks
hold under ``python -O`` as well.  Polynomials arrive as ascending
``Fraction`` coefficient tuples, whether they came from the CLI's JSON
or from library objects.

Polynomial identities (the row minor equals +-f, the cross product
equals +-(r0, r1, 1), the trace recurrences) are tested at a seeded
random point modulo the prime 2**61 - 1; a false identity passes with
probability below deg / 2**61 (Schwartz-Zippel).  The weak condition
f | a - b*g is tested node by node from the prescribed data, never from
the library's g: the Taylor coefficients of a - b*y at every node must
vanish to the node's multiplicity.  A nonzero test that fails modulo
the prime is repeated exactly before it is reported.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from generate import Instance, strip

PRIME = (1 << 61) - 1


class CheckFailed(Exception):
    """An answer that contradicts its certificate or its expected value."""


def fail(message: str):
    raise CheckFailed(message)


def degree(p) -> int:
    """Degree, with -1 for the zero polynomial."""
    return len(p) - 1


def mod(c: Fraction) -> int:
    den = c.denominator % PRIME
    if den == 0:
        fail(f"denominator of {c} is divisible by the check prime")
    return c.numerator % PRIME * pow(den, -1, PRIME) % PRIME


def ev(p, z: int) -> int:
    acc = 0
    for c in reversed(p):
        acc = (acc * z + mod(c)) % PRIME
    return acc


def exact_ev(p, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def taylor_mod(p, x: int, order: int) -> list[int]:
    """Taylor coefficients of p at x modulo the prime, by repeated synthetic division."""
    cs = [mod(c) for c in p]
    out = []
    for _ in range(order):
        if not cs:
            out.append(0)
            continue
        acc = 0
        quotient = [0] * (len(cs) - 1)
        for k in range(len(cs) - 1, -1, -1):
            acc = (acc * x + cs[k]) % PRIME
            if k:
                quotient[k - 1] = acc
        out.append(acc)
        cs = quotient
    return out


def _gcd_degree_mod(a, b) -> int:
    """Degree of gcd(a, b) modulo the prime; an upper bound of the rational one."""
    u = [mod(c) for c in a]
    v = [mod(c) for c in b]
    for w in (u, v):
        while w and w[-1] == 0:
            w.pop()
    while v:
        inv = pow(v[-1], -1, PRIME)
        while len(u) >= len(v):
            factor = u[-1] * inv % PRIME
            shift = len(u) - len(v)
            for i, c in enumerate(v):
                u[shift + i] = (u[shift + i] - factor * c) % PRIME
            while u and u[-1] == 0:
                u.pop()
        u, v = v, u
    return len(u) - 1


def _exact_gcd_degree(a, b) -> int:
    u, v = list(a), list(b)
    while v:
        while len(u) >= len(v):
            factor = u[-1] / v[-1]
            shift = len(u) - len(v)
            for i, c in enumerate(v):
                u[shift + i] -= factor * c
            u = list(strip(u))
        u, v = v, u
    return len(u) - 1


class Checker:
    """Certificates and expected answers for one instance stream."""

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(f"check:{seed}")

    def point(self) -> int:
        return self.rng.randrange(2, PRIME)

    # -- building blocks ----------------------------------------------------

    def nodal_at(self, inst: Instance, z: int) -> int:
        acc = 1
        for x, values in inst.points:
            acc = acc * pow((z - mod(x)) % PRIME, len(values), PRIME) % PRIME
        return acc

    def weak(self, a, b, inst: Instance, what: str) -> None:
        """f | a - b*g, tested as matching Taylor coefficients at every node."""
        for x, values in inst.points:
            m = len(values)
            xm = mod(x)
            ta, tb = taylor_mod(a, xm, m), taylor_mod(b, xm, m)
            ys = [mod(v / math.factorial(t)) for t, v in enumerate(values)]
            for j in range(m):
                rhs = sum(tb[j - t] * ys[t] for t in range(j + 1)) % PRIME
                if ta[j] != rhs:
                    fail(f"{what}: weak condition fails at node {x}, order {j}")

    def nonzero_at_nodes(self, b, inst: Instance, what: str) -> None:
        if not b:
            fail(f"{what}: zero denominator")
        for x, _ in inst.points:
            if ev(b, mod(x)) == 0 and exact_ev(b, x) == 0:
                fail(f"{what}: denominator vanishes at node {x}")

    def vanishes_at_some_node(self, b, inst: Instance) -> bool:
        return any(ev(b, mod(x)) == 0 and exact_ev(b, x) == 0 for x, _ in inst.points)

    def coprime(self, a, b, what: str) -> None:
        if not a:
            if degree(b) != 0:
                fail(f"{what}: zero function not written as 0/c")
            return
        if _gcd_degree_mod(a, b) > 0 and _exact_gcd_degree(a, b) > 0:
            fail(f"{what}: fraction is not reduced")

    def interpolant(self, sol, inst: Instance, what: str) -> None:
        """A reduced fraction that matches every prescribed value."""
        a, b = sol
        self.weak(a, b, inst, what)
        self.nonzero_at_nodes(b, inst, what)
        self.coprime(a, b, what)

    def same_fraction(self, sol, other, what: str) -> None:
        z = self.point()
        (a, b), (c, d) = sol, other
        if (ev(a, z) * ev(d, z) - ev(b, z) * ev(c, z)) % PRIME:
            fail(f"{what}: fraction differs from the expected one")

    # -- minimal basis and delta ----------------------------------------------

    def basis(self, basis, inst: Instance) -> None:
        """Weak pairs, split mu1 + mu2 = n, row minor a1*b2 - a2*b1 = +-f."""
        (a1, b1), (a2, b2), mu1, mu2 = basis
        n = inst.n
        self.weak(a1, b1, inst, "pair1")
        self.weak(a2, b2, inst, "pair2")
        if mu1 != max(degree(a1), degree(b1)) or mu2 != max(degree(a2), degree(b2)):
            fail("basis: mu does not match the pair degrees")
        if not 0 <= mu1 <= mu2 or mu1 + mu2 != n:
            fail(f"basis: split {mu1} + {mu2} is not an ordered split of n = {n}")
        z = self.point()
        minor = (ev(a1, z) * ev(b2, z) - ev(a2, z) * ev(b1, z)) % PRIME
        f = self.nodal_at(inst, z)
        if minor not in (f, (-f) % PRIME):
            fail("basis: row minor is not +-f")
        exp = inst.expected
        if "mu" in exp and (mu1, mu2) != tuple(exp["mu"]):
            fail(f"basis: mu ({mu1}, {mu2}) but construction gives {exp['mu']}")

    def delta_report(self, report, basis, inst: Instance) -> tuple[str, int]:
        """Kind, minimal delta, representative and node constraints of a report."""
        kind, minimal, rep, family_degree, constraints = report
        (a1, b1), (_, b2), mu1, mu2 = basis
        self.interpolant(rep, inst, "representative")
        rep_degree = max(degree(rep[0]), degree(rep[1]))
        if kind == "UNIQUE":
            if not (minimal == mu1 < mu2) or family_degree is not None:
                fail("UNIQUE report does not sit at mu1 < mu2")
            self.same_fraction(rep, (a1, b1), "unique representative")
        elif kind == "FAMILY":
            if minimal != mu2 or family_degree != mu2 - mu1:
                fail("FAMILY report does not sit at mu2")
            if mu1 < mu2 and not self.vanishes_at_some_node(b1, inst):
                fail("FAMILY report although pair1 gives an interpolant of degree mu1")
            if len(constraints) != len(inst.points):
                fail("FAMILY report: one node constraint per node expected")
            for (x, forbidden), (node, _) in zip(constraints, inst.points):
                if x != node:
                    fail("FAMILY report: node constraints out of order")
                b1x, b2x = exact_ev(b1, x), exact_ev(b2, x)
                want = None if b1x == 0 else -b2x / b1x
                if forbidden != want:
                    fail(f"FAMILY report: wrong forbidden parameter at node {x}")
        else:
            fail(f"unknown kind {kind!r}")
        if rep_degree != minimal:
            fail(f"representative has degree {rep_degree}, report says {minimal}")
        exp = inst.expected
        if "kind" in exp and (kind, minimal) != (exp["kind"], exp["minimal_delta"]):
            fail(f"delta: {kind} {minimal}, construction gives {exp['kind']} {exp['minimal_delta']}")
        if "solution" in exp:
            self.same_fraction(rep, exp["solution"], "delta representative")
        return kind, minimal

    def delta_set(self, isolated, threshold, truth: tuple[str, int, int]) -> None:
        kind, mu1, mu2 = truth
        want = (mu1 if kind == "UNIQUE" else None, mu2)
        if (isolated, threshold) != want:
            fail(f"admissible delta ({isolated}, {threshold}), expected {want}")

    def delta_sample(self, sol, delta: int, inst: Instance) -> None:
        self.interpolant(sol, inst, "delta sample")
        got = max(degree(sol[0]), degree(sol[1]), 0)
        if got != delta:
            fail(f"delta sample has max-degree {got}, asked for {delta}")

    # -- kappa ------------------------------------------------------------------

    @staticmethod
    def kappa_of(sol) -> int:
        return max(degree(sol[0]), 0) + degree(sol[1])

    def kappa_solution(self, sol, kappa: int, inst: Instance, what: str) -> None:
        self.interpolant(sol, inst, what)
        if self.kappa_of(sol) != kappa:
            fail(f"{what}: degree sum {self.kappa_of(sol)}, expected {kappa}")

    def kappa_minimum(self, minimal: int, solutions, inst: Instance) -> None:
        if not solutions:
            fail("kappa: no minimal solution listed")
        for sol in solutions:
            self.kappa_solution(sol, minimal, inst, "minimal kappa solution")
        exp = inst.expected
        if "minimal_kappa" in exp:
            if minimal != exp["minimal_kappa"]:
                fail(f"minimal kappa {minimal}, construction gives {exp['minimal_kappa']}")
            if len(solutions) != 1:
                fail("minimal kappa solution is not unique")
            self.same_fraction(solutions[0], exp["solution"], "minimal kappa solution")

    def kappa_report(self, tail, minimal, entries, minimal_solutions, inst: Instance) -> None:
        """entries: (kappa, raw pair, reduced solution) per isolated value."""
        n = inst.n
        if tail != n:
            fail(f"kappa tail threshold {tail}, expected n = {n}")
        if not entries:
            fail("kappa: no isolated value")
        for kappa, raw, sol in entries:
            if not 0 <= kappa < n:
                fail(f"isolated kappa {kappa} outside 0..n-1")
            self.kappa_solution(sol, kappa, inst, f"kappa {kappa} witness")
            if raw is not None:
                self.weak(raw[0], raw[1], inst, f"kappa {kappa} raw row")
                self.same_fraction(sol, raw, f"kappa {kappa} raw row")
        values = sorted({k for k, _, _ in entries})
        if minimal != values[0]:
            fail(f"minimal kappa {minimal} but the least isolated value is {values[0]}")
        self.kappa_minimum(minimal, minimal_solutions, inst)
        exp = inst.expected
        if "kappa_below" in exp:
            low, bound = exp["kappa_below"]
            if [k for k in values if k < bound] != [low]:
                fail(f"kappa values below {bound} are {values}, construction gives [{low}]")

    # -- prescribed split -------------------------------------------------------

    def hermite(self, d: int, sol, inst: Instance) -> None:
        n = inst.n
        exp = inst.expected
        known = "hermite_range" in exp and exp["hermite_range"][0] <= d <= exp["hermite_range"][1]
        if sol is None:
            if known:
                fail(f"hermite-d {d}: no solution, but construction gives one")
            self._confirm_unsolvable(d, inst)
            return
        self.interpolant(sol, inst, f"hermite-d {d}")
        if degree(sol[0]) > d or degree(sol[1]) > n - d - 1:
            fail(f"hermite-d {d}: solution exceeds the split ({d}, {n - d - 1})")
        if known:
            self.same_fraction(sol, exp["solution"], f"hermite-d {d}")

    def _confirm_unsolvable(self, d: int, inst: Instance) -> None:
        """No weak pair within the split has a denominator free of node zeros.

        The pairs with deg a <= d, deg b <= n-d-1 form the nullspace the
        oracle computes directly from the data.  The valid ones are the
        complement of finitely many hypersurfaces, so random integer
        combinations of the nullspace basis find one whenever one exists.
        """
        from ratinterp import oracle

        basis = oracle.weak_pairs_upto(self.data(inst), d, inst.n - d - 1)
        for _ in range(3):
            lams = [self.rng.randrange(1, 1 << 30) for _ in basis]
            b = strip(
                sum((lam * pair[1].coeff(k) for lam, pair in zip(lams, basis)), Fraction(0))
                for k in range(inst.n - d)
            )
            if b and not self.vanishes_at_some_node(b, inst):
                fail(f"hermite-d {d}: no solution reported, but one exists")

    def delta_truth(self, inst: Instance) -> tuple[str, int, int]:
        """(kind, mu1, mu2) from the construction, else from the oracle's nullspaces."""
        exp = inst.expected
        if "mu" in exp:
            return exp["kind"], exp["mu"][0], exp["mu"][1]
        from ratinterp import oracle

        data = self.data(inst)
        mu1 = oracle.min_degree_weak_pair(data)
        mu2 = inst.n - mu1
        if mu1 == mu2:
            return "FAMILY", mu1, mu2
        (pair,) = oracle.weak_pairs_upto(data, mu1, mu1)
        b = pair[1].coeffs
        return ("FAMILY" if self.vanishes_at_some_node(b, inst) else "UNIQUE"), mu1, mu2

    @staticmethod
    def data(inst: Instance):
        from ratinterp import InterpolationData

        return InterpolationData.from_pairs(inst.points)

    # -- remainder trace and mu-bases --------------------------------------------

    def trace(self, rows, quotients, inst: Instance) -> tuple[int, int]:
        """Recurrences of remainders and cofactors, degree drops, the inputs.

        rows: (r_i, s_i, t_i) for i = 0..N+1.  Returns (N, max quotient degree).
        """
        N = len(quotients)
        if len(rows) != N + 2 or N < 1:
            fail("trace: row count does not match the quotients")
        z = self.point()
        vals = [tuple(ev(p, z) for p in row) for row in rows]
        qs = [ev(q, z) for q in quotients]
        r0, r1 = rows[0][0], rows[1][0]
        if inst.is_param:
            if r0 != inst.r0 or r1 != inst.r1:
                fail("trace: first rows are not the input polynomials")
        else:
            if degree(r0) != inst.n or vals[0][0] != self.nodal_at(inst, z):
                fail("trace: r0 is not the node polynomial")
            if degree(r1) >= inst.n:
                fail("trace: r1 has degree >= n")
            self.weak(r1, (Fraction(1),), inst, "trace r1")
        if vals[0][1:] != (0, 1) or vals[1][1:] != (1, 0):
            fail("trace: cofactor start rows are not (0, 1), (1, 0)")
        if rows[N + 1][0] or not rows[N][0]:
            fail("trace: does not end with exactly one zero remainder")
        for i in range(1, N + 1):
            if degree(rows[i + 1][0]) >= degree(rows[i][0]):
                fail(f"trace: remainder degree does not drop at row {i + 1}")
            for slot in range(3):
                if (vals[i - 1][slot] - qs[i - 1] * vals[i][slot] - vals[i + 1][slot]) % PRIME:
                    fail(f"trace: recurrence fails at row {i + 1}, slot {slot}")
        return N, max(degree(q) for q in quotients)

    def mu_basis(self, mu: int, low, high, inst: Instance) -> None:
        """Both lines follow the curve, degrees mu + (n - mu) = n, cross product +-(r0, r1, 1)."""
        n = inst.n
        z = self.point()
        r0, r1 = ev(inst.r0, z), ev(inst.r1, z)
        lines = []
        for line, want in ((low, mu), (high, n - mu)):
            if max(degree(p) for p in line) != want:
                fail(f"mu-basis: line degree is not {want}")
            u = tuple(ev(p, z) for p in line)
            if (u[0] * r0 + u[1] * r1 + u[2]) % PRIME:
                fail("mu-basis: a line does not follow the parametrization")
            lines.append(u)
        if not 0 <= mu <= n - mu:
            fail(f"mu-basis: mu = {mu} is not minimal in the split of {n}")
        u, v = lines
        cross = (
            (u[1] * v[2] - u[2] * v[1]) % PRIME,
            (u[2] * v[0] - u[0] * v[2]) % PRIME,
            (u[0] * v[1] - u[1] * v[0]) % PRIME,
        )
        target = (r0, r1, 1)
        if cross != target and cross != tuple((-t) % PRIME for t in target):
            fail("mu-basis: cross product is not +-(r0, r1, 1)")
