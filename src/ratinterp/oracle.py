"""Brute-force ground truth by exact linear algebra, independent of the
remainder-sequence machinery.

Each question is the kernel of a linear map on coefficient vectors, and
``nullspace`` (fraction-free elimination over the integers, exact
back-substitution over the rationals) is the one routine that finds it.
Three systems feed it: derivative conditions for weak pairs, stated with
the prescribed values only, so g never enters and agreement with the
trace-based solvers is evidence rather than a tautology;
product-coefficient rows (``_convolution_rows``) for moving lines,
coprimality and coordinates in a pair basis; and the augmented system
(A | -b) for ``solve_linear``.

Admissible degree sums below n are decided split by split: the valid
members of a solution space (exact top degrees, denominator nonzero at
the nodes, coprime) form the complement of finitely many hypersurfaces,
so a full scan of a grid larger than the product degree either exhibits
a member or proves there is none.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .errors import CertificateError
from .exactpoly import Poly
from .hermite import InterpolationData
from .mubasis import PlaneParametrization


# -- fraction-free elimination ------------------------------------------------


def _cleared(row: list[Fraction]) -> list[int]:
    denom = math.lcm(*(c.denominator for c in row)) if row else 1
    return [int(c * denom) for c in row]


def _row_echelon_ff(rows: list[list[int]]):
    """Bareiss fraction-free echelon form of nonempty rows; pivots in every column."""
    m = [list(r) for r in rows]
    width = len(m[0])
    piv_cols: list[int] = []
    rank = 0
    prev = 1
    for c in range(width):
        pivot_row = next((i for i in range(rank, len(m)) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[rank], m[pivot_row] = m[pivot_row], m[rank]
        # the update must hit every row below, zero head included: rows are
        # rescaled by the pivot so the next division by `prev` stays exact
        for i in range(rank + 1, len(m)):
            head = m[i][c]
            for j in range(c + 1, width):
                m[i][j] = (m[i][j] * m[rank][c] - head * m[rank][j]) // prev
            m[i][c] = 0
        prev = m[rank][c]
        piv_cols.append(c)
        rank += 1
        if rank == len(m):
            break
    return m[:rank], piv_cols


def nullspace(matrix: list[list[Fraction]], ncols: int) -> list[list[Fraction]]:
    """Exact basis of the right nullspace, one vector per free column."""
    rows = [r for r in matrix if any(c != 0 for c in r)]
    if not rows:
        return [
            [Fraction(1) if j == i else Fraction(0) for j in range(ncols)]
            for i in range(ncols)
        ]
    ech, piv_cols = _row_echelon_ff([_cleared(r) for r in rows])
    pivots = set(piv_cols)
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[free] = Fraction(1)
        for row, pc in reversed(list(zip(ech, piv_cols))):
            acc = sum((Fraction(row[j]) * v[j] for j in range(pc + 1, ncols)), Fraction(0))
            v[pc] = -acc / row[pc]
        if any(sum((c * x for c, x in zip(r, v)), Fraction(0)) != 0 for r in rows):
            raise CertificateError("nullspace vector does not solve the system")
        basis.append(v)
    return basis


def solve_linear(matrix: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction] | None:
    """One exact solution (free unknowns zero), or None when inconsistent.

    It heads the kernel vector of (matrix | -rhs) whose free column is the
    last one; when that column is a pivot, every kernel vector ends in 0.
    """
    ncols = len(matrix[0]) if matrix else 0
    basis = nullspace([list(r) + [-v] for r, v in zip(matrix, rhs)], ncols + 1)
    if not basis or basis[-1][ncols] == 0:
        return None
    return basis[-1][:ncols]


def _convolution_rows(blocks: list[tuple[Poly, ...]], degrees: tuple[int, ...]) -> list[list[Fraction]]:
    """Matrix of (u_1, ..., u_k) -> sum p_j*u_j with deg u_j <= degrees[j].

    Each block (p_1, ..., p_k) gives the rows of the sum's coefficients from
    degree 0 up; the columns hold u_1's coefficients, then u_2's, and so on.
    """
    zero = Fraction(0)
    rows = []
    for block in blocks:
        coeffs = [p.coeffs for p in block]
        top = max((len(c) - 1 + d for c, d in zip(coeffs, degrees) if c and d >= 0), default=-1)
        for m in range(top + 1):
            row = []
            for c, d in zip(coeffs, degrees):
                row += [c[m - k] if 0 <= m - k < len(c) else zero for k in range(d + 1)]
            rows.append(row)
    return rows


# -- weak interpolation pairs -------------------------------------------------


def weak_system(data: InterpolationData, da: int, db: int) -> list[list[Fraction]]:
    """Linearized derivative conditions on coefficients (a_0..a_da, b_0..b_db).

    Row (i, j) states (a - b*g)^(j)(x_i) = 0 using only the prescribed
    values: the g-derivatives of order <= j at x_i are the data itself.
    """
    rows = []
    for x, values in data.points:
        for j in range(len(values)):
            row = []
            for k in range(da + 1):
                row.append(
                    Fraction(math.perm(k, j)) * x ** (k - j) if k >= j else Fraction(0)
                )
            for k in range(db + 1):
                acc = Fraction(0)
                for t in range(min(j, k) + 1):
                    acc += math.comb(j, t) * values[j - t] * math.perm(k, t) * x ** (k - t)
                row.append(-acc)
            rows.append(row)
    return rows


def weak_pairs_upto(
    data: InterpolationData, da: int, db: int
) -> list[tuple[Poly, Poly]]:
    """Exact basis of the weak pairs with deg a <= da and deg b <= db."""
    vectors = nullspace(weak_system(data, da, db), da + db + 2)
    return [(Poly(v[: da + 1]), Poly(v[da + 1 :])) for v in vectors]


def min_degree_weak_pair(data: InterpolationData) -> int:
    """Smallest max-degree of a nonzero weak pair."""
    for delta in range(data.n + 1):
        if weak_pairs_upto(data, delta, delta):
            return delta
    raise CertificateError("no weak pair up to degree n")


def express_in_pair_basis(
    pair: tuple[Poly, Poly],
    basis1: tuple[Poly, Poly],
    basis2: tuple[Poly, Poly],
    dp: int,
    dq: int,
) -> tuple[Poly, Poly] | None:
    """Solve pair == p*basis1 + q*basis2 with deg p <= dp, deg q <= dq."""
    rows = _convolution_rows(
        [(basis1[0], basis2[0], pair[0]), (basis1[1], basis2[1], pair[1])], (dp, dq, 0)
    )
    solution = solve_linear([r[:-1] for r in rows], [r[-1] for r in rows])
    if solution is None:
        return None
    np_ = max(dp + 1, 0)
    return Poly(solution[:np_]), Poly(solution[np_:])


# -- degree sums below n ------------------------------------------------------


def _coprime(a: Poly, b: Poly) -> bool:
    """Coprimality by elimination, keeping this module free of gcd routines.

    Nonzero a, b share a factor iff some u*a + v*b == 0 with
    deg u < deg b and deg v < deg a, i.e. iff the Sylvester-style
    system has a nonzero kernel.
    """
    if a.is_zero:
        return not b.is_zero and b.degree == 0
    if b.is_zero:
        return a.degree == 0
    da, db = a.degree, b.degree
    if da == 0 or db == 0:
        return True
    return not nullspace(_convolution_rows([(a, b)], (db - 1, da - 1)), da + db)


def _split_has_interpolant(data: InterpolationData, da: int, db: int) -> bool:
    """Is there an interpolant with numerator degree exactly da and
    denominator degree exactly db, in lowest terms?

    The solution space is scanned over a grid large enough that the
    product of the finitely many disqualifying polynomials (degree
    drops, node zeros, a common factor) cannot vanish everywhere on it
    unless one of them vanishes identically.
    """
    basis = weak_pairs_upto(data, da, db)
    if not basis:
        return False
    nodes = data.nodes
    # identically-failing linear conditions end the search early;
    # the zero numerator is still a valid reduced fraction when db == 0
    if (da > 0 or db > 0) and all(a.coeff(da) == 0 for a, _ in basis):
        return False
    if all(b.coeff(db) == 0 for _, b in basis):
        return False
    for x in nodes:
        if all(b(x) == 0 for _, b in basis):
            return False
    grid_size = 2 + len(nodes) + da + db + 1
    for lams in itertools.product(range(grid_size), repeat=len(basis)):
        if not any(lams):
            continue
        a = Poly(())
        b = Poly(())
        for lam, (ba, bb) in zip(lams, basis):
            if lam:
                a = a + lam * ba
                b = b + lam * bb
        if a.is_zero:
            if da != 0:
                continue
        elif a.degree != da:
            continue
        if b.is_zero or b.degree != db:
            continue
        if any(b(x) == 0 for x in nodes):
            continue
        if not _coprime(a, b):
            continue
        return True
    return False


def kappa_values_below_n(data: InterpolationData) -> set[int]:
    """Exhaustively found degree sums of interpolants below n."""
    found = set()
    for kappa in range(data.n):
        if any(
            _split_has_interpolant(data, da, kappa - da) for da in range(kappa + 1)
        ):
            found.add(kappa)
    return found


# -- moving lines -------------------------------------------------------------


def min_mu_oracle(param: PlaneParametrization) -> int:
    """Smallest degree of a nonzero moving line, by direct nullspace search.

    At candidate degree d the unknowns are the coefficients of u and v;
    w = -(u*r0 + v*r1) absorbs everything of degree <= d, so the
    conditions are the coefficients of u*r0 + v*r1 in degrees d+1..d+n.
    """
    for d in range(param.n + 1):
        rows = _convolution_rows([(param.r0, param.r1)], (d, d))[d + 1 :]
        if nullspace(rows, 2 * (d + 1)):
            return d
    raise CertificateError("no moving line up to degree n")
