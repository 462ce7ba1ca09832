"""Brute-force ground truth by exact linear algebra, independent of the
remainder-sequence machinery.

Each question is the kernel of a linear map on coefficient vectors, and
``nullspace`` (fraction-free elimination over the integers, exact
back-substitution over the rationals) is the one routine that finds it.
Two systems feed it: derivative conditions for weak pairs, stated with
the prescribed values only, so g never enters and agreement with the
trace-based solvers is evidence rather than a tautology; and
product-coefficient rows (``_convolution_rows``) for moving lines.

Admissible degree sums below n are decided split by split, each by one
kernel, because below n a weak pair is unique up to a common factor
(von zur Gathen & Gerhard, *Modern Computer Algebra*, §5.7): for weak
pairs (a, b) and (a', b') with deg a, deg a' <= da, deg b, deg b' <= db
and da + db < n, f divides a*b' - a'*b = (a - b*g)*b' - (a' - b'*g)*b,
whose degree is below n = deg f, so a*b' = a'*b.  If (a, b) is reduced
with deg b = db, then b divides b' and deg b' <= db, so (a', b') is a
scalar multiple of (a, b): the space has dimension one.  The split
therefore has an interpolant iff the space is one vector that is
reduced, of exact degrees, with its denominator nonzero at every node.
The lemma is checked on every basis, not assumed.

The dimension also decides "reduced": were a, b of that vector to share
a factor h of degree >= 1, h would divide b, which is nonzero at every
node, so h would be prime to f and (a/h, b/h)*u a weak pair of the split
for every u of degree <= deg h: dimension >= 2.  For a = 0, f divides
b*g with b prime to f, so g = 0, every (0, b') is a weak pair, and
dimension one forces db = 0.
"""

from __future__ import annotations

import bisect
import math
from fractions import Fraction

from .errors import CertificateError
from .exactpoly import Poly
from .hermite import InterpolationData
from .mubasis import PlaneParametrization


# -- fraction-free elimination ------------------------------------------------


def _cleared(row: list[Fraction]) -> list[int]:
    denom = math.lcm(*(c.denominator for c in row))
    return [int(c * denom) for c in row]


def _row_echelon_ff(rows: list[list[int]], width: int):
    """Bareiss fraction-free echelon form of rows of this width; pivots in every column."""
    m = [list(r) for r in rows]
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
    ech, piv_cols = _row_echelon_ff([_cleared(r) for r in rows], ncols)
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


def _least_degree(holds, n: int, what: str) -> int:
    """The least d with holds(d), monotone in d, bisected over 0..n // 2, where 2(d + 1) unknowns > n."""
    d = bisect.bisect_left(range(n // 2 + 1), True, key=holds)
    if d > n // 2:
        raise CertificateError(f"no {what} up to degree n // 2 = {n // 2}: 2(d + 1) unknowns > n conditions")
    return d


def min_degree_weak_pair(data: InterpolationData) -> int:
    """Smallest max-degree of a nonzero weak pair (one of degree <= delta is one of degree <= delta + 1)."""
    return _least_degree(lambda delta: bool(weak_pairs_upto(data, delta, delta)), data.n, "weak pair")


# -- degree sums below n ------------------------------------------------------


def _split_has_interpolant(data: InterpolationData, da: int, db: int) -> bool:
    """Is there an interpolant with numerator degree exactly da and
    denominator degree exactly db, in lowest terms?  Needs da + db < n.

    Below n all weak pairs are proportional (module docstring), so a
    reduced interpolant of the split is the one basis vector, if any,
    and a one-vector kernel of exact degrees is reduced.
    """
    if da + db >= data.n:
        raise ValueError(f"the split ({da}, {db}) needs da + db < n = {data.n}")
    basis = weak_pairs_upto(data, da, db)
    if not basis:
        return False
    (a0, b0), rest = basis[0], basis[1:]
    if any(a * b0 != a0 * b for a, b in rest):
        raise CertificateError(f"weak pairs of the split ({da}, {db}) are not proportional")
    if rest:
        return False
    return (
        (a0.degree == da or (a0.is_zero and da == 0))
        and b0.degree == db
        and all(b0(x) != 0 for x in data.nodes)
    )


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
    A line of degree <= d has degree <= d + 1, so d is bisected.
    """
    def holds(d: int) -> bool:
        return bool(nullspace(_convolution_rows([(param.r0, param.r1)], (d, d))[d + 1 :], 2 * (d + 1)))

    return _least_degree(holds, param.n, "moving line")
