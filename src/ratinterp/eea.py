"""The extended Euclidean algorithm with its cofactor trace.

Starting from r0, r1 the remainder recurrence

    r_i = q_{i+1} * r_{i+1} + r_{i+2}

runs, while the cofactor rows evolve by the same recurrence from
(s0, t0) = (0, 1) and (s1, t1) = (1, 0), so that

    r_i = s_i * r1 + t_i * r0      for every i.

Division is unique, so that identity follows from the start rows and
the recurrence, the only things ``EEATrace.check_invariants`` checks.
A *complete* trace runs to r_{N+1} = 0.  A *truncated* one stops one
row past the first remainder of degree <= ``bound``, as rational
function reconstruction stops at a degree bound (von zur Gathen &
Gerhard, 5.7); the readers of every row (``full_rows``, ``decompose``,
``recombine``) refuse it.  A trace keeps every row it computes and
every quotient; remainders are stored exactly as produced (no monic
rescaling), since downstream consumers depend on the raw values.  A
*half* trace has rows (r_i, s_i) only; its ``t(i)`` derives t_i from the
row identity by exact division by r0, a checked certificate.  Queries
take half traces from ``half_trace``, which maps r1 = 0, refused by
``extended_euclid``, to the trivial trace: rows (r0, 0), (0, 1), N = 0,
and returns the start rows alone as well where the bound lets no
division run (deg r0 <= bound).

``decompose`` inverts the trace: any triple (a, b, c) with
a = r1*b + r0*c has a unique expansion a, b, c = sum m_i * (r_i, s_i, t_i)
with deg m_i < deg q_i for 1 <= i <= N.  Because the s-degrees increase
in steps of exactly deg q_i, the m_i fall out of repeated Euclidean
division of b by the s_i from the top down, and m_0 is then fixed by a
and the r column, so no t is needed.

``degree_split`` picks the rows at the smallest critical index, where
consecutive row degrees split n = deg r0.  Those two rows are both the
minimal basis of the interpolation problem and the mu-basis of a plane
parametrization.  Index 0 is critical exactly when deg r1 <= 0: rows
(r0, 0) and (r1, 1) split n = n + 0.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CertificateError, DegreeTie, NotASyzygy, ZeroSecondInput
from .exactpoly import NEG_INF, ONE, ZERO, Poly

Row = tuple[Poly, ...]  # (r_i, s_i, t_i); (r_i, s_i) in a half trace

PAD_WIDTH = 80  # the text table pads no column whose widest cell is wider


@dataclass(frozen=True)
class EEATrace:
    """Rows (r_i, s_i, t_i), or (r_i, s_i) if half, for i = 0..N+1 and quotients q_1..q_N."""

    rows: tuple[Row, ...]
    quotients: tuple[Poly, ...]

    @property
    def N(self) -> int:
        return len(self.quotients)

    @property
    def n(self) -> int:
        return self.rows[0][0].degree

    @property
    def complete(self) -> bool:
        """True iff r_{N+1} = 0, i.e. the run was not truncated."""
        return self.r(self.N + 1).is_zero

    def r(self, i: int) -> Poly:
        return self.rows[i][0]

    def s(self, i: int) -> Poly:
        return self.rows[i][1]

    def t(self, i: int) -> Poly:
        """t_i; on a half trace (r_i - s_i*r1) / r0, which must divide exactly."""
        row = self.rows[i]
        if len(row) == 3:
            return row[2]
        t, rem = (row[0] - row[1] * self.r(1)).div_rem(self.r(0))
        _certify(rem.is_zero, f"r0 does not divide r_{i} - s_{i}*r1; broken trace")
        return t

    def full_rows(self) -> tuple[Row, ...]:
        """Every row as (r_i, s_i, t_i), t read through ``t(i)``; a complete trace only."""
        _require_complete(self)
        return tuple((self.r(i), self.s(i), self.t(i)) for i in range(len(self.rows)))

    def q(self, i: int) -> Poly:
        """Quotient q_i, 1-indexed: r_{i-1} = q_i * r_i + r_{i+1}."""
        return self.quotients[i - 1]

    def check_invariants(self) -> None:
        """Check what defines the trace, and so every identity; raise CertificateError if one fails.

        Euclidean division is unique, so the start rows, the strict degree drop and the recurrence
        c_{i+1} = c_{i-1} - q_i*c_i in every stored column make this the trace of (r0, r1).  That
        recurrence is linear, so rows read as moving lines (t, s, -r) have cross(row_i, row_{i+1})
        = -cross(row_{i-1}, row_i) = ... = (-1)^i*(r0, r1, 1), orthogonal to both factors: that is
        the row identity r_i = s_i*r1 + t_i*r0.  A strict drop with deg r0 >= deg r1 forces q_i != 0,
        so deg r_{i-1} = deg q_i + deg r_i, deg q_i >= 1 for i >= 2, and deg s_{i+1} = deg q_1 +
        ... + deg q_i.
        """
        N, rows = self.N, self.rows
        _certify(len(rows) == N + 2, "row count does not match the quotients")
        _certify((rows[0][1:], rows[1][1:]) in (((ZERO, ONE), (ONE, ZERO)), ((ZERO,), (ONE,))),
                 "start rows are not (s, t) = (0, 1), (1, 0)")
        _certify(self.r(0).degree >= self.r(1).degree and not self.r(N).is_zero, "deg r0 < deg r1, or r_N = 0")
        for i, q in enumerate(self.quotients, 1):
            _certify(self.r(i + 1).degree < self.r(i).degree, f"degree not dropping at {i}")
            _certify(rows[i + 1] == tuple(p - q * c for p, c in zip(rows[i - 1], rows[i])),
                     f"recurrence fails at {i}")

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "N": self.N,
            "rows": [
                {"i": i, "r": r.to_json(), "s": s.to_json(), "t": t.to_json()}
                for i, (r, s, t) in enumerate(self.full_rows())
            ],
            "quotients": [q.to_json() for q in self.quotients],
        }

    def __str__(self) -> str:
        """The remainder/cofactor table, one row per i.

        A column is padded to its widest cell only when that cell has at
        most ``PAD_WIDTH`` characters; a wider column prints unpadded, as
        padding it would fill the table with spaces, and its rule under
        the header is as wide as the header.
        """
        table = [["i", "deg r_i", "r_i", "s_i", "t_i", "q_i"]]
        for i, (r, s, t) in enumerate(self.full_rows()):
            q = str(self.q(i)) if 1 <= i <= self.N else ""
            table.append([str(i), "-inf" if r.is_zero else str(r.degree), str(r), str(s), str(t), q])
        widths = [max(len(line[c]) for line in table) for c in range(len(table[0]))]
        widths = [w if w <= PAD_WIDTH else 0 for w in widths]
        lines = ["  ".join(cell.ljust(w) for cell, w in zip(line, widths)).rstrip() for line in table]
        lines.insert(1, "  ".join("-" * (w or len(head)) for w, head in zip(widths, table[0])))
        return "\n".join(lines)


def _certify(ok: bool, message: str) -> None:
    if not ok:
        raise CertificateError(message)


def _require_complete(trace: EEATrace) -> None:
    if not trace.complete:
        raise ValueError("this needs every row; the trace was truncated")


def critical_indices(trace: EEATrace) -> tuple[int, ...]:
    """All trace indices whose row pair splits n; there are one or two.

    Index i qualifies when deg r_i >= deg s_i and deg s_{i+1} >= deg r_{i+1},
    which by the cumulative degree identities is the straddle condition on
    the quotient degree sums.
    """
    out = tuple(
        i for i in range(trace.N + 1)
        if trace.r(i).degree >= trace.s(i).degree
        and trace.s(i + 1).degree >= trace.r(i + 1).degree
    )
    _certify(1 <= len(out) <= 2, f"critical index count {len(out)}; broken remainder sequence")
    return out


def degree_split(trace: EEATrace) -> tuple[int, int, int, int]:
    """(i, low, high, mu): the indices i and i+1 at the smallest critical index i.

    A row's degree is max(deg r, deg s) (deg t never exceeds it).  The
    indices come ordered by row degree, row i staying low on a tie, and
    mu is the low degree.  Both the minimal basis of the weak pairs and
    the mu-basis of moving lines are this split.  Certificate: the two
    degrees sum to n, else ``CertificateError``.
    """
    i = critical_indices(trace)[0]
    low, high = i, i + 1
    d_low, d_high = (int(max(trace.r(j).degree, trace.s(j).degree)) for j in (low, high))
    if d_high < d_low:
        low, high, d_low, d_high = high, low, d_high, d_low
    _certify(d_low + d_high == trace.n, f"row degrees {d_low} + {d_high} do not split n = {trace.n}")
    return i, low, high, d_low


@dataclass(frozen=True)
class Decomposition:
    """Coordinates m_0..m_{N+1} of a triple in the trace-row basis."""

    m: tuple[Poly, ...]


def split_bound(n: int) -> int:
    """The ``bound`` at which a trace with deg r0 = n keeps its degree split.

    At the smallest critical index i, deg r_{i-1} + deg r_i >= n >= deg r_i +
    deg r_{i+1}, as deg s_j = n - deg r_{j-1} (the first is vacuous at i = 0).
    Degrees fall strictly from row 1 on, so deg r_{i+1} < n/2 < deg r_{i-1}:
    the first remainder of degree <= n // 2 is row i or i + 1, and the trace
    keeps both.  If it is row i, deg r_i + deg r_{i+1} < n, so index i + 1 is
    not critical and no tie is lost.
    """
    return n // 2


def extended_euclid(r0: Poly, r1: Poly, *, half: bool = False, bound: int | float = NEG_INF) -> EEATrace:
    """Run the algorithm on r0, r1 with deg r0 >= deg r1 >= 0.

    Rows are (r, s, t), all computed here; with ``half=True`` they are
    (r, s), with the same quotients.  The run stops one row after the
    first remainder of degree <= ``bound`` (by default none), or at
    r_{N+1} = 0 if that comes first.  Keywords, not more functions, so
    that every run of the algorithm is a call of this one.
    """
    if r1.is_zero:
        raise ZeroSecondInput("the second input polynomial is zero")
    if r0.is_zero or r0.degree < r1.degree:
        raise ValueError("inputs must satisfy deg r0 >= deg r1 >= 0, both nonzero")
    rows = [(r0, ZERO), (r1, ONE)] if half else [(r0, ZERO, ONE), (r1, ONE, ZERO)]
    quotients = []
    while not rows[-1][0].is_zero and rows[-2][0].degree > bound:
        prev, cur = rows[-2], rows[-1]
        q, r = prev[0].div_rem(cur[0])
        quotients.append(q)
        rows.append((r, *(p - q * c for p, c in zip(prev[1:], cur[1:]))))
    return EEATrace(rows=tuple(rows), quotients=tuple(quotients))


def half_trace(r0: Poly, r1: Poly, bound: int | float = NEG_INF) -> EEATrace:
    """The half trace of (r0, r1), truncated at ``bound``.

    Where no division runs, for r1 = 0 or deg r0 <= bound, it is the start
    rows alone, N = 0, and the algorithm is not run.
    """
    if r1.is_zero or r0.degree <= bound:
        return EEATrace(rows=((r0, ZERO), (r1, ONE)), quotients=())
    return extended_euclid(r0, r1, half=True, bound=bound)


def decompose(a: Poly, b: Poly, c: Poly, trace: EEATrace) -> Decomposition:
    """Expand (a, b, c) with a = r1*b + r0*c in the trace-row basis of a complete trace."""
    _require_complete(trace)
    r0, r1 = trace.r(0), trace.r(1)
    if r0.degree == r1.degree:
        raise DegreeTie("decomposition requires deg r0 > deg r1")
    if a != r1 * b + r0 * c:
        raise NotASyzygy("triple does not satisfy a = r1*b + r0*c")
    N = trace.N
    m: list[Poly] = [ZERO] * (N + 2)
    rem = b
    for i in range(N + 1, 1, -1):
        m[i], rem = rem.div_rem(trace.s(i))
    m[1] = rem  # s_1 == 1
    residue = a
    for i in range(1, N + 2):
        residue = residue - m[i] * trace.r(i)
    m[0], rem = residue.div_rem(r0)  # equals c - sum m_i * t_i
    _certify(rem.is_zero, "r0 does not divide the r-column residue; broken trace")
    for i in range(1, N + 1):
        # automatic for genuine syzygies; a violation means a broken trace
        if m[i].degree >= trace.q(i).degree:
            raise CertificateError(f"coordinate m_{i} too large for q_{i}; broken trace")
    return Decomposition(tuple(m))


def recombine(dec: Decomposition, trace: EEATrace) -> tuple[Poly, Poly, Poly]:
    """Sum m_i * (r_i, s_i, t_i) back into a triple; a complete trace only."""
    _require_complete(trace)
    if len(dec.m) != trace.N + 2:
        raise ValueError("decomposition length does not match the trace")
    a = b = c = ZERO
    for m_i, (r_i, s_i, t_i) in zip(dec.m, trace.full_rows()):
        a = a + m_i * r_i
        b = b + m_i * s_i
        c = c + m_i * t_i
    return a, b, c


def syzygy_basis_pair(trace: EEATrace, i: int) -> tuple[Row, Row]:
    """Rows i and i+1 as (r, s, t), a module basis of the relations among (1, -r1, -r0)."""
    if not 0 <= i <= trace.N - 1:
        raise IndexError(f"row pair index {i} outside 0..{trace.N - 1}")
    return tuple((trace.r(j), trace.s(j), trace.t(j)) for j in (i, i + 1))
