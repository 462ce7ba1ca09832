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
Gerhard, 5.7); the readers of every row (``full_rows``, ``decompose``)
refuse it.  A trace keeps every row it computes and every quotient.
The raw rows carry scales that grow along the trace, to about 136,000
bits at deg r0 = 96, while the integer lists stay near the subresultant
size, about 2,400 bits there (von zur Gathen & Gerhard, ch. 6).  So the
loop runs on *unit rows*: from row 2 on, each remainder's own integer
list at scale 1, with its cofactors divided by that same scale c_i.
Each row is one kernel call, ``exactpoly.euclid_step``: it divides,
splits off the step rho and updates every cofactor column,
(p - Q*c)/rho.  Every step takes that one path: one integer division,
closed form on a linear step, the step of a normal remainder sequence,
and each column on integers with one content pass; a linear step
between unit rows, whose scale is 1/1, takes no scale product.
``check_invariants`` checks the stored rows with the same recurrence
(``exactpoly.euclid_update``).  A raw row is c_i times its unit row, and
is rebuilt from it, exactly, when it is read: the printed rows, the
basis pairs, the kappa witnesses and ``decompose`` read raw rows.
Readers that do not depend on a row's scale (its degrees, a quotient's
degree, the reduced fraction r_i/s_i scaled monic) read the unit rows
through ``unit_pair`` and the unit quotients.  Every trace is built one
way, from unit rows, unit quotients and the loop's scale steps; without
steps every step is 1, so the rows given are raw, as in the trivial
trace below.  A *half* trace has rows (r_i, s_i) only; its ``t(i)`` derives t_i from the
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
from .exactpoly import NEG_INF, ONE, ZERO, Poly, euclid_step, euclid_update

Row = tuple[Poly, ...]  # (r_i, s_i, t_i); (r_i, s_i) in a half trace

PAD_WIDTH = 80  # the text table pads no column whose widest cell is wider


class EEATrace:
    """Rows (r_i, s_i, t_i), or (r_i, s_i) if half, for i = 0..N+1 and quotients q_1..q_N.

    Row i is kept as c_i times its *unit row*, and q_i as its unit quotient over u_i, for
    nonzero constants c_i and u_i.  The raw readers (``rows``, ``quotients``, ``r``, ``s``,
    ``t``, ``q``) rebuild a raw row on its first read and keep it.  The degrees and
    ``unit_pair`` read the unit rows, for readers that do not depend on a row's scale.
    """

    def __init__(self, rows: tuple[Row, ...], quotients: tuple[Poly, ...],
                 steps: tuple[Poly, ...] | None = None) -> None:
        """The trace with these unit rows, unit quotients and steps; every step 1 if none are given.

        steps[k] is rho_{k+2} of ``extended_euclid``: c_0 = c_1 = u_1 = 1, c_i = steps[i-2]*c_{i-2}
        and u_{i+1} = steps[i-1]/u_i, so that u_i = c_i/c_{i-1}.  With every step 1, every c_i and
        u_i is 1: the rows and quotients given are the raw ones.
        """
        self.unit_rows, self.unit_quotients = rows, quotients
        self._steps = steps or (ONE,) * (len(rows) - 2)
        self._raw: list[Row | None] = [*rows[:2], *[None] * (len(rows) - 2)]
        self._quotients: tuple[Poly, ...] | None = None
        self._scales: list[Poly] = []

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EEATrace):
            return NotImplemented
        return self.rows == other.rows and self.quotients == other.quotients

    def __hash__(self) -> int:
        return hash((self.rows, self.quotients))

    def __repr__(self) -> str:
        return f"EEATrace(rows={self.rows!r}, quotients={self.quotients!r})"

    @property
    def N(self) -> int:
        return len(self.unit_quotients)

    @property
    def n(self) -> int:
        return self.unit_rows[0][0].degree

    @property
    def complete(self) -> bool:
        """True iff r_{N+1} = 0, i.e. the run was not truncated."""
        return self.unit_rows[self.N + 1][0].is_zero

    @property
    def rows(self) -> tuple[Row, ...]:
        return tuple(self._row(i) for i in range(len(self.unit_rows)))

    @property
    def quotients(self) -> tuple[Poly, ...]:
        """Every q_i = Q_i/u_i, with u_1 = 1 and u_{i+1} = steps[i-1]/u_i: two scale quotients a row."""
        if self._quotients is None:
            quotients, u = list(self.unit_quotients[:1]), ONE
            for step, unit in zip(self._steps, self.unit_quotients[1:]):
                u = step.div_rem(u)[0]
                quotients.append(unit.div_rem(u)[0])
            self._quotients = tuple(quotients)
        return self._quotients

    def _row(self, i: int) -> Row:
        row = self._raw[i]
        if row is None:
            if not self._scales:  # the first rebuild: c_0..c_{N+1}, one product by a small step per row
                self._scales = [ONE, ONE, *self._steps[:2]]
                for step in self._steps[2:]:
                    self._scales.append(step * self._scales[-2])
            row = self._raw[i] = _rescale(self._scales[i], self.unit_rows[i])
        return row

    def unit_pair(self, i: int) -> tuple[Poly, Poly]:
        """(r_i, s_i)/c_i: the pair up to a constant, for readers that do not depend on its scale."""
        return self.unit_rows[i][:2]

    def r(self, i: int) -> Poly:
        return self._row(i)[0]

    def s(self, i: int) -> Poly:
        return self._row(i)[1]

    def t(self, i: int) -> Poly:
        """t_i; on a half trace (r_i - s_i*r1) / r0, which must divide exactly."""
        row = self._row(i)
        if len(row) == 3:
            return row[2]
        t, rem = (row[0] - row[1] * self.r(1)).div_rem(self.r(0))
        _certify(rem.is_zero, f"r0 does not divide r_{i} - s_{i}*r1; broken trace")
        return t

    def full_rows(self) -> tuple[Row, ...]:
        """Every row as (r_i, s_i, t_i), t read through ``t(i)``; a complete trace only."""
        _require_complete(self)
        return tuple((self.r(i), self.s(i), self.t(i)) for i in range(len(self.unit_rows)))

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

        It reads what is stored and rebuilds no raw row.  The raw readers define c_{i+1} =
        rho_{i+1}*c_{i-1} and q_i*c_i = Q_i*c_{i-1}, so the raw recurrence divided by c_{i-1} is
        rho_{i+1}*U_{i+1} = U_{i-1} - Q_i*U_i on the unit rows U and unit quotients Q, checked by
        ``euclid_update``.  With every rho a nonzero constant every c_i is nonzero, so a unit row
        has its raw row's degrees.  Without steps every rho is 1: the raw recurrence itself.
        """
        N, rows, steps = self.N, self.unit_rows, self._steps
        _certify(len(rows) == N + 2 == len(steps) + 2, "row count does not match the quotients")
        _certify(all(rho.degree == 0 for rho in steps), "a step is not a nonzero constant")
        _certify((rows[0][1:], rows[1][1:]) in (((ZERO, ONE), (ONE, ZERO)), ((ZERO,), (ONE,))),
                 "start rows are not (s, t) = (0, 1), (1, 0)")
        _certify(rows[0][0].degree >= rows[1][0].degree and not rows[N][0].is_zero, "deg r0 < deg r1, or r_N = 0")
        for i, (q, rho) in enumerate(zip(self.unit_quotients, steps), 1):
            _certify(rows[i + 1][0].degree < rows[i][0].degree, f"degree not dropping at {i}")
            _certify(rows[i + 1] == tuple(euclid_update(p, q, c, rho) for p, c in zip(rows[i - 1], rows[i])),
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
    pairs = [trace.unit_pair(i) for i in range(trace.N + 2)]  # a row's degrees are its unit row's
    out = tuple(
        i for i in range(trace.N + 1)
        if pairs[i][0].degree >= pairs[i][1].degree
        and pairs[i + 1][1].degree >= pairs[i + 1][0].degree
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
    d_low, d_high = (int(max(r.degree, s.degree)) for r, s in map(trace.unit_pair, (low, high)))
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

    The loop runs on unit rows, one call of ``exactpoly.euclid_step`` per row.  Rows 0 and 1
    are the raw start rows.  Dividing the unit remainders r_{i-1} and r_i gives the unit
    quotient Q_i and a remainder rho_{i+1} times an integer list at scale 1 (rho = 1 on the
    zero row).  That list is unit remainder i+1, and each unit cofactor follows as
    (s_{i-1} - Q_i*s_i)/rho_{i+1}, so no gcd in the loop meets a raw scale.  Every step, linear
    or a jump, takes one integer division and every column on integers, on one path; where a
    linear step divides one unit remainder by another (r_2 by r_3 and on), both at scale 1/1,
    it takes no scale product.
    The raw scales follow as c_{i+1} = rho_{i+1}*c_{i-1} from c_0 = c_1 = 1, and the raw
    quotients as q_i = Q_i/u_i with u_i = c_i/c_{i-1}, u_1 = 1 and u_{i+1} = rho_{i+1}/u_i:
    one product or quotient of a large number by a small one per row.
    A half trace rebuilds a raw row when it is first read.  A full trace, whose readers (the
    ``eea`` table, ``full_rows``) read every row, is returned with its raw rows and quotients
    built.
    """
    if r1.is_zero:
        raise ZeroSecondInput("the second input polynomial is zero")
    if r0.is_zero or r0.degree < r1.degree:
        raise ValueError("inputs must satisfy deg r0 >= deg r1 >= 0, both nonzero")
    rows = [(r0, ZERO), (r1, ONE)] if half else [(r0, ZERO, ONE), (r1, ONE, ZERO)]
    steps, quotients = [], []
    while not rows[-1][0].is_zero and rows[-2][0].degree > bound:
        q, rho, row = euclid_step(rows[-2], rows[-1])
        quotients.append(q)
        steps.append(rho)
        rows.append(row)
    trace = EEATrace(tuple(rows), tuple(quotients), tuple(steps))
    if not half:
        trace.rows, trace.quotients  # built here: a full trace's readers read every row
    return trace


def _rescale(c: Poly, unit: Row) -> Row:
    """c times each polynomial of a unit row: the one rebuild of a raw row."""
    return tuple([c * p for p in unit])


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
        if m[i].degree >= trace.unit_quotients[i - 1].degree:  # q_i's degree is its unit quotient's
            raise CertificateError(f"coordinate m_{i} too large for q_{i}; broken trace")
    return Decomposition(tuple(m))
