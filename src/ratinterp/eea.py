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
loop carries each row as one *joint row*, the row up to one constant: r as
e times its primitive integer list, and the integer lists of s[, t] end to
end, run on the integer lists (A, B) of (r0, r1) (s and t are over r1's
and r0's scales).  Each row is one kernel call, ``exactpoly.euclid_step``:
one integer division of the primitive r lists, the combination
D*J_{i-1} - Q*J_i of the row, and one content pass over the row; it takes
no scale and builds no polynomial.  The trace keeps those rows with each
step's (D, Q, g), and reads every degree off the lists' lengths.  A *unit
row* is a row at the scale where r is its own integer list at scale 1
(rows 0 and 1 are raw): from row 2 on, r_i and s_i over c_i.  A unit row, unit quotient or step
is built when it is first read, from the joint rows, and kept;
``check_invariants`` checks them with the recurrence of the per-column
kernel (``exactpoly.euclid_update``), which the loop does not run.  A raw
row is c_i times its unit row, and is rebuilt from it, exactly, when it
is read: the printed rows, the basis pairs, the kappa witnesses and
``decompose`` read raw rows.  Readers that do not depend on a row's scale
(its degrees, a quotient's degree, the reduced fraction r_i/s_i scaled
monic) read the unit rows through ``unit_pair`` and the unit quotients,
so an answer read off one row builds one unit row.  A trace built from
given unit rows, unit quotients and steps (the constructor) keeps them;
without steps every step is 1, so the rows given are raw, as in the
trivial trace below.  A *half* trace has rows (r_i, s_i) only; its ``t(i)`` derives t_i from the
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

``degree_split`` picks the rows at the smallest critical index at a
shift sigma, where consecutive shifted row degrees max(deg r_i,
deg s_i + sigma) split n + sigma, n = deg r0: the sigma-reduced basis of
Van Barel & Bultheel (1990) and Beckermann & Labahn (1994).  As
deg s_i = n - deg r_{i-1}, deg r_i - deg s_i falls strictly along the
trace, from +inf at row 0, so one index is critical where it passes
sigma, or two where it equals sigma at a row.  Index 0 is critical
exactly when deg r1 <= sigma: rows (r0, 0) and (r1, 1) split n + sigma.
At sigma = 0 the two rows are both the minimal basis of the
interpolation problem and the mu-basis of a plane parametrization.  At
sigma = 2d + 1 - n the low row answers the prescribed split deg a <= d,
deg b <= n - d - 1, whose pairs are those of shifted degree <= d: the
two degrees sum to 2d + 1, so only the low row qualifies.  It is row k,
the first with deg r_k <= d, as deg r_{k-1} >= d + 1 gives deg s_k
<= n - d - 1.  A trace stopped at ``bound`` d + 1 keeps the split rows:
the first remainder of degree <= d + 1 is row k - 1 or k, and the
smallest sigma-critical index is k - 1 or k.  It is k - 1 when
deg r_{k-1} = d + 1, where the trace ends at row k; otherwise the
trace runs to row k + 1 and holds both candidate pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CertificateError, DegreeTie, NotASyzygy, ZeroSecondInput
from .exactpoly import (NEG_INF, ONE, ZERO, Poly, cofactor_parts, euclid_start, euclid_step, euclid_update,
                        primitive, scaled)

Row = tuple[Poly, ...]  # (r_i, s_i, t_i); (r_i, s_i) in a half trace

PAD_WIDTH = 80  # the text table pads no column whose widest cell is wider


class EEATrace:
    """Rows (r_i, s_i, t_i), or (r_i, s_i) if half, for i = 0..N+1 and quotients q_1..q_N.

    Row i is c_i times its *unit row*, and q_i is its unit quotient over u_i, for nonzero
    constants c_i and u_i.  A trace run by ``extended_euclid`` keeps the loop's joint rows, each
    row up to a constant, with each step's (D, Q, g), and builds a unit row, unit
    quotient or step on its first read; a trace built from its unit rows (the constructor) keeps
    those.  ``degrees`` holds (deg r_i, deg s_i) for every row, read off the stored lists.  The
    raw readers (``rows``, ``quotients``, ``r``, ``s``, ``t``, ``q``) rebuild a raw row on its
    first read and keep it; ``unit_pair`` reads a unit row, for readers that do not depend on a
    row's scale.
    """

    def __init__(self, rows: tuple[Row, ...], quotients: tuple[Poly, ...],
                 steps: tuple[Poly, ...] | None = None, loop: tuple | None = None) -> None:
        """The trace with these unit rows, unit quotients and steps; every step 1 if none are given.

        steps[k] is rho_{k+2} of ``extended_euclid``: c_0 = c_1 = u_1 = 1, c_i = steps[i-2]*c_{i-2}
        and u_{i+1} = steps[i-1]/u_i, so that u_i = c_i/c_{i-1}.  With every step 1, every c_i and
        u_i is 1: the rows and quotients given are the raw ones.

        ``extended_euclid`` passes the start rows, None for every later row, quotient and step, and
        ``loop``: its joint rows J_i of (A, B) = (r0/mu, r1/lambda), for the scales mu and lambda of
        r0 and r1, with the divisions (D, Q, g) of ``exactpoly.euclid_step``, divisions[i-1] for
        row i+1, and the scales ((num, den) of mu, of lambda).  Row i of (r0, r1) is (r, s/lambda,
        t/mu) of J_i up to a constant, and unit row i is that over E_i: E_0 = 1/mu and E_1 =
        1/lambda (rows 0 and 1 are raw), and from row 2 on E_i is the multiplier e of J_i's
        primitive r list, so unit r_i is that list at scale 1.  Then the unit quotient is
        Q_i = E_i/(D*E_{i-1})*Q and the step rho_{i+1} = g*E_{i+1}/(D*E_{i-1}), as
        rho_{i+1}*U_{i+1} = U_{i-1} - Q_i*U_i; the zero row is g*J/(D*E_{N-1}), at step 1.
        """
        self._units, self._unit_quotients = list(rows), list(quotients)
        self._steps = list(steps or (ONE,) * (len(rows) - 2))
        self._raw: list[Row | None] = [*rows[:2], *[None] * (len(rows) - 2)]
        self._quotients: tuple[Poly, ...] | None = None
        self._scales = [ONE, ONE]
        if loop is None:
            self.degrees = tuple([(row[0].degree, row[1].degree) for row in rows])
        else:
            self._joint, self._divisions, ((mn, md), (ln, ld)) = loop
            self._start_divisors = ((md, mn), (ld, ln))  # E_0 = 1/mu, E_1 = 1/lambda; s takes E_1, t E_0
            self.degrees = tuple([(len(r) - 1 if r else NEG_INF, k[0] - 1 if k[0] else NEG_INF)
                                  for r, _, _, k in self._joint])

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
        return len(self._unit_quotients)

    @property
    def n(self) -> int:
        return self.degrees[0][0]

    @property
    def complete(self) -> bool:
        """True iff r_{N+1} = 0, i.e. the run was not truncated."""
        return self.degrees[self.N + 1][0] == NEG_INF

    @property
    def unit_rows(self) -> tuple[Row, ...]:
        return tuple([self._unit_row(i) for i in range(len(self._units))])

    @property
    def unit_quotients(self) -> tuple[Poly, ...]:
        return tuple([self._unit_quotient(k) for k in range(len(self._unit_quotients))])

    @property
    def steps(self) -> tuple[Poly, ...]:
        return tuple([self._step(k) for k in range(len(self._steps))])

    @property
    def rows(self) -> tuple[Row, ...]:
        return tuple([self._row(i) for i in range(len(self._units))])

    @property
    def quotients(self) -> tuple[Poly, ...]:
        """Every q_i = Q_i/u_i, with u_1 = 1 and u_{i+1} = steps[i-1]/u_i: two scale quotients a row."""
        if self._quotients is None:
            units = self.unit_quotients
            quotients, u = list(units[:1]), ONE
            for step, unit in zip(self.steps, units[1:]):
                u = step.div_rem(u)[0]
                quotients.append(unit.div_rem(u)[0])
            self._quotients = tuple(quotients)
        return self._quotients

    def _divisor(self, i: int) -> tuple[int, int]:
        """E_i of the loop's rows as (num, den), for a nonzero r_i: the loop gives it from row 2 on."""
        return self._start_divisors[i] if i < 2 else (self._joint[i][1], 1)

    def _unit_row(self, i: int) -> Row:
        row = self._units[i]
        if row is None:
            joint = self._joint[i]
            if joint[0]:  # R over 1/E_i, which is R itself, and the cofactors over E_i
                r, num, den = primitive(joint[0]), 1, joint[1]
            else:  # the zero row: g/(D*E_{N-1})
                D, _, g = self._divisions[i - 2]
                (en, ed), r = self._divisor(i - 2), ZERO
                num, den = g * ed, D * en
            cofactors = zip(cofactor_parts(joint), reversed(self._start_divisors))
            row = self._units[i] = (r, *[scaled(num * sn, den * sd, part) for part, (sn, sd) in cofactors])
        return row

    def _unit_quotient(self, k: int) -> Poly:
        """Q_{k+1}, the unit quotient of rows k and k + 1."""
        q = self._unit_quotients[k]
        if q is None:
            D, Q, _ = self._divisions[k]
            (an, ad), (bn, bd) = self._divisor(k), self._divisor(k + 1)
            q = self._unit_quotients[k] = scaled(bn * ad, bd * D * an, Q)
        return q

    def _step(self, k: int) -> Poly:
        """rho_{k+2}, the step into row k + 2; 1 into the zero row."""
        rho = self._steps[k]
        if rho is None:
            rho = ONE
            if self.degrees[k + 2][0] >= 0:
                D, _, g = self._divisions[k]
                (an, ad), (cn, cd) = self._divisor(k), self._divisor(k + 2)
                rho = scaled(g * cn * ad, cd * D * an, (1,))
            self._steps[k] = rho
        return rho

    def _row(self, i: int) -> Row:
        row = self._raw[i]
        if row is None:
            scales = self._scales
            while len(scales) <= i:  # c_i = rho_i*c_{i-2}, one product by a small step per row
                scales.append(self._step(len(scales) - 2) * scales[-2])
            row = self._raw[i] = _rescale(scales[i], self._unit_row(i))
        return row

    def unit_pair(self, i: int) -> tuple[Poly, Poly]:
        """(r_i, s_i)/c_i: the pair up to a constant, for readers that do not depend on its scale."""
        return self._unit_row(i)[:2]

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
        return tuple((self.r(i), self.s(i), self.t(i)) for i in range(len(self._units)))

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

        It builds every unit row, unit quotient and step (for a trace of the loop, from its joint
        rows), checks the degrees the readers read (``degrees``) against them, and rebuilds no raw
        row; ``euclid_update`` is the per-column kernel, which the loop does not run.  The raw readers define c_{i+1} =
        rho_{i+1}*c_{i-1} and q_i*c_i = Q_i*c_{i-1}, so the raw recurrence divided by c_{i-1} is
        rho_{i+1}*U_{i+1} = U_{i-1} - Q_i*U_i on the unit rows U and unit quotients Q, checked by
        ``euclid_update``.  With every rho a nonzero constant every c_i is nonzero, so a unit row
        has its raw row's degrees.  Without steps every rho is 1: the raw recurrence itself.
        """
        N, rows, steps = self.N, self.unit_rows, self.steps
        _certify(len(rows) == N + 2 == len(steps) + 2, "row count does not match the quotients")
        _certify(all(rho.degree == 0 for rho in steps), "a step is not a nonzero constant")
        _certify((rows[0][1:], rows[1][1:]) in (((ZERO, ONE), (ONE, ZERO)), ((ZERO,), (ONE,))),
                 "start rows are not (s, t) = (0, 1), (1, 0)")
        _certify(rows[0][0].degree >= rows[1][0].degree and not rows[N][0].is_zero, "deg r0 < deg r1, or r_N = 0")
        _certify(self.degrees == tuple([(row[0].degree, row[1].degree) for row in rows]),
                 "the stored degrees are not the rows' degrees")
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


def critical_indices(trace: EEATrace, shift: int = 0) -> tuple[int, ...]:
    """All trace indices whose row pair splits n + shift; there are one or two.

    Index i qualifies when deg r_i >= deg s_i + shift and deg s_{i+1} + shift >= deg r_{i+1},
    which by the cumulative degree identities is the straddle condition on the quotient degree
    sums.  One pass reads each row's two degrees once, off its unit row (a row's degrees are its
    unit row's).
    """
    out, r_side = [], False  # r_side: the row before has deg r >= deg s + shift
    for i, (dr, ds) in enumerate(trace.degrees):
        ds += shift
        if r_side and ds >= dr:
            out.append(i - 1)
        r_side = dr >= ds
    if not 1 <= len(out) <= 2:
        raise CertificateError(f"critical index count {len(out)}; broken remainder sequence")
    return tuple(out)


def degree_split(trace: EEATrace, shift: int = 0) -> tuple[int, int, int, int]:
    """(i, low, high, mu): the indices i and i+1 at the smallest critical index i at this shift.

    A row's degree is its shifted degree max(deg r, deg s + shift) (deg t never exceeds
    max(deg r, deg s)); at a critical index that is deg r_i for row i and deg s_{i+1} + shift
    for row i + 1.  The indices come ordered by row degree, row i staying low on a tie, and mu
    is the low degree.  Certificate: the two degrees sum to n + shift, else ``CertificateError``.
    """
    i = critical_indices(trace, shift)[0]
    d_i, d_next = trace.degrees[i][0], trace.degrees[i + 1][1] + shift
    low, high, d_low, d_high = (i, i + 1, d_i, d_next) if d_i <= d_next else (i + 1, i, d_next, d_i)
    if d_low + d_high != trace.n + shift:
        raise CertificateError(f"row degrees {d_low} + {d_high} do not split n + shift = {trace.n + shift}")
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

    The loop runs on joint rows, one call of ``exactpoly.euclid_step`` per row: each row is
    (r, s[, t]) up to one constant, r as a multiplier times its primitive integer list and the
    cofactors as integer lists, starting from the integer lists (A, B) of (r0, r1).  Dividing the
    primitive r lists gives the next r, and the next row is (D*J_{i-1} - Q*J_i)/g for the content
    g of the whole row, one content pass a row; no scale and no polynomial is built in the loop.
    The trace keeps the rows and each (D, Q, g), and builds a unit row, unit quotient or step
    when one is read (``EEATrace``'s ``loop``).  The raw
    scales follow as c_{i+1} = rho_{i+1}*c_{i-1} from c_0 = c_1 = 1, and the raw quotients as
    q_i = Q_i/u_i with u_i = c_i/c_{i-1}, u_1 = 1 and u_{i+1} = rho_{i+1}/u_i: one product or
    quotient of a large number by a small one per row.
    A half trace rebuilds a unit or raw row when it is first read.  A full trace, whose readers
    (the ``eea`` table, ``full_rows``) read every row, is returned with its raw rows and quotients
    built.
    """
    if r1.is_zero:
        raise ZeroSecondInput("the second input polynomial is zero")
    if r0.is_zero or r0.degree < r1.degree:
        raise ValueError("inputs must satisfy deg r0 >= deg r1 >= 0, both nonzero")
    start = ((r0, ZERO), (r1, ONE)) if half else ((r0, ZERO, ONE), (r1, ONE, ZERO))
    j0, j1, *scales = euclid_start(r0, r1, len(start[0]))
    joint, divisions = [j0, j1], []
    while joint[-1][0] and len(joint[-2][0]) - 1 > bound:
        D, Q, g, row = euclid_step(joint[-2], joint[-1])
        divisions.append((D, Q, g))
        joint.append(row)
    empty = [None] * len(divisions)
    trace = EEATrace((*start, *empty), empty, empty, (joint, divisions, scales))
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
    for i, q in enumerate(trace.unit_quotients, 1):
        # automatic for genuine syzygies; a violation means a broken trace
        if m[i].degree >= q.degree:  # q_i's degree is its unit quotient's
            raise CertificateError(f"coordinate m_{i} too large for q_{i}; broken trace")
    return Decomposition(tuple(m))
