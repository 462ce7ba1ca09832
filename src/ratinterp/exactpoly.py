"""Exact dense univariate polynomial arithmetic over the rationals.

A polynomial is stored as a scale num/den, a reduced pair of ints with
den > 0, times an ascending list of integer coefficients that is
primitive (content 1), has a positive leading entry and no trailing
zero.  The zero polynomial is the scale 0/1 with the empty list.  This
normal form is unique, so equality and hashing compare it directly; a
constant equals, and hashes as, its scalar.  All arithmetic is exact,
there is no floating point anywhere.

Arithmetic runs on the integer lists and pays no gcd per coefficient.  A
product of primitive lists is primitive (Gauss's lemma), so products, all
on one convolution loop (``_convolve``), take no content pass; sums,
differences and remainders take one (``math.gcd`` over the list).
Negation, scalar products and ``monic`` change only the scale; scales
multiply by gcd cross-cancellation (``_times``), so arithmetic builds no
Fraction; nor does ``over_lead_of``, the division by another polynomial's
leading coefficient that scales a fraction monic.  Division is
fraction-free, D*a = Q*b + R on the integer lists, in one helper
(``_division``) that ``div_rem`` and the Euclidean step share: a linear
quotient, the step of a normal remainder sequence, is closed form, one
pass and no gcd, and any other quotient takes one elimination per
quotient entry.  ``div_rem`` by a constant changes only the scale.  Sums,
differences and the recurrence (p - q*c)/rho of an EEA column
(``euclid_update``) are one kernel, the two-term combination
(a*p - e*Q*c)/d of ``_combine``, in one pass and one content pass with no
intermediate polynomial: a sum is its case a = d = 1, Q = (1,), e = -1.
The extended Euclidean loop runs on a kernel of its own, on integers only:
``euclid_step`` takes one *joint row*, a row (r, s[, t]) up to one constant:
r as e times its primitive integer list, and the cofactors' integer lists
end to end.  It divides the primitive r lists (``_division``), applies the
matching combination D*prev - Q*cur to the cofactors (one comprehension
over all of them for a linear quotient) and takes one content pass over
the row.  ``scaled`` makes a polynomial of a list when a reader asks for
it, so only the cofactors of rows that are read take a normal form; an r
list is already one (``primitive``).
Evaluation runs Horner on the integers and builds one Fraction at
the end; the node test (``nonzero_at``, ``roots_among``) reads the
integer Horner accumulator alone and builds none.  At an integer point
(denominator q == 1) Horner takes no power of q.
``coeffs``, the reduced Fractions, are derived when read; printing
(``format``, ``to_json``) reads the integers instead, one gcd per
coefficient against the scale's denominator, and builds no Fraction.
``newton_pair`` builds the node polynomial and the interpolant of Hermite
data directly on integer lists, with no Poly or Fraction per condition;
it takes a content pass only where a denominator of a node can bring a
common prime in (Gauss's lemma), so never at integer nodes.

Outside input enters through three readers: ``as_fraction`` for a
scalar, ``as_sequence`` for a sequence, which is a list or a tuple and
nothing else, and ``as_degree`` for a degree argument, an int (not a
bool) >= 0.  ``Poly`` reads its coefficients through the first two, and
so does the ``InterpolationData`` constructor, the one door for points,
which ``from_pairs``, ``from_json_dict`` and the CLI go through.
``monomial``, ``sample_solution_of_delta``, ``sample_solution_of_kappa``
and ``hermite_rational`` read their degree through the third.

The degree of the zero polynomial is the sentinel ``NEG_INF``, which
compares below every integer and absorbs addition, so degree bookkeeping
such as ``deg(p*q) == deg(p) + deg(q)`` needs no special cases.
"""

from __future__ import annotations

import math
import numbers
import re
from collections import namedtuple
from decimal import MAX_EMAX, MAX_PREC, Decimal, Inexact, localcontext
from fractions import Fraction
from itertools import chain
from typing import Iterable, Sequence, Union

NEG_INF = float("-inf")

Scalar = Union[int, str, Fraction]

_INTEGER_RATIO = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")

# Fraction(_Reduced(num, den)) copies the pair, as for any numbers.Rational, without the
# gcd that Fraction(num, den) takes; on scales of thousands of bits it outweighs the read.
_Reduced = namedtuple("_Reduced", "numerator denominator")
numbers.Rational.register(_Reduced)


def as_fraction(value: Scalar) -> Fraction:
    """The one reader of outside scalars: a Fraction, an int, or a string "p" or "p/q".

    Everything else raises ValueError: booleans (a bool is an int in
    Python), floats, decimal and exponent strings such as "1e3000",
    padded strings, and a zero denominator.
    """
    # strings first: they are most of the input, and isinstance(value, Fraction) pays ABCMeta
    if isinstance(value, str):
        match = _INTEGER_RATIO.fullmatch(value)
        if match is not None:
            num, den = match.groups()
            if den is None:
                return Fraction(int(num))
            try:
                return Fraction(int(num), int(den))
            except ZeroDivisionError as exc:
                raise ValueError("rational with zero denominator") from exc
    elif isinstance(value, Fraction):
        return value
    elif isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    raise ValueError(f"expected an integer or a \"p/q\" string, got {value!r}")


def as_sequence(values, what: str) -> list | tuple:
    """The one rule for outside sequences: a list or a tuple, returned as it is.

    Coefficients, a node's values, interpolation points and each (x, values)
    point are read through it.  Anything else raises ValueError naming its
    type, not its repr: a string or bytes (iterating one would split it into
    characters), a mapping (iterating one would read its keys), a set, an
    iterator or a scalar.
    """
    if isinstance(values, (list, tuple)):
        return values
    raise ValueError(f"{what} must be a list or a tuple, as every sequence of scalars or of points is; "
                     f"got {type(values).__name__}")


def as_degree(value, what: str) -> int:
    """The one rule for degree arguments: an int, not a bool, and >= 0, returned as it is.

    Anything else raises ValueError, a float or a Fraction with an integer
    value and a numeric string included.
    """
    if isinstance(value, int) and not isinstance(value, bool) and value >= 0:
        return value
    raise ValueError(f"{what} must be a nonnegative integer, got {value!r}")


def _rational_str(c: Fraction) -> str:
    """str(c) at any length: ``_ratio_str`` of its numerator and denominator."""
    return _ratio_str(c.numerator, c.denominator)


def _ratio_str(num: int, den: int) -> str:
    """num/den as str(Fraction) prints it, for a reduced pair with den > 0, at any length.

    Every rational the library prints goes through here.  str() of an
    int refuses more digits than sys.get_int_max_str_digits() (4,300 by
    default).  That limit stays in force for parsing input; output past
    it takes its digits from ``_decimal_digits``.
    """
    try:
        return str(num) if den == 1 else f"{num}/{den}"
    except ValueError:
        top = _decimal_digits(num)
        return top if den == 1 else f"{top}/{_decimal_digits(den)}"


# pieces of at most this many bits take Decimal(int) directly; at 135,000-bit
# integers 1,024 converts about 15 % faster than 128, and 4,096 no faster
_DIRECT_BITS = 1024


def _decimal_digits(n: int) -> str:
    """str(n) with no digit limit, in subquadratic time.

    Divide and conquer on decimal, as CPython 3.12's _pylong does it
    (Brent & Zimmermann, Modern Computer Arithmetic, section 1.7): split
    m = hi * 2**w + lo at half its bits w, convert hi and lo, and rebuild
    m in Decimal with one product by 2**w and one sum.  libmpdec
    multiplies large operands in subquadratic time (Karatsuba, then
    number-theoretic transform), where str() and Decimal(int) of one
    large int take quadratic time.  Each level of the recursion splits
    at one or two widths, so the powers of 2 are kept.  Precision and
    exponent are lifted so that no result is rounded, and Inexact is
    trapped so that none can be.
    """
    powers: dict[int, Decimal] = {}

    def power(w: int) -> Decimal:
        if w not in powers:
            powers[w] = Decimal(1 << w) if w <= _DIRECT_BITS else power(w >> 1) * power(w - (w >> 1))
        return powers[w]

    def convert(m: int, w: int) -> Decimal:
        if w <= _DIRECT_BITS:
            return Decimal(m)
        half = w >> 1
        hi = m >> half
        return convert(m - (hi << half), half) + convert(hi, w - half) * power(half)

    with localcontext() as ctx:
        ctx.prec, ctx.Emax = MAX_PREC, MAX_EMAX
        ctx.traps[Inexact] = True
        digits = str(convert(abs(n), n.bit_length()))
    return digits if n >= 0 else f"-{digits}"


class Poly:
    """An immutable univariate polynomial with exact rational coefficients."""

    __slots__ = ("_num", "_den", "_ints")

    def __init__(self, coeffs: Sequence[Scalar] = ()) -> None:
        cs = [as_fraction(c) for c in as_sequence(coeffs, "coefficients")]
        den = math.lcm(*(c.denominator for c in cs))
        self._num, self._den, self._ints = _normal_form(
            1, den, [c.numerator * (den // c.denominator) for c in cs])

    # -- queries ---------------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """Reduced Fraction coefficients, ascending; index k holds that of x**k."""
        scale = Fraction(_Reduced(self._num, self._den))
        return tuple([scale * c for c in self._ints])

    @property
    def is_zero(self) -> bool:
        return not self._ints

    @property
    def degree(self) -> int | float:
        """Degree as an int, or NEG_INF for the zero polynomial."""
        return len(self._ints) - 1 if self._ints else NEG_INF

    def coeff(self, k: int) -> Fraction:
        """Coefficient of x**k (0 when k is outside the stored range)."""
        if 0 <= k < len(self._ints):
            return Fraction(_Reduced(self._num, self._den)) * self._ints[k]
        return Fraction(0)

    def nonzero_at(self, nodes: Iterable[Fraction]) -> bool:
        """True iff self vanishes at none of the nodes; the zero polynomial vanishes everywhere.

        At x = p/q the value is the scale times acc/q**deg for the integer
        Horner accumulator acc (``_horner``), so it is zero exactly when
        acc is: the test is exact and builds no Fraction.  At an integer
        node (q == 1) the accumulator takes no power of q.
        """
        ints = self._ints
        return all(ints and _horner(ints, x.numerator, x.denominator)[0] for x in nodes)

    def roots_among(self, nodes: Iterable[Fraction]) -> tuple[Fraction, ...]:
        """The nodes at which self vanishes, in order; every node for the zero polynomial.

        The same exact test as ``nonzero_at``, one Horner pass per node.
        """
        ints = self._ints
        return tuple([x for x in nodes if not (ints and _horner(ints, x.numerator, x.denominator)[0])])

    # -- equality / hashing ------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Poly):
            return self._num == other._num and self._den == other._den and self._ints == other._ints
        if isinstance(other, (int, Fraction)):
            return (self._ints == ((1,) if other else ())
                    and self._num == other.numerator and self._den == other.denominator)
        return NotImplemented

    def __hash__(self) -> int:
        if len(self._ints) > 1:
            return hash((self._num, self._den, self._ints))
        return hash(Fraction(_Reduced(self._num, self._den)))  # as the scalar it equals

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other) -> "Poly":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return _combine(self, 1, (1,), -1, other, 1)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return _make(-self._num, self._den, self._ints)

    def __sub__(self, other) -> "Poly":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return _combine(self, 1, (1,), 1, other, 1)

    def __rsub__(self, other) -> "Poly":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return _combine(other, 1, (1,), 1, self, 1)

    def __mul__(self, other) -> "Poly":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        a, b = self._ints, other._ints
        if not a or not b:
            return ZERO
        num, den = _times(self._num, self._den, other._num, other._den)
        if len(b) == 1:  # a constant's list is (1,): only the scale changes
            return _make(num, den, a)
        if len(a) == 1:
            return _make(num, den, b)
        return _make(num, den, tuple(_convolve(a, b)))  # primitive with a positive lead (Gauss's lemma)

    __rmul__ = __mul__

    def div_rem(self, divisor: "Poly") -> tuple["Poly", "Poly"]:
        """Euclidean division: self == q*divisor + r with deg r < deg divisor.

        Fraction-free on the integer lists: D*a == Q*b + R for the lists a
        of self and b of divisor, from ``_division``, the one integer
        division, which ``euclid_step`` shares.  A constant divisor changes
        only the scale, and a dividend shorter than the divisor is its own
        remainder.  q and r each take one content pass.  q's scale is r's
        over divisor's: cross-cancellation needs reduced pairs, not one (den, num*D).
        """
        b = divisor._ints
        bn, bd = divisor._num, divisor._den
        if len(b) == 1 and self._ints:  # a constant divisor changes only the scale
            return _make(*_over(self._num, self._den, bn, bd), self._ints), ZERO
        if not b:
            raise ZeroDivisionError("polynomial division by the zero polynomial")
        if len(self._ints) < len(b):
            return ZERO, self
        D, quot, rem = _division(self._ints, b)
        num, den = _times(self._num, self._den, 1, D)
        return _make(*_normal_form(*_over(num, den, bn, bd), quot)), _make(*_normal_form(num, den, rem))

    def __call__(self, x: Scalar) -> Fraction:
        """Evaluate at x = p/q by Horner's rule on the integers: one Fraction at the end."""
        x = as_fraction(x)
        if not self._ints:
            return Fraction(0)
        acc, qpow = _horner(self._ints, x.numerator, x.denominator)
        g = math.gcd(acc, qpow)
        return Fraction(_Reduced(*_times(self._num, self._den, acc // g, qpow // g)))

    def monic(self) -> "Poly":
        """Scale so the leading coefficient is 1; the zero polynomial is unchanged."""
        if self.is_zero or (self._num == 1 and self._den == self._ints[-1]):
            return self
        return _make(1, self._ints[-1], self._ints)

    def over_lead_of(self, other: "Poly") -> "Poly":
        """self divided by the leading coefficient of the nonzero ``other``; builds no Fraction.

        other's leading coefficient is num * ints[-1] / den; g = gcd(ints[-1], den)
        reduces it, so self's scale takes one reduced-pair quotient (``_over``).
        """
        g = math.gcd(other._ints[-1], other._den)
        return _make(*_over(self._num, self._den, other._num * (other._ints[-1] // g), other._den // g),
                     self._ints)

    # -- formatting / serialization -----------------------------------------

    def __str__(self) -> str:
        return self.format()

    def format(self, homogenize: int | None = None) -> str:
        """Terms from the highest degree down, as in "-3/2*x^2 + x - 1".

        With ``homogenize=d`` each term x^k also carries z^(d - k).
        """
        parts: list[str] = []
        pairs = self._reduced_pairs()
        for k in range(len(pairs) - 1, -1, -1):
            top, bottom = pairs[k]
            if not top:
                continue
            z = 0 if homogenize is None else homogenize - k
            powers = [v if e == 1 else f"{v}^{e}" for v, e in (("x", k), ("z", z)) if e]
            unit = bottom == 1 and abs(top) == 1
            body = "*".join(powers if unit and powers else [_ratio_str(abs(top), bottom), *powers])
            if not parts:
                parts.append(body if top > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if top > 0 else f"- {body}")
        return " ".join(parts) or "0"

    def __repr__(self) -> str:
        return f"Poly({self.to_json()!r})"

    def to_json(self) -> list[str]:
        """Ascending coefficient list; index k holds the coefficient of x**k."""
        return [_ratio_str(top, bottom) for top, bottom in self._reduced_pairs()]

    def _reduced_pairs(self) -> list[tuple[int, int]]:
        """Each coefficient as a reduced (numerator, denominator), ascending; no Fraction.

        Coefficient k is num * ints[k] / den with num/den reduced, so
        g = gcd(ints[k], den) reduces it: (num * (ints[k] // g), den // g).
        """
        num, den = self._num, self._den
        out = []
        for c in self._ints:
            g = math.gcd(c, den)
            out.append((num * (c // g), den // g))
        return out


def _times(n1: int, d1: int, n2: int, d2: int) -> tuple[int, int]:
    """(n1/d1) * (n2/d2) as a reduced pair, for reduced pairs with d1, d2 > 0."""
    g1, g2 = math.gcd(n1, d2), math.gcd(n2, d1)
    return (n1 // g1) * (n2 // g2), (d1 // g2) * (d2 // g1)


def _over(n1: int, d1: int, n2: int, d2: int) -> tuple[int, int]:
    """(n1/d1) / (n2/d2) as a reduced pair, for reduced pairs with d1, d2 > 0 and n2 != 0."""
    return _times(n1, d1, d2, n2) if n2 > 0 else _times(n1, d1, -d2, -n2)


def _division(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, list[int], list[int]]:
    """(D, Q, R) with D*a == Q*b + R, len(Q) == len(a) - len(b) + 1 and len(R) == len(b) - 1.

    Fraction-free, for integer lists with len(a) >= len(b) >= 1 and nonzero leads.  A linear
    quotient (len(a) == len(b) + 1), the step of a normal remainder sequence, is closed form:
    with L = lead(b), D = L^2, Q = [q0, q1], q1 = L*a_top, q0 = L*a_{top-1} - a_top*b_{dd-1}
    (b_{-1} = 0) and R_j = D*a_j - q0*b_j - q1*b_{j-1}, in one pass and no gcd.  Any other
    quotient, such as the jump of an abnormal sequence, takes one step per quotient entry:
    each eliminates the top live entry c after scaling by L/gcd(L, c) only the dd entries
    under c that it updates; an entry below them takes the product D of the scalings so far
    when the window reaches it, and a quotient entry takes the scalings of the later steps at
    the end.  So a quotient of degree k costs O(k * dd) integer products, not O(deg a * k).
    """
    lead, dd, top = b[-1], len(b) - 1, len(a) - len(b)
    if top == 1:
        D, q1 = lead * lead, lead * a[-1]
        q0 = lead * a[-2] - a[-1] * b[-2] if dd else lead * a[-2]
        return D, [q0, q1], [D * x - q0 * y - q1 * z for x, y, z in zip(a, b[:-1], (0, *b))]
    rem = list(a)
    quot = [0] * (top + 1)
    mults = [1] * (top + 1)
    D = 1
    for k in range(top, -1, -1):
        if D != 1 and k < top:
            rem[k] *= D
        c = rem[k + dd]
        if not c:
            continue
        g = math.gcd(lead, c)
        mult = lead // g
        if mult != 1:
            for j in range(k, k + dd):
                rem[j] *= mult
            D *= mult
            mults[k] = mult
        cq = c // g
        quot[k] = cq
        for j in range(dd):
            rem[k + j] -= cq * b[j]
    run = 1
    for k in range(top + 1):
        quot[k] *= run
        run *= mults[k]
    return D, quot, rem[:dd]


def _horner(ints, p: int, q: int) -> tuple[int, int]:
    """(acc, qpow) with qpow = q**(len(ints) - 1): the nonempty list ints is acc/qpow at p/q.

    At an integer node (q == 1) every power of q is 1, so the loop is plain Horner.
    """
    acc = ints[-1]
    if q == 1:
        for c in ints[-2::-1]:
            acc = acc * p + c
        return acc, 1
    qpow = 1
    for c in ints[-2::-1]:
        qpow *= q
        acc = acc * p + c * qpow
    return acc, qpow


def _normal_form(num: int, den: int, ints: list[int]) -> tuple[int, int, tuple[int, ...]]:
    """(num/den) * ints in normal form: zeros stripped, content and sign moved to the scale.

    num/den must be reduced with den > 0.  The list is consumed: it may
    be shortened in place.
    """
    if not (ints and ints[-1]):
        while ints and not ints[-1]:
            ints.pop()
        if not ints:
            return 0, 1, ()
    content = math.gcd(*ints)
    if ints[-1] < 0:
        content = -content
    if content == 1:
        return num, den, tuple(ints)
    g = math.gcd(content, den)  # the product by content/1 needs one gcd, not _times' two
    return num * (content // g), den // g, tuple([c // content for c in ints])


def _make(num: int, den: int, ints: tuple[int, ...]) -> Poly:
    """The Poly (num/den) * ints for a triple already in normal form."""
    p = Poly.__new__(Poly)
    p._num, p._den, p._ints = num, den, ints
    return p


def _coerce(other) -> Poly | None:
    """other as a Poly: a constant's list is (1,), the zero constant is ZERO."""
    if isinstance(other, Poly):
        return other
    if isinstance(other, bool):
        as_fraction(other)  # raises: a bool is not a scalar
    if isinstance(other, (int, Fraction)):
        return _make(other.numerator, other.denominator, (1,)) if other else ZERO
    return None


ZERO = Poly()
ONE = Poly((1,))
X = Poly((0, 1))


def monomial(degree: int) -> Poly:
    """x**degree."""
    return Poly((0,) * as_degree(degree, "monomial degree") + (1,))


def value_ratios(top: Poly, bottom: Poly, nodes: Iterable[Fraction]) -> tuple[Fraction | None, ...]:
    """top(x)/bottom(x) at each node x, None where bottom vanishes; bottom must be nonzero.

    The ratio of the two scales is taken once; at a node it is multiplied
    by the reduced ratio of the two integer Horner values, so the large
    scales meet no division per node.
    """
    num, den = _over(top._num, top._den, bottom._num, bottom._den)
    out = []
    for x in nodes:
        p, q = x.numerator, x.denominator
        low, qlow = _horner(bottom._ints, p, q)
        if not low:
            out.append(None)
            continue
        high, qhigh = _horner(top._ints, p, q) if top._ints else (0, 1)
        # top(x)/bottom(x) = num/den * (high/qhigh) / (low/qlow)
        high, low = high * qlow, low * qhigh
        g = math.gcd(high, low) if low > 0 else -math.gcd(high, low)
        out.append(Fraction(_Reduced(*_times(num, den, high // g, low // g))))
    return tuple(out)


def euclid_update(p: Poly, q: Poly, c: Poly, rho: Poly) -> Poly:
    """(p - q*c)/rho for a nonzero constant rho, in one pass: the recurrence of every EEA column.

    With q = (qn/qd)*Q and rho = rn/rd it is (qd*rd*p - qn*rd*Q*c)/(qd*rn), which
    ``_combine`` takes on integers.  No intermediate Poly is built.
    """
    qn, qd, rn, rd = q._num, q._den, rho._num, rho._den
    return _combine(p, qd * rd, q._ints, qn * rd, c, qd * rn)


def _combine(p: Poly, a: int, Q: tuple[int, ...] | list[int], e: int, c: Poly, d: int) -> Poly:
    """(a*p - e*Q*c)/d for nonzero integers a and d, an integer list Q and an integer e != 0 if Q != [].

    The one two-term combination of the kernel: a sum p + c is (1*p - (-1)*(1)*c)/1, a
    difference (1*p - 1*(1)*c)/1, and an EEA column (a*p - e*Q*c)/d (``euclid_update``; the
    loop's own ``euclid_step`` does not use it).  With the scales of a*p and e*c reduced to pn/pd and cn/cd, g =
    gcd(pn, cn) and l = lcm(pd, cd), the numerator is (g/l)*(u*P - v*Q*C) on the integer
    lists, with cofactors u = pn/g * l/pd and v = cn/g * l/cd; g/l is reduced, as each scale
    is.  v goes into the few entries of Q; for a linear Q the whole numerator is one
    comprehension, and any other Q takes the product (``_convolve``), then u*P joins it.
    One content pass and one quotient of the scale by d finish it.
    """
    P, C = p._ints, c._ints
    k = math.gcd(a, p._den)
    pn, pd = a // k * p._num, p._den // k  # a*p's scale, reduced
    if Q and C:
        k = math.gcd(e, c._den)
        cn, cd = e // k * c._num, c._den // k  # e*c's scale, reduced
        g, h = math.gcd(pn, cn), math.gcd(pd, cd)
        u, v = pn // g * (cd // h), cn // g * (pd // h)
        if len(Q) == 2 and len(P) <= len(C) + 1:  # a linear Q: the whole numerator in one pass
            q0, q1 = -v * Q[0], -v * Q[1]
            out = [u * x + q0 * y + q1 * z
                   for x, y, z in zip((*P, *[0] * (len(C) + 1 - len(P))), (*C, 0), (0, *C))]
        else:
            out = _convolve([-v * x for x in Q], C)
            out.extend([0] * (len(P) - len(out)))
            out[:len(P)] = [u * x + y for x, y in zip(P, out)]
        pn, pd, P = _normal_form(g, pd // h * cd, out)
    k = math.gcd(pn, d) if d > 0 else -math.gcd(pn, d)
    return _make(pn // k, pd * (d // k), P)


def _convolve(a, b) -> list[int]:
    """The product of two nonempty integer lists, the one convolution loop; zero entries of a are skipped."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


# A row up to one constant, as the loop carries it: (R, e, C, sizes), the row being e*R for r and
# the integer lists C end to end, of the given lengths, for the cofactors; R is primitive with a
# positive lead, so e is the content of the r part signed as its lead (R = [] and e = 0 for r = 0).
Joint = tuple[list[int], int, list[int], tuple[int, ...]]


def euclid_start(r0: Poly, r1: Poly, width: int) -> tuple[Joint, Joint, tuple[int, int], tuple[int, int]]:
    """The joint start rows (A, 0, 1) and (B, 1, 0), cut to ``width`` polynomials, of the integer
    lists A and B of r0 and r1, with the scales (num, den) of r0 and r1.

    The rows of (r0, r1) are those of (A, B) up to a constant each, with s over r1's scale and t
    over r0's, so the loop runs on (A, B) and carries no scale of the input.
    """
    A, B = list(r0._ints), list(r1._ints)
    if width == 3:
        return (A, 1, [1], (0, 1)), (B, 1, [1], (1, 0)), (r0._num, r0._den), (r1._num, r1._den)
    return (A, 1, [], (0,)), (B, 1, [1], (1,)), (r0._num, r0._den), (r1._num, r1._den)


def cofactor_parts(joint: Joint) -> list[list[int]]:
    """The integer list of each cofactor of a joint row."""
    _, _, C, sizes = joint
    parts, start = [], 0
    for size in sizes:
        parts.append(C[start:start + size])
        start += size
    return parts


def euclid_step(prev: Joint, cur: Joint) -> tuple[int, list[int], int, Joint]:
    """(D, Q, g, next) for joint rows with len(R_prev) >= len(R_cur) >= 1: D*prev - Q*cur = g*next.

    The r parts are divided as the primitive lists they are stored as, D'*R_prev = Q'*R_cur + R
    (``_division``: closed form for a linear quotient).  With h = gcd(e_prev, e_cur),
    D = D'*e_cur/h and Q = Q'*e_prev/h make the r part of D*prev - Q*cur equal to
    (e_prev*e_cur/h)*R, and every cofactor part is D*p - Q*c: one comprehension over all the
    cofactors for a linear quotient (in a remainder sequence no cofactor of prev is longer than
    its match in cur by more than one entry), ``_cross`` per part otherwise.  One content pass
    over R and the cofactors gives R's content and g, the content of the whole row, so the next
    row keeps R primitive and its e.  No scale is taken and no polynomial is built.  Each list is
    stripped of zero top entries, so its degree is its length less one.
    """
    (A, ea, X, a_sizes), (B, eb, Y, b_sizes) = prev, cur
    if not B:
        raise ZeroDivisionError("polynomial division by the zero polynomial")
    D, Q, rem = _division(A, B)
    while rem and not rem[-1]:
        rem.pop()
    h = math.gcd(ea, eb)
    D, Q = D * (eb // h), [q * (ea // h) for q in Q]
    if len(Q) == 2:  # each cofactor of prev padded to c + 1 entries, and each of cur followed by 0
        q0, q1 = Q
        if len(b_sizes) == 1:
            X, Y = (*X, *[0] * (b_sizes[0] + 1 - a_sizes[0])), [*Y, 0]
        else:
            k, m = a_sizes[0], b_sizes[0]
            X = (*X[:k], *[0] * (m + 1 - k), *X[k:], *[0] * (b_sizes[1] + 1 - a_sizes[1]))
            Y = [*Y[:m], 0, *Y[m:], 0]
        out = [D * x - q0 * y - q1 * z for x, y, z in zip(X, Y, (0, *Y))]
        sizes = [c + 1 for c in b_sizes]
        if not (out[-1] and out[b_sizes[0]]):  # a cofactor's top cancels only in rows that no EEA gives
            _strip(out, sizes)
    else:
        parts = [_cross(D, p, Q, c) for p, c in zip(cofactor_parts(prev), cofactor_parts(cur))]
        out, sizes = list(chain.from_iterable(parts)), [len(part) for part in parts]
        _strip(out, sizes)
    content = math.gcd(*rem)
    if rem and rem[-1] < 0:
        content = -content
    e = ea * eb // h * content
    g = math.gcd(e, *out)
    if g > 1:
        out, e = [x // g for x in out], e // g
    return D, Q, g, (rem if content == 1 else [x // content for x in rem], e, out, tuple(sizes))


def _strip(out: list[int], sizes: list[int]) -> None:
    """Strip each list of a joint row's cofactors of its zero top entries, in place, from the last."""
    end = len(out)
    for k in range(len(sizes) - 1, -1, -1):
        start, top = end - sizes[k], end
        while top > start and not out[top - 1]:
            top -= 1
        if top < end:
            del out[top:end]
            sizes[k] = top - start
        end = start


def _cross(D: int, p: list[int], Q: list[int], c: list[int]) -> list[int]:
    """D*p - Q*c on integer lists, through ``_convolve``: a cofactor part of a jump."""
    out = _convolve([-x for x in Q], c) if c else []
    out.extend([0] * (len(p) - len(out)))
    out[:len(p)] = [D * x + y for x, y in zip(p, out)]
    return out


def primitive(ints: Sequence[int]) -> Poly:
    """The Poly of an integer list that is primitive with a positive lead, as the loop keeps r."""
    return _make(1, 1, tuple(ints))


def scaled(num: int, den: int, ints: Sequence[int]) -> Poly:
    """The Poly (num/den)*ints for integers num and den != 0; the list is read, not consumed."""
    if not ints:
        return ZERO
    content = math.gcd(*ints)
    if ints[-1] < 0:
        content = -content
    num *= content
    g = math.gcd(num, den) if den > 0 else -math.gcd(num, den)
    return _make(num // g, den // g, tuple(ints) if content == 1 else tuple([c // content for c in ints]))


def gcd(p: Poly, q: Poly) -> Poly:
    """Monic greatest common divisor.  gcd(0, 0) is undefined."""
    if p.is_zero and q.is_zero:
        raise ValueError("gcd(0, 0) is undefined")
    while not q.is_zero:
        p, q = q, p.div_rem(q)[1]
    return p.monic()


def newton_pair(points) -> tuple[Poly, Poly]:
    """(f, g) for Hermite data: the monic node polynomial and the interpolant of degree < n.

    ``points`` holds (x, values), values[j] the j-th derivative at x.  Each
    node adds one condition per unit of multiplicity (Newton-Hermite, as in
    von zur Gathen & Gerhard, ch. 5), on integer lists: F = prod (q*X - p)
    over the conditions so far, for x = p/q, and g = G/dG.  F vanishes to
    order j at the j-th copy of x and to full order at the earlier nodes,
    so g + (y - g^(j)(x)) / F^(j)(x) * F meets condition y and keeps the
    others.  F^(j)(x) comes from the factored form of F, g^(j)(x) from one
    Horner pass; seen from G the multiplier is a ratio v/u reduced by one
    gcd, and G <- u*G + v*F, dG <- u*dG; nothing when v is 0.  A content
    pass over G follows only when gcd(dG, lead F) != 1: by Gauss's lemma
    (ch. 6) no other prime can divide the new content, so at integer nodes,
    where lead F = 1, the pass never runs.  At an integer node (q == 1) the
    product by (X - p) and the Horner pass (``_horner``) take no power of q.
    At the end f = F/lead(F): lead(F) = prod q is not 1 at a rational node.
    """
    F, G, dG = [1], [], 1
    roots = []  # (p, q) of each condition already added
    for x, values in points:
        p, q = x.numerator, x.denominator
        # F = (q*X - p)**j * prod (q_i*X - p_i) over the earlier conditions, so
        # F^(j)(x) = j! * q**j * base / qF, where base and qF are fixed for the node
        base, qF = math.prod([b * p - a * q for a, b in roots]), q ** (len(F) - 1)
        for j, y in enumerate(values):
            # g^(j)(x) = aG / (qG * dG), and qG divides qF since deg G < deg F
            aG, qG = (_horner([c * math.perm(k, j) for k, c in enumerate(G[j:], j)] if j else G, p, q)
                      if len(G) > j else (0, 1))
            # v/u = dG * (y - g^(j)(x)) / F^(j)(x)
            v = (y.numerator * qG * dG - y.denominator * aG) * (qF // qG)
            if v:
                u = y.denominator * math.factorial(j) * q**j * base
                h = math.gcd(v, u) if u > 0 else -math.gcd(v, u)
                u, v = u // h, v // h
                G.extend([0] * (len(F) - len(G)))
                G = [u * a + v * b for a, b in zip(G, F)]
                # Content enters only through lead(F).  Before the update gcd(u, v) = 1,
                # gcd(dG, G) = 1, F is primitive and G's top entry is 0.  A prime that
                # divides u*dG and the new G cannot divide u (it would divide v*F, so F's
                # content), so it divides dG; then not v (it would divide u*G, so G's
                # content); then, through the top entry v*lead(F), lead(F) = prod q_i.
                # So the pass runs only when gcd(dG, lead F) != 1: never at integer nodes.
                shared = math.gcd(dG, F[-1])
                dG *= u
                if shared != 1:
                    h = math.gcd(dG, *G)
                    if h != 1:
                        dG, G = dG // h, [a // h for a in G]
            if q == 1:
                F = [a - p * b for a, b in zip([0, *F], [*F, 0])]
            else:
                F = [q * a - p * b for a, b in zip([0, *F], [*F, 0])]
        roots.extend([(p, q)] * len(values))
    return _make(*_normal_form(1, F[-1], F)), _make(*_normal_form(1, dG, G))
