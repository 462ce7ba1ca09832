"""Exact dense univariate polynomial arithmetic over the rationals.

Coefficients are `fractions.Fraction` values stored in ascending degree
order with trailing zeros stripped, so every polynomial has exactly one
representation; the empty coefficient tuple is the zero polynomial.
All arithmetic is exact, there is no floating point anywhere.

The degree of the zero polynomial is the sentinel ``NEG_INF``, which
compares below every integer and absorbs addition, so degree bookkeeping
such as ``deg(p*q) == deg(p) + deg(q)`` needs no special cases.
"""

from __future__ import annotations

import math
import re
from decimal import Decimal
from fractions import Fraction
from typing import Iterable, Union

NEG_INF = float("-inf")

Scalar = Union[int, str, Fraction]

_INTEGER_RATIO = re.compile(r"-?[0-9]+(/[0-9]+)?")


def as_fraction(value: Scalar) -> Fraction:
    """The one reader of outside scalars: a Fraction, an int, or a string "p" or "p/q".

    Everything else raises ValueError: booleans (a bool is an int in
    Python), floats, decimal and exponent strings such as "1e3000",
    padded strings, and a zero denominator.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, str):
        well_formed = _INTEGER_RATIO.fullmatch(value) is not None
    else:
        well_formed = isinstance(value, int) and not isinstance(value, bool)
    if not well_formed:
        raise ValueError(f"expected an integer or a \"p/q\" string, got {value!r}")
    try:
        return Fraction(value)
    except ZeroDivisionError as exc:
        raise ValueError("rational with zero denominator") from exc


def _rational_str(c: Fraction) -> str:
    """str(c) at any length; every rational the library prints goes through here.

    str() of an int refuses more digits than sys.get_int_max_str_digits()
    (4,300 by default).  That limit stays in force for parsing input;
    output past it takes its digits from Decimal, which has no such limit.
    """
    try:
        return str(c)
    except ValueError:
        top = str(Decimal(c.numerator))
        return top if c.denominator == 1 else f"{top}/{Decimal(c.denominator)}"


class Poly:
    """An immutable univariate polynomial with exact rational coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar] = ()) -> None:
        cs = [as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple[Fraction, ...] = tuple(cs)

    # -- queries ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int | float:
        """Degree as an int, or NEG_INF for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    @property
    def leading(self) -> Fraction:
        """Leading coefficient; 0 for the zero polynomial."""
        return self.coeffs[-1] if self.coeffs else Fraction(0)

    def coeff(self, k: int) -> Fraction:
        """Coefficient of x**k (0 when k is outside the stored range)."""
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return Fraction(0)

    # -- equality / hashing ------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self.coeffs == Poly((other,)).coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    # -- arithmetic ---------------------------------------------------------

    @staticmethod
    def _coerce(other) -> "Poly | None":
        if isinstance(other, Poly):
            return other
        if isinstance(other, (int, Fraction)):
            return Poly((other,))
        return None

    def __add__(self, other) -> "Poly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly(tuple(-c for c in self.coeffs))

    def __sub__(self, other) -> "Poly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Poly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "Poly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return ZERO
        if len(b) == 1:  # scalar fast path
            return Poly(tuple(c * b[0] for c in a))
        if len(a) == 1:
            return Poly(tuple(c * a[0] for c in b))
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Poly":
        if exponent < 0:
            raise ValueError("negative polynomial power")
        result = ONE
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def div_rem(self, divisor: "Poly") -> tuple["Poly", "Poly"]:
        """Euclidean division: self == q*divisor + r with deg r < deg divisor."""
        if divisor.is_zero:
            raise ZeroDivisionError("polynomial division by the zero polynomial")
        dd = len(divisor.coeffs) - 1
        if len(self.coeffs) - 1 < dd:
            return ZERO, self
        rem = list(self.coeffs)
        lead = divisor.coeffs[-1]
        quot = [Fraction(0)] * (len(rem) - dd)
        for k in range(len(quot) - 1, -1, -1):
            c = rem[k + dd] / lead
            if c:
                quot[k] = c
                for j in range(dd + 1):
                    rem[k + j] -= c * divisor.coeffs[j]
        return Poly(quot), Poly(rem[:dd])

    def __call__(self, x: Scalar) -> Fraction:
        """Evaluate at x by Horner's rule."""
        x = as_fraction(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self, order: int = 1) -> "Poly":
        """The order-th formal derivative."""
        if order < 0:
            raise ValueError("derivative order must be nonnegative")
        cs = self.coeffs
        for _ in range(order):
            cs = tuple(k * cs[k] for k in range(1, len(cs)))
        return Poly(cs)

    def monic(self) -> "Poly":
        """Scale so the leading coefficient is 1; the zero polynomial is unchanged."""
        if self.is_zero or self.leading == 1:
            return self
        inv = 1 / self.leading
        return Poly(tuple(c * inv for c in self.coeffs))

    # -- formatting / serialization -----------------------------------------

    def __str__(self) -> str:
        return self.format()

    def format(self, homogenize: int | None = None) -> str:
        """Terms from the highest degree down, as in "-3/2*x^2 + x - 1".

        With ``homogenize=d`` each term x^k also carries z^(d - k).
        """
        parts: list[str] = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            z = 0 if homogenize is None else homogenize - k
            powers = [v if e == 1 else f"{v}^{e}" for v, e in (("x", k), ("z", z)) if e]
            mag = abs(c)
            body = "*".join(powers if mag == 1 and powers else [_rational_str(mag), *powers])
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts) or "0"

    def __repr__(self) -> str:
        return f"Poly({self.to_json()!r})"

    def to_json(self) -> list[str]:
        """Ascending coefficient list; index k holds the coefficient of x**k."""
        return [_rational_str(c) for c in self.coeffs]

    @classmethod
    def from_json(cls, data) -> "Poly":
        if not isinstance(data, (list, tuple)):
            raise ValueError("polynomial must be a JSON array of rational strings")
        return cls(data)


ZERO = Poly()
ONE = Poly((1,))
X = Poly((0, 1))


# -- scaled integer lists ------------------------------------------------------
#
# A polynomial held as (scale, ints): a Fraction times an ascending list of
# integers that is primitive (content 1) with a positive leading entry, so
# the pair is unique; the zero polynomial is (0, []).  Arithmetic on the list
# pays no gcd per coefficient, and a product of primitive lists is primitive
# (Gauss's lemma), so only sums and quotients need a content pass.

_Scaled = tuple[Fraction, list[int]]


def _scaled(scale: Fraction, ints: list[int]) -> _Scaled:
    """scale * ints as a scaled integer list: zeros stripped, content and sign moved to the scale.

    The list is consumed: it may be shortened in place.
    """
    while ints and not ints[-1]:
        ints.pop()
    if not ints:
        return Fraction(0), []
    content = math.gcd(*ints)
    if ints[-1] < 0:
        content = -content
    if content != 1:
        ints = [c // content for c in ints]
    return scale * content, ints


def _to_scaled(p: Poly) -> _Scaled:
    """p as a scaled integer list: its coefficients over their common denominator."""
    den = math.lcm(*(c.denominator for c in p.coeffs))
    return _scaled(Fraction(1, den), [c.numerator * (den // c.denominator) for c in p.coeffs])


def _from_scaled(scale: Fraction, ints: list[int]) -> Poly:
    """The Poly scale * ints; each product takes one gcd against the scale's denominator.

    A scaled list has no trailing zero, so the coefficients are stored as they are.
    """
    p = Poly.__new__(Poly)
    if scale.denominator == 1:
        num = scale.numerator
        p.coeffs = tuple([Fraction(num * c) for c in ints])
    else:
        p.coeffs = tuple([scale * c for c in ints])
    return p


def monomial(degree: int, coeff: Scalar = 1) -> Poly:
    """coeff * x**degree."""
    if degree < 0:
        raise ValueError("monomial degree must be nonnegative")
    return Poly((0,) * degree + (as_fraction(coeff),))


def gcd(p: Poly, q: Poly) -> Poly:
    """Monic greatest common divisor.  gcd(0, 0) is undefined."""
    if p.is_zero and q.is_zero:
        raise ValueError("gcd(0, 0) is undefined")
    while not q.is_zero:
        p, q = q, p.div_rem(q)[1]
    return p.monic()
