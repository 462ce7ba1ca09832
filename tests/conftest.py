import itertools
import math
import random
from fractions import Fraction

import pytest

from ratinterp import (
    InterpolationData,
    PlaneParametrization,
    Poly,
    ZERO,
    check_weak,
    decompose,
    extended_euclid,
    gcd,
    hermite_polynomial,
    minimal_basis,
    nodal_poly,
)
from ratinterp.eea import Decomposition
from ratinterp.oracle import _convolution_rows, nullspace


def P(*coeffs):
    """Polynomial from ascending coefficients; accepts ints and 'p/q' strings."""
    return Poly(coeffs)


def derivative(p, order=1):
    """The order-th formal derivative of p, read off its Fraction coefficients."""
    return Poly([math.perm(k, order) * c for k, c in enumerate(p.coeffs)][order:])


def express_in_pair_basis(pair, basis1, basis2, dp, dq):
    """(p, q) with pair == p*basis1 + q*basis2, deg p <= dp, deg q <= dq (free unknowns zero), or None.

    By the oracle's elimination: in the kernel of (p, q, w) -> p*basis1 + q*basis2 + w*pair,
    (p, q) heads -v for the v whose free column is w, the last; if w is a pivot column, every
    v has w = 0: no answer.
    """
    rows = _convolution_rows(list(zip(basis1, basis2, pair)), (dp, dq, 0))
    np_ = max(dp + 1, 0)
    basis = nullspace(rows, np_ + max(dq + 1, 0) + 1)
    if not basis or basis[-1][-1] == 0:
        return None
    head = [-c for c in basis[-1][:-1]]
    return Poly(head[:np_]), Poly(head[np_:])


def unit_split(p):
    """(c, u) with p == c*u: u the integer list of p at scale 1, primitive with a positive lead, c a
    nonzero constant; the zero polynomial splits as (1, 0).  Read off the Fraction coefficients, so it
    shares no code with the kernel's own split of a remainder."""
    if p.is_zero:
        return Poly((1,)), ZERO
    den = math.lcm(*(c.denominator for c in p.coeffs))
    ints = [int(c * den) for c in p.coeffs]
    content = math.gcd(*ints) if ints[-1] > 0 else -math.gcd(*ints)
    return Poly((Fraction(content, den),)), Poly([k // content for k in ints])


def count_fractions(monkeypatch):
    """A list that gains one entry for every Fraction built from now on."""
    built = []
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    if hasattr(Fraction, "_from_coprime_ints"):  # where Python 3.12+ builds arithmetic results
        coprime = Fraction._from_coprime_ints.__func__

        def counting_coprime(cls, *args):
            built.append(args)
            return coprime(cls, *args)

        monkeypatch.setattr(Fraction, "_from_coprime_ints", classmethod(counting_coprime))
    return built


DATA_FOUR = InterpolationData.from_pairs([(0, [-2]), (2, [6]), (-1, [-3, 3])])
DATA_SIX_EVEN = InterpolationData.from_pairs(
    [(1, [1]), (-1, [1]), (2, [-14]), (-2, [-14]), (3, [1]), (-3, [1])]
)
DATA_GENERIC4 = InterpolationData.from_pairs([(-1, [-3]), (0, [-2]), (1, [-1]), (2, [6])])
# samples of x -> 1/(x - 5); the minimal interpolant is unique here
DATA_RECIPROCAL = InterpolationData.from_pairs(
    [(0, ["-1/5"]), (1, ["-1/4"]), (2, ["-1/3"]), (3, ["-1/2"])]
)
DATA_ALL_ZERO = InterpolationData.from_pairs([(0, [0]), (1, [0, 0])])


@pytest.fixture
def data_four():
    return DATA_FOUR


@pytest.fixture
def data_six_even():
    return DATA_SIX_EVEN


@pytest.fixture
def data_generic4():
    return DATA_GENERIC4


@pytest.fixture
def data_reciprocal():
    return DATA_RECIPROCAL


@pytest.fixture
def data_all_zero():
    return DATA_ALL_ZERO


def random_data(rng, max_n=7):
    total = rng.randint(1, max_n)
    mults = []
    remaining = total
    while remaining:
        m = rng.randint(1, min(3, remaining))
        mults.append(m)
        remaining -= m
    pool = sorted({Fraction(k, 2) for k in range(-10, 11)})
    nodes = rng.sample(pool, len(mults))

    def value():
        den = rng.choice((1, 1, 2, 3))
        return Fraction(rng.randint(-10 * den, 10 * den), den)

    return InterpolationData.from_pairs(
        [(x, [value() for _ in range(m)]) for x, m in zip(nodes, mults)]
    )


def random_poly(rng, degree):
    if degree < 0:
        return ZERO
    coeffs = [rng.randint(-4, 4) for _ in range(degree)]
    coeffs.append(rng.choice((-3, -2, -1, 1, 2, 3)))
    return Poly(coeffs)


def random_param(rng, max_n=8):
    n = rng.randint(1, max_n)
    r0 = random_poly(rng, n)
    if rng.random() < 0.1:
        return PlaneParametrization(r0, ZERO)
    return PlaneParametrization(r0, random_poly(rng, rng.randint(0, n)))


# -- an independent reference: polynomials as ascending tuples of Fractions -----
#
# The library's Poly runs on integer lists; these run on the plain Fraction
# coefficients, so they check the kernel without sharing any of its code.


def frac_trim(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def frac_add(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return frac_trim(out)


def frac_neg(a):
    return tuple(-c for c in a)


def frac_mul(a, b):
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return frac_trim(out)


def frac_div_rem(a, b):
    """(q, r) with a == q*b + r and deg r < deg b, for nonzero b."""
    dd = len(b) - 1
    if len(a) - 1 < dd:
        return (), frac_trim(a)
    rem = list(a)
    quot = [Fraction(0)] * (len(a) - dd)
    for k in range(len(quot) - 1, -1, -1):
        c = rem[k + dd] / b[-1]
        quot[k] = c
        for j in range(dd + 1):
            rem[k + j] -= c * b[j]
    return frac_trim(quot), frac_trim(rem[:dd])


def frac_eval(a, x):
    """Horner's rule."""
    acc = Fraction(0)
    for c in reversed(a):
        acc = acc * x + c
    return acc


def frac_format(coeffs, homogenize=None):
    """Poly.format's text for Fraction coefficients, each magnitude printed by str()."""
    parts = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if c == 0:
            continue
        z = 0 if homogenize is None else homogenize - k
        powers = [v if e == 1 else f"{v}^{e}" for v, e in (("x", k), ("z", z)) if e]
        body = "*".join(powers if abs(c) == 1 and powers else [str(abs(c)), *powers])
        sign = ("" if c > 0 else "-") if not parts else ("+ " if c > 0 else "- ")
        parts.append(sign + body)
    return " ".join(parts) or "0"


def reference_euclid(r0, r1):
    """The extended Euclidean algorithm on Fraction coefficient tuples: (rows, quotients).

    The reference for ``extended_euclid``: the Euclidean remainder
    sequence over Q is unique, so both must agree row by row and quotient
    by quotient.
    """
    one = (Fraction(1),)
    rows = [(r0, (), one), (r1, one, ())]
    quotients = []
    while rows[-1][0]:
        prev_r, prev_s, prev_t = rows[-2]
        cur_r, cur_s, cur_t = rows[-1]
        q, rem = frac_div_rem(prev_r, cur_r)
        quotients.append(q)
        rows.append((rem, frac_add(prev_s, frac_neg(frac_mul(q, cur_s))),
                     frac_add(prev_t, frac_neg(frac_mul(q, cur_t)))))
    return rows, quotients


def reference_hermite_polynomial(data):
    """g from the Newton form, nested in Fraction coefficient tuples; the reference for g."""
    z, vals = [], []
    for x, values in data.points:
        for _ in values:
            z.append(x)
            vals.append(values)
    n = len(z)
    col = [vals[i][0] for i in range(n)]
    newton_coeffs = [col[0]]
    factorial = 1
    for j in range(1, n):
        factorial *= j
        col = [
            vals[i][j] / factorial if z[i] == z[i + j] else (col[i + 1] - col[i]) / (z[i + j] - z[i])
            for i in range(n - j)
        ]
        newton_coeffs.append(col[0])
    g = frac_trim((newton_coeffs[-1],))
    for j in range(n - 2, -1, -1):
        g = frac_add(frac_mul(g, (-z[j], Fraction(1))), (newton_coeffs[j],))
    return g


def integer_node_data(rng, n):
    nodes = rng.sample(range(-n, n + 1), n)
    return InterpolationData.from_pairs([(x, [rng.randint(-9, 9)]) for x in nodes])


def repeated_node_data(rng, n):
    pairs, nodes = [], rng.sample(range(-n, n + 1), n)
    while n:
        m = min(rng.randint(2, 3), n)
        pairs.append((nodes.pop(), [rng.randint(-9, 9) for _ in range(m)]))
        n -= m
    return InterpolationData.from_pairs(pairs)


def rational_node_data(rng, n):
    pool = sorted({Fraction(p, q) for q in (1, 2, 3, 5) for p in range(-3 * q, 3 * q + 1)})
    return InterpolationData.from_pairs(
        [(x, [Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3)))]) for x in rng.sample(pool, n)]
    )


def planted_data(rng, n, num, den):
    """Samples of num/den at integer nodes, every third node with the derivative too.

    Nodes where den vanishes are skipped.  The trace of such data is
    abnormal: one quotient of degree about n - 2 max(deg num, deg den).
    """
    dnum, dden = derivative(num), derivative(den)
    pairs, x = [], -n // 2
    while n:
        b = den(x)
        if b != 0:
            value = num(x) / b
            if n >= 2 and len(pairs) % 3 == 0:
                pairs.append((x, [value, (dnum(x) * b - num(x) * dden(x)) / b**2]))
                n -= 2
            else:
                pairs.append((x, [value]))
                n -= 1
        x += 1
    return InterpolationData.from_pairs(pairs)


def module_basis(data, shift=0):
    """A minimal basis of the weak pairs of Hermite data by node insertion, with no EEA.

    Van Barel & Bultheel (1990), Beckermann & Labahn (1994).  The columns (a, b) start as (1, 0)
    and (0, 1) and stay integer coefficient lists.  A node x = u/w of multiplicity m gives m
    conditions j = 0..m-1, taken in order, each with the residual e = [a - b*y]_j at x of each
    column: the j-th Taylor coefficient at x, for y = sum values[k]/k! * (X - x)**k.  The
    Taylor coefficients of a and b at x come from repeated synthetic division (``taylor``),
    here times w**D for one D >= every degree and e times the lcm L of the denominators of y,
    so both residuals share a scale.  Of the columns with e != 0 the one of least max-degree
    becomes (w*X - u)*col, and the other, if its e != 0, e_pivot*col - e*col_pivot, made
    primitive by one gcd; both then meet conditions 0..j at x and the degree sum grows by one.
    Returns the two columns as pairs of Poly, the lower max-degree first.

    With a ``shift`` the max-degree is the shifted one, max(deg a, deg b + shift), for the pivot
    and for the order of the result.  At shift = 2d + 1 - n the low column has deg a <= d and
    deg b <= n - 1 - d: the prescribed split of ``hermite_rational(data, d)``.
    """
    cols = [([1], []), ([], [1])]

    def degree(col):
        return max(len(a) for a in col) - 1

    def shifted(col):
        a, b = col
        return max(len(a) - 1 if a else -math.inf, len(b) - 1 + shift if b else -math.inf)

    def taylor(ints, u, w, D, count):
        """The first count Taylor coefficients at u/w of the list ints of degree <= D, times w**D.

        w**D * c(u/w + t) = C(u + w*t) for C(Z) = sum c_k * w**(D - k) * Z**k, whose Taylor
        coefficients at the integer u are the remainders of repeated synthetic division by Z - u.
        """
        C, out = [c * w ** (D - k) for k, c in enumerate(ints)], []
        for i in range(count):
            acc, quotient = 0, []
            for c in reversed(C):
                acc = acc * u + c
                quotient.append(acc)
            out.append(quotient.pop() * w ** i if quotient else 0)
            C = quotient[::-1]
        return out

    for x, values in data.points:
        u, w = x.numerator, x.denominator
        y = [v / math.factorial(k) for k, v in enumerate(values)]
        L = math.lcm(*(c.denominator for c in y))
        y = [c.numerator * (L // c.denominator) for c in y]
        for j in range(len(values)):
            D = max(map(degree, cols))
            res = []
            for a, b in cols:
                A, B = taylor(a, u, w, D, j + 1), taylor(b, u, w, D, j + 1)
                res.append(L * A[j] - sum(B[i] * y[j - i] for i in range(j + 1)))
            pivot = min((k for k in (0, 1) if res[k]), key=lambda k: shifted(cols[k]))
            other = 1 - pivot
            if res[other]:
                col = [[res[pivot] * p - res[other] * q for p, q in itertools.zip_longest(c, c_pivot, fillvalue=0)]
                       for c, c_pivot in zip(cols[other], cols[pivot])]
                content = math.gcd(*col[0], *col[1])
                for c in col:
                    c[:] = [v // content for v in c]
                    while c and not c[-1]:
                        c.pop()
                cols[other] = tuple(col)
            cols[pivot] = tuple([w * p - u * q for p, q in zip([0, *c], [*c, 0])] if c else [] for c in cols[pivot])
    return tuple(tuple(Poly(c) for c in col) for col in sorted(cols, key=shifted))


def row_sum(m, trace):
    """Sum m_i * (r_i, s_i, t_i) over the rows of a complete trace."""
    return tuple(sum((m_i * p for m_i, p in zip(m, column)), ZERO) for column in zip(*trace.full_rows()))


def on_curve(line, param):
    """True iff the moving line vanishes identically along the parametrization."""
    return (line.ct0 * param.r0 + line.ct1 * param.r1 + line.c1).is_zero


def interp_trace(data):
    return extended_euclid(nodal_poly(data), hermite_polynomial(data))


def cross(u, v):
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])


def derived_identities_check(trace):
    """The identities that follow from what check_invariants checks, on every row present:
    the row identity, rows i, i+1 crossing to (-1)^i*(r0, r1, 1) as moving lines (t, s, -r),
    deg q_i >= 1 for i >= 2, and both degree sums."""
    N, r0, r1 = trace.N, trace.r(0), trace.r(1)
    lines = [(trace.t(i), trace.s(i), -trace.r(i)) for i in range(N + 2)]
    for i, (t, s, _) in enumerate(lines):
        assert trace.r(i) == s * r1 + t * r0, i
    for i in range(N + 1):
        sign = (-1) ** i
        assert cross(lines[i], lines[i + 1]) == (sign * r0, sign * r1, sign), i
    qsum = 0
    for i in range(1, N + 1):
        qsum += trace.q(i).degree
        assert trace.q(i).degree >= (1 if i >= 2 else 0), i
        assert trace.r(i).degree == r0.degree - qsum, i
        assert trace.s(i + 1).degree == qsum, i


def full_trace_check(trace, data=None, rng=None):
    """The whole invariant battery for one trace.

    Structural identities (check_invariants and the identities that
    follow), weak-pair rows when the trace comes from an interpolation
    instance, and uniqueness of the trace-row decomposition via a random
    bounded round-trip.
    """
    trace.check_invariants()
    derived_identities_check(trace)
    if data is not None:
        for i in range(trace.N + 2):
            assert check_weak(trace.r(i), trace.s(i), data)
    if trace.r(0).degree == trace.r(1).degree:
        return
    rng = rng or random.Random(2024)
    for _ in range(3):
        m = [random_poly(rng, rng.randint(-1, 2))]
        for i in range(1, trace.N + 1):
            m.append(random_poly(rng, rng.randint(-1, trace.q(i).degree - 1)))
        m.append(random_poly(rng, rng.randint(-1, 2)))
        dec = Decomposition(tuple(m))
        a, b, c = row_sum(dec.m, trace)
        assert decompose(a, b, c, trace) == dec


def coprimality_for_free_check(data):
    """A trace row is coprime exactly when its s passes the node test.

    Rows whose s vanishes at no node are coprime, and a row whose s
    vanishes at a node shares that node's factor with r.
    """
    g = hermite_polynomial(data)
    if g.is_zero:
        return
    trace = interp_trace(data)
    for k in range(trace.N + 2):
        passes = all(trace.s(k)(x) != 0 for x in data.nodes)
        assert (gcd(trace.r(k), trace.s(k)).degree == 0) == passes, k


def basis_split_check(data):
    basis = minimal_basis(data)
    assert basis.mu1 + basis.mu2 == data.n
