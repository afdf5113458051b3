"""Univariate and trivariate polynomial arithmetic over exact coefficient rings.

A univariate polynomial is a list of coefficients, lowest degree first.
``ModP`` (ints mod p), the discrete-log arithmetic of ``finitefield``, the
residue fields of ``badred`` and ``QQ`` (ints and ``fractions.Fraction``)
share one interface, and the ``code_*`` routines (division, gcds,
resultant, interpolation) are written against it, so they run over any
ring offering it: the certificate's computations over finite fields on int
codes, and ``picard``'s charpoly, Sturm and unit-root arithmetic over Q.
``TernaryForm`` coefficients are duck-typed ring elements, ints or
``Fraction``s; a form over a finite field is a ``FormModP``: int
coefficients reduced mod p, tagged with the field.

Ternary forms are homogeneous and serialise in graded-lex order with
x0 > x1 > x2; a quadratic form is the 6 coefficients of
[x0^2, x0x1, x0x2, x1^2, x1x2, x2^2], a sextic the analogous 28.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from fractions import Fraction


# ---------------------------------------------------------------------------
# Univariate arithmetic on coefficient lists
# ---------------------------------------------------------------------------
#
# The routines below work on lists of field elements, coded as plain ints
# over a finite field and as ints and Fractions over QQ, lowest degree
# first, with a nonzero last entry (the empty list is 0).  The field is an
# arithmetic object with the interface of ModP: ``zero``, ``one``, ``add``,
# ``sub``, ``neg``, ``mul``, ``inv``, ``pow`` and ``from_int`` on codes
# (``random`` only where a field is factored over).  ``Residues`` builds
# K[u]/(B) over any such K, itself in the interface.

@dataclass(frozen=True)
class ModP:
    """F_p on the ints 0 .. p - 1; two instances for one p are equal.
    ``characteristic`` and ``degree`` over F_p read as for a ``FiniteField``."""

    p: int
    zero, one = 0, 1
    degree = 1
    characteristic = property(lambda self: self.p)

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.p

    def neg(self, a: int) -> int:
        return -a % self.p

    def mul(self, a: int, b: int) -> int:
        return a * b % self.p

    def inv(self, a: int) -> int:
        return pow(a, -1, self.p)

    def pow(self, a: int, e: int) -> int:
        return pow(a, e, self.p)

    def from_int(self, n: int) -> int:
        return n % self.p

    def random(self, rng) -> int:
        return rng.randrange(self.p)


class Rationals:
    """Q on ints and ``Fraction``s, in the interface of ``ModP``.  ``inv``
    returns 1 and -1 as themselves, so a division by a polynomial over Z
    with leading coefficient +/-1 stays on ints."""

    zero, one = 0, 1
    add, sub, neg, mul, pow = operator.add, operator.sub, operator.neg, operator.mul, operator.pow

    def inv(self, a):
        return a if a == 1 or a == -1 else 1 / Fraction(a)

    def from_int(self, n: int) -> int:
        return n


QQ = Rationals()


def code_strip(A, cs: list) -> list:
    """cs without its trailing zeros, stripped in place."""
    zero = A.zero
    while cs and cs[-1] == zero:
        cs.pop()
    return cs


def code_eval(A, cs: list, x):
    """The value of a coded polynomial at the coded point x (Horner)."""
    add, mul = A.add, A.mul
    acc = A.zero
    for c in reversed(cs):
        acc = add(mul(acc, x), c)
    return acc


def code_divmod(A, f: list, g: list) -> tuple[list, list]:
    """Quotient and remainder of f by a nonzero g."""
    sub, mul, zero = A.sub, A.mul, A.zero
    r = list(f)
    dg = len(g) - 1
    inv = A.inv(g[-1])
    q = [zero] * max(len(r) - dg, 0)
    for i in range(len(r) - 1, dg - 1, -1):
        c = r.pop()
        if c == zero:
            continue
        q[i - dg] = t = mul(c, inv)
        for j in range(dg):
            r[i - dg + j] = sub(r[i - dg + j], mul(t, g[j]))
    return q, code_strip(A, r)


def code_rem(A, f: list, g: list) -> list:
    """The remainder of f by a nonzero g."""
    return code_divmod(A, f, g)[1]


def code_sub(A, f: list, g: list) -> list:
    zero = A.zero
    n = max(len(f), len(g))
    f, g = f + [zero] * (n - len(f)), g + [zero] * (n - len(g))
    return code_strip(A, [A.sub(c, e) for c, e in zip(f, g)])


def code_mul(A, f: list, g: list) -> list:
    if not f or not g:
        return []
    add, mul = A.add, A.mul
    out = [A.zero] * (len(f) + len(g) - 1)
    for i, c in enumerate(f):
        for j, d in enumerate(g):
            out[i + j] = add(out[i + j], mul(c, d))
    return out


def code_gcd(A, f: list, g: list) -> list:
    """The monic gcd of f and g, not both 0."""
    while g:
        f, g = g, code_rem(A, f, g)
    inv = A.inv(f[-1])
    return [A.mul(c, inv) for c in f]


def code_gcdex(A, a: list, b: list) -> tuple[list, list]:
    """The monic gcd d of a and a nonzero b with s such that s*a = d mod b:
    s = a^-1 mod b when d = 1 and deg a < deg b."""
    r0, r1, s0, s1 = b, a, [], [A.one]
    while r1:
        q, r = code_divmod(A, r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, code_sub(A, s0, code_mul(A, q, s1))
    inv = A.inv(r0[-1])
    return [A.mul(c, inv) for c in r0], [A.mul(c, inv) for c in s0]


def code_resultant(A, f: list, g: list):
    """Res(f, g) of nonzero f, g with the Sylvester convention, by Euclid:
    Res(f, g) = (-1)^(deg f deg g) lc(g)^(deg f - deg r) Res(g, r) for the
    remainder r of f by g, and Res(f, c) = c^(deg f) for a constant c."""
    res = A.one
    while len(g) > 1:
        r = code_rem(A, f, g)
        if not r:
            return A.zero
        df, dg = len(f) - 1, len(g) - 1
        if df & dg & 1:
            res = A.neg(res)
        res = A.mul(res, A.pow(g[-1], df - len(r) + 1))
        f, g = g, r
    return A.mul(res, A.pow(g[0], len(f) - 1))


@functools.lru_cache(maxsize=None)
def newton_weights(A, xs: range) -> tuple:
    """For each point x_k, the products prod_{i<j} (x_k - x_i), j < k, and
    the inverse of prod_{j<k} (x_k - x_j): once per points and arithmetic
    (``ModP`` compares by p, a ``LogArith`` is one per fq(p, k))."""
    out = []
    for k, x in enumerate(xs):
        prods, weight = [], A.one
        for j in range(k):
            prods.append(weight)
            weight = A.mul(weight, A.sub(x, xs[j]))
        out.append((tuple(prods), A.inv(weight)))
    return tuple(out)


def code_interpolate(A, xs: range, ys) -> list:
    """The polynomial of degree < len(xs) through the points (x, y), x
    distinct, in Newton's incremental form with the weights of
    ``newton_weights``, then expanded to coefficients."""
    add, sub, mul = A.add, A.sub, A.mul
    newton = []
    for y, (prods, inv) in zip(ys, newton_weights(A, xs)):
        value = A.zero
        for c, weight in zip(newton, prods):
            value = add(value, mul(c, weight))
        newton.append(mul(sub(y, value), inv))
    cs: list = []
    for k in range(len(newton) - 1, -1, -1):
        # cs <- cs * (u - x_k) + newton[k]
        minus_x = A.neg(xs[k])
        cs = [A.zero] + cs
        for j in range(len(cs) - 1):
            cs[j] = add(cs[j], mul(minus_x, cs[j + 1]))
        cs[0] = add(cs[0], newton[k])
    return code_strip(A, cs)


class ZeroDivisorSplit(Exception):
    """A zero divisor of ``Residues``, carrying the proper factor of B."""

    def __init__(self, divisor: list):
        self.divisor = divisor


class Residues:
    """K[u]/(B) on coded u-polynomials of degree < deg B over K, in the
    interface of ``ModP``, treated as a field: ``inv`` raises
    ZeroDivisorSplit with the proper factor gcd(c, B) of B at a zero divisor
    c (dynamic evaluation).  For an irreducible B it is the field K(u0), with
    u0 = [0, 1] a root of B and ``lift`` the embedding of K."""

    def __init__(self, A, B: list):
        self.A, self.B, self.zero = A, B, []
        self.one = self.lift(A.one)

    characteristic = property(lambda self: self.A.characteristic)
    # [K(u0) : F_p] for an irreducible B over a field K
    degree = property(lambda self: self.A.degree * (len(self.B) - 1))

    def lift(self, c) -> list:
        return [] if c == self.A.zero else [c]

    def from_int(self, n: int) -> list:
        return self.lift(self.A.from_int(n))

    def add(self, x, y):
        return code_sub(self.A, x, self.neg(y))

    def sub(self, x, y):
        return code_sub(self.A, x, y)

    def neg(self, x):
        return [self.A.neg(c) for c in x]

    def mul(self, x, y):
        return code_rem(self.A, code_mul(self.A, x, y), self.B)

    def inv(self, x):
        d, s = code_gcdex(self.A, x, self.B)
        if len(d) > 1:
            raise ZeroDivisorSplit(d)
        return s

    def pow(self, x, e: int):
        """x^e by square-and-multiply from the top bit."""
        out = self.one
        for bit in bin(e)[2:]:
            out = self.mul(out, out)
            if bit == "1":
                out = self.mul(out, x)
        return out

    def random(self, rng) -> list:
        return code_strip(self.A, [self.A.random(rng) for _ in range(len(self.B) - 1)])


# ---------------------------------------------------------------------------
# Resultants over Z on int lists
# ---------------------------------------------------------------------------

def integer_resultant(f: list, g: list) -> int:
    """Res(f, g) of nonzero int lists, lowest degree first, with the
    Sylvester convention, by the subresultant PRS: each pseudo-remainder
    divides exactly by lc h^delta of the step before."""
    sign, lc, h = 1, 1, 1
    if len(f) < len(g):
        sign = -1 if (len(f) - 1) & (len(g) - 1) & 1 else 1
        f, g = g, f
    while len(g) > 1:
        df, dg = len(f) - 1, len(g) - 1
        if df & dg & 1:
            sign = -sign
        r = list(f)  # r <- lc(g)^(df - dg + 1) f mod g
        while len(r) > dg:
            c = r.pop()
            r = [g[-1] * a for a in r]
            for k in range(dg):
                r[len(r) - dg + k] -= c * g[k]
        if not code_strip(QQ, r):
            return 0
        f, g = g, [c // (lc * h ** (df - dg)) for c in r]
        lc = f[-1]
        if df > dg:
            h = lc ** (df - dg) // h ** (df - dg - 1)
    return sign * g[0] ** (len(f) - 1) // h ** max(len(f) - 2, 0)


def integer_chart_resultant(f: list, g: list) -> list:
    """Res_t(f, g) in Z[u] of two charts in the Bezout shape of
    ``finitefield.code_chart_resultant``, whose t-coefficients are int
    lists in u: from the integer resultants y_x at u = 0 .. D, by forward
    differences, D! Res(u) = sum_k (D!/k!) Delta^k y_0 u (u - 1) .. (u - k + 1),
    expanded by Horner from k = D down and divided by D! exactly."""
    D = (len(f) - 1) * (len(g) - 1)
    at = lambda P, x: [code_eval(QQ, cs, x) for cs in P]
    ys = [integer_resultant(at(f, x), at(g, x)) for x in range(D + 1)]
    for k in range(1, D + 1):  # ys[k] <- Delta^k y_0
        for x in range(D, k - 1, -1):
            ys[x] -= ys[x - 1]
    acc, scale = [], 1  # scale = D!/k!
    for k in range(D, -1, -1):
        acc = [a - k * b for a, b in zip([0] + acc, acc + [0])]
        acc[0] += scale * ys[k]
        scale *= k or 1
    return code_strip(QQ, [c // scale for c in acc])


# ---------------------------------------------------------------------------
# Ternary forms
# ---------------------------------------------------------------------------

def monomials_of_degree(degree: int) -> list[tuple[int, int, int]]:
    """Exponent triples of total degree, graded-lex descending with x0 > x1 > x2."""
    return list(_monomial_order(degree))


@functools.lru_cache(maxsize=None)
def _monomial_order(degree: int) -> tuple[tuple[int, int, int], ...]:
    """The order of :func:`monomials_of_degree`, sorted once per degree."""
    return tuple(sorted(
        ((i, j, degree - i - j) for i in range(degree + 1) for j in range(degree - i + 1)),
        reverse=True,
    ))


class TernaryForm:
    """Homogeneous polynomial in x0, x1, x2 with exact coefficients."""

    __slots__ = ("degree", "terms")

    def __init__(self, degree: int, terms: dict | None = None):
        self.degree = degree
        self.terms = {}
        if terms:
            for mon, c in terms.items():
                if sum(mon) != degree:
                    raise ValueError(f"monomial {mon} has wrong degree (want {degree})")
                if c:
                    self.terms[mon] = c

    @classmethod
    def from_coefficients(cls, degree: int, coeffs) -> "TernaryForm":
        mons = _monomial_order(degree)
        coeffs = list(coeffs)
        if len(coeffs) != len(mons):
            raise ValueError(f"degree-{degree} form needs {len(mons)} coefficients")
        return cls(degree, dict(zip(mons, coeffs)))

    def coefficients(self, zero=0) -> list:
        return [self.terms.get(m, zero) for m in _monomial_order(self.degree)]

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TernaryForm)
            and self.degree == other.degree
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.degree, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        if not self.terms:
            return f"TernaryForm(deg={self.degree}, 0)"
        parts = [f"({c})*x0^{m[0]}*x1^{m[1]}*x2^{m[2]}" for m, c in sorted(self.terms.items(), reverse=True)]
        return "TernaryForm(" + " + ".join(parts) + ")"

    def __add__(self, other: "TernaryForm") -> "TernaryForm":
        if self.degree != other.degree:
            raise ValueError("cannot add forms of different degrees")
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m)
            s = c if s is None else s + c
            if s:
                out[m] = s
            elif m in out:
                del out[m]
        return TernaryForm(self.degree, out)

    def __neg__(self) -> "TernaryForm":
        return TernaryForm(self.degree, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "TernaryForm") -> "TernaryForm":
        return self + (-other)

    def __mul__(self, other) -> "TernaryForm":
        if not isinstance(other, TernaryForm):
            return self.scale(other)
        out: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = (m1[0] + m2[0], m1[1] + m2[1], m1[2] + m2[2])
                t = c1 * c2
                if m in out:
                    out[m] = out[m] + t
                else:
                    out[m] = t
        return TernaryForm(self.degree + other.degree, out)

    def scale(self, k) -> "TernaryForm":
        return TernaryForm(self.degree, {m: k * c for m, c in self.terms.items()})

    def evaluate(self, point):
        """The value at the point, over the coordinates' ring: one list of
        powers per coordinate, one product per term, and no product by 1."""
        p0, p1, p2 = powers = [[None, x] for x in point]
        for row in powers:
            for _ in range(self.degree - 1):
                row.append(row[-1] * row[1])
        total = None
        for (e0, e1, e2), c in self.terms.items():
            t = c
            if e0:
                t = t * p0[e0]
            if e1:
                t = t * p1[e1]
            if e2:
                t = t * p2[e2]
            total = t if total is None else total + t
        return p0[1] * 0 if total is None else total

    def partial(self, var: int) -> "TernaryForm":
        """Formal partial derivative with respect to x_var (degree drops by 1)."""
        out = {}
        for m, c in self.terms.items():
            e = m[var]
            if e == 0:
                continue
            mm = list(m)
            mm[var] = e - 1
            d = c * e
            if d:
                out[tuple(mm)] = d
        return TernaryForm(max(self.degree - 1, 0), out)


class FormModP(TernaryForm):
    """A form over a finite field of characteristic p: the coefficients of
    an integer form reduced to ints in [0, p), which are the codes of F_p
    in every F_(p^n), and the field itself, which equality and hashing
    read, so that reductions mod different primes never compare equal.
    Sums, differences, products, scalings and partials stay reduced forms
    over the same field.  ``lift``, outside equality and hashing, is the
    integer form reduced, whose elimination over Z ``badred`` reads; None
    for a reduction of a ``FormModP`` and for the forms derived from one."""

    __slots__ = ("field", "lift")

    def __init__(self, form: TernaryForm, field):
        p = field.characteristic
        super().__init__(form.degree, {m: c % p for m, c in form.terms.items()})
        self.field = field
        self.lift = None if isinstance(form, FormModP) else form

    def _over_field(self, form: TernaryForm, other=None) -> "FormModP":
        if isinstance(other, FormModP) and other.field is not self.field:
            raise ValueError("the forms lie over different fields")
        out = FormModP(form, self.field)
        out.lift = None
        return out

    def __add__(self, other: TernaryForm) -> "FormModP":
        return self._over_field(super().__add__(other), other)

    def __neg__(self) -> "FormModP":
        return self._over_field(super().__neg__())

    def __mul__(self, other) -> "FormModP":
        return self._over_field(super().__mul__(other), other)

    def scale(self, k) -> "FormModP":
        return self._over_field(super().scale(k))

    def partial(self, var: int) -> "FormModP":
        return self._over_field(super().partial(var))

    def __eq__(self, other) -> bool:
        return isinstance(other, FormModP) and self.field is other.field and super().__eq__(other)

    def __hash__(self):
        return hash((self.field, super().__hash__()))
