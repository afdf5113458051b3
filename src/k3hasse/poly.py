"""Univariate and trivariate polynomial arithmetic over exact coefficient rings.

Coefficients are duck-typed: Python ints (ring Z), ``fractions.Fraction`` and
finite-field elements all work, as do nested ``UniPoly`` coefficients (used by
the elimination machinery, which treats ternary forms as polynomials in one
variable over polynomials in another).

Hot loops over finite fields run on int codes instead: ``ModP`` (ints mod p)
and the discrete-log arithmetic of ``finitefield`` share one interface, and
``code_resultant``, ``code_interpolate`` and ``code_gcd_degree`` are written
against it.  Over Z, ``resultant`` is the subresultant chain and
``int_poly_gcd`` first tries a coprimality certificate mod 2^61 - 1.

Ternary forms are homogeneous and serialise in graded-lex order with
x0 > x1 > x2; a quadratic form is the 6 coefficients of
[x0^2, x0x1, x0x2, x1^2, x1x2, x2^2], a sextic the analogous 28.
"""

from __future__ import annotations

import math
from typing import Any, Iterable


def _characteristic(c) -> int:
    field = getattr(c, "field", None)
    return field.characteristic if field is not None else 0


def _pth_root_coeff(c):
    """p-th root of a finite-field coefficient (fields here are perfect)."""
    field = getattr(c, "field", None)
    if field is None:
        raise NotImplementedError("p-th roots need a finite-field coefficient")
    return c ** (field.order // field.characteristic)


class UniPoly:
    """Dense univariate polynomial, coefficients lowest-degree first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Any] = ()):
        cs = list(coeffs)
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def const(cls, c) -> "UniPoly":
        return cls((c,))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    @property
    def lc(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __eq__(self, other) -> bool:
        return isinstance(other, UniPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self) -> str:
        if not self.coeffs:
            return "UniPoly(0)"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c:
                terms.append(f"({c})*t^{i}" if i else f"({c})")
        return "UniPoly(" + " + ".join(terms) + ")"

    def __add__(self, other: "UniPoly") -> "UniPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return UniPoly(out)

    def __neg__(self) -> "UniPoly":
        return UniPoly([-c for c in self.coeffs])

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        return self + (-other)

    def __mul__(self, other) -> "UniPoly":
        if not isinstance(other, UniPoly):
            return UniPoly([c * other for c in self.coeffs])
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return UniPoly()
        out = [None] * (len(a) + len(b) - 1)
        for i, c in enumerate(a):
            if not c:
                continue
            for j, d in enumerate(b):
                t = c * d
                out[i + j] = t if out[i + j] is None else out[i + j] + t
        zero = a[0] * 0
        return UniPoly([zero if c is None else c for c in out])

    def __rmul__(self, other) -> "UniPoly":
        return UniPoly([other * c for c in self.coeffs])

    def __pow__(self, e: int) -> "UniPoly":
        if e < 0:
            raise ValueError("negative power")
        if e == 0:
            return UniPoly.const(self.lc ** 0)
        r = self
        out = None
        while e:
            if e & 1:
                out = r if out is None else out * r
            e >>= 1
            if e:
                r = r * r
        return out

    def shift(self, k: int) -> "UniPoly":
        """Multiply by t^k."""
        if not self.coeffs:
            return self
        zero = self.coeffs[0] * 0
        return UniPoly([zero] * k + list(self.coeffs))

    def scale(self, c) -> "UniPoly":
        """Multiply every coefficient by the ring element c.

        Required instead of ``*`` when the coefficients are themselves
        polynomials, where operator dispatch would misread c as a polynomial
        in the outer variable.
        """
        return UniPoly([x * c for x in self.coeffs])

    def evaluate(self, x):
        if not self.coeffs:
            return x * 0
        acc = self.coeffs[-1]
        for c in reversed(self.coeffs[:-1]):
            acc = acc * x + c
        return acc

    def derivative(self) -> "UniPoly":
        return UniPoly([c * i for i, c in enumerate(self.coeffs)][1:])

    def map_coefficients(self, fn) -> "UniPoly":
        return UniPoly([fn(c) for c in self.coeffs])

    def __divmod__(self, other: "UniPoly"):
        """Division with remainder; coefficient division must be exact or a field."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if self.degree < other.degree:
            return UniPoly(), self
        rem = list(self.coeffs)
        lcb = other.lc
        db = other.degree
        quo = [self.coeffs[0] * 0] * (len(rem) - db)
        for k in range(len(rem) - db - 1, -1, -1):
            c = rem[k + db]
            if not c:
                continue
            t = _coeff_div(c, lcb)
            quo[k] = t
            for j, d in enumerate(other.coeffs):
                rem[k + j] = rem[k + j] - t * d
        return UniPoly(quo), UniPoly(rem[:db])

    def __floordiv__(self, other: "UniPoly") -> "UniPoly":
        return divmod(self, other)[0]

    def __mod__(self, other: "UniPoly") -> "UniPoly":
        return divmod(self, other)[1]

    def exact_div(self, other: "UniPoly") -> "UniPoly":
        q, r = divmod(self, other)
        if not r.is_zero():
            raise ValueError("inexact polynomial division")
        return q

    __truediv__ = exact_div

    def monic(self) -> "UniPoly":
        if self.is_zero():
            return self
        inv = _coeff_div(self.lc ** 0, self.lc)
        return UniPoly([c * inv for c in self.coeffs])

    def powmod(self, e: int, modulus: "UniPoly") -> "UniPoly":
        r = UniPoly.const(self.lc ** 0) if not self.is_zero() else UniPoly()
        base = self % modulus
        while e:
            if e & 1:
                r = (r * base) % modulus
            e >>= 1
            if e:
                base = (base * base) % modulus
        return r


def _coeff_div(a, b):
    """a / b in the coefficient ring; exact for ints, true division otherwise."""
    if isinstance(a, int) and isinstance(b, int):
        q, r = divmod(a, b)
        if r:
            raise ValueError(f"inexact integer division {a} / {b}")
        return q
    return a / b


def poly_gcd(f: UniPoly, g: UniPoly) -> UniPoly:
    """Monic gcd over a field."""
    while not g.is_zero():
        f, g = g, f % g
    return f.monic() if not f.is_zero() else f


def poly_gcdex(a: UniPoly, b: UniPoly) -> tuple[UniPoly, UniPoly]:
    """Monic gcd d of a and a nonzero b over a field, with a cofactor s such
    that s*a = d mod b; for deg a < deg b, deg s < deg b, so s = a^-1 mod b
    when d = 1."""
    r0, r1 = b, a
    s0, s1 = UniPoly(), UniPoly.const(b.lc ** 0)
    while not r1.is_zero():
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
    inv_lc = b.lc ** 0 / r0.lc
    return r0 * inv_lc, s0 * inv_lc


def _int_content(f: UniPoly) -> int:
    c = 0
    for x in f.coeffs:
        c = math.gcd(c, x)
    return c or 1


def _int_primitive(f: UniPoly) -> UniPoly:
    c = _int_content(f)
    if f.coeffs and f.lc < 0:
        c = -c
    return UniPoly([x // c for x in f.coeffs])


#: the prime of the modular coprimality certificate in ``int_poly_gcd``
GCD_CERTIFICATE_PRIME = (1 << 61) - 1


def int_poly_gcd(f: UniPoly, g: UniPoly) -> UniPoly:
    """Primitive gcd of integer polynomials, times the gcd of the contents.

    First a certificate mod the prime P = 2^61 - 1: when P divides neither
    leading coefficient, the primitive gcd h over Z keeps its degree mod P
    and divides both reductions, so a gcd of degree 0 mod P proves h = 1 and
    the answer is the content gcd, exactly.  Otherwise the subresultant
    remainder sequence runs (coefficient growth stays polynomial, unlike
    naive rational Euclid on big-coefficient inputs)."""
    if f.is_zero():
        return _int_primitive(g)
    if g.is_zero():
        return _int_primitive(f)
    cont = math.gcd(_int_content(f), _int_content(g))
    P = GCD_CERTIFICATE_PRIME
    if f.lc % P and g.lc % P:
        A = ModP(P)
        if code_gcd_degree(A, [c % P for c in f.coeffs], [c % P for c in g.coeffs]) == 0:
            return UniPoly([cont])
    f, g = _int_primitive(f), _int_primitive(g)
    if f.degree < g.degree:
        f, g = g, f
    h = 1
    gg = 1
    while True:
        d = f.degree - g.degree
        rem = _pseudo_rem(f, g)
        if rem.is_zero():
            break
        f = g
        denom = gg * h**d
        g = UniPoly([c // denom for c in rem.coeffs])
        gg = f.lc
        if d > 0:
            h = gg**d // h ** (d - 1) if d > 1 else gg**d
        if g.degree == 0:
            return UniPoly([cont])
    return _int_primitive(g).scale(cont)


def _pseudo_rem(a: UniPoly, b: UniPoly) -> UniPoly:
    """prem(a, b) = remainder of lc(b)^(deg a - deg b + 1) * a by b."""
    d = a.degree - b.degree
    lcb = b.lc
    rem = a
    for _ in range(d + 1):
        if rem.degree < b.degree:
            rem = rem.scale(lcb)
            continue
        k = rem.degree - b.degree
        rem = rem.scale(lcb) - b.shift(k).scale(rem.lc)
    return rem


def resultant(f: UniPoly, g: UniPoly):
    """Resultant with the Sylvester-determinant convention.

    Computed by the subresultant algorithm, so integer (and nested-polynomial)
    coefficients stay fraction-free.  The elimination uses it over Z; over a
    finite field it uses ``finitefield.resultant_by_evaluation``, which the
    tests compare with this one.
    """
    if f.is_zero() or g.is_zero():
        raise ValueError("resultant of the zero polynomial")
    one = f.lc ** 0
    sign = one
    if f.degree < g.degree:
        if f.degree % 2 and g.degree % 2:
            sign = -sign
        f, g = g, f
    if g.degree == 0:
        return sign * g.lc ** f.degree
    h = one
    gg = one
    while True:
        d = f.degree - g.degree
        if f.degree % 2 and g.degree % 2:
            sign = -sign
        rem = _pseudo_rem(f, g)
        f = g
        denom = gg * h ** d
        g = UniPoly([_coeff_div(c, denom) for c in rem.coeffs])
        gg = f.lc
        if d > 0:
            # h <- gg^d / h^(d-1), exact in the coefficient domain
            num = gg ** d
            h = _coeff_div(num, h ** (d - 1)) if d > 1 else num
        if g.is_zero():
            return sign * (f.lc * 0)
        if g.degree == 0:
            # res = sign * lc(g)^deg(f) / h^(deg(f)-1)
            num = g.lc ** f.degree
            if f.degree > 1:
                return sign * _coeff_div(num, h ** (f.degree - 1))
            return sign * num


# ---------------------------------------------------------------------------
# Univariate arithmetic on int codes
# ---------------------------------------------------------------------------
#
# The routines below work on lists of field elements coded as plain ints,
# lowest degree first, with a nonzero last entry (the empty list is 0).  The
# field is an arithmetic object with the interface of ModP: ``zero``, ``one``,
# ``add``, ``sub``, ``neg``, ``mul``, ``inv`` and ``pow`` on codes.

class ModP:
    """F_p on the ints 0 .. p - 1."""

    def __init__(self, p: int):
        self.p = p
        self.zero, self.one = 0, 1

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


def code_eval(A, cs: list, x):
    """The value of a coded polynomial at the coded point x (Horner)."""
    add, mul = A.add, A.mul
    acc = A.zero
    for c in reversed(cs):
        acc = add(mul(acc, x), c)
    return acc


def code_rem(A, f: list, g: list) -> list:
    """The remainder of f by a nonzero g."""
    sub, mul, zero = A.sub, A.mul, A.zero
    r = list(f)
    dg = len(g) - 1
    inv = A.inv(g[-1])
    for i in range(len(r) - 1, dg - 1, -1):
        c = r.pop()
        if c == zero:
            continue
        q = mul(c, inv)
        for j in range(dg):
            r[i - dg + j] = sub(r[i - dg + j], mul(q, g[j]))
    while r and r[-1] == zero:
        r.pop()
    return r


def code_gcd_degree(A, f: list, g: list) -> int:
    """The degree of gcd(f, g) for f nonzero (Euclid)."""
    while g:
        f, g = g, code_rem(A, f, g)
    return len(f) - 1


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


def code_interpolate(A, xs, ys) -> list:
    """The polynomial of degree < len(xs) through the points (x, y), x
    distinct, in Newton's incremental form (one inversion per point), then
    expanded to coefficients."""
    add, sub, mul = A.add, A.sub, A.mul
    xs = list(xs)
    newton = []
    for k, (x, y) in enumerate(zip(xs, ys)):
        value, weight = A.zero, A.one
        for j in range(k):
            value = add(value, mul(newton[j], weight))
            weight = mul(weight, sub(x, xs[j]))
        newton.append(mul(sub(y, value), A.inv(weight)))
    cs: list = []
    for k in range(len(newton) - 1, -1, -1):
        # cs <- cs * (u - x_k) + newton[k]
        minus_x = A.neg(xs[k])
        cs = [A.zero] + cs
        for j in range(len(cs) - 1):
            cs[j] = add(cs[j], mul(minus_x, cs[j + 1]))
        cs[0] = add(cs[0], newton[k])
    while cs and cs[-1] == A.zero:
        cs.pop()
    return cs


def squarefree_decomposition(g: UniPoly) -> list[tuple[UniPoly, int]]:
    """Factor g into pairwise-coprime monic squarefree parts with multiplicities.

    Works in characteristic 0 (Yun) and odd characteristic p, where a vanishing
    derivative triggers descent through p-th roots of the coefficients.
    """
    if g.is_zero():
        raise ValueError("squarefree decomposition of zero")
    g = g.monic()
    if g.degree == 0:
        return []
    p = _characteristic(g.lc)
    if p == 0:
        return _squarefree_char0(g)
    return _squarefree_charp(g, p)


def _squarefree_char0(g: UniPoly) -> list[tuple[UniPoly, int]]:
    d = g.derivative()
    c = poly_gcd(g, d)
    w = g.exact_div(c)
    y = d.exact_div(c) - w.derivative()
    out = []
    i = 1
    while w.degree > 0:
        fac = poly_gcd(w, y)
        if fac.degree > 0:
            out.append((fac, i))
        w = w.exact_div(fac)
        y = y.exact_div(fac) - w.derivative()
        i += 1
    return out


def _pth_root_poly(g: UniPoly, p: int) -> UniPoly:
    coeffs = []
    for i, c in enumerate(g.coeffs):
        if i % p == 0:
            coeffs.append(_pth_root_coeff(c))
        elif c:
            raise ValueError("polynomial is not a p-th power")
    return UniPoly(coeffs)


def _squarefree_charp(g: UniPoly, p: int) -> list[tuple[UniPoly, int]]:
    d = g.derivative()
    if d.is_zero():
        sub = squarefree_decomposition(_pth_root_poly(g, p))
        return [(f, m * p) for f, m in sub]
    out = []
    c = poly_gcd(g, d)
    w = g.exact_div(c)
    i = 1
    while w.degree > 0:
        y = poly_gcd(w, c)
        fac = w.exact_div(y)
        if fac.degree > 0:
            out.append((fac, i))
        w = y
        c = c.exact_div(y)
        i += 1
    if c.degree > 0:
        sub = squarefree_decomposition(_pth_root_poly(c, p))
        out.extend((f, m * p) for f, m in sub)
    return out


def squarefree_part(g: UniPoly) -> UniPoly:
    out = UniPoly.const(g.lc ** 0)
    for fac, _ in squarefree_decomposition(g):
        out = out * fac
    return out


# ---------------------------------------------------------------------------
# Ternary forms
# ---------------------------------------------------------------------------

def monomials_of_degree(degree: int) -> list[tuple[int, int, int]]:
    """Exponent triples of total degree, graded-lex descending with x0 > x1 > x2."""
    return sorted(
        ((i, j, degree - i - j) for i in range(degree + 1) for j in range(degree - i + 1)),
        reverse=True,
    )


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
        mons = monomials_of_degree(degree)
        coeffs = list(coeffs)
        if len(coeffs) != len(mons):
            raise ValueError(f"degree-{degree} form needs {len(mons)} coefficients")
        return cls(degree, dict(zip(mons, coeffs)))

    def coefficients(self, zero=0) -> list:
        return [self.terms.get(m, zero) for m in monomials_of_degree(self.degree)]

    def coefficient(self, mon: tuple[int, int, int], zero=0):
        return self.terms.get(mon, zero)

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
        return hash((self.degree, tuple(sorted(self.terms.items(), key=lambda kv: kv[0]))))

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
        x0, x1, x2 = point
        total = None
        for (e0, e1, e2), c in self.terms.items():
            t = c
            for e, x in ((e0, x0), (e1, x1), (e2, x2)):
                for _ in range(e):
                    t = t * x
            total = t if total is None else total + t
        if total is None:
            return x0 * 0
        return total

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

    def map_coefficients(self, fn) -> "TernaryForm":
        return TernaryForm(self.degree, {m: fn(c) for m, c in self.terms.items()})

    def compose_linear(self, matrix) -> "TernaryForm":
        """Substitute x_i -> sum_j matrix[i][j] * y_j."""
        rows = [
            TernaryForm(1, {(1, 0, 0): matrix[i][0], (0, 1, 0): matrix[i][1], (0, 0, 1): matrix[i][2]})
            for i in range(3)
        ]
        total = None
        for (e0, e1, e2), c in self.terms.items():
            term = None
            for e, row in ((e0, rows[0]), (e1, rows[1]), (e2, rows[2])):
                for _ in range(e):
                    term = row if term is None else term * row
            if term is None:
                term = TernaryForm(0, {(0, 0, 0): c ** 0})
            term = term.scale(c)
            if term.degree != self.degree:
                # pad degree for constant-only products (cannot happen for forms
                # of positive degree, guarded for completeness)
                raise ValueError("degenerate substitution")
            total = term if total is None else total + term
        if total is None:
            return TernaryForm(self.degree)
        return total

    def to_uni_in(self, var: int, sub: dict) -> UniPoly:
        """Specialise all variables but x_var via ``sub`` and return a
        univariate polynomial in x_var."""
        maxdeg = self.degree
        buckets: list = [None] * (maxdeg + 1)
        for m, c in self.terms.items():
            t = c
            for j in range(3):
                if j == var:
                    continue
                for _ in range(m[j]):
                    t = t * sub[j]
            k = m[var]
            buckets[k] = t if buckets[k] is None else buckets[k] + t
        zero = None
        for b in buckets:
            if b is not None:
                zero = b * 0
                break
        if zero is None:
            return UniPoly()
        return UniPoly([zero if b is None else b for b in buckets])


class ProjLine:
    """A line in the projective plane by dual coordinates (l0, l1, l2),
    normalised so the first nonzero coordinate is 1."""

    __slots__ = ("coords",)

    def __init__(self, l0, l1, l2):
        coords = (l0, l1, l2)
        pivot = None
        for c in coords:
            if c:
                pivot = c
                break
        if pivot is None:
            raise ValueError("line coordinates cannot all vanish")
        inv = _coeff_div(pivot ** 0, pivot)
        self.coords = tuple(c * inv for c in coords)

    def __eq__(self, other) -> bool:
        return isinstance(other, ProjLine) and self.coords == other.coords

    def __hash__(self):
        return hash(self.coords)

    def __repr__(self) -> str:
        return f"ProjLine{self.coords}"


def line_parametrization(line: ProjLine):
    """The fixed degree-1 parametrization [s:t] -> point on the line.

    Returns the pair of substitution triples (point at s=1 as polynomials in t
    is not materialised; instead we give the two basis points P(1,0), P(0,1)).
    For l0 != 0 the map is [-(l1 s + l2 t)/l0 : s : t]; for l0 = 0, l1 != 0 it
    is [s : -l2 t / l1 : t]; for l0 = l1 = 0 it is [s : t : 0].
    """
    l0, l1, l2 = line.coords
    one = (l0 if l0 else (l1 if l1 else l2)) ** 0
    zero = one * 0
    if l0:
        inv = _coeff_div(one, l0)
        ps = (-(l1 * inv), one, zero)
        pt = (-(l2 * inv), zero, one)
    elif l1:
        inv = _coeff_div(one, l1)
        ps = (one, zero, zero)
        pt = (zero, -(l2 * inv), one)
    else:
        ps = (one, zero, zero)
        pt = (zero, one, zero)
    return ps, pt


def restrict_to_line(f: TernaryForm, line: ProjLine) -> tuple[UniPoly, Any]:
    """Restrict a homogeneous form to a line along the fixed parametrization.

    Returns ``(g, at_infinity)`` where g(t) is the dehomogenised restriction at
    s = 1 and ``at_infinity`` is the value at the parameter point [0:1]; the
    pair determines the restricted binary form of degree deg f.
    """
    ps, pt = line_parametrization(line)
    # point(s, t) = s * ps + t * pt; expand f(point(1, t)) as a polynomial in t
    # by substituting x_i -> ps_i + t * pt_i, i.e. a univariate in t per variable.
    subs = [UniPoly([a, b]) for a, b in zip(ps, pt)]
    total = None
    for (e0, e1, e2), c in f.terms.items():
        term = UniPoly.const(c)
        for e, s in ((e0, subs[0]), (e1, subs[1]), (e2, subs[2])):
            for _ in range(e):
                term = term * s
        total = term if total is None else total + term
    if total is None:
        total = UniPoly()
    at_inf = f.evaluate(pt)
    return total, at_inf


# ---------------------------------------------------------------------------
# Bivariate/ternary helpers for the elimination machinery
# ---------------------------------------------------------------------------

def ternary_to_t_over_u(form: TernaryForm, one) -> UniPoly:
    """View g(1, u, t) as a polynomial in t whose coefficients are UniPoly in u.

    ``one`` is the multiplicative unit of the coefficient field.
    """
    zero_u = UniPoly()
    deg_t = max((m[2] for m in form.terms), default=0)
    buckets: list[dict] = [dict() for _ in range(deg_t + 1)]
    for (e0, e1, e2), c in form.terms.items():
        b = buckets[e2]
        b[e1] = b.get(e1, one * 0) + c
    coeffs = []
    for b in buckets:
        if not b:
            coeffs.append(zero_u)
            continue
        n = max(b)
        coeffs.append(UniPoly([b.get(i, one * 0) for i in range(n + 1)]))
    return UniPoly(coeffs)


def bivariate_content_pp(P: UniPoly) -> tuple[UniPoly, UniPoly]:
    """Content (gcd over K[u] of the t-coefficients) and primitive part of a
    t-polynomial with UniPoly coefficients over a field."""
    cont = UniPoly()
    for c in P.coeffs:
        if c.is_zero():
            continue
        cont = poly_gcd(cont, c) if not cont.is_zero() else c.monic()
        if cont.degree == 0:
            break
    if cont.is_zero():
        return cont, P
    pp = UniPoly([c.exact_div(cont) for c in P.coeffs])
    return cont, pp


def bivariate_gcd(P: UniPoly, Q: UniPoly) -> UniPoly:
    """Gcd of polynomials in t with UniPoly-over-a-field coefficients, by the
    primitive polynomial remainder sequence."""
    if P.is_zero():
        return Q
    if Q.is_zero():
        return P
    cp, P = bivariate_content_pp(P)
    cq, Q = bivariate_content_pp(Q)
    cont = poly_gcd(cp, cq)
    if P.degree < Q.degree:
        P, Q = Q, P
    while not Q.is_zero() and Q.degree > 0:
        rem = _pseudo_rem(P, Q)
        if not rem.is_zero():
            _, rem = bivariate_content_pp(rem)
        P, Q = Q, rem
    if Q.is_zero():
        return UniPoly([c * cont for c in P.coeffs])
    # nonzero t-constant remainder: primitive parts are coprime
    return UniPoly([cont])
