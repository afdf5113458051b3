"""Arithmetic in F_p and F_{p^n}: elements, characters, Frobenius orbits,
and factorization of univariate polynomials into irreducibles.

Fields are immutable and cached; elements are lightweight wrappers so the
generic polynomial code in :mod:`k3hasse.poly` works over them unchanged.
Small fields (order <= 2^20) additionally carry numpy discrete-log and
Zech-logarithm tables; the point-counting kernel works on those raw arrays
directly, in the log domain.  The same tables, as lists (``LogArith``),
serve ``resultant_by_evaluation``, the elimination's resultant over F[u].
"""

from __future__ import annotations

import functools
import random
from functools import cached_property

import numpy as np

from .arith import probable_prime, strip_small_factors
from .poly import (
    ModP,
    UniPoly,
    code_eval,
    code_interpolate,
    code_resultant,
    poly_gcd,
    poly_gcdex,
    squarefree_decomposition,
)

TABLE_LIMIT = 2**20


class FFElem:
    """Element of a finite field; payload is an int (prime field) or a
    tuple of base-field elements (extension field)."""

    __slots__ = ("field", "val")

    def __init__(self, field, val):
        self.field = field
        self.val = val

    def __bool__(self):
        return self.field._nonzero(self.val)

    def __eq__(self, other):
        if isinstance(other, FFElem):
            return self.field is other.field and self.val == other.val
        if isinstance(other, int):
            return self == self.field.from_int(other)
        return NotImplemented

    def __hash__(self):
        return hash((id(self.field), self.val))

    def __repr__(self):
        return f"FF({self.field._fmt(self.val)} in GF({self.field.order}))"

    def _coerce(self, other):
        if isinstance(other, FFElem):
            if other.field is not self.field:
                raise TypeError("elements of different fields")
            return other
        if isinstance(other, int):
            return self.field.from_int(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FFElem(self.field, self.field._add(self.val, o.val))

    __radd__ = __add__

    def __neg__(self):
        return FFElem(self.field, self.field._neg(self.val))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FFElem(self.field, self.field._add(self.val, self.field._neg(o.val)))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FFElem(self.field, self.field._mul(self.val, o.val))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FFElem(self.field, self.field._mul(self.val, self.field._inv(o.val)))

    def __rtruediv__(self, other):
        return self.field.from_int(other) / self

    def __pow__(self, e: int):
        if e < 0:
            return (self.field.one / self) ** (-e)
        result = self.field.one
        base = self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result


class FiniteField:
    """Shared behaviour of prime and extension fields."""

    characteristic: int
    degree: int  # absolute degree over F_p
    order: int

    @cached_property
    def zero(self) -> FFElem:
        return self.from_int(0)

    @cached_property
    def one(self) -> FFElem:
        return self.from_int(1)

    def elem(self, val) -> FFElem:
        return FFElem(self, val)

    def frobenius(self, a: FFElem) -> FFElem:
        return a ** self.characteristic

    def element_degree(self, a: FFElem) -> int:
        """Degree over F_p of the subfield generated by a."""
        b = self.frobenius(a)
        e = 1
        while b != a:
            b = self.frobenius(b)
            e += 1
        return e

    def elements(self):
        """Iterate over all field elements (small fields only)."""
        if self.order > TABLE_LIMIT:
            raise ValueError("field too large to enumerate")
        return (self.decode(i) for i in range(self.order))

    @cached_property
    def _embeddings(self) -> dict:
        """Memo of ``_embedding``: evaluation field -> (images, preimage)."""
        return {}


class PrimeField(FiniteField):
    def __init__(self, p: int):
        if p < 2 or not probable_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.characteristic = p
        self.degree = 1
        self.order = p

    def __repr__(self):
        return f"GF({self.p})"

    def from_int(self, k: int) -> FFElem:
        return FFElem(self, k % self.p)

    def random_element(self, rng) -> FFElem:
        return FFElem(self, rng.randrange(self.p))

    @cached_property
    def tables(self) -> "FieldTables":
        if self.order > TABLE_LIMIT:
            raise ValueError(f"field of order {self.order} exceeds the table limit")
        return FieldTables(self)

    @cached_property
    def modulus(self) -> UniPoly:
        return UniPoly([self.zero, self.one])

    def _fmt(self, val):
        return str(val)

    def _nonzero(self, val):
        return val != 0

    def _add(self, a, b):
        return (a + b) % self.p

    def _neg(self, a):
        return -a % self.p

    def _mul(self, a, b):
        return a * b % self.p

    def _inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.p)

    def encode(self, a: FFElem) -> int:
        return a.val

    def decode(self, k: int) -> FFElem:
        return FFElem(self, k % self.p)


class ExtensionField(FiniteField):
    """F_q[t]/(modulus) over an arbitrary base finite field."""

    def __init__(self, base: FiniteField, modulus: UniPoly):
        if modulus.degree < 1:
            raise ValueError("modulus must have positive degree")
        self.base = base
        self.modulus = modulus.monic()
        self.rel_degree = modulus.degree
        self.characteristic = base.characteristic
        self.degree = base.degree * self.rel_degree
        self.order = base.order ** self.rel_degree
        self._modlist = list(self.modulus.coeffs)

    def __repr__(self):
        return f"GF({self.characteristic}^{self.degree})"

    def _pad(self, coeffs) -> tuple:
        n = self.rel_degree
        cs = list(coeffs)[:n]
        cs += [self.base.zero] * (n - len(cs))
        return tuple(cs)

    def from_int(self, k: int) -> FFElem:
        return FFElem(self, self._pad([self.base.from_int(k)]))

    def from_base(self, a: FFElem) -> FFElem:
        return FFElem(self, self._pad([a]))

    def random_element(self, rng) -> FFElem:
        return FFElem(self, tuple(self.base.random_element(rng) for _ in range(self.rel_degree)))

    @cached_property
    def gen(self) -> FFElem:
        """The class of t."""
        return FFElem(self, self._pad([self.base.zero, self.base.one]))

    def _fmt(self, val):
        return "[" + ", ".join(self.base._fmt(c.val) for c in val) + "]"

    def _nonzero(self, val):
        return any(val)

    def _add(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def _neg(self, a):
        return tuple(-x for x in a)

    def _mul(self, a, b):
        n = self.rel_degree
        zero = self.base.zero
        out = [zero] * (2 * n - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        out[i + j] = out[i + j] + x * y
        mod = self._modlist
        for i in range(len(out) - 1, n - 1, -1):
            c = out[i]
            if c:
                for j in range(n):
                    out[i - n + j] = out[i - n + j] - c * mod[j]
                out[i] = zero
        return tuple(out[:n])

    def _inv(self, a):
        poly = UniPoly(a)
        if poly.is_zero():
            raise ZeroDivisionError("inverse of zero")
        return self._pad(poly_gcdex(poly, self.modulus)[1].coeffs)

    def encode(self, a: FFElem) -> int:
        """Base-p digit encoding (prime base fields only)."""
        x = 0
        for c in reversed(a.val):
            x = x * self.base.order + self.base.encode(c)
        return x

    def decode(self, k: int) -> FFElem:
        digits = []
        for _ in range(self.rel_degree):
            digits.append(self.base.decode(k % self.base.order))
            k //= self.base.order
        return FFElem(self, tuple(digits))

    # -- numpy tables for the counting kernel (prime base, order <= 2^20) ----

    @cached_property
    def tables(self) -> "FieldTables":
        if self.order > TABLE_LIMIT:
            raise ValueError(f"field of order {self.order} exceeds the table limit")
        if not isinstance(self.base, PrimeField):
            raise ValueError("tables require a prime base field")
        return FieldTables(self)

    @cached_property
    def log_arith(self) -> "LogArith":
        return LogArith(self.tables)


class FieldTables:
    """Discrete-log, Zech-log, Frobenius and exact-degree tables for a small
    field whose elements are int-encoded by their base-p digits.

    With m = q - 1 and a generator g, ``log[x]`` is the discrete log of x != 0
    and ``log[0] = zero``, a sentinel past any sum of three logs
    (``zero = 3m - 2``).  For k < zero, ``exp[k] = g^k`` and
    ``zech[k] = log(1 + g^k)``, the Zech logarithm, which is the sentinel where
    1 + g^k = 0; ``exp[zero] = 0`` and ``zech[zero] = 0``.  Lookups use
    ``take(..., mode="clip")``, so any index past the sentinel reads those
    last entries: a product with a factor 0 is 0 and 0 + c is c, and no
    operation branches on zero.
    """

    def __init__(self, field: FiniteField):
        p = field.characteristic
        q = field.order
        n = field.degree
        m = q - 1
        self.field = field
        self.p, self.q, self.n = p, q, n
        self.zero = zero = 3 * m - 2
        gen = _find_generator(field)
        self.generator = gen
        powers = _powers(field, gen, m)
        log = np.empty(q, dtype=np.int32)
        log[powers] = np.arange(m)
        log[0] = zero
        self.log = log
        self.exp = np.resize(powers, zero + 1)
        self.exp[zero] = 0
        # x + 1 adds 1 to the lowest base-p digit of x
        ar = np.arange(q)
        plus_one = ar - ar % p + (ar + 1) % p
        self.zech = log[plus_one[self.exp]]
        frob = np.zeros(q, dtype=np.int64)
        frob[powers] = powers[np.arange(m) * p % m]
        self.frob = frob
        deg = np.zeros(q, dtype=np.int64)
        cur_map = frob.copy()
        remaining = np.ones(q, dtype=bool)
        for e in range(1, n + 1):
            fixed = (cur_map == ar) & remaining
            deg[fixed] = e
            remaining &= ~fixed
            cur_map = frob[cur_map]
        if remaining.any():
            raise AssertionError("Frobenius orbit computation failed")
        self.deg = deg

    def vmul(self, u, v):
        return self.exp.take(self.log[u] + self.log[v], mode="clip")

    def vadd(self, u, v):
        """u + v = u (1 + v/u), with u the operand of smaller log, so that a
        zero operand is v; adding q - 1 to the Zech index keeps it past the
        sentinel when v is 0."""
        lu, lv = self.log[u], self.log[v]
        lo = np.minimum(lu, lv)
        ratio = np.maximum(lu, lv) - lo + (self.q - 1)
        return self.exp.take(lo + self.zech.take(ratio, mode="clip"), mode="clip")

    def orbit_reps(self):
        """(representative, orbit size) for the Frobenius orbits, the
        representative being the minimal int encoding in its orbit."""
        q = self.q
        ar = np.arange(q)
        orbmin = ar.copy()
        cur = self.frob.copy()
        for _ in range(self.n):
            orbmin = np.minimum(orbmin, cur)
            cur = self.frob[cur]
        reps = np.nonzero(orbmin == ar)[0]
        return [(int(r), int(self.deg[r])) for r in reps]


class LogArith:
    """A small field on discrete logs, in the interface of ``poly.ModP``: a
    nonzero x is coded by k in [0, q - 1) with x = g^k, and 0 by -1.
    Multiplication adds logs; x + y = x (1 + y/x) reads the Zech logarithm
    ``zech[k] = log(1 + g^k)``.  The lists are ``FieldTables``' arrays
    converted once, with their zero sentinel mapped to -1."""

    def __init__(self, tables: FieldTables):
        m = tables.q - 1
        self.m = m
        # -1 = g^(m/2) in odd characteristic
        self.half = m // 2 if tables.p % 2 else 0
        self.zero, self.one = -1, 0
        self.log = [k if k < m else -1 for k in tables.log.tolist()]
        self.zech = [k if k < m else -1 for k in tables.zech[:m].tolist()]

    def add(self, a: int, b: int) -> int:
        if a < 0:
            return b
        if b < 0:
            return a
        z = self.zech[(b - a) % self.m]
        return -1 if z < 0 else (a + z) % self.m

    def neg(self, a: int) -> int:
        return a if a < 0 else (a + self.half) % self.m

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        return -1 if a < 0 or b < 0 else (a + b) % self.m

    def inv(self, a: int) -> int:
        if a < 0:
            raise ZeroDivisionError("inverse of zero")
        return -a % self.m

    def pow(self, a: int, e: int) -> int:
        if e == 0:
            return 0
        return -1 if a < 0 else a * e % self.m


def _powers(field: FiniteField, g: FFElem, count: int) -> np.ndarray:
    """Encodings of g^0 .. g^(count-1).  Each doubling step multiplies the
    block found so far by the next power g^k, a linear map on base-p digit
    vectors whose matrix has the digits of t^i g^k as rows."""
    p, n = field.characteristic, field.degree
    weights = p ** np.arange(n)
    digits = np.zeros((count, n), dtype=np.int64)
    digits[0, 0] = 1
    k, h = 1, g
    while k < count:
        rows = np.array([field.encode(field.decode(int(w)) * h) for w in weights])
        block = digits[k : 2 * k]
        np.matmul(digits[: len(block)], rows[:, None] // weights % p, out=block)
        block %= p
        k, h = 2 * k, h * h
    return (digits @ weights).astype(np.int32)


def _find_generator(field: ExtensionField) -> FFElem:
    q = field.order
    factors, cofactor = strip_small_factors(q - 1, bound=1 << 20)
    if cofactor != 1:
        raise ValueError("cannot factor group order")
    primes = [f for f, _ in factors]
    for k in range(2, q):
        g = field.decode(k)
        if not g:
            continue
        if all((g ** ((q - 1) // l)) != field.one for l in primes):
            return g
    raise AssertionError("no generator found")


# ---------------------------------------------------------------------------
# Canonical fields
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def prime_field(p: int) -> PrimeField:
    return PrimeField(p)


def is_irreducible(f: UniPoly, field: FiniteField) -> bool:
    """Rabin irreducibility test over the coefficient field."""
    n = f.degree
    if n < 1:
        return False
    if n == 1:
        return True
    q = field.order
    x = UniPoly([field.zero, field.one])
    xq = x
    for _ in range(n):
        xq = xq.powmod(q, f)
    if xq != x % f:
        return False
    for l in sorted({l for l, _ in strip_small_factors(n)[0]}):
        e = n // l
        xe = x
        for _ in range(e):
            xe = xe.powmod(q, f)
        if poly_gcd(xe - x, f).degree != 0:
            return False
    return True


@functools.lru_cache(maxsize=None)
def fq(p: int, n: int) -> FiniteField:
    """The canonical field with p^n elements.

    The modulus is the first monic irreducible of degree n in the enumeration
    of coefficient vectors (c_0, ..., c_{n-1}) as base-p digits, so fields are
    reproducible across runs.
    """
    if n < 1:
        raise ValueError("extension degree must be >= 1")
    base = prime_field(p)
    if n == 1:
        return base
    for k in range(p**n):
        digits = []
        kk = k
        for _ in range(n):
            digits.append(base.from_int(kk % p))
            kk //= p
        cand = UniPoly(digits + [base.one])
        if cand.degree == n and is_irreducible(cand, base):
            return ExtensionField(base, cand)
    raise AssertionError("no irreducible modulus found")


def quadratic_character(a: FFElem) -> int:
    """0 for zero, +1 for nonzero squares, -1 for nonsquares (odd q)."""
    field = a.field
    if field.characteristic == 2:
        raise ValueError("quadratic character needs odd characteristic")
    if not a:
        return 0
    return 1 if a ** ((field.order - 1) // 2) == field.one else -1


# ---------------------------------------------------------------------------
# Factoring machinery over finite fields
# ---------------------------------------------------------------------------

def distinct_degree_factorization(g: UniPoly, field: FiniteField) -> list[tuple[UniPoly, int]]:
    """Split a monic squarefree g into (product of its irreducible factors of
    degree d, d) pairs."""
    out = []
    rem = g.monic()
    q = field.order
    x = UniPoly([field.zero, field.one])
    h = x % rem
    d = 0
    while rem.degree > 0 and rem.degree > 2 * d:
        d += 1
        h = h.powmod(q, rem)
        fac = poly_gcd(h - x, rem)
        if fac.degree > 0:
            out.append((fac, d))
            rem = rem.exact_div(fac)
            h = h % rem
    if rem.degree > 0:
        out.append((rem, rem.degree))
    return out


def equal_degree_factorization(g: UniPoly, d: int, field: FiniteField, rng=None) -> list[UniPoly]:
    """Cantor-Zassenhaus split of a monic squarefree g all of whose irreducible
    factors have degree d (odd characteristic)."""
    if g.degree == d:
        return [g.monic()]
    if rng is None:
        # deterministic per (field, degree profile) so factor splits reproduce
        rng = random.Random((field.characteristic % (1 << 30)) * 1009 + field.degree * 31 + g.degree)
    q = field.order
    e = (q**d - 1) // 2
    while True:
        r = UniPoly([field.random_element(rng) for _ in range(g.degree)])
        if r.degree < 1:
            continue
        s = r.powmod(e, g) - UniPoly.const(field.one)
        fac = poly_gcd(s, g)
        if 0 < fac.degree < g.degree:
            return (equal_degree_factorization(fac, d, field, rng)
                    + equal_degree_factorization(g.exact_div(fac), d, field, rng))


def irreducible_factors(g: UniPoly, field: FiniteField) -> list[tuple[UniPoly, int]]:
    """Monic irreducible factors with multiplicities."""
    out = []
    for sqfree, mult in squarefree_decomposition(g):
        for fac, d in distinct_degree_factorization(sqfree, field):
            for irr in equal_degree_factorization(fac, d, field):
                out.append((irr, mult))
    return out


# ---------------------------------------------------------------------------
# Resultants over F[u] by evaluation and interpolation
# ---------------------------------------------------------------------------

def _embedding(fld: FiniteField, E: ExtensionField) -> tuple[list[int], dict]:
    """The log in E of every element of fld, indexed by its code, and the
    element of fld behind each image.  A prime field maps a to the element
    with code a; an extension maps its generator to a root in E of its
    modulus.  Memoised on fld."""
    if E not in fld._embeddings:
        A = E.log_arith
        if fld is E:
            images = A.log
        elif isinstance(fld, PrimeField):
            images = A.log[: fld.p]
        else:
            base_images = _embedding(fld.base, E)[0]
            mu = [base_images[fld.base.encode(c)] for c in fld.modulus.coeffs]
            # codes -1 .. m - 1 are every element of E
            root = next(x for x in range(-1, A.m) if code_eval(A, mu, x) == A.zero)
            b, images = fld.base.order, []
            for code in range(fld.order):
                digits, rest = [], code
                for _ in range(fld.rel_degree):
                    digits.append(base_images[rest % b])
                    rest //= b
                images.append(code_eval(A, digits, root))
        fld._embeddings[E] = images, {img: fld.decode(code) for code, img in enumerate(images)}
    return fld._embeddings[E]


def resultant_by_evaluation(f: UniPoly, g: UniPoly) -> UniPoly:
    """Res_t(f, g) in F[u] of t-polynomials f, g over F[u], F a finite
    field, with the Sylvester convention, by evaluation at D + 1 points u0,
    a univariate Euclid resultant of f(u0, t) and g(u0, t) at each, and
    Newton interpolation, all on int codes.

    Bound: when each t-leading coefficient is a nonzero constant and the
    t^k coefficient has u-degree at most deg_t - k (the chart of a form
    regular in the last variable, which regularisation provides), the
    specialisations keep their t-degrees and deg_u Res <= deg_t f * deg_t g =
    D, the Bezout bound.  Other inputs raise ValueError.

    Evaluation field E: F_p itself, on ints mod p, when F = F_p and p > D.
    Otherwise E = fq(p, k) with k the least multiple of [F : F_p] such that
    p^k > D, on discrete logs (``LogArith``), and F embeds in E through a root
    of its modulus; the result lies in the image of F and is mapped back.
    """
    fld = f.lc.lc.field
    for P in (f, g):
        if P.lc.degree != 0 or any(c.degree > P.degree - k for k, c in enumerate(P.coeffs)):
            raise ValueError(
                "the Bezout bound needs a constant t-leading coefficient and "
                "u-degree at most deg_t - k at t^k"
            )
    D = f.degree * g.degree
    p = fld.characteristic
    if isinstance(fld, PrimeField) and p > D:
        A, points = ModP(p), range(D + 1)
        encode = lambda c: c.val
        decode = lambda v: FFElem(fld, v)
    else:
        k = fld.degree
        while p**k <= D:
            k += fld.degree
        E = fq(p, k)
        A, points = E.log_arith, range(-1, D)  # 0, g^0, .., g^(D-1)
        images, preimage = _embedding(fld, E)
        encode = lambda c: images[fld.encode(c)]
        decode = preimage.__getitem__
    fc = [[encode(c) for c in cu.coeffs] for cu in f.coeffs]
    gc = [[encode(c) for c in cu.coeffs] for cu in g.coeffs]
    values = [
        code_resultant(A, [code_eval(A, c, x) for c in fc], [code_eval(A, c, x) for c in gc])
        for x in points
    ]
    return UniPoly([decode(c) for c in code_interpolate(A, points, values)])
