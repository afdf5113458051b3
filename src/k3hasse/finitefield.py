"""Arithmetic in F_p and F_{p^n}: elements, Frobenius orbits, and
factorization of univariate polynomials into irreducibles.

Fields are immutable and cached; elements are lightweight wrappers so the
generic polynomial code in :mod:`k3hasse.poly` works over them unchanged.
A field and its tables are built on int codes, with no element arithmetic.
Small fields (order <= 2^20) carry numpy discrete-log and Zech-logarithm
tables; the point-counting kernel works on those raw arrays directly, in the
log domain.  The same tables, as lists (``LogArith``), are the arithmetic
``evaluation_arith`` gives the elimination of :mod:`k3hasse.badred` on small
fields, with ``code_chart_resultant``.  ``irreducible_factors`` factors
code lists over any field in the interface of ``poly.ModP``, such as the
residue fields of the node locator.
"""

from __future__ import annotations

import functools
import random
from functools import cached_property

import numpy as np

from .arith import probable_prime, strip_small_factors
from .poly import (
    ModP,
    Residues,
    UniPoly,
    code_divmod,
    code_eval,
    code_gcd,
    code_interpolate,
    code_rem,
    code_resultant,
    code_sub,
    poly_gcdex,
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

    @cached_property
    def tables(self) -> "FieldTables":
        if self.order > TABLE_LIMIT:
            raise ValueError(f"field of order {self.order} exceeds the table limit")
        if self.degree > 1 and not isinstance(self.base, PrimeField):
            raise ValueError("tables require a prime base field")
        return FieldTables(self)

    @cached_property
    def log_arith(self) -> "LogArith":
        return LogArith(self.tables)

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


class FieldTables:
    """Discrete-log, Zech-log, Frobenius and exact-degree tables for a small
    field whose elements are int-encoded by their base-p digits.

    With m = q - 1 and a generator g, ``log[x]`` is the discrete log of x != 0
    and ``log[0] = zero``, a sentinel past any sum of three logs and any
    Zech index of ``vadd`` (``zero = 3m - 2``, or 2 in F_2).  For k < zero,
    ``exp[k] = g^k`` and ``zech[k] = log(1 + g^k)``, the Zech logarithm, which
    is the sentinel where 1 + g^k = 0; ``exp[zero] = 0`` and
    ``zech[zero] = 0``.  Lookups use ``take(..., mode="clip")``, so any index
    past the sentinel reads those last entries: a product with a factor 0 is
    0 and 0 + c is c, and no operation branches on zero.
    """

    def __init__(self, field: FiniteField):
        p, q, n = field.characteristic, field.order, field.degree
        m = q - 1
        self.field = field
        self.p, self.q, self.n = p, q, n
        self.zero = zero = max(3 * m - 2, 2 * m)
        mod = [c.val for c in field.modulus.coeffs]
        self.generator = gen = _find_generator(p, mod)
        powers = _powers(p, mod, gen, m)
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
        self.m, self.p = m, tables.p
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

    def from_int(self, n: int) -> int:
        return self.log[n % self.p]


def _digits(k: int, p: int, n: int) -> list[int]:
    """The n base-p digits of the code k, lowest first."""
    return [k // p**i % p for i in range(n)]


def _mulmod(f: list, g: list, mod: list, p: int) -> list:
    """f g modulo the monic mod over F_p, on coefficient lists of length
    deg mod, with one reduction mod p per coefficient."""
    n = len(mod) - 1
    out = [0] * (2 * n - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    for i in range(2 * n - 2, n - 1, -1):
        c = out[i] % p
        if c:
            for j in range(n):
                out[i - n + j] -= c * mod[j]
    return [c % p for c in out[:n]]


def _powmod(f: list, e: int, mod: list, p: int) -> list:
    """f^e modulo mod, e >= 1, by square-and-multiply from the top bit;
    plain pow in F_p itself."""
    if len(f) == 1:
        return [pow(f[0], e, p)]
    out = f
    for bit in bin(e)[3:]:
        out = _mulmod(out, out, mod, p)
        if bit == "1":
            out = _mulmod(out, f, mod, p)
    return out


def _powers(p: int, mod: list, g: int, count: int) -> np.ndarray:
    """Codes of g^0 .. g^(count-1) in F_p[t]/(mod).  Each doubling step
    multiplies the block found so far by the next power h = g^k, a linear map
    on base-p digit vectors whose matrix has the digits of t^i h as rows."""
    n = len(mod) - 1
    weights = p ** np.arange(n)
    digits = np.zeros((count, n), dtype=np.int64)
    digits[0, 0] = 1
    k, h = 1, _digits(g, p, n)
    while k < count:
        # t^i has the code p^i
        rows = [_mulmod(h, _digits(p**i, p, n), mod, p) for i in range(n)]
        block = digits[k : 2 * k]
        np.matmul(digits[: len(block)], np.array(rows, dtype=np.int64), out=block)
        block %= p
        k, h = 2 * k, _mulmod(h, h, mod, p)
    return (digits @ weights).astype(np.int32)


def _find_generator(p: int, mod: list) -> int:
    """The least code g generating F_q^*, q = p^(deg mod): g^((q-1)/l) != 1
    for every prime l | q - 1.  The search starts at 1, which generates F_2^*.
    Trial division to 2^20 factors q - 1 completely for a table field."""
    n = len(mod) - 1
    q = p**n
    factors, _ = strip_small_factors(q - 1, bound=TABLE_LIMIT)
    one = _digits(1, p, n)
    for k in range(1, q):
        if all(_powmod(_digits(k, p, n), (q - 1) // l, mod, p) != one for l, _ in factors):
            return k
    raise AssertionError("no generator found")


# ---------------------------------------------------------------------------
# Canonical fields
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def prime_field(p: int) -> PrimeField:
    return PrimeField(p)


def _rabin_irreducible(mod: list, p: int) -> bool:
    """Rabin's test (SIAM J. Comput. 1980): a monic mod of degree n >= 2
    over F_p is irreducible iff t^(p^n) = t modulo it and
    gcd(t^(p^(n/l)) - t, mod) = 1 for every prime l | n."""
    A, n = ModP(p), len(mod) - 1
    frob = [[0, 1] + [0] * (n - 2)]  # t^(p^k) mod mod for k = 0 .. n
    for _ in range(n):
        frob.append(_powmod(frob[-1], p, mod, p))
    return frob[n] == frob[0] and all(
        len(code_gcd(A, code_sub(A, frob[n // l], frob[0]), mod)) == 1
        for l, _ in strip_small_factors(n)[0]
    )


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
    A = ModP(p)
    for k in range(p**n):
        mod = _digits(k, p, n) + [1]
        # for n >= 2 a root proves mod reducible; Horner runs over at most
        # 2^10 points, which is all of F_p for every table field
        rootless = all(code_eval(A, mod, x) for x in range(min(p, 1 << 10)))
        if rootless and _rabin_irreducible(mod, p):
            return ExtensionField(base, UniPoly([base.decode(c) for c in mod]))
    raise AssertionError("no irreducible modulus found")


# ---------------------------------------------------------------------------
# Factoring machinery over finite fields
# ---------------------------------------------------------------------------

def irreducible_factors(A, g: list) -> list[tuple[list, int]]:
    """The monic irreducible factors of a monic coded g, with
    multiplicities, over a field A of odd order q = p^n in the interface of
    ``poly.ModP``, which gives p and n as ``characteristic`` and ``degree``;
    powers mod g are taken in ``poly.Residues``.  Distinct-degree splitting
    takes N = gcd(g, t^(q^d) - t) for d = 1, 2, ..: once the factors of lower
    degree are stripped from g with all their multiplicity, N is the product
    of g's distinct irreducible factors of degree d, so no squarefree
    decomposition is needed.  Cantor-Zassenhaus splits each N."""
    p, n = A.characteristic, A.degree
    if p == 2:
        raise ValueError("Cantor-Zassenhaus needs a field of odd order")
    x, d, out = [A.zero, A.one], 0, []
    h = x
    while len(g) > 2 * d + 2:
        d += 1
        h = Residues(A, g).pow(h, p**n)
        N = code_gcd(A, code_sub(A, h, x), g)
        if len(N) == 1:
            continue
        for irr in _equal_degree_factors(A, p, n, N, d):
            m = 0
            while not (qr := code_divmod(A, g, irr))[1]:
                g, m = qr[0], m + 1
            out.append((irr, m))
        h = code_rem(A, h, g)
    if len(g) > 1:
        out.append((g, 1))
    return out


def _equal_degree_factors(A, p: int, n: int, g: list, d: int, rng=None) -> list[list]:
    """Cantor-Zassenhaus split of a monic squarefree g all of whose
    irreducible factors have degree d: gcd(r^((q^d - 1)/2) - 1, g) for random
    r, which needs q odd."""
    if len(g) - 1 == d:
        return [g]
    if rng is None:
        # deterministic per (field, degree) so factor splits reproduce
        rng = random.Random((p % (1 << 30)) * 1009 + n * 31 + len(g) - 1)
    R, e = Residues(A, g), (p ** (n * d) - 1) // 2
    while True:
        r = R.random(rng)
        if len(r) < 2:
            continue
        fac = code_gcd(A, R.sub(R.pow(r, e), R.one), g)
        if 1 < len(fac) < len(g):
            return (_equal_degree_factors(A, p, n, fac, d, rng)
                    + _equal_degree_factors(A, p, n, code_divmod(A, g, fac)[0], d, rng))


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


def evaluation_arith(fld: FiniteField, D: int):
    """(A, code, decode): an arithmetic with more than D elements holding
    fld, ``code`` from fld's int encodings to codes and ``decode`` back.  A is
    ``ModP(p)`` when fld = F_p and p > D, else fq(p, k).log_arith with k the
    least multiple of [fld : F_p] such that p^k > D, fld embedded through a
    root of its modulus."""
    p = fld.characteristic
    if isinstance(fld, PrimeField) and p > D:
        return ModP(p), int, fld.decode
    k = fld.degree
    while p**k <= D:
        k += fld.degree
    E = fq(p, k)
    images, preimage = _embedding(fld, E)
    return E.log_arith, images.__getitem__, preimage.__getitem__


def evaluation_points(A, D: int) -> range:
    """D + 1 distinct points of an arithmetic A with more than D elements:
    the codes A.zero .. A.zero + D (0 .. D under ``ModP``, 0, g^0, ..,
    g^(D-1) under ``LogArith``)."""
    return range(A.zero, A.zero + D + 1)


def code_chart_resultant(A, f: list, g: list) -> list:
    """Res_t(f, g) in A[u], Sylvester convention, of lists f, g of coded
    u-polynomials, A with more than D = deg_t f * deg_t g elements: a
    univariate Euclid resultant of f(x, t) and g(x, t) at the D + 1
    ``evaluation_points``, then Newton interpolation.

    Bound: when each t-leading coefficient is a nonzero constant and the
    t^k coefficient has u-degree at most deg_t - k (the chart of a form
    regular in the last variable, which regularisation provides), the
    specialisations keep their t-degrees and deg_u Res <= D, the Bezout
    bound."""
    points = evaluation_points(A, (len(f) - 1) * (len(g) - 1))
    values = [
        code_resultant(A, [code_eval(A, c, x) for c in f], [code_eval(A, c, x) for c in g])
        for x in points
    ]
    return code_interpolate(A, points, values)
