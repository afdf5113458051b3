"""Arithmetic in F_p and F_{p^n} on int codes: fields, their discrete-log
tables, and factorization of univariate polynomials into irreducibles.

An element is an int code, the base-p digits of its coefficients in t
(see ``FiniteField``).  Fields are immutable and cached, and a field and its
tables are built on int codes, with no element objects.
Small fields (order <= 2^20) carry numpy discrete-log and Zech-logarithm
tables; the point-counting kernel works on those raw arrays directly, in the
log domain, where its Frobenius orbits are cosets of logs.  The same
tables, as lists (``LogArith``), are the arithmetic ``evaluation_arith``
gives the elimination of :mod:`k3hasse.badred` over a small F_p: one
extension fq(p, k), whose codes 0 .. p - 1 are F_p, with
``code_chart_resultant``.  ``irreducible_factors`` factors
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
    code_divmod,
    code_eval,
    code_gcd,
    code_interpolate,
    code_rem,
    code_resultant,
    code_sub,
)

TABLE_LIMIT = 2**20


class FiniteField:
    """F_q = F_p[t]/(modulus), q = p^n, whose elements are int codes: the
    code of c_0 + c_1 t + .. + c_(n-1) t^(n-1) is sum c_i p^i, so the codes
    0 .. p - 1 are F_p inside every F_(p^n).  ``modulus`` is a monic tuple
    of codes, lowest first (t for F_p).  Build fields with ``prime_field``
    and ``fq``, which cache one field per (p, n); the arithmetic is
    ``poly.ModP``, or the tables and their ``log_arith``, built on first
    use."""

    def __init__(self, p: int, modulus: tuple[int, ...]):
        self.characteristic = p
        self.modulus = modulus
        self.degree = len(modulus) - 1  # over F_p
        self.order = p**self.degree

    def __repr__(self):
        p, n = self.characteristic, self.degree
        return f"GF({p})" if n == 1 else f"GF({p}^{n})"

    @cached_property
    def tables(self) -> "FieldTables":
        if self.order > TABLE_LIMIT:
            raise ValueError(f"field of order {self.order} exceeds the table limit")
        return FieldTables(self)

    @cached_property
    def log_arith(self) -> "LogArith":
        return LogArith(self.tables)


class FieldTables:
    """Discrete-log and Zech-log tables for a small field whose elements are
    int-encoded by their base-p digits; the counting sweep works on them in
    the log domain and never converts back to codes.

    With m = q - 1 and a generator g, ``log[x]`` is the discrete log of x != 0
    and ``log[0] = zero``, a sentinel past any sum of three logs and any
    Zech index of ``log_add`` (``zero = 3m - 2``, or 2 in F_2).  For k < zero,
    ``zech[k] = log(1 + g^k)``, the Zech logarithm, which is the sentinel
    where 1 + g^k = 0, and ``zech[zero] = 0``.  Lookups use
    ``take(..., mode="clip")``, so any index past the sentinel reads that last
    entry: 0 + c is c, and no operation branches on zero.  ``orbit_reps`` and
    ``pair_sweep`` serve the counting sweep of :mod:`k3hasse.picard` and are
    built on its first use of the field.
    """

    def __init__(self, field: FiniteField):
        p, q, n = field.characteristic, field.order, field.degree
        m = q - 1
        self.field = field
        self.p, self.q, self.n = p, q, n
        self.zero = zero = max(3 * m - 2, 2 * m)
        mod = field.modulus
        self.generator = gen = _find_generator(p, mod)
        powers = _powers(p, mod, gen, m)
        log = np.empty(q, dtype=np.int32)
        log[powers] = np.arange(m)
        log[0] = zero
        self.log = log
        # g^k for k <= zero, with 0 at the sentinel; x + 1 adds 1 to the
        # lowest base-p digit of x
        exp = np.resize(powers, zero + 1)
        exp[zero] = 0
        plus_one = exp - exp % p + (exp + 1) % p
        self.zech = log[plus_one]

    def log_add(self, u, v):
        """log(g^u + g^v) for arrays of logs: g^u + g^v = g^u (1 + g^(v - u))
        with u the smaller log, so that a zero operand is v; adding q - 1 to
        the Zech index keeps it past the sentinel when v is 0.  A sum is
        reduced mod q - 1, or is ``zero``."""
        m = self.q - 1
        lo = np.minimum(u, v)
        s = lo + self.zech.take(np.maximum(u, v) - lo + m, mode="clip")
        return np.where(s < self.zero, s % m, self.zero)

    @cached_property
    def orbit_reps(self) -> tuple[tuple[int, int], ...]:
        """(least log, orbit size) for the Frobenius orbits of F_q^*: x^p
        sends g^k to g^(kp), so the orbits are the cosets {k p^i mod q - 1},
        and the size of k's is the least s with k p^s = k mod q - 1.  Zero
        gets no entry."""
        m = self.q - 1
        ar = np.arange(m, dtype=np.int64)
        least, size = ar.copy(), np.full(m, self.n)
        for s in range(self.n - 1, 0, -1):
            image = ar * self.p**s % m
            np.minimum(least, image, out=least)
            size[image == ar] = s
        reps = np.flatnonzero(least == ar)
        return tuple(zip(reps.tolist(), size[reps].tolist()))

    @cached_property
    def pair_sweep(self) -> "PairSweep":
        """The tables of the counting sweep over the squares u = g^(2j),
        j < h = (q - 1)/2, which evaluates f(1, y, +-z) = E(u) +- z O(u) at
        z = g^j and -z = g^(j + h) together (q odd).  Built on the first
        sweep of the field, not with the other tables.

        With m = q - 1, ``zero`` = 3m - 2, M = 5m - 2, B = 6m - 2 and V = ``vanished`` = 10m - 4:

        - ``zech_even``, ``zech_odd``: contiguous copies of ``zech[0:2m:2]``
          and ``zech[1:2m:2]``, so that ``zech[o + 2j]`` for j < h is a
          slice of one of them;
        - ``ramp_even``: 0, 2, .., m - 2, the logs of the squares;
        - ``ramp_mod``: k mod m for k < m + h, so that ``ramp_mod[c : c + h]``
          is log(g^c z) mod m;
        - ``zech_ratio``: index by index with ``zech``, B - x - M (x & 1) for
          x = zech[k] != zero, and V where 1 + g^k = 0.  Read by the last
          Horner step of E, it turns log E = x into an offset into
          ``pair_codes`` that carries the parity of x, and a zero E into V;
        - ``pair_codes``: int8, read at i = w + the ``zech_ratio`` value,
          w = log O + (log z mod m), logs relative to the leading powers of
          g.  It holds the characters of f(+-z)/g^(s_E) as 32 (number of
          non-squares) + (number of zeros) of the pair.  Where E(u) != 0,
          i = B - b M + t, b = log E mod 2, t = w - log E; for t in
          [1 - m, 2m - 2], f(+-z)/g^(s_E) = g^b (1 +- g^t); for t in
          [2m - 1, 4m - 3], where O(u) = 0 and w >= ``zero``, it is g^b E,
          read as 64 b.  At i = V + w, where E(u) = 0, it is +-g^w, read as
          32 if h is odd, else 64 (w & 1), and as 2 for w >= ``zero``.  A
          slice's zeros are fewer than 32, unless f(1, y, z) = 0.
        """
        return PairSweep(self)


class PairSweep:
    """``FieldTables.pair_sweep``: see there."""

    def __init__(self, t: FieldTables):
        m, zero = t.q - 1, t.zero
        h, period, self.offset = m // 2, 5 * m - 2, 6 * m - 2
        self.vanished = vanished = 10 * m - 4
        self.zech_even = t.zech[0 : 2 * m : 2].copy()
        self.zech_odd = t.zech[1 : 2 * m : 2].copy()
        self.ramp_even = np.arange(0, m, 2, dtype=np.int32)
        self.ramp_mod = np.arange(m + h, dtype=np.int32) % m
        x = t.zech
        ratio = x & 1
        ratio *= -period
        ratio += self.offset
        ratio -= x
        ratio[x == zero] = vanished
        self.zech_ratio = ratio
        # chi codes of 1 + g^t and 1 - g^t = 1 + g^(t + h), t < m: 0 square,
        # 1 non-square, 2 zero
        chi = (x[:m] & 1).astype(np.int8)
        chi[h] = 2
        codes = np.zeros(14 * m - 6, dtype=np.int8)
        for b in (0, 1):
            plus = np.where(chi == 2, chi, chi ^ b)
            minus = np.roll(plus, -h)
            pair = 32 * ((plus == 1).astype(np.int8) + (minus == 1)) + (plus == 2) + (minus == 2)
            base = self.offset - b * period
            # t = 1 - m, .., 2m - 2 read pair[t mod m], from pair[1]
            codes[base - m + 1 : base + 2 * m - 1] = np.resize(np.roll(pair, -1), 3 * m - 2)
            codes[base + 2 * m - 1 : base + 4 * m - 2] = 64 * b
        # E(u) = 0, where f(+-z)/g^(s_E) = +-g^w: filled by slices
        if h & 1:
            codes[vanished : vanished + zero] = 32
        else:
            codes[vanished + 1 : vanished + zero : 2] = 64
        codes[vanished + zero :] = 2
        self.pair_codes = codes

    def count(self, index: np.ndarray) -> tuple[int, int]:
        """(non-squares, zeros) over ``pair_codes`` read at ``index``."""
        total = int(self.pair_codes.take(index, mode="clip").sum())
        return total >> 5, total & 31


class LogArith:
    """A small field on discrete logs, in the interface of ``poly.ModP``: a
    nonzero x is coded by k in [0, q - 1) with x = g^k, and 0 by -1.
    Multiplication adds logs; x + y = x (1 + y/x) reads the Zech logarithm
    ``zech[k] = log(1 + g^k)``.  The lists are ``FieldTables``' arrays
    converted once, with their zero sentinel mapped to -1; ``field`` is the
    field they belong to."""

    def __init__(self, tables: FieldTables):
        m = tables.q - 1
        self.m, self.p, self.field = m, tables.p, tables.field
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

@functools.lru_cache(maxsize=None, typed=True)
def prime_field(p: int) -> FiniteField:
    """F_p, with modulus t; a p that is not prime raises ValueError, a bool
    or a non-integer such as 3.0 TypeError (from ``probable_prime``)."""
    if p < 2 and p is not True or not probable_prime(p):
        raise ValueError(f"{p} is not prime")
    return FiniteField(p, (0, 1))


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


@functools.lru_cache(maxsize=None, typed=True)
def fq(p: int, n: int) -> FiniteField:
    """The canonical field with p^n elements.

    The modulus is the first monic irreducible of degree n in the enumeration
    of coefficient vectors (c_0, ..., c_{n-1}) as base-p digits, so fields are
    reproducible across runs.
    """
    if n < 1:
        raise ValueError("extension degree must be >= 1")
    base = prime_field(p)  # refuses a p that is not prime
    if n == 1:
        return base
    A = ModP(p)
    for k in range(p**n):
        mod = _digits(k, p, n) + [1]
        # for n >= 2 a root proves mod reducible; Horner runs over at most
        # 2^10 points, which is all of F_p for every table field
        rootless = all(code_eval(A, mod, x) for x in range(min(p, 1 << 10)))
        if rootless and _rabin_irreducible(mod, p):
            return FiniteField(p, tuple(mod))
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

def evaluation_arith(fld: FiniteField, D: int):
    """(A, code, decode): an arithmetic with more than D elements holding
    fld = F_p, ``code`` from the int codes of its field E to codes of A and
    ``decode`` back.  A is ``ModP(p)`` when p > D, else
    fq(p, k).log_arith for the least k with p^k > D, whose codes 0 .. p - 1
    are F_p.  A field that is not prime raises ValueError."""
    if fld.degree != 1:
        raise ValueError(f"the evaluation arithmetic extends a prime field, not {fld}")
    p = fld.characteristic
    if p > D:
        return ModP(p), int, int
    A = fq(p, next(k for k in range(2, D + 1) if p**k > D)).log_arith
    decode = {k: c for c, k in enumerate(A.log)}
    return A, A.log.__getitem__, decode.__getitem__


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
