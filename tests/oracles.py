"""Independent oracles the tests check the library against.

Everything here is deliberately elementary (trial division, Euler's criterion,
exhaustive searches, digit-by-digit lifting) and shares no code path with the
implementations under test, with four exceptions.  The library computes
over finite fields on int codes only; the references compute on their own
field elements
(``FFElem`` over ``PrimeField`` and ``ExtensionField``, below), built by
``element_field`` on the moduli of the library's fields.  The naive point
count runs on those elements and the library's coefficient reduction, so it
checks the orbit counting kernel and its tables, not the choice of modulus.  The naive tritangent scan restricts the
integer form to each line with ``UniPoly`` products over Z, reduces the result
into F_p and tests squares by the squarefree decomposition below, so it
checks the scan on ints mod p, not those.  The subresultant ``resultant``
runs on the oracles' own ``UniPoly`` (below; the library keeps its
polynomials as coefficient lists) and the pseudo-remainder here; it is the
reference for the elimination's resultant by evaluation and interpolation
(``code_chart_resultant``, reached from ``UniPoly``s through the adapter
``resultant_by_evaluation``), and is itself checked against the Sylvester
determinant.  The common-zero decision ``unipoly_common_zero`` is the
elimination chain on ``UniPoly``s of field elements (``poly_gcd``,
``poly_gcdex``, the subresultant, a bivariate gcd for a shared factor, each
branch re-regularised); it is the reference for the chain on int codes in
``badred``.  The Cantor-Zassenhaus chain
``unipoly_irreducible_factors`` and the node locator
``unipoly_singular_points`` run on ``UniPoly``s of ``FFElem``s and on
``ExtensionField`` towers; the locator reads the library's memoised
elimination, so it checks the factoring, the root fields and the node
test on codes, not the elimination.  ``level_tallies_code_order`` is the
counting kernel's earlier sweep in int code order, on the library's log
and Zech tables but with its own code arithmetic (``CodeVectors``) and its
own Frobenius orbits: it checks the log-order sweep on fields past those
the naive count reaches.  ``open_middle_values_by_traces`` builds the Weil
test's critical-value polynomial from traces in Q[u]/(W') and Newton's
identities, where the library takes a resultant; it shares the library's
Sturm isolation and conformity tests, so it checks how D is built.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from itertools import combinations, compress
from typing import Any, Iterable

import random
from math import ceil, floor, isqrt, lcm

import numpy as np

from k3hasse import badred, picard
from k3hasse.badred import SingularPoint, SingularReport
from k3hasse.finitefield import (
    FiniteField,
    code_chart_resultant,
    evaluation_arith,
    fq,
    prime_field,
)
from k3hasse.picard import (
    CountingError,
    FrobeniusData,
    TritangentScan,
    _cyclotomic_degrees_up_to_22,
    _int_coefficients_mod,
    check_weil_bound,
    cyclotomic_polynomial,
)
from k3hasse.poly import FormModP, TernaryForm


def trial_division_is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def miller_rabin_64(n: int) -> bool:
    """Miller-Rabin with 64 bases drawn from a generator seeded by the low
    32 bits of n, for odd n > 3: the test ``arith.probable_prime`` ran above
    psi_13 before Baillie-PSW.  Its own strong-probable-prime check, written
    out with ``pow``; False means certainly composite."""
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    rng = random.Random(n & 0xFFFFFFFF)
    for _ in range(64):
        x = pow(rng.randrange(2, n - 1), d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_up_to_bytearray(bound: int) -> tuple[int, ...]:
    """All primes <= bound, ascending: the odd-only sieve on a bytearray
    (byte i stands for 2i + 1) that ``arith._primes_up_to`` replaced."""
    if bound < 2:
        return ()
    size = (bound + 1) // 2
    sieve = bytearray([1]) * size
    sieve[0] = 0  # 1 is not prime
    for i in range(1, (isqrt(bound) + 1) // 2):
        if sieve[i]:
            p = 2 * i + 1
            start = p * p // 2
            sieve[start::p] = bytes(len(range(start, size, p)))
    return (2, *compress(range(1, bound + 1, 2), sieve))


def strip_small_factors_loop(n: int, bound: int = 10**6) -> tuple[list[tuple[int, int]], int]:
    """``arith.strip_small_factors`` as a scalar loop of n % p over the primes
    up to min(bound, isqrt(n)), stopping once p^2 exceeds what is left."""
    factors = []
    for p in primes_up_to_bytearray(min(bound, isqrt(n))):
        if p * p > n:
            break
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            factors.append((p, e))
    if 1 < n <= bound:
        factors.append((n, 1))
        n = 1
    return factors, n


def euler_phi(d: int) -> int:
    """phi(d) = prod (p - 1) p^(e - 1) over the prime powers p^e || d, by
    trial division: the reference for the sieve in
    ``picard._cyclotomic_degrees_up_to_22``."""
    factors, rest = strip_small_factors_loop(d, bound=max(d, 2))
    assert rest == 1
    out = 1
    for p, e in factors:
        out *= (p - 1) * p ** (e - 1)
    return out


def padic_valuation_int(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def legendre_euler(a: int, p: int) -> int:
    """Legendre symbol (a/p) for an odd prime p by Euler's criterion,
    a^((p - 1)/2) mod p read as 0, 1 or -1."""
    r = pow(a, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


def exhaustive_padic_square(a: int, p: int, extra: int = 3) -> bool:
    """Square in Q_p decided by exhaustive square search mod p^(v + extra)."""
    assert a != 0
    v = padic_valuation_int(abs(a), p)
    if v % 2:
        return False
    mod = p ** (v + extra)
    residues = {(y * y) % mod for y in range(mod)}
    return a % mod in residues


def conic_locally_soluble(a: int, b: int, p: int) -> bool:
    """Does z^2 = a x^2 + b y^2 have a nontrivial Q_p-solution?

    Digit-by-digit lifting search for primitive solutions mod p^N with
    N = 2 v_p(ab) + 3, with early exit on Hensel-liftable solutions.  States
    are canonicalised by scaling the first unit coordinate to 1.
    """
    assert a != 0 and b != 0 and p % 2 == 1
    N = 2 * padic_valuation_int(abs(a * b), p) + 3

    def q(v, mod):
        x, y, z = v
        return (a * x * x + b * y * y - z * z) % mod

    def canonical(v, mod):
        for c in v:
            if c % p:
                inv = pow(c, -1, mod)
                return tuple(u * inv % mod for u in v)
        return None  # not primitive

    def hensel_ready(v, k):
        # v_p of the gradient (2ax, 2by, -2z); p odd so 2 is a unit
        grads = (a * v[0], b * v[1], v[2])
        gv = min((padic_valuation_int(g, p) if g else N) for g in grads)
        return k > 2 * gv

    mod = p
    states = set()
    for x in range(p):
        for y in range(p):
            for z in range(p):
                v = (x, y, z)
                if v == (0, 0, 0):
                    continue
                if q(v, p) == 0:
                    cv = canonical(v, p)
                    if cv is not None:
                        states.add(cv)
    for k in range(1, N):
        if not states:
            return False
        for v in states:
            if hensel_ready(v, k):
                return True
        mod_next = mod * p
        new_states = set()
        for x, y, z in states:
            # q(v + p^k d) = q(v) + p^k * (2a x dx + 2b y dy - 2z dz) mod p^(k+1)
            c = (q((x, y, z), mod_next) // mod) % p
            cx, cy, cz = (2 * a * x) % p, (2 * b * y) % p, (-2 * z) % p
            for dx in range(p):
                for dy in range(p):
                    rhs = (-c - cx * dx - cy * dy) % p
                    if cz:
                        dzs = [(rhs * pow(cz, -1, p)) % p]
                    elif rhs == 0:
                        dzs = range(p)
                    else:
                        dzs = []
                    for dz in dzs:
                        w = (x + dx * mod, y + dy * mod, z + dz * mod)
                        cw = canonical(w, mod_next)
                        if cw is not None:
                            new_states.add(cw)
        states = new_states
        mod = mod_next
    if not states:
        return False
    return any(hensel_ready(v, N) for v in states) or bool(states)


def sylvester_resultant(f_coeffs, g_coeffs) -> Fraction:
    """Resultant as the determinant of the Sylvester matrix, by exact
    fraction Gaussian elimination.  Coefficients lowest-degree first."""
    f = [Fraction(c) for c in f_coeffs]
    g = [Fraction(c) for c in g_coeffs]
    m = len(f) - 1
    n = len(g) - 1
    size = m + n
    if size == 0:
        return Fraction(1)
    rows = []
    for i in range(n):
        row = [Fraction(0)] * size
        for j, c in enumerate(reversed(f)):
            row[i + j] = c
        rows.append(row)
    for i in range(m):
        row = [Fraction(0)] * size
        for j, c in enumerate(reversed(g)):
            row[i + j] = c
        rows.append(row)
    det = Fraction(1)
    for col in range(size):
        pivot = None
        for r in range(col, size):
            if rows[r][col]:
                pivot = r
                break
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        det *= rows[col][col]
        inv = 1 / rows[col][col]
        for r in range(col + 1, size):
            if rows[r][col]:
                factor = rows[r][col] * inv
                for c2 in range(col, size):
                    rows[r][c2] -= factor * rows[col][c2]
    return det


# ---------------------------------------------------------------------------
# The oracles' polynomials
# ---------------------------------------------------------------------------
#
# The library keeps a univariate polynomial as a list of coefficients and
# divides through the ``code_*`` routines.  The references below use their
# own dense polynomial class over duck-typed coefficients instead: ints,
# ``Fraction``s, ``FFElem``s, or ``UniPoly``s for a bivariate polynomial.

class UniPoly:
    """Dense univariate polynomial, coefficients lowest-degree first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Any] = ()):
        cs = list(coeffs)
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

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

    def evaluate(self, x):
        if not self.coeffs:
            return x * 0
        acc = self.coeffs[-1]
        for c in reversed(self.coeffs[:-1]):
            acc = acc * x + c
        return acc

    def derivative(self) -> "UniPoly":
        return UniPoly([c * i for i, c in enumerate(self.coeffs)][1:])

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


def map_coefficients(form: TernaryForm, fn) -> TernaryForm:
    """The plain form with fn applied to every coefficient of ``form``."""
    return TernaryForm(form.degree, {m: fn(c) for m, c in form.terms.items()})


def evaluate_termwise(form: TernaryForm, point):
    """``TernaryForm.evaluate`` term by term: each monomial is the coefficient
    times its coordinates one multiplication at a time, with no shared
    powers."""
    x0, x1, x2 = point
    total = None
    for (e0, e1, e2), c in form.terms.items():
        t = c
        for e, x in ((e0, x0), (e1, x1), (e2, x2)):
            for _ in range(e):
                t = t * x
        total = t if total is None else total + t
    return x0 * 0 if total is None else total


# ---------------------------------------------------------------------------
# The oracles' field elements
# ---------------------------------------------------------------------------
#
# The library computes on int codes only.  The references below compute on
# element objects instead: ``FFElem`` over a ``PrimeField`` or over an
# ``ExtensionField`` base[t]/(modulus), whose base may itself be an
# extension (a tower).  ``element_field`` builds these fields from the
# moduli of the library's fields, with the same codes (``encode``,
# ``decode``), so that results compare code for code.

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


class ElementField:
    """Shared behaviour of the element fields; ``lib`` is the library field
    an element field was built from, None for one the tests build."""

    characteristic: int
    degree: int  # absolute degree over F_p
    order: int
    lib = None

    @functools.cached_property
    def zero(self) -> FFElem:
        return self.from_int(0)

    @functools.cached_property
    def one(self) -> FFElem:
        return self.from_int(1)


class PrimeField(ElementField):
    def __init__(self, p: int):
        self.p = self.characteristic = self.order = p
        self.degree = 1

    def __repr__(self):
        return f"GF({self.p})"

    def from_int(self, k: int) -> FFElem:
        return FFElem(self, k % self.p)

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


class ExtensionField(ElementField):
    """base[t]/(modulus) over an arbitrary base element field."""

    def __init__(self, base: ElementField, modulus: UniPoly):
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
        """Base-order digit encoding, lowest first: the library's codes for
        an extension of F_p."""
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


def poly_gcdex(a: UniPoly, b: UniPoly) -> tuple[UniPoly, UniPoly]:
    """Monic gcd d of a and a nonzero b over a field, with a cofactor s such
    that s*a = d mod b; for deg a < deg b, deg s < deg b, so s = a^-1 mod b
    when d = 1."""
    r0, r1 = b, a
    s0, s1 = UniPoly(), UniPoly([b.lc ** 0])
    while not r1.is_zero():
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
    inv_lc = b.lc ** 0 / r0.lc
    return r0 * inv_lc, s0 * inv_lc


def element_field(fld: FiniteField) -> ElementField:
    """The library field fld as a field of ``FFElem``s with fld's modulus;
    one element field per (p, modulus), so F_p is the base of every F_(p^n)."""
    return _element_field(fld.characteristic, fld.modulus)


@functools.lru_cache(maxsize=None)
def _element_field(p: int, modulus: tuple) -> ElementField:
    if len(modulus) == 2:
        out = PrimeField(p)
    else:
        base = _element_field(p, (0, 1))
        out = ExtensionField(base, UniPoly([base.decode(c) for c in modulus]))
    out.lib = fq(p, len(modulus) - 1)
    return out


def to_elements(form: FormModP) -> TernaryForm:
    """A form reduced by the library, as a form of ``FFElem``s."""
    return map_coefficients(form, element_field(form.field).decode)


# ---------------------------------------------------------------------------
# Field-element helpers for the FFElem references
# ---------------------------------------------------------------------------

def frobenius(a: FFElem) -> FFElem:
    return a ** a.field.characteristic


def element_degree(a: FFElem) -> int:
    """Degree over F_p of the subfield generated by a."""
    b = frobenius(a)
    e = 1
    while b != a:
        b = frobenius(b)
        e += 1
    return e


def from_base(ext: ExtensionField, a: FFElem) -> FFElem:
    """a, an element of ext's base field, as an element of ext."""
    return FFElem(ext, ext._pad([a]))


def gen(ext: ExtensionField) -> FFElem:
    """The class of t in ext = base[t]/(modulus)."""
    return FFElem(ext, ext._pad([ext.base.zero, ext.base.one]))


def random_element(fld: ElementField, rng) -> FFElem:
    if isinstance(fld, ExtensionField):
        return FFElem(fld, tuple(random_element(fld.base, rng) for _ in range(fld.rel_degree)))
    return FFElem(fld, rng.randrange(fld.p))


# ---------------------------------------------------------------------------
# Squarefree decomposition over Q and over the element fields
# ---------------------------------------------------------------------------

def _characteristic(c) -> int:
    field = getattr(c, "field", None)
    return field.characteristic if field is not None else 0


def _pth_root_coeff(c):
    """p-th root of a finite-field coefficient (fields here are perfect)."""
    field = getattr(c, "field", None)
    if field is None:
        raise NotImplementedError("p-th roots need a finite-field coefficient")
    return c ** (field.order // field.characteristic)


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


# ---------------------------------------------------------------------------
# UniPoly helpers: powers, pseudo-remainders, bivariate gcds
# ---------------------------------------------------------------------------

def upow(x, e: int):
    """x^e, e >= 0, for a coefficient or a UniPoly over coefficients or over
    UniPolys, by square-and-multiply from the low bit."""
    if not isinstance(x, UniPoly):
        return x ** e
    out = UniPoly([upow(x.lc, 0)])
    while e:
        if e & 1:
            out = out * x
        e >>= 1
        if e:
            x = x * x
    return out


def uscale(f: UniPoly, c) -> UniPoly:
    """f with every coefficient multiplied by the ring element c, which may
    itself be a polynomial (``*`` would read it as one in f's variable)."""
    return UniPoly([x * c for x in f.coeffs])


def powmod(f: UniPoly, e: int, modulus: UniPoly) -> UniPoly:
    """f^e modulo modulus, by square-and-multiply from the low bit."""
    r = UniPoly([f.lc ** 0]) if not f.is_zero() else UniPoly()
    base = f % modulus
    while e:
        if e & 1:
            r = (r * base) % modulus
        e >>= 1
        if e:
            base = (base * base) % modulus
    return r


def _pseudo_rem(a: UniPoly, b: UniPoly) -> UniPoly:
    """prem(a, b) = remainder of lc(b)^(deg a - deg b + 1) * a by b."""
    d = a.degree - b.degree
    lcb = b.lc
    rem = a
    for _ in range(d + 1):
        if rem.degree < b.degree:
            rem = uscale(rem, lcb)
            continue
        k = rem.degree - b.degree
        shifted = UniPoly([b.coeffs[0] * 0] * k + list(b.coeffs))  # b t^k
        rem = uscale(rem, lcb) - uscale(shifted, rem.lc)
    return rem


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


def _homogenize_bivariate(P: UniPoly, fld) -> TernaryForm:
    """Homogenise an affine P(u, t) (t-poly over K[u]) back to a ternary form."""
    total = 0
    for k, cu in enumerate(P.coeffs):
        if not cu.is_zero():
            total = max(total, k + cu.degree)
    terms = {}
    for k, cu in enumerate(P.coeffs):
        for j, c in enumerate(cu.coeffs):
            if c:
                terms[(total - j - k, j, k)] = c
    return TernaryForm(total, terms)


def _ternary_exact_div(f: TernaryForm, g: TernaryForm) -> TernaryForm:
    """Exact division of homogeneous forms by leading-term elimination."""
    out = {}
    rem = f
    glead = max(g.terms)
    gc = g.terms[glead]
    while rem.terms:
        flead = max(rem.terms)
        mono = tuple(a - b for a, b in zip(flead, glead))
        if any(e < 0 for e in mono):
            raise ValueError("inexact ternary division")
        coeff = rem.terms[flead] / gc
        out[mono] = coeff
        rem = rem - TernaryForm(f.degree - g.degree, {mono: coeff}) * g
    return TernaryForm(f.degree - g.degree, out)


def resultant(f: UniPoly, g: UniPoly):
    """Resultant with the Sylvester-determinant convention.

    Computed by the subresultant algorithm, so integer (and nested-polynomial)
    coefficients stay fraction-free.  The elimination computes its resultants
    with ``finitefield.code_chart_resultant``, which the tests compare with
    this one through ``resultant_by_evaluation``.
    """
    if f.is_zero() or g.is_zero():
        raise ValueError("resultant of the zero polynomial")
    one = upow(f.lc, 0)
    sign = one
    if f.degree < g.degree:
        if f.degree % 2 and g.degree % 2:
            sign = -sign
        f, g = g, f
    if g.degree == 0:
        return sign * upow(g.lc, f.degree)
    h = one
    gg = one
    while True:
        d = f.degree - g.degree
        if f.degree % 2 and g.degree % 2:
            sign = -sign
        rem = _pseudo_rem(f, g)
        f = g
        denom = gg * upow(h, d)
        g = UniPoly([_coeff_div(c, denom) for c in rem.coeffs])
        gg = f.lc
        if d > 0:
            # h <- gg^d / h^(d-1), exact in the coefficient domain
            num = upow(gg, d)
            h = _coeff_div(num, upow(h, d - 1)) if d > 1 else num
        if g.is_zero():
            return sign * (f.lc * 0)
        if g.degree == 0:
            # res = sign * lc(g)^deg(f) / h^(deg(f)-1)
            num = upow(g.lc, f.degree)
            if f.degree > 1:
                return sign * _coeff_div(num, upow(h, f.degree - 1))
            return sign * num


def resultant_by_evaluation(f: UniPoly, g: UniPoly) -> UniPoly:
    """``finitefield.code_chart_resultant`` on t-polynomials f, g over F[u],
    F a finite field, coded in ``element_arith(F, D)``, D = deg_t f *
    deg_t g, and decoded back: the test face of the elimination's resultant.
    Charts outside the Bezout shape (a constant t-leading coefficient and
    u-degree at most deg_t - k at t^k) raise ValueError."""
    fld = f.lc.lc.field
    for P in (f, g):
        if P.lc.degree != 0 or any(c.degree > P.degree - k for k, c in enumerate(P.coeffs)):
            raise ValueError(
                "the Bezout bound needs a constant t-leading coefficient and "
                "u-degree at most deg_t - k at t^k"
            )
    A, code, decode = element_arith(fld, f.degree * g.degree)
    fc, gc = ([[code(fld.encode(c)) for c in cu.coeffs] for cu in P.coeffs] for P in (f, g))
    return UniPoly([fld.decode(decode(c)) for c in code_chart_resultant(A, fc, gc)])


def element_arith(fld: ElementField, D: int):
    """(A, code, decode) for an element field fld as ``evaluation_arith``
    gives them for F_p: the library's own for a prime fld, and
    ``_tower_arith`` for every extension, which the library refuses."""
    if fld.degree == 1:
        return evaluation_arith(prime_field(fld.characteristic), D)
    return _tower_arith(fld, D)


def _tower_arith(fld: ExtensionField, D: int):
    """``evaluation_arith`` for an extension field or a tower of them:
    fld embedded in E = fq(p, k), k the least multiple of
    [fld : F_p] with p^k > D, level by level through the first root in E of
    each modulus, and coded by discrete logs in E."""
    p, k = fld.characteristic, fld.degree
    while p**k <= D:
        k += fld.degree
    E = element_field(fq(p, k))

    def embed(K):
        """K's elements -> their images in E, for K = fld or a base of it."""
        if isinstance(K, PrimeField):
            return lambda a: E.from_int(a.val)
        below = embed(K.base)
        mu = UniPoly([below(c) for c in K.modulus.coeffs])
        root = next(x for x in map(E.decode, range(E.order)) if not mu.evaluate(x))
        return lambda a: UniPoly([below(c) for c in a.val]).evaluate(root)

    A, image = E.lib.log_arith, embed(fld)
    images = [A.log[E.encode(image(fld.decode(c)))] for c in range(fld.order)]
    preimage = {img: c for c, img in enumerate(images)}
    return A, images.__getitem__, preimage.__getitem__


def compose_linear(form: TernaryForm, matrix) -> TernaryForm:
    """The form with x_i -> sum_j matrix[i][j] * y_j substituted."""
    rows = [
        TernaryForm(1, {(1, 0, 0): matrix[i][0], (0, 1, 0): matrix[i][1], (0, 0, 1): matrix[i][2]})
        for i in range(3)
    ]
    total = TernaryForm(form.degree)
    for (e0, e1, e2), c in form.terms.items():
        term = TernaryForm(0, {(0, 0, 0): c})
        for e, row in ((e0, rows[0]), (e1, rows[1]), (e2, rows[2])):
            for _ in range(e):
                term = term * row
        total = total + term
    return total


# ---------------------------------------------------------------------------
# The common-zero decision on UniPolys of field elements
# ---------------------------------------------------------------------------
#
# The reference for the decision ``badred._has_common_zero`` on
# ``badred._eliminate(system, fld)``, which runs on int codes: the same chain
# on ``UniPoly``s of ``FFElem``s, with the frame found and applied on field
# elements, the subresultant for every chart resultant, and dynamic
# evaluation modulo the squarefree part of G.

def _as_elements(system: list[TernaryForm], fld):
    """A system of ``FormModP``s over a library field as forms of
    ``FFElem``s over its element field; a system over an element field is
    returned as it is."""
    if not isinstance(fld, FiniteField):
        return system, fld
    return [to_elements(g) for g in system], element_field(fld)


def unipoly_frame(system: list[TernaryForm], fld):
    """(field, a, b, transformed system) of the first frame x0 -> x0 + a x2,
    x1 -> x1 + b x2 in the enumeration of ``badred.regularize``, on field
    elements: the pairs over fld, then, for a prime fld, the pairs of
    E = fq(p, k) with a code >= p, k the least with p^k > max(D, S) for the
    Bezout bound D and the degree sum S of the system.  An extension fld,
    the frame field of a split's branch, is searched alone."""
    system, fld = _as_elements(system, fld)
    p = fld.characteristic
    top, S = sorted(g.degree for g in system)[-2:], sum(g.degree for g in system)
    k = 1
    while p**k <= max(top[0] * top[-1], S):
        k += 1
    side = range(fld.order) if fld.order <= 1 << 14 else range(512)
    candidates = [(fld, system, ((a, b) for a in side for b in side))]
    if k > 1 and fld.degree == 1:
        E = element_field(fq(p, k))
        lifted = [map_coefficients(g, lambda c: from_base(E, c)) for g in system]
        codes = range(E.order)
        candidates.append((E, lifted, ((a, b) for a in codes for b in codes if a >= p or b >= p)))
    for K, forms, pairs in candidates:
        for a, b in pairs:
            ea, eb = K.decode(a), K.decode(b)
            if all(g.evaluate((ea, eb, K.one)) for g in forms):
                one, zero = K.one, K.zero
                matrix = [[one, zero, ea], [zero, one, eb], [zero, zero, one]]
                return K, ea, eb, [compose_linear(g, matrix) for g in forms]
    raise ValueError("no frame")


class _Split(Exception):
    def __init__(self, divisor: UniPoly):
        self.divisor = divisor


def _d5_inv(c: UniPoly, B: UniPoly) -> UniPoly:
    c = c % B
    if c.is_zero():
        return None
    g, inv = poly_gcdex(c, B)
    if g.degree == 0:
        return inv
    raise _Split(g)


def _d5_strip(poly: UniPoly, B: UniPoly) -> UniPoly:
    coeffs = [c % B for c in poly.coeffs]
    while coeffs:
        lc = coeffs[-1]
        if lc.is_zero():
            coeffs.pop()
            continue
        g = poly_gcd(lc, B)
        if g.degree == 0:
            break
        if g.degree == B.degree:
            coeffs.pop()
            continue
        raise _Split(g)
    return UniPoly(coeffs)


def _d5_mod(f: UniPoly, g: UniPoly, B: UniPoly) -> UniPoly:
    inv = _d5_inv(g.lc, B)
    rem = list(f.coeffs)
    dg = g.degree
    while len(rem) - 1 >= dg:
        lc = rem[-1] % B
        if lc.is_zero():
            rem.pop()
            continue
        t = (lc * inv) % B
        k = len(rem) - 1 - dg
        for idx, c in enumerate(g.coeffs):
            rem[k + idx] = (rem[k + idx] - t * c) % B
        rem.pop()
    return UniPoly([c % B for c in rem])


def _d5_any_common_root(polys: list[UniPoly], modulus: UniPoly) -> bool:
    """True iff for some root u0 of the squarefree modulus the univariate
    specialisations of all the t-polynomials share a common root."""
    stack = [(modulus, polys)]
    while stack:
        B, ps = stack.pop()
        if B.degree == 0:
            continue
        try:
            g = _d5_strip(ps[0], B)
            for h in ps[1:]:
                h = _d5_strip(h, B)
                while True:
                    if h.is_zero():
                        break
                    if h.degree == 0:
                        g = h
                        break
                    g, h = h, _d5_strip(_d5_mod(g, h, B), B)
                if g.degree == 0 and not g.is_zero():
                    break
            if g.degree >= 1:
                return True
        except _Split as s:
            stack.append((s.divisor, ps))
            stack.append((B.exact_div(s.divisor), ps))
    return False


def _squarefree_part(g: UniPoly) -> UniPoly:
    out = UniPoly([g.lc ** 0])
    for fac, _ in squarefree_decomposition(g):
        out = out * fac
    return out


def unipoly_common_zero(system: list[TernaryForm], fld) -> bool:
    """Do the forms of the system have a common zero over the closure of
    fld?  Decided on UniPolys of field elements."""
    system, fld = _as_elements(system, fld)
    system = [g for g in system if not g.is_zero()]
    if any(g.degree == 0 for g in system):
        return False
    if len(system) == 1:
        return True
    fld, _a, _b, system = unipoly_frame(system, fld)
    ginf = UniPoly()
    for g in system:
        ginf = poly_gcd(ginf, UniPoly([g.terms.get((0, g.degree - k, k), fld.zero) for k in range(g.degree + 1)]))
    if ginf.degree > 0:
        return True
    polys = [ternary_to_t_over_u(g, fld.one) for g in system]
    G = UniPoly()
    for i, j in combinations(range(len(polys)), 2):
        res = resultant(polys[i], polys[j])
        if res.is_zero():
            # the two forms share a factor H: V(H) with the rest, or the cofactors
            H = _homogenize_bivariate(bivariate_gcd(polys[i], polys[j]), fld)
            rest = [g for k, g in enumerate(system) if k not in (i, j)]
            if unipoly_common_zero(rest + [H], fld):
                return True
            qi, qj = _ternary_exact_div(system[i], H), _ternary_exact_div(system[j], H)
            return qi.degree > 0 and qj.degree > 0 and unipoly_common_zero(rest + [qi, qj], fld)
        G = poly_gcd(G, res)
    return G.degree > 0 and _d5_any_common_root(polys, _squarefree_part(G.monic()))


# ---------------------------------------------------------------------------
# Factoring and the node locator on UniPolys of field elements
# ---------------------------------------------------------------------------
#
# The references for ``finitefield.irreducible_factors`` and
# ``badred.singular_points``, which run on int codes: the Cantor-Zassenhaus
# chain on ``UniPoly``s of ``FFElem``s after a squarefree decomposition, and
# the locator reading the same memoised elimination decoded to ``UniPoly``s,
# with its roots in ``ExtensionField`` towers.

def uni(elim, cs: list) -> UniPoly:
    """A coded polynomial of an elimination, decoded to field elements."""
    K = element_field(elim.fld)
    return UniPoly([K.decode(elim.decode(c)) for c in cs])


def decoded_forms(elim) -> list[TernaryForm]:
    """An elimination's transformed forms, decoded to field elements."""
    K = element_field(elim.fld)
    return [
        TernaryForm(len(P) - 1, {
            (len(P) - 1 - j - k, j, k): K.decode(elim.decode(c))
            for k, row in enumerate(P) for j, c in enumerate(row)
        })
        for P in elim.charts
    ]


def distinct_degree_factorization(g: UniPoly, field: ElementField) -> list[tuple[UniPoly, int]]:
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
        h = powmod(h, q, rem)
        fac = poly_gcd(h - x, rem)
        if fac.degree > 0:
            out.append((fac, d))
            rem = rem.exact_div(fac)
            h = h % rem
    if rem.degree > 0:
        out.append((rem, rem.degree))
    return out


def equal_degree_factorization(g: UniPoly, d: int, field: ElementField, rng=None) -> list[UniPoly]:
    """Cantor-Zassenhaus split of a monic squarefree g all of whose irreducible
    factors have degree d (odd characteristic)."""
    if g.degree == d:
        return [g.monic()]
    if rng is None:
        rng = random.Random((field.characteristic % (1 << 30)) * 1009 + field.degree * 31 + g.degree)
    q = field.order
    e = (q**d - 1) // 2
    while True:
        r = UniPoly([random_element(field, rng) for _ in range(g.degree)])
        if r.degree < 1:
            continue
        s = powmod(r, e, g) - UniPoly([field.one])
        fac = poly_gcd(s, g)
        if 0 < fac.degree < g.degree:
            return (equal_degree_factorization(fac, d, field, rng)
                    + equal_degree_factorization(g.exact_div(fac), d, field, rng))


def unipoly_irreducible_factors(g: UniPoly, field: ElementField) -> list[tuple[UniPoly, int]]:
    """Monic irreducible factors with multiplicities."""
    out = []
    for sqfree, mult in squarefree_decomposition(g):
        for fac, d in distinct_degree_factorization(sqfree, field):
            for irr in equal_degree_factorization(fac, d, field):
                out.append((irr, mult))
    return out


def _lift_to(dst, src, elem):
    """Embed elem of src into dst, where dst is src or a tower over src."""
    chain = []
    cur = dst
    while cur is not src:
        chain.append(cur)
        cur = cur.base
    for fld in reversed(chain):
        elem = from_base(fld, elem)
    return elem


def _root_field(irr: UniPoly, fld):
    """A field holding a root of the monic irreducible irr over fld, and the root."""
    if irr.degree == 1:
        return fld, -irr.coeffs[0]
    host = ExtensionField(fld, irr)
    return host, gen(host)


def _classify_point(f_mod: TernaryForm, coords, fld) -> str:
    """node iff the gradient vanishes and the 2x2 Hessian of the local
    dehomogenization is nonsingular at the point."""
    lift = lambda form: map_coefficients(form, lambda c: _lift_to(fld, c.field, c))
    if lift(f_mod).evaluate(coords):
        return "non-node"
    for i in range(3):
        if lift(f_mod.partial(i)).evaluate(coords):
            return "non-node"
    pivot = next(i for i, c in enumerate(coords) if c)
    i, j = [k for k in range(3) if k != pivot]
    hii = lift(f_mod.partial(i).partial(i)).evaluate(coords)
    hij = lift(f_mod.partial(i).partial(j)).evaluate(coords)
    hjj = lift(f_mod.partial(j).partial(j)).evaluate(coords)
    return "node" if hii * hjj - hij * hij else "non-node"


def _elem_json(elem):
    val = elem.val
    if isinstance(val, int):
        return val
    return [_elem_json(c) for c in val]


def unipoly_singular_points(f: TernaryForm, p: int, degree_bound: int = 6) -> SingularReport:
    """``badred.singular_points`` on UniPolys of field elements: the
    memoised elimination decoded, factored by the chain above, with each
    root in an ``ExtensionField`` (a tower for a point whose chart gcd needs
    a second extension), the residue degree the lcm of the Frobenius degrees
    of the coordinates, and nodes classified on field elements."""
    F = prime_field(p)
    fld, reduced = element_field(F), FormModP(f, F)
    fp = to_elements(reduced)
    system = badred.jacobian_system(reduced)
    elim = badred._eliminate(tuple(system), F)
    assert elim.fld is F and badred.singular_locus_nonempty(reduced)
    G, zero_pair = elim.chart
    assert zero_pair is None
    ginf, G = uni(elim, elim.ginf), uni(elim, G)
    polys = [UniPoly([uni(elim, c) for c in P]) for P in elim.charts]
    points: list[SingularPoint] = []
    unresolved = 0

    def record(y_coords, host_fld):
        y0, y1, y2 = y_coords
        a = _lift_to(host_fld, fld, fld.decode(elim.a))
        b = _lift_to(host_fld, fld, fld.decode(elim.b))
        x = (y0 + a * y2, y1 + b * y2, y2)
        pivot = next(c for c in x if c)
        inv = host_fld.one / pivot
        x = tuple(c * inv for c in x)
        rdeg = lcm(*(element_degree(c) for c in x))
        kind = _classify_point(fp, x, host_fld)
        points.append(SingularPoint([_elem_json(c) for c in x], rdeg, kind))

    # the line y0 = 0
    if ginf.degree > 0:
        for irr, _mult in unipoly_irreducible_factors(ginf, fld):
            if irr.degree > degree_bound:
                unresolved += 1
                continue
            host, tau = _root_field(irr, fld)
            record((host.zero, host.one, tau), host)

    # the chart y0 = 1
    if G.degree > 0:
        for pi, _mult in unipoly_irreducible_factors(G, fld):
            k = pi.degree
            if k > degree_bound:
                unresolved += 1
                continue
            L1, uroot = _root_field(pi, fld)
            ghat = UniPoly()
            for P in polys:
                ghat = poly_gcd(ghat, UniPoly([
                    UniPoly([_lift_to(L1, fld, c) for c in cu.coeffs]).evaluate(uroot)
                    for cu in P.coeffs
                ]))
                if ghat.degree == 0:
                    break
            if ghat.degree == 0:
                continue  # spurious candidate
            for h2, _m2 in unipoly_irreducible_factors(ghat, L1):
                if k * h2.degree > degree_bound:
                    unresolved += 1
                    continue
                host, tau = _root_field(h2, L1)
                record((host.one, _lift_to(host, L1, uroot), tau), host)

    r = sum(pt.residue_degree for pt in points)
    return SingularReport(
        prime=p,
        points=points,
        r=r,
        all_nodes_and_r_lt8=not unresolved and r < 8 and bool(points) and all(pt.kind == "node" for pt in points),
        unresolved=unresolved,
        notes=[f"candidates beyond residue degree {degree_bound} left unresolved"] if unresolved else [],
    )


# ---------------------------------------------------------------------------
# Field construction on field elements
# ---------------------------------------------------------------------------
#
# The references for ``fq`` and ``FieldTables``, which build the modulus and
# the generator on int codes: Rabin's test with ``UniPoly.powmod`` over any
# base field, and the generator search by ``FFElem`` powers.

def is_irreducible(f: UniPoly, field: ElementField) -> bool:
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
        xq = powmod(xq, q, f)
    if xq != x % f:
        return False
    for l in sorted({l for l, _ in strip_small_factors_loop(n)[0]}):
        e = n // l
        xe = x
        for _ in range(e):
            xe = powmod(xe, q, f)
        if poly_gcd(xe - x, f).degree != 0:
            return False
    return True


def canonical_modulus(p: int, n: int) -> list[int]:
    """The coefficients of the first monic irreducible of degree n over F_p
    in the enumeration of (c_0, ..., c_{n-1}) as base-p digits."""
    base = element_field(prime_field(p))
    for k in range(p**n):
        cand = UniPoly([base.from_int(k // p**i) for i in range(n)] + [base.one])
        if is_irreducible(cand, base):
            return [c.val for c in cand.coeffs]


def find_generator(fld: FiniteField) -> int:
    """The code of the least element generating fld^*, by ``FFElem`` powers."""
    field = element_field(fld)
    q = field.order
    primes = [l for l, _ in strip_small_factors_loop(q - 1, bound=1 << 20)[0]]
    for k in range(1, q):
        g = field.decode(k)
        if all(g ** ((q - 1) // l) != field.one for l in primes):
            return k


def unit_root_bound(fd: FrobeniusData) -> int:
    """``picard.unit_root_bound`` in Q[T]: the normalized charpoly, as a
    ``UniPoly`` of ``Fraction``s, divided by each Phi_d with phi(d) <= 22."""
    g = UniPoly(fd.normalized)
    bound = 0
    for d in _cyclotomic_degrees_up_to_22():
        phi = UniPoly([Fraction(c) for c in cyclotomic_polynomial(d)])
        while True:
            quo, rem = divmod(g, phi)
            if rem.is_zero() and not quo.is_zero():
                bound += phi.degree
                g = quo
            else:
                break
    return bound


def _basis_traces(m: list) -> list[Fraction]:
    """s_0 .. s_(d-1), the power sums of the roots of the monic m of degree
    d, or the traces of the powers of u in Q[u]/(m), by Newton's identities
    run forward."""
    d = len(m) - 1
    s = [Fraction(d)]
    for k in range(1, d):
        s.append(-k * m[d - k] - sum(m[d - i] * s[k - i] for i in range(1, k)))
    return s


def _monic_from_power_sums(sums) -> list[Fraction]:
    """The monic polynomial of degree len(sums) whose roots have the power
    sums ``sums``, lowest degree first, by Newton's identities."""
    d = len(sums)
    a = {d: Fraction(1)}
    for k in range(1, d + 1):
        a[d - k] = -(sums[k - 1] + sum(a[d - i] * sums[k - i - 1] for i in range(1, k))) / k
    return [a[i] for i in range(d + 1)]


def open_middle_values_by_traces(a_top: dict, q: int) -> list[int]:
    """``picard._open_middle_values`` with the critical-value polynomial
    D(x) = prod (x + W(c)), c over the roots of W', built from its power
    sums: the traces of (-W)^k in Q[u]/(W'), from the traces of the basis
    powers of u, then Newton's identities.  The Sturm isolation and the
    Weil tests are the library's."""
    B = 2 * q
    W = picard._trace_polynomial([Fraction(0)] + [a_top[i] for i in range(12, 23)], q)
    lo, hi = ceil(-UniPoly(W).evaluate(B)), floor(-UniPoly(W).evaluate(-B))
    dW = picard._derivative(W)
    if lo > hi or not picard._real_roots_within(dW, B):
        return []
    m = UniPoly(dW).monic()
    s, r = _basis_traces(m.coeffs), -(UniPoly(W) % m)
    traces, x = [], UniPoly([Fraction(1)])
    for _ in range(m.degree):
        x = (x * r) % m
        traces.append(sum(c * t for c, t in zip(x.coeffs, s)))
    chain = picard._sturm_chain(picard._squarefree_part(_monic_from_power_sums(traces)))
    isolated, stack = [], [(lo - 1, hi)]
    while stack:
        left, right = stack.pop()
        if picard._sign_changes(chain, left) == picard._sign_changes(chain, right):
            continue
        if right - left == 1:
            isolated.append(right)
        else:
            mid = (left + right) // 2
            stack += [(left, mid), (mid, right)]
    found, start = [], lo
    for r in sorted(isolated) + [hi + 1]:
        if start < r and picard._real_roots_within([W[0] + start] + W[1:], B):
            found += range(start, min(r, start + 2))
        if r <= hi and picard._real_roots_within([W[0] + r] + W[1:], B):
            found.append(r)
        if len(found) >= 2:
            break
        start = r + 1
    return found[:2]


def quadratic_character(a: FFElem) -> int:
    """0 for zero, +1 for nonzero squares, -1 for nonsquares (odd q)."""
    field = a.field
    if field.characteristic == 2:
        raise ValueError("quadratic character needs odd characteristic")
    if not a:
        return 0
    return 1 if a ** ((field.order - 1) // 2) == field.one else -1


@functools.lru_cache(maxsize=None)
def _element_tables(field: ElementField) -> tuple[list, list, list]:
    """Sum, product and character tables on the codes of ``field``, built
    once per field from ``FFElem`` arithmetic: add[a][b] and mul[a][b] are
    the codes of a + b and a b, and chi[a] is the quadratic character of a."""
    elems = [field.decode(k) for k in range(field.order)]
    add = [[field.encode(a + b) for b in elems] for a in elems]
    mul = [[field.encode(a * b) for b in elems] for a in elems]
    return add, mul, [quadratic_character(a) for a in elems]


def _count_naive(f: TernaryForm, p: int, n: int) -> int:
    """Independent scalar count: enumerate P^2(F_{p^n}) and sum 1 + chi(f(P)).

    Field-element arithmetic through ``_element_tables``, no log tables and
    no orbit logic; the charts are swept with Horner in the last coordinate.
    """
    field = element_field(fq(p, n))
    add, mul, chi = _element_tables(field)
    fcoef = _int_coefficients_mod(f, p)
    consts = {c: field.encode(field.from_int(c)) for c in set(fcoef.values())}
    zero, one = field.encode(field.zero), field.encode(field.one)

    def chart_total(ck: list[int]) -> int:
        total = 0
        for z in range(field.order):
            v = ck[6]
            for k in range(5, -1, -1):
                v = add[mul[v][z]][ck[k]]
            total += 1 + chi[v]
        return total

    total = 0
    for y in range(field.order):
        ypow = [one]
        for _ in range(6):
            ypow.append(mul[ypow[-1]][y])
        ck = [zero] * 7
        for (e0, e1, e2), c in fcoef.items():
            ck[e2] = add[ck[e2]][mul[consts[c]][ypow[e1]]]
        total += chart_total(ck)
    gz = [zero] * 7
    for (e0, e1, e2), c in fcoef.items():
        if e0 == 0:
            gz[e2] = consts[c]
    total += chart_total(gz)
    return total + 1 + chi[consts.get(fcoef.get((0, 0, 6), 0), zero)]


def count_points_naive(f: TernaryForm, p: int, n: int) -> int:
    """The point count of w^2 = f over F_{p^n} by the naive scalar sweep."""
    if p == 2:
        raise CountingError("characteristic 2 is unsupported")
    N = _count_naive(f, p, n)
    check_weil_bound(p, n, N)
    return N


class CodeVectors:
    """Vectorised arithmetic on the int codes of a table field, through its
    ``log`` and ``zech`` tables, with ``exp`` built here as the inverse of
    ``log``: exp[k] = g^(k mod q - 1) below the sentinel ``zero`` and 0 at
    it.  Gathers clip, so a log sum past the sentinel reads 0: a product
    with a factor 0 is 0."""

    def __init__(self, t):
        self.t, self.m = t, t.q - 1
        inverse = np.empty(self.m, dtype=np.int64)
        inverse[t.log[1:]] = np.arange(1, t.q)
        self.exp = np.resize(inverse, t.zero + 1)
        self.exp[t.zero] = 0

    def mul(self, u, v):
        return self.exp.take(self.t.log[u] + self.t.log[v], mode="clip")

    def add(self, u, v):
        """u + v = u (1 + v/u), with u the operand of smaller log, so that a
        zero operand is v; adding q - 1 to the Zech index keeps it past the
        sentinel when v is 0."""
        lu, lv = self.t.log[u], self.t.log[v]
        lo = np.minimum(lu, lv)
        ratio = np.maximum(lu, lv) - lo + self.m
        return self.exp.take(lo + self.t.zech.take(ratio, mode="clip"), mode="clip")

    def frobenius(self, u):
        """u^p, as g^(kp mod q - 1) for u = g^k, and 0^p = 0."""
        lu = self.t.log[u].astype(np.int64)
        return self.exp.take(np.where(lu < self.m, lu * self.t.p % self.m, lu), mode="clip")


def level_tallies_code_order(fcoef: dict, p: int, d: int) -> tuple[int, int, int]:
    """``picard._level_tallies`` with the slices y and the second coordinate
    z in int code order: the coefficients c_k(y) come from ``CodeVectors``
    products and sums, one y per Frobenius orbit of codes (0 included) with
    its own orbit size, and every Horner step adds log z from ``log``,
    shifts by a scalar and gathers from ``zech``; a zero c_k(y) multiplies
    by z through ``exp`` and ``log``, and the character is the parity of the
    final log.  It shares the library's log and Zech tables, not its orbit
    representatives, and is the reference for the log-order sweep at the
    levels the naive count cannot reach."""
    t = fq(p, d).tables
    V = CodeVectors(t)
    m, zero = t.q - 1, t.zero
    ar = np.arange(t.q)
    frob = V.frobenius(ar)
    least, size, image = ar.copy(), np.zeros(t.q, dtype=np.int64), frob
    for s in range(1, d + 1):
        size[(image == ar) & (size == 0)] = s
        least = np.minimum(least, image)
        image = frob[image]
    ys = np.flatnonzero(least == ar)
    ypow = [np.ones_like(ys)]
    for _ in range(6):
        ypow.append(V.mul(ypow[-1], ys))
    c = np.zeros((7, len(ys) + 1), dtype=np.int64)
    for (e0, e1, e2), coef in fcoef.items():
        if coef:
            c[e2, :-1] = V.add(c[e2, :-1], V.mul(coef, ypow[e1]))
            if e0 == 0:
                c[e2, -1] = coef
    degrees = size[ys].tolist() + [1]
    counts = np.zeros(3, dtype=np.int64)
    for lc, e in zip(t.log[c].T.tolist(), degrees):
        top = max((k for k in range(7) if lc[k] != zero), default=None)
        a, s = (np.full(t.q, zero), 0) if top is None else (np.zeros(t.q, dtype=np.int64), lc[top])
        for k in range((top or 0) - 1, -1, -1):
            if lc[k] == zero:
                a = t.log[V.exp.take(a + t.log, mode="clip")]
            else:
                x = a + t.log
                x += (s - lc[k]) % m
                a, s = t.zech.take(x, mode="clip"), lc[k]
        nzero = np.count_nonzero(a == zero)
        odd = np.count_nonzero(a & 1)
        even = len(a) - nzero - odd
        counts += e * np.array([odd, even, nzero] if s & 1 else [even, odd, nzero])
    # the point [0:0:1], where f = c in F_p, of character chi_p(c)^d
    c001 = fcoef.get((0, 0, 6), 0)
    counts[2 if c001 == 0 else (0 if d % 2 == 0 or pow(c001, (p - 1) // 2, p) == 1 else 1)] += 1
    a_d, b_d, z_d = counts
    return int(a_d), int(b_d), int(z_d)


# ---------------------------------------------------------------------------
# The generic tritangent scan: lines of field elements, UniPoly restriction
# ---------------------------------------------------------------------------

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
        term = UniPoly([c])
        for e, s in ((e0, subs[0]), (e1, subs[1]), (e2, subs[2])):
            for _ in range(e):
                term = term * s
        total = term if total is None else total + term
    if total is None:
        total = UniPoly()
    at_inf = f.evaluate(pt)
    return total, at_inf


def enumerate_lines(field: ElementField):
    """All p^2 + p + 1 lines of the dual plane in normalized lex order."""
    one, zero = field.one, field.zero
    for a in range(field.order):
        ea = field.decode(a)
        for b in range(field.order):
            yield ProjLine(one, ea, field.decode(b))
    for b in range(field.order):
        yield ProjLine(zero, one, field.decode(b))
    yield ProjLine(zero, zero, one)


def _is_square_binary_form(g: UniPoly, degree: int) -> bool:
    """Is the binary form with dehomogenisation g (and degree ``degree``) a
    nonzero constant times a perfect square?"""
    inf_mult = degree - g.degree
    if inf_mult % 2:
        return False
    if g.degree == 0:
        return True
    return all(m % 2 == 0 for _, m in squarefree_decomposition(g))


def _restrict_integer_form(f: TernaryForm, line: ProjLine, field) -> UniPoly:
    """The dehomogenised restriction of the integer form f to a line over
    F_p: f(ps + t pt) over Z along the integer representatives of the line's
    parametrization, with the powers of each substitution built once, then
    reduced into the field."""
    ps, pt = line_parametrization(line)
    powers = []
    for a, b in zip(ps, pt):
        sub = UniPoly([a.val, b.val])
        row = [UniPoly([1])]
        for _ in range(f.degree):
            row.append(row[-1] * sub)
        powers.append(row)
    total = UniPoly()
    for (e0, e1, e2), c in f.terms.items():
        total = total + uscale(powers[0][e0] * powers[1][e1] * powers[2][e2], c)
    return UniPoly([field.from_int(c) for c in total.coeffs])


def tritangent_scan_naive(f: TernaryForm, p: int) -> TritangentScan:
    """Scan every line of P^2(F_p) for tritangency: the restriction of the
    integer form f must be a nonzero constant times a perfect square.  Lines
    are ``ProjLine``s."""
    field = element_field(prime_field(p))
    degenerate = []
    scanned = 0
    for line in enumerate_lines(field):
        scanned += 1
        g = _restrict_integer_form(f, line, field)
        if g.is_zero():
            degenerate.append(line)
            continue
        if _is_square_binary_form(g, f.degree):
            return TritangentScan(p, line, tuple(degenerate), scanned)
    return TritangentScan(p, None, tuple(degenerate), scanned)
