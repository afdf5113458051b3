"""Exact local computations over R and Q_p.

Everything is decided on exact rationals through valuations and unit residues;
no truncated p-adic numbers exist anywhere.  Ints stay ints, read as numerator
and denominator with no ``Fraction`` made; floats, bools and a p that is not
prime are refused.  Whether a unit residue is a square mod an odd prime p is
decided by quadratic reciprocity (the binary Jacobi-symbol algorithm), not by
a modular power with exponent (p - 1)/2: the residues are values of forms at
small integer triples, so the cost follows their size rather than the size of
p, which reaches 186 digits among the bad primes of the example.  Local
invariants live additively in (1/2)Z/Z, represented as ``Fraction`` values 0
and 1/2, so the adelic sum condition is a plain sum reduced mod 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .arith import jacobi_symbol, probable_prime

Invariant = Fraction
INV_ZERO = Fraction(0)
INV_HALF = Fraction(1, 2)


@dataclass(frozen=True, order=True)
class Place:
    """R or Q_p; the real place sorts before the finite ones.  p is an int
    and no bool, since False == 0.0 == 0 would read as R, and a prime
    unless it is 0."""

    p: int  # 0 encodes the real place

    def __post_init__(self):
        if isinstance(self.p, bool) or not isinstance(self.p, int):
            raise TypeError(f"a place needs an integer, not {self.p!r}")
        if self.p != 0 and (self.p < 2 or not probable_prime(self.p)):
            raise ValueError(f"{self.p} is not prime")

    @classmethod
    def real(cls) -> "Place":
        return cls(0)

    @classmethod
    def finite(cls, p: int) -> "Place":
        return cls(p)

    @property
    def is_real(self) -> bool:
        return self.p == 0

    def __str__(self) -> str:
        return "R" if self.is_real else f"Q_{self.p}"


def invariant_sum(values) -> Invariant:
    """Sum in (1/2)Z/Z."""
    return sum(values, start=Fraction(0)) % 1


def _parts(a, fn: str) -> tuple[int, int]:
    """Numerator and denominator of a nonzero int or ``Fraction``."""
    if isinstance(a, bool) or not isinstance(a, (int, Fraction)):
        raise TypeError(f"{fn} needs an int or a Fraction, not {a!r}")
    if a == 0:
        raise ValueError(f"{fn} of zero")
    return a.numerator, a.denominator


def _strip(num: int, den: int, p: int, fn: str) -> tuple[int, int, int]:
    """(v_p(num/den), num, den) with the powers of the prime p divided out."""
    if isinstance(p, bool) or not isinstance(p, int) or p < 2 or not probable_prime(p):
        raise ValueError(f"{fn} needs a prime p, not {p!r}")
    v = 0
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v, num, den


def padic_valuation(a: Fraction | int, p: int) -> tuple[int, Fraction]:
    """(v_p(a), unit part a / p^v) for nonzero rational a."""
    v, num, den = _strip(*_parts(a, "padic_valuation"), p, "padic_valuation")
    return v, Fraction(num, den)


def _unit_residue(num: int, den: int, modulus: int) -> int:
    """Residue of the p-adic unit num/den; an integer unit needs no inverse."""
    return (num if den == 1 else num * pow(den, -1, modulus)) % modulus


def padic_square(a: Fraction | int, p: int) -> bool:
    """Is a nonzero rational a square in Q_p?

    For p = 2: even valuation and unit part congruent to 1 mod 8.  For odd p:
    even valuation and unit part a square mod p.
    """
    v, num, den = _strip(*_parts(a, "padic_square"), p, "padic_square")
    if v % 2:
        return False
    if p == 2:
        return _unit_residue(num, den, 8) == 1
    return jacobi_symbol(_unit_residue(num, den, p), p) == 1


def _eps2(u: int) -> int:
    """(u - 1)/2 mod 2 for odd u."""
    return (u - 1) // 2 % 2


def _omega2(u: int) -> int:
    """(u^2 - 1)/8 mod 2 for odd u."""
    return (u * u - 1) // 8 % 2


def hilbert_symbol(a: Fraction | int, b: Fraction | int, place: Place) -> Invariant:
    """Local Hilbert symbol as an invariant in {0, 1/2}.

    0 iff z^2 = a x^2 + b y^2 has a nontrivial solution over the completion.
    Sign test at R, the tame formula at odd p, the epsilon/omega formula at 2.
    """
    an, ad = _parts(a, "hilbert_symbol")
    bn, bd = _parts(b, "hilbert_symbol")
    if not isinstance(place, Place):
        raise TypeError(f"hilbert_symbol needs a Place, not {place!r}")
    if place.is_real:
        return INV_HALF if (an < 0 and bn < 0) else INV_ZERO
    p = place.p
    alpha, an, ad = _strip(an, ad, p, "hilbert_symbol")
    beta, bn, bd = _strip(bn, bd, p, "hilbert_symbol")
    if p == 2:
        ru = _unit_residue(an, ad, 8)
        rv = _unit_residue(bn, bd, 8)
        e = _eps2(ru) * _eps2(rv) + alpha * _omega2(rv) + beta * _omega2(ru)
        return INV_HALF if e % 2 else INV_ZERO
    lu = 0 if jacobi_symbol(_unit_residue(an, ad, p), p) == 1 else 1
    lv = 0 if jacobi_symbol(_unit_residue(bn, bd, p), p) == 1 else 1
    e = alpha * beta * ((p - 1) // 2) + beta * lu + alpha * lv
    return INV_HALF if e % 2 else INV_ZERO
