"""Exact integer arithmetic services.

Arbitrary-precision integers are plain Python ints; exact rationals are
``fractions.Fraction``.  Big integers serialise as decimal strings with no
separators.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from numbers import Integral

import numpy as np

# Miller-Rabin with the first 13 primes as witnesses is deterministic below
# psi_13 = 3.3 * 10^24; the first 12 (to 37) are not, e.g. at psi_12 =
# 318665857834031151167461 = 399165290221 * 798330580441.
_DETERMINISTIC_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_DETERMINISTIC_BOUND = 3_317_044_064_679_887_385_961_981


def jacobi_symbol(a: int, n: int) -> int:
    """Jacobi symbol (a/n) in {-1, 0, 1} for odd n > 0; the Legendre symbol
    when n is prime.

    Binary algorithm (Cohen, A Course in Computational Algebraic Number
    Theory, Alg. 1.4.10): strip the powers of 2 of a with (2/n) = -1 iff
    n = 3, 5 mod 8, then swap a and n by reciprocity, which flips the sign iff
    both are 3 mod 4, and reduce.
    """
    if n <= 0 or n % 2 == 0:
        raise ValueError("jacobi_symbol needs an odd n > 0")
    a %= n
    sign = 1
    while a:
        twos = (a & -a).bit_length() - 1
        a >>= twos
        if twos % 2 and n % 8 in (3, 5):
            sign = -sign
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a, n = n % a, a
    return sign if n == 1 else 0


def _miller_rabin_witness(n: int, a: int) -> bool:
    """True if a witnesses compositeness of odd n > 2."""
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return False
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return False
    return True


def _strong_lucas_witness(n: int) -> bool:
    """True if the strong Lucas test witnesses compositeness of odd n > 2.

    Selfridge's method A: D is the first of 5, -7, 9, -11, ... with
    (D/n) = -1, P = 1 and Q = (1 - D)/4.  With n + 1 = d 2^s, d odd, a prime
    n has U_d = 0 or V_(d 2^r) = 0 (mod n) for some 0 <= r < s.  A perfect
    square has no such D, so it is refused before the search.  U and V
    climb the bits of d by U_2k = U_k V_k, V_2k = V_k^2 - 2 Q^k and
    U_k+1 = (U_k + V_k)/2, V_k+1 = (D U_k + V_k)/2.
    """
    if math.isqrt(n) ** 2 == n:
        return True
    D = 5
    while (j := jacobi_symbol(D, n)) != -1:
        if j == 0 and D % n:  # gcd(D, n) is a proper factor of n
            return True
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    d, s = n + 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1

    def half(x: int) -> int:
        return (x + n if x & 1 else x) // 2 % n

    U, V, Qk = 1, 1, Q % n
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V, Qk = half(U + V), half(D * U + V), Qk * Q % n
    if U == 0 or V == 0:
        return False
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return False
    return True


def _baillie_psw(n: int) -> bool:
    """Baillie-PSW on odd n > 3: a strong base-2 test, then a strong Lucas
    test (Baillie and Wagstaff, Math. Comp. 35, 1980; Pomerance, Selfridge
    and Wagstaff, Math. Comp. 35, 1980).  No composite passing both is known."""
    return not _miller_rabin_witness(n, 2) and not _strong_lucas_witness(n)


@functools.lru_cache(maxsize=1024, typed=True)
def probable_prime(n: int) -> bool:
    """Probable-prime test; False means certainly composite.

    Below psi_13 = 3.3 * 10^24 the answer is exact: Miller-Rabin with the 13
    prime witnesses up to 41 is deterministic there.  Above it the test is
    Baillie-PSW, which has no known counterexample but is not a proof, so
    True there means "probable prime".  The answer is memoised, so a prime
    that several legs test (and every ``Place`` built on it) pays the test
    once; the memo tells types apart, so a bool or a non-integer such as 3.0
    always reaches the TypeError.
    """
    if isinstance(n, bool) or not isinstance(n, Integral):
        raise TypeError(f"probable_prime needs an integer, not {n!r}")
    if n <= 1:
        raise ValueError("probable_prime requires n > 1")
    if n in (2, 3):
        return True
    if n % 2 == 0:
        return False
    if n < _DETERMINISTIC_BOUND:
        return _miller_rabin(n, [a for a in _DETERMINISTIC_WITNESSES if a < n - 1] or [2])
    return _baillie_psw(n)


def _miller_rabin(n: int, witnesses) -> bool:
    """False if one of the bases witnesses compositeness of odd n > 3."""
    return not any(_miller_rabin_witness(n, a) for a in witnesses)


def exact_int(x) -> int:
    """x from an int or a string of decimal digits, the forms JSON carries
    integers in; ``int`` would truncate a float and read a bool as 0 or 1.
    Anything else raises ValueError."""
    if isinstance(x, str) and x.isascii() and x.isdecimal() or isinstance(x, Integral) and not isinstance(x, bool):
        return int(x)
    raise ValueError(f"{x!r} is not an integer")


@functools.lru_cache(maxsize=8)
def _primes_up_to(bound: int) -> np.ndarray:
    """All primes <= bound, ascending, as a read-only ``uint64`` array, by a
    sieve over the odd numbers only.

    Entry i of the boolean sieve stands for 2i + 1.  Each odd prime
    p <= isqrt(bound) clears p^2, p^2 + 2p, ... with one slice assignment (a
    step of p entries).  Entry 0, the number 1, is kept and read off as 2.
    """
    if bound < 2:
        return np.empty(0, dtype=np.uint64)
    size = (bound + 1) // 2  # the odd numbers 1, 3, ..., <= bound
    sieve = np.ones(size, dtype=bool)
    for i in range(1, (math.isqrt(bound) + 1) // 2):
        if sieve[i]:
            p = 2 * i + 1
            sieve[p * p // 2 :: p] = False
    primes = np.flatnonzero(sieve).astype(np.uint64) * 2 + 1
    primes[0] = 2
    primes.flags.writeable = False
    return primes


def _residues(n: int, primes: np.ndarray) -> np.ndarray:
    """n mod p for every p in primes, by Horner over the base-2^k limbs of n,
    most significant first.  With b the bit length of the largest prime and
    k = 64 - b, a residue r < p <= 2^b gives r * 2^k + limb < 2^64, so each
    step is exact in ``uint64``."""
    r = np.zeros(len(primes), dtype=np.uint64)
    if not len(primes):
        return r
    k = 64 - int(primes[-1]).bit_length()
    mask = (1 << k) - 1
    for shift in range((n.bit_length() - 1) // k * k, -1, -k):
        r <<= np.uint64(k)
        r |= np.uint64(n >> shift & mask)
        r %= primes
    return r


def strip_small_factors(n: int, bound: int = 10**6) -> tuple[list[tuple[int, int]], int]:
    """Trial-divide n by every prime <= bound.

    Returns ``(factors, cofactor)`` with factors a list of (prime, multiplicity)
    pairs; the product of the factors times the cofactor is exactly n, and the
    cofactor has no prime factor <= bound.  The sieve stops at
    min(bound, isqrt(n)): what is left after those primes is 1 or a prime.
    The residues of n modulo all sieved primes come from one vectorised
    sweep; only the primes dividing n are divided out, with multiplicity.
    """
    if n <= 0:
        raise ValueError("strip_small_factors requires n > 0")
    if bound < 2:
        raise ValueError("bound must be >= 2")
    primes = _primes_up_to(min(bound, math.isqrt(n)))
    factors = []
    for p in primes[_residues(n, primes) == 0].tolist():
        e = 0
        q, rem = divmod(n, p)
        while rem == 0:
            n, e = q, e + 1
            q, rem = divmod(n, p)
        factors.append((p, e))
    if 1 < n <= bound:
        # remaining cofactor is itself a small prime
        factors.append((n, 1))
        n = 1
    return factors, n


def strip_small_factors_pair(m: int, n: int) -> list[tuple[list[tuple[int, int]], int]]:
    """``strip_small_factors`` of m and of n, from sweeps over the shorter
    g = gcd(m, n), m/g and n/g: multiplicities add, cofactors multiply."""
    g = math.gcd(m, n)
    shared, rest = strip_small_factors(g)
    parts = map(strip_small_factors, (m // g, n // g))
    return [(sorted((Counter(dict(shared)) + Counter(dict(f))).items()), rest * c) for f, c in parts]
