"""Exact integer arithmetic services.

Arbitrary-precision integers are plain Python ints; exact rationals are
``fractions.Fraction``.  Big integers serialise as decimal strings with no
separators.
"""

from __future__ import annotations

import functools
import math
import random
from numbers import Integral

import numpy as np

# Miller-Rabin with the first 13 primes as witnesses is deterministic below
# psi_13 = 3.3 * 10^24; the first 12 (to 37) are not, e.g. at psi_12 =
# 318665857834031151167461 = 399165290221 * 798330580441.
_DETERMINISTIC_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_DETERMINISTIC_BOUND = 3_317_044_064_679_887_385_961_981


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


@functools.lru_cache(maxsize=1024, typed=True)
def probable_prime(n: int) -> bool:
    """Miller-Rabin probable-prime test.

    False means certainly composite.  True means prime with error probability
    at most 4^-64: below 3.3 * 10^24 the fixed witness set makes the answer
    deterministic, above it 64 bases drawn from a generator seeded by n keep
    runs reproducible.  The answer is memoised, so a prime that several legs
    test (and every ``Place`` built on it) pays the rounds once; the memo
    tells types apart, so a bool or a non-integer such as 3.0 always
    reaches the TypeError.
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
        witnesses = [a for a in _DETERMINISTIC_WITNESSES if a < n - 1] or [2]
    else:
        rng = random.Random(n & 0xFFFFFFFF)
        witnesses = [rng.randrange(2, n - 1) for _ in range(64)]
    return _miller_rabin(n, witnesses)


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
