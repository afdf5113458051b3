"""Exact integer arithmetic services.

Arbitrary-precision integers are plain Python ints; exact rationals are
``fractions.Fraction``.  Big integers serialise as decimal strings with no
separators.
"""

from __future__ import annotations

import functools
import itertools
import math

# Miller-Rabin with these witnesses is deterministic for n < 3.3 * 10^24.
_DETERMINISTIC_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
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


def probable_prime(n: int, rounds: int = 64, witnesses=None) -> bool:
    """Miller-Rabin probable-prime test.

    False means certainly composite.  True means prime with error probability
    at most 4^(-rounds); for n below 3.3 * 10^24 a fixed witness set makes the
    answer deterministic.  An explicit ``witnesses`` list overrides both.
    Without one the answer is memoised, so a prime that several legs test
    (and every ``Place`` built on it) pays the rounds once.
    """
    if witnesses is None:
        return _probable_prime(n, rounds)
    return _miller_rabin(n, rounds, witnesses)


@functools.lru_cache(maxsize=1024)
def _probable_prime(n: int, rounds: int) -> bool:
    return _miller_rabin(n, rounds, None)


def _miller_rabin(n: int, rounds: int, witnesses) -> bool:
    if n <= 1:
        raise ValueError("probable_prime requires n > 1")
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    if n in (2, 3):
        return True
    if n % 2 == 0:
        return False
    if witnesses is None:
        if n < _DETERMINISTIC_BOUND:
            witnesses = [a for a in _DETERMINISTIC_WITNESSES if a < n - 1] or [2]
        else:
            # Fixed pseudo-random bases derived from n keep runs reproducible.
            import random

            rng = random.Random(n & 0xFFFFFFFF)
            witnesses = [rng.randrange(2, n - 1) for _ in range(rounds)]
    for a in witnesses:
        if _miller_rabin_witness(n, a):
            return False
    return True


@functools.lru_cache(maxsize=8)
def _primes_up_to(bound: int) -> tuple[int, ...]:
    """All primes <= bound, ascending, by a sieve over the odd numbers only.

    Byte i of the sieve stands for 2i + 1.  Each odd prime p <= isqrt(bound)
    clears p^2, p^2 + 2p, ... with one slice assignment (a step of p bytes),
    and ``itertools.compress`` reads the survivors off against the odd
    numbers, so no Python-level loop runs over the whole range.
    """
    if bound < 2:
        return ()
    size = (bound + 1) // 2  # the odd numbers 1, 3, ..., <= bound
    sieve = bytearray([1]) * size
    sieve[0] = 0  # 1 is not prime
    for i in range(1, (math.isqrt(bound) + 1) // 2):
        if sieve[i]:
            p = 2 * i + 1
            start = p * p // 2
            sieve[start::p] = bytes(len(range(start, size, p)))
    return (2, *itertools.compress(range(1, bound + 1, 2), sieve))


def strip_small_factors(n: int, bound: int = 10**6) -> tuple[list[tuple[int, int]], int]:
    """Trial-divide n by every prime <= bound.

    Returns ``(factors, cofactor)`` with factors a list of (prime, multiplicity)
    pairs; the product of the factors times the cofactor is exactly n, and the
    cofactor has no prime factor <= bound.  The sieve stops at
    min(bound, isqrt(n)): what is left after those primes is 1 or a prime.
    """
    if n <= 0:
        raise ValueError("strip_small_factors requires n > 0")
    if bound < 2:
        raise ValueError("bound must be >= 2")
    factors = []
    for p in _primes_up_to(min(bound, math.isqrt(n))):
        if p * p > n:
            break
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            factors.append((p, e))
    if 1 < n <= bound:
        # remaining cofactor is itself a small prime
        factors.append((n, 1))
        n = 1
    return factors, n
