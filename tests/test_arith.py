import random

import pytest

from k3hasse import arith
from k3hasse.arith import probable_prime, strip_small_factors
from k3hasse.localfield import Place
from .oracles import trial_division_is_prime


def test_probable_prime_small_cases():
    assert probable_prime(2)
    assert probable_prime(3)
    assert not probable_prime(561)  # 3 * 11 * 17, a Carmichael number
    assert trial_division_is_prime(561) is False


def test_probable_prime_rejects_domain_errors():
    with pytest.raises(ValueError):
        probable_prime(1)
    with pytest.raises(ValueError):
        probable_prime(-7)
    with pytest.raises(ValueError):
        probable_prime(10, rounds=0)


def test_probable_prime_matches_trial_division_densely():
    for n in range(2, 5000):
        assert probable_prime(n) == trial_division_is_prime(n), n


def test_probable_prime_matches_trial_division_sampled():
    rng = random.Random(7)
    for _ in range(2000):
        n = rng.randrange(2, 10**6)
        assert probable_prime(n) == trial_division_is_prime(n), n


def test_probable_prime_explicit_witnesses_are_deterministic():
    # 2047 = 23 * 89 is a strong pseudoprime to base 2 only
    assert probable_prime(2047, witnesses=[2])
    assert not probable_prime(2047, witnesses=[2, 3])


def test_probable_prime_tests_each_number_once(fixtures, monkeypatch):
    """Places on the 66-digit prime, built twice, and a second test of it run
    the Miller-Rabin rounds once; explicit witnesses are never memoised."""
    calls = []
    miller_rabin = arith._miller_rabin

    def counted(n, rounds, witnesses):
        calls.append(n)
        return miller_rabin(n, rounds, witnesses)

    monkeypatch.setattr(arith, "_miller_rabin", counted)
    arith._probable_prime.cache_clear()
    Place.finite(fixtures.prime66)
    Place.finite(fixtures.prime66)
    assert probable_prime(fixtures.prime66)
    assert calls == [fixtures.prime66]
    assert probable_prime(2047, witnesses=[2]) and probable_prime(2047, witnesses=[2])
    assert calls.count(2047) == 2


def test_strip_small_factors_sieves_to_the_square_root(monkeypatch):
    """The sieve stops at min(bound, isqrt(n)), and the factorization is
    still complete below the bound."""
    sieved = []
    primes_up_to = arith._primes_up_to.__wrapped__

    def counted(bound):
        sieved.append(bound)
        return primes_up_to(bound)

    monkeypatch.setattr(arith, "_primes_up_to", counted)
    assert strip_small_factors(80, bound=1 << 20) == ([(2, 4), (5, 1)], 1)
    assert strip_small_factors(4) == ([(2, 2)], 1)
    assert sieved == [8, 2]
    for n in range(1, 3000):
        factors, cofactor = strip_small_factors(n, bound=50)
        assert all(trial_division_is_prime(p) for p, _ in factors)
        assert all(cofactor % p for p in range(2, 51))
        product = cofactor
        for p, e in factors:
            product *= p**e
        assert product == n


def test_primes_up_to_matches_trial_division():
    primes_up_to = arith._primes_up_to.__wrapped__
    naive = [n for n in range(2001) if trial_division_is_prime(n)]
    for bound in range(2001):
        assert primes_up_to(bound) == tuple(p for p in naive if p <= bound), bound


def test_primes_up_to_a_million():
    primes = arith._primes_up_to.__wrapped__(10**6)
    assert len(primes) == 78_498
    assert primes[-1] == 999_983
    assert primes[:5] == (2, 3, 5, 7, 11)


def test_strip_small_factors_trivial_cases():
    assert strip_small_factors(1) == ([], 1)
    assert strip_small_factors(360, bound=10) == ([(2, 3), (3, 2), (5, 1)], 1)


def test_strip_small_factors_leaves_rough_cofactor():
    p, q = 1_000_003, 1_000_033
    factors, cofactor = strip_small_factors(12 * p * q, bound=10**6)
    assert factors == [(2, 2), (3, 1)]
    assert cofactor == p * q


def test_strip_small_factors_reassembles():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randrange(1, 10**12)
        factors, cofactor = strip_small_factors(n, bound=10**4)
        product = cofactor
        for p, e in factors:
            assert trial_division_is_prime(p)
            assert p <= 10**4
            product *= p**e
        assert product == n
        for p in (2, 3, 5, 7, 11):
            assert cofactor % p != 0 or p > 10**4

