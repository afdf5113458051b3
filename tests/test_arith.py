import random

import pytest

from k3hasse.arith import probable_prime, strip_small_factors
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

