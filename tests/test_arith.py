import random
import re
from math import prod

import numpy as np
import pytest

from k3hasse import arith
from k3hasse.arith import probable_prime, strip_small_factors
from k3hasse.finitefield import fq, prime_field
from k3hasse.localfield import Place
from .oracles import primes_up_to_bytearray, strip_small_factors_loop, trial_division_is_prime

PSI_12 = 318_665_857_834_031_151_167_461  # 399165290221 * 798330580441
PSI_13 = 3_317_044_064_679_887_385_961_981


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


@pytest.mark.parametrize(
    "gate", [prime_field, Place, lambda p: fq(p, 2)], ids=["prime_field", "Place", "fq"]
)
@pytest.mark.parametrize("p", [3.0, 5.0, True], ids=["3.0", "5.0", "True"])
def test_a_prime_that_is_not_an_int_is_refused_by_type(gate, p):
    """3.0 == 3 with one hash, so a memo keyed by value alone, such as
    fq's on (p, n), would answer (3.0, 2) with the F_9 it holds for (3, 2);
    5.0 would reach the Miller-Rabin rounds, and True == 1.  Each is
    refused, after 3 and 5 are memoised, with a TypeError that names it."""
    for prime in (3, 5):
        gate(prime)
        assert probable_prime(prime)
    with pytest.raises(TypeError, match=re.escape(f"needs an integer, not {p!r}") + "$"):
        gate(p)


def test_probable_prime_matches_trial_division_densely():
    for n in range(2, 5000):
        assert probable_prime(n) == trial_division_is_prime(n), n


def test_probable_prime_matches_trial_division_sampled():
    rng = random.Random(7)
    for _ in range(2000):
        n = rng.randrange(2, 10**6)
        assert probable_prime(n) == trial_division_is_prime(n), n


def test_probable_prime_is_deterministic_up_to_psi_13():
    """psi_12, a strong pseudoprime to the twelve prime bases up to 37, lies
    below the deterministic bound psi_13; base 41 exposes it."""
    assert arith._DETERMINISTIC_BOUND == PSI_13
    assert arith._miller_rabin(PSI_12, arith._DETERMINISTIC_WITNESSES[:12])
    assert not probable_prime(PSI_12)


def _witness_rounds(monkeypatch, n: int) -> list[int]:
    """The bases the memo-free probable_prime(n) tries, in order."""
    bases = []
    witness = arith._miller_rabin_witness

    def counted(n, a):
        bases.append(a)
        return witness(n, a)

    monkeypatch.setattr(arith, "_miller_rabin_witness", counted)
    probable_prime.cache_clear()
    assert probable_prime(n)
    return bases


def test_probable_prime_round_counts(fixtures, fresh_memos, monkeypatch):
    """The 186-digit gcd(m', n') passes exactly 64 Miller-Rabin rounds, and a
    prime in [psi_12, psi_13) passes the 13 fixed bases."""
    assert len(_witness_rounds(monkeypatch, fixtures.gcd_printed)) == 64
    least_prime_above_psi_12 = PSI_12 + 22
    bases = _witness_rounds(monkeypatch, least_prime_above_psi_12)
    assert bases == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41]


def test_probable_prime_explicit_witnesses_are_deterministic():
    # 2047 = 23 * 89 is a strong pseudoprime to base 2 only
    assert arith._miller_rabin(2047, [2])
    assert not arith._miller_rabin(2047, [2, 3])


def test_probable_prime_tests_each_number_once(fixtures, monkeypatch):
    """Places on the 66-digit prime, built twice, and a second test of it run
    the Miller-Rabin rounds once."""
    calls = []
    miller_rabin = arith._miller_rabin

    def counted(n, witnesses):
        calls.append(n)
        return miller_rabin(n, witnesses)

    monkeypatch.setattr(arith, "_miller_rabin", counted)
    probable_prime.cache_clear()
    Place.finite(fixtures.prime66)
    Place.finite(fixtures.prime66)
    assert probable_prime(fixtures.prime66)
    assert calls == [fixtures.prime66]


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
        assert primes_up_to(bound).tolist() == [p for p in naive if p <= bound], bound


def test_primes_up_to_a_million():
    primes = arith._primes_up_to.__wrapped__(10**6)
    assert len(primes) == 78_498
    assert primes[-1] == 999_983
    assert primes[:5].tolist() == [2, 3, 5, 7, 11]


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



def _limb_width(bound: int) -> int:
    """The Horner limb width k = 64 - bit_length(largest prime <= bound)."""
    return 64 - int(arith._primes_up_to.__wrapped__(bound)[-1]).bit_length()


def test_primes_up_to_matches_the_bytearray_sieve():
    for bound in (2, 3, 10**6, 1 << 21):
        primes = arith._primes_up_to.__wrapped__(bound)
        assert primes.dtype == np.uint64 and not primes.flags.writeable
        assert primes.tolist() == list(primes_up_to_bytearray(bound)), bound


def test_residues_are_exact_at_each_limb_width():
    """Every residue of the Horner sweep equals Python's n % p, where the limb
    width changes between bounds 2^20 and 2^21 (k = 44 and 43)."""
    assert (_limb_width(1 << 20), _limb_width(1 << 21)) == (44, 43)
    rng = random.Random(5)
    for bound in (2, 3, 1 << 20, 1 << 21):
        primes = arith._primes_up_to.__wrapped__(bound)
        for n in (1, (1 << 64) - 1, rng.getrandbits(3000) | 1 << 2999):
            assert arith._residues(n, primes).tolist() == [n % p for p in primes.tolist()]


def test_strip_small_factors_matches_the_loop_on_m_and_n(fixtures):
    for n in (fixtures.m, fixtures.n):
        assert strip_small_factors(n) == strip_small_factors_loop(n)


def _planted(rng, bound: int, bits: int) -> int:
    """A random n of up to ``bits`` bits times three primes drawn within 200
    of the bound, on either side, the second of them squared."""
    primes = arith._primes_up_to.__wrapped__(bound + 200).tolist()
    near = [p for p in primes if p > bound - 200]
    n = max(rng.getrandbits(rng.randrange(1, bits)), 1)
    for i, p in enumerate(rng.sample(near, min(3, len(near)))):
        n *= p ** (1 + i % 2)
    return n


def test_strip_small_factors_matches_the_loop_with_planted_factors():
    rng = random.Random(13)
    for bound in (10**6, 1 << 20, 1 << 21):
        for _ in range(3):
            n = _planted(rng, bound, 3000)
            assert strip_small_factors(n, bound) == strip_small_factors_loop(n, bound)
    for bound in range(2, 2001):
        n = _planted(rng, bound, 200)
        assert strip_small_factors(n, bound) == strip_small_factors_loop(n, bound), bound


def test_strip_small_factors_keeps_a_prime_above_the_square_root():
    """A prime factor in (isqrt(n), bound] is left after the sieve stops at
    isqrt(n), and is reported as a factor, last."""
    for n, bound in ((6 * 999_983, 10**6), (999_983, 10**6), (2**5 * 3 * 1_048_573, 1 << 20)):
        factors, cofactor = strip_small_factors(n, bound)
        assert cofactor == 1 and factors[-1] == (n // prod(p**e for p, e in factors[:-1]), 1)
        assert (factors, cofactor) == strip_small_factors_loop(n, bound)
