import random
import re
from math import prod

import numpy as np
import pytest

from k3hasse import arith
from k3hasse.arith import probable_prime, strip_small_factors, strip_small_factors_pair
from k3hasse.finitefield import fq, prime_field
from k3hasse.localfield import Place
from .oracles import (
    miller_rabin_64,
    primes_up_to_bytearray,
    strip_small_factors_loop,
    trial_division_is_prime,
)

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


def _rounds(monkeypatch, n: int) -> tuple[list[int], list[int]]:
    """The Miller-Rabin bases and the strong Lucas tests the memo-free
    probable_prime(n) runs, in order."""
    bases, lucas = [], []
    witness, lucas_witness = arith._miller_rabin_witness, arith._strong_lucas_witness

    def counted(n, a):
        bases.append(a)
        return witness(n, a)

    def counted_lucas(n):
        lucas.append(n)
        return lucas_witness(n)

    monkeypatch.setattr(arith, "_miller_rabin_witness", counted)
    monkeypatch.setattr(arith, "_strong_lucas_witness", counted_lucas)
    probable_prime.cache_clear()
    assert probable_prime(n)
    return bases, lucas


def test_probable_prime_round_counts(fixtures, fresh_memos, monkeypatch):
    """The 186-digit gcd(m', n') runs Baillie-PSW: one base-2 round and one
    strong Lucas test.  A prime in [psi_12, psi_13) passes the 13 fixed
    bases and no Lucas test."""
    assert _rounds(monkeypatch, fixtures.gcd_printed) == ([2], [fixtures.gcd_printed])
    least_prime_above_psi_12 = PSI_12 + 22
    bases, lucas = _rounds(monkeypatch, least_prime_above_psi_12)
    assert bases == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41]
    assert lucas == []


def test_probable_prime_explicit_witnesses_are_deterministic():
    # 2047 = 23 * 89 is a strong pseudoprime to base 2 only
    assert arith._miller_rabin(2047, [2])
    assert not arith._miller_rabin(2047, [2, 3])


def test_probable_prime_tests_each_number_once(fixtures, monkeypatch):
    """Places on the 66-digit prime, built twice, and a second test of it run
    Baillie-PSW once."""
    calls = []
    baillie_psw = arith._baillie_psw

    def counted(n):
        calls.append(n)
        return baillie_psw(n)

    monkeypatch.setattr(arith, "_baillie_psw", counted)
    probable_prime.cache_clear()
    Place.finite(fixtures.prime66)
    Place.finite(fixtures.prime66)
    assert probable_prime(fixtures.prime66)
    assert calls == [fixtures.prime66]


def test_baillie_psw_agrees_with_64_rounds_just_above_psi_13(fresh_memos):
    """Every odd n in a window of 4000 above the deterministic bound, where
    Baillie-PSW takes over from the 13 fixed bases."""
    window = range(PSI_13 + 2, PSI_13 + 4002, 2)  # psi_13 is odd
    answers = [probable_prime(n) for n in window]
    assert answers == [miller_rabin_64(n) for n in window]
    assert 20 < sum(answers) < 200  # about 2/ln(psi_13) of them are prime


def _next_prime(n: int) -> int:
    n |= 1
    while not miller_rabin_64(n):
        n += 2
    return n


def test_baillie_psw_refuses_products_of_two_large_primes(fresh_memos):
    rng = random.Random(31)
    primes = [_next_prime(rng.randrange(10 ** (k - 1), 10**k)) for k in (30, 45, 60, 100)]
    for p in primes:
        assert p > PSI_13 and probable_prime(p)
    for i, p in enumerate(primes):
        for q in primes[i:]:
            assert not probable_prime(p * q) and not miller_rabin_64(p * q), (p, q)


#: k with 6k + 1, 12k + 1 and 18k + 1 all prime and their product above psi_13
CHERNICK_K = (13679106, 13679690, 13679815, 13680576)


def test_baillie_psw_refuses_chernick_carmichael_numbers(fresh_memos):
    """(6k + 1)(12k + 1)(18k + 1) with three prime factors is a Carmichael
    number, a Fermat pseudoprime to every base prime to it."""
    for k in CHERNICK_K:
        factors = (6 * k + 1, 12 * k + 1, 18 * k + 1)
        assert all(map(trial_division_is_prime, factors)), k
        n = prod(factors)
        assert n > PSI_13 and all(pow(a, n - 1, n) == 1 for a in (2, 3, 5))
        assert not probable_prime(n) and not miller_rabin_64(n), k


def test_baillie_psw_agrees_with_64_rounds_on_the_fixtures(fixtures, fresh_memos):
    """The 66-digit prime and the 186-digit gcd(m', n') pass both tests; the
    cofactors m' and n' fail both."""
    m_prime = strip_small_factors(fixtures.m)[1]
    n_prime = strip_small_factors(fixtures.n)[1]
    cases = {fixtures.prime66: True, fixtures.gcd_printed: True, m_prime: False, n_prime: False}
    for n, prime in cases.items():
        assert n > PSI_13 and probable_prime(n) is prime and miller_rabin_64(n) is prime


#: strong pseudoprimes to base 2 (OEIS A001262) and strong Lucas
#: pseudoprimes with Selfridge's parameters (OEIS A217255)
STRONG_BASE_2_PSEUDOPRIMES = (2047, 3277, 4033, 4681, 8321)
STRONG_LUCAS_PSEUDOPRIMES = (5459, 5777, 10877, 16109, 18971)


def test_each_half_of_baillie_psw_refuses_the_pseudoprimes_of_the_other():
    for n in STRONG_BASE_2_PSEUDOPRIMES:
        assert not arith._miller_rabin_witness(n, 2) and arith._strong_lucas_witness(n), n
    for n in STRONG_LUCAS_PSEUDOPRIMES:
        assert not arith._strong_lucas_witness(n) and arith._miller_rabin_witness(n, 2), n


def test_strong_lucas_alone_matches_trial_division_up_to_20000():
    """Below 20000 the Lucas half errs exactly at its five pseudoprimes."""
    wrong = [
        n
        for n in range(5, 20000, 2)
        if arith._strong_lucas_witness(n) == trial_division_is_prime(n)
    ]
    assert wrong == list(STRONG_LUCAS_PSEUDOPRIMES)


def test_strong_lucas_refuses_a_perfect_square_without_a_search(fixtures, fresh_memos, monkeypatch):
    """A square has (D/n) != -1 for every D, so the search for D would not
    end; it is refused first.  1093^2 is a strong base-2 pseudoprime."""
    monkeypatch.setattr(arith, "jacobi_symbol", None)
    for n in (fixtures.prime66**2, 1093**2, (PSI_13 + 1) ** 2):
        assert arith._strong_lucas_witness(n), n
    assert not arith._miller_rabin_witness(1093**2, 2)
    assert not probable_prime(fixtures.prime66**2)


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


def test_the_gcd_split_strips_each_integer_as_a_whole(fixtures):
    """Stripping gcd(m, n), m/gcd and n/gcd gives strip_small_factors of m
    and of n: on a shared prime with different multiplicities (2^8 | m,
    2^11 | n), coprime m and n, a gcd that is a small-prime power, a
    quotient of 1, quotients below 10^12 whose sieve stops at their square
    root, planted factors near the bound, and the shipped m and n."""
    rough = fixtures.prime66
    rng = random.Random(29)
    cases = [
        (2**8 * 5 * 999_983 * rough, 2**11 * 7 * rough**2),
        (2**3 * 999_983, 3**5 * 1_000_003 * rough),
        (2**8 * 5**2 * 1_000_003, 2**11 * 7 * rough),
        (2**4 * 89 * rough, 2**4 * 89**3 * rough),
        (2**4 * 89 * rough, 2**4 * 89 * rough),
        (rough * 6 * 999_983, rough * 13 * 1_000_003),
        (fixtures.m, fixtures.n),
    ]
    for _ in range(3):
        g = _planted(rng, 10**6, 600)
        cases.append((g * _planted(rng, 10**6, 300), g * _planted(rng, 10**6, 300)))
    for m, n in cases:
        assert strip_small_factors_pair(m, n) == [strip_small_factors(m), strip_small_factors(n)], (m, n)
