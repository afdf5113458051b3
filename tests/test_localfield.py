import random
import re
from fractions import Fraction

import pytest

from k3hasse import arith
from k3hasse.localfield import (
    INV_HALF,
    INV_ZERO,
    Place,
    hilbert_symbol,
    invariant_sum,
    jacobi_symbol,
    padic_square,
    padic_valuation,
)
from .oracles import (
    conic_locally_soluble,
    exhaustive_padic_square,
    legendre_euler,
    trial_division_is_prime,
)


def test_padic_square_examples():
    assert padic_square(57872, 2)  # 2^4 * 3617, 3617 = 1 mod 8
    assert exhaustive_padic_square(57872, 2)
    assert not padic_square(2, 2)
    assert padic_square(736256, 5)
    assert exhaustive_padic_square(736256, 5, extra=2)
    with pytest.raises(ValueError):
        padic_square(0, 5)


def test_padic_square_matches_exhaustive_oracle():
    rng = random.Random(3)
    for p in (2, 3, 5):
        for _ in range(60):
            a = rng.randrange(1, 2000) * rng.choice([1, -1])
            want = exhaustive_padic_square(a, p)
            assert padic_square(a, p) == want, (a, p)


def test_padic_square_on_rationals():
    assert padic_square(Fraction(1, 4), 2)
    assert not padic_square(Fraction(1, 2), 2)
    assert padic_square(Fraction(4, 9), 3)


def test_hilbert_symbol_examples():
    assert hilbert_symbol(-1, -1, Place.real()) == INV_HALF
    for b in (2, -3, 7, 100):
        assert hilbert_symbol(1, b, Place.finite(5)) == INV_ZERO
        assert hilbert_symbol(1, b, Place.real()) == INV_ZERO
    assert hilbert_symbol(2, 3, Place.finite(3)) == INV_HALF
    assert not conic_locally_soluble(2, 3, 3)


def test_hilbert_symbol_bimultiplicative():
    rng = random.Random(5)
    places = [Place.real()] + [Place.finite(p) for p in (2, 3, 5, 7, 11, 13, 97)]
    small = [-10, -7, -5, -3, -2, -1, 1, 2, 3, 5, 7, 10]
    for _ in range(80):
        a = Fraction(rng.choice(small), rng.choice([1, 2, 3, 5]))
        a2 = Fraction(rng.choice(small), rng.choice([1, 2, 3, 5]))
        b = Fraction(rng.choice(small), rng.choice([1, 2, 3, 5]))
        place = rng.choice(places)
        lhs = hilbert_symbol(a * a2, b, place)
        rhs = (hilbert_symbol(a, b, place) + hilbert_symbol(a2, b, place)) % 1
        assert lhs == rhs


def test_hilbert_symbol_standard_relations():
    rng = random.Random(7)
    places = [Place.real()] + [Place.finite(p) for p in (2, 3, 5, 7, 13)]
    for _ in range(40):
        a = Fraction(rng.randrange(-20, 21) or 3, rng.randrange(1, 5))
        place = rng.choice(places)
        assert hilbert_symbol(a, -a, place) == INV_ZERO
        if a != 1:
            assert hilbert_symbol(a, 1 - a, place) == INV_ZERO


def _support_places(a: Fraction, b: Fraction):
    primes = {2}
    for x in (a, b):
        for n in (abs(x.numerator), x.denominator):
            d = 2
            while d * d <= n:
                if n % d == 0:
                    primes.add(d)
                    while n % d == 0:
                        n //= d
                d += 1
            if n > 1:
                primes.add(n)
    return [Place.real()] + [Place.finite(p) for p in sorted(primes)]


def test_product_formula():
    rng = random.Random(11)
    for _ in range(200):
        a = Fraction(rng.randrange(1, 60) * rng.choice([1, -1]), rng.randrange(1, 20))
        b = Fraction(rng.randrange(1, 60) * rng.choice([1, -1]), rng.randrange(1, 20))
        total = invariant_sum(
            hilbert_symbol(a, b, place) for place in _support_places(a, b)
        )
        assert total == 0, (a, b)


def test_symbol_matches_conic_solubility_oracle():
    rng = random.Random(13)
    for p in (3, 5, 7, 11, 13):
        for _ in range(25):
            a = rng.randrange(1, 51) * rng.choice([1, -1])
            b = rng.randrange(1, 51) * rng.choice([1, -1])
            soluble = conic_locally_soluble(a, b, p)
            symbol = hilbert_symbol(a, b, Place.finite(p))
            assert (symbol == INV_ZERO) == soluble, (a, b, p)


def test_jacobi_symbol_matches_euler_for_every_residue_of_small_primes():
    for p in range(3, 200, 2):
        if trial_division_is_prime(p):
            for a in range(p):
                assert jacobi_symbol(a, p) == legendre_euler(a, p), (a, p)


def test_jacobi_symbol_matches_euler_at_the_big_bad_primes(fixtures):
    rng = random.Random(17)
    prime186 = fixtures.bad_primes[-1]
    assert len(str(fixtures.prime66)) == 66 and len(str(prime186)) == 186
    for p in (fixtures.prime66, prime186):
        for _ in range(500):
            for a in (rng.randrange(-10**6, 10**6), rng.randrange(p)):
                assert jacobi_symbol(a, p) == legendre_euler(a, p), (a, p)


def test_jacobi_symbol_negative_and_zero_residues(fixtures):
    for p in (3, 5, 7, 11, 13, 89, 650779, fixtures.prime66, fixtures.bad_primes[-1]):
        assert jacobi_symbol(0, p) == jacobi_symbol(p, p) == jacobi_symbol(-7 * p, p) == 0
        # (-1/p) = -1 iff p = 3 mod 4
        assert jacobi_symbol(-1, p) == legendre_euler(-1, p) == (-1 if p % 4 == 3 else 1)
        for a in (-2, -3, -12, -(10**40) - 1):
            assert jacobi_symbol(a, p) == jacobi_symbol(a + 5 * p, p) == legendre_euler(a, p)


def test_jacobi_symbol_is_multiplicative_in_the_modulus():
    """For odd composite n the symbol is the product of the Legendre symbols
    of the prime factors of n, with multiplicity: the moduli the strong Lucas
    test of ``arith`` hands it.  ``localfield`` serves the same function."""
    assert jacobi_symbol is arith.jacobi_symbol
    for n in range(1, 500, 2):
        factors, m, d = [], n, 3
        while m > 1:
            while m % d == 0:
                factors.append(d)
                m //= d
            d += 2
        for a in range(-n, 2 * n):
            want = 1
            for q in factors:
                want *= legendre_euler(a, q)
            assert jacobi_symbol(a, n) == want, (a, n)
    for n in (0, -3, 2, 10):
        with pytest.raises(ValueError):
            jacobi_symbol(1, n)


def test_square_tests_at_the_big_bad_primes_match_euler(fixtures):
    """padic_square and the tame Hilbert symbol read their residues by
    reciprocity; Euler's criterion gives the same answers."""
    rng = random.Random(19)
    for p in (fixtures.prime66, fixtures.bad_primes[-1]):
        place = Place.finite(p)
        for _ in range(50):
            u = rng.randrange(1, 10**9) * rng.choice([1, -1])
            v = rng.randrange(1, 10**9) * rng.choice([1, -1])
            square = legendre_euler(u, p) == 1
            assert padic_square(u, p) == padic_square(u * p * p, p) == square
            assert not padic_square(u * p, p)
            assert padic_square(Fraction(u, v * v), p) == square
            assert hilbert_symbol(u, v, place) == INV_ZERO
            want = INV_ZERO if legendre_euler(v, p) == 1 else INV_HALF
            assert hilbert_symbol(u * p, v, place) == want


def test_place_validation_and_order():
    with pytest.raises(ValueError):
        Place.finite(6)
    assert Place.real() < Place.finite(2) < Place.finite(3)


@pytest.mark.parametrize("p", [False, 0.0, 2.0, None, "0"])
def test_a_place_is_an_int_and_no_bool(p):
    """False and 0.0 equal 0, the real place, but are refused by type."""
    with pytest.raises(TypeError, match=re.escape(f"a place needs an integer, not {p!r}") + "$"):
        Place(p)


@pytest.mark.parametrize("p", [1, -1, -3, 4, -7, 9])
def test_a_place_other_than_0_is_a_prime(p):
    """1 and negative numbers are not prime, and say so; they never reach
    the Miller-Rabin test's n > 1 requirement."""
    with pytest.raises(ValueError, match=re.escape(f"{p} is not prime") + "$"):
        Place(p)
    assert Place(0).is_real and Place(0) == Place.real() and not Place(2).is_real


@pytest.mark.parametrize("p", [1, -1, 0, 9, 2.0, True, None])
def test_a_p_that_is_not_prime_is_refused_at_once(p):
    """p = 1 and p = -1 divide every integer, so stripping them never ended;
    9 is no prime, and 2.0 and True are no ints.  ``hilbert_symbol`` takes
    its prime as a ``Place``, which checks it."""
    for call in (lambda: padic_valuation(5, p), lambda: padic_square(5, p)):
        with pytest.raises(ValueError, match=re.escape(f"needs a prime p, not {p!r}") + "$"):
            call()
    with pytest.raises(TypeError, match=re.escape(f"needs a Place, not {p!r}") + "$"):
        hilbert_symbol(2, 3, p)


@pytest.mark.parametrize("a", [0.5, 2.0, True, False, None, "4"])
def test_an_entry_that_is_not_an_int_or_a_fraction_is_refused(a):
    """0.5 is no reading of 1/2, and True no reading of 1: no float or bool
    decides anything."""
    message = re.escape(f"needs an int or a Fraction, not {a!r}") + "$"
    for call in (
        lambda: padic_valuation(a, 3),
        lambda: padic_square(a, 3),
        lambda: hilbert_symbol(a, 3, Place.finite(3)),
        lambda: hilbert_symbol(3, a, Place.real()),
    ):
        with pytest.raises(TypeError, match=message):
            call()


def test_int_entries_agree_with_their_fractions(fixtures):
    """The int path reads the same valuations and residues as the same value
    passed as a Fraction, and the exhaustive oracle where it reaches, at
    small primes and at the 66- and 186-digit bad primes."""
    rng = random.Random(23)
    big = (fixtures.prime66, fixtures.bad_primes[-1])
    for p in (2, 3, 5, 7, 89) + big:
        place = Place.finite(p)
        for _ in range(40):
            a = rng.choice([1, -1]) * rng.randrange(1, 10**6) * p ** rng.randrange(3)
            b = rng.choice([1, -1]) * rng.randrange(1, 10**6) * p ** rng.randrange(3)
            v, unit = padic_valuation(a, p)
            assert type(unit) is Fraction and unit * Fraction(p) ** v == a
            assert padic_valuation(Fraction(a), p) == (v, unit)
            square = padic_square(a, p)
            assert square == padic_square(Fraction(a), p), (a, p)
            extra = 3 if p == 2 else 1  # a unit square mod p lifts for odd p
            if p not in big and p ** (v + extra) < 10**5:
                assert square == exhaustive_padic_square(a, p, extra), (a, p)
            assert hilbert_symbol(a, b, place) == hilbert_symbol(Fraction(a), Fraction(b), place), (a, b, p)
