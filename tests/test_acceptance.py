"""Acceptance criteria for the certification library.

Each test realises one numbered criterion at its stated tolerance (exact
values, stated runtime caps) and prints a single pass line; a failure of any
assertion is a failure of the criterion.
"""

import random
import time
from fractions import Fraction
from math import gcd

from k3hasse.arith import probable_prime, strip_small_factors
from k3hasse.badred import is_bad_prime, singular_points
from k3hasse.brauer import (
    bm_verdict,
    build_invariant_profile,
    evaluate_invariant,
    find_local_point,
    sample_local_points,
)
from k3hasse.finitefield import prime_field
from k3hasse.localfield import (
    INV_HALF,
    INV_ZERO,
    Place,
    hilbert_symbol,
    invariant_sum,
    padic_square,
)
from k3hasse.picard import (
    CountSeries,
    count_series,
    find_tritangent,
    frobenius_charpoly,
    unit_root_bound,
)
from k3hasse.pipeline import expected_normalized_charpoly, verify_example
from k3hasse.poly import ModP, Residues, TernaryForm, code_mul, monomials_of_degree
from .oracles import UniPoly, conic_locally_soluble, count_points_naive, element_field, squarefree_decomposition, upow
from .test_picard import _forward_power_sums, _random_weil_factors


def _report(criterion: str, elapsed: float, limit: float):
    print(f"\n[criterion {criterion}] PASS in {elapsed:.2f}s (limit {limit:.0f}s)")
    assert elapsed < limit, f"criterion {criterion} exceeded its {limit}s budget"


def test_criterion_1_table1_reproduction(example_surface, fixtures):
    """Every row of the local-point table, found at box 1 and certified."""
    t0 = time.time()
    expected = {
        2: 57872, 3: 1622952, 5: 736256, 7: 256575, 11: 736256, 13: 736256,
        17: 1622952, 19: 736256, 89: 80019, 173: 256575, 257: 736256,
        263: 256575, 650779: 1622952,
        fixtures.prime66: 736256, fixtures.gcd_printed: 736256,
    }
    assert len(expected) == 15
    for p, want in expected.items():
        pt = find_local_point(example_surface, Place.finite(p), box=1)
        assert pt is not None, p
        assert pt.value == want, (p, pt.value, want)
        assert padic_square(pt.value, p)
    _report("1: Table 1 reproduction", time.time() - t0, 1.0)


def test_criterion_2_count_series(example_sextic, fixtures):
    """N_1..N_6 exactly, single-threaded, under ten seconds."""
    t0 = time.time()
    series = count_series(example_sextic, 3, 6)
    assert tuple(series.counts) == (7, 79, 703, 6607, 60427, 532711)
    assert tuple(series.counts) == fixtures.counts[:6]
    _report("2: count series N_1..N_6", time.time() - t0, 10.0)


def test_criterion_2_full_count(example_sextic, fixtures):
    """N_1..N_10 exactly, recomputed to F_3^10 (hour-scale budget)."""
    t0 = time.time()
    series = count_series(example_sextic, 3, 10)
    assert tuple(series.counts) == fixtures.counts
    assert tuple(series.counts[6:]) == (4792690, 43068511, 387466417, 3486842479)
    _report("2 (full): count series N_7..N_10", time.time() - t0, 3600.0)


def test_criterion_3_charpoly(fixtures):
    """Sign -1, the printed normalized polynomial exactly, bound 2."""
    t0 = time.time()
    series = CountSeries.from_counts(3, list(fixtures.counts))
    fd = frobenius_charpoly(series)
    assert fd.sign == -1
    assert fd.normalized == expected_normalized_charpoly()
    assert unit_root_bound(fd) == 2
    _report("3: Frobenius charpoly", time.time() - t0, 1.0)


def test_criterion_4_tritangents(example_sextic):
    """The tritangent line mod 3 and its absence mod 11."""
    t0 = time.time()
    line = find_tritangent(example_sextic, 3)
    assert line == (1, 0, 2)  # x0 + 2 x2 = 0, i.e. 2 x0 + x2 = 0
    assert find_tritangent(example_sextic, 11) is None
    _report("4: tritangent detection", time.time() - t0, 5.0)


def test_criterion_5_factorization_chain(fixtures):
    """The printed decompositions, the Euclid gcd, primality, reassembly."""
    t0 = time.time()
    factors_m, m_prime = strip_small_factors(fixtures.m)
    assert factors_m == [(2, 8), (5, 2), (7, 1), (89, 1), (173, 1), (257, 2), (263, 1), (650779, 2)]
    factors_n, n_prime = strip_small_factors(fixtures.n)
    assert factors_n == [(2, 11), (5, 2), (7, 1), (89, 1), (173, 1), (263, 1), (461, 2), (6547, 2)]
    g = gcd(m_prime, n_prime)
    assert g == fixtures.gcd_printed
    assert probable_prime(g)
    assert probable_prime(fixtures.prime66)
    product = 1
    for p, e in factors_m:
        product *= p**e
    assert product * g * fixtures.prime66**2 == fixtures.m
    _report("5: factorization chain", time.time() - t0, 5.0)


def test_criterion_6_bad_primes(example_sextic, fixtures):
    """All ten listed primes bad (big ones via modular resultants), the spot
    checks good, nodal singular loci at 5 and 7."""
    t0 = time.time()
    for p in fixtures.bad_primes:
        if p == 2:
            continue
        assert is_bad_prime(example_sextic, p), p
    for p in (3, 11, 13):
        assert not is_bad_prime(example_sextic, p), p
    for p in (5, 7):
        rep = singular_points(example_sextic, p, 6)
        assert rep.all_nodes_and_r_lt8
        assert rep.r < 8
        assert all(pt.kind == "node" for pt in rep.points)
    _report("6: bad primes", time.time() - t0, 30.0)


def test_criterion_7_invariant_profile(example_surface, example_sextet, fixtures):
    """1/2 at 25 real points, 0 at 25 2-adic points and at every finite
    witness; the assembled profile certifies the obstruction."""
    t0 = time.time()
    real = Place.real()
    real_pts = sample_local_points(example_surface, real, 25)
    assert len(real_pts) == 25
    assert all(evaluate_invariant(example_sextet, P, real) == INV_HALF for P in real_pts)
    two = Place.finite(2)
    two_pts = sample_local_points(example_surface, two, 25)
    assert len(two_pts) == 25
    assert all(evaluate_invariant(example_sextet, P, two) == INV_ZERO for P in two_pts)
    for p in fixtures.bad_primes + (3, 7, 11, 13, 17, 19):
        place = Place.finite(p)
        pt = find_local_point(example_surface, place, box=1)
        assert evaluate_invariant(example_sextet, pt, place) == INV_ZERO, p
    profile = build_invariant_profile(example_surface, fixtures.bad_primes)
    assert bm_verdict(profile) == "obstruction"
    _report("7: invariant profile", time.time() - t0, 60.0)


def test_criterion_8_property_suites(example_sextic):
    """Product formula (200 pairs), conic-oracle agreement (odd p <= 13),
    naive-versus-orbit counts, charpoly round trips, squarefree reassembly
    and irreducible-factor reassembly."""
    t0 = time.time()
    rng = random.Random(2024)

    # Hilbert product formula on 200 random pairs
    def support(a, b):
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

    for _ in range(200):
        a = Fraction(rng.randrange(1, 80) * rng.choice([1, -1]), rng.randrange(1, 25))
        b = Fraction(rng.randrange(1, 80) * rng.choice([1, -1]), rng.randrange(1, 25))
        assert invariant_sum(hilbert_symbol(a, b, pl) for pl in support(a, b)) == 0

    # closed form versus the lifting-aware conic search
    for p in (3, 5, 7, 11, 13):
        for _ in range(12):
            a = rng.randrange(1, 51) * rng.choice([1, -1])
            b = rng.randrange(1, 51) * rng.choice([1, -1])
            assert (hilbert_symbol(a, b, Place.finite(p)) == INV_ZERO) == conic_locally_soluble(a, b, p)

    # naive vs orbit counts at p = 3, n <= 4, ten random sextics
    mons = monomials_of_degree(6)
    for _ in range(10):
        f = TernaryForm(6, {m: rng.randrange(0, 3) for m in mons})
        if f.is_zero():
            f = TernaryForm(6, {(6, 0, 0): 1})
        series = count_series(f, 3, 4)
        for n in range(1, 5):
            assert series.counts[n - 1] == count_points_naive(f, 3, n)

    # charpoly round trip on 50 synthetic eigenvalue multisets
    from k3hasse.picard import SignAmbiguous

    for _ in range(50):
        factors = _random_weil_factors(rng, 3)
        poly, sums = _forward_power_sums(factors, 3, 22)
        counts = [int(s) + 1 + 3 ** (2 * k) for k, s in enumerate(sums, start=1)]
        fd = None
        for feed in (10, 11, 12, 14, 22):
            try:
                fd = frobenius_charpoly(CountSeries.from_counts(3, counts[:feed]))
                break
            except SignAmbiguous:
                continue
        assert fd is not None and fd.coefficients == poly

    # squarefree reassembly on 100 random univariates, by the oracle's
    # decomposition and by the library's factoring on codes
    from k3hasse.finitefield import fq, irreducible_factors

    fields = [element_field(fq(p, n)) for p, n in ((3, 1), (3, 2), (5, 1), (7, 1))]
    ariths = [ModP(f.characteristic) if f.degree == 1 else Residues(ModP(f.characteristic), list(f.lib.modulus))
              for f in fields]

    def code(field, c):
        """The code of c in the arithmetic of ``ariths``: an int of F_p, or
        the digit list of a residue."""
        p, k = field.characteristic, field.encode(c)
        if field.degree == 1:
            return k
        digits = [k // p**i % p for i in range(field.degree)]
        while digits and not digits[-1]:
            digits.pop()
        return digits

    for i in range(100):
        field = fields[i % len(fields)]
        deg = rng.randrange(1, 4)
        base = UniPoly([field.decode(rng.randrange(field.order)) for _ in range(deg)]
                       + [field.decode(rng.randrange(1, field.order))])
        g = upow(base, rng.randrange(1, 4))
        extra = UniPoly([field.decode(rng.randrange(field.order)) for _ in range(2)]
                        + [field.one])
        g = g * extra
        product = UniPoly([field.one])
        for fac, mult in squarefree_decomposition(g):
            product = product * upow(fac, mult)
        assert product == g.monic()
        K, codes = ariths[i % len(fields)], [code(field, c) for c in g.monic().coeffs]
        product = [K.one]
        for irr, mult in irreducible_factors(K, codes):
            for _ in range(mult):
                product = code_mul(K, product, irr)
        assert product == codes

    _report("8: property suites", time.time() - t0, 120.0)


def test_criterion_9_end_to_end():
    """verify_example at default depth certifies the obstruction with every
    fixture leg green."""
    t0 = time.time()
    report = verify_example()
    assert report.verdict == "obstruction certified"
    assert report.rank == 1
    assert report.charpoly_sign == -1
    assert report.unit_root_bound == 2
    assert report.invariant_total == "1/2"
    assert report.counts_recomputed_to == 6
    assert len(report.local_witnesses) == 16
    assert len(report.singular_analysis) == 9
    _report("9: end-to-end verification", time.time() - t0, 300.0)
