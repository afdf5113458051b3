import random
from fractions import Fraction

import pytest

from k3hasse import poly
from k3hasse.finitefield import fq
from k3hasse.poly import (
    GCD_CERTIFICATE_PRIME,
    ProjLine,
    TernaryForm,
    UniPoly,
    int_poly_gcd,
    monomials_of_degree,
    poly_gcd,
    restrict_to_line,
    resultant,
    squarefree_decomposition,
)
from k3hasse.surface import reduce_mod
from .oracles import sylvester_resultant


def frac_poly(*coeffs):
    return UniPoly([Fraction(c) for c in coeffs])


def test_resultant_convention_examples():
    a, b = 3, 7
    assert resultant(UniPoly([-a, 1]), UniPoly([-b, 1])) == a - b
    assert resultant(UniPoly([1, 0, 1]), UniPoly([-1, 0, 1])) == 4
    # Res(f, f') for f = x^2 + bx + c is -(b^2 - 4c)
    bb, cc = 5, 3
    f = UniPoly([cc, bb, 1])
    assert resultant(f, f.derivative()) == -(bb * bb - 4 * cc)


def test_resultant_matches_sylvester_determinant():
    rng = random.Random(3)
    for _ in range(60):
        df = rng.randrange(1, 5)
        dg = rng.randrange(1, 5)
        f = [rng.randrange(-6, 7) for _ in range(df)] + [rng.randrange(1, 5)]
        g = [rng.randrange(-6, 7) for _ in range(dg)] + [rng.randrange(1, 5)]
        got = resultant(UniPoly(f), UniPoly(g))
        assert Fraction(got) == sylvester_resultant(f, g)


def test_resultant_swap_symmetry():
    rng = random.Random(5)
    for _ in range(40):
        df = rng.randrange(1, 5)
        dg = rng.randrange(1, 5)
        f = UniPoly([Fraction(rng.randrange(-5, 6)) for _ in range(df)] + [Fraction(rng.randrange(1, 4))])
        g = UniPoly([Fraction(rng.randrange(-5, 6)) for _ in range(dg)] + [Fraction(rng.randrange(1, 4))])
        sign = -1 if (f.degree % 2 and g.degree % 2) else 1
        assert resultant(f, g) == sign * resultant(g, f)


def test_int_poly_gcd_certificate_needs_unit_leading_coefficients():
    """(P x + 1)(x + 3) and (P x + 1)(x + 5), P = 2^61 - 1, are coprime mod P,
    where both reduce to degree 1, but share P x + 1 over Z."""
    P = GCD_CERTIFICATE_PRIME
    h = UniPoly([1, P])
    f, g = h * UniPoly([3, 1]), h * UniPoly([5, 1])
    assert int_poly_gcd(f, g) == h
    assert int_poly_gcd(f.scale(6), g.scale(-4)) == h.scale(2)
    assert int_poly_gcd(f, UniPoly([3, 1]) * UniPoly([7, 1])) == UniPoly([3, 1])


def test_int_poly_gcd_certificate_agrees_with_the_prs_gcd(monkeypatch):
    """Random integer polynomials with a common factor h (often 1) and big
    coefficients: the gcd with the certificate equals the gcd from the
    subresultant remainder sequence alone."""
    rng = random.Random(29)

    def rand(deg, digits):
        bound = 10**digits
        return UniPoly([rng.randrange(-bound, bound) for _ in range(deg)] + [rng.randrange(1, bound)])

    cases = []
    for k in range(80):
        h = rand(rng.randrange(0, 4), 3) if k % 2 else UniPoly([rng.randrange(1, 50)])
        f = h * rand(rng.randrange(0, 6), rng.choice((2, 40, 300)))
        g = h * rand(rng.randrange(0, 6), rng.choice((2, 40, 300)))
        got = int_poly_gcd(f, g)
        assert got.degree >= h.degree
        cases.append((f, g, got))
    certified = sum(got.degree == 0 for _f, _g, got in cases)
    monkeypatch.setattr(poly, "code_gcd_degree", lambda A, f, g: 1)  # never certify
    for f, g, got in cases:
        assert int_poly_gcd(f, g) == got
    assert certified > 20


def test_squarefree_examples():
    g = frac_poly(1, 0, 1) ** 2 * frac_poly(-1, 1)
    dec = squarefree_decomposition(g)
    assert (frac_poly(-1, 1), 1) in dec
    assert (frac_poly(1, 0, 1), 2) in dec

    F3 = fq(3, 1)
    one, zero = F3.one, F3.zero
    t6p1 = UniPoly([one, zero, zero, zero, zero, zero, one])
    dec = squarefree_decomposition(t6p1)
    assert len(dec) == 1
    fac, mult = dec[0]
    assert mult == 3 and fac == UniPoly([one, zero, one])

    g = frac_poly(2, 0, 0, 1)  # squarefree cubic
    assert squarefree_decomposition(g) == [(g.monic(), 1)]


def _random_field_poly(rng, field, degree):
    coeffs = [field.decode(rng.randrange(field.order)) for _ in range(degree)]
    coeffs.append(field.decode(rng.randrange(1, field.order)))
    return UniPoly(coeffs)


@pytest.mark.parametrize("p,n", [(3, 1), (3, 2), (5, 1), (7, 1)])
def test_squarefree_reassembles_over_finite_fields(p, n):
    rng = random.Random(100 * p + n)
    field = fq(p, n)
    for _ in range(25):
        g = _random_field_poly(rng, field, rng.randrange(1, 4))
        # force interesting multiplicities, including wild p-th powers
        g = g ** rng.randrange(1, 4) * _random_field_poly(rng, field, rng.randrange(1, 3))
        dec = squarefree_decomposition(g)
        product = UniPoly.const(field.one)
        for fac, mult in dec:
            assert fac == fac.monic()
            product = product * fac**mult
        assert product == g.monic()
        for i in range(len(dec)):
            for j in range(i + 1, len(dec)):
                assert poly_gcd(dec[i][0], dec[j][0]).degree == 0


def test_evaluate_is_ring_homomorphism():
    rng = random.Random(17)
    for _ in range(20):
        d = rng.randrange(1, 4)
        mons = monomials_of_degree(d)
        f = TernaryForm(d, {m: rng.randrange(-5, 6) for m in mons})
        g = TernaryForm(d, {m: rng.randrange(-5, 6) for m in mons})
        pt = tuple(rng.randrange(-4, 5) for _ in range(3))
        assert (f + g).evaluate(pt) == f.evaluate(pt) + g.evaluate(pt)
        assert (f * g).evaluate(pt) == f.evaluate(pt) * g.evaluate(pt)


def test_restrict_to_line_substitution_examples():
    one = Fraction(1)
    x0_6 = TernaryForm(6, {(6, 0, 0): one})
    # line x2 = 0, parametrized [s : t : 0]: restriction is s^6
    g, inf = restrict_to_line(x0_6, ProjLine(Fraction(0), Fraction(0), one))
    assert g == UniPoly([one]) and inf == 0
    # line x0 = 0: restriction vanishes identically
    g, inf = restrict_to_line(x0_6, ProjLine(one, Fraction(0), Fraction(0)))
    assert g.is_zero() and inf == 0


def test_restrict_matches_pointwise_evaluation():
    rng = random.Random(23)
    for _ in range(20):
        f = TernaryForm(
            4, {m: Fraction(rng.randrange(-5, 6)) for m in monomials_of_degree(4)}
        )
        line = ProjLine(
            Fraction(rng.randrange(0, 2)),
            Fraction(rng.randrange(-2, 3)),
            Fraction(rng.randrange(1, 3)),
        )
        g, _ = restrict_to_line(f, line)
        from k3hasse.poly import line_parametrization

        ps, pt = line_parametrization(line)
        t = Fraction(rng.randrange(-5, 6))
        point = tuple(a + t * b for a, b in zip(ps, pt))
        assert g.evaluate(t) == f.evaluate(point)


def test_example_restriction_mod3_is_square_times_constant(example_sextic):
    F3 = fq(3, 1)
    f3 = reduce_mod(example_sextic, F3)
    line = ProjLine(F3.from_int(2), F3.zero, F3.one)  # 2 x0 + x2 = 0
    g, _inf = restrict_to_line(f3, line)
    assert not g.is_zero()
    assert all(m % 2 == 0 for _, m in squarefree_decomposition(g))


def test_projline_normalization():
    F3 = fq(3, 1)
    assert ProjLine(F3.from_int(2), F3.zero, F3.one) == ProjLine(
        F3.one, F3.zero, F3.from_int(2)
    )
    with pytest.raises(ValueError):
        ProjLine(Fraction(0), Fraction(0), Fraction(0))


def test_ternary_serialization_order():
    # quadratic order [x0^2, x0x1, x0x2, x1^2, x1x2, x2^2]
    assert monomials_of_degree(2) == [
        (2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2),
    ]
    assert len(monomials_of_degree(6)) == 28
    form = TernaryForm.from_coefficients(2, [1, 2, 3, 4, 5, 6])
    assert form.coefficients() == [1, 2, 3, 4, 5, 6]
