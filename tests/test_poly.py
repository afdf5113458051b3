import ast
import random
from fractions import Fraction
from pathlib import Path

import pytest

from k3hasse import poly
from k3hasse.finitefield import fq
from k3hasse.poly import (
    TernaryForm,
    code_divmod,
    code_gcd,
    code_gcdex,
    integer_resultant,
    monomials_of_degree,
)
from k3hasse.surface import reduce_mod
from .oracles import (
    ProjLine,
    UniPoly,
    element_arith,
    element_field,
    evaluate_termwise,
    line_parametrization,
    poly_gcd,
    poly_gcdex,
    restrict_to_line,
    resultant,
    squarefree_decomposition,
    sylvester_resultant,
    to_elements,
    upow,
)


def test_the_oracles_take_only_forms_from_the_library_poly():
    """The oracles' polynomials and gcds are their own: tests/oracles.py
    imports TernaryForm and FormModP from k3hasse.poly and nothing else."""
    tree = ast.parse(Path(__file__).with_name("oracles.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "k3hasse.poly":
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module == "k3hasse":
            assert "poly" not in {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            assert "k3hasse.poly" not in {alias.name for alias in node.names}
    assert imported == {"TernaryForm", "FormModP"}


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


def test_integer_resultant_matches_the_sylvester_determinant():
    """The subresultant PRS on int lists, in either degree order, with
    constants, non-monic leading coefficients and shared roots."""
    rng = random.Random(13)
    for _ in range(120):
        f, g = ([rng.randrange(-6, 7) for _ in range(rng.randrange(0, 7))] + [rng.choice([-3, -1, 1, 2])] for _ in range(2))
        assert integer_resultant(f, g) == sylvester_resultant(f, g)
    t_minus_2 = [-2, 1]
    assert integer_resultant([4, -4, 1], t_minus_2) == 0
    assert integer_resultant([6, -5, 1], [3, -4, 1]) == 0  # (t - 2)(t - 3), (t - 1)(t - 3)


def test_resultant_swap_symmetry():
    rng = random.Random(5)
    for _ in range(40):
        df = rng.randrange(1, 5)
        dg = rng.randrange(1, 5)
        f = UniPoly([Fraction(rng.randrange(-5, 6)) for _ in range(df)] + [Fraction(rng.randrange(1, 4))])
        g = UniPoly([Fraction(rng.randrange(-5, 6)) for _ in range(dg)] + [Fraction(rng.randrange(1, 4))])
        sign = -1 if (f.degree % 2 and g.degree % 2) else 1
        assert resultant(f, g) == sign * resultant(g, f)


def test_squarefree_examples():
    g = upow(frac_poly(1, 0, 1), 2) * frac_poly(-1, 1)
    dec = squarefree_decomposition(g)
    assert (frac_poly(-1, 1), 1) in dec
    assert (frac_poly(1, 0, 1), 2) in dec

    F3 = element_field(fq(3, 1))
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
    field = element_field(fq(p, n))
    for _ in range(25):
        g = _random_field_poly(rng, field, rng.randrange(1, 4))
        # force interesting multiplicities, including wild p-th powers
        g = upow(g, rng.randrange(1, 4)) * _random_field_poly(rng, field, rng.randrange(1, 3))
        dec = squarefree_decomposition(g)
        product = UniPoly([field.one])
        for fac, mult in dec:
            assert fac == fac.monic()
            product = product * upow(fac, mult)
        assert product == g.monic()
        for i in range(len(dec)):
            for j in range(i + 1, len(dec)):
                assert poly_gcd(dec[i][0], dec[j][0]).degree == 0


@pytest.mark.parametrize("p, n, D", [(3, 1, 30), (3, 2, 30), (7, 1, 25), (29, 1, 25)])
def test_code_division_and_gcds_match_the_unipoly_ones(p, n, D):
    """code_divmod, code_gcd and code_gcdex on the codes of
    ``element_arith`` (discrete logs, or ints mod 29) decode to divmod,
    poly_gcd and poly_gcdex on field elements, common factors included."""
    field = element_field(fq(p, n))
    A, code, decode = element_arith(field, D)
    enc = lambda f: [code(field.encode(c)) for c in f.coeffs]
    dec = lambda cs: UniPoly([field.decode(decode(c)) for c in cs])
    rng = random.Random(p * n)
    for _ in range(20):
        h = _random_field_poly(rng, field, rng.randrange(0, 3))
        f = h * _random_field_poly(rng, field, rng.randrange(0, 6))
        g = h * _random_field_poly(rng, field, rng.randrange(1, 5))
        if f.is_zero() or g.is_zero():
            continue
        q, r = code_divmod(A, enc(f), enc(g))
        assert (dec(q), dec(r)) == divmod(f, g)
        assert dec(code_gcd(A, enc(f), enc(g))) == poly_gcd(f, g)
        d, s = code_gcdex(A, enc(f % g), enc(g))
        assert (dec(d), dec(s)) == poly_gcdex(f % g, g)


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


def test_evaluate_matches_the_termwise_oracle():
    """Evaluation on power lists equals the term-by-term reference, value and
    type, on seeded random forms of degrees 0 to 6 with int, Fraction and
    mod-7 coefficients and the zero form, at int and Fraction points with
    zero and negative coordinates, and on F_7 elements."""
    rng = random.Random(31)
    F7 = fq(7, 1)
    E7 = element_field(F7)
    for d in range(7):
        mons = monomials_of_degree(d)
        for _ in range(8):
            ints = TernaryForm(d, {m: rng.randrange(-9, 10) for m in rng.sample(mons, rng.randrange(1, len(mons) + 1))})
            fracs = TernaryForm(d, {m: Fraction(rng.randrange(-9, 10), rng.randrange(1, 5)) for m in mons})
            forms = (ints, fracs, reduce_mod(ints, F7), TernaryForm(d))
            pt = tuple(rng.randrange(-3, 4) for _ in range(3))
            points = (pt, (0, -2, 1), (-1, 0, 0), tuple(Fraction(c, rng.randrange(1, 4)) for c in pt))
            for form in forms:
                for point in points:
                    got, want = form.evaluate(point), evaluate_termwise(form, point)
                    assert got == want and type(got) is type(want), (form, point)
            elems = to_elements(forms[2])
            point = tuple(E7.from_int(c) for c in pt)
            assert elems.evaluate(point) == evaluate_termwise(elems, point)


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
        ps, pt = line_parametrization(line)
        t = Fraction(rng.randrange(-5, 6))
        point = tuple(a + t * b for a, b in zip(ps, pt))
        assert g.evaluate(t) == f.evaluate(point)


def test_example_restriction_mod3_is_square_times_constant(example_sextic):
    F3 = element_field(fq(3, 1))
    f3 = to_elements(reduce_mod(example_sextic, fq(3, 1)))
    line = ProjLine(F3.from_int(2), F3.zero, F3.one)  # 2 x0 + x2 = 0
    g, _inf = restrict_to_line(f3, line)
    assert not g.is_zero()
    assert all(m % 2 == 0 for _, m in squarefree_decomposition(g))


def test_projline_normalization():
    F3 = element_field(fq(3, 1))
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


def test_equal_forms_hash_equal_whatever_the_term_order():
    """Forms built from the same terms in different orders, over Z and over a
    finite field, are equal and hash equal; a different degree or coefficient
    makes them unequal, and so do reductions mod different primes with the
    same reduced terms."""
    rng = random.Random(11)
    F5, F7 = fq(5, 1), fq(7, 1)
    for _ in range(20):
        items = [(m, rng.randrange(-9, 10)) for m in monomials_of_degree(6)]
        shuffled = list(items)
        rng.shuffle(shuffled)
        f, g = TernaryForm(6, dict(items)), TernaryForm(6, dict(shuffled))
        assert list(f.terms) != list(g.terms) or len(f.terms) < 2
        assert f == g and hash(f) == hash(g)
        fp, gp = reduce_mod(f, F7), reduce_mod(g, F7)
        assert fp == gp and hash(fp) == hash(gp)
        assert len({f, g, f + TernaryForm(6, {(6, 0, 0): 1})}) == 2
        small = TernaryForm(6, {m: c % 5 for m, c in items})
        assert reduce_mod(small, F5).terms == reduce_mod(small, F7).terms
        assert reduce_mod(small, F5) != reduce_mod(small, F7)
    assert TernaryForm(2, {}) != TernaryForm(3, {})


def test_a_form_builds_its_hash_once(monkeypatch):
    """The frozenset of a form's terms is built on its first hash only; a
    reduction hashes its field with that kept hash."""
    built = []

    def counted(items):
        built.append(1)
        return frozenset(items)

    monkeypatch.setattr(poly, "frozenset", counted, raising=False)
    f = TernaryForm(2, {(2, 0, 0): 3, (0, 1, 1): -1})
    fp = reduce_mod(f, fq(7, 1))
    assert len({hash(f) for _ in range(3)}) == 1 and len(built) == 1
    assert len({hash(fp) for _ in range(3)}) == 1 and len(built) == 2


def test_a_reduction_records_its_integer_form_outside_equality():
    """reduce_mod keeps the integer form as ``lift``; equality and hashing
    ignore it, and a form derived from a reduction, or reduced again,
    carries none."""
    F7 = fq(7, 1)
    f = TernaryForm(2, {(2, 0, 0): 8, (0, 1, 1): -3})
    g = TernaryForm(2, {(2, 0, 0): 1, (0, 1, 1): 4})
    fp, gp = reduce_mod(f, F7), reduce_mod(g, F7)
    assert fp.lift is f and gp.lift is g
    assert fp == gp and hash(fp) == hash(gp)
    derived = [fp + gp, -fp, fp * gp, fp.scale(2), fp.partial(0), reduce_mod(fp, F7)]
    assert all(h.lift is None for h in derived)


def test_monomials_of_degree_is_a_fresh_list_each_call():
    """The order is computed once per degree; callers get their own list."""
    mons = monomials_of_degree(2)
    mons.reverse()
    mons.append((9, 9, 9))
    assert monomials_of_degree(2) == [
        (2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2),
    ]
    assert TernaryForm.from_coefficients(2, [1, 2, 3, 4, 5, 6]).terms[(2, 0, 0)] == 1
    for d in range(8):
        mons = monomials_of_degree(d)
        assert len(mons) == (d + 1) * (d + 2) // 2
        assert all(min(m) >= 0 and sum(m) == d for m in mons)
        assert all(a > b for a, b in zip(mons, mons[1:]))
