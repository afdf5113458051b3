import random

import pytest

from k3hasse.finitefield import (
    ExtensionField,
    fq,
    irreducible_factors,
    is_irreducible,
    prime_field,
    resultant_by_evaluation,
)
from k3hasse.poly import TernaryForm, UniPoly, newton_weights, ternary_to_t_over_u

from .oracles import quadratic_character, resultant


def test_make_field_canonical_moduli():
    F3 = fq(3, 1)
    assert [c.val for c in F3.modulus.coeffs] == [0, 1]  # t
    F9 = fq(3, 2)
    assert [c.val for c in F9.modulus.coeffs] == [1, 0, 1]  # t^2 + 1
    assert F9.order == 9


def test_make_field_big_extension_modulus_is_irreducible():
    F = fq(3, 10)
    assert F.order == 59049
    # independent irreducibility check: x^(3^10) == x mod modulus, and the
    # intermediate Frobenius powers fix no proper subfield polynomial
    mod = [c.val for c in F.modulus.coeffs]

    def polmulmod(u, v):
        out = [0] * (len(u) + len(v) - 1 or 1)
        for i, a in enumerate(u):
            if a:
                for j, b in enumerate(v):
                    out[i + j] = (out[i + j] + a * b) % 3
        d = len(mod) - 1
        for i in range(len(out) - 1, d - 1, -1):
            c = out[i]
            if c:
                for j in range(d + 1):
                    out[i - d + j] = (out[i - d + j] - c * mod[j]) % 3
        return [c % 3 for c in out[:d]] + [0] * max(0, d - len(out))

    x = [0, 1] + [0] * 8
    cur = x[:]
    for _ in range(10):
        nxt = cur[:]
        acc = [1] + [0] * 9
        e = 3
        base = cur[:]
        while e:
            if e & 1:
                acc = polmulmod(acc, base)
            e >>= 1
            if e:
                base = polmulmod(base, base)
        cur = acc
    assert cur == x


def test_make_field_rejects_composites():
    with pytest.raises(ValueError):
        fq(15, 2)
    with pytest.raises(ValueError, match="degree"):
        fq(7, 0)
    with pytest.raises(ValueError, match="degree"):
        fq(7, -1)


def test_quadratic_character_examples():
    F5 = prime_field(5)
    assert quadratic_character(F5.one) == 1
    assert quadratic_character(F5.zero) == 0
    assert quadratic_character(F5.from_int(2)) == -1
    with pytest.raises(ValueError):
        quadratic_character(prime_field(2).one)


@pytest.mark.parametrize("n", range(1, 11))
def test_quadratic_character_multiplicative(n):
    field = fq(3, n)
    rng = random.Random(n)
    for _ in range(40):
        a = field.decode(rng.randrange(1, field.order))
        b = field.decode(rng.randrange(1, field.order))
        assert quadratic_character(a * b) == quadratic_character(a) * quadratic_character(b)


@pytest.mark.parametrize("n", range(1, 7))
def test_character_transfer_rule_exhaustive(n):
    """chi_n(a) = chi_d(a)^(n/d) for a of exact degree d inside F_{3^n}: the
    identity licensing the orbit-counting weights."""
    field = fq(3, n)
    one = field.one
    for k in range(1, field.order):
        a = field.decode(k)
        d = field.element_degree(a)
        assert n % d == 0
        chi_d = 1 if a ** ((3**d - 1) // 2) == one else -1
        expected = chi_d ** (n // d)
        assert quadratic_character(a) == expected


def test_roots_in_extensions_examples():
    """Roots in extensions are the roots of the irreducible factors, each in
    the extension that its factor defines."""
    F3 = fq(3, 1)
    zero, one = F3.zero, F3.one
    x3mx = UniPoly([zero, -one, zero, one])
    factors = irreducible_factors(x3mx, F3)
    assert sorted((-irr.coeffs[0]).val for irr, _ in factors) == [0, 1, 2]
    assert all(irr.degree == 1 and m == 1 for irr, m in factors)

    x2p1 = UniPoly([one, zero, one])
    ((irr, m),) = irreducible_factors(x2p1, F3)
    assert irr.degree == 2 and m == 1
    ext = ExtensionField(F3, irr)
    r0, r1 = ext.gen, ext.frobenius(ext.gen)
    assert ext.element_degree(r0) == ext.element_degree(r1) == 2
    assert r0 != r1 and r0 * r0 == -ext.one

    xm1 = UniPoly([-one, one])
    ((irr, m),) = irreducible_factors(xm1, F3)
    assert -irr.coeffs[0] == one and m == 1


def test_roots_counted_with_multiplicity():
    rng = random.Random(31)
    F5 = fq(5, 1)
    for _ in range(15):
        deg = rng.randrange(1, 4)
        coeffs = [F5.decode(rng.randrange(5)) for _ in range(deg)] + [F5.one]
        g = UniPoly(coeffs) ** rng.randrange(1, 3)
        factors = irreducible_factors(g, F5)
        assert sum(m * irr.degree for irr, m in factors) == g.degree


def test_extension_field_arithmetic_axioms():
    field = fq(3, 3)
    rng = random.Random(41)
    for _ in range(50):
        a = field.decode(rng.randrange(field.order))
        b = field.decode(rng.randrange(field.order))
        c = field.decode(rng.randrange(field.order))
        assert (a + b) * c == a * c + b * c
        if b:
            assert (a / b) * b == a
    g = field.decode(rng.randrange(1, field.order))
    assert g ** (field.order - 1) == field.one


@pytest.mark.parametrize("p, n", [(3, 1), (3, 2), (3, 5), (3, 9), (7, 1)])
def test_tables_agree_with_scalar_arithmetic(p, n):
    import numpy as np

    field = fq(p, n)
    t = field.tables
    rng = random.Random(43)
    xs = [rng.randrange(field.order) for _ in range(200)]
    ys = [rng.randrange(field.order) for _ in range(200)]
    # the operands a log-domain add can get wrong: 0 on either side,
    # u + (-u) where 1 + g^k = 0, and u + u
    for u in xs[:20]:
        neg = field.encode(-field.decode(u))
        xs += [0, u, u, u, 0]
        ys += [u, 0, neg, u, 0]
    xs, ys = np.array(xs), np.array(ys)
    vm = t.vmul(xs, ys)
    va = t.vadd(xs, ys)
    for i in range(len(xs)):
        a, b = field.decode(int(xs[i])), field.decode(int(ys[i]))
        assert int(vm[i]) == field.encode(a * b)
        assert int(va[i]) == field.encode(a + b)
    # Frobenius table
    fr = t.frob[xs]
    for i in range(len(xs)):
        a = field.decode(int(xs[i]))
        assert int(fr[i]) == field.encode(a ** field.characteristic)


def test_orbit_reps_cover_the_field():
    field = fq(3, 4)
    reps = field.tables.orbit_reps()
    total = sum(size for _, size in reps)
    assert total == field.order
    degs = field.tables.deg
    for rep, size in reps:
        assert int(degs[rep]) == size


def test_tower_extension_field():
    F5 = prime_field(5)
    ext1 = fq(5, 2)
    # tower: degree-2 extension of F_25
    mod = None
    from k3hasse.finitefield import is_irreducible

    for k in range(ext1.order**2):
        digits = []
        kk = k
        for _ in range(2):
            digits.append(ext1.decode(kk % ext1.order))
            kk //= ext1.order
        cand = UniPoly(digits + [ext1.one])
        if cand.degree == 2 and is_irreducible(cand, ext1):
            mod = cand
            break
    tower = ExtensionField(ext1, mod)
    assert tower.order == 5**4 and tower.degree == 4
    g = tower.gen
    assert g ** (tower.order - 1) == tower.one
    assert tower.element_degree(tower.from_int(2)) == 1


# ---------------------------------------------------------------------------
# Resultants by evaluation and interpolation, against the subresultant chain
# ---------------------------------------------------------------------------

def _quadratic_tower_over_f9():
    """F_81 as a quadratic extension of F_9 (not the canonical fq(3, 4))."""
    F9 = fq(3, 2)
    for k in range(F9.order**2):
        cand = UniPoly([F9.decode(k % 9), F9.decode(k // 9), F9.one])
        if is_irreducible(cand, F9):
            return ExtensionField(F9, cand)


def _random_chart(fld, d, rng):
    """g(1, u, t) for a random form g of degree d with g(0, 0, 1) = 1, the
    shape regularisation gives every chart polynomial."""
    terms = {(i, j, d - i - j): fld.random_element(rng) for i in range(d + 1) for j in range(d + 1 - i)}
    terms[(0, 0, d)] = fld.one
    return ternary_to_t_over_u(TernaryForm(d, terms), fld.one)


@pytest.mark.parametrize("name", ["F3", "F9", "F5", "F7", "F13", "F89", "prime66", "F81-tower"])
def test_resultant_by_evaluation_matches_the_subresultant(name, fixtures):
    """Every evaluation-field case: F_3, F_5 and F_7 evaluate in fq(p, k),
    F_9 in F_81 through a root of its modulus, F_13 in F_169 or itself
    (D = 25 or < 13), F_89 and the 66-digit prime in themselves, and a
    non-canonical F_81 in fq(3, 4) through its tower."""
    fld = {
        "F3": prime_field(3), "F9": fq(3, 2), "F5": prime_field(5), "F7": prime_field(7),
        "F13": prime_field(13), "F89": prime_field(89), "prime66": prime_field(fixtures.prime66),
        "F81-tower": _quadratic_tower_over_f9(),
    }[name]
    rng = random.Random(name)
    at_bound = 0
    for d1, d2 in [(5, 5), (5, 6), (3, 3), (2, 3), (1, 4), (0, 3), (4, 1)]:
        f, g = _random_chart(fld, d1, rng), _random_chart(fld, d2, rng)
        got = resultant_by_evaluation(f, g)
        assert got == resultant(f, g), (d1, d2)
        at_bound += got.degree == d1 * d2
    assert at_bound  # generic charts reach the Bezout bound


@pytest.mark.parametrize("p", [7, 89])
def test_newton_weights_are_computed_once_per_field_and_bound(p, fresh_memos):
    """Each resultant_by_evaluation builds its arithmetic afresh (a new
    ModP(89), fq(7, 2).log_arith); the interpolation weights are keyed by
    field size and characteristic, so a second resultant of the same bound
    reuses them, and both still equal the subresultant."""
    fld, rng = prime_field(p), random.Random(p)
    for _ in range(3):
        f, g = _random_chart(fld, 5, rng), _random_chart(fld, 5, rng)
        assert resultant_by_evaluation(f, g) == resultant(f, g)
    info = newton_weights.cache_info()
    assert (info.misses, info.hits) == (1, 2)


@pytest.mark.parametrize("p, n", [(3, 1), (3, 2), (5, 1), (7, 1)])
def test_resultant_by_evaluation_reaches_the_bound_and_zero(p, n):
    """Res_t(t - u, t^m + u^m) = 2 u^m has degree exactly D = m, and two
    charts with a common factor have an identically zero resultant."""
    fld = fq(p, n)
    u, one, zero = UniPoly([fld.zero, fld.one]), UniPoly([fld.one]), UniPoly()
    for m in (2, 4, 6):
        f = UniPoly([-u, one])
        g = UniPoly([u ** m] + [zero] * (m - 1) + [one])
        got = resultant_by_evaluation(f, g)
        assert got.degree == m and got == resultant(f, g)
    rng = random.Random(p * n)
    h = _random_chart(fld, 2, rng)
    f = h * _random_chart(fld, 3, rng)
    g = h * _random_chart(fld, 2, rng)
    assert resultant_by_evaluation(f, g).is_zero()
    assert resultant(f, g).is_zero()


def test_resultant_by_evaluation_needs_the_bezout_shape():
    F7 = prime_field(7)
    u, one = UniPoly([F7.zero, F7.one]), UniPoly([F7.one])
    with pytest.raises(ValueError):  # t-leading coefficient u
        resultant_by_evaluation(UniPoly([one, u]), UniPoly([u, one]))
    with pytest.raises(ValueError):  # u^2 at t^0 of a t-linear polynomial
        resultant_by_evaluation(UniPoly([u * u, one]), UniPoly([u, one]))
