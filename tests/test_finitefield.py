import random

import numpy as np
import pytest

from k3hasse.finitefield import (
    _find_generator,
    _rabin_irreducible,
    evaluation_arith,
    fq,
    irreducible_factors,
    prime_field,
)
from k3hasse.poly import ModP, Residues, TernaryForm, code_eval, code_mul, newton_weights

from .oracles import (
    ExtensionField,
    UniPoly,
    canonical_modulus,
    element_degree,
    element_field,
    find_generator,
    frobenius,
    gen,
    is_irreducible,
    quadratic_character,
    random_element,
    resultant,
    resultant_by_evaluation,
    ternary_to_t_over_u,
    unipoly_irreducible_factors,
    upow,
)


def test_make_field_canonical_moduli():
    F3 = fq(3, 1)
    assert F3.modulus == (0, 1)  # t
    F9 = fq(3, 2)
    assert F9.modulus == (1, 0, 1)  # t^2 + 1
    assert F9.order == 9


def test_make_field_big_extension_modulus_is_irreducible():
    F = fq(3, 10)
    assert F.order == 59049
    # independent irreducibility check: x^(3^10) == x mod modulus, and the
    # intermediate Frobenius powers fix no proper subfield polynomial
    mod = list(F.modulus)

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


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_code_built_modulus_and_generator_match_the_ffelem_oracles(p):
    """fq's modulus and the tables' generator, found on int codes, are the
    ones the UniPoly Rabin test and the FFElem power search find, for every
    p^n <= 3^10."""
    n = 1
    while p**n <= 3**10:
        field = fq(p, n)
        mod = list(field.modulus)
        assert mod == (canonical_modulus(p, n) if n > 1 else [0, 1]), (p, n)
        assert _find_generator(p, mod) == find_generator(field), (p, n)
        n += 1


@pytest.mark.parametrize("p, top", [(3, 6), (5, 4), (7, 3)])
def test_root_filter_and_rabin_decide_every_small_candidate(p, top):
    """Every monic candidate of degree 2 .. top: no root in F_p and Rabin's
    test on codes together agree with the UniPoly oracle."""
    A, base = ModP(p), element_field(prime_field(p))
    for n in range(2, top + 1):
        for k in range(p**n):
            mod = [k // p**i % p for i in range(n)] + [1]
            rootless = all(code_eval(A, mod, x) for x in range(p))
            oracle = is_irreducible(UniPoly([base.decode(c) for c in mod]), base)
            assert (rootless and _rabin_irreducible(mod, p)) == oracle, mod


def test_rabin_refuses_a_reducible_candidate_without_roots():
    """(x^2 + 1)(x^2 + x + 2) = x^4 + x^3 + x + 2 over F_3 has no root, so
    the root filter passes it; the gcd stage of Rabin's test refuses it."""
    mod = [2, 1, 0, 1, 1]
    assert all(code_eval(ModP(3), mod, x) for x in range(3))
    assert not _rabin_irreducible(mod, 3)
    assert _rabin_irreducible(list(fq(3, 4).modulus), 3)


def test_field_build_does_no_extension_field_multiplication(monkeypatch):
    """A fresh fq(3, 9) and its tables are built on int codes: not one
    ExtensionField product, and the same tables as the cached field."""
    calls = []
    mul = ExtensionField._mul
    monkeypatch.setattr(ExtensionField, "_mul", lambda self, a, b: calls.append(1) or mul(self, a, b))
    fresh = fq.__wrapped__(3, 9)
    tables = fresh.tables
    assert calls == []
    cached = fq(3, 9).tables
    assert tables.generator == cached.generator
    for name in ("log", "zech"):
        assert np.array_equal(getattr(tables, name), getattr(cached, name))


def test_f2_builds_tables_with_generator_1():
    """F_2^* is generated by 1, the first code the search tries; the log
    tables, ``log_add`` and LogArith add and multiply correctly."""
    F2 = prime_field(2)
    t = F2.tables
    assert t.generator == 1
    A = F2.log_arith
    xs, ys = np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1])
    assert t.log_add(t.log[xs], t.log[ys]).tolist() == t.log[[0, 1, 1, 0]].tolist()
    for a in range(2):
        for b in range(2):
            assert A.add(A.from_int(a), A.from_int(b)) == A.from_int(a + b)
            assert A.mul(A.from_int(a), A.from_int(b)) == A.from_int(a * b)
            assert A.sub(A.from_int(a), A.from_int(b)) == A.from_int(a - b)


def test_quadratic_character_examples():
    F5 = element_field(prime_field(5))
    assert quadratic_character(F5.one) == 1
    assert quadratic_character(F5.zero) == 0
    assert quadratic_character(F5.from_int(2)) == -1
    with pytest.raises(ValueError):
        quadratic_character(element_field(prime_field(2)).one)


@pytest.mark.parametrize("n", range(1, 11))
def test_quadratic_character_multiplicative(n):
    field = element_field(fq(3, n))
    rng = random.Random(n)
    for _ in range(40):
        a = field.decode(rng.randrange(1, field.order))
        b = field.decode(rng.randrange(1, field.order))
        assert quadratic_character(a * b) == quadratic_character(a) * quadratic_character(b)


@pytest.mark.parametrize("n", range(1, 7))
def test_character_transfer_rule_exhaustive(n):
    """chi_n(a) = chi_d(a)^(n/d) for a of exact degree d inside F_{3^n}: the
    identity licensing the orbit-counting weights."""
    field = element_field(fq(3, n))
    one = field.one
    for k in range(1, field.order):
        a = field.decode(k)
        d = element_degree(a)
        assert n % d == 0
        chi_d = 1 if a ** ((3**d - 1) // 2) == one else -1
        expected = chi_d ** (n // d)
        assert quadratic_character(a) == expected


def test_roots_in_extensions_examples():
    """Roots in extensions are the roots of the irreducible factors, each in
    the extension that its factor defines."""
    A, F3 = ModP(3), element_field(fq(3, 1))
    factors = irreducible_factors(A, [0, 2, 0, 1])  # t^3 - t
    assert sorted(A.neg(irr[0]) for irr, _ in factors) == [0, 1, 2]
    assert all(len(irr) == 2 and m == 1 for irr, m in factors)

    ((irr, m),) = irreducible_factors(A, [1, 0, 1])  # t^2 + 1
    assert len(irr) == 3 and m == 1
    ext = ExtensionField(F3, UniPoly([F3.decode(c) for c in irr]))
    r0 = gen(ext)
    r1 = frobenius(r0)
    assert element_degree(r0) == element_degree(r1) == 2
    assert r0 != r1 and r0 * r0 == -ext.one

    ((irr, m),) = irreducible_factors(A, [2, 1])  # t - 1
    assert A.neg(irr[0]) == 1 and m == 1


def test_roots_counted_with_multiplicity():
    rng = random.Random(31)
    A = ModP(5)
    for _ in range(15):
        deg = rng.randrange(1, 4)
        h = [rng.randrange(5) for _ in range(deg)] + [1]
        g = [1]
        for _ in range(rng.randrange(1, 3)):  # g = h^k, k in {1, 2}
            g = code_mul(A, g, h)
        factors = irreducible_factors(A, g)
        assert sum(m * (len(irr) - 1) for irr, m in factors) == len(g) - 1


def test_irreducible_factors_reads_the_field_order_and_needs_it_odd():
    """p and n come from the field: F_5[u]/(u^2 - 2) is F_25, where t^2 - 2
    splits, and F_2 is refused, since Cantor-Zassenhaus needs q odd."""
    K = Residues(ModP(5), [3, 0, 1])
    assert (K.characteristic, K.degree) == (5, 2)
    assert [len(irr) for irr, _ in irreducible_factors(K, [[3], [], [1]])] == [2, 2]
    with pytest.raises(ValueError):
        irreducible_factors(ModP(2), [1, 1, 1])


def _residue_field(p: int, k: int):
    """F_p[u]/(pi) on codes for the canonical modulus pi of fq(p, k), and the
    same field as an ``ExtensionField`` of ``FFElem``s."""
    mod = list(fq(p, k).modulus)
    return (ModP(p) if k == 1 else Residues(ModP(p), mod)), element_field(fq(p, k))


def _decode_residue(K, fld, c):
    """The ``FFElem`` of fld behind the code c of K."""
    if isinstance(c, int):
        return fld.decode(c)
    return fld.decode(sum(d * fld.characteristic**i for i, d in enumerate(c)))


@pytest.mark.parametrize("p, k", [(3, 1), (5, 1), (7, 1), (11, 1), (3, 2), (5, 2), (3, 3)])
def test_irreducible_factors_match_the_cantor_zassenhaus_oracle(p, k):
    """The factoring on codes, over F_p and over a residue field
    F_p[u]/(pi), equals the UniPoly chain of the oracle on products of random
    factors with multiplicities, stripped without a squarefree decomposition:
    the same factors, multiplicities and order for squarefree inputs."""
    K, fld = _residue_field(p, k)
    rng = random.Random(p * 10 + k)
    for _ in range(12):
        g = [K.one]
        for _ in range(rng.randrange(1, 4)):
            factor = [K.random(rng) for _ in range(rng.randrange(1, 4))] + [K.one]
            for _ in range(rng.randrange(1, 3)):
                g = code_mul(K, g, factor)
        got = irreducible_factors(K, g)
        want = unipoly_irreducible_factors(UniPoly([_decode_residue(K, fld, c) for c in g]), fld)
        decoded = [(UniPoly([_decode_residue(K, fld, c) for c in irr]), m) for irr, m in got]
        assert sorted(map(repr, decoded)) == sorted(map(repr, want))
        if all(m == 1 for _, m in want):
            assert decoded == want


def test_extension_field_arithmetic_axioms():
    field = element_field(fq(3, 3))
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


@pytest.mark.parametrize("p, n", [(3, 1), (3, 2), (3, 5), (3, 9), (7, 1), (2, 1), (2, 4), (5, 2)])
def test_tables_agree_with_scalar_arithmetic(p, n):
    """``log_add`` is element addition on logs, and ``orbit_reps`` lists each
    orbit of x -> x^p on F_q^* once, by its least log and its size.  In odd
    characteristic, ``pair_sweep`` counts the pair +-g^w, read at
    ``vanished`` + w, as (non-squares, zeros), and as two zeros where w is
    past ``zero``; ``zech_ratio`` sends a zero 1 + g^k to ``vanished``."""
    t = fq(p, n).tables
    field = element_field(fq(p, n))
    rng = random.Random(43)
    xs = [rng.randrange(field.order) for _ in range(200)]
    ys = [rng.randrange(field.order) for _ in range(200)]
    # the operands a log-domain add can get wrong: 0 on either side,
    # u + (-u) where 1 + g^k = 0, and u + u
    for u in xs[:20]:
        neg = field.encode(-field.decode(u))
        xs += [0, u, u, u, 0]
        ys += [u, 0, neg, u, 0]
    sums = t.log_add(t.log[xs], t.log[ys])
    for x, y, s in zip(xs, ys, sums.tolist()):
        assert s == t.log[field.encode(field.decode(x) + field.decode(y))], (x, y)
    # every orbit of a field of at most 1000 elements, else those of the
    # sampled operands
    reps = dict(t.orbit_reps)
    assert len(reps) == len(t.orbit_reps) and sum(reps.values()) == field.order - 1
    for x in range(1, field.order) if field.order <= 1000 else set(xs) - {0}:
        orbit, y = [], field.decode(x)
        while not orbit or y != field.decode(x):
            orbit.append(int(t.log[field.encode(y)]))
            y = y**p
        assert reps[min(orbit)] == len(orbit), x
    if p == 2:
        return
    sw, m, g = t.pair_sweep, field.order - 1, field.decode(t.generator)
    assert sw.zech_ratio[m // 2] == sw.vanished
    ws = sorted({0, 1, m - 1, m, 2 * m - 2, *(rng.randrange(2 * m - 1) for _ in range(40))})
    want = [0, 0]
    for w in ws:
        chis = [quadratic_character(s * g**w) for s in (field.one, -field.one)]
        pair = (chis.count(-1), chis.count(0))
        assert sw.count(np.array([sw.vanished + w])) == pair, w
        want = [want[0] + pair[0], want[1] + pair[1]]
    past = [t.zero, t.zero + m - 1]
    assert sw.count(np.array([sw.vanished + w for w in ws + past])) == (want[0], want[1] + 2 * len(past))


def test_orbit_reps_cover_the_field():
    """The orbit of g^k has the size of the least subfield holding g^k."""
    t = fq(3, 4).tables
    field = element_field(fq(3, 4))
    g = field.decode(t.generator)
    assert sum(size for _, size in t.orbit_reps) == field.order - 1
    for k, size in t.orbit_reps:
        assert element_degree(g**k) == size


def test_tower_extension_field():
    ext1 = element_field(fq(5, 2))
    # tower: degree-2 extension of F_25
    mod = None
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
    g = gen(tower)
    assert g ** (tower.order - 1) == tower.one
    assert element_degree(tower.from_int(2)) == 1


# ---------------------------------------------------------------------------
# Resultants by evaluation and interpolation, against the subresultant chain
# ---------------------------------------------------------------------------

def _quadratic_tower_over_f9():
    """F_81 as a quadratic extension of F_9 (not the canonical fq(3, 4))."""
    F9 = element_field(fq(3, 2))
    for k in range(F9.order**2):
        cand = UniPoly([F9.decode(k % 9), F9.decode(k // 9), F9.one])
        if is_irreducible(cand, F9):
            return ExtensionField(F9, cand)


def _random_chart(fld, d, rng):
    """g(1, u, t) for a random form g of degree d with g(0, 0, 1) = 1, the
    shape regularisation gives every chart polynomial."""
    terms = {(i, j, d - i - j): random_element(fld, rng) for i in range(d + 1) for j in range(d + 1 - i)}
    terms[(0, 0, d)] = fld.one
    return ternary_to_t_over_u(TernaryForm(d, terms), fld.one)


@pytest.mark.parametrize("name", ["F3", "F9", "F5", "F7", "F13", "F89", "prime66", "F81-tower"])
def test_resultant_by_evaluation_matches_the_subresultant(name, fixtures):
    """Every evaluation-field case: F_3, F_5 and F_7 evaluate in fq(p, k),
    F_9 in F_81 through the oracle's embedding (the library's arithmetic
    extends prime fields only), F_13 in F_169 or itself
    (D = 25 or < 13), F_89 and the 66-digit prime in themselves, and a
    non-canonical F_81 in fq(3, 4) through its tower."""
    fld = {
        "F3": prime_field(3), "F9": fq(3, 2), "F5": prime_field(5), "F7": prime_field(7),
        "F13": prime_field(13), "F89": prime_field(89), "prime66": prime_field(fixtures.prime66),
    }.get(name)
    fld = _quadratic_tower_over_f9() if fld is None else element_field(fld)
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
    fld, rng = element_field(prime_field(p)), random.Random(p)
    for _ in range(3):
        f, g = _random_chart(fld, 5, rng), _random_chart(fld, 5, rng)
        assert resultant_by_evaluation(f, g) == resultant(f, g)
    info = newton_weights.cache_info()
    assert (info.misses, info.hits) == (1, 2)


@pytest.mark.parametrize("p, n", [(3, 1), (3, 2), (5, 1), (7, 1)])
def test_resultant_by_evaluation_reaches_the_bound_and_zero(p, n):
    """Res_t(t - u, t^m + u^m) = 2 u^m has degree exactly D = m, and two
    charts with a common factor have an identically zero resultant."""
    fld = element_field(fq(p, n))
    u, one, zero = UniPoly([fld.zero, fld.one]), UniPoly([fld.one]), UniPoly()
    for m in (2, 4, 6):
        f = UniPoly([-u, one])
        g = UniPoly([upow(u, m)] + [zero] * (m - 1) + [one])
        got = resultant_by_evaluation(f, g)
        assert got.degree == m and got == resultant(f, g)
    rng = random.Random(p * n)
    h = _random_chart(fld, 2, rng)
    f = h * _random_chart(fld, 3, rng)
    g = h * _random_chart(fld, 2, rng)
    assert resultant_by_evaluation(f, g).is_zero()
    assert resultant(f, g).is_zero()


@pytest.mark.parametrize("n", [2, 4])
def test_evaluation_arith_refuses_a_field_that_is_not_prime(n):
    """The elimination encodes a system over F_p only; an extension field
    is refused, not embedded."""
    with pytest.raises(ValueError, match="extends a prime field"):
        evaluation_arith(fq(3, n), 30)


def test_evaluation_arith_codes_f_p_as_itself_inside_the_extension():
    """Over fq(3, 4) the codes 0 .. 2 are F_3: ``code`` is the discrete log
    of every code of F_81 and ``decode`` its inverse, 0 at log -1."""
    A, code, decode = evaluation_arith(prime_field(3), 30)
    assert A is fq(3, 4).log_arith and A.field is fq(3, 4)
    assert [code(c) for c in range(3)] == [A.zero, A.one, A.from_int(2)]
    assert [decode(code(c)) for c in range(81)] == list(range(81))
    assert evaluation_arith(prime_field(31), 30)[0] == ModP(31)


def test_resultant_by_evaluation_needs_the_bezout_shape():
    F7 = element_field(prime_field(7))
    u, one = UniPoly([F7.zero, F7.one]), UniPoly([F7.one])
    with pytest.raises(ValueError):  # t-leading coefficient u
        resultant_by_evaluation(UniPoly([one, u]), UniPoly([u, one]))
    with pytest.raises(ValueError):  # u^2 at t^0 of a t-linear polynomial
        resultant_by_evaluation(UniPoly([u * u, one]), UniPoly([u, one]))
