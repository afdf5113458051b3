import random
from itertools import combinations

import numpy as np
import pytest

from k3hasse import badred
from k3hasse.badred import (
    DegenerateReduction,
    NotBadPrime,
    RegularizationError,
    is_bad_prime,
    jacobian_system,
    regularize,
    singular_points,
    verify_bad_prime_list,
)
from k3hasse.finitefield import fq, prime_field
from k3hasse.poly import TernaryForm, monomials_of_degree, resultant, ternary_to_t_over_u
from k3hasse.surface import reduce_mod


def _exhaustive_singular_search(f: TernaryForm, p: int, max_e: int) -> bool:
    """Oracle: scan P^2(F_{p^e}) for e <= max_e for a common zero of the
    Jacobian system, evaluating all forms on the full grid via the field
    tables (no resultants anywhere)."""
    fp = reduce_mod(f, prime_field(p)) if isinstance(next(iter(f.terms.values())), int) else f
    system = jacobian_system(fp)
    ints = [{m: c.field.encode(c) for m, c in g.terms.items()} for g in system]
    for e in range(1, max_e + 1):
        field = fq(p, e)
        t = field.tables
        q = t.q
        ar = np.arange(q)
        # chart [1:y:z]: evaluate every form monomial by monomial on the grid
        common = np.ones((q, q), dtype=bool)
        Y = np.repeat(ar, q)
        Z = np.tile(ar, q)
        for coeffs in ints:
            vals = np.zeros(q * q, dtype=np.int64)
            first = True
            for (e0, e1, e2), c in coeffs.items():
                term = np.full(q * q, c, dtype=np.int64)
                for _ in range(e1):
                    term = t.vmul(term, Y)
                for _ in range(e2):
                    term = t.vmul(term, Z)
                vals = term if first else t.vadd(vals, term)
                first = False
            common &= (vals == 0).reshape(q, q)
        if common.any():
            return True
        # chart [0:1:z]
        common1 = np.ones(q, dtype=bool)
        for coeffs in ints:
            vals = np.zeros(q, dtype=np.int64)
            first = True
            for (e0, e1, e2), c in coeffs.items():
                if e0 != 0:
                    continue
                term = np.full(q, c, dtype=np.int64)
                for _ in range(e2):
                    term = t.vmul(term, ar)
                vals = term if first else t.vadd(vals, term)
                first = False
            common1 &= vals == 0
        if common1.any():
            return True
        # the point [0:0:1]
        if all(coeffs.get((0, 0, max(sum(m) for m in coeffs)), 0) == 0 for coeffs in ints):
            return True
    return False


def _random_form(rng, degree=6, lo=-9, hi=9) -> TernaryForm:
    return TernaryForm(
        degree, {m: rng.randrange(lo, hi + 1) for m in monomials_of_degree(degree)}
    )


def _force_rational_node(rng) -> TernaryForm:
    """A sextic singular at [0:0:1]: kill the x2^6, x0x2^5, x1x2^5 monomials."""
    f = _random_form(rng)
    terms = dict(f.terms)
    for m in ((0, 0, 6), (1, 0, 5), (0, 1, 5)):
        terms.pop(m, None)
    return TernaryForm(6, terms)


def test_is_bad_prime_example_primes(example_sextic, fixtures):
    assert is_bad_prime(example_sextic, 5)
    assert not is_bad_prime(example_sextic, 3)
    assert is_bad_prime(example_sextic, fixtures.gcd_printed)


def test_is_bad_prime_rejects_degenerate_and_even():
    f = TernaryForm(6, {(6, 0, 0): 5})
    with pytest.raises(DegenerateReduction):
        is_bad_prime(f, 5)
    with pytest.raises(ValueError):
        is_bad_prime(f, 2)


def test_regularize_extends_a_prime_field_through_fq():
    """x0^3 x2 - x0 x2^3 vanishes at every [a:b:1] over F_3, so the frame
    needs F_9: the canonical fq(3, 2), modulus t^2 + 1."""
    F3 = prime_field(3)
    g = reduce_mod(TernaryForm(4, {(3, 0, 1): 1, (1, 0, 3): -1}), F3)
    fld, a, b, (h,) = regularize([g], F3)
    assert fld is fq(3, 2)
    assert [c.val for c in fld.modulus.coeffs] == [1, 0, 1]
    assert h.evaluate((fld.zero, fld.zero, fld.one))


def test_chart_resultants_of_the_lifted_mod_3_system(example_sextic):
    """The example's mod-3 Jacobian system has a frame only over F_9; every
    chart resultant, computed on int codes in F_81, equals the subresultant."""
    F3 = prime_field(3)
    elim = badred._eliminate(tuple(jacobian_system(reduce_mod(example_sextic, F3))), F3)
    assert elim.fld is fq(3, 2)
    polys = [ternary_to_t_over_u(g, elim.fld.one) for g in elim.system]
    for P, Q in combinations(polys, 2):
        assert badred.resultant(P, Q) == resultant(P, Q)


def test_singular_points_needs_a_frame_over_the_prime_field():
    """(x0^3 x2 - x0 x2^3)(x0^2 + x1^2 + x2^2) is bad mod 3, but its Jacobian
    system has a frame only over F_9, where the node locator does not work."""
    f = TernaryForm(4, {(3, 0, 1): 1, (1, 0, 3): -1}) * TernaryForm(
        2, {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1}
    )
    assert is_bad_prime(f, 3)
    with pytest.raises(RegularizationError):
        singular_points(f, 3, 6)


def test_singular_points_reuses_the_decision_elimination(example_sextic, monkeypatch):
    """After is_bad_prime(f, p), singular_points(f, p) computes no new
    resultant.  Mod 7 the decision runs the resultant chain; mod 5 it stops on
    the line y0 = 0 ([0:1:0] is singular) before the chain, which only the
    node locator then needs."""
    calls = []

    def counted(f, g):
        calls.append((f, g))
        return resultant(f, g)

    def resultants(p):
        badred._eliminate.cache_clear()
        badred.singular_locus_nonempty.cache_clear()
        calls.clear()
        assert is_bad_prime(example_sextic, p)
        decided = len(calls)
        singular_points(example_sextic, p, 6)
        return decided, len(calls)

    resultant = badred.resultant
    monkeypatch.setattr(badred, "resultant", counted)
    decided, total = resultants(7)
    assert decided > 0 and total == decided
    decided, total = resultants(5)
    assert decided == 0 and total > 0


def test_is_bad_prime_agrees_with_exhaustive_search(example_sextic):
    rng = random.Random(17)
    cases = [_random_form(rng) for _ in range(5)]
    cases += [_force_rational_node(rng) for _ in range(5)]
    for p in (3, 5, 7):
        for f in cases:
            try:
                bad = is_bad_prime(f, p)
            except DegenerateReduction:
                continue
            found = _exhaustive_singular_search(f, p, 3)
            if found:
                assert bad, (p, f)
            if not bad:
                assert not found, (p, f)
        # the example sextic's singular points are rational where they exist
        assert is_bad_prime(example_sextic, p) == _exhaustive_singular_search(example_sextic, p, 1)


def test_forced_node_is_detected():
    rng = random.Random(19)
    for p in (3, 5, 7):
        f = _force_rational_node(rng)
        try:
            assert is_bad_prime(f, p)
        except DegenerateReduction:
            pass


def test_singular_points_example_primes(example_sextic):
    rep5 = singular_points(example_sextic, 5, 6)
    assert rep5.r == 2
    assert rep5.all_nodes_and_r_lt8
    assert sorted(pt.coords_json() for pt in rep5.points) == [[0, 1, 0], [1, 0, 2]]
    rep7 = singular_points(example_sextic, 7, 6)
    assert rep7.r == 1 and rep7.all_nodes_and_r_lt8
    assert rep7.points[0].coords_json() == [1, 0, 3]


def test_singular_points_constructed_node():
    # x0 x1 x2^4 + x0^6 + x1^6 has a node at (0,0,1) mod 7
    f = TernaryForm(6, {(1, 1, 4): 1, (6, 0, 0): 1, (0, 6, 0): 1})
    rep = singular_points(f, 7, 6)
    assert any(pt.coords_json() == [0, 0, 1] and pt.kind == "node" for pt in rep.points)


def test_singular_points_requires_bad_prime():
    fermat = TernaryForm(6, {(6, 0, 0): 1, (0, 6, 0): 1, (0, 0, 6): 1})
    with pytest.raises(NotBadPrime):
        singular_points(fermat, 7, 6)


def test_non_reduced_forms_trigger_the_shared_factor_split():
    """A repeated factor makes every pair of partials share it, so the pairwise
    resultants vanish identically and the variety-splitting branch runs."""
    from k3hasse.surface import is_smooth_curve

    L = TernaryForm(1, {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 2})
    Q = TernaryForm(2, {(1, 1, 0): 1, (0, 0, 2): 1})
    C4 = TernaryForm(
        4, {(4, 0, 0): 1, (0, 4, 0): 1, (0, 0, 4): 1, (1, 1, 2): 3}
    )
    for f in (L * L * Q * Q, L * L * C4):
        assert not is_smooth_curve(f)
        for p in (5, 7):
            assert is_bad_prime(f, p)


def test_reported_nodes_pass_independent_hessian_check(example_sextic):
    for p in (5, 7):
        field = prime_field(p)
        fp = reduce_mod(example_sextic, field)
        rep = singular_points(example_sextic, p, 6)
        for pt in rep.points:
            host = pt.coords[0].field if hasattr(pt.coords[0], "field") else field
            lift = lambda form: form.map_coefficients(
                lambda c: host.from_int(c.field.encode(c)) if c.field is field else c
            )
            coords = pt.coords
            assert not lift(fp).evaluate(coords)
            for i in range(3):
                assert not lift(fp.partial(i)).evaluate(coords)
            pivot = next(i for i, c in enumerate(coords) if c)
            i, j = [k for k in range(3) if k != pivot]
            hii = lift(fp.partial(i).partial(i)).evaluate(coords)
            hij = lift(fp.partial(i).partial(j)).evaluate(coords)
            hjj = lift(fp.partial(j).partial(j)).evaluate(coords)
            assert (pt.kind == "node") == bool(hii * hjj - hij * hij)


def test_frame_invariance_of_singular_sets(example_sextic):
    """A random invertible coordinate change must not alter the singular-point
    invariants (count, degrees, kinds)."""
    rng = random.Random(23)
    for p in (5, 7):
        base = singular_points(example_sextic, p, 6)
        base_sig = sorted((pt.residue_degree, pt.kind) for pt in base.points)
        for _ in range(3):
            while True:
                m = [[rng.randrange(p) for _ in range(3)] for _ in range(3)]
                det = (
                    m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
                    - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
                    + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
                )
                if det % p:
                    break
            g = example_sextic.compose_linear(m)
            rep = singular_points(g, p, 6)
            assert rep.r == base.r
            assert sorted((pt.residue_degree, pt.kind) for pt in rep.points) == base_sig


def test_verify_bad_prime_list(example_sextic, fixtures):
    att = verify_bad_prime_list(example_sextic, fixtures.bad_primes, (3, 11, 13))
    assert len(att.bad_confirmed) == 9  # all odd listed primes
    assert att.good_confirmed == [3, 11, 13]
    # an incomplete list still verifies, with the fixture note recording the gap
    short = [p for p in fixtures.bad_primes if p != 650779]
    att2 = verify_bad_prime_list(example_sextic, short, ())
    assert len(att2.bad_confirmed) == 8
    assert any("fixture" in note for note in att2.notes)
    with pytest.raises(AssertionError):
        verify_bad_prime_list(example_sextic, fixtures.bad_primes, (5,))
