import json
import random
from collections import Counter
from itertools import combinations

import numpy as np
import pytest

from k3hasse import badred
from k3hasse.badred import (
    BadPrimeListMismatch,
    DegenerateReduction,
    NotBadPrime,
    PositiveDimensionalLocus,
    RegularizationError,
    is_bad_prime,
    jacobian_system,
    regularize,
    singular_points,
    verify_bad_prime_list,
)
from k3hasse.finitefield import fq, irreducible_factors, prime_field
from k3hasse.poly import FormModP, ModP, TernaryForm, integer_chart_resultant, monomials_of_degree
from k3hasse.surface import QuadricSextet, build_k3, reduce_mod

from .conftest import _clear_memos
from .oracles import (
    CodeVectors,
    ExtensionField,
    UniPoly,
    compose_linear,
    decoded_forms,
    element_field,
    map_coefficients,
    resultant,
    squarefree_decomposition,
    sylvester_resultant,
    ternary_to_t_over_u,
    to_elements,
    uni,
    unipoly_common_zero,
    unipoly_frame,
    unipoly_singular_points,
)


def _exhaustive_singular_search(f: TernaryForm, p: int, max_e: int) -> bool:
    """Oracle: scan P^2(F_{p^e}) for e <= max_e for a common zero of the
    Jacobian system, evaluating all forms on the full grid via the field
    tables (no resultants anywhere)."""
    fp = f if isinstance(f, FormModP) else reduce_mod(f, prime_field(p))
    system = jacobian_system(fp)
    ints = [dict(g.terms) for g in system]
    for e in range(1, max_e + 1):
        V = CodeVectors(fq(p, e).tables)
        q = V.t.q
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
                    term = V.mul(term, Y)
                for _ in range(e2):
                    term = V.mul(term, Z)
                vals = term if first else V.add(vals, term)
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
                    term = V.mul(term, ar)
                vals = term if first else V.add(vals, term)
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
    needs an extension: the evaluation field of D = 4 * 4, the canonical
    fq(3, 3) with modulus t^3 + 2t + 1, where the first frame is (t, 0).
    The coded transformed form decodes to the substitution made on field
    elements."""
    F3 = prime_field(3)
    g = reduce_mod(TernaryForm(4, {(3, 0, 1): 1, (1, 0, 3): -1}), F3)
    fld, a, b, A, code, decode, (h,) = regularize([g], F3)
    assert fld is fq(3, 3) and A is fld.log_arith
    assert fld.modulus == (1, 2, 0, 1)
    assert (a, b) == (3, 0)
    assert decode(h[4][0])  # the y2^4 coefficient, h(0, 0, 1)
    E = element_field(fld)
    a, b = E.decode(a), E.decode(b)
    frame = [[E.one, E.zero, a], [E.zero, E.one, b], [E.zero, E.zero, E.one]]
    want = compose_linear(map_coefficients(g, E.decode), frame)
    got = {(4 - j - k, j, k): E.decode(decode(c)) for k, row in enumerate(h) for j, c in enumerate(row)}
    assert TernaryForm(4, got) == want


def test_chart_resultants_of_the_lifted_mod_3_system(example_sextic):
    """The example's mod-3 Jacobian system has no frame over F_3, so its
    frame is found in its evaluation field F_81 (D = 5 * 6), at (0, t);
    every chart resultant, computed on int codes there, decodes to the
    subresultant of the decoded charts."""
    F3 = prime_field(3)
    elim = badred._eliminate(tuple(jacobian_system(reduce_mod(example_sextic, F3))), F3)
    assert elim.fld is fq(3, 4) and elim.A is elim.fld.log_arith
    assert (elim.a, elim.b) == (0, 3)  # (0, t)
    decoded = [UniPoly([uni(elim, c) for c in P]) for P in elim.charts]
    assert decoded == [ternary_to_t_over_u(g, element_field(elim.fld).one) for g in decoded_forms(elim)]
    for (P, Pd), (Q, Qd) in combinations(zip(elim.charts, decoded), 2):
        assert uni(elim, badred.resultant(elim.A, P, Q)) == resultant(Pd, Qd)


def test_singular_points_needs_a_frame_over_the_prime_field():
    """(x0^3 x2 - x0 x2^3)(x0^2 + x1^2 + x2^2) is bad mod 3, but its Jacobian
    system has a frame only over F_9, where the node locator does not work."""
    f = TernaryForm(4, {(3, 0, 1): 1, (1, 0, 3): -1}) * TernaryForm(
        2, {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1}
    )
    assert is_bad_prime(f, 3)
    with pytest.raises(RegularizationError):
        singular_points(f, 3, 6)


def _count_resultants(monkeypatch, name: str = "resultant") -> list:
    """The arguments of each call of badred's chart resultant, or of the
    binding ``name``."""
    calls = []
    resultant = getattr(badred, name)

    def counted(*args):
        calls.append(args[-2:])
        return resultant(*args)

    monkeypatch.setattr(badred, name, counted)
    return calls


def test_singular_points_reuses_the_decision_elimination(example_sextic, monkeypatch, fresh_memos):
    """After is_bad_prime(f, p), singular_points(f, p) computes no new
    chart resultant.  Mod 7, where the x1-partial's x2^5 coefficient -18816
    vanishes, the decision runs the chart resultant chain.  Mod 5 it stops on
    the line y0 = 0 ([0:1:0] is singular), and the node locator then reads G
    from the R_ij over Z, computed once for the sextic: mod 89 they are
    reduced again, not recomputed."""
    calls = _count_resultants(monkeypatch)
    lifted = _count_resultants(monkeypatch, "integer_chart_resultant")

    def resultants(p):
        calls.clear()
        assert is_bad_prime(example_sextic, p)
        decided = len(calls)
        singular_points(example_sextic, p, 6)
        return decided, len(calls)

    decided, total = resultants(7)
    assert decided > 0 and total == decided and not lifted
    assert resultants(5) == (0, 0) and len(lifted) == 3
    assert resultants(89) == (0, 0) and len(lifted) == 3


def test_a_rational_node_mod_3_is_decided_without_a_resultant(monkeypatch, fresh_memos):
    """P^2(F_3) has 13 points, fewer than the 31 evaluation points of one
    chart resultant of the mod-3 system (D = 5 * 6): a node at [1:0:0],
    which no frame moves onto the line y0 = 0, is found by the scan, and no
    resultant is computed."""
    calls = _count_resultants(monkeypatch)
    node = _force_rational_node(random.Random(29))
    f = TernaryForm(6, {(e2, e1, e0): c for (e0, e1, e2), c in node.terms.items()})
    assert not reduce_mod(f, prime_field(3)).is_zero()
    assert is_bad_prime(f, 3)
    assert calls == []


def _nodes_at_a_conjugate_pair(rng) -> TernaryForm:
    """a x2^2 + b x2 Q + c Q^2, Q = x0^2 + x1^2, for random a, b, c over Z:
    a sextic singular at the two points [1 : +-i : 0] of P^2(F_9), which are
    conjugate over F_3."""
    x2 = TernaryForm(1, {(0, 0, 1): 1})
    Q = TernaryForm(2, {(2, 0, 0): 1, (0, 2, 0): 1})
    a, b, c = (_random_form(rng, d, -1, 1) for d in (4, 3, 2))
    return a * x2 * x2 + b * x2 * Q + c * Q * Q


def test_singular_points_off_p2_f3_are_found_by_the_elimination(monkeypatch, fresh_memos):
    """A sextic whose singular points mod 3 lie in P^2(F_9) but none in
    P^2(F_3): the scan of P^2(F_9) finds a witness, and the elimination
    alone decides it singular too."""
    calls = _count_resultants(monkeypatch)
    rng = random.Random(31)
    f = _nodes_at_a_conjugate_pair(rng)
    while _exhaustive_singular_search(f, 3, 1):
        f = _nodes_at_a_conjugate_pair(rng)
    assert _exhaustive_singular_search(f, 3, 2)
    F3 = prime_field(3)
    system = jacobian_system(reduce_mod(f, F3))
    assert badred._point_witness(system, F3)
    assert badred._has_common_zero(badred._eliminate(tuple(system), F3))
    assert calls


def test_singular_points_off_p2_f9_are_found_by_the_elimination(monkeypatch, fresh_memos):
    """A sextic singular mod 3 at an orbit of three points of P^2(F_27) and
    at no point of P^2(F_9): the scan finds no witness, and is_bad_prime
    reaches the elimination."""
    calls = _count_resultants(monkeypatch)
    rng = random.Random(37)
    f = _orbit_sextic(rng, 3, 3)
    while _exhaustive_singular_search(f, 3, 2) or not _exhaustive_singular_search(f, 3, 3):
        f = _orbit_sextic(rng, 3, 3)
    F3 = prime_field(3)
    assert not badred._point_witness(jacobian_system(reduce_mod(f, F3)), F3)
    assert is_bad_prime(f, 3)
    assert calls


def test_the_point_scan_matches_the_exhaustive_search_over_f9():
    """On random sextics, rational nodes, conjugate pairs of nodes and
    orbits of two and three points mod 3, the scan of P^2(F_9) finds a
    witness exactly when the exhaustive search over F_3 and F_9 finds a
    singular point."""
    F3 = prime_field(3)
    rng = random.Random(41)
    cases = [_random_form(rng, 6, -1, 1) for _ in range(20)] + [_random_form(rng) for _ in range(10)]
    cases += [_force_rational_node(rng) for _ in range(5)]
    cases += [_nodes_at_a_conjugate_pair(rng) for _ in range(10)]
    cases += [_orbit_sextic(rng, 3, m) for m in (2, 3) for _ in range(5)]
    verdicts = Counter()
    for f in cases:
        fp = reduce_mod(f, F3)
        if fp.is_zero():
            continue
        got = badred._point_witness(jacobian_system(fp), F3)
        assert got == _exhaustive_singular_search(fp, 3, 2), f
        verdicts[got] += 1
    assert sum(verdicts.values()) >= 50 and verdicts[True] and verdicts[False]


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
    assert sorted(pt.coords for pt in rep5.points) == [[0, 1, 0], [1, 0, 2]]
    rep7 = singular_points(example_sextic, 7, 6)
    assert rep7.r == 1 and rep7.all_nodes_and_r_lt8
    assert rep7.points[0].coords == [1, 0, 3]


def test_singular_points_constructed_node():
    # x0 x1 x2^4 + x0^6 + x1^6 has a node at (0,0,1) mod 7
    f = TernaryForm(6, {(1, 1, 4): 1, (6, 0, 0): 1, (0, 6, 0): 1})
    rep = singular_points(f, 7, 6)
    assert any(pt.coords == [0, 0, 1] and pt.kind == "node" for pt in rep.points)


def test_singular_points_requires_bad_prime():
    fermat = TernaryForm(6, {(6, 0, 0): 1, (0, 6, 0): 1, (0, 0, 6): 1})
    with pytest.raises(NotBadPrime):
        singular_points(fermat, 7, 6)


def _non_reduced_forms() -> list[TernaryForm]:
    """L^2 Q^2 and L^2 C4: a repeated factor makes every pair of partials
    share it."""
    L = TernaryForm(1, {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 2})
    Q = TernaryForm(2, {(1, 1, 0): 1, (0, 0, 2): 1})
    C4 = TernaryForm(
        4, {(4, 0, 0): 1, (0, 4, 0): 1, (0, 0, 4): 1, (1, 1, 2): 3}
    )
    return [L * L * Q * Q, L * L * C4]


def test_non_reduced_forms_trigger_the_shared_factor_split():
    """A repeated factor makes every pair of partials share it, so the pairwise
    resultants vanish identically and the variety-splitting branch runs."""
    for f in _non_reduced_forms():
        for p in (3, 5, 7):
            assert is_bad_prime(f, p)


@pytest.mark.parametrize("p", [3, 5, 7, 13, 29, 31])
def test_code_decision_matches_the_unipoly_oracle(p):
    """The decision on int codes (discrete logs for p = 3 .. 13, ints mod p
    for p = 29, 31) equals the UniPoly chain of the oracle, from the same
    frame, on 40 drawn sextics, forced rational nodes and non-reduced forms;
    a singular point the exhaustive search finds is never missed."""
    F = prime_field(p)
    rng = random.Random(7)
    cases = [_random_form(rng) for _ in range(40)]
    cases += [_force_rational_node(rng) for _ in range(5)] + _non_reduced_forms()
    verdicts = set()
    for f in cases:
        fp = reduce_mod(f, F)
        if fp.is_zero():
            continue
        system = jacobian_system(fp)
        got = badred._has_common_zero(badred._eliminate(tuple(system), F))
        assert got == unipoly_common_zero(system, F), f
        verdicts.add(got)
        if len(system) > 1 and all(g.degree > 0 for g in system):
            elim = badred._eliminate(tuple(system), F)
            fld, a, b = unipoly_frame(system, F)[:3]
            assert (element_field(elim.fld), elim.a, elim.b) == (fld, fld.encode(a), fld.encode(b)), f
        if _exhaustive_singular_search(fp, p, 2 if p <= 7 else 1):
            assert got, f
    assert verdicts == {True, False}


def _frameless_over_f_p_system(rng, p: int) -> list[TernaryForm]:
    """Two to four random forms of degree 2 .. 6; for p = 3 and 5 the first
    is a multiple of x0^p x2 - x0 x2^p, which vanishes at every [a:b:1] over
    F_p, in half the systems, so those need a frame over an extension."""
    system = [_random_form(rng, rng.randrange(2, 7), -3, 3) for _ in range(rng.randrange(2, 5))]
    if p <= 5 and rng.random() < 0.5:
        vanishing = TernaryForm(p + 1, {(p, 0, 1): 1, (1, 0, p): -1})
        system[0] = vanishing * _random_form(rng, rng.randrange(0, 6 - p), -3, 3)
    return system


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_every_frame_is_found_in_one_evaluation_field(p, monkeypatch, fresh_memos):
    """On random systems of degree 2 .. 6, the elimination encodes the
    system once, in ``evaluation_arith`` for max(D, S), and finds its frame
    there: both codes are at most S (the Schwartz-Zippel grid), the frame
    field is F_p exactly when both codes are below p and A's field
    otherwise, and the frame is the oracle's first in the same order.  The
    decision equals the UniPoly decision.  Mod 3 and 5 the F_p-less frames
    are reached, and both verdicts occur."""
    F = prime_field(p)
    rng = random.Random(2000 + p)
    encodings = []
    evaluation_arith = badred.evaluation_arith

    def counted(fld, bound):
        encodings.append((fld, bound))
        return evaluation_arith(fld, bound)

    monkeypatch.setattr(badred, "evaluation_arith", counted)
    extended, verdicts = 0, Counter()
    while sum(verdicts.values()) < 12:
        system = [reduce_mod(g, F) for g in _frameless_over_f_p_system(rng, p)]
        if any(g.is_zero() or g.degree == 0 for g in system):
            continue
        encodings.clear()
        elim = badred._eliminate(tuple(system), F)
        degrees = sorted(g.degree for g in system)
        S = sum(degrees)
        assert encodings == [(F, max(degrees[-2] * degrees[-1], S))]
        assert max(elim.a, elim.b) <= S
        assert elim.fld is (F if max(elim.a, elim.b) < p else elim.A.field)
        fld, a, b = unipoly_frame(system, F)[:3]
        assert (element_field(elim.fld), elim.a, elim.b) == (fld, fld.encode(a), fld.encode(b))
        got = badred._has_common_zero(elim)
        assert got == unipoly_common_zero(system, F), system
        extended += elim.fld is not F
        verdicts[got] += 1
    assert verdicts[True] and verdicts[False]
    assert extended >= (3 if p <= 5 else 0), extended


def test_d5_keeps_a_factor_of_g_whose_multiplicity_p_divides():
    """Three cubic and quartic curves through [1:0:1], pairwise with contact
    of order 3 there, and no common point on x0 = 0: mod 3 the gcd G of the
    chart resultants is u^9, whose derivative vanishes.  D5 modulo G itself
    finds the common point, as the oracle does."""
    F3 = prime_field(3)
    x0, x1, x2 = (TernaryForm(1, {m: 1}) for m in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    s = x2 - x0
    g1 = s * x0 * x0 - x1 * x1 * x1 + s * s * s
    g2 = s * x0 * x0 + x1 * x1 * x1 + s * s * s
    g3 = g1 * x2 + x1 * x1 * x1 * x1
    system = [reduce_mod(g, F3) for g in (g1, g2, g3)]
    elim = badred._eliminate(tuple(system), F3)
    assert len(elim.ginf) == 1  # nothing on the line y0 = 0
    G, zero_pair = elim.chart
    assert zero_pair is None
    assert [(fac.degree, m) for fac, m in squarefree_decomposition(uni(elim, G))] == [(1, 9)]
    assert badred._has_common_zero(badred._eliminate(tuple(system), F3))
    assert unipoly_common_zero(system, F3)


def _positive_dimensional_sextet(A) -> QuadricSextet:
    B = C = [5, 0, 0, 5, 0, 5]
    return QuadricSextet.from_coefficients(
        [A, B, C, [c + 5 for c in A], [10, 0, 0, 5, 0, 10], [c - 5 for c in A]]
    )


@pytest.mark.parametrize("A, cause", [
    ([-1, 0, 0, -5, 0, -5], "one form"),  # f = 4 x0^6 mod 5
    ([-3, 1, 0, -4, 1, -2], "share a factor"),
])
def test_singular_points_rejects_a_positive_dimensional_locus(A, cause):
    """Mod 5 the first sextet's Jacobian system is the single form 4 x0^5,
    whose singular locus is the line x0 = 0; the second's partials share a
    factor (a chart resultant vanishes identically).  Neither is a finite
    set of points for the locator."""
    f = build_k3(_positive_dimensional_sextet(A)).branch_sextic
    assert is_bad_prime(f, 5)
    with pytest.raises(PositiveDimensionalLocus, match=cause):
        singular_points(f, 5, 6)


def test_reported_nodes_pass_independent_hessian_check(example_sextic):
    for p in (5, 7):
        field = element_field(prime_field(p))
        fp = to_elements(reduce_mod(example_sextic, prime_field(p)))
        rep = singular_points(example_sextic, p, 6)
        for pt in rep.points:
            # every singular point of the example mod 5 and 7 is rational
            assert pt.residue_degree == 1 and all(isinstance(c, int) for c in pt.coords)
            coords = [field.from_int(c) for c in pt.coords]
            assert not fp.evaluate(coords)
            for i in range(3):
                assert not fp.partial(i).evaluate(coords)
            pivot = next(i for i, c in enumerate(coords) if c)
            i, j = [k for k in range(3) if k != pivot]
            hii = fp.partial(i).partial(i).evaluate(coords)
            hij = fp.partial(i).partial(j).evaluate(coords)
            hjj = fp.partial(j).partial(j).evaluate(coords)
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
            g = compose_linear(example_sextic, m)
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
    with pytest.raises(AssertionError) as exc:
        verify_bad_prime_list(example_sextic, fixtures.bad_primes, (5,))
    assert isinstance(exc.value, BadPrimeListMismatch) and exc.value.prime == 5
    with pytest.raises(BadPrimeListMismatch) as exc:
        verify_bad_prime_list(example_sextic, [5, 11], ())
    assert exc.value.prime == 11


def test_singular_points_refuses_p_2():
    """Cantor-Zassenhaus needs an odd field order; mod 2 the locator refuses
    with is_bad_prime's ValueError instead of searching for a split forever."""
    f = TernaryForm(6, {
        (4, 1, 1): 1, (4, 0, 2): 1, (3, 3, 0): 1, (3, 2, 1): 1, (3, 1, 2): 1, (3, 0, 3): 2,
        (2, 3, 1): 1, (2, 2, 2): 2, (2, 1, 3): 2, (2, 0, 4): 2, (1, 5, 0): 1, (1, 3, 2): 2,
        (1, 2, 3): 1, (1, 1, 4): 2, (1, 0, 5): 1, (0, 4, 2): 1, (0, 2, 4): 1, (0, 1, 5): 1,
    })
    with pytest.raises(ValueError) as refused:
        singular_points(f, 2, 6)
    with pytest.raises(ValueError) as decision:
        is_bad_prime(f, 2)
    assert str(refused.value) == str(decision.value)


# ---------------------------------------------------------------------------
# The node locator on codes against the FFElem locator of the oracles
# ---------------------------------------------------------------------------

def _sorted_json(report) -> str:
    out = report.to_json_dict()
    out["points"] = sorted(out["points"], key=json.dumps)
    return json.dumps(out, sort_keys=True)


def _orbit_sextic(rng, p: int, m: int) -> TernaryForm:
    """a x2^2 + b x2 C + c C^2 for random a, b, c and a binary form C(x0, x1)
    of degree m, irreducible mod p: singular at the Galois orbit of m points
    where x2 = C = 0."""
    while True:
        cs = [rng.randrange(p) for _ in range(m)] + [1]
        if [len(irr) for irr, _ in irreducible_factors(ModP(p), cs)] == [m + 1]:
            break
    x2 = TernaryForm(1, {(0, 0, 1): 1})
    C = TernaryForm(m, {(m - i, i, 0): c for i, c in enumerate(cs)})
    a, b, c = (_random_form(rng, d, -1, 1) for d in (4, 5 - m, 6 - 2 * m))
    return a * x2 * x2 + b * x2 * C + c * C * C


def _tower_sextic(rng) -> TernaryForm:
    """a Q1^2 + b Q1 Q2 + c Q2^2 with Q1 = x1^2 - 3 x0^2 and
    Q2 = x2^2 - alpha x0^2 - beta x0 x1, singular mod 7 where Q1 = Q2 = 0:
    x1/x0 = +-sqrt(3) generates F_49, and x2/x0 a square root of
    alpha + beta x1/x0, of degree 2 over F_49 for a non-square.  c is 1 at
    x0 x2, x1 x2 and x2^2, so the Jacobian system misses [0:0:1] and the
    frame is (0, 0): u = x1/x0 has degree k = 2 and t = x2/x0 degree e = 2
    over F_p(u)."""
    alpha, beta = rng.randrange(7), rng.randrange(7)
    Q1 = TernaryForm(2, {(0, 2, 0): 1, (2, 0, 0): -3})
    Q2 = TernaryForm(2, {(0, 0, 2): 1, (2, 0, 0): -alpha, (1, 1, 0): -beta})
    a, b, c = (_random_form(rng, 2, -1, 1) for _ in range(3))
    c = TernaryForm(2, {**c.terms, (1, 0, 1): 1, (0, 1, 1): 1, (0, 0, 2): 1})
    return a * Q1 * Q1 + b * Q1 * Q2 + c * Q2 * Q2


def _locatable(f: TernaryForm, p: int, degree_bound: int = 6):
    try:
        return singular_points(f, p, degree_bound)
    except (PositiveDimensionalLocus, RegularizationError, DegenerateReduction):
        return None


def test_singular_points_match_the_oracle_at_the_shipped_primes(example_sextic, fixtures):
    for p in fixtures.bad_primes:
        if p != 2:
            got = singular_points(example_sextic, p, 6)
            assert _sorted_json(got) == _sorted_json(unipoly_singular_points(example_sextic, p, 6))


@pytest.mark.parametrize("p", [5, 7, 11, 13, 31])
def test_singular_points_of_conjugate_pairs_and_triples_match_the_oracle(p):
    """Orbits of 2 and 3 points, mod 5 .. 13 on discrete logs and mod 31 > D
    on ints mod p, located and classified as the FFElem locator does."""
    rng = random.Random(p)
    for m in (2, 3):
        orbits = 0
        for _ in range(4):
            f = _orbit_sextic(rng, p, m)
            report = _locatable(f, p)
            if report is None:
                continue
            assert _sorted_json(report) == _sorted_json(unipoly_singular_points(f, p, 6))
            orbits += any(pt.residue_degree == m for pt in report.points)
        assert orbits >= 1


def _is_tower_point(pt) -> bool:
    return pt.residue_degree == 4 and all(isinstance(c, list) and isinstance(c[0], list) for c in pt.coords)


def test_degree_4_points_in_a_two_level_tower_match_the_oracle():
    """Points of residue degree k e = 2 * 2 = 4 mod 7: the root of the chart
    gcd lives in a residue field over the residue field F_7[u]/(pi), and
    its coordinates are nested coefficient lists."""
    rng = random.Random(43)
    towers = 0
    for _ in range(8):
        f = _tower_sextic(rng)
        report = _locatable(f, 7)
        if report is None:
            continue
        assert _sorted_json(report) == _sorted_json(unipoly_singular_points(f, 7, 6))
        towers += any(_is_tower_point(pt) for pt in report.points)
    assert towers >= 2


def test_degree_bound_below_an_orbit_leaves_it_unresolved():
    """A bound below an orbit's degree leaves the orbit unresolved, notes it
    and withholds the nodal verdict; the oracle agrees at the same bound.
    A triple exceeds bound 2 at its first factor (pi or the line's gcd), a
    tower point bound 3 only at the second level (k = 2, k e = 4)."""
    rng = random.Random(47)
    cases = []
    while len(cases) < 2:
        f = _orbit_sextic(rng, 7, 3)
        if (full := _locatable(f, 7)) and any(pt.residue_degree == 3 for pt in full.points):
            cases.append((f, 7, 2))
    while len(cases) < 4:
        f = _tower_sextic(rng)
        if (full := _locatable(f, 7)) and any(_is_tower_point(pt) for pt in full.points):
            cases.append((f, 7, 3))
    for f, p, bound in cases:
        report = singular_points(f, p, bound)
        assert report.unresolved >= 1
        assert report.notes == [f"candidates beyond residue degree {bound} left unresolved"]
        assert not report.all_nodes_and_r_lt8
        assert all(pt.residue_degree <= bound for pt in report.points)
        assert _sorted_json(report) == _sorted_json(unipoly_singular_points(f, p, bound))


# ---------------------------------------------------------------------------
# The shared-factor split on codes
# ---------------------------------------------------------------------------

def _count_splits(monkeypatch) -> list:
    calls = []
    split = badred._split_common_factor

    def counted(elim, i, j):
        calls.append((i, j))
        return split(elim, i, j)

    monkeypatch.setattr(badred, "_split_common_factor", counted)
    return calls


def _shared_factor_system(rng, forms: int) -> list[TernaryForm]:
    """H Q1, H Q2 and forms - 2 further random forms, of degree at most 5."""
    H = _random_form(rng, rng.randrange(1, 3), -3, 3)
    Q1, Q2 = (_random_form(rng, rng.randrange(1, 4), -3, 3) for _ in range(2))
    return [H * Q1, H * Q2] + [_random_form(rng, rng.randrange(1, 4), -3, 3) for _ in range(forms - 2)]


@pytest.mark.parametrize("p", [3, 5, 7, 31, 37])
def test_shared_factor_split_matches_the_oracle(p, monkeypatch):
    """H Q1, H Q2 with a third form or none, and with a third and a fourth
    (whose common zeros the split's branches can lack): the decision on
    codes, splitting off H in the frame of the elimination, equals the
    UniPoly decision, which splits by a bivariate gcd and re-regularises
    each branch.  The split runs on at least a quarter of the systems."""
    F = prime_field(p)
    rng = random.Random(1000 + p)
    splits = _count_splits(monkeypatch)
    verdicts, split_systems, total = Counter(), 0, 0
    for forms in [2] * 10 + [3] * 19 + [4] * 19:
        system = [reduce_mod(g, F) for g in _shared_factor_system(rng, forms)]
        if any(g.is_zero() for g in system):
            continue
        splits.clear()
        got = badred._has_common_zero(badred._eliminate(tuple(system), F))
        assert got == unipoly_common_zero(system, F), system
        verdicts[got] += 1
        split_systems += bool(splits)
        total += 1
    assert total >= 40 and 4 * split_systems >= total
    assert verdicts[True] and verdicts[False]


def test_bad_prime_chain_builds_no_unipoly_and_no_extension_product(example_sextic, fixtures, monkeypatch):
    """With the fields built, the decision and the locator at the nine
    shipped odd bad primes and a decision through the shared-factor split
    construct no UniPoly and multiply or invert no ExtensionField element."""
    F5 = prime_field(5)
    rng = random.Random(5)
    shared = [reduce_mod(g, F5) for g in _shared_factor_system(rng, 3)]

    def run():
        for p in fixtures.bad_primes:
            if p != 2:
                assert is_bad_prime(example_sextic, p)
                singular_points(example_sextic, p, 6)
        return badred._has_common_zero(badred._eliminate(tuple(shared), F5))

    want = unipoly_common_zero(shared, F5)
    run()
    _clear_memos()
    counts = Counter()
    init = UniPoly.__init__
    monkeypatch.setattr(UniPoly, "__init__", lambda self, coeffs=(): counts.update(["UniPoly"]) or init(self, coeffs))
    for name in ("_mul", "_inv"):
        op = getattr(ExtensionField, name)
        monkeypatch.setattr(ExtensionField, name, lambda self, *a, op=op, name=name: counts.update([name]) or op(self, *a))
    splits = _count_splits(monkeypatch)
    assert run() == want
    assert splits and counts == Counter()


# ---------------------------------------------------------------------------
# The chart resultants over Z, reduced mod each prime
# ---------------------------------------------------------------------------

def _lift_regular_sextic(rng) -> TernaryForm:
    """A random integer sextic whose partials have nonzero x2^5
    coefficients, so that their charts have the Bezout shape over Z."""
    while True:
        f = _random_form(rng)
        if all(f.partial(i).terms.get((0, 0, 5)) for i in range(3)):
            return f


def test_integer_chart_resultant_matches_the_subresultant_oracle(example_sextic):
    """R_ij over Z, from the exact resultants at u = 0 .. 25 and one exact
    division by 25!, is the UniPoly subresultant of the charts g_i(1, u, t),
    on the shipped sextic's three pairs and on 20 random integer sextics.
    At an integer point u0, in the range of the evaluation points or not,
    it is the Sylvester determinant of the specialised charts."""
    rng = random.Random(19)
    at = lambda P, u0: [sum(c * u0**e for e, c in enumerate(cs)) for cs in P]
    for f in [example_sextic] + [_lift_regular_sextic(rng) for _ in range(20)]:
        partials = [f.partial(i) for i in range(3)]
        charts = [badred._integer_chart(g) for g in partials]
        for i, j in combinations(range(3), 2):
            R = UniPoly(integer_chart_resultant(charts[i], charts[j]))
            assert R == resultant(*(ternary_to_t_over_u(partials[k], 1) for k in (i, j)))
            u0 = rng.randrange(-40, 41)
            assert R.evaluate(u0) == sylvester_resultant(at(charts[i], u0), at(charts[j], u0))


def _node_at_100(rng) -> TernaryForm:
    """A random sextic over Z singular at [1:0:0], so mod every prime."""
    f = _random_form(rng)
    return TernaryForm(6, {m: c for m, c in f.terms.items() if m[0] < 5})


@pytest.mark.parametrize("kind", ["shipped", "random", "node"])
def test_lifted_elimination_matches_the_unipoly_oracle(kind, example_sextic, fixtures, fresh_memos):
    """Mod every odd p < 100 and mod the 66- and 186-digit primes, the
    decision on reduce_mod(f, p), which reads the R_ij over Z wherever the
    lift applies, equals the UniPoly decision: for the shipped sextic, two
    random integer sextics and one singular at [1:0:0] over Z.  Where the
    lift applies, the elimination without it picks the frame (0, 0) too,
    and the charts and the chart gcd G are equal code lists.  Elsewhere the
    elimination given the lift carries none: mod 3, which divides deg f,
    and, for the shipped sextic, mod 7 and 61, which divide x2^5
    coefficients of its partials (-18816 and -58316)."""
    rng = random.Random(23)
    forms = {
        "shipped": [example_sextic],
        "random": [_random_form(rng) for _ in range(2)],
        "node": [_node_at_100(rng)],
    }[kind]
    primes = [p for p in range(3, 100, 2) if all(p % q for q in range(3, p, 2))]
    primes += [fixtures.prime66, fixtures.gcd_printed]
    verdicts = Counter()
    for f in forms:
        fallbacks = []
        for p in primes:
            F = prime_field(p)
            fp = reduce_mod(f, F)
            system = jacobian_system(fp)
            got = is_bad_prime(f, p)
            assert got == unipoly_common_zero(system, F), (p, f)
            verdicts[got] += 1
            lifted = badred._eliminate(tuple(system), F, f)
            if lifted.lift is None:
                fallbacks.append(p)
                continue
            plain = badred._eliminate(tuple(system), F)
            assert plain.lift is None and (plain.fld, plain.a, plain.b) == (F, 0, 0)
            assert lifted.charts == plain.charts and lifted.chart == plain.chart, p
        assert fallbacks[0] == 3 and len(fallbacks) < len(primes) // 2
        if kind == "shipped":
            assert fallbacks == [3, 7, 61]
    assert verdicts[True] and (verdicts[False] or kind == "node")


def _lifted(f: TernaryForm, p: int):
    """The elimination of f's Jacobian system mod p, given f as its lift."""
    F = prime_field(p)
    return badred._eliminate(tuple(jacobian_system(reduce_mod(f, F))), F, f)


def test_a_shared_factor_over_z_splits_into_plain_eliminations(monkeypatch, fresh_memos):
    """f = g^2 h, and f = x2 Q, whose partials by x0 and x1 share x2: the
    R_01 over Z is 0, so the lifted elimination finds the zero pair (0, 1)
    at once.  The shared-factor split's branches must eliminate their own
    charts, not read the R_ij again (which would split forever).  At each
    prime where the lift applies, is_bad_prime, and the split run on the
    lifted elimination, equal the UniPoly decision; only the top
    elimination of the decision is lifted.  For g^2 h the decision stops on
    the line y0 = 0, which meets V(g); for x2 Q it runs the split."""
    rng = random.Random(37)
    x2 = TernaryForm(1, {(0, 0, 1): 1})
    g, h = _random_form(rng, 2, -3, 3), _random_form(rng, 4, -3, 3)
    splits = _count_splits(monkeypatch)
    lifts = []
    has_common_zero = badred._has_common_zero

    def recorded(elim):
        lifts.append(elim.lift)
        return has_common_zero(elim)

    monkeypatch.setattr(badred, "_has_common_zero", recorded)
    for f in (g * g * h, x2 * _random_form(rng, 5)):
        primes = [p for p in (5, 7, 11, 13, 17, 19, 23, 29, 31) if _lifted(f, p).lift is not None]
        assert len(primes) >= 6
        for p in primes:
            F = prime_field(p)
            lifted = _lifted(f, p)
            assert lifted.chart == (None, (0, 1))
            want = unipoly_common_zero(jacobian_system(reduce_mod(f, F)), F)
            lifts.clear()
            assert is_bad_prime(f, p) == want
            assert lifts[0] is f and all(lift is None for lift in lifts[1:])
            lifts.clear()
            assert badred._split_common_factor(lifted, 0, 1) == want
            assert lifts and all(lift is None for lift in lifts)
    assert len(splits) > 2 * len(primes)


def test_two_partials_mod_p_read_no_integer_resultant(fresh_memos):
    """A sextic over Z whose coefficients are multiples of 5 except in
    x0-degree 0 or 5 has x0-partial 0 mod 5, so its Jacobian system mod 5
    is the other two partials.  Where the frame (0, 0) still regularises
    it, the R_ij of the three partials over Z are not its chart resultants
    (R_01 is 0 mod 5): the elimination given the lift carries none, and its
    chart gcd G is the one computed over F_5."""
    F5 = prime_field(5)
    rng = random.Random(41)
    checked = 0
    while checked < 24:
        f = TernaryForm(6, {
            m: rng.randrange(-9, 10) * (1 if m[0] in (0, 5) else 5) for m in monomials_of_degree(6)
        })
        system = tuple(jacobian_system(reduce_mod(f, F5)))
        plain = badred._eliminate(system, F5)
        if len(system) != 2 or (plain.fld, plain.a, plain.b) != (F5, 0, 0):
            continue
        elim = badred._eliminate(system, F5, f)
        assert elim.lift is None and elim.chart == plain.chart, f
        assert plain.chart[1] is None
        checked += 1
