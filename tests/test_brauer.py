import random
import re
from fractions import Fraction

import pytest

from k3hasse import brauer
from k3hasse.brauer import (
    IndeterminateAtPoint,
    LocalSolubilityUndecided,
    InvariantProfile,
    PlaceInvariant,
    SurfacePoint,
    bm_verdict,
    build_invariant_profile,
    certify_everywhere_local,
    evaluate_invariant,
    find_local_point,
    minors,
    representatives,
    sample_local_points,
)
from k3hasse.localfield import INV_HALF, INV_ZERO, Place, hilbert_symbol
from k3hasse.poly import TernaryForm, monomials_of_degree
from k3hasse.surface import K3Surface, QuadricSextet, build_k3
from .oracles import conic_locally_soluble


def _zero_form():
    return TernaryForm(2, {})


def test_minors_trivial_cases(example_sextet):
    zero = _zero_form()
    zs = QuadricSextet.from_forms(zero, zero, zero, zero, zero, zero)
    m = minors(zs)
    assert m.M_A.is_zero() and m.M_D.is_zero() and m.M_F.is_zero()

    diag = QuadricSextet.from_forms(example_sextet.A, zero, zero, example_sextet.D, zero, example_sextet.F)
    m = minors(diag)
    assert m.M_A == (example_sextet.D * example_sextet.F).scale(4)
    assert m.M_D == (example_sextet.A * example_sextet.F).scale(4)
    assert m.M_F == (example_sextet.A * example_sextet.D).scale(4)

    # M_F at (0,0,-1) equals 4 A D - B^2 evaluated there
    m = minors(example_sextet)
    pt = (0, 0, -1)
    want = 4 * example_sextet.A.evaluate(pt) * example_sextet.D.evaluate(pt) - example_sextet.B.evaluate(pt) ** 2
    assert m.M_F.evaluate(pt) == want


def test_headline_symbol_is_first_representative(example_sextet):
    # (B^2 - 4AD, A) = (-M_F, A) is the first representative
    rep = representatives(example_sextet)[0]
    assert rep.tag == "(-M_F,A)"
    assert rep.left == example_sextet.B * example_sextet.B - (example_sextet.A * example_sextet.D).scale(4)
    assert rep.right == example_sextet.A


def test_representatives_are_built_once_per_sextet(example_sextet):
    reps = representatives(example_sextet)
    assert isinstance(reps, tuple) and len(reps) == 6
    assert representatives(example_sextet) is reps


def test_profile_computes_the_minors_once(example_surface, fixtures, monkeypatch, fresh_memos):
    computed = []
    minors_of = brauer.minors

    def counted(q):
        computed.append(q)
        return minors_of(q)

    monkeypatch.setattr(brauer, "minors", counted)
    profile = build_invariant_profile(example_surface, fixtures.bad_primes)
    assert computed == [example_surface.sextet]
    assert sum(e.samples for e in profile.entries.values()) > 200


def test_profile_evaluates_the_sextic_once_per_triple(example_surface, fixtures, monkeypatch, fresh_memos):
    """The invariant profile samples the same triples at every place; the
    branch sextic is evaluated once per distinct triple, although its memo
    holds the representatives' entries too."""
    f = example_surface.branch_sextic
    triples, on_f = [], []
    certify, evaluate = brauer.certify_point, TernaryForm.evaluate

    def recorded(X, x, place):
        triples.append(x)
        return certify(X, x, place)

    def counted(form, point):
        if form is f:
            on_f.append(point)
        return evaluate(form, point)

    monkeypatch.setattr(brauer, "certify_point", recorded)
    monkeypatch.setattr(TernaryForm, "evaluate", counted)
    build_invariant_profile(example_surface, fixtures.bad_primes)
    assert sorted(on_f) == sorted(set(triples)) and len(on_f) < len(triples)


def test_find_local_point_table1_rows(example_surface):
    pt = find_local_point(example_surface, Place.finite(2), box=1)
    assert pt.x == (Fraction(0), Fraction(0), Fraction(-1))
    assert pt.value == 57872
    pt = find_local_point(example_surface, Place.finite(89), box=1)
    assert pt.x == (Fraction(-1), Fraction(0), Fraction(-1))
    assert pt.value == 80019


def test_local_points_are_integer_triples(example_surface):
    for place in (Place.real(), Place.finite(2), Place.finite(5), Place.finite(89)):
        pt = find_local_point(example_surface, place, box=1)
        assert all(type(c) is int for c in pt.x) and type(pt.value) is int, place


@pytest.mark.parametrize("box", [True, 1.5])
def test_find_local_point_refuses_a_box_that_is_not_an_int(example_surface, fixtures, box):
    """A box of True is refused even after box 1 was memoised, and 1.5
    would reach ``range``; the attestation and the profile pass theirs on."""
    place = Place.finite(5)
    find_local_point(example_surface, place, box=1)
    message = re.escape(f"box must be an int, got {box!r}") + "$"
    with pytest.raises(TypeError, match=message):
        find_local_point(example_surface, place, box=box)
    with pytest.raises(TypeError, match=message):
        certify_everywhere_local(example_surface, fixtures.bad_primes, box=box)
    with pytest.raises(TypeError, match=message):
        build_invariant_profile(example_surface, fixtures.bad_primes, witness_box=box)


@pytest.mark.parametrize("prime", [89.5, 2.0, True])
def test_a_bad_prime_that_is_not_an_int_is_refused(example_surface, prime):
    """int() would read 89.5 as 89, attesting Q_89, and True as 1, which
    is dropped unnoticed: both legs refuse such a prime by name."""
    message = re.escape(f"{prime!r} is not an integer")
    with pytest.raises(ValueError, match=message):
        certify_everywhere_local(example_surface, [prime])
    with pytest.raises(ValueError, match=message):
        build_invariant_profile(example_surface, [prime])


def test_a_bad_prime_in_decimal_digits_is_read(example_surface):
    """The decimal strings the fixture and the CLI carry are read as ints."""
    q263 = Place.finite(263)
    assert q263 in certify_everywhere_local(example_surface, ["263"]).witnesses
    assert q263 in build_invariant_profile(example_surface, ["263"]).entries


def test_find_local_point_not_found():
    # w^2 = -(x0^2+x1^2+x2^2)^3 has no real points
    s = TernaryForm(2, {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1})
    f = (s * s * s).scale(-1)
    X = K3Surface(branch_sextic=f, sextet=None)
    assert find_local_point(X, Place.real(), box=3) is None


def test_invariants_at_example_points(example_surface, example_sextet):
    # real points carry 1/2
    for P in sample_local_points(example_surface, Place.real(), 25):
        assert evaluate_invariant(example_sextet, P, Place.real()) == INV_HALF
    # 2-adic points carry 0
    for P in sample_local_points(example_surface, Place.finite(2), 25):
        assert evaluate_invariant(example_sextet, P, Place.finite(2)) == INV_ZERO
    # the printed 5-adic witness carries 0, cross-checked by the conic oracle
    place = Place.finite(5)
    P = find_local_point(example_surface, place, box=1)
    assert P.x == (Fraction(-1), Fraction(-1), Fraction(-1))
    assert evaluate_invariant(example_sextet, P, place) == INV_ZERO
    for rep in representatives(example_sextet):
        lv, rv = int(rep.left.evaluate(P.x)), int(rep.right.evaluate(P.x))
        if lv and rv:
            assert conic_locally_soluble(lv, rv, 5)
            break


def test_indeterminate_when_all_representatives_vanish():
    zero = _zero_form()
    zs = QuadricSextet.from_forms(zero, zero, zero, zero, zero, zero)
    P = SurfacePoint(x=(Fraction(1), Fraction(0), Fraction(0)), place=Place.real(), value=Fraction(1))
    with pytest.raises(IndeterminateAtPoint):
        evaluate_invariant(zs, P, Place.real())


def test_representative_coherence():
    """Wherever two representatives are both defined, their symbols agree."""
    rng = random.Random(29)
    places = [Place.real()] + [Place.finite(p) for p in (2, 3, 5, 7, 11, 13)]
    mons = monomials_of_degree(2)
    trials = 0
    while trials < 60:
        q = QuadricSextet.from_coefficients(
            [[rng.randrange(-6, 7) for _ in range(6)] for _ in range(6)]
        )
        x = tuple(Fraction(rng.randrange(-4, 5)) for _ in range(3))
        if x == (0, 0, 0):
            continue
        values = []
        for rep in representatives(q):
            lv, rv = rep.left.evaluate(x), rep.right.evaluate(x)
            if lv != 0 and rv != 0:
                values.append((lv, rv))
        if len(values) < 2:
            continue
        # a symbol comparison is only meaningful on the surface w^2 = f, where
        # the representatives are equivalent; sample x there by adjusting along
        # the defining relation is impractical, so restrict to points with
        # f(x) a nonzero square (rational w exists) or a p-adic square.
        f = build_k3(q).branch_sextic
        v = f.evaluate(x)
        if v == 0:
            continue
        for place in places:
            from k3hasse.localfield import padic_square

            on_surface = v > 0 if place.is_real else padic_square(Fraction(v), place.p)
            if not on_surface:
                continue
            symbols = {hilbert_symbol(lv, rv, place) for lv, rv in values}
            assert len(symbols) == 1, (q.to_json(), x, place)
            trials += 1
            break
        else:
            continue


def test_certify_everywhere_local(example_surface, fixtures):
    att = certify_everywhere_local(example_surface, fixtures.bad_primes, box=1)
    places = {p.p for p in att.checked_places}
    assert 0 in places and 2 in places and 19 in places
    assert fixtures.gcd_printed in places
    assert len(att.witnesses) == 16  # R, eight primes <= 19, seven bad > 19

    s = TernaryForm(2, {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1})
    no_real = K3Surface(branch_sextic=(s * s * s).scale(-1), sextet=None)
    with pytest.raises(LocalSolubilityUndecided) as err:
        certify_everywhere_local(no_real, [], box=2)
    assert err.value.place.is_real

    att_short = certify_everywhere_local(example_surface, [5, 7], box=1)
    assert len(att_short.witnesses) < len(att.witnesses)


def test_bm_verdict_cases():
    def profile(entries):
        return InvariantProfile(
            entries={
                place: PlaceInvariant(place=place, value=v, basis="theorem:test",
                                      witness=None, samples=1, constant=True)
                for place, v in entries.items()
            },
            eliminations=[],
        )

    real, two = Place.real(), Place.finite(2)
    assert bm_verdict(profile({real: INV_HALF, two: INV_ZERO})) == "obstruction"
    assert bm_verdict(profile({real: INV_ZERO, two: INV_ZERO})) == "no-obstruction-from-class"
    assert bm_verdict(profile({real: INV_HALF, two: INV_HALF})) == "no-obstruction-from-class"

    bad = profile({real: INV_HALF})
    bad.entries[real] = PlaceInvariant(place=real, value=None, basis="empirical",
                                       witness=None, samples=5, constant=False)
    from k3hasse.brauer import ProfileInconclusive

    with pytest.raises(ProfileInconclusive):
        bm_verdict(bad)


def test_profile_builder_on_example_surface(example_surface, fixtures):
    profile = build_invariant_profile(example_surface, fixtures.bad_primes)
    assert profile.entries[Place.real()].value == INV_HALF
    for place, entry in profile.entries.items():
        assert entry.constant
        assert entry.basis.startswith("theorem")
        if not place.is_real:
            assert entry.value == INV_ZERO
        if place.is_real or place.p == 2:
            assert entry.samples >= 25
        else:
            assert entry.samples >= 20
    assert profile.total() == INV_HALF
    assert bm_verdict(profile) == "obstruction"
