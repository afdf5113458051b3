import json
import random
import re
from fractions import Fraction

import pytest

from k3hasse.brauer import minors, sample_local_points
from k3hasse.finitefield import prime_field
from k3hasse.localfield import Place
from k3hasse.poly import TernaryForm
from k3hasse.surface import (
    COEFFICIENT_PATTERNS,
    QuadricSextet,
    build_k3,
    check_2adic_conditions,
    check_real_conditions,
    is_smooth_curve,
    reduce_mod,
    swap_projection,
)

from .oracles import map_coefficients


def _random_sextet(rng, lo=-9, hi=9):
    return QuadricSextet.from_coefficients(
        [[rng.randrange(lo, hi + 1) for _ in range(6)] for _ in range(6)]
    )


def _zero_sextet():
    zero = TernaryForm(2, {})
    return QuadricSextet.from_forms(zero, zero, zero, zero, zero, zero)


def test_build_k3_example_value(example_surface):
    assert example_surface.branch_sextic.evaluate((0, 0, -1)) == 57872
    assert example_surface.branch_sextic.degree == 6
    assert all(isinstance(c, int) for c in example_surface.branch_sextic.terms.values())


def test_build_k3_zero_and_diagonal():
    assert build_k3(_zero_sextet()).branch_sextic.is_zero()
    rng = random.Random(1)
    q = _random_sextet(rng)
    zero = TernaryForm(2, {})
    diag = QuadricSextet.from_forms(q.A, zero, zero, q.D, zero, q.F)
    expected = (q.A * q.D * q.F).scale(-4)
    assert build_k3(diag).branch_sextic == expected


def _det_by_permutations(q):
    """-(1/2) det M via the 6-term permutation expansion; independent of the
    expansion used by build_k3."""
    A, B, C, D, E, F = q.forms()
    m = [[A.scale(2), B, C], [B, D.scale(2), E], [C, E, F.scale(2)]]
    total = None
    for perm, sign in (
        ((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1),
        ((0, 2, 1), -1), ((2, 1, 0), -1), ((1, 0, 2), -1),
    ):
        term = m[0][perm[0]] * m[1][perm[1]] * m[2][perm[2]]
        term = term.scale(sign)
        total = term if total is None else total + term
    # total = det(M); every coefficient is even by the doubled-diagonal shape
    halved = map_coefficients(total, lambda c: -(c // 2))
    return halved


def test_swap_projection_involution_and_transpose(example_sextet):
    assert swap_projection(swap_projection(example_sextet)) == example_sextet
    rng = random.Random(2)
    for _ in range(10):
        q = _random_sextet(rng)
        s = swap_projection(q)
        qm = [f.coefficients() for f in q.forms()]
        sm = [f.coefficients() for f in s.forms()]
        for i in range(6):
            for j in range(6):
                assert sm[i][j] == qm[j][i]
        assert swap_projection(s) == q
    # a symmetric coefficient matrix is a fixed point
    sym = QuadricSextet.from_coefficients(
        [[1, 2, 3, 4, 5, 6],
         [2, 1, 0, 0, 0, 0],
         [3, 0, 1, 0, 0, 0],
         [4, 0, 0, 1, 0, 0],
         [5, 0, 0, 0, 1, 0],
         [6, 0, 0, 0, 0, 1]]
    )
    assert swap_projection(sym) == sym


def test_both_projection_orders_give_matching_discriminants():
    rng = random.Random(3)
    for _ in range(8):
        q = _random_sextet(rng, -5, 5)
        assert build_k3(q).branch_sextic == _det_by_permutations(q)
        s = swap_projection(q)
        assert build_k3(s).branch_sextic == _det_by_permutations(s)


def test_smoothness_examples(example_sextic):
    """Smoothness is decided over finite fields only: the example sextic is
    smooth mod 3 and singular mod 5, a form over Z or Q raises TypeError, and
    the zero form raises ValueError before any type check."""
    assert is_smooth_curve(reduce_mod(example_sextic, prime_field(3)))
    assert not is_smooth_curve(reduce_mod(example_sextic, prime_field(5)))
    for p in (3, 5, 7):
        assert not is_smooth_curve(reduce_mod(TernaryForm(6, {(2, 4, 0): 1}), prime_field(p)))
    for form in (example_sextic, map_coefficients(example_sextic, Fraction)):
        with pytest.raises(TypeError, match="mod a prime"):
            is_smooth_curve(form)
    with pytest.raises(ValueError):
        is_smooth_curve(TernaryForm(6, {}))
    with pytest.raises(ValueError):
        is_smooth_curve(reduce_mod(TernaryForm(6, {(6, 0, 0): 3}), prime_field(3)))


def test_one_form_reduced_mod_two_primes_is_two_forms(fresh_memos):
    """x0^6 + x1^6 + x2^6 has the same int coefficients mod 3 and mod 7,
    but mod 3 it is the cube of x0^2 + x1^2 + x2^2, singular everywhere,
    and mod 7 it is smooth: the reduced forms differ by their field, so the
    memoised decision for one is never the other's."""
    fermat = TernaryForm(6, {(6, 0, 0): 1, (0, 6, 0): 1, (0, 0, 6): 1})
    f3, f7 = (reduce_mod(fermat, prime_field(p)) for p in (3, 7))
    assert f3.terms == f7.terms and f3 != f7
    assert not is_smooth_curve(f3)
    assert is_smooth_curve(f7)


def test_forms_mod_p_stay_over_their_field_under_arithmetic(fresh_memos):
    """Sums, differences, negation, products, scalings and partials of
    forms reduced mod 7 are reduced forms over F_7, so smoothness answers
    on a sum; forms over different fields do not combine."""
    F7 = prime_field(7)
    f = TernaryForm(6, {(6, 0, 0): 1, (0, 6, 0): 1, (2, 2, 2): 5})
    g = TernaryForm(6, {(0, 0, 6): 8, (2, 2, 2): 2})
    total = reduce_mod(f, F7) + reduce_mod(g, F7)
    assert total == reduce_mod(f + g, F7)  # x0^6 + x1^6 + x2^6 mod 7
    assert is_smooth_curve(total)
    assert reduce_mod(f, F7) - reduce_mod(g, F7) == reduce_mod(f - g, F7)
    assert -reduce_mod(f, F7) == reduce_mod(-f, F7)
    assert reduce_mod(f, F7) * reduce_mod(g, F7) == reduce_mod(f * g, F7)
    assert reduce_mod(f, F7).scale(10) == reduce_mod(f.scale(10), F7)
    assert all(reduce_mod(f, F7).partial(i) == reduce_mod(f.partial(i), F7) for i in range(3))
    with pytest.raises(ValueError, match="different fields"):
        reduce_mod(f, F7) + reduce_mod(g, prime_field(5))


def test_real_conditions(example_sextet):
    assert check_real_conditions(example_sextet)
    # positive-definite slot violation (A must be negative definite)
    bad = QuadricSextet.from_forms(
        TernaryForm.from_coefficients(2, [1, 0, 0, 0, 0, 0]),
        example_sextet.B, example_sextet.C, example_sextet.D, example_sextet.E, example_sextet.F,
    )
    assert not check_real_conditions(bad)
    # semidefinite B (rank-2 Gram matrix) is rejected: definite means strict
    semi = QuadricSextet.from_forms(
        example_sextet.A,
        TernaryForm.from_coefficients(2, [1, 0, 0, 1, 0, 0]),
        example_sextet.C, example_sextet.D, example_sextet.E, example_sextet.F,
    )
    assert not check_real_conditions(semi)


def test_2adic_conditions(example_sextet):
    assert check_2adic_conditions(example_sextet)

    def with_a(coeffs):
        return QuadricSextet.from_forms(
            TernaryForm.from_coefficients(2, coeffs),
            example_sextet.B, example_sextet.C, example_sextet.D,
            example_sextet.E, example_sextet.F,
        )

    a = [c for c in example_sextet.A.coefficients()]
    a1 = list(a); a1[0] = 3
    assert not check_2adic_conditions(with_a(a1))  # 3 != 1 mod 8
    a2 = list(a); a2[1] = 4
    assert not check_2adic_conditions(with_a(a2))  # v_2 = 2 < 3


def test_2adic_conditions_per_slot(example_sextet):
    """Each of the 36 coefficients of the shipped sextet: a shift by half its
    modulus breaks the 2-adic conditions, a shift by the modulus keeps them."""
    rows = [form.coefficients() for form in example_sextet.forms()]
    for slot, ((_, m), _) in enumerate(COEFFICIENT_PATTERNS):
        for shift, holds in ((m // 2, False), (m, True)):
            moved = [list(row) for row in rows]
            moved[slot // 6][slot % 6] += shift
            assert check_2adic_conditions(QuadricSextet.from_coefficients(moved)) is holds, (slot, shift)


def test_sextet_coefficients_agree_however_the_sextet_is_built(example_sextet):
    """A sextet is its 36 coefficients: built from forms or from rows, it is
    equal and hashes equal, and from_coefficients builds no form until one
    is asked for."""
    from_forms = QuadricSextet.from_forms(*example_sextet.forms())
    want = tuple(c for form in example_sextet.forms() for c in form.coefficients())
    from_rows = QuadricSextet.from_coefficients(example_sextet.rows())
    assert from_forms.coefficients == from_rows.coefficients == want
    assert from_forms == from_rows and hash(from_forms) == hash(from_rows)
    assert "_forms" not in from_rows.__dict__
    assert from_rows.forms() == example_sextet.forms()
    assert (from_rows.A, from_rows.F) == (example_sextet.A, example_sextet.F)
    with pytest.raises(ValueError, match="6 quadratic forms"):
        QuadricSextet.from_forms(*example_sextet.forms()[:5], TernaryForm(3, {}))


def test_real_conditions_imply_positive_minors(example_surface):
    """At sampled real points of w^2 = f, all three minors are positive."""
    m = minors(example_surface.sextet)
    pts = sample_local_points(example_surface, Place.real(), 100)
    assert len(pts) == 100
    for P in pts:
        assert m.M_A.evaluate(P.x) > 0
        assert m.M_D.evaluate(P.x) > 0
        assert m.M_F.evaluate(P.x) > 0


def test_sextet_json_roundtrip(example_sextet):
    text = example_sextet.to_json()
    assert QuadricSextet.from_json(text) == example_sextet


@pytest.mark.parametrize("bad", [0.5, True, "7", None, Fraction(1)])
def test_sextet_rejects_non_integer_coefficients(example_sextet, bad):
    rows = [getattr(example_sextet, k).coefficients() for k in "ABCDEF"]
    rows[4][2] = bad
    with pytest.raises(TypeError, match=f"form E: coefficient {re.escape(repr(bad))}"):
        QuadricSextet.from_coefficients(rows)


def test_sextet_type_check_accepts_int_subclasses_and_names_the_first_bad_entry(example_sextet):
    """Only a tuple of exact ints skips the per-coefficient check; an int
    subclass other than bool still passes it, and a tuple with two bad
    entries is refused for the first."""

    class Int(int):
        pass

    coeffs = example_sextet.coefficients
    assert QuadricSextet(tuple(map(Int, coeffs))) == example_sextet
    bad = list(coeffs)
    bad[7], bad[30] = 1.5, False
    with pytest.raises(TypeError, match=r"^form B: coefficient 1\.5 is not an int$"):
        QuadricSextet(tuple(bad))
    bad[7] = 3
    with pytest.raises(TypeError, match="form F: coefficient False is not an int"):
        QuadricSextet(tuple(bad))


def test_sextet_json_rejects_missing_and_extra_keys(example_sextet):
    """And a row that is not a list, by the name of its form."""
    data = json.loads(example_sextet.to_json())
    missing = {k: v for k, v in data.items() if k != "C"}
    with pytest.raises(ValueError, match="lacks the key 'C'"):
        QuadricSextet.from_json(json.dumps(missing))
    with pytest.raises(ValueError, match="unknown key 'G'"):
        QuadricSextet.from_json(json.dumps({**data, "G": [0] * 6}))
    with pytest.raises(ValueError, match="JSON object"):
        QuadricSextet.from_json(json.dumps([data[k] for k in "ABCDEF"]))
    for row in (5, None, "123456", {"x0^2": 1}):
        with pytest.raises(TypeError, match=re.escape(f"form A: {row!r} is not a list of coefficients") + "$"):
            QuadricSextet.from_json(json.dumps({**data, "A": row}))
