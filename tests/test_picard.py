import random
import re
from fractions import Fraction
from math import gcd, lcm

import numpy as np
import pytest

from k3hasse.finitefield import TABLE_LIMIT, fq, prime_field
from k3hasse.picard import (
    CountSeries,
    CountingError,
    FrobeniusData,
    H2_DIM,
    RankInconclusive,
    SignAmbiguous,
    _is_square_times_constant,
    _level_tallies,
    _int_coefficients_mod,
    _newton_coefficients,
    _open_middle_values,
    _real_roots_within,
    _trace_polynomial,
    _restriction,
    certify_rank_one,
    count_series,
    cyclotomic_polynomial,
    enumerate_lines,
    find_tritangent,
    frobenius_charpoly,
    tritangent_scan,
    unit_root_bound,
)
from k3hasse.pipeline import Rejected, SearchConfig, certify, draw_sextet, load_fixtures
from k3hasse.poly import TernaryForm, monomials_of_degree
from k3hasse.surface import build_k3, is_smooth_curve, reduce_mod

from . import oracles
from .oracles import (
    UniPoly,
    _is_square_binary_form,
    count_points_naive,
    element_degree,
    element_field,
    euler_phi,
    poly_gcd,
    tritangent_scan_naive,
)


def test_count_points_example_values(example_sextic):
    assert count_series(example_sextic, 3, 1).counts[0] == 7
    assert count_series(example_sextic, 3, 2).counts[1] == 79
    assert count_points_naive(example_sextic, 3, 1) == 7
    assert count_points_naive(example_sextic, 3, 2) == 79


def test_count_points_sixth_power():
    # chi(x0^6) = 1 off x0 = 0, so N = 2 q^2 + q + 1
    f = TernaryForm(6, {(6, 0, 0): 1})
    assert count_series(f, 3, 1).counts[0] == 2 * 9 + 3 + 1
    assert count_points_naive(f, 3, 1) == 22


def test_count_series_matches_fixture_prefix(example_sextic, fixtures):
    series = count_series(example_sextic, 3, 6)
    assert tuple(series.counts) == fixtures.counts[:6]


def _sextic(rng, p, kind):
    mons = monomials_of_degree(6)
    if kind == "x1^6+x2^6":
        return TernaryForm(6, {(0, 6, 0): 1, (0, 0, 6): 1})
    if kind == "no-z6":  # sparse, c_6(y) = 0 and some other c_k(y) vanish
        return TernaryForm(6, {m: rng.randrange(p) for m in mons if m[2] < 6 and rng.random() < 0.4})
    if kind == "x0-multiple":  # the chart x0 = 0 is identically zero
        return TernaryForm(6, {m: rng.randrange(p) for m in mons if m[0] > 0})
    if kind == "z-multiple":  # c_0(y) = 0: every Horner sweep ends on a power of z
        return TernaryForm(6, {m: rng.randrange(p) for m in mons if m[2] > 0})
    if kind == "gaps":  # c_2(y) = c_3(y) = 0: a pending z^3 between c_4 and c_1
        return TernaryForm(6, {m: rng.randrange(p) for m in mons if m[2] not in (2, 3)})
    if kind == "even-z":  # f(1, y, z) = E(z^2): the odd part O vanishes
        return TernaryForm(6, {m: rng.randrange(p) for m in mons if m[2] % 2 == 0})
    if kind == "odd-z":  # f(1, y, z) = z O(z^2): the even part E vanishes
        return TernaryForm(6, {m: rng.randrange(p) for m in mons if m[2] % 2 == 1})
    return TernaryForm(6, {m: rng.randrange(p) for m in mons})


@pytest.mark.parametrize(
    "p, max_n, kind, trials",
    [
        (3, 4, "dense", 10),
        (3, 4, "no-z6", 3),
        (3, 4, "x0-multiple", 3),
        (3, 4, "x1^6+x2^6", 1),
        (5, 3, "dense", 2),
        (7, 2, "dense", 3),
        (3, 4, "z-multiple", 3),
        (3, 4, "gaps", 3),
        (5, 2, "z-multiple", 2),
        (5, 2, "gaps", 2),
    ],
    ids=[
        "p3-dense", "p3-no-z6", "p3-x0-multiple", "p3-x1^6+x2^6", "p5-dense", "p7-dense",
        "p3-z-multiple", "p3-gaps", "p5-z-multiple", "p5-gaps",
    ],
)
def test_naive_and_orbit_agree_on_random_sextics(p, max_n, kind, trials):
    rng = random.Random(37)
    for trial in range(trials):
        f = _sextic(rng, p, kind)
        if f.is_zero():
            continue
        series = count_series(f, p, max_n)
        for n in range(1, max_n + 1):
            assert series.counts[n - 1] == count_points_naive(f, p, n), (trial, n)


@pytest.mark.parametrize(
    "p, levels, kind, trials",
    [
        (3, (5, 6, 7), "dense", 3),
        (3, (5, 6, 7), "no-z6", 3),
        (3, (5, 6, 7), "z-multiple", 2),
        (3, (5, 6, 7), "gaps", 2),
        (3, (5, 6, 7), "even-z", 2),
        (3, (5, 6, 7), "odd-z", 2),
        (5, (1, 2, 3, 4), "dense", 3),
        (5, (1, 2, 3, 4), "no-z6", 3),
        (5, (1, 2, 3, 4), "even-z", 2),
        (5, (1, 2, 3, 4), "odd-z", 2),
        (7, (1, 2, 3), "dense", 2),
        (7, (1, 2, 3), "even-z", 2),
        (7, (1, 2, 3), "odd-z", 2),
    ],
    ids=[
        "p3-dense", "p3-no-z6", "p3-z-multiple", "p3-gaps", "p3-even-z", "p3-odd-z",
        "p5-dense", "p5-no-z6", "p5-even-z", "p5-odd-z", "p7-dense", "p7-even-z", "p7-odd-z",
    ],
)
def test_log_order_sweep_matches_the_code_order_sweep(p, levels, kind, trials):
    """The sweep in discrete-log order gives the tallies of the sweep in int
    code order, level by level, on fields past F_81, where the naive count
    stops."""
    rng = random.Random(43)
    for trial in range(trials):
        fcoef = _int_coefficients_mod(_sextic(rng, p, kind), p)
        for d in levels:
            assert _level_tallies(fcoef, p, d) == oracles.level_tallies_code_order(fcoef, p, d), (trial, d)


def test_count_series_rejects_fields_over_the_table_limit():
    f = TernaryForm(6, {(6, 0, 0): 1, (0, 0, 6): 1})
    for p, max_n, first in ((1031, 2, 2), (3, 13, 13), (1048583, 1, 1)):
        with pytest.raises(CountingError, match=f"degree {first}: .*limit {TABLE_LIMIT}"):
            count_series(f, p, max_n)


@pytest.mark.parametrize("max_n", [0, -1])
def test_count_series_rejects_a_depth_below_1(example_sextic, max_n):
    with pytest.raises(CountingError, match=f"depth of at least 1, got {max_n}"):
        count_series(example_sextic, 3, max_n)


@pytest.mark.parametrize("depth", [True, 2.5])
def test_count_series_rejects_a_depth_that_is_not_an_int(example_surface, depth):
    """True == 1 would count to depth 1, and 2.5 would reach ``range``;
    ``certify_rank_one`` counts through the same check."""
    message = re.escape(f"the counting depth must be an int, got {depth!r}") + "$"
    with pytest.raises(CountingError, match=message):
        count_series(example_surface.branch_sextic, 3, depth)
    with pytest.raises(CountingError, match=message):
        certify_rank_one(example_surface, 3, 11, depth=depth)


@pytest.mark.parametrize("p", [0, 1, -3, 4, 9, 3.9, 3.0, True, pytest.param("3", id="string-3")])
def test_count_series_rejects_a_p_that_is_not_an_odd_prime(example_sextic, p):
    """Both producers of a series refuse p with one check: the sweep before
    it runs, and ``from_counts`` before a charpoly is read off counts that
    fit the Weil bound at p = 1.  Only an int is a characteristic: 3.0 == 3
    would reach the Sturm chain as a float, and True == 1."""
    with pytest.raises(CountingError, match=re.escape(f"odd prime, not {p!r}") + "$"):
        count_series(example_sextic, p, 1)
    with pytest.raises(CountingError, match=re.escape(f"odd prime, not {p!r}") + "$"):
        CountSeries.from_counts(p, [1] * 10)


def test_the_pair_sweep_tables_wait_for_the_first_count(example_sextic, monkeypatch):
    """Set-up builds the field tables without the sweep's own: a fresh
    ``FieldTables`` holds no ``pair_sweep`` until a count runs on it."""
    field = fq(3, 3)
    monkeypatch.delitem(field.__dict__, "tables", raising=False)
    tables = field.tables
    assert "pair_sweep" not in tables.__dict__
    count_series(example_sextic, 3, 2)
    assert "pair_sweep" not in tables.__dict__
    count_series(example_sextic, 3, 3)
    assert field.tables is tables and "pair_sweep" in tables.__dict__


def test_counts_and_scans_refuse_a_form_reduced_mod_another_prime(example_sextic):
    """A form reduced mod 5 holds codes of F_5, which mean nothing mod 3."""
    f5 = reduce_mod(example_sextic, prime_field(5))
    with pytest.raises(ValueError, match="different characteristic"):
        count_series(f5, 3, 1)
    with pytest.raises(ValueError, match="different characteristic"):
        tritangent_scan.__wrapped__(f5, 3)
    assert count_series(f5, 5, 1).counts == count_series(example_sextic, 5, 1).counts


def test_orbit_tallies_match_naive_point_classification(example_sextic):
    """The level tallies equal an exhaustive classification of the points
    of P^2(F_{3^d}) by minimal field and character value, summed over the
    minimal fields."""
    _assert_tallies_match_naive_classification(example_sextic)


@pytest.mark.parametrize("kind", ["z-multiple", "gaps", "even-z", "odd-z"])
def test_orbit_tallies_match_naive_point_classification_on_sparse_sextics(kind):
    """The same classification on sextics whose sweep ends on a power of z,
    skips two coefficients in the middle, or has no odd or no even part."""
    rng = random.Random(41)
    for _ in range(2):
        _assert_tallies_match_naive_classification(_sextic(rng, 3, kind))


def _assert_tallies_match_naive_classification(f):
    """Horner on the codes of each field through ``oracles._element_tables``,
    the sum and product tables the naive count uses."""
    fcoef = _int_coefficients_mod(f, 3)
    for d in (1, 2, 3, 4):
        field = element_field(fq(3, d))
        add, mul, chi = oracles._element_tables(field)
        deg_of = [element_degree(field.decode(k)) for k in range(field.order)]
        code = {c: field.encode(field.from_int(c)) for c in {0, *fcoef.values()}}
        zero, one = code[0], field.encode(field.one)
        tall = {e: [0, 0, 0] for e in range(1, d + 1)}  # e -> [Z, A, B]

        def bump(point_deg, value):
            tall[point_deg][chi[value] % 3] += 1  # chi 0, 1, -1: Z, A, B

        for y in range(field.order):
            ypow = [one]
            for _ in range(6):
                ypow.append(mul[ypow[-1]][y])
            ck = [zero] * 7
            for (e0, e1, e2), c in fcoef.items():
                ck[e2] = add[ck[e2]][mul[code[c]][ypow[e1]]]
            for z in range(field.order):
                v = ck[6]
                for k in range(5, -1, -1):
                    v = add[mul[v][z]][ck[k]]
                bump(lcm(deg_of[y], deg_of[z]), v)
        gz = [zero] * 7
        for (e0, e1, e2), c in fcoef.items():
            if e0 == 0:
                gz[e2] = code[c]
        for z in range(field.order):
            v = gz[6]
            for k in range(5, -1, -1):
                v = add[mul[v][z]][gz[k]]
            bump(deg_of[z], v)
        bump(1, code[fcoef.get((0, 0, 6), 0)])
        A, B, Z = _level_tallies(fcoef, 3, d)
        assert [Z, A, B] == [sum(column) for column in zip(*tall.values())]


def test_weil_bound_enforced():
    with pytest.raises(CountingError):
        CountSeries.from_counts(3, [10**6])


@pytest.mark.parametrize("bad", [7.9, 7.0, True, "7.9", "0x7", None])
def test_from_counts_refuses_what_int_would_truncate(fixtures, bad):
    """N_1 = 7.9 would read as 7 and JSON true as 1; only ints and decimal
    strings are counts."""
    counts = [bad] + list(fixtures.counts[1:])
    with pytest.raises(CountingError, match=re.escape(f"count N_1 = {bad!r} is not an integer")):
        CountSeries.from_counts(3, counts)
    exact = CountSeries.from_counts(3, [str(N) for N in fixtures.counts])
    assert exact.counts == list(fixtures.counts) and exact.max_n == 10


@pytest.mark.parametrize("bad", [14.5, 7.0, True])
def test_the_constructor_refuses_what_from_counts_refuses(fixtures, bad):
    """``CountSeries(p, counts)`` runs the same count check as
    ``from_counts``: the fixture counts as floats, or JSON true, are no
    series, and the ints build the same one either way."""
    with pytest.raises(CountingError, match=re.escape(f"count N_1 = {bad!r} is not an integer")):
        CountSeries(3, [bad] + list(fixtures.counts[1:]))
    with pytest.raises(CountingError, match=re.escape("count N_1 = 7.0 is not an integer")):
        CountSeries(3, [float(N) for N in fixtures.counts])
    assert CountSeries(3, list(fixtures.counts)) == CountSeries.from_counts(3, fixtures.counts)


def test_charpoly_recorded_series(fixtures):
    series = CountSeries.from_counts(3, list(fixtures.counts))
    fd = frobenius_charpoly(series)
    assert fd.sign == -1
    assert fd.coefficients[H2_DIM] == 1
    assert fd.coefficients[11] == 0
    from k3hasse.pipeline import expected_normalized_charpoly

    assert fd.normalized == expected_normalized_charpoly()
    assert unit_root_bound(fd) == 2


def test_charpoly_all_eigenvalues_q():
    # t_n = 22 q^n for all n: charpoly (T - q)^22, sign +1
    q = 3
    counts = [1 + q ** (2 * n) + 22 * q**n for n in range(1, 12)]
    fd = frobenius_charpoly(CountSeries.from_counts(q, counts))
    assert fd.sign == 1
    from math import comb

    expected = [Fraction(comb(22, k) * (-q) ** (22 - k)) for k in range(23)]
    assert fd.coefficients == expected
    assert unit_root_bound(fd) == 22


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _forward_power_sums(factors, q, count):
    """Power sums of the roots of prod(factors) (factors given over Q with
    roots of modulus q), via Newton's identities run forward."""
    poly = [Fraction(1)]
    for f in factors:
        poly = _poly_mul(poly, f)
    deg = len(poly) - 1
    # monic ascending -> a_i; s_k + sum a_{deg-i} s_{k-i} + k a_{deg-k} = 0
    a = {i: poly[i] for i in range(deg + 1)}
    sums = []
    for k in range(1, count + 1):
        s = -k * a.get(deg - k, Fraction(0))
        for i in range(1, k):
            s -= a.get(deg - i, Fraction(0)) * sums[k - i - 1]
        sums.append(s)
    return poly, sums


def _random_weil_factors(rng, q):
    """Factors closed under alpha -> q^2/alpha with all roots of modulus q:
    conjugate pairs T^2 - kT + q^2 (|k| < 2q an integer keeps power sums
    integral), double fixed points (T -/+ q)^2, and the mixed (T-q)(T+q)."""
    factors = []
    deg = 0
    while deg < H2_DIM:
        kind = rng.choice(["pair", "pair", "fixed+", "fixed-", "mixed"])
        if kind == "pair":
            k = rng.randrange(-2 * q + 1, 2 * q)
            factors.append([Fraction(q * q), Fraction(-k), Fraction(1)])
        elif kind == "fixed+":
            factors.append([Fraction(-q), Fraction(1)])
            factors.append([Fraction(-q), Fraction(1)])
        elif kind == "fixed-":
            factors.append([Fraction(q), Fraction(1)])
            factors.append([Fraction(q), Fraction(1)])
        else:
            factors.append([Fraction(-q * q), Fraction(0), Fraction(1)])
        deg += 2
    return factors


def test_charpoly_round_trip_on_synthetic_eigenvalues():
    rng = random.Random(41)
    q = 3
    signs_seen = set()
    for _ in range(12):
        factors = _random_weil_factors(rng, q)
        poly, sums = _forward_power_sums(factors, q, 22)
        eps = None
        for cand in (-1, 1):
            if all(
                poly[i] == cand * Fraction(q) ** (H2_DIM - 2 * i) * poly[H2_DIM - i]
                for i in range(H2_DIM + 1)
            ):
                eps = cand
        assert eps is not None
        assert all(s.denominator == 1 for s in sums)
        counts = [int(sums[n - 1]) + 1 + q ** (2 * n) for n in range(1, 23)]
        fd = None
        for feed in (10, 11, 12, 14, 22):
            try:
                fd = frobenius_charpoly(CountSeries.from_counts(q, counts[:feed]))
                break
            except SignAmbiguous:
                continue
        assert fd is not None, "ambiguous even with twenty-two counts"
        assert fd.coefficients == poly
        assert fd.sign == eps
        signs_seen.add(eps)
    assert signs_seen == {-1, 1}


def test_charpoly_undetermined_middle_coefficient_is_ambiguous():
    """Pairs T^2 - kT + 9: with ten counts the + sign leaves a_11 open and
    more than one value of it is Weil-conform, so the counts do not determine
    the charpoly; the eleventh count does."""
    q = 3
    factors = [
        [Fraction(q * q), Fraction(-k), Fraction(1)]
        for k in (-5, -1, 0, 0, 1, 2, 3, 3, 4, 4, 5)
    ]
    poly, sums = _forward_power_sums(factors, q, 11)
    counts = [int(sums[n - 1]) + 1 + q ** (2 * n) for n in range(1, 12)]
    with pytest.raises(SignAmbiguous, match="need N_11"):
        frobenius_charpoly(CountSeries.from_counts(q, counts[:10]))
    fd = frobenius_charpoly(CountSeries.from_counts(q, counts))
    assert fd.sign == 1
    assert fd.coefficients == poly
    assert fd.coefficients[11] == -82545480
    assert unit_root_bound(fd) == 8


def _ten_counts(sums, q):
    return [int(s) + 1 + q ** (2 * n) for n, s in enumerate(sums[:10], start=1)]


#: N_1..N_10 over F_3 of seed 0's stage-4 survivor 1604
DRAW_1604_COUNTS = [14, 104, 830, 6812, 59729, 533396, 4785641, 43024172, 387390737, 3487032089]


def test_charpoly_decides_draw_1604_at_ten_counts():
    """Seed 0's stage-4 survivor 1604 (its depth-10 counts): sign -1
    conforms, and no integer a_11 makes sign +1 conform."""
    fd = frobenius_charpoly(CountSeries.from_counts(3, DRAW_1604_COUNTS))
    assert fd.sign == -1
    assert unit_root_bound(fd) == 4


def nth_draw(seed: int, index: int):
    """Draw ``index`` (from 0) of the search with seed ``seed`` at the
    default coefficient bound."""
    rng = random.Random(seed)
    for _ in range(index + 1):
        sextet = draw_sextet(rng, SearchConfig().coefficient_bound)
    return sextet


def test_draw_1604_is_rejected_at_stage_5_by_its_own_counts():
    """End to end on a second sextic, past the levels the oracles reach:
    the sweep reproduces the pinned counts of draw 1604, and with them
    stage 5 rejects it on the unit-root bound."""
    config = SearchConfig(seed=0, steps=(1, 2, 3, 4, 5))
    sextet = nth_draw(config.seed, 1604)
    series = count_series(build_k3(sextet).branch_sextic, 3, 10)
    assert series.counts == DRAW_1604_COUNTS
    with pytest.raises(Rejected) as err:
        certify(sextet, config, counts=series)
    assert err.value.stage == 5
    assert err.value.reason == "rank certificate inconclusive: unit-root-bound (bound is 4, need 2)"


#: N_1..N_12 over F_3 of seed 6's draw 1146, which passes stages 1-4
DRAW_1146_COUNTS = [
    16, 94, 757, 6418, 59671, 533089, 4791880, 43066810, 387440173, 3486912949, 31381069087, 282428678449
]


def test_draw_1146_needs_twelve_counts_for_its_rank_one_certificate():
    """Seed 6's draw 1146: the sweep reproduces the pinned N_1..N_9.  With
    ten counts sign +1 leaves a_11 open and both signs conform; with eleven
    a_11 = 0 and both still conform; the twelfth decides sign +1, and with
    it stages 1-5 pass with unit-root bound 2."""
    config = SearchConfig(seed=6, counting_depth=12, steps=(1, 2, 3, 4, 5))
    sextet = nth_draw(config.seed, 1146)
    assert count_series(build_k3(sextet).branch_sextic, 3, 9).counts == DRAW_1146_COUNTS[:9]
    for n in (10, 11):
        with pytest.raises(Rejected) as err:
            certify(sextet, config, counts=CountSeries.from_counts(3, DRAW_1146_COUNTS[:n]))
        assert (err.value.stage, err.value.reason) == (5, f"sign ambiguous, need N_{n + 1}")
    report = certify(sextet, config, counts=CountSeries.from_counts(3, DRAW_1146_COUNTS))
    assert (report.rank, report.charpoly_sign, report.unit_root_bound) == (1, 1, 2)
    assert report.tritangent_line == (1, 2, 2) and report.no_tritangent_prime == 11


def _a_top(counts, q: int = 3) -> dict:
    return _newton_coefficients([N - 1 - q ** (2 * n) for n, N in enumerate(counts, start=1)])


def test_open_middle_values_match_the_trace_construction(fixtures):
    """The critical values read off the resultant D(x) = Res_u(W', x + W)
    select the same a_11 as the reference that builds D from the traces of
    (-W)^k in Q[u]/(W'): on the first 150 seed-5 multisets (draw 65 among
    them), the other two one-point windows, the undetermined middle
    coefficient, and the ten counts of the shipped surface and of draws
    1604 and 1146."""
    q, rng = 3, random.Random(5)
    multisets = [_random_weil_factors(rng, q) for _ in range(150)]
    multisets += [[[Fraction(-q), Fraction(1)]] * 22, [[Fraction(q), Fraction(1)]] * 22]
    multisets.append([[Fraction(q * q), Fraction(-k), Fraction(1)] for k in (-5, -1, 0, 0, 1, 2, 3, 3, 4, 4, 5)])
    cases = [_newton_coefficients([int(s) for s in _forward_power_sums(f, q, 10)[1]]) for f in multisets]
    cases += [_a_top(counts[:10]) for counts in (fixtures.counts, DRAW_1604_COUNTS, DRAW_1146_COUNTS)]
    found = [_open_middle_values(a_top, q) for a_top in cases]
    assert found == [oracles.open_middle_values_by_traces(a_top, q) for a_top in cases]
    assert {len(values) for values in found} == {0, 1, 2}
    assert found[152] == [-82545480, -82545479] and found[-1] == [0, 1]


def test_ten_counts_decide_every_seed_5_multiset():
    """The first 150 multisets of seed 5 at ten counts: each gives its own
    charpoly.  Among them, draw 14 (sign -1) and draw 65 (sign +1) have the
    eigenvalue q or -q with multiplicity at least 4."""
    q, rng = 3, random.Random(5)
    signs = set()
    for _ in range(150):
        poly, sums = _forward_power_sums(_random_weil_factors(rng, q), q, 10)
        fd = frobenius_charpoly(CountSeries.from_counts(q, _ten_counts(sums, q)))
        assert fd.coefficients == poly
        signs.add(fd.sign)
    assert signs == {-1, 1}


def test_ten_counts_decide_a_one_point_window_on_a_critical_value():
    """(T - q)^22 and (T + q)^22, whose trace polynomials (u -/+ 2q)^11 have
    their root on an end of [-2q, 2q], and draw 65 of seed 5 ((T + q)^4 and
    the pair T^2 + q^2 three times): sign +1 conforms for exactly one a_11,
    a critical value, where the trace polynomial has a multiple root."""
    q = 3
    rng = random.Random(5)
    for _ in range(66):
        draw_65 = _random_weil_factors(rng, q)
    for factors in ([[Fraction(-q), Fraction(1)]] * 22, [[Fraction(q), Fraction(1)]] * 22, draw_65):
        poly, sums = _forward_power_sums(factors, q, 10)
        a_top = _newton_coefficients([int(s) for s in sums])
        assert _open_middle_values(a_top, q) == [poly[11]]
        h = UniPoly(_trace_polynomial([poly[11]] + [a_top[i] for i in range(12, H2_DIM + 1)], q))
        assert poly_gcd(h, h.derivative()).degree >= 1
        fd = frobenius_charpoly(CountSeries.from_counts(q, _ten_counts(sums, q)))
        assert fd.sign == 1 and fd.coefficients == poly


def test_the_weil_test_counts_roots_on_the_ends_of_the_interval():
    """All roots real in [-6, 6], decided by the Sturm count on the
    squarefree part, against constructed roots: on the ends, just beyond
    them, repeated, and with the complex pair +/- i added."""
    cases = [
        ([-6], True),
        ([6], True),
        ([-6, 6, 6, 0], True),
        ([-6] * 5 + [Fraction(1, 3)] * 3, True),
        ([Fraction(-61, 10)], False),
        ([Fraction(61, 10), 0], False),
        ([-7, -6], False),
        ([6, 6, 7], False),
    ]
    for roots, inside in cases:
        h = UniPoly([Fraction(1)])
        for r in roots:
            h = h * UniPoly([-Fraction(r), Fraction(1)])
        assert _real_roots_within(list(h.coeffs), 6) is inside, roots
        assert not _real_roots_within(list((h * UniPoly([1, 0, 1])).coeffs), 6), roots


def test_no_float_decides_the_charpoly(monkeypatch, fixtures):
    """The shipped charpoly, the round-trip multisets and the undetermined
    middle coefficient, with numpy's root finder and poly1d made to raise."""

    def refuse(*args, **kwargs):
        raise AssertionError("a float decided the charpoly")

    monkeypatch.setattr(np, "roots", refuse)
    monkeypatch.setattr(np, "poly1d", refuse)
    test_charpoly_recorded_series(fixtures)
    test_charpoly_round_trip_on_synthetic_eigenvalues()
    test_charpoly_undetermined_middle_coefficient_is_ambiguous()


def test_unit_root_bound_trivial_polys():
    q = 3

    def fd_from_normalized(norm):
        coeffs = [c * Fraction(q) ** (H2_DIM - i) * Fraction(1) for i, c in enumerate(norm)]
        # normalized * q^(22-i) inverts the .normalized scaling
        return FrobeniusData(q=q, coefficients=coeffs, sign=1)

    tm1_22 = [Fraction(1)]
    for _ in range(22):
        tm1_22 = _poly_mul(tm1_22, [Fraction(-1), Fraction(1)])
    assert unit_root_bound(fd_from_normalized(tm1_22)) == 22

    base = _poly_mul([Fraction(1), Fraction(0), Fraction(1)],
                     [Fraction(1)])
    for _ in range(20):
        base = _poly_mul(base, [Fraction(-1), Fraction(1)])
    assert unit_root_bound(fd_from_normalized(base)) == 22


def test_unit_root_bound_on_integers_matches_the_rational_division(fixtures):
    """Division in Z[T] of the scaled normalized charpoly gives the bound of
    division in Q[T]: on the shipped charpoly, and on products
    Phi_a Phi_b h with h of rational coefficients, not always monic."""
    fd = frobenius_charpoly(CountSeries.from_counts(3, list(fixtures.counts)))
    assert unit_root_bound(fd) == oracles.unit_root_bound(fd) == 2
    q, rng = 3, random.Random(22)
    degrees = [d for d in range(1, 67) if euler_phi(d) <= 10]
    for _ in range(40):
        phi = UniPoly(cyclotomic_polynomial(rng.choice(degrees))) * UniPoly(cyclotomic_polynomial(rng.choice(degrees)))
        h = [Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3, 9, 5])) for _ in range(H2_DIM - phi.degree)]
        h.append(Fraction(rng.choice([1, 1, 2, 7]), rng.choice([1, 3, 4])))
        norm = list((UniPoly([Fraction(c) for c in phi.coeffs]) * UniPoly(h)).coeffs)
        coeffs = [c * Fraction(q) ** (H2_DIM - i) for i, c in enumerate(norm)]
        fd = FrobeniusData(q=q, coefficients=coeffs, sign=1)
        assert fd.normalized == norm
        bound = unit_root_bound(fd)
        assert bound == oracles.unit_root_bound(fd) and bound >= phi.degree


def test_euler_phi_and_cyclotomic():
    assert [euler_phi(d) for d in (1, 2, 3, 4, 12, 66)] == [1, 1, 2, 2, 4, 20]
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
    from k3hasse.picard import _cyclotomic_degrees_up_to_22

    degrees = _cyclotomic_degrees_up_to_22()
    assert max(degrees) == 66


def test_euler_phi_counts_the_units_up_to_968():
    """phi(d) from the prime powers of d is the number of k <= d prime to
    d, for every d that ``_cyclotomic_degrees_up_to_22`` scans."""
    for d in range(1, 2 * 22 * 22 + 1):
        assert euler_phi(d) == sum(gcd(k, d) == 1 for k in range(1, d + 1)), d


def test_cyclotomic_degrees_come_from_one_phi_sieve():
    """The list is every d <= 968 with phi(d) <= 22 by the trial-division
    phi, and building it misses no entry of the ``arith`` prime cache."""
    from k3hasse import arith
    from k3hasse.picard import _cyclotomic_degrees_up_to_22

    misses = arith._primes_up_to.cache_info().misses
    degrees = _cyclotomic_degrees_up_to_22.__wrapped__()
    assert arith._primes_up_to.cache_info().misses == misses
    assert degrees == [d for d in range(1, 2 * 22 * 22 + 1) if euler_phi(d) <= 22]


def test_tritangent_example_results(example_sextic):
    line = find_tritangent(example_sextic, 3)
    assert line == (1, 0, 2)  # x0 + 2 x2 = 0, i.e. 2 x0 + x2 = 0
    assert find_tritangent(example_sextic, 11) is None


def test_tritangent_scan_refuses_a_float_prime_after_the_int_one(example_sextic):
    """The scan is memoised on (f, p), and (f, 3.0) == (f, 3): the memo
    tells the types apart, so 3.0 reaches the prime gate."""
    assert tritangent_scan(example_sextic, 3).line == (1, 0, 2)
    with pytest.raises(TypeError, match=r"needs an integer, not 3\.0$"):
        tritangent_scan(example_sextic, 3.0)


def test_tritangent_sixth_power_and_degenerate_flag():
    f = TernaryForm(6, {(6, 0, 0): 1})
    scan = tritangent_scan(f, 3)
    assert scan.line is not None
    # the line x0 = 0 carries the zero restriction and is flagged, not matched
    assert (1, 0, 0) in scan.degenerate_lines
    # the specific line x0 = x1 restricts to a sixth power
    g = _restriction(_int_coefficients_mod(f, 3), 6, (1, 2, 0), 3)
    assert g == [1] and _is_square_times_constant(g, 6, 3)


def _comparison_forms():
    """The shipped sextic, 40 drawn branch sextics and five sparse forms."""
    fx = load_fixtures()
    rng = random.Random(7)
    drawn = [build_k3(draw_sextet(rng, 40)).branch_sextic for _ in range(40)]
    x0, x1, x2 = (TernaryForm(1, {m: 1}) for m in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    q = x0 * x0 + x1 * x2
    sparse = [
        x0 * x0 * x0 * x0 * x0 * x0 + x1 * x1 * x1 * x1 * x1 * x1,
        q * q * (x0 * x1 + x2 * x2),
        x0 * x1 * x1 * x1 * x1 * x1 + x2 * x2 * x2 * x2 * x2 * x2,
        x0 * x1 * x2 * x0 * x1 * x2,
        x0 * x0 * (x1 * x1 * x1 * x1 - x2 * x2 * x2 * x2),
    ]
    return [build_k3(fx.sextet).branch_sextic] + drawn + sparse


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 19, 23])
def test_tritangent_scan_matches_the_naive_scan(p):
    """Line, degenerate lines and lines scanned agree with the generic scan
    over field elements on every comparison form."""

    def ints(line):
        return None if line is None else tuple(c.val for c in line.coords)

    for f in _comparison_forms():
        want = tritangent_scan_naive(f, p)
        got = tritangent_scan.__wrapped__(f, p)
        assert got.line == ints(want.line)
        assert got.degenerate_lines == tuple(ints(l) for l in want.degenerate_lines)
        assert got.lines_scanned == want.lines_scanned


def test_square_test_matches_the_squarefree_decomposition():
    """The monic-square-root test agrees with even squarefree multiplicities
    on random restrictions and on constructed squares, at every multiplicity
    at infinity."""
    rng = random.Random(5)
    for p in (3, 5, 7, 11):
        field = element_field(fq(p, 1))
        for _ in range(300):
            n = rng.randrange(0, 7)
            if rng.random() < 0.5:
                h = [rng.randrange(p) for _ in range(n // 2)] + [1]
                g = [0] * (2 * len(h) - 1)
                for i, u in enumerate(h):
                    for j, v in enumerate(h):
                        g[i + j] += u * v
                g = [c * rng.randrange(1, p) % p for c in g]
            else:
                g = [rng.randrange(p) for _ in range(n)] + [rng.randrange(1, p)]
            want = _is_square_binary_form(UniPoly([field.from_int(c) for c in g]), 6)
            assert _is_square_times_constant(g, 6, p) is want, (p, g)


def test_a_rational_tritangent_is_found_at_every_good_prime():
    """f = g^2 + l k has the Q-rational tritangent l = x0 + x1 + x2, so every
    prime of good reduction has an F_p-rational tritangent line and none can
    serve as p'."""
    rng = random.Random(1)
    g = TernaryForm(3, {m: rng.randrange(-3, 4) for m in monomials_of_degree(3)})
    k = TernaryForm(5, {m: rng.randrange(-3, 4) for m in monomials_of_degree(5)})
    ell = TernaryForm(1, {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1})
    f = g * g + ell * k
    good = [p for p in (5, 7, 11, 13, 17, 19, 23, 29, 31) if is_smooth_curve(reduce_mod(f, prime_field(p)))]
    assert len(good) >= 5
    for p in good:
        scan = tritangent_scan(f, p)
        # l is the line (1, 1, 1), the (p + 2)-nd one scanned
        assert scan.line is not None and scan.lines_scanned <= p + 2, p


def test_line_enumeration_counts():
    for p in (3, 5, 7, 11):
        lines = list(enumerate_lines(p))
        assert len(lines) == p * p + p + 1
        assert len(set(lines)) == len(lines)


def test_certify_rank_one(example_surface, fixtures):
    series = CountSeries.from_counts(3, list(fixtures.counts))
    cert = certify_rank_one(example_surface, 3, 11, counts=series)
    assert cert.rank == 1
    assert cert.unit_root_bound == 2

    with pytest.raises(ValueError):
        certify_rank_one(example_surface, 3, 3, counts=series)

    # doctored counts whose charpoly is (T-3)^22: unit-root bound 22
    q = 3
    fake = [1 + q ** (2 * n) + 22 * q**n for n in range(1, 12)]
    with pytest.raises(RankInconclusive) as err:
        certify_rank_one(example_surface, 3, 11, counts=CountSeries.from_counts(3, fake))
    assert err.value.leg == "unit-root-bound"

    # bad-reduction prime fails the good-reduction leg, before any count
    with pytest.raises(RankInconclusive) as err:
        certify_rank_one(example_surface, 5, 11)
    assert err.value.leg == "good-reduction"


def test_certify_rank_one_refuses_counts_over_another_prime(example_surface, fixtures, monkeypatch):
    """Counts over F_3 say nothing about the reduction mod 17, which has a
    tritangent line: the mismatch is refused before any leg runs."""
    assert find_tritangent(example_surface.branch_sextic, 17) is not None
    series = CountSeries.from_counts(3, list(fixtures.counts))

    def no_leg(*args):
        raise AssertionError("a leg ran")

    monkeypatch.setattr("k3hasse.picard.is_smooth_curve", no_leg)
    with pytest.raises(ValueError, match="^the counts are over F_3, not over F_17, the tritangent prime$"):
        certify_rank_one(example_surface, 17, 11, counts=series)
