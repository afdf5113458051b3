import dataclasses
import functools
import hashlib
import json
import re

import pytest

from k3hasse import badred, brauer, picard, pipeline
from k3hasse.badred import RegularizationError
from k3hasse.picard import CountSeries
from k3hasse.pipeline import (
    FixtureMismatch,
    Rejected,
    SearchConfig,
    certify,
    draw_sextet,
    search_events,
    verify_example,
    verify_factorization_chain,
)
from k3hasse.poly import TernaryForm
from k3hasse.surface import QuadricSextet, build_k3, check_2adic_conditions, check_real_conditions
import random

from .conftest import _clear_memos


def test_verify_example_shallow_depth():
    report = verify_example(depth=2)
    assert report.verdict == "obstruction certified"
    assert report.counts_recomputed_to == 2
    assert any("N_3..N_10" in note for note in report.notes)
    assert report.invariant_total == "1/2"
    assert report.rank == 1
    data = report.to_json_dict()
    assert data["verdict"] == "obstruction certified"
    assert len(data["local_witnesses"]) == 16


def test_verify_example_takes_every_count_from_the_fixture_at_depth_0():
    """Depth 0 recomputes no count; a negative depth is refused, and so is
    one that is not an int: True would reach the report as the depth."""
    report = verify_example(depth=0)
    assert report.verdict == "obstruction certified"
    assert report.counts_recomputed_to == 0
    assert any("N_1..N_10" in note for note in report.notes)
    with pytest.raises(ValueError, match="at least 0, got -3"):
        verify_example(depth=-3)
    for depth in (True, 2.5):
        with pytest.raises(TypeError, match=re.escape(f"the counting depth must be an int, got {depth!r}") + "$"):
            verify_example(depth=depth)


def test_fixture_tampering_is_detected(fixtures):
    tampered = dataclasses.replace(fixtures, m=fixtures.m + 10)
    with pytest.raises(FixtureMismatch) as err:
        verify_factorization_chain(tampered)
    assert "factorization of m" in str(err.value)

    wrong_gcd = dataclasses.replace(fixtures, gcd_printed=fixtures.gcd_printed + 2)
    with pytest.raises(FixtureMismatch) as err:
        verify_factorization_chain(wrong_gcd)
    assert "gcd" in str(err.value)


def test_factorization_chain_reports_structure(fixtures):
    info = verify_factorization_chain(fixtures)
    assert info["m_prime_structure"] == "gcd(m',n') * prime66^2"
    assert info["gcd_digits"] == 186
    assert len(info["bad_primes"]) == 10


def test_draw_sextet_honours_constraints():
    rng = random.Random(3)
    drawn = 0
    for _ in range(50):
        q = draw_sextet(rng, 40)
        assert q is not None
        assert check_2adic_conditions(q)
        drawn += 1
        # diagonal sign pattern
        for key, sign in (("A", -1), ("B", 1), ("C", 1), ("D", -1), ("E", 1), ("F", -1)):
            coeffs = getattr(q, key).coefficients()
            for idx in (0, 3, 5):
                assert coeffs[idx] * sign > 0
    assert drawn == 50


def test_draw_sextet_sequence_is_pinned():
    """The first 200 draws of seed 0 at bound 40, and the generator state
    after them, hash to the digest of the original draw order."""
    rng = random.Random(0)
    rows = [[f.coefficients() for f in draw_sextet(rng, 40).forms()] for _ in range(200)]
    rows.append(rng.getrandbits(64))
    digest = hashlib.sha256(repr(rows).encode()).hexdigest()
    assert digest == "a5271faf0a68cdce6c80d0863e05a9544de5fde90fba6c6751561c631fe849de"


def _choice_draw(rng, table):
    """The reference draw: rng.choice slot by slot, None at the first empty
    slot."""
    values = []
    for choices in table:
        if not choices:
            return None
        values.append(rng.choice(choices))
    return tuple(values)


@pytest.mark.parametrize("bound", [7, 8, 9, 40, 200])
def test_draw_sextet_draws_what_random_choice_draws(bound):
    """Each draw equals rng.choice slot by slot and leaves the same generator
    state.  Bound 7 draws three slots and stops at an empty one; bounds 8 to
    11 have one-choice slots, which still take random bits."""
    table = pipeline._choice_table(bound)
    sizes = [len(choices) for choices in table]
    if bound == 7:
        assert sizes.index(0) == 3
    if bound in (8, 9):
        assert 1 in sizes and 0 not in sizes
    mine, reference = random.Random(bound), random.Random(bound)
    for _ in range(100):
        q = draw_sextet(mine, bound)
        want = _choice_draw(reference, table)
        assert (q is None) == (bound == 7) == (want is None)
        assert q is None or q.coefficients == want
        assert mine.getstate() == reference.getstate()


def test_stage_1_is_decided_before_a_report_is_built(monkeypatch):
    """A sextet failing both checks of stage 1 is refused for its 2-adic
    congruences, the first check, and no report is built."""
    built = []
    report = pipeline.ObstructionReport
    monkeypatch.setattr(pipeline, "ObstructionReport", lambda *a, **k: built.append(1) or report(*a, **k))
    q = QuadricSextet((0,) * 36)
    assert not check_2adic_conditions(q) and not check_real_conditions(q)
    with pytest.raises(Rejected) as err:
        certify(q, SearchConfig())
    assert (err.value.stage, err.value.reason) == (1, "2-adic congruences fail")
    assert built == []


def test_a_stage_1_reject_builds_no_form(monkeypatch):
    """Stage 1 reads the 36 drawn integers only: over 300 draws of seed 0 the
    six forms are built for the stage-1 survivors alone, by build_k3."""
    built = []
    from_coefficients = TernaryForm.from_coefficients.__func__
    monkeypatch.setattr(TernaryForm, "from_coefficients", classmethod(
        lambda cls, *args: built.append(1) or from_coefficients(cls, *args)
    ))
    events = list(search_events(SearchConfig(seed=0, max_draws=300, steps=(1,))))
    survivors = sum(e[0] == "report" for e in events)
    assert 0 < survivors < 300
    assert len(built) == 6 * survivors
    q = draw_sextet(random.Random(0), 40)
    assert not check_real_conditions(q) and "_forms" not in q.__dict__


@pytest.mark.parametrize("field, value, message", [
    ("max_draws", -3, "max_draws must be at least 0"),
    ("coefficient_bound", 0, "coefficient_bound must be at least 1, got 0"),
    ("local_point_box", 0, "local_point_box must be at least 1, got 0"),
    ("counting_depth", 0, "counting_depth must be at least 1, got 0"),
    ("counting_depth", 9, "stage 5 needs a counting depth of at least 10"),
    ("counting_depth", 13, "stage 5 needs a counting depth of at least 10"),
])
def test_search_config_rejects_an_empty_range(field, value, message):
    with pytest.raises(ValueError, match=message):
        SearchConfig(**{field: value})


@pytest.mark.parametrize("field, value", [
    ("local_point_box", 1.5),
    ("counting_depth", 10.5),
    ("coefficient_bound", 40.0),
    ("max_draws", True),
    ("local_point_box", None),
])
def test_search_config_refuses_a_range_that_is_not_an_int(field, value):
    """A box of 1.5 would crash stage 4 with a bare TypeError and a depth of
    10.5 stage 5; every range is an int, and no bool."""
    with pytest.raises(TypeError, match=re.escape(f"{field} must be an int, got {value!r}") + "$"):
        SearchConfig(**{field: value})


@pytest.mark.parametrize("steps", [(8,), (0,), (), (1, 8), (5.0,), (True,), "1"])
def test_search_config_refuses_steps_outside_1_to_7(steps):
    """steps=(8,) would run no stage and report every draw as a candidate."""
    with pytest.raises(ValueError, match=re.escape(f"stages 1 to 7, got {steps!r}") + "$"):
        SearchConfig(steps=steps)
    assert SearchConfig(steps=(7, 1)).steps == (7, 1)


def test_search_config_bounds_the_counting_depth_only_for_stage_5():
    """Depths 10 to 12 fit the F_{3^d} tables (3^12 <= 2^20 < 3^13); a
    search without stage 5 counts nothing, so any depth >= 1 passes."""
    for depth in (10, 12):
        assert SearchConfig(counting_depth=depth).counting_depth == depth
    for depth in (1, 9, 13):
        assert SearchConfig(counting_depth=depth, steps=(1, 2, 3, 4)).counting_depth == depth


def test_draw_sextet_impossible_range():
    rng = random.Random(5)
    # bound 4 leaves no residue 1 mod 8 negative value for A_1
    assert draw_sextet(rng, 4) is None


def test_search_step1_rejects_all_on_bad_range():
    config = SearchConfig(seed=1, coefficient_bound=4, max_draws=5, steps=(1,))
    events = list(search_events(config))
    assert len(events) == 5
    assert all(e[0] == "rejected" and e[2] == 1 for e in events)


def test_an_impossible_draw_is_a_stage_1_rejection_without_stage_1():
    """Every draw yields one event, so a funnel built from the events counts
    every draw, also when the steps leave out stage 1."""
    config = SearchConfig(seed=1, coefficient_bound=4, max_draws=5, steps=(2, 3, 4))
    events = list(search_events(config))
    assert [e[:3] for e in events] == [("rejected", index, 1) for index in range(5)]


def test_search_determinism():
    config = SearchConfig(seed=11, coefficient_bound=40, max_draws=3, steps=(1, 2))
    runs = []
    for _ in range(2):
        out = []
        for event in search_events(config):
            if event[0] == "report":
                out.append(event[2].to_json())
            else:
                out.append(json.dumps(event[:3]))
        runs.append("\n".join(out))
    assert runs[0] == runs[1]


def test_search_monotonicity():
    """Adding a filter step never admits a draw rejected before."""
    base = SearchConfig(seed=23, coefficient_bound=24, max_draws=4, steps=(1,))
    more = SearchConfig(seed=23, coefficient_bound=24, max_draws=4, steps=(1, 2))

    def survivors(config):
        return {
            e[1] for e in search_events(config) if e[0] == "report"
        }

    assert survivors(more) <= survivors(base)


#: the draws of search seed 0 that stage 2 rejects (branch curve singular
#: mod 3), recorded before the elimination moved onto int codes
SEED_0_STAGE_2 = [97, 190, 371, 623, 1273, 1341, 1452, 1666, 2307, 2322, 2486, 2551, 2594, 2675, 2685, 2802]


def test_search_funnel_of_seed_0_is_pinned(monkeypatch, fresh_memos):
    """Search seed 0 over 3,000 draws, stages 1-4: which draws each stage
    rejects and which survive.  13 of the 16 stage-2 rejects have a singular
    point in P^2(F_3) and the other 3 one in P^2(F_9), which the scan finds
    before any resultant: 14 chart resultants in all (108 when every reject
    ran the elimination)."""
    calls = []
    resultant = badred.resultant
    monkeypatch.setattr(badred, "resultant", lambda *args: calls.append(1) or resultant(*args))
    events = list(search_events(SearchConfig(seed=0, max_draws=3000, steps=(1, 2, 3, 4))))
    assert len(calls) <= 14
    rejected = {}
    for event in events:
        if event[0] == "rejected":
            rejected.setdefault(event[2], []).append(event[1])
    assert {stage: len(draws) for stage, draws in rejected.items()} == {1: 2980, 2: 16, 3: 1}
    assert rejected[2] == SEED_0_STAGE_2
    assert [e[1] for e in events if e[0] == "report"] == [1305, 1604, 2206]


def _certify_fixture(fixtures, **evidence):
    return certify(
        fixtures.sextet,
        SearchConfig(local_point_box=1),
        counts=CountSeries.from_counts(3, list(fixtures.counts)),
        **evidence,
    )


def test_search_replays_the_worked_example(fixtures):
    """certify, the search's path, certifies the worked example from its
    fixture evidence."""
    report = _certify_fixture(fixtures, bad_primes=fixtures.bad_primes)
    assert report.verdict == "obstruction certified"
    assert report.no_tritangent_prime == 11
    assert report.unit_root_bound == 2
    assert report.invariant_total == "1/2"
    assert report.draw_index is None  # only search_events numbers draws


def test_search_without_discriminant_fixture_stops_at_stage_5(fixtures):
    report = _certify_fixture(fixtures)
    assert report.verdict.startswith("candidate")
    assert any("discriminant fixture" in n for n in report.notes)


def test_certify_agrees_with_verify_example(fixtures):
    """verify_example is certify on the fixture evidence plus comparisons, so
    the two reports agree on every leg the comparisons do not add."""
    evidence = dict(bad_primes=fixtures.bad_primes, good_spot_checks=fixtures.good_spot_checks)
    got = _certify_fixture(fixtures, **evidence).to_json_dict()
    want = verify_example(depth=2).to_json_dict()
    for key in ("factorization", "counts_recomputed_to", "notes"):
        want.pop(key)
        got.pop(key, None)
    assert got == want


def test_certify_rejection_names_the_stage(fixtures, monkeypatch):
    with pytest.raises(Rejected) as err:
        _certify_fixture(fixtures, bad_primes=(5, 13))
    assert err.value.stage == 6
    assert "13" in err.value.reason
    monkeypatch.setattr(pipeline, "TRITANGENT_WINDOW", (5, 7))
    with pytest.raises(Rejected) as err:
        certify(fixtures.sextet, SearchConfig(steps=(1, 2, 3)))
    assert (err.value.stage, err.value.reason) == (3, "no tritangent-free good prime in the window")


def test_stage_4_and_the_local_leg_check_one_list_of_small_places(fixtures, monkeypatch):
    """Stage 4 tries R and the primes up to 19 in order, the places the
    everywhere-local leg checks before the bad primes above 19."""
    assert [str(place) for place in brauer.SMALL_PLACES] == ["R"] + [f"Q_{p}" for p in (2, 3, 5, 7, 11, 13, 17, 19)]
    attestation = brauer.certify_everywhere_local(build_k3(fixtures.sextet), fixtures.bad_primes)
    assert attestation.checked_places[: len(brauer.SMALL_PLACES)] == list(brauer.SMALL_PLACES)
    tried = []

    def none_at_19(X, place, box):
        tried.append(place)
        return None if place.p == 19 else (0, 0, 1)

    monkeypatch.setattr(pipeline, "find_local_point", none_at_19)
    with pytest.raises(Rejected) as err:
        certify(fixtures.sextet, SearchConfig(steps=(1, 4)))
    assert (err.value.stage, err.value.reason) == (4, "no local point found at Q_19 (possible false negative)")
    assert tried == list(brauer.SMALL_PLACES)


def test_stage_2_rejects_a_branch_form_that_vanishes_mod_3(fixtures):
    """Every form scaled by 9 keeps the 2-adic congruences (9 = 1 mod 8) and
    the definiteness, so stage 1 passes; f scales by 9^3 and vanishes mod 3."""
    scaled = QuadricSextet.from_forms(*(form.scale(9) for form in fixtures.sextet.forms()))
    with pytest.raises(Rejected) as err:
        certify(scaled, SearchConfig(steps=(1, 2)))
    assert (err.value.stage, err.value.reason) == (2, "branch form vanishes mod 3")


def test_stage_7_rejects_a_prime_whose_frame_needs_an_extension(fixtures, monkeypatch):
    """singular_points raises RegularizationError when the frame of a bad
    prime exists only over an extension; certify names that prime in a
    stage-7 rejection."""

    def no_frame(f, p, degree_bound):
        raise RegularizationError(f"the singular points mod {p} need a frame over an extension")

    monkeypatch.setattr(pipeline, "singular_points", no_frame)
    with pytest.raises(Rejected) as err:
        _certify_fixture(fixtures, bad_primes=fixtures.bad_primes)
    first = next(p for p in fixtures.bad_primes if p != 2)
    assert err.value.stage == 7
    assert f"mod {first} not located" in err.value.reason


@pytest.mark.parametrize("A", [[-1, 0, 0, -5, 0, -5], [-3, 1, 0, -4, 1, -2]])
def test_stage_7_rejects_a_positive_dimensional_singular_locus(A, monkeypatch):
    """Mod 5 these sextets have a singular locus the locator cannot list (a
    single-form Jacobian system, a shared factor of two partials); certify
    names the prime in a stage-7 rejection.  The local-point attestation,
    which fails at R for them, is stubbed to reach the locator."""
    B = C = [5, 0, 0, 5, 0, 5]
    sextet = QuadricSextet.from_coefficients(
        [A, B, C, [c + 5 for c in A], [10, 0, 0, 5, 0, 10], [c - 5 for c in A]]
    )
    attestation = brauer.LocalPointsAttestation(witnesses={}, checked_places=[], weil_rule="")
    monkeypatch.setattr(pipeline, "certify_everywhere_local", lambda X, primes, box: attestation)
    with pytest.raises(Rejected) as err:
        certify(sextet, SearchConfig(steps=(7,)), bad_primes=(5,))
    assert err.value.stage == 7
    assert err.value.reason.startswith("singular points mod 5 not located")


def test_verify_example_names_the_rejected_leg(fixtures, monkeypatch):
    tampered = dataclasses.replace(fixtures, good_spot_checks=(5,))
    monkeypatch.setattr("k3hasse.pipeline.load_fixtures", lambda: tampered)
    with pytest.raises(FixtureMismatch) as err:
        verify_example(depth=1)
    assert err.value.leg == "bad primes"
    assert "good spot check 5" in str(err.value)


def test_verify_example_decides_each_leg_once(monkeypatch, fresh_memos):
    """verify_example(depth=2) decides singularity once per distinct form
    (mod 3, 11, 13 and mod each of the nine odd bad primes), runs the
    elimination (``_eliminate``) once per distinct Jacobian system, scans for
    tritangents once per prime (3 and 11) and computes the charpoly once.
    A decision enters ``_has_common_zero`` at depth 0; the shared-factor
    split re-enters it for its branches."""
    decisions, frames, scans, charpolys, depth = [], [], [], [], [0]
    has_common_zero = badred._has_common_zero
    eliminate = badred._eliminate.__wrapped__

    def counted_decision(elim):
        decisions.append(depth[0] == 0)
        depth[0] += 1
        try:
            return has_common_zero(elim)
        finally:
            depth[0] -= 1

    def counted_eliminate(system, fld, lift=None):
        frames.append((system, fld))
        return eliminate(system, fld, lift)

    def counted_scan(f, p):
        scans.append(p)
        return scan(f, p)

    def counted_charpoly(counts):
        charpolys.append(counts.p)
        return frobenius_charpoly(counts)

    scan = picard.tritangent_scan.__wrapped__
    frobenius_charpoly = picard.frobenius_charpoly
    monkeypatch.setattr(picard, "frobenius_charpoly", counted_charpoly)
    monkeypatch.setattr(pipeline, "frobenius_charpoly", counted_charpoly)
    monkeypatch.setattr(badred, "_has_common_zero", counted_decision)
    monkeypatch.setattr(badred, "_eliminate", functools.lru_cache(maxsize=64)(counted_eliminate))
    monkeypatch.setattr(picard, "tritangent_scan", functools.lru_cache(maxsize=64)(counted_scan))
    verify_example(depth=2)
    assert sum(decisions) == 12
    assert frames and len(frames) == len(set(frames))
    assert sorted(scans) == [3, 11]
    assert charpolys == [3]


def test_verify_example_reduces_the_integer_resultants_mod_each_prime(monkeypatch, fresh_memos):
    """verify_example(depth=6) computes the three R_ij over Z once and reads
    each prime's chart gcd from them, except mod 3, which divides deg f,
    and mod 7, which divides the x1-partial's x2^5 coefficient -18816:
    there it computes the chart resultants over F_p: four of the six pairs
    mod 3, in the frame (0, t) of F_81, before the gcd is 1, and three mod
    7.  The R_ij are memoised in functools caches, so a pass after emptying
    them computes them again."""
    charts, integers = [], []
    resultant, integer_chart_resultant = badred.resultant, badred.integer_chart_resultant

    def counted_chart(A, f, g):
        charts.append(A.p)
        return resultant(A, f, g)

    def counted_integer(f, g):
        integers.append((f, g))
        return integer_chart_resultant(f, g)

    monkeypatch.setattr(badred, "resultant", counted_chart)
    monkeypatch.setattr(badred, "integer_chart_resultant", counted_integer)
    verify_example(depth=6)
    assert sorted(charts) == [3, 3, 3, 3, 7, 7, 7] and len(integers) == 3
    _clear_memos()
    verify_example(depth=6)
    assert len(charts) == 14 and len(integers) == 6


def test_verify_example_searches_each_place_and_box_once(monkeypatch, fresh_memos):
    """Stage 4, the everywhere-local attestation and the witnesses of the
    invariant profile share the memoised local-point search: during
    verify_example(depth=1) the search itself runs once per distinct
    (place, box), whatever the call style of each caller."""
    find = brauer.find_local_point
    requests = []

    def recorded(X, place, *args, **kwargs):
        box = kwargs.get("box", args[0] if args else 1)
        requests.append((place, box))
        return find(X, place, *args, **kwargs)

    monkeypatch.setattr(brauer, "find_local_point", recorded)
    monkeypatch.setattr(pipeline, "find_local_point", recorded)
    verify_example(depth=1)
    searches = find.cache_info().misses
    assert searches == len(set(requests))
    assert len(requests) > searches
