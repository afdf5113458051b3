import dataclasses
import functools
import hashlib
import json

import pytest

from k3hasse import badred, picard, pipeline
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
from k3hasse.surface import check_2adic_conditions
import random


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


def test_draw_sextet_impossible_range():
    rng = random.Random(5)
    # bound 4 leaves no residue 1 mod 8 negative value for A_1
    assert draw_sextet(rng, 4) is None


def test_search_step1_rejects_all_on_bad_range():
    config = SearchConfig(seed=1, coefficient_bound=4, max_draws=5, steps=(1,))
    events = list(search_events(config))
    assert len(events) == 5
    assert all(e[0] == "rejected" and e[2] == 1 for e in events)


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


def test_certify_rejection_names_the_stage(fixtures):
    with pytest.raises(Rejected) as err:
        _certify_fixture(fixtures, bad_primes=(5, 13))
    assert err.value.stage == 6
    assert "13" in err.value.reason
    tight = SearchConfig(tritangent_window=(5, 7), steps=(1, 2, 3))
    with pytest.raises(Rejected) as err:
        certify(fixtures.sextet, tight)
    assert (err.value.stage, err.value.reason) == (3, "no tritangent-free good prime in the window")


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


def test_verify_example_names_the_rejected_leg(fixtures, monkeypatch):
    tampered = dataclasses.replace(fixtures, good_spot_checks=(5,))
    monkeypatch.setattr("k3hasse.pipeline.load_fixtures", lambda: tampered)
    with pytest.raises(FixtureMismatch) as err:
        verify_example(depth=1)
    assert err.value.leg == "bad primes"
    assert "good spot check 5" in str(err.value)


def test_verify_example_decides_each_leg_once(monkeypatch):
    """verify_example(depth=2) decides singularity once per distinct form
    (over Q, mod 3, 11, 13 and mod each of the nine odd bad primes), runs the
    elimination (regularize) once per distinct Jacobian system, scans for
    tritangents once per prime (3 and 11) and computes the charpoly once."""
    decisions, frames, scans, charpolys, depth = [], [], [], [], [0]
    system_has_common_zero = badred._system_has_common_zero
    regularize = badred.regularize

    def counted_decision(system, fld):
        decisions.append(depth[0] == 0)
        depth[0] += 1
        try:
            return system_has_common_zero(system, fld)
        finally:
            depth[0] -= 1

    def counted_regularize(system, fld):
        frames.append((tuple(system), fld))
        return regularize(system, fld)

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
    monkeypatch.setattr(badred, "_system_has_common_zero", counted_decision)
    monkeypatch.setattr(badred, "regularize", counted_regularize)
    monkeypatch.setattr(picard, "tritangent_scan", functools.lru_cache(maxsize=64)(counted_scan))
    badred.singular_locus_nonempty.cache_clear()
    badred._eliminate.cache_clear()
    verify_example(depth=2)
    badred.singular_locus_nonempty.cache_clear()
    badred._eliminate.cache_clear()
    assert sum(decisions) == 13
    assert frames and len(frames) == len(set(frames))
    assert sorted(scans) == [3, 11]
    assert charpolys == [3]
