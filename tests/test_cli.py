import dataclasses
import importlib.resources
import json

import pytest

from k3hasse.cli import main

from .test_picard import DRAW_1146_COUNTS, nth_draw


def _error(capsys) -> dict:
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    return json.loads(lines[0])


def test_construct_writes_the_branch_sextic(example_sextet, example_sextic, tmp_path, capsys):
    path = tmp_path / "sextet.json"
    path.write_text(example_sextet.to_json())
    assert main(["construct", "--sextet", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["sextic"] == example_sextic.coefficients()


def test_construct_on_a_sextet_missing_a_form(example_sextet, tmp_path, capsys):
    data = json.loads(example_sextet.to_json())
    del data["F"]
    path = tmp_path / "sextet.json"
    path.write_text(json.dumps(data))
    assert main(["construct", "--sextet", str(path)]) == 2
    assert _error(capsys) == {
        "error": "ValueError",
        "leg": None,
        "message": "sextet JSON lacks the key 'F'",
    }


def test_construct_on_a_non_json_file(tmp_path, capsys):
    path = tmp_path / "sextet.json"
    path.write_text("A = [1, 0, 0, 1, 0, 1]\n")
    assert main(["construct", "--sextet", str(path)]) == 2
    error = _error(capsys)
    assert error["error"] == "JSONDecodeError"
    assert error["leg"] is None
    assert error["message"].startswith("Expecting value")


def test_construct_on_a_non_integer_coefficient(example_sextet, tmp_path, capsys):
    data = json.loads(example_sextet.to_json())
    data["B"][0] = 1.5
    path = tmp_path / "sextet.json"
    path.write_text(json.dumps(data))
    assert main(["construct", "--sextet", str(path)]) == 2
    assert _error(capsys) == {
        "error": "TypeError",
        "leg": None,
        "message": "form B: coefficient 1.5 is not an int",
    }


def test_construct_on_a_row_that_is_not_a_list(example_sextet, tmp_path, capsys):
    data = json.loads(example_sextet.to_json())
    data["A"] = 5
    path = tmp_path / "sextet.json"
    path.write_text(json.dumps(data))
    assert main(["construct", "--sextet", str(path)]) == 2
    assert _error(capsys) == {
        "error": "TypeError",
        "leg": None,
        "message": "form A: 5 is not a list of coefficients",
    }


def test_construct_on_a_missing_file(tmp_path, capsys):
    assert main(["construct", "--sextet", str(tmp_path / "absent.json")]) == 2
    error = _error(capsys)
    assert error["error"] == "FileNotFoundError"
    assert error["leg"] is None


def test_verify_example_names_the_mismatched_leg(fixtures, monkeypatch, capsys):
    tampered = dataclasses.replace(fixtures, good_spot_checks=(5,))
    monkeypatch.setattr("k3hasse.pipeline.load_fixtures", lambda: tampered)
    assert main(["verify-example", "--depth", "1"]) == 2
    error = _error(capsys)
    assert error["error"] == "FixtureMismatch"
    assert error["leg"] == "bad primes"
    assert "good spot check 5" in error["message"]


def test_badprimes_on_a_positive_dimensional_singular_locus(tmp_path, capsys):
    """Mod 5 this sextet's branch form is 4 x0^6, singular along x0 = 0: the
    report is a typed error, not a finite list of points."""
    A = [-1, 0, 0, -5, 0, -5]
    rows = [A, [5, 0, 0, 5, 0, 5], [5, 0, 0, 5, 0, 5], [c + 5 for c in A], [10, 0, 0, 5, 0, 10], [c - 5 for c in A]]
    sextet, primes = tmp_path / "sextet.json", tmp_path / "primes.json"
    sextet.write_text(json.dumps(dict(zip("ABCDEF", rows))))
    primes.write_text('["5"]')
    assert main(["badprimes", "--sextet", str(sextet), "--primes", str(primes)]) == 2
    error = _error(capsys)
    assert error["error"] == "PositiveDimensionalLocus"
    assert error["message"].startswith("mod 5 the Jacobian system is one form")


def test_badprimes_on_a_locus_that_needs_a_frame_over_an_extension(tmp_path, capsys):
    """Mod 3 some form of this sextet's Jacobian system vanishes at each
    point [a:b:1] of P^2(F_3), so its frame exists only over F_9, where the
    node locator does not work: a typed error, not a traceback."""
    rows = {
        "A": [-1, -1, 1, 0, 1, 1], "B": [0, 1, -1, 1, 0, -1], "C": [0, -1, -1, 0, 0, -1],
        "D": [0, 0, 0, 1, 0, -1], "E": [-1, 0, -1, 0, -1, -1], "F": [0, 0, -1, 0, 0, 1],
    }
    sextet, primes = tmp_path / "sextet.json", tmp_path / "primes.json"
    sextet.write_text(json.dumps(rows))
    primes.write_text('["3"]')
    assert main(["badprimes", "--sextet", str(sextet), "--primes", str(primes)]) == 2
    assert _error(capsys) == {
        "error": "RegularizationError",
        "leg": None,
        "message": "the singular points mod 3 need a frame over an extension",
    }


@pytest.mark.parametrize("depth", [0, -1])
def test_count_rejects_a_depth_below_1(example_sextet, tmp_path, capsys, depth):
    path = tmp_path / "sextet.json"
    path.write_text(example_sextet.to_json())
    assert main(["count", "--sextet", str(path), "--depth", str(depth)]) == 2
    error = _error(capsys)
    assert error["error"] == "CountingError"
    assert error["message"] == f"the count series needs a depth of at least 1, got {depth}"


def test_count_rejects_a_p_that_is_not_an_odd_prime(example_sextet, tmp_path, capsys):
    path = tmp_path / "sextet.json"
    path.write_text(example_sextet.to_json())
    assert main(["count", "--sextet", str(path), "--p", "0"]) == 2
    error = _error(capsys)
    assert error["error"] == "CountingError"
    assert error["message"] == "point counting needs an odd prime, not 0"


def test_search_writes_its_funnel_on_stderr(capsys):
    """After the reports, one JSON line on stderr: the rejections per stage
    and the indices of the surviving draws; stdout holds the reports only."""
    assert main(["search", "--seed", "0", "--max-draws", "300", "--box", "1"]) == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {"rejected": {"1": 298, "2": 2}, "survivors": []}


def test_search_rejects_a_negative_draw_count(capsys):
    assert main(["search", "--max-draws", "-3"]) == 2
    assert _error(capsys) == {
        "error": "ValueError",
        "leg": None,
        "message": "max_draws must be at least 0, got -3",
    }


@pytest.mark.parametrize("depth", [9, 13])
def test_search_rejects_a_counting_depth_stage_5_cannot_use(capsys, depth):
    assert main(["search", "--max-draws", "1", "--depth", str(depth)]) == 2
    assert _error(capsys) == {
        "error": "ValueError",
        "leg": None,
        "message": f"stage 5 needs a counting depth of at least 10 with 3^depth <= 1048576, got {depth}",
    }


@pytest.mark.parametrize("command", ["badprimes", "invariants"])
def test_a_strong_pseudoprime_is_refused_as_not_prime(command, example_sextet, tmp_path, capsys):
    """psi_12 = 399165290221 * 798330580441 passes Miller-Rabin to the twelve
    prime bases up to 37; it is refused like 9, not treated as a prime."""
    sextet, primes = tmp_path / "sextet.json", tmp_path / "primes.json"
    sextet.write_text(example_sextet.to_json())
    primes.write_text('["318665857834031151167461"]')
    assert main([command, "--sextet", str(sextet), "--primes", str(primes)]) == 2
    assert _error(capsys) == {
        "error": "ValueError",
        "leg": None,
        "message": "318665857834031151167461 is not prime",
    }


@pytest.mark.parametrize(
    "command, n, error",
    [
        ("count", 9, {"error": "CountingError", "message": "point counting needs an odd prime, not 9"}),
        ("badprimes", 15, {"error": "ValueError", "message": "15 is not prime"}),
    ],
    ids=["count-9", "badprimes-15"],
)
def test_a_composite_field_characteristic_is_refused_as_not_prime(command, n, error, example_sextet, tmp_path, capsys):
    """F_9 is not a prime field: ``count --p 9`` is refused by the count's
    own check of p and a candidate bad prime 15 by the prime-field
    constructor, not counted or reduced."""
    sextet, primes = tmp_path / "sextet.json", tmp_path / "primes.json"
    sextet.write_text(example_sextet.to_json())
    primes.write_text(json.dumps([str(n)]))
    option = ["--p", str(n)] if command == "count" else ["--primes", str(primes)]
    assert main([command, "--sextet", str(sextet), *option]) == 2
    assert _error(capsys) == {**error, "leg": None}


@pytest.mark.parametrize("p", [1, -3, 2])
def test_tritangent_names_the_scan_for_a_p_below_3(p, example_sextet, tmp_path, capsys):
    """A p below 3 is refused by the scan's own check, before any primality
    test, so the message names the scan."""
    sextet = tmp_path / "sextet.json"
    sextet.write_text(example_sextet.to_json())
    assert main(["tritangent", "--sextet", str(sextet), "--p", str(p)]) == 2
    assert _error(capsys) == {
        "error": "ValueError",
        "leg": None,
        "message": f"the tritangent scan needs an odd prime, not {p}",
    }


def test_picard_refuses_counts_over_another_prime(example_sextet, tmp_path, capsys):
    """The shipped counts are over F_3; with --p 17 they are refused, not
    paired with the tritangent line mod 17."""
    sextet = tmp_path / "sextet.json"
    sextet.write_text(example_sextet.to_json())
    counts = importlib.resources.files("k3hasse.data") / "counts_mod3.json"
    assert main(["picard", "--sextet", str(sextet), "--p", "17", "--counts", str(counts)]) == 2
    assert _error(capsys) == {
        "error": "ValueError",
        "leg": None,
        "message": "the counts are over F_3, not over F_17, the tritangent prime",
    }


def test_charpoly_on_a_sign_ambiguous_series(tmp_path, capsys):
    """Seed 6's draw 1146 at ten counts: both signs conform, and the
    command names the count that would decide."""
    counts = tmp_path / "counts.json"
    counts.write_text(json.dumps({"p": 3, "N": DRAW_1146_COUNTS[:10]}))
    assert main(["charpoly", "--counts", str(counts)]) == 2
    assert _error(capsys) == {"error": "SignAmbiguous", "leg": None, "message": "sign ambiguous, need N_11"}


def test_picard_certifies_rank_one_from_twelve_counts(tmp_path, capsys):
    """Draw 1146 with its twelve counts: sign +1, unit-root bound 2, and
    no tritangent line mod 11."""
    sextet, counts = tmp_path / "sextet.json", tmp_path / "counts.json"
    sextet.write_text(nth_draw(6, 1146).to_json())
    counts.write_text(json.dumps({"p": 3, "N": DRAW_1146_COUNTS}))
    assert main(["picard", "--sextet", str(sextet), "--counts", str(counts)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert (out["rank"], out["charpoly_sign"], out["unit_root_bound"]) == (1, 1, 2)
    assert (out["p"], out["p_prime"], out["tritangent_line"], out["counts"]) == (3, 11, [1, 2, 2], DRAW_1146_COUNTS)


@pytest.mark.parametrize("p", [0, 1, 3.9, 3.0, True, pytest.param("3", id="string-3")])
def test_charpoly_refuses_a_p_that_is_not_an_odd_prime(p, tmp_path, capsys):
    """Ten counts of 1 fit the Weil bound at p = 1; the series refuses p
    itself instead of answering that the sign is ambiguous.  The table's p
    reaches the series as read: 3.9 is not truncated to 3, and 3.0, true
    and "3" are not taken for 3 or 1."""
    counts = tmp_path / "counts.json"
    counts.write_text(json.dumps({"p": p, "N": [1] * 10}))
    assert main(["charpoly", "--counts", str(counts)]) == 2
    assert _error(capsys) == {
        "error": "CountingError",
        "leg": None,
        "message": f"point counting needs an odd prime, not {p!r}",
    }


@pytest.mark.parametrize("p", [3.9, 3.0, True, pytest.param("3", id="string-3")])
def test_picard_refuses_a_count_table_p_that_is_not_an_int(p, example_sextet, fixtures, tmp_path, capsys):
    """The shipped counts with p = 3.9 are not taken for counts over F_3."""
    sextet, counts = tmp_path / "sextet.json", tmp_path / "counts.json"
    sextet.write_text(example_sextet.to_json())
    counts.write_text(json.dumps({"p": p, "N": list(fixtures.counts)}))
    assert main(["picard", "--sextet", str(sextet), "--counts", str(counts)]) == 2
    assert _error(capsys) == {
        "error": "CountingError",
        "leg": None,
        "message": f"point counting needs an odd prime, not {p!r}",
    }


@pytest.mark.parametrize("command", ["badprimes", "invariants"])
@pytest.mark.parametrize(
    "text, message",
    [
        ("[2.5]", "2.5 is not an integer"),
        ('["abc"]', "'abc' is not an integer"),
        ('"13"', "the primes must be a JSON list, not '13'"),
    ],
    ids=["float", "word", "string"],
)
def test_prime_lists_take_only_ints_and_decimal_strings(command, text, message, example_sextet, tmp_path, capsys):
    """2.5 is not read as 2, and the string "13" is not read digit by digit."""
    sextet, primes = tmp_path / "sextet.json", tmp_path / "primes.json"
    sextet.write_text(example_sextet.to_json())
    primes.write_text(text)
    assert main([command, "--sextet", str(sextet), "--primes", str(primes)]) == 2
    assert _error(capsys) == {"error": "ValueError", "leg": None, "message": message}


def test_verify_example_refuses_a_negative_depth(capsys):
    assert main(["verify-example", "--depth", "-3"]) == 2
    assert _error(capsys) == {
        "error": "ValueError",
        "leg": None,
        "message": "the counting depth must be at least 0, got -3",
    }
