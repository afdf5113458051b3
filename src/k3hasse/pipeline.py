"""The certificate, the staged search and the worked verification.

``certify`` runs the seven stages of the certificate on one sextet, each leg
once and in order: the coefficient hypotheses, smoothness mod 3 (which implies
smoothness over Q), the tritangent pair (a line mod 3, none mod the first good
prime p' >= 5), small local points, the count series with the rank-1
certificate, the bad primes, and the local points, singular loci and
invariant profile behind the Brauer-Manin verdict.  A failing stage raises
``Rejected`` naming it.

``search_events`` feeds random seed sextets to ``certify``.  Stage 6 over
Z (the discriminant integers of a fresh candidate) is a heavy elimination
outside this artifact's scope, so stages 6 and 7 need a bad-prime list as
evidence; without one the search reports candidates that survived stages
1-5.

``verify_example`` checks the factorization chain and a recomputed prefix of
the counts, certifies the shipped example with its fixture evidence, and
compares the result with the printed data: the local-point table, p' = 11,
the functional-equation sign, the charpoly and the unit-root bound.  Any
mismatch is a hard failure naming the leg.
"""

from __future__ import annotations

import importlib.resources
import json
import random
from dataclasses import dataclass, field as dataclass_field, fields
from fractions import Fraction
from functools import lru_cache
from math import gcd, prod

from .arith import probable_prime, strip_small_factors_pair
from .badred import PositiveDimensionalLocus, RegularizationError, singular_points, verify_bad_prime_list
from .brauer import (
    SMALL_PLACES,
    LocalSolubilityUndecided,
    ProfileInconclusive,
    build_invariant_profile,
    bm_verdict,
    certify_everywhere_local,
    find_local_point,
)
from .localfield import Place
# frobenius_charpoly and unit_root_bound are not called here (the report
# carries the stage-5 charpoly); bench/layers.py traces the charpoly layer
# through these module bindings, so they stay imported.
from .picard import (  # noqa: F401
    CountingError,
    CountSeries,
    FrobeniusData,
    InconsistentCounts,
    RankInconclusive,
    SignAmbiguous,
    certify_rank_one,
    count_series,
    find_tritangent,
    frobenius_charpoly,
    unit_root_bound,
)
from .surface import (
    COEFFICIENT_PATTERNS,
    QuadricSextet,
    build_k3,
    check_2adic_conditions,
    check_real_conditions,
    is_smooth_curve,
    reduce_mod,
)
from .finitefield import TABLE_LIMIT, prime_field


class FixtureMismatch(AssertionError):
    def __init__(self, leg: str, detail: str):
        super().__init__(f"fixture mismatch in {leg}: {detail}")
        self.leg = leg


# ---------------------------------------------------------------------------
# Fixtures (the printed data of the worked example)
# ---------------------------------------------------------------------------

#: small-factor decompositions printed for the two discriminant integers
M_SMALL_FACTORS = {2: 8, 5: 2, 7: 1, 89: 1, 173: 1, 257: 2, 263: 1, 650779: 2}
N_SMALL_FACTORS = {2: 11, 5: 2, 7: 1, 89: 1, 173: 1, 263: 1, 461: 2, 6547: 2}

#: per-place f-values of the printed local-point table (finite places)
TABLE1_VALUES = {
    2: 57872, 3: 1622952, 5: 736256, 7: 256575, 11: 736256, 13: 736256,
    17: 1622952, 19: 736256, 89: 80019, 173: 256575, 257: 736256,
    263: 256575, 650779: 1622952,
    "prime66": 736256, "gcd": 736256,
}

#: the degree-20 irreducible factor of the normalized charpoly, ascending
CHARPOLY_DEG20 = [3, 3, 5, 5, 6, 2, 2, -3, -4, -8, -6, -8, -4, -3, 2, 2, 6, 5, 5, 3, 3][::-1]


def expected_normalized_charpoly() -> list[Fraction]:
    """(1/3)(t^2 - 1) * (degree-20 factor), ascending coefficients."""
    shifted, padded = [0, 0] + CHARPOLY_DEG20, CHARPOLY_DEG20 + [0, 0]
    return [Fraction(a - b, 3) for a, b in zip(shifted, padded)]


@dataclass(frozen=True)
class Fixtures:
    sextet: QuadricSextet
    m: int
    n: int
    gcd_printed: int
    prime66: int
    counts_p: int
    counts: tuple[int, ...]
    bad_primes: tuple[int, ...]
    good_spot_checks: tuple[int, ...]


@lru_cache(maxsize=1)
def load_fixtures() -> Fixtures:
    data = importlib.resources.files("k3hasse.data")
    read = lambda name: (data / name).read_text()
    counts = json.loads(read("counts_mod3.json"))
    bad = json.loads(read("bad_primes.json"))
    return Fixtures(
        sextet=QuadricSextet.from_json(read("example_sextet.json")),
        m=int(read("m.txt")),
        n=int(read("n.txt")),
        gcd_printed=int(read("gcd_mprime_nprime.txt")),
        prime66=int(read("prime66.txt")),
        counts_p=counts["p"],
        counts=tuple(counts["N"]),
        bad_primes=tuple(int(s) for s in bad["bad_primes"]),
        good_spot_checks=tuple(bad["good_spot_checks"]),
    )


# ---------------------------------------------------------------------------
# The report and the factorization chain
# ---------------------------------------------------------------------------

@dataclass
class ObstructionReport:
    sextet: QuadricSextet
    verdict: str
    seed: int | None = None
    draw_index: int | None = None
    smooth_over_q: bool | None = None
    smooth_mod_3: bool | None = None
    real_conditions: bool | None = None
    two_adic_conditions: bool | None = None
    tritangent_prime: int | None = None
    tritangent_line: tuple | None = None
    no_tritangent_prime: int | None = None
    counts: list[int] | None = None
    counts_recomputed_to: int | None = None
    charpoly_sign: int | None = None
    unit_root_bound: int | None = None
    rank: int | None = None
    local_witnesses: dict | None = None
    bad_primes: list | None = None
    singular_analysis: dict | None = None
    invariant_profile: dict | None = None
    invariant_total: str | None = None
    factorization: dict | None = None
    notes: list[str] = dataclass_field(default_factory=list)
    #: the stage-5 charpoly, handed back for comparison; not part of the JSON
    frobenius: FrobeniusData | None = dataclass_field(
        default=None, repr=False, compare=False, metadata={"json": False}
    )

    def to_json_dict(self) -> dict:
        """Every leg that is set; empty notes and counts are left out, the
        tritangent line becomes a list and big primes decimal strings."""
        out = {
            "verdict": self.verdict,
            "sextet": json.loads(self.sextet.to_json()),
        }
        for key in (f.name for f in fields(self)[2:] if f.metadata.get("json", True)):
            val = getattr(self, key)
            if val is None or (key in ("counts", "notes") and not val):
                continue
            if key == "tritangent_line":
                val = list(val)
            elif key == "bad_primes":
                val = [str(p) for p in val]
            out[key] = val
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)


def _place_key(place: Place) -> str:
    return "R" if place.is_real else str(place.p)


def _witnesses_json(attestation) -> dict:
    out = {}
    for place, pt in attestation.witnesses.items():
        out[_place_key(place)] = {
            "x": [str(c) for c in pt.x],
            "value": str(pt.value),
        }
    return out


def _profile_json(profile) -> dict:
    entries = {}
    for place in sorted(profile.entries):
        e = profile.entries[place]
        entries[_place_key(place)] = {
            "value": None if e.value is None else str(e.value),
            "basis": e.basis,
            "constant": e.constant,
            "samples": e.samples,
            "witness": None if e.witness is None else [str(c) for c in e.witness.x],
        }
    return {"entries": entries, "eliminations": profile.eliminations}


def verify_factorization_chain(fx: Fixtures) -> dict:
    """The printed factorization chain: small factors of m and n, the Euclid
    gcd of the cofactors, its primality, the 66-digit prime, and the exact
    reassembly of m."""
    (factors_m, m_prime), (factors_n, n_prime) = strip_small_factors_pair(fx.m, fx.n)
    if dict(factors_m) != M_SMALL_FACTORS:
        raise FixtureMismatch("factorization of m", f"got {factors_m}")
    if dict(factors_n) != N_SMALL_FACTORS:
        raise FixtureMismatch("factorization of n", f"got {factors_n}")
    g = gcd(m_prime, n_prime)
    if g != fx.gcd_printed:
        raise FixtureMismatch("gcd(m', n')", "Euclid gcd differs from the printed value")
    if not probable_prime(g):
        raise FixtureMismatch("primality of gcd(m', n')", "probable-prime test failed")
    if not probable_prime(fx.prime66):
        raise FixtureMismatch("primality of the 66-digit prime", "probable-prime test failed")
    if m_prime != g * fx.prime66 * fx.prime66:
        raise FixtureMismatch(
            "reassembly of m'", "m' is not gcd(m',n') times the square of the 66-digit prime"
        )
    if prod(p**e for p, e in factors_m) * g * fx.prime66**2 != fx.m:
        raise FixtureMismatch("reassembly of m", "certified factors do not multiply back to m")
    bad = sorted([p for p, _ in factors_m] + [fx.prime66, g])
    if tuple(sorted(fx.bad_primes)) != tuple(bad):
        raise FixtureMismatch("bad prime list", "derived list differs from the fixture")
    return {
        "m_small_factors": {str(p): e for p, e in factors_m},
        "n_small_factors": {str(p): e for p, e in factors_n},
        "gcd_digits": len(str(g)),
        "m_prime_structure": "gcd(m',n') * prime66^2",
        "bad_primes": [str(p) for p in bad],
    }


# ---------------------------------------------------------------------------
# The certificate: stages 1-7, shared by the search and the worked example
# ---------------------------------------------------------------------------

#: the primes stage 3 scans for a good prime without a tritangent line
TRITANGENT_WINDOW = (5, 100)


@dataclass
class SearchConfig:
    seed: int = 0
    coefficient_bound: int = 40
    local_point_box: int = 2
    counting_depth: int = 10
    max_draws: int = 10
    steps: tuple[int, ...] = (1, 2, 3, 4, 5, 6, 7)

    def __post_init__(self):
        # a bool is an int, but no range: True == 1
        ranges = {"coefficient_bound": 1, "local_point_box": 1, "counting_depth": 1, "max_draws": 0}
        for name, least in ranges.items():
            value = getattr(self, name)
            if type(value) is not int:
                raise TypeError(f"{name} must be an int, got {value!r}")
            if value < least:
                raise ValueError(f"{name} must be at least {least}, got {value}")
        if not self.steps or not all(type(s) is int and s in STAGE_LEGS for s in self.steps):
            raise ValueError(f"steps must be one or more of the stages 1 to 7, got {self.steps!r}")
        # stage 5 reads the charpoly off counts over F_3 .. F_{3^depth}
        if 5 in self.steps and not (10 <= self.counting_depth and 3**self.counting_depth <= TABLE_LIMIT):
            raise ValueError(
                f"stage 5 needs a counting depth of at least 10 with 3^depth <= {TABLE_LIMIT}, "
                f"got {self.counting_depth}"
            )


#: the leg of the certificate each stage decides
STAGE_LEGS = {
    1: "coefficient hypotheses",
    2: "smoothness",
    3: "tritangents",
    4: "local points",
    5: "rank certificate",
    6: "bad primes",
    7: "invariant profile",
}


class Rejected(Exception):
    """A candidate failed the leg of the given stage."""

    def __init__(self, stage: int, reason: str):
        super().__init__(f"stage {stage} ({STAGE_LEGS[stage]}): {reason}")
        self.stage = stage
        self.leg = STAGE_LEGS[stage]
        self.reason = reason


def certify(
    sextet: QuadricSextet,
    config: SearchConfig,
    *,
    counts: CountSeries | None = None,
    bad_primes=None,
    good_spot_checks=(),
) -> ObstructionReport:
    """Run the enabled stages of ``config.steps`` in order on one sextet and
    return its report; the first failing stage raises :class:`Rejected`.

    The evidence is optional: ``counts`` replaces the stage-5 count series,
    and ``bad_primes`` (with ``good_spot_checks``, primes attested good) is
    the discriminant's bad-prime list that stages 6-7 need.  Without it those
    stages are skipped and the verdict stays "candidate".
    """
    steps = set(config.steps)
    two_adic, real = check_2adic_conditions(sextet), check_real_conditions(sextet)
    if 1 in steps:
        if not two_adic:
            raise Rejected(1, "2-adic congruences fail")
        if not real:
            raise Rejected(1, "definiteness pattern fails")
    report = ObstructionReport(
        sextet=sextet, verdict="candidate", real_conditions=real, two_adic_conditions=two_adic
    )
    X = build_k3(sextet)
    f = X.branch_sextic

    if 2 in steps:
        # Smooth mod 3 implies smooth over Q: a singular point of f over Q-bar,
        # scaled to be integral at a prime above 3 with a unit coordinate,
        # reduces to a common zero of f and its partials over F_3-bar, which
        # is a singular point of the curve f mod 3 once that form is nonzero.
        f3 = reduce_mod(f, prime_field(3))
        if f3.is_zero():
            raise Rejected(2, "branch form vanishes mod 3")
        if not is_smooth_curve(f3):
            raise Rejected(2, "branch curve singular mod 3")
        report.smooth_over_q = report.smooth_mod_3 = True

    if 3 in steps:
        line = find_tritangent(f, 3)
        if line is None:
            raise Rejected(3, "no tritangent line mod 3")
        report.tritangent_prime = 3
        report.tritangent_line = line
        lo, hi = TRITANGENT_WINDOW
        for p in range(lo, hi + 1):
            if not probable_prime(p):
                continue
            try:
                if not is_smooth_curve(reduce_mod(f, prime_field(p))):
                    continue
            except ValueError:
                continue
            if find_tritangent(f, p) is None:
                report.no_tritangent_prime = p
                break
        else:
            raise Rejected(3, "no tritangent-free good prime in the window")

    if 4 in steps:
        for place in SMALL_PLACES:
            if find_local_point(X, place, box=config.local_point_box) is None:
                raise Rejected(4, f"no local point found at {place} (possible false negative)")

    if 5 in steps:
        if counts is None:
            counts = count_series(f, 3, config.counting_depth)
        report.counts = list(counts.counts)
        try:
            cert = certify_rank_one(X, 3, report.no_tritangent_prime or 11, counts=counts)
        except (RankInconclusive, CountingError, SignAmbiguous, InconsistentCounts) as exc:
            raise Rejected(5, str(exc)) from exc
        report.frobenius = cert.charpoly
        report.charpoly_sign = cert.charpoly.sign
        report.unit_root_bound = cert.unit_root_bound
        report.rank = cert.rank

    if not {6, 7} & steps:
        return report
    if bad_primes is None:
        report.notes.append(
            "steps 6-7 skipped: no discriminant fixture supplied "
            "(the Z-elimination for fresh candidates is outside this artifact)"
        )
        report.verdict = "candidate (stages 1-5 passed; obstruction not certified)"
        return report
    if 6 in steps:
        try:
            verify_bad_prime_list(f, bad_primes, good_spot_checks)
        except AssertionError as exc:
            raise Rejected(6, str(exc)) from exc
        report.bad_primes = list(bad_primes)
    if 7 in steps:
        try:
            attestation = certify_everywhere_local(X, bad_primes, box=config.local_point_box)
        except LocalSolubilityUndecided as exc:
            raise Rejected(7, str(exc)) from exc
        report.local_witnesses = _witnesses_json(attestation)
        report.notes.append(attestation.weil_rule)
        reports = {}
        for p in bad_primes:
            if p == 2:
                continue
            try:
                reports[p] = singular_points(f, p, 6)
            except (RegularizationError, PositiveDimensionalLocus) as exc:
                raise Rejected(7, f"singular points mod {p} not located: {exc}") from exc
            if not reports[p].all_nodes_and_r_lt8:
                raise Rejected(7, f"singular locus at {p} is not r < 8 ordinary double points")
        report.singular_analysis = {str(p): r.to_json_dict() for p, r in reports.items()}
        profile = build_invariant_profile(X, bad_primes, singular_reports=reports)
        report.invariant_profile = _profile_json(profile)
        report.invariant_total = str(profile.total())
        try:
            verdict = bm_verdict(profile)
        except ProfileInconclusive as exc:
            raise Rejected(7, str(exc)) from exc
        if verdict != "obstruction":
            raise Rejected(7, "invariant profile sums to zero: no obstruction from the class")
        report.verdict = "obstruction certified"
    return report


# ---------------------------------------------------------------------------
# The worked verification
# ---------------------------------------------------------------------------

def verify_example(depth: int = 6, full_count: bool = False) -> ObstructionReport:
    """Certify the worked example with its fixture evidence and compare every
    leg with the printed data; a mismatch is a hard failure naming the leg.
    Counts are recomputed up to ``depth`` (all ten under ``full_count``) and
    taken from the fixture beyond; a depth that is not an int raises
    TypeError, and a negative one ValueError."""
    if not isinstance(depth, int) or isinstance(depth, bool):
        raise TypeError(f"the counting depth must be an int, got {depth!r}")
    if depth < 0:
        raise ValueError(f"the counting depth must be at least 0, got {depth}")
    fx = load_fixtures()
    factorization = verify_factorization_chain(fx)

    recompute_to = 10 if full_count else min(depth, 10)
    if recompute_to > 0:
        series = count_series(build_k3(fx.sextet).branch_sextic, fx.counts_p, recompute_to)
        if tuple(series.counts) != fx.counts[:recompute_to]:
            raise FixtureMismatch(
                "point counts", f"recomputed N_1..N_{recompute_to} differ from the fixture"
            )
    full = CountSeries.from_counts(fx.counts_p, list(fx.counts))

    try:
        report = certify(
            fx.sextet,
            SearchConfig(local_point_box=1),
            counts=full,
            bad_primes=fx.bad_primes,
            good_spot_checks=fx.good_spot_checks,
        )
    except Rejected as exc:
        raise FixtureMismatch(STAGE_LEGS[exc.stage], exc.reason) from exc

    named = {"prime66": fx.prime66, "gcd": fx.gcd_printed}
    for key, want in TABLE1_VALUES.items():
        p = named.get(key, key)
        got = report.local_witnesses.get(str(p), {}).get("value")
        if got != str(want):
            raise FixtureMismatch(
                "local point table", f"value at p = {p} is {got}, expected {want}"
            )
    if report.no_tritangent_prime != 11:
        raise FixtureMismatch(
            "tritangent at 11", f"first tritangent-free prime is {report.no_tritangent_prime}"
        )
    fd = report.frobenius
    if fd.sign != -1:
        raise FixtureMismatch("functional equation sign", f"got {fd.sign}")
    if fd.normalized != expected_normalized_charpoly():
        raise FixtureMismatch("charpoly", "normalized coefficients differ from the printed ones")
    if report.unit_root_bound != 2:
        raise FixtureMismatch("unit-root bound", f"got {report.unit_root_bound}")

    report.counts_recomputed_to = recompute_to
    report.factorization = factorization
    if recompute_to < 10:
        report.notes.append(
            f"counts N_{recompute_to + 1}..N_10 taken from the fixture"
            " (recompute with full_count)"
        )
    return report

# ---------------------------------------------------------------------------
# The staged search
# ---------------------------------------------------------------------------

@lru_cache(maxsize=8)
def _choice_table(bound: int) -> tuple[tuple[int, ...], ...]:
    """The integers in [-bound, bound] allowed for each of the 36 coefficients."""
    return tuple(
        tuple(v for v in range(-bound, bound + 1) if (sign == 0 or v * sign > 0) and (v - r) % m == 0)
        for (r, m), sign in COEFFICIENT_PATTERNS
    )


def draw_sextet(rng: random.Random, bound: int) -> QuadricSextet | None:
    """A random sextet honoring the 2-adic congruences and the diagonal sign
    pattern; None when the range admits no valid coefficient for some slot.

    Each slot takes choices[r] for r drawn by rejection on k = n.bit_length()
    random bits, n = len(choices): the draws, and the generator state after
    them, of ``rng.choice(choices)`` slot by slot."""
    getrandbits = rng.getrandbits
    values = []
    for choices in _choice_table(bound):
        n = len(choices)
        if not n:
            return None
        k = n.bit_length()
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        values.append(choices[r])
    return QuadricSextet(tuple(values))


def search_events(config: SearchConfig):
    """Yield ("rejected", index, stage, reason) and ("report", index, report),
    one event per draw: a draw the coefficient range cannot make is a
    stage-1 rejection whatever ``config.steps`` holds."""
    rng = random.Random(config.seed)
    for index in range(config.max_draws):
        sextet = draw_sextet(rng, config.coefficient_bound)
        if sextet is None:
            yield ("rejected", index, 1, "coefficient range admits no valid draw")
            continue
        try:
            report = certify(sextet, config)
        except Rejected as exc:
            yield ("rejected", index, exc.stage, exc.reason)
            continue
        report.seed = config.seed
        report.draw_index = index
        yield ("report", index, report)
