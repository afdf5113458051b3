"""The 2-torsion quaternion class of the double cover: minors, the six
symbol representatives, local-point search, invariant evaluation and the
Brauer-Manin verdict.

Local points are integer triples, evaluated on ints.  A p-adic point is a
square certificate: an integer triple whose f-value is a nonzero square in
Q_p (unit square values Hensel-lift for odd p); a real point is a triple with
positive f-value.  Invariants never need the w-coordinate because every
symbol entry is a form in x0, x1, x2 alone.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field as dataclass_field

from .arith import probable_prime
from .localfield import INV_HALF, INV_ZERO, Invariant, Place, hilbert_symbol, invariant_sum, padic_square
from .poly import TernaryForm
from .surface import K3Surface, QuadricSextet, check_2adic_conditions, check_real_conditions


class IndeterminateAtPoint(ValueError):
    """Every representative of the class has a vanishing entry at the point."""


class LocalSolubilityUndecided(RuntimeError):
    def __init__(self, place: Place):
        super().__init__(f"local solubility undecided at {place}")
        self.place = place


@dataclass(frozen=True)
class MinorTriple:
    M_A: TernaryForm
    M_D: TernaryForm
    M_F: TernaryForm


def minors(q: QuadricSextet) -> MinorTriple:
    """M_A = 4DF - E^2, M_D = 4AF - C^2, M_F = 4AD - B^2."""
    A, B, C, D, E, F = q.forms()
    return MinorTriple(
        M_A=(D * F).scale(4) - E * E,
        M_D=(A * F).scale(4) - C * C,
        M_F=(A * D).scale(4) - B * B,
    )


#: Symbol representatives in evaluation-preference order: the headline pair
#: and its two diagonal analogues first, then the remaining three.
REPRESENTATIVE_TAGS = (
    ("-M_F", "A"),
    ("-M_A", "D"),
    ("-M_D", "F"),
    ("-M_D", "A"),
    ("-M_F", "D"),
    ("-M_A", "F"),
)


@dataclass(frozen=True)
class QuaternionRep:
    """One Hilbert-symbol representative of the class: a pair of even-degree
    forms, tagged by which of the six listed pairs it is."""

    tag: str
    left: TernaryForm
    right: TernaryForm


@functools.lru_cache(maxsize=16)
def representatives(q: QuadricSextet) -> tuple[QuaternionRep, ...]:
    """The six representatives, built once per sextet: every local point
    evaluates them, and the minors are degree-4 products."""
    m = minors(q)
    table = {
        "-M_A": -m.M_A,
        "-M_D": -m.M_D,
        "-M_F": -m.M_F,
        "A": q.A,
        "D": q.D,
        "F": q.F,
    }
    return tuple(
        QuaternionRep(tag=f"({l},{r})", left=table[l], right=table[r])
        for l, r in REPRESENTATIVE_TAGS
    )


@dataclass(frozen=True)
class SurfacePoint:
    x: tuple[int, int, int]
    place: Place
    value: int  # f(x), certified nonzero square in the completion


@functools.lru_cache(maxsize=4096)
def form_value(form: TernaryForm, x: tuple[int, int, int]) -> int:
    """form(x), once per (form, triple): sampling visits the same triples at
    every place, for the branch sextic and for the representatives' entries."""
    return form.evaluate(x)


def certify_point(X: K3Surface, x: tuple[int, int, int], place: Place) -> SurfacePoint | None:
    """Certify the integer triple at the place: positive f-value at R, nonzero
    p-adic square at a finite place."""
    value = form_value(X.branch_sextic, x)
    if value == 0:
        return None
    ok = value > 0 if place.is_real else padic_square(value, place.p)
    if not ok:
        return None
    return SurfacePoint(x=x, place=place, value=value)


def evaluate_invariant(q: QuadricSextet, P: SurfacePoint, place: Place) -> Invariant:
    """Local invariant of the class at a certified point: the Hilbert symbol of
    the first representative whose entries are both nonzero there."""
    for rep in representatives(q):
        lv = form_value(rep.left, P.x)
        rv = form_value(rep.right, P.x)
        if lv != 0 and rv != 0:
            return hilbert_symbol(lv, rv, place)
    raise IndeterminateAtPoint(
        f"all six representatives degenerate at {P.x}; the class needs another chart there"
    )


def _box_triples(box: int):
    """Integer triples in the box, lexicographic, zero excluded, one triple
    per antipodal pair (f has even degree, so values agree)."""
    rng = range(-box, box + 1)
    for x in itertools.product(rng, rng, rng):
        if x == (0, 0, 0):
            continue
        if tuple(-c for c in x) < x:
            continue
        yield x


@functools.lru_cache(maxsize=64, typed=True)
def find_local_point(X: K3Surface, place: Place, box: int = 1) -> SurfacePoint | None:
    """First integer triple in the box (lexicographic scan) whose f-value is a
    nonzero square in the completion; not-found is not a proof of insolubility.
    Memoised, so the local-point stage of the search and the everywhere-local
    attestation scan each (surface, place, box) once; typed, so that a bool
    box misses the entry of its int and is refused."""
    if not isinstance(box, int) or isinstance(box, bool):
        raise TypeError(f"box must be an int, got {box!r}")
    if box < 1:
        raise ValueError("box must be >= 1")
    for x in _box_triples(box):
        pt = certify_point(X, x, place)
        if pt is not None:
            return pt
    return None


#: the largest box the invariant sampling grows to, and the points it wants
#: at the real place, at 2 and, to corroborate a witness, at a bad prime
SAMPLE_MAX_BOX = 6
REAL_SAMPLES = PADIC_SAMPLES = 25
CORROBORATING_SAMPLES = 20


def sample_local_points(X: K3Surface, place: Place, count: int) -> list[SurfacePoint]:
    """Up to ``count`` certified points from boxes growing to SAMPLE_MAX_BOX."""
    out = []
    seen = set()
    for box in range(1, SAMPLE_MAX_BOX + 1):
        for x in _box_triples(box):
            if x in seen:
                continue
            seen.add(x)
            pt = certify_point(X, x, place)
            if pt is not None:
                out.append(pt)
                if len(out) >= count:
                    return out
    return out


SMALL_PLACE_BOUND = 19  # check R and p <= 19 directly; Weil covers p >= 23
#: R and the primes up to SMALL_PLACE_BOUND, in order: the places that the
#: search's stage 4 and the everywhere-local leg check directly
SMALL_PLACES = (Place.real(),) + tuple(
    Place.finite(p) for p in range(2, SMALL_PLACE_BOUND + 1) if probable_prime(p)
)


@dataclass
class LocalPointsAttestation:
    witnesses: dict
    checked_places: list[Place]
    weil_rule: str
    notes: list[str] = dataclass_field(default_factory=list)


def certify_everywhere_local(X: K3Surface, bad_primes, box: int = 1) -> LocalPointsAttestation:
    """Witness local points at R, every prime up to 19 and every listed bad
    prime; all remaining places are attested by smooth reduction plus the Weil
    bound (a smooth F_p-point exists for p > 22 and lifts by Hensel)."""
    listed = sorted({int(p) for p in bad_primes})
    places = list(SMALL_PLACES) + [Place.finite(p) for p in listed if p > SMALL_PLACE_BOUND]
    witnesses = {}
    for place in places:
        pt = find_local_point(X, place, box=box)
        if pt is None:
            raise LocalSolubilityUndecided(place)
        witnesses[place] = pt
    notes = []
    if not listed:
        notes.append("empty bad-prime list supplied; attestation covers fewer places")
    return LocalPointsAttestation(
        witnesses=witnesses,
        checked_places=places,
        weil_rule=(
            "places not checked directly: odd p > 19 of good reduction, where the "
            "smooth reduction has an F_p-point by the Weil bound (p > 22 suffices; "
            "there is no prime in (19, 23)) and Hensel lifts it"
        ),
        notes=notes,
    )


# ---------------------------------------------------------------------------
# Invariant profiles and the verdict
# ---------------------------------------------------------------------------

@dataclass
class PlaceInvariant:
    place: Place
    value: Invariant | None  # None when samples disagree
    basis: str  # "theorem:..." or "empirical"
    witness: SurfacePoint | None
    samples: int
    constant: bool


@dataclass
class InvariantProfile:
    entries: dict  # Place -> PlaceInvariant
    eliminations: list[str]  # rules justifying the absent places

    def total(self) -> Invariant:
        return invariant_sum(e.value for e in self.entries.values())


class ProfileInconclusive(RuntimeError):
    pass


def bm_verdict(profile: InvariantProfile) -> str:
    """"obstruction" iff every recorded place has a constant invariant and the
    sum over all places is nonzero in (1/2)Z/Z."""
    for place, entry in profile.entries.items():
        if not entry.constant or entry.value is None:
            raise ProfileInconclusive(f"inconclusive: invariant not constant at {place}")
    return "obstruction" if profile.total() != 0 else "no-obstruction-from-class"


def _sampled_entry(q, X, place, basis_theorem, expected, samples_wanted, witness=None):
    """The invariant at a place from its witness, when one is given, and
    sampled local points.  Under a theorem every point must take the
    expected value, the witness's when ``expected`` is None; otherwise the
    value is empirical, None when the points disagree."""
    pts = ([witness] if witness is not None else []) + sample_local_points(X, place, samples_wanted)
    values = [evaluate_invariant(q, P, place) for P in pts]
    if basis_theorem is None:
        expected = values[0] if len(set(values)) == 1 else None
    else:
        expected = values[0] if expected is None else expected
        if set(values) - {expected}:
            raise AssertionError(f"sampled invariant at {place} contradicts {basis_theorem}")
    return PlaceInvariant(
        place=place,
        value=expected,
        basis=basis_theorem or "empirical",
        witness=pts[0] if pts else None,
        samples=len(pts),
        constant=basis_theorem is not None or expected is not None,
    )


def build_invariant_profile(
    X: K3Surface,
    bad_primes,
    witness_box: int = 2,
    singular_reports: dict | None = None,
) -> InvariantProfile:
    """Per-place invariants of the class with their justification.

    The real place and p = 2 are theorem-backed when the definiteness and
    congruence conditions on the sextet hold; an odd bad prime is
    theorem-backed when its singular locus consists of fewer than eight
    ordinary double points (constancy), with the value read off a witness
    point.  Places absent from the profile carry invariant 0 by the
    good-reduction elimination rule.
    """
    from .badred import singular_points

    q = X.sextet
    entries = {}

    real = Place.real()
    entries[real] = _sampled_entry(
        q, X, real,
        "theorem:negative-definite-ADF-positive-definite-BCE" if check_real_conditions(q) else None,
        INV_HALF, REAL_SAMPLES,
    )

    two = Place.finite(2)
    entries[two] = _sampled_entry(
        q, X, two,
        "theorem:2-adic-coefficient-congruences" if check_2adic_conditions(q) else None,
        INV_ZERO, PADIC_SAMPLES,
    )

    reports = dict(singular_reports or {})
    for p in sorted(int(x) for x in bad_primes):
        if p == 2:
            continue
        place = Place.finite(p)
        if p not in reports:
            reports[p] = singular_points(X.branch_sextic, p)
        report = reports[p]
        witness = find_local_point(X, place, box=witness_box)
        if witness is None:
            entries[place] = PlaceInvariant(
                place=place, value=None, basis="no witness found",
                witness=None, samples=0, constant=False,
            )
            continue
        entries[place] = _sampled_entry(
            q, X, place,
            "theorem:constancy-at-nodal-bad-place (r < 8 ordinary double points)"
            if report.all_nodes_and_r_lt8 else None,
            None, CORROBORATING_SAMPLES, witness,
        )

    eliminations = [
        "odd finite places of good reduction: the class extends over the local "
        "ring, so the invariant vanishes at every local point",
        "completeness of the bad-prime list is fixture-backed, not recomputed",
    ]
    return InvariantProfile(entries=entries, eliminations=eliminations)
