"""Bad-reduction analysis of the branch sextic.

Whether a form over a finite field is singular is decided purely by
resultant chains: after a linear change of coordinates making every form in
the Jacobian system regular in x2, the pairwise x2-resultants are binary forms
whose gcd G carries every candidate image of a singular point.  Whether a
candidate actually supports a common zero of the whole system is decided by
gcds of the specialised univariate polynomials computed simultaneously over
K[u]/(G) with dynamic-evaluation splitting at zero divisors, so the decision
needs no factorization.  Every elimination runs over a finite field;
smoothness over Q follows from smoothness mod a prime (see
``pipeline.certify``).

The chart resultants go through ``resultant``, computed by evaluation and
interpolation on int codes (``finitefield.resultant_by_evaluation``):
regularisation makes every t-leading coefficient a nonzero constant, so
deg_u Res_t(g_i, g_j) <= deg g_i * deg g_j = D by Bezout, and D + 1 values of
u determine it.  F_p with p > D evaluates on ints mod p; a smaller field (F_3
and its lift F_9, F_5, F_7 .. F_23 for the sextic's D = 25 or 30) evaluates in
fq(p, k) with p^k > D, on discrete logs.

The elimination (frame, transformed system, the gcd on the line y0 = 0, and
lazily the chart polynomials and G) is memoised per (system, field) in
``_eliminate``.  The decision and the node locator read the same result: over
a finite field, factoring the gcd on y0 = 0 and G locates the singular points
without a second chain, and they are classified as nodes through the 2x2
Hessian of a local dehomogenization.  The locator needs a frame over F_p
itself and raises RegularizationError when only an extension has one.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from functools import cached_property, lru_cache
from itertools import combinations
from math import lcm
from typing import Any

from .poly import (
    TernaryForm,
    UniPoly,
    bivariate_gcd,
    poly_gcd,
    poly_gcdex,
    squarefree_part,
    ternary_to_t_over_u,
)
from .finitefield import (
    ExtensionField,
    fq,
    irreducible_factors,
    prime_field,
    resultant_by_evaluation,
)


class DegenerateReduction(ValueError):
    """The whole form vanishes modulo p."""


class NotBadPrime(ValueError):
    """singular_points called at a prime of good reduction."""


def _coefficient_field(form: TernaryForm):
    """The finite field of a nonzero form's coefficients."""
    if form.is_zero():
        raise ValueError("zero form")
    fld = getattr(next(iter(form.terms.values())), "field", None)
    if fld is None:
        raise TypeError(
            "the elimination runs over finite fields only: reduce the form mod a prime"
        )
    return fld


def jacobian_system(f: TernaryForm) -> list[TernaryForm]:
    """f's partials, plus f itself when the characteristic divides deg f
    (Euler's relation makes f redundant otherwise)."""
    system = [f.partial(i) for i in range(3)]
    if f.degree % _coefficient_field(f).characteristic == 0:
        system.append(f)
    return [g for g in system if not g.is_zero()]


# ---------------------------------------------------------------------------
# Regularization: move the system away from [0:0:1]
# ---------------------------------------------------------------------------

class RegularizationError(RuntimeError):
    """No admissible coordinate frame was found."""


def _finite_pairs(fld):
    """Candidate (a, b) elements: the full plane for small fields, a small
    integer grid (guaranteed by Schwartz-Zippel: 4 curves of degree <= 6
    cannot cover a 512x512 grid of distinct residues) for big prime fields."""
    if fld.order <= 1 << 14:
        for a in range(fld.order):
            for b in range(fld.order):
                yield fld.decode(a), fld.decode(b)
    elif fld.characteristic > 512:
        for a in range(512):
            for b in range(512):
                yield fld.from_int(a), fld.from_int(b)
    else:
        raise NotImplementedError("regularization over a large extension field")


def regularize(system: list[TernaryForm], fld):
    """Find a coordinate change x0 -> x0 + a*x2, x1 -> x1 + b*x2 after which no
    form of the system vanishes at [0:0:1].

    The field is a prime field F_p.  Over a tiny F_p the frame may need
    a scalar extension (singularity over the closure is insensitive to it):
    the system is lifted into F_{p^2}, then F_{p^4}, and so on, until a frame
    exists.  Returns (field, a, b, transformed_system) with a, b elements of
    the returned field.
    """
    current, cur_system = fld, system
    while True:
        for ea, eb in _finite_pairs(current):
            if all(g.evaluate((ea, eb, current.one)) for g in cur_system):
                return current, ea, eb, _transform_system(cur_system, current, ea, eb)
        if fld.degree != 1:
            raise RegularizationError("no regularizing frame over the base field")
        current = fq(fld.characteristic, 2 * current.degree)
        cur_system = [g.map_coefficients(current.from_base) for g in system]


def _transform_system(system, fld, ea, eb):
    one, zero = fld.one, fld.zero
    matrix = [[one, zero, ea], [zero, one, eb], [zero, zero, one]]
    return [g.compose_linear(matrix) for g in system]


# ---------------------------------------------------------------------------
# The shared elimination and the decision chain
# ---------------------------------------------------------------------------

#: Res_t(f, g) in K[u] of two chart polynomials, the binding the chart calls
resultant = resultant_by_evaluation


@dataclass(frozen=True)
class _Elimination:
    """One Jacobian system after regularisation: the field it lives over, the
    frame (a, b), the transformed system and the gcd ``ginf`` of the
    specialisations g(0, 1, t), which carries the points on the line y0 = 0."""

    fld: Any
    a: Any
    b: Any
    system: tuple
    ginf: UniPoly

    @cached_property
    def chart(self) -> tuple[list[UniPoly], UniPoly | None, tuple | None]:
        """(polys, G, zero_pair) for the chart y0 = 1: the t-polynomials
        g(1, u, t) over K[u] (regularisation makes their t-leading coefficients
        nonzero constants), the gcd G over K[u] of their pairwise t-resultants,
        and the first pair whose resultant vanishes identically, in which case
        G is None."""
        polys = [ternary_to_t_over_u(g, self.fld.one) for g in self.system]
        G = UniPoly()
        for i, j in combinations(range(len(polys)), 2):
            res = resultant(polys[i], polys[j])  # element of K[u]
            if res.is_zero():
                return polys, None, (i, j)
            G = poly_gcd(G, res)
            if G.degree == 0:
                break
        return polys, G, None


@lru_cache(maxsize=64)
def _eliminate(system: tuple, fld) -> _Elimination:
    """The elimination of a system over F_p, once per (system, field):
    the bad-prime decision and the node locator both read it.  The chart part
    is computed on first use, so a decision that stops on the line y0 = 0
    never runs the resultant chain."""
    reg_fld, a, b, tsystem = regularize(list(system), fld)
    ginf = UniPoly()
    for form in tsystem:
        ginf = poly_gcd(ginf, form.to_uni_in(2, {0: reg_fld.zero, 1: reg_fld.one}))
        if ginf.degree == 0:
            break
    return _Elimination(reg_fld, a, b, tuple(tsystem), ginf)


@lru_cache(maxsize=64)
def singular_locus_nonempty(f: TernaryForm) -> bool:
    """Does f = 0 have a singular point over the algebraic closure of its
    coefficient field, a finite field?  The zero form raises ValueError, a
    form over Z or Q TypeError."""
    fld = _coefficient_field(f)
    return _system_has_common_zero(jacobian_system(f), fld)


def _system_has_common_zero(system: list[TernaryForm], fld) -> bool:
    system = [g for g in system if not g.is_zero()]
    if not system:
        raise ValueError("empty system")
    if any(g.degree == 0 for g in system):
        return False
    if len(system) == 1:
        return True
    elim = _eliminate(tuple(system), fld)
    if elim.ginf.degree > 0:
        return True
    polys, G, zero_pair = elim.chart
    if zero_pair is not None:
        return _split_common_factor(elim.system, elim.fld, zero_pair)
    if G.degree == 0:
        return False
    ghat = squarefree_part(G.monic())
    return _d5_any_common_root(polys, ghat)


def _homogenize_bivariate(P: UniPoly, fld) -> TernaryForm:
    """Homogenise an affine P(u, t) (t-poly over K[u]) back to a ternary form."""
    total = 0
    for k, cu in enumerate(P.coeffs):
        if not cu.is_zero():
            total = max(total, k + cu.degree)
    terms = {}
    for k, cu in enumerate(P.coeffs):
        for j, c in enumerate(cu.coeffs):
            if c:
                terms[(total - j - k, j, k)] = c
    return TernaryForm(total, terms)


def _ternary_exact_div(f: TernaryForm, g: TernaryForm) -> TernaryForm:
    """Exact division of homogeneous forms by leading-term elimination."""
    out = {}
    rem = f
    glead = max(g.terms)
    gc = g.terms[glead]
    while rem.terms:
        flead = max(rem.terms)
        mono = tuple(a - b for a, b in zip(flead, glead))
        if any(e < 0 for e in mono):
            raise ValueError("inexact ternary division")
        coeff = rem.terms[flead] / gc
        out[mono] = coeff
        rem = rem - TernaryForm(f.degree - g.degree, {mono: coeff}) * g
    return TernaryForm(f.degree - g.degree, out)


def _split_common_factor(system, fld, pair) -> bool:
    """Handle Res = 0: the two forms share a factor H; split the variety as
    V(H) union V(g_i/H, g_j/H) and recurse on both branches."""
    i, j = pair
    gi, gj = system[i], system[j]
    Pi = ternary_to_t_over_u(gi, fld.one)
    Pj = ternary_to_t_over_u(gj, fld.one)
    Hb = bivariate_gcd(Pi, Pj)
    H = _homogenize_bivariate(Hb, fld)
    rest = [g for k, g in enumerate(system) if k not in (i, j)]
    if _system_has_common_zero(rest + [H], fld):
        return True
    qi = _ternary_exact_div(gi, H)
    qj = _ternary_exact_div(gj, H)
    if qi.degree == 0 or qj.degree == 0:
        # a cofactor is a nonzero constant, so the second branch is empty
        return False
    return _system_has_common_zero(rest + [qi, qj], fld)


# ---------------------------------------------------------------------------
# Dynamic evaluation (D5) over K[u]/(modulus)
# ---------------------------------------------------------------------------

class _Split(Exception):
    def __init__(self, divisor: UniPoly):
        self.divisor = divisor


def _d5_inv(c: UniPoly, B: UniPoly) -> UniPoly:
    """Inverse of c modulo B, or raise _Split on a proper zero divisor;
    returns None when c = 0 mod B."""
    c = c % B
    if c.is_zero():
        return None
    g, inv = poly_gcdex(c, B)
    if g.degree == 0:
        return inv
    raise _Split(g)


def _d5_strip(poly: UniPoly, B: UniPoly) -> UniPoly:
    """Reduce coefficients mod B and strip leading coefficients that vanish,
    splitting if a leading coefficient is a proper zero divisor."""
    coeffs = [c % B for c in poly.coeffs]
    while coeffs:
        lc = coeffs[-1]
        if lc.is_zero():
            coeffs.pop()
            continue
        g = poly_gcd(lc, B)
        if g.degree == 0:
            break
        if g.degree == B.degree:
            coeffs.pop()
            continue
        raise _Split(g)
    return UniPoly(coeffs)


def _d5_mod(f: UniPoly, g: UniPoly, B: UniPoly) -> UniPoly:
    """Remainder of f by g where the leading coefficient of g is invertible
    mod B (callers guarantee this via _d5_strip)."""
    inv = _d5_inv(g.lc, B)
    rem = list(f.coeffs)
    dg = g.degree
    while len(rem) - 1 >= dg:
        lc = rem[-1] % B
        if lc.is_zero():
            rem.pop()
            continue
        t = (lc * inv) % B
        k = len(rem) - 1 - dg
        for idx, c in enumerate(g.coeffs):
            rem[k + idx] = (rem[k + idx] - t * c) % B
        rem.pop()
    return UniPoly([c % B for c in rem])


def _d5_any_common_root(polys: list[UniPoly], modulus: UniPoly) -> bool:
    """True iff for some root u0 of the (squarefree) modulus the univariate
    specialisations of all the t-polynomials share a common root."""
    stack = [(modulus, polys)]
    while stack:
        B, ps = stack.pop()
        if B.degree == 0:
            continue
        try:
            g = _d5_strip(ps[0], B)
            for h in ps[1:]:
                h = _d5_strip(h, B)
                # Euclidean gcd of g and h mod B
                while True:
                    if h.is_zero():
                        break
                    if h.degree == 0:
                        g = h
                        break
                    g, h = h, _d5_strip(_d5_mod(g, h, B), B)
                if g.degree == 0 and not g.is_zero():
                    break
            if g.degree >= 1:
                return True
        except _Split as s:
            w = s.divisor
            stack.append((w, ps))
            stack.append((B.exact_div(w), ps))
    return False


# ---------------------------------------------------------------------------
# Per-prime analysis
# ---------------------------------------------------------------------------

def is_bad_prime(f: TernaryForm, p: int) -> bool:
    """Does the branch sextic acquire a singular point modulo p (p odd)?"""
    if p == 2 or p < 3:
        raise ValueError("is_bad_prime expects an odd prime")
    fld = prime_field(p)
    fp = f.map_coefficients(lambda c: fld.from_int(c))
    if fp.is_zero():
        raise DegenerateReduction(f"the form vanishes identically mod {p}")
    return singular_locus_nonempty(fp)


@dataclass
class SingularPoint:
    coords: tuple  # projective coordinates in a finite field, first nonzero = 1
    residue_degree: int
    kind: str  # node | non-node | unresolved

    def coords_json(self):
        return [_elem_json(c) for c in self.coords]


def _elem_json(elem):
    val = elem.val
    if isinstance(val, int):
        return val
    return [_elem_json(c) for c in val]


@dataclass
class SingularReport:
    prime: int
    points: list[SingularPoint]
    r: int
    all_nodes_and_r_lt8: bool
    unresolved: int
    notes: list[str] = dataclass_field(default_factory=list)

    def to_json_dict(self):
        return {
            "prime": str(self.prime),
            "r": self.r,
            "all_nodes_and_r_lt8": self.all_nodes_and_r_lt8,
            "unresolved": self.unresolved,
            "points": [
                {
                    "residue_degree": pt.residue_degree,
                    "kind": pt.kind,
                    "coords": pt.coords_json(),
                }
                for pt in self.points
            ],
            "notes": self.notes,
        }


def _lift_to(dst, src, elem):
    """Embed elem of src into dst, where dst is src or a tower over src."""
    if dst is src:
        return elem
    chain = []
    cur = dst
    while cur is not src:
        chain.append(cur)
        cur = cur.base
    for fld in reversed(chain):
        elem = fld.from_base(elem)
    return elem


def _root_field(irr: UniPoly, fld):
    """A field holding a root of the monic irreducible irr over fld, and the root."""
    if irr.degree == 1:
        return fld, -irr.coeffs[0]
    host = ExtensionField(fld, irr)
    return host, host.gen


def _classify_point(f_mod: TernaryForm, coords, fld) -> str:
    """node iff the gradient vanishes and the 2x2 Hessian of the local
    dehomogenization is nonsingular at the point."""
    pivot = next(i for i, c in enumerate(coords) if c)
    others = [i for i in range(3) if i != pivot]
    lift = lambda form: form.map_coefficients(lambda c: _lift_to(fld, c.field, c))
    fl = lift(f_mod)
    if fl.evaluate(coords):
        return "non-node"
    for i in range(3):
        if lift(f_mod.partial(i)).evaluate(coords):
            return "non-node"
    i, j = others
    hii = lift(f_mod.partial(i).partial(i)).evaluate(coords)
    hij = lift(f_mod.partial(i).partial(j)).evaluate(coords)
    hjj = lift(f_mod.partial(j).partial(j)).evaluate(coords)
    det = hii * hjj - hij * hij
    return "node" if det else "non-node"


def singular_points(f: TernaryForm, p: int, degree_bound: int = 6) -> SingularReport:
    """Locate and classify the geometric singular points of f mod p up to the
    given residue degree.  One representative per Galois orbit is reported and
    r counts geometric points, so each orbit contributes its size."""
    fld = prime_field(p)
    fp = f.map_coefficients(lambda c: fld.from_int(c))
    if fp.is_zero():
        raise DegenerateReduction(f"the form vanishes identically mod {p}")
    if not singular_locus_nonempty(fp):
        raise NotBadPrime(f"{p} is a prime of good reduction")
    elim = _eliminate(tuple(jacobian_system(fp)), fld)
    if elim.fld is not fld:
        raise RegularizationError(f"the singular points mod {p} need a frame over an extension")
    polys, G, zero_pair = elim.chart
    if zero_pair is not None:
        raise NotImplementedError(
            "positive-dimensional singular locus; not a finite set of points"
        )
    notes: list[str] = []
    points: list[SingularPoint] = []
    unresolved = 0
    fully_accounted = True

    def record(y_coords, host_fld):
        """Transform back, normalise, classify and append."""
        y0, y1, y2 = y_coords
        a = _lift_to(host_fld, fld, elim.a)
        b = _lift_to(host_fld, fld, elim.b)
        x = (y0 + a * y2, y1 + b * y2, y2)
        pivot = next(c for c in x if c)
        inv = host_fld.one / pivot
        x = tuple(c * inv for c in x)
        rdeg = lcm(*(host_fld.element_degree(c) for c in x))
        kind = _classify_point(fp, x, host_fld)
        points.append(SingularPoint(coords=x, residue_degree=rdeg, kind=kind))

    # the line y0 = 0
    if elim.ginf.degree > 0:
        for irr, _mult in irreducible_factors(elim.ginf, fld):
            if irr.degree > degree_bound:
                unresolved += 1
                fully_accounted = False
                continue
            host, tau = _root_field(irr, fld)
            record((host.zero, host.one, tau), host)

    # the chart y0 = 1
    if G.degree > 0:
        for pi, _mult in irreducible_factors(G, fld):
            k = pi.degree
            if k > degree_bound:
                unresolved += 1
                fully_accounted = False
                continue
            L1, uroot = _root_field(pi, fld)
            # specialise each t-poly at u = uroot and take the gcd
            ghat = UniPoly()
            for P in polys:
                ghat = poly_gcd(ghat, UniPoly([
                    UniPoly([_lift_to(L1, fld, c) for c in cu.coeffs]).evaluate(uroot)
                    for cu in P.coeffs
                ]))
                if ghat.degree == 0:
                    break
            if ghat.degree == 0:
                continue  # spurious candidate
            for h2, _m2 in irreducible_factors(ghat, L1):
                if k * h2.degree > degree_bound:
                    unresolved += 1
                    fully_accounted = False
                    continue
                host, tau = _root_field(h2, L1)
                record((host.one, _lift_to(host, L1, uroot), tau), host)

    r = sum(pt.residue_degree for pt in points)
    all_nodes = (
        fully_accounted
        and r < 8
        and all(pt.kind == "node" for pt in points)
        and bool(points)
    )
    if not fully_accounted:
        notes.append(
            f"candidates beyond residue degree {degree_bound} left unresolved"
        )
    return SingularReport(
        prime=p,
        points=points,
        r=r,
        all_nodes_and_r_lt8=all_nodes,
        unresolved=unresolved,
        notes=notes,
    )


@dataclass
class BadPrimeAttestation:
    bad_confirmed: list[int]
    good_confirmed: list[int]
    notes: list[str]


def verify_bad_prime_list(f: TernaryForm, primes, good_spot_checks) -> BadPrimeAttestation:
    """Assert singularity for every listed odd bad prime and smoothness for
    every spot check.  Completeness of the list rests on the supplied
    discriminant fixture, which is recorded, not recomputed."""
    bad_confirmed = []
    notes = [
        "completeness of the bad-prime list rests on the supplied discriminant "
        "fixture; per-prime singularity is verified directly"
    ]
    for p in primes:
        if p == 2:
            notes.append("p = 2 is always treated as a checked place, never attested good")
            continue
        if not is_bad_prime(f, p):
            raise AssertionError(f"listed bad prime {p} has good reduction")
        bad_confirmed.append(p)
    good_confirmed = []
    for p in good_spot_checks:
        if is_bad_prime(f, p):
            raise AssertionError(f"good spot check {p} is actually a bad prime")
        good_confirmed.append(p)
    return BadPrimeAttestation(bad_confirmed, good_confirmed, notes)
