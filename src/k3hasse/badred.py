"""Bad-reduction analysis of the branch sextic.

Whether a form over a finite field is singular is decided purely by
resultant chains: after a linear change of coordinates making every form in
the Jacobian system regular in x2, the pairwise x2-resultants are binary forms
whose gcd G carries every candidate image of a singular point.  Whether a
candidate actually supports a common zero of the whole system is decided by
gcds of the specialised univariate polynomials computed simultaneously over
K[u]/(G) with dynamic-evaluation (D5) splitting at zero divisors, so the
decision needs no factorization.  Every elimination runs over a finite field;
smoothness over Q follows from smoothness mod a prime (see
``pipeline.certify``).
A point of P^2(F_p) where the whole system vanishes answers "singular"
first, scanned on ints mod p when p^2 + p + 1 <= D + 1 (mod 3 only for a
sextic, D = 30); "smooth" is answered by the elimination alone.

The whole chain runs on one representation, int codes in the arithmetic of
``finitefield.evaluation_arith`` for the Bezout bound D = deg g_i * deg g_j
of the chart resultants: ints mod p when p > D, else discrete logs in
fq(p, k) with p^k > D (F_3 and its lift F_9, F_5 .. F_23 for the sextic's
D = 25 or 30).  The frame search, the substitution, the charts, the
resultants (``resultant``), the gcds and D5 all work on code lists; a gcd,
and a common root over the closure, do not change under field extension.

The elimination is memoised per (system, field) in ``_eliminate``, its
chart part computed on first use, and the decision and the node locator
read the same result: ``singular_points`` decodes the gcd on y0 = 0, G and
the charts to ``UniPoly``s over F_p once, factors them to locate the
singular points without a second chain, and classifies them as nodes
through the 2x2 Hessian of a local dehomogenization.  It needs a frame over
F_p (RegularizationError) and finitely many candidates
(PositiveDimensionalLocus).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from functools import cached_property, lru_cache
from itertools import combinations
from math import comb, lcm
from typing import Any

from .poly import (
    TernaryForm,
    UniPoly,
    bivariate_gcd,
    code_divmod,
    code_gcd,
    code_gcdex,
    code_mul,
    code_rem,
    code_sub,
    poly_gcd,
    ternary_to_t_over_u,
)
from .finitefield import (
    ExtensionField,
    code_chart_resultant,
    evaluation_arith,
    fq,
    irreducible_factors,
    prime_field,
)


class DegenerateReduction(ValueError):
    """The whole form vanishes modulo p."""


class NotBadPrime(ValueError):
    """singular_points called at a prime of good reduction."""


class PositiveDimensionalLocus(ValueError):
    """The singular locus mod p is, or may be, a curve rather than finitely
    many points."""


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
# Regularization: move the system away from [0:0:1], on codes
# ---------------------------------------------------------------------------

class RegularizationError(RuntimeError):
    """No admissible coordinate frame was found."""


def _frame_candidates(fld):
    """Candidate (a, b), as int encodings: the full plane for small fields, a
    small integer grid (guaranteed by Schwartz-Zippel: 4 curves of degree <= 6
    cannot cover a 512x512 grid of distinct residues) for big prime fields."""
    if fld.order <= 1 << 14:
        side = range(fld.order)
    elif fld.characteristic > 512:
        side = range(512)
    else:
        raise NotImplementedError("regularization over a large extension field")
    return ((a, b) for a in side for b in side)


def _code_value(A, terms, pa, pb):
    """The coded form sum c x0^e0 x1^e1 x2^e2 at (a, b, 1), from the powers
    of a and b."""
    add, mul = A.add, A.mul
    acc = A.zero
    for (e0, e1, _), c in terms:
        acc = add(acc, mul(c, mul(pa[e0], pb[e1])))
    return acc


def _transform(A, terms, d, pa, pb):
    """The coded form g(y0 + a y2, y1 + b y2, y2) as the dense array h with
    h[k][j] the coefficient of y0^(d-j-k) y1^j y2^k; row k is the t^k
    coefficient of the chart g(1, u, t) as a u-polynomial."""
    add, mul, zero = A.add, A.mul, A.zero
    # the nonzero (i, C(e, i) x^i) of (1 + x)^e, for x = a and x = b
    ta, tb = ([
        [(i, ci) for i in range(e + 1) if (ci := mul(A.from_int(comb(e, i)), px[i])) != zero]
        for e in range(d + 1)
    ] for px in (pa, pb))
    h = [[zero] * (d + 1 - k) for k in range(d + 1)]
    for (e0, e1, e2), c in terms:
        for i, ci in ta[e0]:
            ci = mul(c, ci)
            for l, cl in tb[e1]:
                row = h[e2 + i + l]
                row[e1 - l] = add(row[e1 - l], mul(ci, cl))
    return h


def regularize(system: list[TernaryForm], fld):
    """Find a coordinate change x0 -> x0 + a*x2, x1 -> x1 + b*x2 after which no
    form of the system vanishes at [0:0:1], and apply it on codes.

    The system is encoded once per candidate field in the arithmetic
    ``evaluation_arith`` picks for the Bezout bound D of its chart
    resultants.  Over a tiny F_p the frame may need a scalar extension
    (singularity over the closure is insensitive to it): the search moves to
    F_{p^2}, then F_{p^4}, and so on, until a frame exists.  Returns
    (field, a, b, A, decode, transformed) with a, b elements of the returned
    field and each transformed form the dense array of ``_transform``.
    """
    top = sorted(g.degree for g in system)[-2:]
    D = top[0] * top[-1]
    current = fld
    while True:
        A, code, decode = evaluation_arith(current, D)
        coded = [[(m, code(fld.encode(c))) for m, c in g.terms.items()] for g in system]
        powers = lambda x: [A.pow(code(x), e) for e in range(top[-1] + 1)]
        for a, b in _frame_candidates(current):
            pa, pb = powers(a), powers(b)
            if all(_code_value(A, t, pa, pb) != A.zero for t in coded):
                h = [_transform(A, t, g.degree, pa, pb) for t, g in zip(coded, system)]
                return current, current.decode(a), current.decode(b), A, decode, h
        if fld.degree != 1:
            raise RegularizationError("no regularizing frame over the base field")
        current = fq(fld.characteristic, 2 * current.degree)


# ---------------------------------------------------------------------------
# The shared elimination and the decision chain
# ---------------------------------------------------------------------------

#: Res_t(f, g) in K[u] of two coded chart polynomials, the binding the chart calls
resultant = code_chart_resultant


@dataclass(frozen=True)
class _Elimination:
    """One Jacobian system after regularisation, on codes of the arithmetic
    A: the field of the frame (a, b), ``decode`` from codes to its elements,
    the charts g(1, u, t) of the transformed forms (t-coefficient lists of
    coded u-polynomials) and the coded gcd ``ginf`` of the specialisations
    g(0, 1, t), which carries the points on the line y0 = 0."""

    fld: Any
    a: Any
    b: Any
    A: Any
    decode: Any
    charts: tuple
    ginf: list

    @cached_property
    def chart(self) -> tuple[list | None, tuple | None]:
        """(G, zero_pair) for the chart y0 = 1: the coded gcd G over K[u] of
        the charts' pairwise t-resultants, and the first pair whose resultant
        vanishes identically, in which case G is None."""
        G: list = []
        for i, j in combinations(range(len(self.charts)), 2):
            res = resultant(self.A, self.charts[i], self.charts[j])
            if not res:
                return None, (i, j)
            G = code_gcd(self.A, G, res)
            if len(G) == 1:
                break
        return G, None

    def uni(self, cs: list) -> UniPoly:
        return UniPoly([self.decode(c) for c in cs])

    def forms(self) -> list[TernaryForm]:
        """The transformed forms, decoded."""
        return [
            TernaryForm(len(P) - 1, {
                (len(P) - 1 - j - k, j, k): self.decode(c)
                for k, row in enumerate(P) for j, c in enumerate(row)
            })
            for P in self.charts
        ]


@lru_cache(maxsize=64)
def _eliminate(system: tuple, fld) -> _Elimination:
    """The elimination of a system over F_p, once per (system, field):
    the bad-prime decision and the node locator both read it.  The chart part
    is computed on first use, so a decision that stops on the line y0 = 0
    never runs the resultant chain."""
    reg_fld, a, b, A, decode, transformed = regularize(list(system), fld)
    # the frame makes every y2^d coefficient h[d][0] nonzero
    ginf: list = []
    for h in transformed:
        ginf = code_gcd(A, ginf, [row[-1] for row in h])
        if len(ginf) == 1:
            break
    for row in (row for h in transformed for row in h):
        while row and row[-1] == A.zero:
            row.pop()
    return _Elimination(reg_fld, a, b, A, decode, tuple(transformed), ginf)


@lru_cache(maxsize=64)
def singular_locus_nonempty(f: TernaryForm) -> bool:
    """Does f = 0 have a singular point over the algebraic closure of its
    coefficient field, a finite field?  The zero form raises ValueError, a
    form over Z or Q TypeError."""
    fld = _coefficient_field(f)
    system = jacobian_system(f)
    if system and _rational_witness(system, fld):
        return True
    return _system_has_common_zero(system, fld)


def _rational_witness(system: list[TernaryForm], fld) -> bool:
    """Does every form of the system vanish at a point of P^2(F_p), fld = F_p,
    scanned on ints mod p while those points are no more than the D + 1
    evaluation points of one chart resultant (D as in ``regularize``)?"""
    p, top = fld.characteristic, sorted(g.degree for g in system)[-2:]
    if fld.degree != 1 or p * p + p + 1 > top[0] * top[-1] + 1:
        return False
    coded = [[(m, fld.encode(c)) for m, c in g.terms.items()] for g in system]
    points = [(1, y, z) for y in range(p) for z in range(p)]
    points += [(0, 1, z) for z in range(p)] + [(0, 0, 1)]
    return any(
        all(sum(c * x0**e0 * x1**e1 * x2**e2 for (e0, e1, e2), c in t) % p == 0 for t in coded)
        for x0, x1, x2 in points
    )


def _system_has_common_zero(system: list[TernaryForm], fld) -> bool:
    system = [g for g in system if not g.is_zero()]
    if not system:
        raise ValueError("empty system")
    if any(g.degree == 0 for g in system):
        return False
    if len(system) == 1:
        return True
    elim = _eliminate(tuple(system), fld)
    if len(elim.ginf) > 1:
        return True
    G, zero_pair = elim.chart
    if zero_pair is not None:
        return _split_common_factor(elim.forms(), elim.fld, zero_pair)
    return len(G) > 1 and _d5_any_common_root(elim.A, elim.charts, G)


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
# Dynamic evaluation (D5) over K[u]/(B)
# ---------------------------------------------------------------------------

class _Split(Exception):
    def __init__(self, divisor: list):
        self.divisor = divisor


class _Residues:
    """K[u]/(B) on coded u-polynomials of degree < deg B, in the part of the
    interface of ``poly.ModP`` that ``code_gcd`` uses, treated as a field:
    ``inv`` raises _Split with the proper factor gcd(c, B) of B at a zero
    divisor c."""

    def __init__(self, A, B: list):
        self.A, self.B, self.zero = A, B, []

    def sub(self, x, y):
        return code_sub(self.A, x, y)

    def mul(self, x, y):
        return code_rem(self.A, code_mul(self.A, x, y), self.B)

    def inv(self, x):
        d, s = code_gcdex(self.A, x, self.B)
        if len(d) > 1:
            raise _Split(d)
        return s


def _d5_any_common_root(A, charts, B: list) -> bool:
    """True iff for some root u0 of B the specialisations t -> P(u0, t) of
    all the charts share a root: their gcd over K[u]/(B) by Euclid, as if
    that ring were a field, splitting B at a zero divisor.  B need not be
    squarefree: every step divides by units mod B only, which stay units at
    each root of B, and a split strictly lowers deg B."""
    stack = [B]
    while stack:
        B = stack.pop()
        R = _Residues(A, B)
        try:
            g: list = []
            for P in charts:
                g = code_gcd(R, g, [code_rem(A, c, B) for c in P])
                if len(g) == 1:
                    break
            if len(g) > 1:
                return True
        except _Split as split:
            stack += [split.divisor, code_divmod(A, B, split.divisor)[0]]
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
    system = jacobian_system(fp)
    if len(system) == 1:
        raise PositiveDimensionalLocus(f"mod {p} the Jacobian system is one form, whose zeros are a curve")
    elim = _eliminate(tuple(system), fld)
    if elim.fld is not fld:
        raise RegularizationError(f"the singular points mod {p} need a frame over an extension")
    G, zero_pair = elim.chart
    if zero_pair is not None:
        raise PositiveDimensionalLocus(f"mod {p} two forms of the Jacobian system share a factor")
    ginf, G = elim.uni(elim.ginf), elim.uni(G)
    polys = [UniPoly([elim.uni(c) for c in P]) for P in elim.charts]
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
    if ginf.degree > 0:
        for irr, _mult in irreducible_factors(ginf, fld):
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
