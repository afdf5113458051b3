"""Bad-reduction analysis of the branch sextic.

Whether a form over a finite field is singular is decided purely by
resultant chains: after a linear change of coordinates making every form in
the Jacobian system regular in x2, the pairwise x2-resultants are binary forms
whose gcd G carries every candidate image of a singular point.  Whether a
candidate actually supports a common zero of the whole system is decided by
gcds of the specialised univariate polynomials computed simultaneously over
K[u]/(G) with dynamic-evaluation (D5) splitting at zero divisors, so the
decision needs no factorization.  The decision is made over a finite
field; smoothness over Q follows from smoothness mod a prime (see
``pipeline.certify``).
A point of P^2(F_{p^2}) where the whole system vanishes answers "singular"
first, scanned on the log codes of F_{p^2}, the points of P^2(F_p) first,
when p^2 + p + 1 <= D + 1 (mod 3 only for a sextic, D = 30); "smooth" is
answered by the elimination alone.

The whole chain runs in one field, on int codes in the arithmetic of
``finitefield.evaluation_arith`` for max(D, S), D = deg g_i * deg g_j the
Bezout bound of the chart resultants and S the system's degree sum: ints
mod p when p > max(D, S), else discrete logs in E = fq(p, k) with
p^k > max(D, S) (F_81, F_125, F_49 .. F_529 mod 3, 5, 7 .. 23 for the
sextic).  The frame search (over F_p, then E), the substitution, the
charts, the resultants (``resultant``), the gcds, D5 and the split where
two charts share a factor (its branches stay in the frame) all work on
code lists; a gcd, and a common root over the closure, do not change under
field extension.

The elimination is memoised per (system, field) in ``_eliminate``.  A
reduction of an integer form f records f (``poly.FormModP.lift``): when the
system is f's three partials mod p and the frame (0, 0) over F_p
regularises it (for the shipped sextic, mod each prime the certificate
checks but 3 and 7), the chart resultants are the R_ij = Res_t(g_i, g_j)
of f's partials, computed once over Z and reduced mod p.  Its line and
chart parts are computed on first use, and the decision and the node
locator read the same result: ``singular_points`` reads the gcd on y0 = 0,
G and the charts as ints mod p, factors them over F_p and over residue
fields F_p[u]/(pi) (``poly.Residues``, the ring of D5 taken modulo an
irreducible) to locate the singular points without a second chain, and
classifies them as nodes through the 2x2 Hessian of a local
dehomogenization.  It needs an odd p, a frame over F_p
(RegularizationError) and finitely many candidates
(PositiveDimensionalLocus).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field as dataclass_field
from functools import cached_property, lru_cache
from itertools import combinations, product
from math import comb
from typing import Any

from .poly import (
    FormModP,
    ModP,
    Residues,
    TernaryForm,
    ZeroDivisorSplit,
    code_divmod,
    code_eval,
    code_gcd,
    code_interpolate,
    code_mul,
    code_rem,
    code_strip,
    code_sub,
    integer_chart_resultant,
)
from .finitefield import (
    code_chart_resultant,
    evaluation_arith,
    evaluation_points,
    fq,
    irreducible_factors,
    prime_field,
)


class DegenerateReduction(ValueError):
    """The whole form vanishes modulo p."""


class BadPrimeListMismatch(AssertionError):
    """A listed bad prime has good reduction, or a good spot check is bad."""

    def __init__(self, prime: int, detail: str):
        super().__init__(detail)
        self.prime = prime


class NotBadPrime(ValueError):
    """singular_points called at a prime of good reduction."""


class PositiveDimensionalLocus(ValueError):
    """The singular locus mod p is, or may be, a curve rather than finitely
    many points."""


def _coefficient_field(form: TernaryForm):
    """The finite field of a nonzero ``FormModP``."""
    if form.is_zero():
        raise ValueError("zero form")
    fld = getattr(form, "field", None)
    if fld is None:
        raise TypeError(
            "the elimination runs over finite fields only: reduce the form mod a prime"
        )
    return fld


def jacobian_system(f: TernaryForm) -> list[TernaryForm]:
    """f's partials, reduced mod p, plus f itself when the characteristic
    divides deg f (Euler's relation makes f redundant otherwise)."""
    fld = _coefficient_field(f)
    system = [f.partial(i) for i in range(3)]
    if f.degree % fld.characteristic == 0:
        system.append(f)
    return [g for g in system if not g.is_zero()]


# ---------------------------------------------------------------------------
# Regularization: move the system away from [0:0:1], on codes
# ---------------------------------------------------------------------------

class RegularizationError(RuntimeError):
    """No admissible coordinate frame was found."""


def _frame_candidates(p: int, S: int):
    """Candidate (a, b), as int codes of an evaluation field E with more
    than S elements: the pairs over F_p first, then those of E with a code
    >= p; codes 0 .. p - 1 are F_p inside every fq(p, k).  For nonzero forms
    whose degrees sum to S, the product at (a, b, 1) is a nonzero P(a, b) of
    degree at most S: P(a, .) is nonzero for some a among any S + 1 values,
    and then P(a, b) for some b among any S + 1 (Schwartz-Zippel).  So the
    first frame in this order has both codes at most S."""
    side = range(S + 1)
    base = side[:p]
    yield from product(base, base)
    yield from ((a, b) for a, b in product(side, side) if a >= p or b >= p)


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

    The system over F_p is encoded once, in ``evaluation_arith`` for
    max(D, S), D the Bezout bound of its chart resultants and S its degree
    sum.  That arithmetic's field E holds a frame (``_frame_candidates``),
    and singularity over the closure is insensitive to the extension.
    Returns (field, a, b, A, code, decode, transformed): F_p when the codes
    a, b of E are below p, else E; ``code`` and ``decode`` between E's
    codes and A's; each transformed form the dense array of ``_transform``.
    """
    top, S = sorted(g.degree for g in system)[-2:], sum(g.degree for g in system)
    A, code, decode = evaluation_arith(fld, max(top[0] * top[-1], S))
    coded = [[(m, code(c)) for m, c in g.terms.items()] for g in system]
    powers = lambda x: [A.pow(code(x), e) for e in range(top[-1] + 1)]
    p = fld.characteristic
    for a, b in _frame_candidates(p, S):
        pa, pb = powers(a), powers(b)
        if all(_code_value(A, t, pa, pb) != A.zero for t in coded):
            h = [_transform(A, t, g.degree, pa, pb) for t, g in zip(coded, system)]
            return (fld if max(a, b) < p else A.field), a, b, A, code, decode, h
    raise RegularizationError("no regularizing frame: a form of the system is zero")


# ---------------------------------------------------------------------------
# The shared elimination and the decision chain
# ---------------------------------------------------------------------------

#: Res_t(f, g) in K[u] of two coded chart polynomials, the binding the chart calls
resultant = code_chart_resultant


@dataclass(frozen=True)
class _Elimination:
    """One Jacobian system after regularisation, on codes of the arithmetic
    A: the field of the frame (a, b), ``decode`` from codes of A to the
    field's own codes and the charts g(1, u, t) of the transformed forms
    (t-coefficient lists of coded u-polynomials, the t^k row of u-degree at
    most deg g - k).  When the charts are those of an integer form's
    partials mod p in the frame (0, 0), it also holds that form, ``lift``,
    whose R_ij, reduced and coded by ``code``, are its chart resultants."""

    fld: Any
    a: Any
    b: Any
    A: Any
    decode: Any
    charts: tuple
    lift: Any = None
    code: Any = None

    @cached_property
    def ginf(self) -> list:
        """The coded gcd of the g(0, 1, t), which carries the points on the
        line y0 = 0: the u^(d-k) coefficients of the t^k rows of each chart."""
        g: list = []
        for P in self.charts:
            d = len(P) - 1
            at_infinity = [row[d - k] if d - k < len(row) else self.A.zero for k, row in enumerate(P)]
            g = code_gcd(self.A, g, at_infinity)
            if len(g) == 1:
                break
        return g

    @cached_property
    def chart(self) -> tuple[list | None, tuple | None]:
        """(G, zero_pair) for the chart y0 = 1: the coded gcd G over K[u] of
        the charts' pairwise t-resultants, and the first pair whose resultant
        vanishes identically, in which case G is None."""
        G: list = []
        for i, j in combinations(range(len(self.charts)), 2):
            if self.lift is None:
                res = resultant(self.A, self.charts[i], self.charts[j])
            else:
                p = self.fld.characteristic
                res = code_strip(self.A, [self.code(c % p) for c in _integer_resultant(self.lift, i, j)])
            if not res:
                return None, (i, j)
            G = code_gcd(self.A, G, res)
            if len(G) == 1:
                break
        return G, None


@lru_cache(maxsize=64)
def _eliminate(system: tuple, fld, lift: TernaryForm | None = None) -> _Elimination:
    """The elimination of a system over F_p, once per (system, field):
    the bad-prime decision and the node locator both read it.  The line
    y0 = 0 and the chart part are computed on first use, so a decision that
    stops on the line never runs the resultant chain.

    Its chart resultants are the R_ij of the integer form ``lift`` reduced
    mod p when the system is lift's three partials mod p and the frame is
    (0, 0) over F_p itself: each chart's t-leading coefficient, the partial's
    x2^(d-1) one, is then a unit (so p does not divide d), and Res_t of two
    charts is R_ij mod p.  Otherwise they are computed over F_p."""
    reg_fld, a, b, A, code, decode, transformed = regularize(list(system), fld)
    # the frame makes every y2^d coefficient h[d][0] nonzero
    charts = tuple([code_strip(A, row) for row in h] for h in transformed)
    framed = lift is not None and (reg_fld, a, b) == (fld, 0, 0)
    if not (framed and system == tuple(FormModP(lift.partial(i), fld) for i in range(3))):
        lift = code = None
    return _Elimination(reg_fld, a, b, A, decode, charts, lift, code)


def _integer_chart(g: TernaryForm) -> list:
    """The chart g(1, u, t) of an integer form in the frame (0, 0): the
    dense rows of ``_transform``, as ints."""
    h = [[0] * (g.degree + 1 - k) for k in range(g.degree + 1)]
    for (_, e1, e2), c in g.terms.items():
        h[e2][e1] = c
    return h


@lru_cache(maxsize=64)
def _integer_resultant(f: TernaryForm, i: int, j: int) -> list:
    """R_ij = Res_t(g_i, g_j) over Z of the charts of f's partials g_i and
    g_j, once per form and pair, whatever the prime it is reduced mod."""
    return integer_chart_resultant(_integer_chart(f.partial(i)), _integer_chart(f.partial(j)))


@lru_cache(maxsize=64)
def singular_locus_nonempty(f: TernaryForm) -> bool:
    """Does f = 0 have a singular point over the algebraic closure of its
    coefficient field, a finite field?  The zero form raises ValueError, a
    form over Z or Q TypeError."""
    fld = _coefficient_field(f)
    system = jacobian_system(f)
    if system and _point_witness(system, fld):
        return True
    return _has_common_zero(_eliminate(tuple(system), fld, f.lift))


def _point_witness(system: list[TernaryForm], fld) -> bool:
    """Does every form of the system vanish at a point of P^2(F_{p^2}),
    fld = F_p?  A common zero there is a singular point over the closure.
    Scanned while P^2(F_p) has no more points than the D + 1 evaluation
    points of one chart resultant (D as in ``regularize``), on the log codes
    of fq(p, 2): the points of P^2(F_p) first, then the rest, as [a:b:1],
    [a:1:0] and [1:0:0]."""
    p, top = fld.characteristic, sorted(g.degree for g in system)[-2:]
    if fld.degree != 1 or p * p + p + 1 > top[0] * top[-1] + 1:
        return False
    A = fq(p, 2).log_arith
    base = [A.from_int(c) for c in range(p)]
    field = base + [x for x in range(A.zero, A.m) if x not in base]
    powers = {x: [A.pow(x, e) for e in range(top[-1] + 1)] for x in field}
    coded = [[(m, A.from_int(c)) for m, c in g.terms.items()] for g in system]
    # on the line x2 = 0 only the monomials free of x2 count
    line = [[(m, c) for m, c in t if m[2] == 0] for t in coded]
    points = [(coded, a, b) for a in base for b in base] + [(line, a, A.one) for a in base]
    points += [(line, A.one, A.zero)]
    points += [(coded, a, b) for a in field for b in field if a not in base or b not in base]
    points += [(line, a, A.one) for a in field[p:]]
    return any(
        all(_code_value(A, t, powers[a], powers[b]) == A.zero for t in forms)
        for forms, a, b in points
    )


def _has_common_zero(elim: _Elimination) -> bool:
    """Do the charts share a zero?  A nonzero constant has none and one
    chart always has; else a point on the line y0 = 0, then in the chart
    y0 = 1 by D5, or by the split where two charts share a factor."""
    if any(len(P) == 1 for P in elim.charts):
        return False
    if len(elim.charts) == 1 or len(elim.ginf) > 1:
        return True
    G, zero_pair = elim.chart
    if zero_pair is not None:
        return _split_common_factor(elim, *zero_pair)
    return len(G) > 1 and _d5_any_common_root(elim.A, elim.charts, G)


def _split_common_factor(elim: _Elimination, i: int, j: int) -> bool:
    """Res_t(P_i, P_j) = 0: the charts share a t-monic factor H, and the
    variety splits as V(H) with the rest union V(P_i/H, P_j/H) with the
    rest.  Both branches recurse in the same frame and arithmetic: H and
    its cofactors divide forms that do not vanish at [0:0:1].

    H comes from the resultant's own D + 1 ``evaluation_points`` x.  The
    gcd of P_i(x, t) and P_j(x, t) has degree at least e = deg_t H, and is
    H(x, t) off the roots of Res_t(P_i/H, P_j/H), at most
    (deg P_i - e)(deg P_j - e) <= D - e of them.  So the least gcd degree is
    e, reached at e + 1 points or more, and H interpolates from e + 1 of
    them."""
    A, charts = elim.A, elim.charts
    P, Q = charts[i], charts[j]
    points = evaluation_points(A, (len(P) - 1) * (len(Q) - 1))
    at = lambda R, x: [code_eval(A, c, x) for c in R]
    gcds = [code_gcd(A, at(P, x), at(Q, x)) for x in points]
    e = min(map(len, gcds)) - 1
    xs, ys = zip(*[(x, g) for x, g in zip(points, gcds) if len(g) == e + 1][: e + 1])
    H = [code_interpolate(A, xs, [g[k] for g in ys]) for k in range(e + 1)]
    rest = [R for k, R in enumerate(charts) if k not in (i, j)]
    # a plain elimination: the branches' charts are not the lift's partials
    branch = lambda cs: _has_common_zero(_Elimination(elim.fld, elim.a, elim.b, A, elim.decode, tuple(cs)))
    return branch(rest + [H]) or branch(rest + [_t_quotient(A, P, H), _t_quotient(A, Q, H)])


def _t_quotient(A, P: list, H: list) -> list:
    """P / H for a t-monic chart H dividing the chart P over K[u]."""
    P, Q, e = list(P), [], len(H) - 1
    while len(P) > e:
        c = P.pop()
        Q.append(c)
        for k in range(e):
            P[len(P) - e + k] = code_sub(A, P[len(P) - e + k], code_mul(A, c, H[k]))
    return Q[::-1]


# ---------------------------------------------------------------------------
# Dynamic evaluation (D5) over K[u]/(B)
# ---------------------------------------------------------------------------

def _d5_any_common_root(A, charts, B: list) -> bool:
    """True iff for some root u0 of B the specialisations t -> P(u0, t) of
    all the charts share a root: their gcd over K[u]/(B) by Euclid, as if
    that ring were a field, splitting B at a zero divisor.  B need not be
    squarefree: every step divides by units mod B only, which stay units at
    each root of B, and a split strictly lowers deg B."""
    stack = [B]
    while stack:
        B = stack.pop()
        R = Residues(A, B)
        try:
            g: list = []
            for P in charts:
                g = code_gcd(R, g, [code_rem(A, c, B) for c in P])
                if len(g) == 1:
                    break
            if len(g) > 1:
                return True
        except ZeroDivisorSplit as split:
            stack += [split.divisor, code_divmod(A, B, split.divisor)[0]]
    return False


# ---------------------------------------------------------------------------
# Per-prime analysis
# ---------------------------------------------------------------------------

def _reduce(f: TernaryForm, p: int):
    """(F_p, f mod p) for an odd prime p; a form vanishing mod p raises
    DegenerateReduction."""
    if p < 3:
        raise ValueError(f"the bad-prime analysis expects an odd prime, got {p}")
    fld = prime_field(p)
    fp = FormModP(f, fld)
    if fp.is_zero():
        raise DegenerateReduction(f"the form vanishes identically mod {p}")
    return fld, fp


def is_bad_prime(f: TernaryForm, p: int) -> bool:
    """Does the branch sextic acquire a singular point modulo p (p odd)?"""
    return singular_locus_nonempty(_reduce(f, p)[1])


@dataclass
class SingularPoint:
    #: projective coordinates, the first nonzero one 1: ints in F_p, else the
    #: coefficient lists of residue polynomials, padded, nested for a tower
    coords: list
    residue_degree: int
    kind: str  # node | non-node


@dataclass
class SingularReport:
    prime: int
    points: list[SingularPoint]
    r: int
    all_nodes_and_r_lt8: bool
    unresolved: int
    notes: list[str] = dataclass_field(default_factory=list)

    def to_json_dict(self):
        return {**asdict(self), "prime": str(self.prime)}


def _root_field(K, irr: list):
    """A field holding a root of the monic irreducible irr over K, and the
    root: K itself for a linear irr, else K[u]/(irr) with the root u."""
    if len(irr) == 2:
        return K, K.neg(irr[0])
    return Residues(K, irr), [K.zero, K.one]


def _json(R, c):
    """A coded element as the report writes it: an int of F_p, else the
    padded coefficient list of its residue polynomial."""
    if not isinstance(R, Residues):
        return c
    return [_json(R.A, e) for e in c + [R.A.zero] * (len(R.B) - 1 - len(c))]


def _classify_point(f: TernaryForm, R, x) -> str:
    """node iff the integer form f and its gradient vanish mod p at the
    point x, coded in R, and the 2x2 Hessian of the local dehomogenization
    is nonsingular there."""
    powers = [[R.one] for _ in x]
    for row, c in zip(powers, x):
        for _ in range(f.degree):
            row.append(R.mul(row[-1], c))

    def value(g: TernaryForm):
        acc = R.zero
        for (e0, e1, e2), c in g.terms.items():
            mono = R.mul(powers[0][e0], R.mul(powers[1][e1], powers[2][e2]))
            acc = R.add(acc, R.mul(R.from_int(c), mono))
        return acc

    if any(value(g) != R.zero for g in (f, f.partial(0), f.partial(1), f.partial(2))):
        return "non-node"
    pivot = next(i for i, c in enumerate(x) if c != R.zero)
    i, j = (k for k in range(3) if k != pivot)
    hii, hij, hjj = (value(f.partial(m).partial(n)) for m, n in ((i, i), (i, j), (j, j)))
    return "node" if R.sub(R.mul(hii, hjj), R.mul(hij, hij)) != R.zero else "non-node"


def singular_points(f: TernaryForm, p: int, degree_bound: int = 6) -> SingularReport:
    """Locate and classify the geometric singular points of f mod p up to the
    given residue degree.  One representative per Galois orbit is reported and
    r counts geometric points, so each orbit contributes its size.

    The memoised elimination is read as ints mod p, and each candidate is
    factored over F_p: a root of an irreducible pi of degree k lives in
    F_p[u]/(pi), and a root of a factor h of the chart gcd over that field
    one level up, at residue degree k deg h."""
    fld, fp = _reduce(f, p)
    if not singular_locus_nonempty(fp):
        raise NotBadPrime(f"{p} is a prime of good reduction")
    system = jacobian_system(fp)
    if len(system) == 1:
        raise PositiveDimensionalLocus(f"mod {p} the Jacobian system is one form, whose zeros are a curve")
    elim = _eliminate(tuple(system), fld, fp.lift)
    if elim.fld is not fld:
        raise RegularizationError(f"the singular points mod {p} need a frame over an extension")
    G, zero_pair = elim.chart
    if zero_pair is not None:
        raise PositiveDimensionalLocus(f"mod {p} two forms of the Jacobian system share a factor")
    F = ModP(p)
    ints = lambda cs: [elim.decode(c) for c in cs]
    charts = [[ints(c) for c in P] for P in elim.charts]
    points: list[SingularPoint] = []
    unresolved = 0

    def record(R, y0, y1, y2, degree):
        """Transform back, normalise, classify and append, or count a point
        beyond the degree bound as unresolved."""
        nonlocal unresolved
        if degree > degree_bound:
            unresolved += 1
            return
        a, b = R.from_int(elim.a), R.from_int(elim.b)
        x = (R.add(y0, R.mul(a, y2)), R.add(y1, R.mul(b, y2)), y2)
        inv = R.inv(next(c for c in x if c != R.zero))
        x = [R.mul(c, inv) for c in x]
        points.append(SingularPoint([_json(R, c) for c in x], degree, _classify_point(f, R, x)))

    # the line y0 = 0
    for irr, _ in irreducible_factors(F, ints(elim.ginf)):
        R, tau = _root_field(F, irr)
        record(R, R.zero, R.one, tau, len(irr) - 1)

    # the chart y0 = 1
    for pi, _ in irreducible_factors(F, ints(G)):
        k = len(pi) - 1
        if k > degree_bound:
            unresolved += 1
            continue
        L1, u0 = _root_field(F, pi)
        # the gcd of the charts specialised at u = u0; a unit for a spurious candidate
        ghat: list = []
        for P in charts:
            ghat = code_gcd(L1, ghat, [code_eval(L1, [L1.from_int(c) for c in cs], u0) for cs in P])
            if len(ghat) == 1:
                break
        for h, _ in irreducible_factors(L1, ghat):
            R, tau = _root_field(L1, h)
            record(R, R.one, u0 if R is L1 else R.lift(u0), tau, k * (len(h) - 1))

    r = sum(pt.residue_degree for pt in points)
    nodes = bool(points) and all(pt.kind == "node" for pt in points)
    return SingularReport(
        prime=p,
        points=points,
        r=r,
        all_nodes_and_r_lt8=not unresolved and r < 8 and nodes,
        unresolved=unresolved,
        notes=[f"candidates beyond residue degree {degree_bound} left unresolved"] if unresolved else [],
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
            raise BadPrimeListMismatch(p, f"listed bad prime {p} has good reduction")
        bad_confirmed.append(p)
    good_confirmed = []
    for p in good_spot_checks:
        if is_bad_prime(f, p):
            raise BadPrimeListMismatch(p, f"good spot check {p} is actually a bad prime")
        good_confirmed.append(p)
    return BadPrimeAttestation(bad_confirmed, good_confirmed, notes)
