"""Point counting over F_{p^n}, Frobenius characteristic polynomials, the
cyclotomic unit-root bound, tritangent detection and the rank-1 certificate.

The counting kernel sweeps the plane over F_{p^d} once for each level d,
slicing the affine chart by the first coordinate.  The inner character sum
along a slice is Frobenius-invariant, because f has its coefficients in
F_p, so only one representative y per Frobenius orbit of F_q^* is
evaluated, weighted by its orbit size; this is the factor-of-d saving of
orbit counting.  y = 0 and the line x0 = 0 are two more slices of weight
one.  The sweep tallies (A, B, Z), the points of P^2(F_{p^d}) at which f
is a nonzero square, a non-square and zero, and N_d = 2A + Z: a point off
the branch curve lies under two points of w^2 = f or none, a point on it
under one.

A sweep never leaves discrete-log form.  The seven coefficients c_k(y) of
f(1, y, z) in z are found for all orbit representatives at once.  At z = 0
f is c_0(y); the other z pair up as z = g^j and -z = g^(j + h), j < h =
(q - 1)/2, with f(1, y, +-z) = E(u) +- z O(u) in u = z^2 = g^(2j), E of the
even and O of the odd coefficients.  Horner's rule runs on logs over the h
squares u, in the order of j: v u + c with c != 0 is c (1 + v u / c), of
log log c + Z(log v + 2j - log c), with the Zech logarithm
Z(k) = log(1 + g^k).  The first step, from v = 1, is a slice of a
contiguous half of the Zech table; each later one adds a slice of one
arange and makes one gather; a zero c_k only raises the power of u that the
next step adds.  Then f(+-z) = E (1 +- g^t) with t = log z O / E, and one
gather at an index made of t and the parity of log E reads the characters
of both points of the pair from an int8 table, whose sum over the sweep is
the tally: 2 gathers for E, 1 for O and 1 for the pair of points, against 5
per point for Horner in z.  Where E(u) = 0, f(+-z) = +-z O(u): another
region of the table reads its characters off the parities of log z O and h.
Zero is a sentinel log that the tables absorb, and chi(g^k) is the parity
of k because q - 1 is even.

The tritangent scan runs on ints mod p too.  A line is an int triple; f
restricts to it in one pass over its terms, and the restriction g is a
constant times a square when its multiplicity at infinity is even and the
monic square root read off the top half of g/lc(g) squares back to it.

The charpoly follows from ten or more counts by Newton's identities, up to
the sign eps of its functional equation a_i = eps q^(22-2i) a_(22-i) and,
with ten counts, its middle coefficient a_11.  Every choice is tested
exactly, without floating point, for Weil conformity (every eigenvalue of
modulus q).  With sign -1, T^2 - q^2 divides the charpoly and a_11 = 0;
what is left, or the whole charpoly with sign +1, is T^m h(T + q^2/T), and
it conforms iff h has all its roots real in [-2q, 2q], which a Sturm count
on the squarefree part of h decides (Basu-Pollack-Roy, Algorithms in Real
Algebraic Geometry, ch. 2).  With sign +1 and a_11 open, h is W + a_11
and the conforming a_11 form an interval with no critical value inside,
no root of Res_u(W'(u), x + W(u)); Sturm counts isolate those roots, and
one test per gap between them stands for the gap.  Exactly one pair of a
sign and an a_11 must conform: none raises InconsistentCounts, two raise
SignAmbiguous.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, comb, floor, lcm

import numpy as np

from .arith import exact_int, probable_prime
from .poly import (
    QQ, TernaryForm, code_divmod, code_eval, code_gcd, code_interpolate, code_rem, code_resultant, code_strip,
)
from .finitefield import TABLE_LIMIT, fq, prime_field
from .surface import K3Surface, is_smooth_curve, reduce_mod


class CountingError(ValueError):
    pass


class SignAmbiguous(ValueError):
    """Both functional-equation signs survive; another count is needed."""


class InconsistentCounts(ValueError):
    """No sign yields a polynomial with all root moduli equal to q."""


class RankInconclusive(RuntimeError):
    def __init__(self, leg: str, detail: str = ""):
        super().__init__(f"rank certificate inconclusive: {leg}" + (f" ({detail})" if detail else ""))
        self.leg = leg


# ---------------------------------------------------------------------------
# The counting kernel
# ---------------------------------------------------------------------------

def _int_coefficients_mod(f: TernaryForm, p: int) -> dict:
    fld = getattr(f, "field", None)
    if fld is not None and fld.characteristic != p:
        raise ValueError("form is defined over a different characteristic")
    return {mon: c % p for mon, c in f.terms.items()}


def _on_squares(t, sw, logs: list[int], final: np.ndarray):
    """sum_i g^(logs[i]) u^i at the squares u = g^(2j), j < h, as
    (s, a, r): the sum is g^s v u^r, and a[j] is log v (the sentinel where
    v = 0) as the values of ``final`` code it, ``zech``'s as themselves.
    One term has v = 1, and a = final[zero], since zech[zero] = 0 = log 1.
    None when every coefficient is zero.

    Horner's rule on logs, as in the module docstring, with log u = 2j: a
    zero coefficient only raises the pending power r, and adding
    c = g^l != 0 to g^s v u^r reads the Zech table at log v + 2rj + s - l,
    from a contiguous half of ``zech`` on the first step, else by one
    gather.  The last step reads ``final`` in place of ``zech``."""
    m, zero = t.q - 1, t.zero
    live = [i for i, l in enumerate(logs) if l != zero]
    if not live:
        return None
    a, s, r = None, logs[live[-1]], 0
    for i in range(live[-1] - 1, -1, -1):
        r += 1
        if logs[i] == zero:
            continue
        table, o = (final if i == live[0] else t.zech), (s - logs[i]) % m
        if r > 1:
            w = (sw.ramp_even * r + o) % m
            a = table.take(w if a is None else a + w, mode="clip")
        elif a is None and table is t.zech:
            a = (sw.zech_odd if o & 1 else sw.zech_even)[o >> 1 : (o >> 1) + len(sw.ramp_even)]
        else:
            a = table[o:].take(sw.ramp_even if a is None else a + sw.ramp_even, mode="clip")
        s, r = logs[i], 0
    return s, final[zero] if a is None else a, r


def _level_tallies(fcoef: dict, p: int, d: int) -> tuple[int, int, int]:
    """Tallies (A, B, Z) of the points of P^2(F_{p^d}) by the quadratic
    character of f, from one vectorised sweep."""
    t = fq(p, d).tables
    m, zero, sw = t.q - 1, t.zero, t.pair_sweep
    h = m // 2
    ks, sizes = zip(*t.orbit_reps)
    # f(1, y, z) = sum_k c_k(y) z^k with c_k(y) = sum_j a[j,k] y^j, on logs:
    # one column per orbit representative y = g^k, where log a[j,k] y^j is
    # log a[j,k] + jk mod m; then y = 0 and the chart x0 = 0, x1 = 1, two
    # constant slices of degree 1
    ks = np.array(ks, dtype=np.int64)
    c = np.full((7, len(ks) + 2), zero, dtype=np.int64)
    for (e0, e1, e2), coef in fcoef.items():
        if coef:
            la = int(t.log[coef])
            c[e2, :-2] = t.log_add(c[e2, :-2], (la + e1 * ks) % m)
            if e1 == 0:
                c[e2, -2] = la
            if e0 == 0:
                c[e2, -1] = la
    degrees = list(sizes) + [1, 1]
    tally = [0, 0, 0]  # squares, non-squares, zeros
    for lc, e in zip(c.T.tolist(), degrees):
        tally[2 if lc[0] == zero else lc[0] & 1] += e  # z = 0, where f is c_0(y)
        # f(1, y, +-z) = E(u) +- z O(u) with u = z^2
        even = _on_squares(t, sw, lc[0::2], sw.zech_ratio)
        odd = _on_squares(t, sw, lc[1::2], t.zech)
        if even is None and odd is None:
            tally[2] += 2 * e * h
            continue
        # f(+-z) = E (1 +- g^t), t = log z O / E, or +-z O where E(u) = 0:
        # pair_codes holds the pair's characters, relative to g^(s_e)
        s_o, a_o, r_o = odd or (0, zero, 0)
        s_e, a_e, r_e = even or (0, sw.vanished, 0)
        shift = (s_o - s_e) % m
        if r_o == r_e:
            index = sw.ramp_mod[shift : shift + h] + a_o
        else:
            index = (sw.ramp_mod[:h] * (1 + 2 * (r_o - r_e)) + shift) % m + a_o
        index += a_e
        n_odd, n_zero = sw.count(index)
        tally[s_e & 1] += e * (2 * h - n_odd - n_zero)
        tally[1 - (s_e & 1)] += e * n_odd
        tally[2] += e * n_zero
    # the point [0:0:1]: c = f(0, 0, 1) is in F_p, so chi(c) = chi_p(c)^d
    c001 = fcoef.get((0, 0, 6), 0)
    tally[2 if c001 == 0 else (0 if d % 2 == 0 or pow(c001, (p - 1) // 2, p) == 1 else 1)] += 1
    return tuple(tally)


def _check_odd_prime(p: int) -> None:
    """Refuses all but an odd prime of type int: 3.0 == 3, and True == 1."""
    if not isinstance(p, int) or isinstance(p, bool) or p < 3 or not probable_prime(p):
        raise CountingError(f"point counting needs an odd prime, not {p!r}")


def _exact_count(n: int, N) -> int:
    try:
        return exact_int(N)
    except ValueError:
        raise CountingError(f"count N_{n} = {N!r} is not an integer") from None


@dataclass
class CountSeries:
    """Exact point counts N_1..N_max_n of w^2 = f over F_{p^n}, from the
    level sweeps of ``count_series`` or read by ``from_counts``.  p must be
    an odd prime and every N_n an integer within the Weil bound: a float or
    a bool count is refused, whichever way the series is built."""

    p: int
    counts: list[int]

    def __post_init__(self):
        _check_odd_prime(self.p)
        self.counts = [_exact_count(n, N) for n, N in enumerate(self.counts, start=1)]
        for n, N in enumerate(self.counts, start=1):
            check_weil_bound(self.p, n, N)

    @property
    def max_n(self) -> int:
        return len(self.counts)

    @classmethod
    def from_counts(cls, p: int, counts) -> "CountSeries":
        return cls(p=p, counts=list(counts))


def check_weil_bound(p: int, n: int, N: int) -> None:
    if abs(N - 1 - p ** (2 * n)) > 22 * p**n:
        raise CountingError(f"count N_{n} = {N} violates the Weil bound at p = {p}")


def count_series(f: TernaryForm, p: int, max_n: int) -> CountSeries:
    """Counts N_1..N_max_n by the orbit kernel, one sweep of P^2(F_{p^d})
    for each level d."""
    _check_odd_prime(p)
    if not isinstance(max_n, int) or isinstance(max_n, bool):
        raise CountingError(f"the counting depth must be an int, got {max_n!r}")
    if max_n < 1:
        raise CountingError(f"the count series needs a depth of at least 1, got {max_n}")
    if f.degree != 6:
        raise CountingError("the branch form must be a sextic")
    over = next((n for n in range(1, max_n + 1) if p**n > TABLE_LIMIT), None)
    if over is not None:
        raise CountingError(
            f"degree {over}: F_{p}^{over} has {p**over} elements, over the field-table limit {TABLE_LIMIT}"
        )
    fcoef = _int_coefficients_mod(f, p)
    if not any(fcoef.values()):
        raise CountingError(f"form vanishes identically mod {p}")
    levels = (_level_tallies(fcoef, p, d) for d in range(1, max_n + 1))
    return CountSeries(p=p, counts=[2 * A + Z for A, _, Z in levels])


# ---------------------------------------------------------------------------
# Frobenius characteristic polynomial
# ---------------------------------------------------------------------------

H2_DIM = 22  # middle cohomology dimension of a K3 surface


@dataclass
class FrobeniusData:
    q: int
    coefficients: list[Fraction]  # a_0 .. a_22 of the monic charpoly
    sign: int

    @property
    def normalized(self) -> list[Fraction]:
        """Coefficients of f_3(t) = q^-22 f(q t): roots are eigenvalues / q."""
        q = Fraction(self.q)
        return [c * q ** (i - H2_DIM) for i, c in enumerate(self.coefficients)]


def _newton_coefficients(sums) -> dict[int, Fraction]:
    """Top coefficients a_22, a_21, ... of the monic charpoly with the power
    sums ``sums`` of its roots, via Newton's identities, in exact
    rationals."""
    a = {H2_DIM: Fraction(1)}
    for k in range(1, min(len(sums), H2_DIM) + 1):
        s = Fraction(sums[k - 1])
        for i in range(1, k):
            s += a[H2_DIM - i] * sums[k - i - 1]
        a[H2_DIM - k] = -s / k
    return a


def _derivative(h: list) -> list:
    return [k * c for k, c in enumerate(h)][1:]


def _sturm_chain(s: list) -> list[list]:
    """The Sturm sequence of s over Q, each member scaled by a positive
    constant to integer coefficients: the signs are unchanged, and
    evaluation at integers stays in ints."""
    chain = [s, _derivative(s)]
    while len(chain[-1]) > 1:
        chain.append([-c for c in code_rem(QQ, chain[-2], chain[-1])])
    scales = (lcm(*(c.denominator for c in p)) for p in chain)
    return [[int(c * k) for c in p] for p, k in zip(chain, scales)]


def _sign_changes(chain: list[list], x) -> int:
    signs = [v > 0 for v in (code_eval(QQ, p, x) for p in chain) if v]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _squarefree_part(h: list) -> list:
    return code_divmod(QQ, h, code_gcd(QQ, h, _derivative(h)))[0]


def _real_roots_within(h: list, bound: int) -> bool:
    """Are all roots of h real and in [-bound, bound]?  For the squarefree
    part s, Sturm's V(-bound) - V(bound) counts its distinct roots in
    (-bound, bound], and a root at -bound is added by hand."""
    s = _squarefree_part(h)
    chain = _sturm_chain(s)
    inside = _sign_changes(chain, -bound) - _sign_changes(chain, bound) + (code_eval(QQ, chain[0], -bound) == 0)
    return inside == len(s) - 1


def _trace_polynomial(top, q: int) -> list:
    """h of degree m with T^m h(T + q^2/T) the polynomial of degree 2m and
    sign +1 whose coefficients of T^m .. T^2m are ``top``."""
    m = len(top) - 1
    h = [None] * (m + 1)
    for k in range(m, -1, -1):
        h[k] = top[k] - sum(h[k + 2 * j] * comb(k + 2 * j, j) * q ** (2 * j) for j in range(1, (m - k) // 2 + 1))
    return code_strip(QQ, h)


def _weil_conform(coefficients, eps: int, q: int) -> bool:
    """Do all roots of the charpoly of sign eps have modulus q?  Sign -1
    has the roots q and -q; what is left, like a charpoly of sign +1, is
    T^m h(T + q^2/T), and its roots have modulus q iff h has all its roots
    real in [-2q, 2q]."""
    P = coefficients
    if eps == -1:
        P = code_divmod(QQ, P, [-q * q, 0, 1])[0]
    return _real_roots_within(_trace_polynomial(P[(len(P) - 1) // 2:], q), 2 * q)


def _complete_with_sign(a_top: dict[int, Fraction], eps: int, q: int) -> list[Fraction] | None:
    """a_0 .. a_22 from a_22 .. a_11 by the functional equation
    a_i = eps q^(22-2i) a_(22-i), or None where a known coefficient
    contradicts it (for sign -1 that includes a_11 != 0)."""
    coeffs = [
        a_top[i] if i > 11 else eps * Fraction(q) ** (H2_DIM - 2 * i) * a_top[H2_DIM - i]
        for i in range(H2_DIM + 1)
    ]
    return coeffs if all(coeffs[i] == c for i, c in a_top.items()) else None


def _open_middle_values(a_top: dict[int, Fraction], q: int) -> list[int]:
    """Up to two integers a_11 for which sign +1 conforms, when ten counts
    leave a_11 open.

    The trace polynomial of a_11 = a is W + a, W the one of a_11 = 0, so
    the conforming a form an interval: they must lie in
    [-W(2q), -W(-2q)], and inside it they change only at a critical value
    -W(c), c one of the ten roots of W', which must lie in [-2q, 2q]
    (Rolle).  Those values are the roots of the resultant
    D(x) = Res_u(W'(u), x + W(u)), of degree 10, interpolated from D(0) ..
    D(10).  Bisection on Sturm counts puts each root of D in a unit
    interval (r - 1, r]; r is tested on its own, and between two such r
    the conformity of one integer is that of all.
    """
    B = 2 * q
    W = _trace_polynomial([Fraction(0)] + [a_top[i] for i in range(12, H2_DIM + 1)], q)
    lo, hi = ceil(-code_eval(QQ, W, B)), floor(-code_eval(QQ, W, -B))
    dW = _derivative(W)
    if lo > hi or not _real_roots_within(dW, B):
        return []
    xs = range(len(dW))
    D = code_interpolate(QQ, xs, [code_resultant(QQ, dW, [W[0] + x] + W[1:]) for x in xs])
    chain = _sturm_chain(_squarefree_part(D))
    isolated, stack = [], [(lo - 1, hi)]
    while stack:
        left, right = stack.pop()
        if _sign_changes(chain, left) == _sign_changes(chain, right):
            continue
        if right - left == 1:
            isolated.append(right)
        else:
            mid = (left + right) // 2
            stack += [(left, mid), (mid, right)]

    def conforms(value: int) -> bool:
        return _real_roots_within([W[0] + value] + W[1:], B)

    found, start = [], lo
    for r in sorted(isolated) + [hi + 1]:
        if start < r and conforms(start):
            found += range(start, min(r, start + 2))
        if r <= hi and conforms(r):
            found.append(r)
        if len(found) >= 2:
            break
        start = r + 1
    return found[:2]


def frobenius_charpoly(counts: CountSeries) -> FrobeniusData:
    """Reconstruct the degree-22 Frobenius characteristic polynomial from the
    count series, selecting the functional-equation sign by the exact Weil
    test: exactly one pair of a sign and an integer a_11 must conform."""
    if counts.max_n < 10:
        raise CountingError("need counts to n = 10 for a one-sided functional equation")
    q = counts.p
    t = [counts.counts[k - 1] - 1 - q ** (2 * k) for k in range(1, counts.max_n + 1)]
    a_top = _newton_coefficients(t)
    survivors = []
    for eps in (-1, 1):
        if eps == 1 and 11 not in a_top:
            for a11 in _open_middle_values(a_top, q):
                survivors.append((eps, _complete_with_sign({**a_top, 11: Fraction(a11)}, eps, q)))
            continue
        # a_11 is counted, or sign -1 forces it to be 0
        coeffs = _complete_with_sign({11: Fraction(0), **a_top}, eps, q)
        if coeffs is not None and _weil_conform(coeffs, eps, q):
            survivors.append((eps, coeffs))
    if not survivors:
        raise InconsistentCounts("count series inconsistent: no Weil-conform sign")
    if len(survivors) > 1:
        raise SignAmbiguous(f"sign ambiguous, need N_{counts.max_n + 1}")
    eps, coeffs = survivors[0]
    return FrobeniusData(q=q, coefficients=coeffs, sign=eps)


# ---------------------------------------------------------------------------
# Cyclotomic unit-root bound
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def cyclotomic_polynomial(d: int) -> tuple[int, ...]:
    """Phi_d over Z, lowest degree first, by exact division of x^d - 1."""
    poly = [-1] + [0] * (d - 1) + [1]
    for e in range(1, d):
        if d % e == 0:
            poly = code_divmod(QQ, poly, cyclotomic_polynomial(e))[0]
    return tuple(poly)


@functools.lru_cache(maxsize=1)
def _cyclotomic_degrees_up_to_22() -> list[int]:
    """The d with phi(d) <= 22, which forces d <= 2 * 22^2 (the actual
    maximum is 66), from one sieve of phi over that range: each prime l
    takes phi[k] -= phi[k] // l on its multiples k."""
    bound = 2 * 22 * 22
    phi = list(range(bound + 1))
    for l in range(2, bound + 1):
        if phi[l] == l:  # untouched by a smaller prime: l is prime
            for k in range(l, bound + 1, l):
                phi[k] -= phi[k] // l
    return [d for d in range(1, bound + 1) if phi[d] <= 22]


def unit_root_bound(fd: FrobeniusData) -> int:
    """Number of normalized Frobenius eigenvalues that are roots of unity,
    counted with multiplicity: an upper bound for the geometric Picard rank
    of the reduction.  The normalized charpoly, times the lcm of its
    denominators, is divided in Z[T] by each monic Phi_d: exact there iff in Q[T]."""
    scale = lcm(*(c.denominator for c in fd.normalized))
    g = [int(c * scale) for c in fd.normalized]
    bound = 0
    for d in _cyclotomic_degrees_up_to_22():
        phi = cyclotomic_polynomial(d)
        quo, rem = code_divmod(QQ, g, phi)
        while not rem and quo:
            bound, g = bound + len(phi) - 1, quo
            quo, rem = code_divmod(QQ, g, phi)
    return bound


# ---------------------------------------------------------------------------
# Tritangent lines
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TritangentScan:
    prime: int
    line: tuple[int, int, int] | None
    degenerate_lines: tuple[tuple[int, int, int], ...]
    lines_scanned: int


def enumerate_lines(p: int):
    """All p^2 + p + 1 lines l0 x0 + l1 x1 + l2 x2 = 0 of P^2(F_p) as int
    triples, first nonzero coordinate 1, in lex order: (1, a, b), (0, 1, b),
    (0, 0, 1)."""
    for a in range(p):
        for b in range(p):
            yield (1, a, b)
    for b in range(p):
        yield (0, 1, b)
    yield (0, 0, 1)


def _restriction(fcoef: dict, degree: int, line: tuple[int, int, int], p: int) -> list[int]:
    """g(t), f mod p on the line, lowest degree first without trailing zeros.

    The pivot coordinate is x_i = -(l_j x_j + l_k x_k); x_j = 1 and x_k = t
    parametrise the line, and degree - deg g is the multiplicity at infinity.
    """
    i = line.index(1)
    j, k = (n for n in range(3) if n != i)
    a, b = -line[j], -line[k]
    powers = [[1]]  # coefficients of x_i^e = (a + b t)^e
    for _ in range(degree):
        prev = powers[-1]
        powers.append([(a * u + b * v) % p for u, v in zip(prev + [0], [0] + prev)])
    g = [0] * (degree + 1)
    for mon, c in fcoef.items():
        for n, u in enumerate(powers[mon[i]], start=mon[k]):
            g[n] += c * u
    g = [c % p for c in g]
    while g and not g[-1]:
        g.pop()
    return g


def _is_square_times_constant(g: list[int], degree: int, p: int) -> bool:
    """Is the binary form of degree ``degree`` with nonzero dehomogenisation
    g a constant times a square?  Exactly when degree - deg g is even and the
    monic h read off the top half of g/lc(g) (p odd, so 2 is a unit) squares
    back to g/lc(g): a monic square root is unique."""
    n = len(g) - 1
    if (degree - n) % 2 or n % 2:
        return False
    inv, m, half = pow(g[-1], -1, p), n // 2, (p + 1) // 2
    h = [0] * m + [1]
    for e in range(n - 1, -1, -1):
        # t^e of h^2 without the still unknown 2 h[e - m] (for e >= m)
        rest = sum(h[r] * h[e - r] for r in range(max(0, e - m), min(e, m) + 1))
        if e >= m:
            h[e - m] = (g[e] * inv - rest) * half % p
        elif (g[e] * inv - rest) % p:
            return False
    return True


@functools.lru_cache(maxsize=64, typed=True)
def tritangent_scan(f: TernaryForm, p: int) -> TritangentScan:
    """Scan every line of P^2(F_p) for tritangency: the restriction of f must
    be a nonzero constant times a perfect square.  Lines on which f vanishes
    are recorded as degenerate and not matched."""
    if p < 3 or not probable_prime(p):
        raise ValueError(f"the tritangent scan needs an odd prime, not {p}")
    fcoef = _int_coefficients_mod(f, p)
    degenerate = []
    for scanned, line in enumerate(enumerate_lines(p), start=1):
        g = _restriction(fcoef, f.degree, line, p)
        if not g:
            degenerate.append(line)
        elif _is_square_times_constant(g, f.degree, p):
            return TritangentScan(p, line, tuple(degenerate), scanned)
    return TritangentScan(p, None, tuple(degenerate), scanned)


def find_tritangent(f: TernaryForm, p: int) -> tuple[int, int, int] | None:
    return tritangent_scan(f, p).line


# ---------------------------------------------------------------------------
# The rank-1 certificate
# ---------------------------------------------------------------------------

@dataclass
class RankCertificate:
    p: int
    p_prime: int
    tritangent_line: tuple[int, int, int]
    unit_root_bound: int
    counts: CountSeries
    charpoly: FrobeniusData
    rank: int = 1


def certify_rank_one(
    X: K3Surface,
    p: int,
    p_prime: int,
    counts: CountSeries | None = None,
    depth: int = 10,
) -> RankCertificate:
    """Geometric Picard rank 1, from a tritangent line and unit-root bound 2
    at p together with tritangent absence at p_prime.

    The scan at p_prime sees only F_{p_prime}-rational lines, and that is
    enough.  Were the rank over Q-bar 2, specialisation at p would map
    Pic(X over Q-bar) onto <H, C>, with C a component of pi^*(l) for the
    tritangent l mod p.  So X over Q-bar would have a tritangent line l' with
    pi^*(l') = C + C' and C' = H - C.  Galois fixes H and the intersection
    form, and C and C' are the only classes D with D^2 = -2 and D.H = 1, so
    Galois fixes or swaps them: l' is defined over Q.  Its reduction is an
    F_{p_prime}-rational tritangent line.
    """
    if p == p_prime:
        raise ValueError("the two primes must be distinct")
    if counts is not None and counts.p != p:
        raise ValueError(f"the counts are over F_{counts.p}, not over F_{p}, the tritangent prime")
    if p == 2 or p_prime == 2:
        raise ValueError("both primes must be odd")
    f = X.branch_sextic
    for prime in (p, p_prime):
        if not is_smooth_curve(reduce_mod(f, prime_field(prime))):
            raise RankInconclusive("good-reduction", f"branch curve is singular mod {prime}")
    line = find_tritangent(f, p)
    if line is None:
        raise RankInconclusive("tritangent-at-p", f"no tritangent line mod {p}")
    if counts is None:
        counts = count_series(f, p, depth)
    fd = frobenius_charpoly(counts)
    bound = unit_root_bound(fd)
    if bound != 2:
        raise RankInconclusive("unit-root-bound", f"bound is {bound}, need 2")
    other = find_tritangent(f, p_prime)
    if other is not None:
        raise RankInconclusive("tritangent-at-p-prime", f"tritangent line exists mod {p_prime}")
    return RankCertificate(
        p=p,
        p_prime=p_prime,
        tritangent_line=line,
        unit_root_bound=bound,
        counts=counts,
        charpoly=fd,
    )
