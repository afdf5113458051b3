"""Point counting over F_{p^n}, Frobenius characteristic polynomials, the
cyclotomic unit-root bound, tritangent detection and the rank-1 certificate.

The counting kernel organises work by exact minimal degree d: for each d it
sweeps the plane over F_{p^d} once, slicing the affine chart by the first
coordinate.  The inner character sum along a slice is Frobenius-invariant, so
only one representative y per Frobenius orbit is evaluated, weighted by its
orbit size; this is the factor-of-n saving of orbit counting.  Each point's
exact degree is the lcm of the slice degree and the exact degree of the second
coordinate, so one sweep yields the per-degree tallies (A_d, B_d, Z_d) of
points with quadratic character +1, -1 and 0.  Every N_n then assembles from
the tallies of the divisors of n through the character transfer rule
chi_n = chi_d^(n/d).

A sweep never leaves discrete-log form.  The seven coefficients c_k(y) of
f(1, y, z) in z are found for all orbit representatives at once, then the
Horner evaluation over all z in F_{p^d} runs on logs: multiplying by z adds
log z, and adding a constant c is log c + Z(log v - log c) with the Zech
logarithm Z(k) = log(1 + g^k).  Zero is a sentinel log that the tables
absorb, and chi(v) is the parity of log v because q - 1 is even.

The tritangent scan runs on ints mod p too.  A line is an int triple; f
restricts to it in one pass over its terms, and the restriction g is a
constant times a square when its multiplicity at infinity is even and the
monic square root read off the top half of g/lc(g) squares back to it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import comb, lcm

import numpy as np

from .arith import probable_prime
from .poly import TernaryForm, UniPoly, squarefree_decomposition
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


def _level_tallies(fcoef: dict, p: int, d: int) -> tuple[int, int, int]:
    """Tallies (A_d, B_d, Z_d) of exact-degree-d points of P^2 by the
    quadratic character of f, from one vectorised sweep of P^2(F_{p^d})."""
    t = fq(p, d).tables
    m, zero = t.q - 1, t.zero
    reps = t.orbit_reps()
    # f(1, y, z) = sum_k c_k(y) z^k with c_k(y) = sum_j a[j,k] y^j, one column
    # per orbit representative y; the last column is the chart x0 = 0, x1 = 1,
    # a slice of degree 1 like y = 0
    ys = np.array([y for y, _ in reps])
    ypow = [np.ones_like(ys)]
    for _ in range(6):
        ypow.append(t.vmul(ypow[-1], ys))
    c = np.zeros((7, len(ys) + 1), dtype=np.int64)
    for (e0, e1, e2), coef in fcoef.items():
        if coef:
            c[e2, :-1] = t.vadd(c[e2, :-1], t.vmul(coef, ypow[e1]))
            if e0 == 0:
                c[e2, -1] = coef
    degrees = [e for _, e in reps] + [1]
    # a point [1:y:z] with y of degree e has exact degree lcm(e, deg z)
    exact = {e: np.flatnonzero(np.lcm(e, t.deg) == d) for e in set(degrees) if e != d}
    log_one = np.zeros(t.q, dtype=np.int32)
    log_zero = np.full(t.q, zero, dtype=np.int32)
    counts = np.zeros(3, dtype=np.int64)
    for lc, e in zip(t.log[c].T.tolist(), degrees):
        # Horner in z in the log domain: f at z is g^(a[z] + s), or 0 where
        # a[z] is the sentinel.  Multiplying by z adds log z; adding c_k != 0
        # is log c_k + zech[log v - log c_k].
        top = max((k for k in range(7) if lc[k] != zero), default=None)
        a, s = (log_zero, 0) if top is None else (log_one, lc[top])
        for k in range((top or 0) - 1, -1, -1):
            if lc[k] == zero:
                a = t.log[t.exp.take(a + t.log, mode="clip")]
            else:
                x = a + t.log
                x += (s - lc[k]) % m
                a, s = t.zech.take(x, mode="clip"), lc[k]
        if e != d:
            a = a[exact[e]]
        # chi is the parity of the log, since q - 1 is even; the sentinel is even
        nzero = np.count_nonzero(a == zero)
        odd = np.count_nonzero(a & 1)
        even = len(a) - nzero - odd
        counts += e * np.array([odd, even, nzero] if s & 1 else [even, odd, nzero])
    if d == 1:  # the point [0:0:1]
        c001 = fcoef.get((0, 0, 6), 0)
        counts[2 if c001 == 0 else (0 if pow(c001, (p - 1) // 2, p) == 1 else 1)] += 1
    a_d, b_d, z_d = counts
    return int(a_d), int(b_d), int(z_d)


@dataclass
class CountSeries:
    """Exact point counts of w^2 = f over F_{p^n} for n = 1..max_n, with the
    per-exact-degree character tallies they assemble from (when computed by
    the kernel; fixture-backed series carry only the counts)."""

    p: int
    max_n: int
    counts: list[int]
    tallies: dict | None = None

    def __post_init__(self):
        for n, N in enumerate(self.counts, start=1):
            check_weil_bound(self.p, n, N)

    @classmethod
    def from_counts(cls, p: int, counts) -> "CountSeries":
        counts = [int(c) for c in counts]
        return cls(p=p, max_n=len(counts), counts=counts, tallies=None)


def check_weil_bound(p: int, n: int, N: int) -> None:
    if abs(N - 1 - p ** (2 * n)) > 22 * p**n:
        raise CountingError(f"count N_{n} = {N} violates the Weil bound at p = {p}")


def assemble_counts(p: int, tallies: dict, max_n: int) -> list[int]:
    out = []
    for n in range(1, max_n + 1):
        N = 0
        for d in range(1, n + 1):
            if n % d:
                continue
            A, B, Z = tallies[d]
            N += (A + B + Z) + A + ((1 if (n // d) % 2 == 0 else -1) * B)
        check_weil_bound(p, n, N)
        out.append(N)
    return out


def count_series(f: TernaryForm, p: int, max_n: int) -> CountSeries:
    """Counts N_1..N_max_n by the orbit kernel, sharing the per-degree sweeps."""
    if p == 2:
        raise CountingError("characteristic 2 is unsupported")
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
    tallies = {d: _level_tallies(fcoef, p, d) for d in range(1, max_n + 1)}
    counts = assemble_counts(p, tallies, max_n)
    return CountSeries(p=p, max_n=max_n, counts=counts, tallies=tallies)


# ---------------------------------------------------------------------------
# Frobenius characteristic polynomial
# ---------------------------------------------------------------------------

H2_DIM = 22  # middle cohomology dimension of a K3 surface


@dataclass
class FrobeniusData:
    q: int
    power_sums: list[int]
    coefficients: list[Fraction]  # a_0 .. a_22 of the monic charpoly
    sign: int

    @property
    def normalized(self) -> list[Fraction]:
        """Coefficients of f_3(t) = q^-22 f(q t): roots are eigenvalues / q."""
        q = Fraction(self.q)
        return [c * q ** (i - H2_DIM) for i, c in enumerate(self.coefficients)]


def _newton_coefficients(power_sums) -> dict[int, Fraction]:
    """Top charpoly coefficients a_22, a_21, ... from power sums via Newton's
    identities, in exact rationals."""
    a = {H2_DIM: Fraction(1)}
    for k in range(1, min(len(power_sums), H2_DIM) + 1):
        s = Fraction(power_sums[k - 1])
        for i in range(1, k):
            s += a[H2_DIM - i] * power_sums[k - i - 1]
        a[H2_DIM - k] = -s / k
    return a


def _weil_plausible(coefficients, q: int) -> bool:
    """Cheap pre-filter: root moduli within 30 percent of q.  A genuinely
    conform polynomial always passes (double-precision scatter of a root of
    multiplicity up to 22 stays below that), so this only discards."""
    roots = np.roots([float(c) for c in coefficients][::-1])
    return bool(np.all(np.abs(np.abs(roots) - q) <= 0.3 * q))


def _weil_conform(coefficients, q: int) -> bool:
    """All roots of modulus q to a relative 1e-6, via companion-matrix
    eigenvalues of the exact squarefree part (repeated roots scatter
    numerically far beyond any usable tolerance, so multiplicities are
    removed exactly first)."""
    poly = UniPoly([Fraction(c) for c in coefficients])
    try:
        sqfree = [fac for fac, _ in squarefree_decomposition(poly)]
    except (ZeroDivisionError, ValueError):
        return False
    prod = UniPoly([Fraction(1)])
    for fac in sqfree:
        prod = prod * fac
    cs = [float(c) for c in prod.coeffs]
    roots = np.roots(cs[::-1])
    return bool(np.all(np.abs(np.abs(roots) - q) <= q * 1e-6))


def _complete_with_sign(a_top: dict[int, Fraction], eps: int, q: int):
    """Fill the lower half by the functional equation a_i = eps q^(22-2i)
    a_{22-i}; return None if a coefficient stays undetermined, or raise
    InconsistentCounts on an overdetermined mismatch within this sign."""
    coeffs: list[Fraction | None] = [None] * (H2_DIM + 1)
    for i, v in a_top.items():
        coeffs[i] = v
    for i in range(H2_DIM + 1):
        j = H2_DIM - i
        if a_top.get(j) is None:
            continue
        mirrored = eps * Fraction(q) ** (H2_DIM - 2 * i) * a_top[j]
        if coeffs[i] is None:
            coeffs[i] = mirrored
        elif coeffs[i] != mirrored:
            return "inconsistent"
    if any(c is None for c in coeffs):
        return None
    return coeffs


def _plus_sign_feasibility(a_top: dict[int, Fraction], q: int):
    """Decide whether some value of the undetermined middle coefficient makes
    the + sign Weil-conform.

    With the + sign the polynomial is prod (T^2 - gamma_i T + q^2) and
    conformance is equivalent to h(u) = prod (u - gamma_i) having all eleven
    roots real in [-2q, 2q].  Writing h = w + h_0 with h_0 the one unknown,
    the value y = -h_0 must satisfy the exact necessary window
    w(-2q) <= y <= w(2q); when the critical points of w are numerically clean
    the window sharpens to [max minima, min maxima].  An empty exact window
    rejects the sign rigorously; a small window yields integer candidates to
    test; anything else is left to an extra count.

    Returns ("infeasible", None), ("candidates", list of integer a_11) or
    ("unknown", None).
    """
    h = {11: Fraction(1)}
    for m in range(10, 0, -1):
        val = a_top[11 + m]
        j = 1
        while m + 2 * j <= 11:
            val -= h[m + 2 * j] * comb(m + 2 * j, j) * Fraction(q) ** (2 * j)
            j += 1
        h[m] = val
    w = UniPoly([Fraction(0)] + [h[k] for k in range(1, 11)] + [Fraction(1)])
    B = 2 * q
    w_lo = w.evaluate(Fraction(-B))
    w_hi = w.evaluate(Fraction(B))
    if w_lo > w_hi:
        return "infeasible", None
    integral = all(hh.denominator == 1 for hh in h.values())
    # numeric sharpening through the critical points of w
    wp = [float(k * h.get(k, Fraction(1))) if k <= 10 else 11.0 for k in range(1, 12)]
    crit = np.roots(wp[::-1])
    scale = 1.0 + np.abs(crit.real)
    clean = not np.any(np.abs(crit.imag) > 1e-9 * scale)
    cr = np.sort(crit.real)
    if clean and len(cr) > 1:
        clean = float(np.min(np.diff(cr))) > 1e-6 * (1.0 + float(np.max(np.abs(cr))))
    window = None
    if clean:
        if np.any(np.abs(cr) > B * (1 + 1e-6)):
            # eleven roots in the window force all ten criticals inside it
            return "infeasible", None
        wf = np.poly1d([float(c) for c in w.coeffs[::-1]])
        vals = wf(cr)
        lo = max(list(vals[1::2]) + [float(w_lo)])
        hi = min(list(vals[0::2]) + [float(w_hi)])
        if lo > hi + 1e-3 * max(1.0, abs(lo), abs(hi)):
            return "infeasible", None
        window = (lo, hi)
    if not integral:
        return "unknown", None
    if window is None:
        window = (float(w_lo), float(w_hi))
    import math

    y_lo, y_hi = math.floor(window[0] - 1), math.ceil(window[1] + 1)
    if y_hi - y_lo > 600:
        return "unknown", None
    shift = sum(h[2 * j] * comb(2 * j, j) * Fraction(q) ** (2 * j) for j in range(1, 6))
    return "candidates", [int(-y + shift) for y in range(y_lo, y_hi + 1)]


def frobenius_charpoly(counts: CountSeries) -> FrobeniusData:
    """Reconstruct the degree-22 Frobenius characteristic polynomial from the
    count series, selecting the functional-equation sign by the root-modulus
    (Weil) test."""
    if counts.max_n < 10:
        raise CountingError("need counts to n = 10 for a one-sided functional equation")
    q = counts.p
    t = [counts.counts[k - 1] - 1 - q ** (2 * k) for k in range(1, counts.max_n + 1)]
    a_top = _newton_coefficients(t)
    survivors = []
    plus_unknown = False
    for eps in (-1, 1):
        a_eps = dict(a_top)
        if eps == -1:
            if 11 not in a_eps:
                a_eps[11] = Fraction(0)
            elif a_eps[11] != 0:
                continue  # the minus sign forces a_11 = 0
        filled = _complete_with_sign(a_eps, eps, q)
        if filled == "inconsistent":
            continue
        if filled is None:
            verdict, cands = _plus_sign_feasibility(a_top, q)
            if verdict == "infeasible":
                continue
            if verdict == "unknown":
                plus_unknown = True
                continue
            found = None
            for a11 in cands:
                a_try = dict(a_top)
                a_try[11] = Fraction(a11)
                filled_try = _complete_with_sign(a_try, eps, q)
                conform = (
                    filled_try not in (None, "inconsistent")
                    and _weil_plausible(filled_try, q)
                    and _weil_conform(filled_try, q)
                )
                if found is not None:
                    # the conforming a_11 form an interval, so the neighbour
                    # of the first one decides whether it is the only one
                    if conform:
                        raise SignAmbiguous("sign ambiguous, need N_11")
                    break
                if conform:
                    found = filled_try
            if found is not None:
                survivors.append((eps, found))
            continue
        if _weil_conform(filled, q):
            survivors.append((eps, filled))
    if plus_unknown:
        raise SignAmbiguous("sign ambiguous, need N_11")
    if not survivors:
        raise InconsistentCounts("count series inconsistent: no Weil-conform sign")
    if len(survivors) > 1:
        raise SignAmbiguous("sign ambiguous, need N_11")
    eps, coeffs = survivors[0]
    return FrobeniusData(q=q, power_sums=t, coefficients=coeffs, sign=eps)


# ---------------------------------------------------------------------------
# Cyclotomic unit-root bound
# ---------------------------------------------------------------------------

def euler_phi(d: int) -> int:
    out = d
    m = d
    f = 2
    while f * f <= m:
        if m % f == 0:
            out -= out // f
            while m % f == 0:
                m //= f
        f += 1
    if m > 1:
        out -= out // m
    return out


@functools.lru_cache(maxsize=None)
def cyclotomic_polynomial(d: int) -> UniPoly:
    """Phi_d over Z by exact division of x^d - 1."""
    poly = UniPoly([-1] + [0] * (d - 1) + [1])
    for e in range(1, d):
        if d % e == 0:
            poly = poly.exact_div(cyclotomic_polynomial(e))
    return poly


@functools.lru_cache(maxsize=1)
def _cyclotomic_degrees_up_to_22() -> list[int]:
    # phi(d) <= 22 forces d <= 2 * 22^2; the actual maximum is 66
    return [d for d in range(1, 2 * 22 * 22 + 1) if euler_phi(d) <= 22]


def unit_root_bound(fd: FrobeniusData) -> int:
    """Number of normalized Frobenius eigenvalues that are roots of unity,
    counted with multiplicity: an upper bound for the geometric Picard rank
    of the reduction.  The normalized charpoly, times the lcm of its
    denominators, is divided in Z[T] by each monic Phi_d: exact there iff in Q[T]."""
    scale = lcm(*(c.denominator for c in fd.normalized))
    g = UniPoly([int(c * scale) for c in fd.normalized])
    bound = 0
    for d in _cyclotomic_degrees_up_to_22():
        phi = cyclotomic_polynomial(d)
        quo, rem = divmod(g, phi)
        while rem.is_zero() and not quo.is_zero():
            bound, g = bound + phi.degree, quo
            quo, rem = divmod(g, phi)
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


@functools.lru_cache(maxsize=64)
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
