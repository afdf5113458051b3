"""The discriminant factorization chain and per-prime singularity analysis.

The primes of bad reduction divide a 346-digit integer m.  Trial division
strips its small prime powers; the 318-digit remainder resists factorization,
but the second K3 surface of the construction supplies a 315-digit integer n
whose bad primes must overlap, and the Euclidean gcd of the two rough
cofactors is a 186-digit prime.  Dividing it out leaves exactly the square of
a 66-digit prime, completing the factorization.  Resultant chains then verify
singularity modulo every listed prime (including the two giants) and classify
each singular locus: ordinary double points only, fewer than eight, which is
the hypothesis forcing constant invariants at these places.  The chains share
one elimination over Z: the three resultants of the sextic's partials are
computed once over the integers and reduced mod each prime, except at 3 and 7,
where a partial's leading x2 coefficient vanishes and the chain runs mod p.
"""

from math import gcd

from k3hasse.arith import probable_prime, strip_small_factors
from k3hasse.badred import is_bad_prime, singular_points
from k3hasse.pipeline import load_fixtures
from k3hasse.surface import build_k3

fx = load_fixtures()
f = build_k3(fx.sextet).branch_sextic

factors_m, m_prime = strip_small_factors(fx.m)
print("m =", " * ".join(f"{p}^{e}" if e > 1 else str(p) for p, e in factors_m), "* m'")
print("m' has", len(str(m_prime)), "digits")
factors_n, n_prime = strip_small_factors(fx.n)
print("n =", " * ".join(f"{p}^{e}" if e > 1 else str(p) for p, e in factors_n), "* n'")

g = gcd(m_prime, n_prime)
print("\ngcd(m', n') has", len(str(g)), "digits; probable prime:", probable_prime(g))
cofactor = m_prime // g
print("m' / gcd = (66-digit prime)^2:", cofactor == fx.prime66**2, "| prime:", probable_prime(fx.prime66))

print("\nper-prime singularity (odd bad primes):")
for p in fx.bad_primes:
    if p == 2:
        continue
    label = str(p) if p < 10**7 else f"{str(p)[:10]}...({len(str(p))} digits)"
    assert is_bad_prime(f, p)
    report = singular_points(f, p, 6)
    kinds = ", ".join(f"{pt.kind} (deg {pt.residue_degree})" for pt in report.points)
    print(f"  p = {label:>24}: r = {report.r}, {kinds}")

for p in (3, 11, 13):
    print(f"  p = {p:>24}: good reduction ({not is_bad_prime(f, p)})")
