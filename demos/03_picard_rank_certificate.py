"""Certify geometric Picard rank 1 by counting points over F_{3^n}.

Counting the double cover over F_3 up to F_3^6 takes a fraction of a second
with the orbit kernel (pass depth=10 to recompute the full series; it takes
seconds).  The counts determine the Frobenius characteristic polynomial
on middle cohomology up to the sign of its functional equation; the sign is
fixed by the requirement that all roots have modulus 3.  Exactly two
normalized eigenvalues are roots of unity, so the geometric Picard rank over
F_3 is 2, generated by the pullback of the tritangent line 2x0 + x2 = 0,
printed as its normalised int triple (l0, l1, l2) = (1, 0, 2).
Because the reduction mod 11 has no tritangent line, rank 2 cannot lift, and
the surface over Q has rank 1.
"""

import sys

from k3hasse.picard import CountSeries, count_series, certify_rank_one, find_tritangent, frobenius_charpoly, unit_root_bound
from k3hasse.pipeline import load_fixtures
from k3hasse.surface import build_k3

depth = int(sys.argv[1]) if len(sys.argv) > 1 else 6

fx = load_fixtures()
X = build_k3(fx.sextet)
f = X.branch_sextic

series = count_series(f, 3, depth)
print(f"recomputed N_1..N_{depth}:", series.counts)
print("fixture counts:          ", list(fx.counts))
assert tuple(series.counts) == fx.counts[:depth]

full = CountSeries.from_counts(3, list(fx.counts))
fd = frobenius_charpoly(full)
print("\nfunctional equation sign:", fd.sign)
print("normalized charpoly (ascending):")
print(" ", [str(c) for c in fd.normalized])
print("unit-root bound:", unit_root_bound(fd))

print("\ntritangent line l0 x0 + l1 x1 + l2 x2 = 0 mod 3, (l0, l1, l2):", find_tritangent(f, 3))
print("tritangent line mod 11:", find_tritangent(f, 11))

cert = certify_rank_one(X, 3, 11, counts=full)
print("\ngeometric Picard rank:", cert.rank)
