"""Build the K3 surface of the worked example and inspect its structure.

Six integer ternary quadratic forms A..F determine a bidegree-(2,2)
hypersurface in P^2 x P^2; the discriminant of the associated quadric bundle
is a plane sextic, and the double cover w^2 = f of P^2 branched over it is a
K3 surface of degree 2.  The same sextet, read with the roles of the two P^2
factors exchanged, gives a second K3.
"""

from k3hasse.finitefield import prime_field
from k3hasse.pipeline import load_fixtures
from k3hasse.surface import (
    build_k3,
    check_2adic_conditions,
    check_real_conditions,
    is_smooth_curve,
    reduce_mod,
    swap_projection,
)

sextet = load_fixtures().sextet
print("seed quadrics:")
for key in "ABCDEF":
    print(f"  {key} = {getattr(sextet, key).coefficients()}")

X = build_k3(sextet)
f = X.branch_sextic
print("\nbranch sextic (graded-lex coefficients):")
print(" ", f.coefficients())
print("\nf(0, 0, -1) =", f.evaluate((0, 0, -1)))

# a nonzero sextic that is smooth mod 3 is smooth over Q
print("\nsmooth mod 3, hence over Q:", is_smooth_curve(reduce_mod(f, prime_field(3))))
print("definiteness pattern (A,D,F negative / B,C,E positive):", check_real_conditions(sextet))
print("2-adic coefficient congruences:", check_2adic_conditions(sextet))

swapped = swap_projection(sextet)
Y = build_k3(swapped)
print("\nswapped projection gives the second branch sextic; its value at (1,1,1):",
      Y.branch_sextic.evaluate((1, 1, 1)))
print("swap is an involution:", swap_projection(swapped) == sextet)
