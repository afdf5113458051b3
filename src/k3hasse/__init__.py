"""Degree-2 K3 surfaces from six seed quadrics, their 2-torsion quaternion
Brauer classes, and certified transcendental Brauer-Manin obstructions to the
Hasse principle.

The package is organised bottom-up:

- ``arith``:       exact integer services (probable primes, Jacobi symbols,
                   trial division)
- ``poly``:        ternary forms and univariate polynomials over exact rings
- ``finitefield``: F_p and F_{p^n} arithmetic, Zech logs, factorization
- ``localfield``:  places of Q, p-adic squares, Hilbert symbols
- ``surface``:     the K3 double cover w^2 = f built from six quadrics
- ``badred``:      bad-reduction analysis via resultant-chain elimination
- ``brauer``:      the quaternion class, local points, invariant profiles
- ``picard``:      point counting, Frobenius charpoly, rank-1 certificates
- ``pipeline``:    the staged search and the worked end-to-end verification
"""

from .localfield import Place, hilbert_symbol, padic_square
from .surface import K3Surface, QuadricSextet, build_k3, swap_projection

__all__ = [
    "K3Surface",
    "Place",
    "QuadricSextet",
    "build_k3",
    "hilbert_symbol",
    "padic_square",
    "swap_projection",
    "verify_example",
]


def verify_example(*args, **kwargs):
    """Re-derive the worked example end to end; see k3hasse.pipeline."""
    from .pipeline import verify_example as _impl

    return _impl(*args, **kwargs)
