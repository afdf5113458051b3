"""The degree-2 K3 surface built from six seed quadrics.

A sextet (A, ..., F) of integer ternary quadratic forms determines the
bidegree-(2,2) hypersurface

    A y0^2 + B y0y1 + C y0y2 + D y1^2 + E y1y2 + F y2^2 = 0

and the double cover w^2 = f with branch sextic f = -(1/2) det M for
M = [[2A, B, C], [B, 2D, E], [C, E, 2F]].  The determinant structure makes f
integral.  A sextet is its 36 integer coefficients in the monomial order of
:func:`k3hasse.poly.monomials_of_degree`, which stage 1 reads; the six forms
are built on first use (``forms()``, ``A`` .. ``F``, ``build_k3``).
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass
from functools import cached_property

from .poly import FormModP, TernaryForm

FORM_KEYS = ("A", "B", "C", "D", "E", "F")


@dataclass(frozen=True)
class QuadricSextet:
    """A..F as their 36 integer coefficients, row by row, which equality and
    hashing read; the ``TernaryForm``s are built on first use."""

    coefficients: tuple[int, ...]

    def __post_init__(self):
        if len(self.coefficients) != 36:
            raise ValueError("a sextet needs 6 quadratic forms of 6 coefficients")
        if set(map(type, self.coefficients)) != {int}:
            for i, c in enumerate(self.coefficients):
                if not isinstance(c, int) or isinstance(c, bool):
                    raise TypeError(f"form {FORM_KEYS[i // 6]}: coefficient {c!r} is not an int")

    @cached_property
    def _forms(self) -> tuple[TernaryForm, ...]:
        return tuple(TernaryForm.from_coefficients(2, row) for row in self.rows())

    def forms(self) -> tuple[TernaryForm, ...]:
        return self._forms

    A, B, C, D, E, F = (property(lambda self, i=i: self._forms[i]) for i in range(6))

    def rows(self) -> list[tuple[int, ...]]:
        c = self.coefficients
        return [c[i:i + 6] for i in range(0, 36, 6)]

    @classmethod
    def from_coefficients(cls, rows) -> "QuadricSextet":
        """Six rows of six integers, each [x0^2, x0x1, x0x2, x1^2, x1x2, x2^2]."""
        rows = [tuple(row) for row in rows]
        if len(rows) != 6 or any(len(row) != 6 for row in rows):
            raise ValueError("a sextet needs 6 quadratic forms of 6 coefficients")
        return cls(sum(rows, ()))

    @classmethod
    def from_forms(cls, *forms: TernaryForm) -> "QuadricSextet":
        """The sextet of six quadratic forms A..F with integer coefficients."""
        return cls.from_coefficients(form.coefficients() for form in forms)

    @classmethod
    def from_json(cls, text: str) -> "QuadricSextet":
        """An object with exactly the keys "A".."F", each six integers."""
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError("a sextet is a JSON object with keys A..F")
        for key in FORM_KEYS:
            if key not in data:
                raise ValueError(f"sextet JSON lacks the key {key!r}")
            if not isinstance(data[key], list):
                raise TypeError(f"form {key}: {data[key]!r} is not a list of coefficients")
        for key in data:
            if key not in FORM_KEYS:
                raise ValueError(f"sextet JSON has the unknown key {key!r}")
        return cls.from_coefficients(data[k] for k in FORM_KEYS)

    def to_json(self) -> str:
        return json.dumps(
            {k: [int(c) for c in row] for k, row in zip(FORM_KEYS, self.rows())},
            indent=2,
        )


@dataclass(frozen=True)
class K3Surface:
    """w^2 = branch_sextic in P(1,1,1,3), remembering the generating sextet."""

    branch_sextic: TernaryForm
    sextet: QuadricSextet


def build_k3(q: QuadricSextet) -> K3Surface:
    """The double cover branch sextic -(1/2) det M, exactly over Z."""
    A, B, C, D, E, F = q.forms()
    f = A * (E * E) + (B * B) * F + (C * C) * D - B * C * E - (A * D * F).scale(4)
    return K3Surface(branch_sextic=f, sextet=q)


def swap_projection(q: QuadricSextet) -> QuadricSextet:
    """Read the bidegree-(2,2) form with the roles of x and y exchanged.

    The 6x6 coefficient matrix (forms by monomials) transposes, so the
    operation is an involution.
    """
    return QuadricSextet.from_coefficients(zip(*q.rows()))


# ---------------------------------------------------------------------------
# Smoothness and the coefficient conditions controlling real/2-adic invariants
# ---------------------------------------------------------------------------

def is_smooth_curve(f: TernaryForm) -> bool:
    """Is the plane curve f = 0, over a finite field, smooth over the
    algebraic closure?

    Decided by the resultant-chain elimination of :mod:`k3hasse.badred` over
    the coefficient field of f.  A form over Z or Q raises TypeError: reduce
    it mod a prime of good reduction, whose smoothness implies smoothness
    over Q.  The zero form raises ValueError.
    """
    from .badred import singular_locus_nonempty

    return not singular_locus_nonempty(f)


def _is_definite(c, sign: int) -> bool:
    """Is the quadratic form with coefficient row c definite of the given
    sign?  Exact signs of the leading principal minors of its doubled Gram
    matrix [[2c0, c1, c2], [c1, 2c3, c4], [c2, c4, 2c5]]."""
    m1 = 2 * c[0]
    m2 = 4 * c[0] * c[3] - c[1] * c[1]
    m3 = 8 * c[0] * c[3] * c[5] + 2 * c[1] * c[4] * c[2] - 2 * (
        c[0] * c[4] * c[4] + c[1] * c[1] * c[5] + c[2] * c[2] * c[3]
    )
    return sign * m1 > 0 and m2 > 0 and sign * m3 > 0


def check_real_conditions(q: QuadricSextet) -> bool:
    """A, D, F negative definite and B, C, E positive definite."""
    A, B, C, D, E, F = q.rows()
    return (
        _is_definite(A, -1) and _is_definite(D, -1) and _is_definite(F, -1)
        and _is_definite(B, +1) and _is_definite(C, +1) and _is_definite(E, +1)
    )


#: ((residue, modulus), sign) of each coefficient of A..F, row by row: the
#: 2-adic congruences (mod 8 with residue 0 is v_2 >= 3, residue 1 mod 2 is
#: odd) and the diagonal sign pattern of the definiteness conditions; sign 0
#: is free, +1 positive, -1 negative
COEFFICIENT_PATTERNS = (
    ((1, 8), -1), ((0, 8), 0), ((0, 8), 0), ((0, 8), -1), ((0, 8), 0), ((0, 8), -1),
    ((1, 2), +1), ((0, 2), 0), ((0, 2), 0), ((0, 2), +1), ((0, 2), 0), ((0, 2), +1),
    ((0, 2), +1), ((0, 2), 0), ((0, 2), 0), ((0, 2), +1), ((0, 2), 0), ((1, 2), +1),
    ((0, 8), -1), ((0, 8), 0), ((0, 8), 0), ((1, 8), -1), ((0, 8), 0), ((0, 8), -1),
    ((0, 2), +1), ((0, 2), 0), ((0, 2), 0), ((1, 2), +1), ((0, 2), 0), ((0, 2), +1),
    ((0, 8), -1), ((0, 8), 0), ((0, 8), 0), ((0, 8), -1), ((0, 8), 0), ((1, 8), -1),
)


_RESIDUES, _MODULI = zip(*(rm for rm, _ in COEFFICIENT_PATTERNS))


def check_2adic_conditions(q: QuadricSextet) -> bool:
    """The coefficient-wise congruences of ``COEFFICIENT_PATTERNS`` that force
    the 2-adic invariant of the quaternion class to vanish."""
    return tuple(map(operator.mod, q.coefficients, _MODULI)) == _RESIDUES


def reduce_mod(form: TernaryForm, field) -> FormModP:
    """An integer form reduced into the given finite field: int
    coefficients in [0, p), tagged with the field."""
    return FormModP(form, field)
