"""2x2 matrices of :class:`~ewverify.fields.Expression` entries: SU(2;j)
and its Lie algebra.

The group element and the Lie algebra element are each written once at
j = 1, over the complex symbols alpha and beta and the real symbols eps1,
eps2, eps3, and contracted: beta, eps1 and eps2 are of grade 1.
The group axioms are decided for every group element by their normal form
with j kept (:func:`~ewverify.fields.group_normal_form_j`), taken once per
process and reduced in each mode; a numeric j is folded in exactly, so
every entry stays exact.
"""

from __future__ import annotations

import functools
from collections import namedtuple
from fractions import Fraction

from .contraction import ComplexRational, JMode
from .fields import (
    Expression, const, contract, field, group_normal_form_j, reduce_mode,
)
from .report import VerificationReport, timed, verdict, witness

_I_HALF = ComplexRational(0, Fraction(1, 2))


class Mat2(namedtuple("Mat2", "rows")):
    """Immutable 2x2 matrix of Expression entries; ``m[r, c]`` reads one.
    Entries multiply and add through the Expression operators, so each entry
    of a product is a pending expression, built on its first read."""

    __slots__ = ()

    def __new__(cls, rows):
        (a, b), (c, d) = rows
        return tuple.__new__(cls, (((a, b), (c, d)),))

    def __getitem__(self, rc):
        r, c = rc
        return self.rows[r][c]

    def __matmul__(self, other: "Mat2") -> "Mat2":
        (e, f), (g, h) = other.rows
        return Mat2([[a * e + b * g, a * f + b * h] for a, b in self.rows])

    def __add__(self, other: "Mat2") -> "Mat2":
        return Mat2([[x + y for x, y in zip(r, s)] for r, s in zip(self.rows, other.rows)])

    def dagger(self) -> "Mat2":
        (a, b), (c, d) = self.rows
        return Mat2(((a.conjugate(), c.conjugate()), (b.conjugate(), d.conjugate())))

    def det(self):
        (a, b), (c, d) = self.rows
        return a * d - b * c

    def trace_product(self, other: "Mat2"):
        """tr(self @ other): only the diagonal's products, summed pending."""
        (a, b), (c, d) = self.rows
        (e, f), (g, h) = other.rows
        return a * e + b * g + c * f + d * h

    def contract(self) -> "Mat2":
        return Mat2([[contract(e) for e in r] for r in self.rows])


def _omega(alpha, beta) -> Mat2:
    """[[alpha, beta], [-conj(beta), conj(alpha)]]: the group element at j = 1."""
    return Mat2(((alpha, beta), (-beta.conjugate(), alpha.conjugate())))


def _lie(a1, a2, a3) -> Mat2:
    """sum_k a_k T_k at j = 1, with T_k = (i/2) tau_k."""
    x, y, z = a1 * _I_HALF, a2 * Fraction(1, 2), a3 * _I_HALF
    return Mat2(((z, x + y), (x - y, -z)))


def symbolic_element(alpha: str, beta: str) -> Mat2:
    """[[alpha, j beta], [-j conj(beta), conj(alpha)]] over the named symbols."""
    return _omega(field(alpha), field(beta)).contract()


def symbolic_lie_element() -> Mat2:
    """sum_k eps_k T_k, T1,2 = j(i/2)tau1,2 and T3 = (i/2)tau3, over eps1..eps3."""
    return _lie(field("eps1"), field("eps2"), field("eps3")).contract()


# --- group axiom verification --------------------------------------------

@functools.lru_cache(maxsize=1)
def _axiom_forms() -> dict[str, tuple[Expression, ...]]:
    """Each axiom as expressions that vanish on the whole group, in their
    normal form with j kept: built once, the same for every mode."""
    omega = symbolic_element("alpha", "beta")
    unit = omega @ omega.dagger()
    zero = const(0)  # the doublet is the column (phi1, j phi2)
    doublet = Mat2(((field("phi1"), zero), (field("phi2"), zero))).contract()
    moved = omega @ doublet
    lie = symbolic_lie_element()
    axioms = {
        "unitarity": (unit[0, 0] - 1, unit[0, 1], unit[1, 0], unit[1, 1] - 1),
        "closure": ((omega @ symbolic_element("alpha2", "beta2")).det() - 1,),
        "form invariance": ((moved.dagger() @ moved)[0, 0]
                            - (doublet.dagger() @ doublet)[0, 0],),
        "anti-hermiticity": sum((lie + lie.dagger()).rows, ()),
    }
    return {name: tuple(map(group_normal_form_j, exprs)) for name, exprs in axioms.items()}


def _group_failures(mode: JMode) -> list[str]:
    """The first axiom form that ``mode`` leaves nonzero is that axiom's
    witness."""
    failures = []
    for name, forms in _axiom_forms().items():
        for nf in forms:
            found = witness(reduce_mode(nf, mode), name)
            if found:
                failures += found
                break
    return failures


@timed
def verify_group(mode: JMode) -> VerificationReport:
    """Check unitarity, closure, form invariance and anti-hermiticity.

    Each axiom is decided for every group element by its normal form with
    j kept, reduced in ``mode``; a numeric j is folded in exactly.
    Failures are recorded in the report, not raised.
    """
    return verdict("group-axioms", mode.label(), _group_failures(mode)[:3])
