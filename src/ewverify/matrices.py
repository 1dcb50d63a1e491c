"""2x2 matrices over any commutative ring: SU(2;j) and its Lie algebra.

The group element and the Lie algebra element are each written once, for
any entry ring.  With :class:`~ewverify.fields.Expression` entries over the
complex symbols alpha and beta they are symbolic, and the group axioms are
decided in every mode, for every group element, by
:func:`~ewverify.fields.group_normal_form`.  With
:class:`~ewverify.contraction.ContractionScalar` entries they are numbers:
the generators, the commutator table and single group elements.
"""

from __future__ import annotations

from fractions import Fraction

from .contraction import ComplexRational, ContractionScalar, JMode
from .fields import const, field, group_normal_form, jpow
from .report import VerificationReport, timed, verdict

CS = ContractionScalar
_I_HALF = ComplexRational(0, Fraction(1, 2))


class NotUnimodularError(ValueError):
    """Raised when |alpha|^2 + j^2 |beta|^2 does not reduce to 1."""


def _is_zero(entry) -> bool:
    if isinstance(entry, ContractionScalar):
        return entry.is_zero()
    return entry == 0


class Mat2:
    """Immutable 2x2 matrix over any commutative ring with ``conjugate()``."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        (a, b), (c, d) = rows
        object.__setattr__(self, "rows", ((a, b), (c, d)))

    def __setattr__(self, name, value):
        raise AttributeError("Mat2 is immutable")

    @classmethod
    def identity(cls) -> "Mat2":
        return cls(((CS.one(), CS.zero()), (CS.zero(), CS.one())))

    def __getitem__(self, rc):
        r, c = rc
        return self.rows[r][c]

    def __matmul__(self, other: "Mat2") -> "Mat2":
        a, b = self.rows
        c, d = other.rows
        return Mat2(
            (
                (a[0] * c[0] + a[1] * d[0], a[0] * c[1] + a[1] * d[1]),
                (b[0] * c[0] + b[1] * d[0], b[0] * c[1] + b[1] * d[1]),
            )
        )

    def __add__(self, other: "Mat2") -> "Mat2":
        return Mat2(
            tuple(
                tuple(x + y for x, y in zip(r1, r2))
                for r1, r2 in zip(self.rows, other.rows)
            )
        )

    def __sub__(self, other: "Mat2") -> "Mat2":
        return Mat2(
            tuple(
                tuple(x - y for x, y in zip(r1, r2))
                for r1, r2 in zip(self.rows, other.rows)
            )
        )

    def __neg__(self) -> "Mat2":
        return Mat2(tuple(tuple(-x for x in r) for r in self.rows))

    def scale(self, c) -> "Mat2":
        return Mat2(tuple(tuple(c * x for x in r) for r in self.rows))

    def dagger(self) -> "Mat2":
        (a, b), (c, d) = self.rows
        return Mat2(((a.conjugate(), c.conjugate()), (b.conjugate(), d.conjugate())))

    def det(self):
        (a, b), (c, d) = self.rows
        return a * d - b * c

    def trace(self):
        return self.rows[0][0] + self.rows[1][1]

    def reduce(self, mode: JMode) -> "Mat2":
        # entries already reduced to plain complex pass through unchanged
        a, b, c, d = (e.reduce(mode) if isinstance(e, ContractionScalar) else e
                      for r in self.rows for e in r)
        return Mat2(((a, b), (c, d)))

    def is_zero(self) -> bool:
        return all(_is_zero(x) for r in self.rows for x in r)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Mat2):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self) -> str:
        return f"Mat2({self.rows!r})"


def commutator(x: Mat2, y: Mat2, mode: JMode | None = None) -> Mat2:
    out = x @ y - y @ x
    return out.reduce(mode) if mode is not None else out


def max_abs_entry(m: Mat2) -> float:
    """Largest |entry| for a matrix with complex entries."""
    return max(abs(x) for r in m.rows for x in r)


def _omega(alpha, beta, j) -> Mat2:
    """[[alpha, j beta], [-j conj(beta), conj(alpha)]] over any ring."""
    return Mat2(((alpha, j * beta), (-(j * beta.conjugate()), alpha.conjugate())))


def _lie(a1, a2, a3, j, one) -> Mat2:
    """sum_k a_k T_k, with T1 = j(i/2)tau1, T2 = j(i/2)tau2, T3 = (i/2)tau3."""
    x, y, z = a1 * _I_HALF, a2 * Fraction(1, 2), a3 * _I_HALF
    return Mat2(((one * z, j * (x + y)), (j * (x - y), one * -z)))


def su2_element(alpha, beta, mode: JMode) -> Mat2:
    """Group element [[alpha, j beta], [-j conj(beta), conj(alpha)]].

    Exact modes only (j = 1 or j = iota): validates the determinant
    condition |alpha|^2 + j^2 |beta|^2 = 1 exactly and raises
    ``ValueError`` for a numeric mode.
    """
    if mode.is_numeric:
        raise ValueError("su2_element takes an exact mode, not a numeric j")
    alpha = ComplexRational.of(alpha)
    beta = ComplexRational.of(beta)
    det = CS.term(alpha.abs2()) + CS.term(beta.abs2(), 2)
    reduced = det.reduce(mode)
    if reduced != CS.one():
        raise NotUnimodularError(f"determinant condition fails: {reduced!r} != 1")
    return _omega(CS.term(alpha), CS.term(beta), CS.j()).reduce(mode)


def symbolic_element(alpha: str, beta: str) -> Mat2:
    """The group element over the complex symbols ``alpha`` and ``beta``."""
    return _omega(field(alpha), field(beta), jpow())


def generator(k: int, mode: JMode) -> Mat2:
    """Lie algebra generator T_k: the element with a_k = 1 and the rest 0."""
    if k not in (1, 2, 3):
        raise ValueError("generator index must be 1, 2, or 3")
    return lie_element(*(int(n == k) for n in (1, 2, 3)), mode)


def lie_element(a1, a2, a3, mode: JMode) -> Mat2:
    """General algebra element sum_k a_k T_k; satisfies T = -T^dagger."""
    return _lie(a1, a2, a3, CS.j(), CS.one()).reduce(mode)


def symbolic_lie_element() -> Mat2:
    """sum_k eps_k T_k over the real symbols eps1, eps2, eps3."""
    return _lie(field("eps1"), field("eps2"), field("eps3"), jpow(), const(1))


# --- group axiom verification --------------------------------------------

def _group_failures(mode: JMode) -> list[str]:
    """Each axiom as expressions that vanish on the whole group; the first
    nonzero normal form of an axiom is its witness."""
    omega = symbolic_element("alpha", "beta")
    unit = omega @ omega.dagger()
    doublet = Mat2(((field("phi1"), 0), (jpow() * field("phi2"), 0)))  # (phi1, j phi2)
    moved = omega @ doublet
    lie = symbolic_lie_element()
    axioms = {
        "unitarity": (unit[0, 0] - 1, unit[0, 1], unit[1, 0], unit[1, 1] - 1),
        "closure": ((omega @ symbolic_element("alpha2", "beta2")).det() - 1,),
        "form invariance": ((moved.dagger() @ moved)[0, 0]
                            - (doublet.dagger() @ doublet)[0, 0],),
        "anti-hermiticity": sum((lie + lie.dagger()).rows, ()),
    }
    failures = []
    for name, exprs in axioms.items():
        for nf in (group_normal_form(e, mode) for e in exprs):
            if nf:
                failures.append(f"{name}: {str(nf)[:200]}")
                break
    return failures


@timed
def verify_group(mode: JMode) -> VerificationReport:
    """Check unitarity, closure, form invariance and anti-hermiticity.

    Each axiom is decided once for every group element by its normal form
    in ``mode``; a numeric j is folded in exactly.  Failures are recorded
    in the report, not raised.
    """
    return verdict("group-axioms", mode.label(), _group_failures(mode)[:3])
