"""2x2 matrices over the contraction ring: SU(2;j), its Lie algebra, U(1).

Entries are :class:`~ewverify.contraction.ContractionScalar` in the exact
modes (j=1 and j=iota) and plain complex floats after numeric reduction.
All matrix operations are entrywise-generic, so the same :class:`Mat2`
also serves field-valued matrices elsewhere in the package.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .contraction import ComplexRational, ContractionScalar, JMode
from .report import VerificationReport, timed, verdict

CS = ContractionScalar


class NotUnimodularError(ValueError):
    """Raised when |alpha|^2 + j^2 |beta|^2 does not reduce to 1."""


def _conj(entry):
    return entry.conjugate()


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

    @classmethod
    def zero(cls) -> "Mat2":
        return cls(((CS.zero(), CS.zero()), (CS.zero(), CS.zero())))

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
        return Mat2(((_conj(a), _conj(c)), (_conj(b), _conj(d))))

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


def su2_element(alpha, beta, mode: JMode) -> Mat2:
    """Group element [[alpha, j beta], [-j conj(beta), conj(alpha)]].

    Validates the determinant condition |alpha|^2 + j^2 |beta|^2 = 1 in the
    given mode (exactly in the rational modes, within 1e-12 numerically).
    """
    alpha = ComplexRational.of(alpha)
    beta = ComplexRational.of(beta)
    det = CS.term(alpha.abs2()) + CS.term(beta.abs2(), 2)
    reduced = det.reduce(mode)
    if mode.is_numeric:
        if abs(reduced - 1.0) > 1e-12:
            raise NotUnimodularError(
                f"determinant condition fails: {reduced} != 1"
            )
    elif reduced != CS.one():
        raise NotUnimodularError(f"determinant condition fails: {reduced!r} != 1")
    m = Mat2(
        (
            (CS.term(alpha), CS.term(beta, 1)),
            (CS.term(-beta.conjugate(), 1), CS.term(alpha.conjugate())),
        )
    )
    return m.reduce(mode)


def generator(k: int, mode: JMode) -> Mat2:
    """Lie algebra generators: T1 = j(i/2)tau1, T2 = j(i/2)tau2, T3 = (i/2)tau3."""
    if k not in (1, 2, 3):
        raise ValueError("generator index must be 1, 2, or 3")
    i2 = ComplexRational(0, Fraction(1, 2))
    z = CS.zero()
    if k == 1:
        m = Mat2(((z, CS.term(i2, 1)), (CS.term(i2, 1), z)))
    elif k == 2:
        m = Mat2(((z, CS.term(Fraction(1, 2), 1)), (CS.term(Fraction(-1, 2), 1), z)))
    else:
        m = Mat2(((CS.term(i2), z), (z, CS.term(-i2))))
    return m.reduce(mode)


def lie_element(a1, a2, a3, mode: JMode) -> Mat2:
    """General algebra element sum_k a_k T_k; satisfies T = -T^dagger."""
    a1, a2, a3 = Fraction(a1), Fraction(a2), Fraction(a3)
    i2 = ComplexRational(0, Fraction(1, 2))
    m = Mat2(
        (
            (CS.term(i2 * a3), CS.term(i2 * ComplexRational(a1, -a2), 1)),
            (CS.term(i2 * ComplexRational(a1, a2), 1), CS.term(-i2 * a3)),
        )
    )
    return m.reduce(mode)


@dataclass(frozen=True)
class Doublet:
    """Matter doublet (phi1, j phi2); the j weight is applied by the form."""

    phi1: ContractionScalar
    phi2: ContractionScalar

    @classmethod
    def of(cls, phi1, phi2) -> "Doublet":
        return cls(CS._coerce(phi1), CS._coerce(phi2))


def hermitian_form(phi: Doublet, mode: JMode):
    """|phi1|^2 + j^2 |phi2|^2, reduced in the given mode."""
    form = (
        phi.phi1.conjugate() * phi.phi1
        + CS.j(2) * phi.phi2.conjugate() * phi.phi2
    )
    return form.reduce(mode)


def apply_group_element(alpha, beta, phi: Doublet, mode: JMode) -> Doublet:
    """Action of the group element on (phi1, j phi2), solved for the components.

    phi1' = alpha phi1 + j^2 beta phi2 and phi2' = -conj(beta) phi1
    + conj(alpha) phi2; the j-weights cancel exactly so the fiber
    coordinate stays finite at contraction.
    """
    alpha = ComplexRational.of(alpha)
    beta = ComplexRational.of(beta)
    jj = CS.j(2).reduce(mode)
    if mode.is_numeric:
        raise ValueError("doublet action is defined for the exact modes")
    p1 = CS.term(alpha) * phi.phi1 + jj * CS.term(beta) * phi.phi2
    p2 = CS.term(-beta.conjugate()) * phi.phi1 + CS.term(alpha.conjugate()) * phi.phi2
    return Doublet(p1.reduce(mode), p2.reduce(mode))


# --- rational sampling helpers -------------------------------------------

def rational_circle_point(rng: random.Random) -> tuple[Fraction, Fraction]:
    """Exact rational (cos, sin) on the unit circle via the tangent half-angle map."""
    t = Fraction(rng.randint(-12, 12), rng.randint(1, 12))
    d = 1 + t * t
    return (1 - t * t) / d, 2 * t / d


def random_unit_complex(rng: random.Random) -> ComplexRational:
    c, s = rational_circle_point(rng)
    return ComplexRational(c, s)


def random_complex_rational(rng: random.Random, span: int = 6) -> ComplexRational:
    den = rng.randint(1, 4)
    return ComplexRational(
        Fraction(rng.randint(-span, span), den),
        Fraction(rng.randint(-span, span), den),
    )


def random_su2_pair(rng: random.Random, mode: JMode):
    """(alpha, beta) satisfying the mode's determinant condition exactly.

    For j=1 this draws |alpha|^2 + |beta|^2 = 1 from rational circle points;
    for j=iota (and the j=0 boundary) only |alpha| = 1 is constrained and
    beta ranges over a bounded rational box; a numeric j reuses the j=1
    construction rescaled so the determinant condition holds exactly.
    """
    if mode.is_nilpotent or (mode.is_numeric and mode.value == 0):
        return random_unit_complex(rng), random_complex_rational(rng)
    c, s = rational_circle_point(rng)
    alpha = ComplexRational(c) * random_unit_complex(rng)
    beta = ComplexRational(s) * random_unit_complex(rng)
    if mode.is_numeric:
        beta = beta / ComplexRational(mode.value)
    return alpha, beta


def random_doublet(rng: random.Random) -> Doublet:
    return Doublet(
        CS.term(random_complex_rational(rng)),
        CS.term(random_complex_rational(rng)),
    )


# --- group axiom verification --------------------------------------------

def _matrix_error(m: Mat2, target: Mat2, mode: JMode) -> float:
    """0.0 when equal in the mode's ring; max float deviation in numeric mode;
    inf on exact mismatch.  Products of j=iota elements acquire j^2 terms
    that vanish only under the mode reduction, so the difference is reduced
    before comparison."""
    diff = m - target
    if mode.is_numeric:
        return max_abs_entry(diff)
    return 0.0 if diff.reduce(mode).is_zero() else float("inf")


@timed
def verify_group(mode: JMode, samples: int, seed: int) -> VerificationReport:
    """Check determinant, unitarity, closure, form invariance, anti-hermiticity.

    All checks are exact in the rational modes; the numeric mode records the
    worst float deviation.  Failures are recorded in the report, not raised.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = random.Random(seed)
    max_err = 0.0
    failures: list[str] = []
    tol = 1e-12 if mode.is_numeric else 0.0
    identity = Mat2.identity().reduce(mode)

    for k in range(samples):
        a1, b1 = random_su2_pair(rng, mode)
        a2, b2 = random_su2_pair(rng, mode)
        try:
            omega = su2_element(a1, b1, mode)
            omega2 = su2_element(a2, b2, mode)
        except NotUnimodularError as exc:
            failures.append(f"sample {k}: {exc}")
            max_err = float("inf")
            continue

        err = _matrix_error(omega @ omega.dagger(), identity, mode)
        if err > tol:
            failures.append(f"sample {k}: unitarity violated ({err})")
        max_err = max(max_err, err)

        # closure: the product satisfies the determinant condition again
        prod = omega @ omega2
        det = prod.det()
        if mode.is_numeric:
            err = abs(det - 1.0)
        else:
            err = 0.0 if det.reduce(mode) == CS.one() else float("inf")
        if err > tol:
            failures.append(f"sample {k}: closure determinant ({err})")
        max_err = max(max_err, err)

        if not mode.is_numeric:
            phi = random_doublet(rng)
            before = hermitian_form(phi, mode)
            after = hermitian_form(apply_group_element(a1, b1, phi, mode), mode)
            if before != after:
                failures.append(f"sample {k}: hermitian form not invariant")
                max_err = float("inf")

        t = lie_element(
            Fraction(rng.randint(-5, 5)),
            Fraction(rng.randint(-5, 5)),
            Fraction(rng.randint(-5, 5)),
            mode,
        )
        err = _matrix_error(t + t.dagger(), Mat2.zero().reduce(mode), mode)
        if err > tol:
            failures.append(f"sample {k}: Lie element not anti-hermitian ({err})")
        max_err = max(max_err, err)

    # the contracted group's translation-like parameter is unbounded;
    # sampling covers a rational box only
    note = "beta drawn from a bounded rational box" if mode.is_nilpotent else None
    return verdict(
        "group-axioms",
        mode.label(),
        failures[:3],
        decision_path="numeric-oracle" if mode.is_numeric else "exact-symbolic",
        error=max_err,
        witness=note,
    )
