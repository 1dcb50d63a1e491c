"""Exact arithmetic for the contraction parameter j.

A :class:`ComplexRational` is a Gaussian rational stored as a reduced
integer triple ``(a, b, d)`` meaning ``(a + b*i) / d``, with ``d > 0`` and
``gcd(a, b, d) == 1``.  Every operation is integer arithmetic followed by
one three-way gcd, and equal values have equal triples.

A :class:`ContractionScalar` is a polynomial ``a0 + a1*j + a2*j^2 + ...``
with :class:`ComplexRational` coefficients.  The parameter j can later be
interpreted three ways (:class:`JMode`): as 1, as the nilpotent unit
``iota`` with ``iota^2 = 0``, or as a small real number.  Multiplication
never truncates; truncation happens only in :meth:`ContractionScalar.reduce`,
so the full j-grading of any product stays readable.

Division by j is a partial operation: ``a/j`` exists only when the
degree-0 part of ``a`` vanishes (identical units cancel, but a plain
number divided by the nilpotent unit is undefined).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Union

RationalLike = Union[int, Fraction]

_new = object.__new__


class DivisionUndefinedError(ZeroDivisionError):
    """Raised when dividing by j a scalar with a nonzero degree-0 part."""


class ComplexRational:
    """Complex number with exact rational real and imaginary parts.

    Immutable; stored as the reduced triple ``(a, b, d)`` described in the
    module docstring.  ``re`` and ``im`` are read back as Fractions.
    """

    __slots__ = ("_abd",)

    def __init__(self, re: RationalLike = 0, im: RationalLike = 0):
        if not isinstance(re, (int, Fraction)):
            re = Fraction(re)
        if not isinstance(im, (int, Fraction)):
            im = Fraction(im)
        # over the lcm of two reduced denominators the triple is already reduced
        d = lcm(re.denominator, im.denominator)
        _set_abd(self, (re.numerator * (d // re.denominator),
                        im.numerator * (d // im.denominator), d))

    def __setattr__(self, name, value):
        raise AttributeError("ComplexRational is immutable")

    @classmethod
    def of(cls, value) -> "ComplexRational":
        if isinstance(value, ComplexRational):
            return value
        if isinstance(value, (int, Fraction, float)):
            return cls(value)
        raise TypeError(f"cannot interpret {value!r} as a complex rational")

    @property
    def re(self) -> Fraction:
        a, _, d = self._abd
        return Fraction(a, d)

    @property
    def im(self) -> Fraction:
        _, b, d = self._abd
        return Fraction(b, d)

    def __add__(self, other) -> "ComplexRational":
        a, b, d = self._abd
        oa, ob, od = _triple(other)
        if d == od:
            return _make(a + oa, b + ob, d)
        return _make(a * od + oa * d, b * od + ob * d, d * od)

    __radd__ = __add__

    def __sub__(self, other) -> "ComplexRational":
        a, b, d = self._abd
        oa, ob, od = _triple(other)
        if d == od:
            return _make(a - oa, b - ob, d)
        return _make(a * od - oa * d, b * od - ob * d, d * od)

    def __rsub__(self, other) -> "ComplexRational":
        return ComplexRational.of(other) - self

    def __mul__(self, other) -> "ComplexRational":
        a, b, d = self._abd
        oa, ob, od = _triple(other)
        return _make(a * oa - b * ob, a * ob + b * oa, d * od)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "ComplexRational":
        a, b, d = self._abd
        oa, ob, od = _triple(other)
        n = oa * oa + ob * ob
        if n == 0:
            raise ZeroDivisionError("division by zero complex rational")
        # (a + b i)(oa - ob i) od / (d |oa + ob i|^2)
        return _make((a * oa + b * ob) * od, (b * oa - a * ob) * od, d * n)

    def __neg__(self) -> "ComplexRational":
        a, b, d = self._abd
        return _make(-a, -b, d)

    def conjugate(self) -> "ComplexRational":
        a, b, d = self._abd
        return _make(a, -b, d)

    def abs2(self) -> Fraction:
        """Exact squared modulus."""
        a, b, d = self._abd
        return Fraction(a * a + b * b, d * d)

    def is_zero(self) -> bool:
        return self._abd == _ZERO_ABD

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __eq__(self, other) -> bool:
        if isinstance(other, ComplexRational):
            return self._abd == other._abd
        if isinstance(other, (int, Fraction)):
            a, b, d = self._abd
            return b == 0 and a * other.denominator == other.numerator * d
        return NotImplemented

    def __hash__(self):
        return hash(self._abd)

    def __complex__(self) -> complex:
        # int / int is correctly rounded, as float(Fraction) is
        a, b, d = self._abd
        return complex(a / d, b / d)

    def __repr__(self) -> str:
        re, im = self.re, self.im
        if im == 0:
            return str(re)
        if re == 0:
            return f"{im}i"
        sign = "+" if im > 0 else "-"
        return f"({re}{sign}{abs(im)}i)"


_set_abd = ComplexRational._abd.__set__
_ZERO_ABD = (0, 0, 1)  # the one triple of zero


def _triple(value) -> tuple[int, int, int]:
    """The triple of a ComplexRational operand, or of a plain number."""
    if type(value) is ComplexRational:
        return value._abd
    return ComplexRational.of(value)._abd


def _make(a: int, b: int, d: int) -> ComplexRational:
    """``(a + b i) / d`` for ``d > 0``, reduced by one three-way gcd."""
    g = gcd(a, b, d)
    if g != 1:
        a //= g
        b //= g
        d //= g
    z = _new(ComplexRational)
    _set_abd(z, (a, b, d))
    return z


CR_ZERO = ComplexRational(0)
CR_ONE = ComplexRational(1)
CR_I = ComplexRational(0, 1)


class JMode:
    """Interpretation of the contraction parameter: 1, iota, or a small real."""

    __slots__ = ("kind", "value")

    def __init__(self, kind: str, value: Fraction | None = None):
        if kind not in ("one", "nilpotent", "numeric"):
            raise ValueError(f"unknown JMode kind {kind!r}")
        if kind == "numeric":
            value = Fraction(value)
            # The j->0 limit itself is admitted as the boundary value.
            if value < 0:
                raise ValueError("numeric j value must be finite and >= 0")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "value", value)

    def __setattr__(self, name, value):
        raise AttributeError("JMode is immutable")

    @classmethod
    def numeric(cls, value) -> "JMode":
        return cls("numeric", Fraction(value))

    @classmethod
    def from_text(cls, text: str) -> "JMode":
        """Parse '1', 'iota', or a number (e.g. '0.01', '1/100')."""
        t = text.strip().lower()
        if t == "1":
            return J_ONE
        if t in ("iota", "nilpotent"):
            return J_NILPOTENT
        try:
            value = Fraction(t)
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"cannot parse j mode from {text!r}") from None
        return cls.numeric(value)  # a negative value fails its range check

    @property
    def is_one(self) -> bool:
        return self.kind == "one"

    @property
    def is_nilpotent(self) -> bool:
        return self.kind == "nilpotent"

    @property
    def is_numeric(self) -> bool:
        return self.kind == "numeric"

    def __eq__(self, other) -> bool:
        if not isinstance(other, JMode):
            return NotImplemented
        return self.kind == other.kind and self.value == other.value

    def __hash__(self):
        return hash((self.kind, self.value))

    def __repr__(self) -> str:
        if self.kind == "numeric":
            return f"JMode.numeric({self.value})"
        return {"one": "J_ONE", "nilpotent": "J_NILPOTENT"}[self.kind]

    def label(self) -> str:
        if self.kind == "one":
            return "j=1"
        if self.kind == "nilpotent":
            return "j=iota"
        return f"j={float(self.value):g}"


J_ONE = JMode("one")
J_NILPOTENT = JMode("nilpotent")
# The modes a suite runs when none is selected: j = 1, iota and 0.001.
DEFAULT_MODES = (J_ONE, J_NILPOTENT, JMode.numeric(Fraction(1, 1000)))


class ContractionScalar:
    """Polynomial in j with :class:`ComplexRational` coefficients.

    Immutable; zero coefficients are never stored.  Negative j-degrees are
    not representable, which keeps :meth:`divide_by_j` an explicit partial
    operation instead of silently extending the ring.
    """

    __slots__ = ("_coeffs",)

    def __new__(cls, coeffs=()):
        return _scalar({_degree(degree): ComplexRational.of(value)
                        for degree, value in dict(coeffs).items()})

    def __setattr__(self, name, value):
        raise AttributeError("ContractionScalar is immutable")

    @classmethod
    def term(cls, value, degree: int = 0) -> "ContractionScalar":
        return _scalar({_degree(degree): ComplexRational.of(value)})

    @classmethod
    def zero(cls) -> "ContractionScalar":
        return cls()

    @classmethod
    def one(cls) -> "ContractionScalar":
        return cls.term(1)

    @classmethod
    def j(cls, power: int = 1) -> "ContractionScalar":
        return cls.term(1, power)

    @property
    def coeffs(self):
        return self._coeffs

    def coeff(self, degree: int) -> ComplexRational:
        for d, v in self._coeffs:
            if d == degree:
                return v
        return CR_ZERO

    def is_zero(self) -> bool:
        return not self._coeffs

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    @staticmethod
    def _coerce(value) -> "ContractionScalar":
        if isinstance(value, ContractionScalar):
            return value
        return _scalar({0: ComplexRational.of(value)})

    def __add__(self, other) -> "ContractionScalar":
        out = dict(self._coeffs)
        for d, v in self._coerce(other)._coeffs:
            out[d] = out[d] + v if d in out else v
        return _scalar(out)

    __radd__ = __add__

    def __sub__(self, other) -> "ContractionScalar":
        out = dict(self._coeffs)
        for d, v in self._coerce(other)._coeffs:
            out[d] = out[d] - v if d in out else -v
        return _scalar(out)

    def __rsub__(self, other) -> "ContractionScalar":
        return self._coerce(other) - self

    def __neg__(self) -> "ContractionScalar":
        return _scalar({d: -v for d, v in self._coeffs})

    def __mul__(self, other) -> "ContractionScalar":
        right = self._coerce(other)._coeffs
        out: dict[int, ComplexRational] = {}
        for d1, v1 in self._coeffs:
            for d2, v2 in right:
                d = d1 + d2
                p = v1 * v2
                out[d] = out[d] + p if d in out else p
        return _scalar(out)

    __rmul__ = __mul__

    def conjugate(self) -> "ContractionScalar":
        """Complex-conjugate the coefficients; j itself is real."""
        return _scalar({d: v.conjugate() for d, v in self._coeffs})

    def divide_by_j(self) -> "ContractionScalar":
        """Cancel one power of j.  Defined only when the degree-0 part is zero."""
        if not self.coeff(0).is_zero():
            raise DivisionUndefinedError(
                "cannot divide by j: scalar has a nonzero degree-0 part"
            )
        return _scalar({d - 1: v for d, v in self._coeffs})

    def reduce(self, mode: JMode):
        """Interpret j according to ``mode``.

        j=1 sums all coefficients; j=iota drops degrees >= 2; a numeric j
        evaluates the polynomial and returns a complex float.
        """
        if mode.is_one:
            return _scalar({0: sum((v for _, v in self._coeffs), CR_ZERO)})
        if mode.is_nilpotent:
            return _scalar({d: v for d, v in self._coeffs if d < 2})
        return complex(self.evaluate_exact(mode.value))

    def evaluate_exact(self, jvalue) -> ComplexRational:
        """Exact evaluation at a rational j value."""
        jv = Fraction(jvalue)
        total = CR_ZERO
        for d, v in self._coeffs:
            total = total + v * ComplexRational(jv**d)
        return total

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, ComplexRational)):
            other = self._coerce(other)
        if not isinstance(other, ContractionScalar):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self):
        return hash(self._coeffs)

    def __repr__(self) -> str:
        if not self._coeffs:
            return "0"
        parts = []
        for d, v in self._coeffs:
            if d == 0:
                parts.append(repr(v))
            else:
                jpart = "j" if d == 1 else f"j^{d}"
                parts.append(jpart if v == CR_ONE else f"{v!r}*{jpart}")
        return " + ".join(parts)


_set_coeffs = ContractionScalar._coeffs.__set__


def _degree(degree) -> int:
    """Validate a j-degree given to a public constructor."""
    d = int(degree)
    if d != degree:
        raise ValueError(f"j-degree must be an integer, not {degree!r}")
    if d < 0:
        raise ValueError("j-degree must be non-negative")
    return d


def _scalar(coeffs: dict[int, ComplexRational]) -> ContractionScalar:
    """Build a result from valid ``{degree: coefficient}``: drop zeros, sort."""
    kept = [(d, v) for d, v in coeffs.items() if v._abd != _ZERO_ABD]
    kept.sort()
    s = _new(ContractionScalar)
    _set_coeffs(s, tuple(kept))
    return s
