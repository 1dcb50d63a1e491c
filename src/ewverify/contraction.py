"""Exact arithmetic for the contraction parameter j.

A :class:`ComplexRational` is a Gaussian rational stored as a reduced
integer triple ``(a, b, d)`` meaning ``(a + b*i) / d``, with ``d > 0`` and
``gcd(a, b, d) == 1``.  Every operation is integer arithmetic followed by
one three-way gcd, and equal values have equal triples.

The parameter j can be interpreted three ways (:class:`JMode`): as 1, as
the nilpotent unit ``iota`` with ``iota^2 = 0``, or as a small real number.
Polynomials in j are :class:`~ewverify.fields.Expression` terms, which
carry a j-degree; the reduction in a mode and the division rules live in
``fields`` (``reduce_mode``, ``divide_by_j``).  Division by j is a partial
operation: ``a/j`` exists only when every term of ``a`` carries j (a plain
number divided by the nilpotent unit is undefined), and it raises
:class:`DivisionUndefinedError` otherwise.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Union

RationalLike = Union[int, Fraction]

_new = object.__new__


class DivisionUndefinedError(ZeroDivisionError):
    """Raised when dividing by j an expression with a term of j-degree 0."""


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

    def __neg__(self) -> "ComplexRational":
        a, b, d = self._abd
        return _make(-a, -b, d)

    def conjugate(self) -> "ComplexRational":
        a, b, d = self._abd
        return _make(a, -b, d)

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
        """Parse 'iota' or a number (e.g. '0.01', '1/100'); any spelling of
        1 ('1', '1.0', '1/1') is j=1."""
        t = text.strip().lower()
        if t in ("iota", "nilpotent"):
            return J_NILPOTENT
        try:
            value = Fraction(t)
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"cannot parse j mode from {text!r}") from None
        if value == 1:
            return J_ONE
        return cls.numeric(value)  # a negative value fails its range check

    @property
    def is_one(self) -> bool:
        return self.kind == "one"

    @property
    def is_nilpotent(self) -> bool:
        return self.kind == "nilpotent"

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
    """Retired: polynomials in j are :class:`~ewverify.fields.Expression`
    terms.  Only the two methods the benchmark tracer wraps by name are
    left, and the class goes once the tracer stops hooking them."""

    def __mul__(self, other):
        raise TypeError("ContractionScalar is retired; use fields.Expression")

    def reduce(self, mode):
        raise TypeError("ContractionScalar is retired; use fields.reduce_mode")
