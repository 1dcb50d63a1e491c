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

from collections import namedtuple
from fractions import Fraction
from math import gcd, lcm
from typing import Union

RationalLike = Union[int, Fraction]


def _float_in_range(q: Fraction) -> float:
    """``float(q)``, raising OverflowError where ``q`` is beyond float range:
    too large, or nonzero and rounded to 0.0."""
    f = float(q)
    if q and not f:
        raise OverflowError("a nonzero value rounds to 0.0")
    return f


def _shown(**values: Fraction) -> str:
    """``name=value`` for each value, to 6 significant digits at any magnitude."""
    from decimal import Context  # only values beyond float range need it

    return ", ".join(f"{name}={Context(prec=6).divide(q.numerator, q.denominator).normalize():g}"
                     for name, q in values.items())


class DivisionUndefinedError(ZeroDivisionError):
    """Raised when dividing by j an expression with a term of j-degree 0."""


class ComplexRational(tuple):
    """Complex number with exact rational real and imaginary parts.

    A tuple of the reduced triple ``(a, b, d)`` described in the module
    docstring, so immutable and hashed as that triple; ``re`` and ``im`` are
    read back as Fractions.  It equals an int or Fraction of its value.
    """

    __slots__ = ()

    def __new__(cls, re: RationalLike = 0, im: RationalLike = 0):
        if not isinstance(re, (int, Fraction)):
            re = Fraction(re)
        if not isinstance(im, (int, Fraction)):
            im = Fraction(im)
        # over the lcm of two reduced denominators the triple is already reduced
        d = lcm(re.denominator, im.denominator)
        return tuple.__new__(cls, (re.numerator * (d // re.denominator),
                                   im.numerator * (d // im.denominator), d))

    @classmethod
    def of(cls, value) -> "ComplexRational":
        if isinstance(value, ComplexRational):
            return value
        if isinstance(value, (int, Fraction, float)):
            return cls(value)
        raise TypeError(f"cannot interpret {value!r} as a complex rational")

    @property
    def re(self) -> Fraction:
        a, _, d = self
        return Fraction(a, d)

    @property
    def im(self) -> Fraction:
        _, b, d = self
        return Fraction(b, d)

    def __add__(self, other) -> "ComplexRational":
        a, b, d = self
        oa, ob, od = _triple(other)
        if d == od:
            return _make(a + oa, b + ob, d)
        return _make(a * od + oa * d, b * od + ob * d, d * od)

    __radd__ = __add__

    def __sub__(self, other) -> "ComplexRational":
        a, b, d = self
        oa, ob, od = _triple(other)
        if d == od:
            return _make(a - oa, b - ob, d)
        return _make(a * od - oa * d, b * od - ob * d, d * od)

    def __rsub__(self, other) -> "ComplexRational":
        return ComplexRational.of(other) - self

    def __mul__(self, other) -> "ComplexRational":
        a, b, d = self
        oa, ob, od = _triple(other)
        return _make(a * oa - b * ob, a * ob + b * oa, d * od)

    __rmul__ = __mul__

    def __neg__(self) -> "ComplexRational":
        a, b, d = self
        return _make(-a, -b, d)

    def conjugate(self) -> "ComplexRational":
        a, b, d = self
        return _make(a, -b, d)

    def is_zero(self) -> bool:
        a, b, _ = self
        return not (a or b)

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __eq__(self, other) -> bool:
        if type(other) is ComplexRational:
            return tuple.__eq__(self, other)
        if isinstance(other, (int, Fraction)):
            a, b, d = self
            return b == 0 and a * other.denominator == other.numerator * d
        return NotImplemented

    __ne__ = object.__ne__  # the negation of __eq__, not the tuple's
    __hash__ = tuple.__hash__

    def __complex__(self) -> complex:
        # int / int is correctly rounded, as float(Fraction) is
        a, b, d = self
        return complex(a / d, b / d)

    def __repr__(self) -> str:
        re, im = self.re, self.im
        if im == 0:
            return str(re)
        if re == 0:
            return f"{im}i"
        sign = "+" if im > 0 else "-"
        return f"({re}{sign}{abs(im)}i)"


def _triple(value) -> ComplexRational:
    """A ComplexRational operand, or a plain number as one."""
    return value if type(value) is ComplexRational else ComplexRational.of(value)


def _make(a: int, b: int, d: int) -> ComplexRational:
    """``(a + b i) / d`` for ``d > 0``, reduced by one three-way gcd."""
    g = gcd(a, b, d)
    if g != 1:
        a //= g
        b //= g
        d //= g
    return tuple.__new__(ComplexRational, (a, b, d))


CR_ONE = ComplexRational(1)
CR_I = ComplexRational(0, 1)


class JMode(namedtuple("JMode", "value")):
    """Interpretation of the contraction parameter j, stored as j's value:
    a non-negative Fraction for a real j (1 among them), or None for the
    nilpotent unit iota.  Equal values are equal modes."""

    __slots__ = ()

    def __new__(cls, value: Fraction | None):
        if value is not None:
            value = Fraction(value)
            if value < 0:  # the j -> 0 limit itself is admitted as the boundary value
                raise ValueError("numeric j value must be finite and >= 0")
        return tuple.__new__(cls, (value,))

    @classmethod
    def numeric(cls, value) -> "JMode":
        return cls(Fraction(value))

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
        return J_ONE if value == 1 else cls(value)  # a negative value fails its range check

    @property
    def is_one(self) -> bool:
        return self.value == 1

    @property
    def is_nilpotent(self) -> bool:
        return self.value is None

    @property
    def kind(self) -> str:
        return "nilpotent" if self.is_nilpotent else "one" if self.is_one else "numeric"

    def label(self) -> str:
        if self.is_nilpotent:
            return "j=iota"
        try:
            return f"j={_float_in_range(self.value):g}"
        except OverflowError:  # only the label: the checks fold j exactly
            return _shown(j=self.value)


J_ONE = JMode(1)
J_NILPOTENT = JMode(None)
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
