"""Contraction-ring arithmetic: ring axioms, division rules, mode reduction."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ewverify import (
    ComplexRational,
    ContractionScalar,
    DivisionUndefinedError,
    J_NILPOTENT,
    J_ONE,
    JMode,
)

CS = ContractionScalar

rationals = st.fractions(
    min_value=Fraction(-20), max_value=Fraction(20), max_denominator=12
)
complex_rationals = st.builds(ComplexRational, rationals, rationals)
scalars = st.builds(
    lambda pairs: CS(dict(pairs)),
    st.lists(st.tuples(st.integers(0, 5), complex_rationals), max_size=4),
)
modes = st.sampled_from(
    [J_ONE, J_NILPOTENT, JMode.numeric(Fraction(1, 10)), JMode.numeric(Fraction(3))]
)


def test_single_term_constructors():
    one = CS.term(1)
    assert one.coeff(0) == ComplexRational(1)
    assert CS.term(0, 3).is_zero()  # zero absorbs the degree
    ij = CS.term(ComplexRational(0, 1), 1)
    assert ij.coeff(1) == ComplexRational(0, 1)
    with pytest.raises(ValueError):
        CS.term(1, -1)


def test_addition_merges_degreewise():
    a = CS.term(2) + CS.term(1, 2)
    b = CS.term(3, 2)
    assert a + b == CS.term(2) + CS.term(4, 2)
    x = CS.term(Fraction(5, 7), 3)
    assert x + CS.zero() == x
    assert CS.j() + CS.j() == CS.term(2, 1)


def test_multiplication_preserves_grading():
    assert CS.j() * CS.j() == CS.j(2)
    a, b, c, d = (CS.term(v) for v in (2, 3, 5, 7))
    lhs = (a + CS.j() * b) * (c + CS.j() * d)
    rhs = a * c + CS.j() * (a * d + b * c) + CS.j(2) * b * d
    assert lhs == rhs
    x = CS.term(ComplexRational(1, 2), 3)
    assert CS.one() * x == x


def test_conjugation():
    ij = CS.term(ComplexRational(0, 1), 1)
    assert ij.conjugate() == CS.term(ComplexRational(0, -1), 1)
    real = CS.term(Fraction(3, 4), 2)
    assert real.conjugate() == real


def test_division_rules():
    x = CS.term(3, 1) + CS.term(2, 2)
    assert x.divide_by_j() == CS.term(3) + CS.term(2, 1)
    with pytest.raises(DivisionUndefinedError):
        (CS.one() + CS.j()).divide_by_j()
    assert CS.zero().divide_by_j() == CS.zero()


def test_reduce_examples():
    x = CS.term(2) + CS.term(3, 2)
    assert x.reduce(J_ONE) == CS.term(5)
    assert x.reduce(J_NILPOTENT) == CS.term(2)
    assert CS.j().reduce(JMode.numeric(Fraction(1, 10))) == pytest.approx(0.1)


def test_jmode_parsing_and_validation():
    assert JMode.from_text("1") is J_ONE
    assert JMode.from_text("iota") is J_NILPOTENT
    assert JMode.from_text("0.01").value == Fraction("0.01")
    assert JMode.from_text("1/100").value == Fraction(1, 100)
    with pytest.raises(ValueError):
        JMode.numeric(-1)
    with pytest.raises(ValueError):
        JMode.from_text("bogus")
    # the j -> 0 boundary value is admitted
    assert JMode.numeric(0).value == 0


@settings(max_examples=1000, deadline=None)
@given(scalars, scalars, scalars)
def test_ring_axioms(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert x + y == y + x
    assert (x * y) * z == x * (y * z)
    assert x * y == y * x
    assert x * (y + z) == x * y + x * z


@settings(max_examples=200, deadline=None)
@given(scalars)
def test_divide_inverts_multiplication_by_j(x):
    assert (CS.j() * x).divide_by_j() == x
    shifted = CS.j() * x  # zero degree-0 part by construction
    assert CS.j() * shifted.divide_by_j() == shifted


@settings(max_examples=200, deadline=None)
@given(scalars, scalars, modes)
def test_reduction_is_multiplicative(x, y, mode):
    if mode.is_numeric:
        v = mode.value
        assert (x * y).evaluate_exact(v) == x.evaluate_exact(v) * y.evaluate_exact(v)
    else:
        lhs = (x * y).reduce(mode)
        rhs = (x.reduce(mode) * y.reduce(mode)).reduce(mode)
        assert lhs == rhs


@settings(max_examples=200, deadline=None)
@given(scalars, scalars)
def test_conjugation_is_involutive_automorphism(x, y):
    assert x.conjugate().conjugate() == x
    assert (x * y).conjugate() == x.conjugate() * y.conjugate()
    assert (x + y).conjugate() == x.conjugate() + y.conjugate()


def test_complex_rational_field_ops():
    a = ComplexRational(Fraction(3, 5), Fraction(4, 5))
    assert a.abs2() == 1
    assert (a / a) == ComplexRational(1)
    assert a * a.conjugate() == ComplexRational(a.abs2())
    with pytest.raises(ZeroDivisionError):
        a / ComplexRational(0)


def test_non_integral_degree_is_rejected():
    for bad in (1.5, Fraction(1, 2), "1"):
        with pytest.raises(ValueError, match="integer"):
            CS({bad: 1})
        with pytest.raises(ValueError, match="integer"):
            CS.term(1, bad)
    # 1 and 1.5 used to land on the same degree and overwrite each other
    with pytest.raises(ValueError):
        CS({1: 2, 1.5: 3})
    assert CS({2.0: 1}) == CS.j(2)
    assert CS.term(1, Fraction(4, 2)) == CS.j(2)


# --- ComplexRational against a plain (Fraction, Fraction) reference model ---

wide_rationals = st.one_of(
    st.integers(-10**6, 10**6).map(Fraction),
    st.fractions(min_value=Fraction(-500), max_value=Fraction(500),
                 max_denominator=360),
)
pairs = st.tuples(wide_rationals, wide_rationals)


def reference_repr(re: Fraction, im: Fraction) -> str:
    if im == 0:
        return str(re)
    if re == 0:
        return f"{im}i"
    sign = "+" if im > 0 else "-"
    return f"({re}{sign}{abs(im)}i)"


def assert_matches(z, re, im):
    assert type(z) is ComplexRational
    assert type(z.re) is Fraction and type(z.im) is Fraction
    assert (z.re, z.im) == (re, im)
    assert repr(z) == reference_repr(re, im)
    assert complex(z) == complex(float(re), float(im))
    assert z == ComplexRational(re, im)
    assert hash(z) == hash(ComplexRational(re, im))
    assert z.is_zero() == (re == 0 and im == 0)


@settings(max_examples=500, deadline=None)
@given(pairs, pairs)
def test_complex_rational_matches_fraction_pair_model(x, y):
    (a, b), (c, d) = x, y
    zx, zy = ComplexRational(a, b), ComplexRational(c, d)
    assert_matches(zx, a, b)
    assert_matches(zx + zy, a + c, b + d)
    assert_matches(zx - zy, a - c, b - d)
    assert_matches(zx * zy, a * c - b * d, a * d + b * c)
    assert_matches(-zx, -a, -b)
    assert_matches(zx.conjugate(), a, -b)
    assert zx.abs2() == a * a + b * b
    n = c * c + d * d
    if n:
        assert_matches(zx / zy, (a * c + b * d) / n, (b * c - a * d) / n)
    else:
        with pytest.raises(ZeroDivisionError):
            zx / zy
    # plain rational operands on either side
    assert_matches(zx + c, a + c, b)
    assert_matches(c - zx, c - a, -b)
    assert_matches(zx * c, a * c, b * c)
    assert (zx == c) == (b == 0 and a == c)


@settings(max_examples=200, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False, width=32),
       st.floats(allow_nan=False, allow_infinity=False, width=32))
def test_complex_rational_from_floats_is_exact(x, y):
    assert_matches(ComplexRational(x, y), Fraction(x), Fraction(y))
    assert_matches(ComplexRational.of(x), Fraction(x), Fraction(0))


def test_equal_values_built_by_different_routes_hash_alike():
    a = ComplexRational(Fraction(2, 4), Fraction(3, 6))
    b = ComplexRational(1, 1) / 2
    assert a == b and hash(a) == hash(b)


@settings(max_examples=300, deadline=None)
@given(pairs, st.integers(1, 60))
def test_normal_form_is_route_independent(x, k):
    a, b = x
    direct = ComplexRational(a, b)
    routes = (
        ComplexRational(a * k, b * k) / k,
        ComplexRational(a * k, b * k) * ComplexRational(Fraction(1, k)),
        ComplexRational(a) + ComplexRational(0, b),
        (direct + ComplexRational(k, -k)) - ComplexRational(k, -k),
        direct.conjugate().conjugate(),
    )
    for z in routes:
        assert z == direct
        assert hash(z) == hash(direct)


@settings(max_examples=200, deadline=None)
@given(scalars)
def test_scalar_difference_with_itself_is_the_stored_zero(x):
    diff = x - x
    assert diff == CS.zero()
    assert hash(diff) == hash(CS.zero())
    assert diff.coeffs == ()
    for result in (x + x, x * x, -x, x.conjugate(), x.reduce(J_NILPOTENT)):
        assert all(not v.is_zero() for _, v in result.coeffs)
