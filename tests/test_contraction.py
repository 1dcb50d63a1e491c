"""The exact scalars of the contraction layer and j-polynomials over them:
ring axioms, division rules, mode reduction, and ComplexRational against a
reference model.  A polynomial in j is an Expression without fields."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ewverify import (
    CR_I,
    ComplexRational,
    DivisionUndefinedError,
    Expression,
    J_NILPOTENT,
    J_ONE,
    JMode,
    conjugate,
    const,
    divide_by_j,
    j_decompose,
    jpow,
    reduce_mode,
)

# p/q with 1 <= q <= 12 and |p/q| <= 20, drawn through integers: the value
# set of st.fractions(-20, 20, max_denominator=12) at a fraction of its cost
rationals = st.integers(1, 12).flatmap(
    lambda q: st.integers(-20 * q, 20 * q).map(lambda p: Fraction(p, q))
)
complex_rationals = st.builds(ComplexRational, rationals, rationals)


def term(value, degree=0):
    """The constant value * j^degree."""
    return const(value) * jpow(degree)


scalars = st.builds(
    lambda pairs: sum((term(c, d) for d, c in pairs), Expression.zero()),
    st.lists(st.tuples(st.integers(0, 5), complex_rationals), max_size=4),
)
modes = st.sampled_from(
    [J_ONE, J_NILPOTENT, JMode.numeric(Fraction(1, 10)), JMode.numeric(Fraction(3))]
)


def test_single_term_constructors():
    assert j_decompose(term(1)) == {0: const(1)}
    assert term(0, 3).is_zero()  # zero absorbs the degree
    ij = term(CR_I, 1)
    assert j_decompose(ij) == {1: const(CR_I)}
    with pytest.raises(ValueError):
        jpow(-1)


def test_addition_merges_degreewise():
    a = term(2) + term(1, 2)
    b = term(3, 2)
    assert a + b == term(2) + term(4, 2)
    x = term(Fraction(5, 7), 3)
    assert x + Expression.zero() == x
    assert jpow() + jpow() == term(2, 1)


def test_multiplication_preserves_grading():
    assert jpow() * jpow() == jpow(2)
    a, b, c, d = (term(v) for v in (2, 3, 5, 7))
    lhs = (a + jpow() * b) * (c + jpow() * d)
    rhs = a * c + jpow() * (a * d + b * c) + jpow(2) * b * d
    assert lhs == rhs
    x = term(ComplexRational(1, 2), 3)
    assert const(1) * x == x


def test_conjugation():
    ij = term(CR_I, 1)
    assert conjugate(ij) == term(ComplexRational(0, -1), 1)
    real = term(Fraction(3, 4), 2)
    assert conjugate(real) == real


def test_division_rules():
    x = term(3, 1) + term(2, 2)
    assert divide_by_j(x) == term(3) + term(2, 1)
    with pytest.raises(DivisionUndefinedError):
        divide_by_j(const(1) + jpow())
    assert divide_by_j(Expression.zero()) == Expression.zero()


def test_reduce_examples():
    x = term(2) + term(3, 2)
    assert reduce_mode(x, J_ONE) == term(5)
    assert reduce_mode(x, J_NILPOTENT) == term(2)
    assert reduce_mode(jpow(), JMode.numeric(Fraction(1, 10))) == const(Fraction(1, 10))


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
    assert divide_by_j(jpow() * x) == x
    shifted = jpow() * x  # zero degree-0 part by construction
    assert jpow() * divide_by_j(shifted) == shifted


@settings(max_examples=200, deadline=None)
@given(scalars, scalars, modes)
def test_reduction_is_multiplicative(x, y, mode):
    lhs = reduce_mode(x * y, mode)
    rhs = reduce_mode(reduce_mode(x, mode) * reduce_mode(y, mode), mode)
    assert lhs == rhs


@settings(max_examples=200, deadline=None)
@given(scalars, scalars)
def test_conjugation_is_involutive_automorphism(x, y):
    assert conjugate(conjugate(x)) == x
    assert conjugate(x * y) == conjugate(x) * conjugate(y)
    assert conjugate(x + y) == conjugate(x) + conjugate(y)


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
            jpow(bad)
    assert jpow(2.0) == jpow(2)
    assert jpow(Fraction(4, 2)) == jpow(2)


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
    assert diff == Expression.zero()
    assert hash(diff) == hash(Expression.zero())
    assert diff.terms == ()
    for result in (x + x, x * x, -x, conjugate(x), reduce_mode(x, J_NILPOTENT)):
        assert all(not t.coeff.is_zero() for t in result.terms)
