"""The printed text of expressions: ``to_text``'s pinned output, its round
trip through the tests' reader (``helpers.parse``), and the reader's error
reporting."""

import hashlib
import random

import pytest

from ewverify import ArityError, Expression, IndexConflictError, ModelConfig
from ewverify.model import build_L27, build_LA, build_Lphi, transformed_lagrangian
from ewverify.parser import to_text

from helpers import ParseError, parse, random_expression

ROUND_TRIP_CASES = [
    "0",
    "1",
    "-3/4",
    "i",
    "-i rho",
    "j",
    "j^3 rho",
    "sqrt2 g B[mu] B[mu]",
    "g^2 gp R rho rho",
    "d[mu]W3[nu] - d[nu]W3[mu]",
    "W+[mu] W-[mu]",
    "conj(phi1) phi1 + j^2 conj(phi2) phi2",
    "d[mu]d[nu]omega",
    "2 rho d[mu]rho d[mu]rho",
    "1/2 d[mu]rho d[mu]rho - 1/4 Z[mu] Z[mu]",
]


@pytest.mark.parametrize("text", ROUND_TRIP_CASES)
def test_round_trip_cases(text):
    e = parse(text)
    assert parse(to_text(e)) == e


def test_parse_field_strength_structure():
    e = parse("d[mu]W3[nu] - d[nu]W3[mu]")
    assert len(e.terms) == 2
    assert e.free_indices() == {"mu", "nu"}
    # swapping the free indices negates the antisymmetric form
    swapped = parse("d[nu]W3[mu] - d[mu]W3[nu]")
    assert swapped == -e


def test_zero_parses_to_empty():
    assert parse("0") == Expression.zero()
    assert to_text(Expression.zero()) == "0"


def test_index_overuse_is_rejected():
    with pytest.raises(IndexConflictError):
        parse("A1[mu]A1[mu]A1[mu]")
    with pytest.raises(IndexConflictError):
        parse("B[mu]^3")


def test_powers_expand():
    assert parse("B[mu]^2") == parse("B[mu] B[mu]")
    assert parse("rho^2") == parse("rho rho")
    assert parse("j^2 g^2") == parse("j j g g")


def test_complex_coefficients_round_trip():
    e = parse("2 rho + 3 i rho")
    assert len(e.terms) == 1
    assert parse(to_text(e)) == e


def test_display_aliases():
    assert parse("W+[mu] W-[mu]") == parse("Wp[mu] Wm[mu]")
    assert "W+" in to_text(parse("Wp[mu] Wm[mu]"))


def test_sign_suffix_does_not_swallow_subtraction():
    assert parse("rho - omega") == parse("rho") - parse("omega")
    assert parse("rho-omega") == parse("rho") - parse("omega")


def test_syntax_error_positions():
    with pytest.raises(ParseError) as err:
        parse("B[mu] +")
    assert err.value.position == 7
    with pytest.raises(ParseError) as err:
        parse("B[mu")
    assert err.value.position == 4
    with pytest.raises(ParseError) as err:
        parse("nosuchfield[mu]")
    assert err.value.position == 0
    with pytest.raises(ParseError) as err:
        parse("B[mu] ?")
    assert err.value.position == 6
    with pytest.raises(ParseError):
        parse("")
    # a digit that is not decimal is an unexpected character, and a literal
    # with more digits than int() converts is a syntax error too
    for text, position in (("²", 0), ("rho^²", 4), ("1²", 1), ("rho 1/" + "7" * 5000, 4)):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert err.value.position == position


def test_zero_denominator_is_a_parse_error():
    with pytest.raises(ParseError) as err:
        parse("3/0 rho")
    assert err.value.position == 0


def test_arity_error_mentions_position():
    with pytest.raises(ArityError) as err:
        parse("B[mu,nu]")
    assert "position" in str(err.value)
    with pytest.raises(ArityError):
        parse("rho[mu]")


def test_round_trip_random_corpus():
    rng = random.Random(99)
    for _ in range(2000):
        e = random_expression(rng)
        assert parse(to_text(e)) == e


# sha256 of the renderings below: every witness prints through to_text, and
# the round-trip tests would not see a change to the text that parses back
PRINTED_DIGEST = "311b8c5f21c4a0dd56a94318d106f0946b78c61bbd92a7a33d6e9ca9f93df653"


def test_printed_text_is_pinned():
    rng = random.Random(2024)
    corpus = [random_expression(rng) for _ in range(2000)]
    cfg = ModelConfig()
    corpus += [build_L27(cfg), build_LA(), build_Lphi(), transformed_lagrangian(cfg)]
    text = "\n".join(to_text(e) for e in corpus)
    assert hashlib.sha256(text.encode()).hexdigest() == PRINTED_DIGEST


def test_huge_powers_rejected():
    with pytest.raises(ParseError):
        parse("rho^100000")


def test_parser_raises_only_declared_errors_on_noise():
    rng = random.Random(0)
    alphabet = "abgW+-[]()^/123 ,ijdconjsqrt2Zrho_"
    for _ in range(3000):
        text = "".join(
            rng.choice(alphabet) for _ in range(rng.randint(1, 30))
        )
        try:
            parse(text)
        except (ParseError, ArityError, IndexConflictError):
            pass
