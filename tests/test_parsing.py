import random

import pytest
from hypothesis import given, strategies as st

from bigbracket.chart import cotangent_chart
from bigbracket.parsing import ParseError, parse_poly
from bigbracket.poly import SuperPolynomial

from conftest import random_poly

CH = cotangent_chart(["x1", "x2"], ["xi1", "xi2"]).chart


def test_round_trip_example():
    text = "x1^2*xi1 - 1/2*xi1*xi2"
    p = parse_poly(text, CH)
    assert str(p) == text
    assert parse_poly(str(p), CH) == p


def test_vanishing_square_prints_zero():
    assert str(parse_poly("xi1*xi1", CH)) == "0"


def test_reordering_sign():
    p = parse_poly("xi2*xi1", CH)
    assert p == -parse_poly("xi1*xi2", CH)
    assert str(p) == "-xi1*xi2"


def test_imaginary_unit_and_rationals():
    p = parse_poly("2/3*i*x1 + (1-2*i)*x2", CH)
    assert p.terms
    assert parse_poly(str(p), CH) == p


def test_unary_minus_and_parens():
    assert parse_poly("-x1", CH) == -SuperPolynomial.variable(CH, "x1")
    assert parse_poly("-(x1 - x2)", CH) == parse_poly("x2 - x1", CH)


def test_power_operator():
    assert parse_poly("x1^3", CH) == SuperPolynomial.variable(CH, "x1") ** 3


def test_syntax_error_position():
    with pytest.raises(ParseError) as err:
        parse_poly("xi^", CH)
    assert "column" in str(err.value)


def test_unknown_variable():
    with pytest.raises(ParseError):
        parse_poly("nope + 1", CH)


def test_no_implicit_multiplication():
    with pytest.raises(ParseError):
        parse_poly("2 x1", CH)


@pytest.mark.parametrize("text, message", [
    ("x1 $ 2", "unexpected character '$' (at column 4)"),
    ("1/", "expected denominator digits after '/' (at column 2)"),
    ("1/x1", "expected denominator digits after '/' (at column 2)"),
    ("3/0", "zero denominator (at column 3)"),
    ("(x1 x2", "expected ')' (at column 5)"),
    ("_x1", "unknown variable '_x1' (at column 1)"),
    # numerals are ASCII digits: int() would refuse the first and read the others
    ("2*x1^²", "unexpected character '²' (at column 6)"),
    ("٣", "unexpected character '٣' (at column 1)"),
    ("1/٣", "expected denominator digits after '/' (at column 2)"),
])
def test_parse_error_messages_and_columns(text, message):
    with pytest.raises(ParseError) as err:
        parse_poly(text, CH)
    assert str(err.value) == message


def test_identifiers_may_start_with_or_hold_an_underscore():
    chart = cotangent_chart(["_a", "b_1"], ["xi1"]).chart
    assert str(parse_poly("_a*b_1 + 2*_a", chart)) == "_a*b_1 + 2*_a"


@st.composite
def seeds(draw):
    return draw(st.integers(min_value=0, max_value=10 ** 6))


@given(seeds())
def test_round_trip_random(seed):
    p = random_poly(CH, random.Random(seed), max_terms=4)
    assert parse_poly(str(p), CH) == p
