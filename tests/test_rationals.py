import pytest
from hypothesis import given, strategies as st

from cohkit.rationals import (
    RationalParseError,
    format_decimal,
    format_rational,
    parse_rational,
    rat,
)


def test_parse_forms():
    assert parse_rational("3/4") == rat(3, 4)
    assert parse_rational("-2/5") == rat(-2, 5)
    assert parse_rational("0.25") == rat(1, 4)
    assert parse_rational("-0.1") == rat(-1, 10)
    assert parse_rational("7") == rat(7)
    assert parse_rational(" 1/2 ") == rat(1, 2)
    # rat itself accepts the same strings
    assert rat("2/3") == rat(2, 3)
    assert rat("0.5") == rat(1, 2)
    with pytest.raises(ValueError):
        rat("1/2", 3)


@pytest.mark.parametrize(
    "bad", ["", "1/0", "a/b", "1.2.3", "1e3", ".", "--1", "²", "1/²", "¹/2", "0.²", "٣/٤"]
)
def test_parse_rejects(bad):
    with pytest.raises(RationalParseError):
        parse_rational(bad)


def test_format_decimal():
    assert format_decimal(rat(11, 10)) == "1.1"
    assert format_decimal(rat(1)) == "1"
    assert format_decimal(rat(-3, 4)) == "-0.75"
    assert format_decimal(rat(1, 3)) == "0.333333333333"
    assert format_decimal(rat(2, 3)) == "0.666666666667"
    # rounding can carry all the way into the integer part
    assert format_decimal(rat(-29999999999999, 10**13)) == "-3"
    assert format_decimal(rat(2999, 1000), digits=2) == "3"


@given(st.integers(-10**6, 10**6), st.integers(1, 10**6))
def test_format_parse_round_trip(num, den):
    value = rat(num, den)
    assert parse_rational(format_rational(value)) == value

