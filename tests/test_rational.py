from fractions import Fraction

import pytest

from conepersist.rational import (
    as_vec,
    format_rational,
    format_vector,
    parse_rational,
)


def test_parse_accepts_strings_ints_fractions():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-7") == Fraction(-7)
    assert parse_rational(5) == Fraction(5)
    assert parse_rational(Fraction(2, 6)) == Fraction(1, 3)
    assert parse_rational(" 1/2 ") == Fraction(1, 2)


def test_parse_rejects_floats_and_garbage():
    with pytest.raises(ValueError):
        parse_rational(0.5)
    with pytest.raises(ValueError):
        parse_rational("1/2/3")
    with pytest.raises(ValueError):
        parse_rational("1.5")
    with pytest.raises(ValueError):
        parse_rational("1/0")


def test_format_round_trip():
    for s in ["0", "5", "-3", "7/2", "-1/3"]:
        assert format_rational(parse_rational(s)) == s
    assert format_rational(Fraction(4, 2)) == "2"


def test_vectors():
    v = as_vec(["1", "1/2", -3])
    assert v == (Fraction(1), Fraction(1, 2), Fraction(-3))
    assert format_vector(v) == ["1", "1/2", "-3"]
    assert as_vec((1, Fraction(1, 2))) == (Fraction(1), Fraction(1, 2))
