from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qclifford.scalars import (GaussianRational, as_scalar, conj, format_scalar,
                               gaussian, parse_rational, scalar_from_json,
                               scalar_to_json)

fractions = st.fractions(min_value=-20, max_value=20, max_denominator=12)


def test_gaussian_basic_arithmetic():
    z = gaussian(Fraction(1, 2), Fraction(3, 4))
    w = gaussian(Fraction(-1, 3), Fraction(1, 4))
    assert z + w == gaussian(Fraction(1, 6), 1)
    assert z * gaussian(0, 1) == gaussian(Fraction(-3, 4), Fraction(1, 2))
    assert (z * w) / w == z
    assert conj(z) == gaussian(Fraction(1, 2), Fraction(-3, 4))
    assert z * conj(z) == Fraction(1, 4) + Fraction(9, 16)


def test_gaussian_demotion_to_fraction():
    z = gaussian(2, 3)
    assert isinstance(z - gaussian(0, 3), Fraction)
    assert isinstance(z * conj(z), Fraction)
    assert gaussian(5, 0) == Fraction(5)
    assert as_scalar(GaussianRational(7, 0)) == Fraction(7)


@given(fractions, fractions, fractions, fractions)
def test_gaussian_field_axioms(a, b, c, d):
    z, w = gaussian(a, b), gaussian(c, d)
    assert z + w == w + z
    assert z * w == w * z
    if w != 0:
        assert (z / w) * w == z


def test_mixed_arithmetic_with_fraction():
    z = gaussian(1, 1)
    assert Fraction(1, 2) + z == gaussian(Fraction(3, 2), 1)
    assert Fraction(1, 2) * z == gaussian(Fraction(1, 2), Fraction(1, 2))
    assert 1 / gaussian(0, 1) == gaussian(0, -1)
    assert Fraction(2) - z == gaussian(1, -1)


def test_parse_rational():
    assert parse_rational("3/2") == Fraction(3, 2)
    assert parse_rational("-7") == Fraction(-7)
    for bad in ("1.5", "3 / 2", "a", "1/0", "", "2/-3"):
        with pytest.raises(ValueError):
            parse_rational(bad)


def test_scalar_json_round_trip():
    for value in (Fraction(3, 2), Fraction(-1), gaussian(1, Fraction(-2, 3))):
        ring = "Q(i)" if isinstance(value, GaussianRational) else "Q"
        assert scalar_from_json(scalar_to_json(value), ring) == value
    with pytest.raises(ValueError):
        scalar_from_json({"re": "1", "im": "2"}, "Q")
    with pytest.raises(ValueError):
        scalar_from_json(True, "Q")


def test_format_scalar():
    assert format_scalar(Fraction(-3, 2)) == "-3/2"
    assert format_scalar(gaussian(0, 1)) == "i"
    assert format_scalar(gaussian(0, -1)) == "-i"
    assert format_scalar(gaussian(0, Fraction(3, 4))) == "3/4i"
    assert format_scalar(gaussian(Fraction(1, 2), Fraction(-3, 4))) == "(1/2-3/4i)"
