import math
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given

from rearrange_lab.scalars import (approximate_scalar, check_one_family,
                                   format_exponent, format_scalar,
                                   is_rational_literal,
                                   over_common_denominator, parse_exponent,
                                   parse_scalar, to_binary)
from rearrange_lab.scalars import INF


def test_parse_decimal_is_exact():
    assert parse_scalar("0.2") == Fraction(1, 5)
    assert parse_scalar("-3.25") == Fraction(-13, 4)
    assert parse_scalar("3") == 3


def test_parse_rational_literal():
    assert parse_scalar("3/4") == Fraction(3, 4)
    assert parse_scalar("-7/2") == Fraction(-7, 2)
    assert is_rational_literal("3/4")
    assert not is_rational_literal("0.75")


@pytest.mark.parametrize("bad", ["", "abc", "1/0", "1//2"])
def test_parse_rejects_garbage(bad):
    with pytest.raises(ValueError):
        parse_scalar(bad)


def test_format_decimal_capable_denominators():
    assert format_scalar(Fraction(1, 5)) == "0.2"
    assert format_scalar(Fraction(1, 4)) == "0.25"
    assert format_scalar(Fraction(-7, 2)) == "-3.5"
    assert format_scalar(Fraction(3)) == "3"
    assert format_scalar(Fraction(1, 3)) == "1/3"
    assert format_scalar(Fraction(-5, 6)) == "-5/6"


@given(st.fractions(max_denominator=10**6))
def test_format_parse_roundtrip(q):
    assert parse_scalar(format_scalar(q)) == q


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_float_roundtrip(x):
    assert float(format_scalar(x)) == x


def test_exponent_parsing():
    assert parse_exponent("inf") == INF
    assert parse_exponent("4/3") == Fraction(4, 3)
    assert format_exponent(INF) == "inf"
    assert format_exponent(Fraction(4, 3)) == "4/3"
    assert format_exponent(Fraction(3, 2)) == "3/2"
    assert format_exponent(Fraction(5, 4)) == "5/4"
    assert format_exponent(Fraction(2)) == "2"
    for q in (Fraction(1), Fraction(3, 2), Fraction(5, 4), Fraction(12), INF):
        assert parse_exponent(format_exponent(q)) == q
    with pytest.raises(ValueError):
        parse_exponent("1/2")


def test_to_binary_precisions():
    import mpmath

    q = Fraction(1, 3)
    assert to_binary(q, 53) == 1 / 3
    hi = to_binary(q, 113)
    assert abs(float(hi) - 1 / 3) < 1e-15
    with mpmath.workprec(120):
        assert abs(hi * 3 - 1) < mpmath.mpf(2) ** -110


def test_mixed_families_rejected():
    with pytest.raises(ValueError):
        check_one_family([Fraction(1, 2), 0.5], "values")
    check_one_family([Fraction(1, 2), 3], "values")
    check_one_family([0.5, 3], "values")


def test_decimal_exponent_is_bounded():
    assert parse_scalar("1e1000") == 10**1000
    assert parse_scalar("2.5E-3") == Fraction(1, 400)
    for bad in ("1e1001", "1E-1001", "1e3000000", "1e" + "9" * 5000):
        with pytest.raises(ValueError):
            parse_scalar(bad)


def test_approximate_scalar_is_short_for_huge_values():
    tiny = Fraction(1, 10**2999 + 7) + Fraction(1, 10**2999 + 9)
    assert approximate_scalar(tiny) == "2.0e-2999"
    assert approximate_scalar(Fraction(10**5000, 3)).endswith("e+4999")
    assert approximate_scalar(Fraction(3, 2)) == "1.5"
    assert approximate_scalar(0.25) == "0.25"


@given(st.lists(st.fractions(max_denominator=10**6), max_size=8))
def test_over_common_denominator_exact(values):
    numerators, unit = over_common_denominator(values)
    assert type(unit) is Fraction and unit.numerator == 1
    assert all(type(n) is int for n in numerators)
    assert [n * unit for n in numerators] == values
    assert unit.denominator == math.lcm(*(v.denominator for v in values))


def test_over_common_denominator_binary_is_unchanged():
    import mpmath

    for values in ([0.5, 3], [mpmath.mpf(1) / 3, Fraction(1, 2)]):
        numerators, unit = over_common_denominator(values)
        assert numerators is values and unit == 1 and type(unit) is int
    assert over_common_denominator([3, Fraction(1, 6), Fraction(-1, 4)]) == \
        ([36, 2, -3], Fraction(1, 12))
