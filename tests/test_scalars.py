import math
import subprocess
import sys
from fractions import Fraction

import hypothesis.strategies as st
import mpmath
import pytest
from hypothesis import given
from mpmath.libmp import from_rational, round_nearest

from conftest import child_env, same_bits
from oracles import exact_scalar, former_to_binary
from rearrange_lab.scalars import (QUAD_PRECISION, approximate_scalar,
                                   binary_context, check_one_family, dot,
                                   format_exponent, format_scalar,
                                   from_common_denominator, in_family,
                                   in_lowest_terms,
                                   over_common_denominator, over_one_unit,
                                   parse_exponent, parse_scalar, shifted,
                                   to_binary, unit_product)
from rearrange_lab.scalars import INF


def test_parse_decimal_is_exact():
    assert parse_scalar("0.2") == Fraction(1, 5)
    assert parse_scalar("-3.25") == Fraction(-13, 4)
    assert parse_scalar("3") == 3


def test_parse_rational_literal():
    assert parse_scalar("3/4") == Fraction(3, 4)
    assert parse_scalar("-7/2") == Fraction(-7, 2)


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


@pytest.mark.parametrize("precision", [None, 53, 80, 113])
@pytest.mark.parametrize("q", [
    0, 3, -7, 2**70 + 1, Fraction(3, 8), Fraction(-5, 1024),
    Fraction(1, 3), Fraction(-22, 7), Fraction(10**30 + 1, 3**40),
    0.0, 0.1, -2.5, 1 / 3, 1e300, 5e-324,
], ids=repr)
def test_to_binary_converts_its_input_as_the_former_wrapped_call(q, precision):
    """to_binary(q, p) has the bits and the type of the former
    to_binary(Fraction(q), p), for ints, Fractions with dyadic and other
    denominators, and floats; None gives a Fraction for every input."""
    result = to_binary(q, precision)
    expected = former_to_binary(q, precision)
    if precision is None:
        assert type(result) is Fraction and result == expected
    else:
        assert same_bits(result, expected)


@pytest.mark.parametrize("precision", [80, 113])
@given(st.integers(-(2**150), 2**150), st.integers(2**100, 2**150))
def test_wide_rationals_round_once(precision, numerator, denominator):
    """to_binary and in_family round a rational with wide numerator and
    denominator once, to the nearest mpf: the bits of from_rational, half
    an ulp from the exact value at most."""
    q = Fraction(numerator, denominator)
    expected = from_rational(q.numerator, q.denominator, precision,
                             round_nearest)
    result = to_binary(q, precision)
    with mpmath.workprec(precision):
        assert in_family(q, mpmath.mpf(1))._mpf_ == expected
    assert result._mpf_ == expected
    _, _, exp, bc = expected
    assert abs(exact_scalar(result) - q) <= Fraction(2) ** (exp + bc - precision) / 2


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
        ((36, 2, -3), Fraction(1, 12))


def test_over_common_denominator_finds_a_binary_value_anywhere():
    """Any float or mpf, first, last or among ints and Fractions, makes the
    sequence binary; the empty sequence is exact."""
    import mpmath

    third = mpmath.mpf(1) / 3
    for values in ([0, 1, 0.5], [Fraction(1, 3), 2, 0.25], (3, third),
                   [0.0], [Fraction(1, 2), 0, third, 0.5]):
        numerators, unit = over_common_denominator(values)
        assert numerators is values and unit == 1 and type(unit) is int
    assert over_common_denominator([]) == ((), Fraction(1))
    assert over_common_denominator((0, 2)) == ((0, 2), Fraction(1))


def test_mpfs_made_after_a_lazy_import_classify_as_binary():
    """The package loads mpmath only on first use, so a caller may import
    it after the package and build mpfs directly: they classify as the
    "mpf" family, pass through `over_common_denominator` with unit 1,
    print with 40 digits and keep their family in a 113-bit function."""
    script = (
        "import sys\n"
        "from rearrange_lab.scalars import (check_one_family, format_scalar,\n"
        "                                   over_common_denominator)\n"
        "from rearrange_lab.spaces import DiscreteSpace, SimpleFunction\n"
        "assert 'mpmath' not in sys.modules\n"
        "import mpmath\n"
        "with mpmath.workprec(113):\n"
        "    third = mpmath.mpf(1) / 3\n"
        "    values = [third, mpmath.mpf(2), -third]\n"
        "    assert check_one_family(values, 'values') == {'mpf'}\n"
        "    numerators, unit = over_common_denominator(values)\n"
        "    assert numerators is values and type(unit) is int and unit == 1\n"
        "    text = format_scalar(third)\n"
        "    assert text == '0.3333333333333333333333333333333333172839'\n"
        "    space = DiscreteSpace((third, third, third))\n"
        "    f = SimpleFunction(values, space)\n"
        "    assert space.families == {'mpf'} and f.unit == 1\n"
        "    assert f.numerators == tuple(values)\n"
        "print('ok')\n"
    )
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=60,
                          env=child_env())
    assert done.returncode == 0, done.stderr
    assert done.stdout == "ok\n"


@given(st.lists(st.fractions(max_denominator=10**6), min_size=1, max_size=8),
       st.fractions(max_denominator=10**6))
def test_shifted_numerators_are_the_shifted_values(values, m):
    """Shifting int numerators by m gives over_common_denominator of the
    shifted values (lowest terms included), scaling back gives the shifted
    values, and putting the pair in lowest terms again changes nothing."""
    pair = shifted(*over_common_denominator(values), m)
    assert pair == over_common_denominator([v - m for v in values])
    assert from_common_denominator(*pair) == tuple(v - m for v in values)
    assert in_lowest_terms(*pair) == pair


@given(st.lists(st.lists(st.fractions(max_denominator=10**6), max_size=5),
                min_size=1, max_size=3),
       st.booleans())
def test_one_unit_is_that_of_the_concatenated_values(sequences, binary):
    """over_one_unit writes several sequences as over_common_denominator
    writes them concatenated; one binary sequence makes every one come
    back as its values with the unit int 1."""
    if binary:
        sequences = [*sequences, [0.5, 0.25]]
    numerators, unit = over_one_unit(
        [over_common_denominator(s) for s in sequences])
    flat, flat_unit = over_common_denominator([v for s in sequences for v in s])
    assert [n for ns in numerators for n in ns] == list(flat)
    assert type(unit) is type(flat_unit) and unit == flat_unit


@given(st.lists(st.one_of(st.integers(1, 10**12).map(lambda d: Fraction(1, d)),
                          st.just(1)), min_size=1, max_size=5))
def test_unit_product_is_the_product_of_the_units(units):
    """One Fraction for the exact units among them, the int 1 for none:
    the value and the type that multiplying them one by one gives."""
    expected = math.prod(units)
    got = unit_product(*units)
    assert got == expected and type(got) is type(expected)


def test_dot_is_the_left_fold_not_a_compensated_sum():
    """1e16 + 1.0 rounds back to 1e16, so the left fold gives 0.0 where a
    compensated sum (math.fsum, or the built-in sum from Python 3.12 on)
    gives 1.0."""
    assert math.fsum([1e16, 1.0, -1e16]) == 1.0
    got = dot([1e16, 1.0, -1e16])
    assert got == 0.0 and type(got) is float


@given(st.lists(st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6)),
                max_size=12))
def test_dot_of_floats_is_the_fold_from_the_int_zero(pairs):
    xs, ys = [x for x, _ in pairs], [y for _, y in pairs]
    total = 0
    for x, y in pairs:
        total = total + x * y
    assert same_bits(dot(xs, ys), total)


def test_dot_is_exact_on_ints_and_fractions():
    got = dot([3, -4, 5], [7, 11, -13])
    assert got == 21 - 44 - 65 and type(got) is int
    got = dot([Fraction(1, 3), Fraction(-2, 7), 5],
              [Fraction(1, 2), 3, Fraction(1, 11)])
    assert got == Fraction(1, 6) - Fraction(6, 7) + Fraction(5, 11)
    assert type(got) is Fraction


def test_dot_of_mpf_columns_runs_at_113_bits():
    """3 + 2^-100 needs 102 bits: a 53-bit sum would lose the small
    term."""
    with binary_context(QUAD_PRECISION):
        tiny = mpmath.mpf(2) ** -100
        got = dot([mpmath.mpf(1), tiny], [mpmath.mpf(3), mpmath.mpf(1)])
        assert isinstance(got, mpmath.mpf) and got - 3 == tiny


def test_dot_takes_one_column_or_several():
    assert dot([1, 2, 3]) == 6
    assert dot(x for x in (Fraction(1, 2), Fraction(1, 3))) == Fraction(5, 6)
    assert dot([1, 2], [3, 4], [5, 6]) == 1 * 3 * 5 + 2 * 4 * 6
    assert dot([1, 2], [3, 4], [5, 6], [7, 8]) == 105 + 384
    # each term is multiplied from the left: (0.1 * 0.2) * 0.3
    assert 0.1 * (0.2 * 0.3) != (0.1 * 0.2) * 0.3
    assert dot([0.1], [0.2], [0.3]) == (0.1 * 0.2) * 0.3


def test_dot_of_no_terms_is_the_int_zero():
    for columns in ([[]], [(), ()], [[], [0.5]], [iter(())]):
        got = dot(*columns)
        assert got == 0 and type(got) is int
