"""Scalar arithmetic modes and the string number format of the JSON layer.

Two arithmetic modes exist.  Exact mode keeps every quantity a
`fractions.Fraction` (lowest terms, positive denominator -- the Fraction
class guarantees both) and is the authority for every inequality that does
not involve a fractional root.  Float mode is binary floating point with a
configurable significand width: 53 bits means the native machine double,
anything else is evaluated through mpmath.  mpmath is imported on first
use, inside the functions that need it: `binary_context` at any other
width, `to_binary`, `to_binary_pair` and `in_family` above 53 bits, and
`approximate_scalar`, whose exact renderings only error messages ask
for.  A run in exact or double arithmetic never loads it.  Until it is
loaded no mpf exists, so the type tests read it from `sys.modules`
(`is_mpf`).  Mixed-mode arithmetic is rejected at construction time by
the container types in `spaces`.

All JSON interfaces carry numbers as strings: "p/q" rational literals or
plain decimal literals, both of which parse to exact rationals without
rounding; a decimal exponent beyond +-MAX_DECIMAL_EXPONENT is refused,
since its integer would only cost time and memory.  Floats serialize with
shortest round-trip `repr`.  Exponents are never rendered as decimals:
they serialize as bare integers, "p/q" literals or "inf".

The exact kernels do their sums and products in Python ints: the helper
`over_common_denominator` writes a sequence of rationals as int
numerators over their least common denominator D and returns the unit
1/D, so a kernel computes on the numerators and multiplies its result by
the product of the units once.  Binary values pass through unchanged
with the unit int 1, so the same code runs them in their own arithmetic.
It runs once per object, when a space, a function or a step profile is
built (see `spaces` and `rearrange.StepProfile`), and the kernels read
the pair that object keeps.  A kernel that makes a new object from
numerators keeps them in ints with `in_lowest_terms`, `shifted` and
`over_one_unit`.  An exact object built from numerators scales its
scalars back with `from_common_denominator` on first read, so a kernel
that reads only numerators makes no `Fraction` per value; and
`to_binary_pair` rounds a pair to a float mode from its ints, so the
conversion of an instance makes none either.

`dot` is the one way the package adds up scalars, so every float sum is
the same left fold on every Python version.
"""

from __future__ import annotations

import contextlib
import math
import sys
from fractions import Fraction
from operator import mul
from typing import Union

#: significand width of the native double, the default float-mode precision
DOUBLE_PRECISION = 53

#: significand width used when rechecking float-mode violations
QUAD_PRECISION = 113

INF = float("inf")

_NO_CONTEXT = contextlib.nullcontext()  # stateless, so shared by all

Exponent = Union[Fraction, float]  # a rational >= 1, or INF

#: largest decimal exponent magnitude a literal may carry; far beyond the
#: double and 113-bit ranges
MAX_DECIMAL_EXPONENT = 1000


def parse_scalar(text: str) -> Fraction:
    """Parse a "p/q" or decimal string literal into an exact rational."""
    if not isinstance(text, str):
        raise ValueError(f"scalar literals must be strings, got {text!r}")
    _, marker, exponent = text.lower().partition("e")
    if marker and "/" not in text:
        try:
            too_large = abs(int(exponent)) > MAX_DECIMAL_EXPONENT
        except ValueError:
            too_large = False  # not an integer exponent: Fraction refuses it
        if too_large:
            raise ValueError(
                f"decimal exponent beyond +-{MAX_DECIMAL_EXPONENT}: "
                f"{text[:40]!r}")
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a scalar literal: {text!r}") from exc


def format_scalar(x) -> str:
    """Serialize a scalar as a string literal.

    Rationals with a 2^a*5^b denominator render as exact decimals
    ("1/5" -> "0.2"), other rationals as "p/q", floats with round-trip
    repr, mpmath floats with 40 significant digits.
    """
    if isinstance(x, int):
        return str(x)
    if isinstance(x, Fraction):
        num, den = x.numerator, x.denominator
        if den == 1:
            return str(num)
        twos = fives = 0
        d = den
        while d % 2 == 0:
            d //= 2
            twos += 1
        while d % 5 == 0:
            d //= 5
            fives += 1
        if d != 1:
            return f"{num}/{den}"
        digits = max(twos, fives)
        scaled = abs(num) * 10**digits // den
        sign = "-" if num < 0 else ""
        text = str(scaled).rjust(digits + 1, "0")
        whole, frac = text[:-digits], text[-digits:]
        frac = frac.rstrip("0")
        return f"{sign}{whole}.{frac}" if frac else f"{sign}{whole}"
    if isinstance(x, float):
        return repr(x)
    if is_mpf(x):
        import mpmath
        return mpmath.nstr(x, 40)
    raise TypeError(f"cannot serialize scalar of type {type(x).__name__}")


def approximate_scalar(x) -> str:
    """A short decimal rendering of any scalar for messages: 12
    significant digits, never the digits of a huge exact value."""
    if isinstance(x, (int, Fraction)):
        import mpmath
        with mpmath.workprec(DOUBLE_PRECISION):
            return mpmath.nstr(mpmath.mpf(x.numerator) / x.denominator, 12)
    if is_mpf(x):
        import mpmath
        return mpmath.nstr(x, 12)
    return repr(x)


def parse_exponent(text: str) -> Exponent:
    """Parse an exponent literal; "inf" (any case) means infinity."""
    if isinstance(text, str) and text.strip().lower() in ("inf", "infinity", "oo"):
        return INF
    p = parse_scalar(text)
    if p < 1:
        raise ValueError(f"exponents must satisfy p >= 1, got {text!r}")
    return p


def format_exponent(p) -> str:
    """Serialize an exponent as a literal that `parse_exponent` reads back.

    Integers render bare ("2"), other rationals as "p/q" in lowest terms
    ("3/2", never "1.5"), and infinity as "inf".
    """
    return "inf" if p == INF else str(Fraction(p))


def to_binary(q, precision):
    """Round a rational (an int, a Fraction, or a float, which converts
    exactly) to the float mode of the given precision; None keeps it
    exact, as a Fraction."""
    if precision is None:
        return Fraction(q)
    if precision == DOUBLE_PRECISION:
        return float(q)
    return _rounded_mpf(*q.as_integer_ratio(), precision)


def to_binary_pair(numerators, unit, precision):
    """The (numerators, unit) pair of the scalars numerators[i] * unit in
    the arithmetic of `precision`, as `to_binary` rounds each scalar.  An
    exact pair n / D is read as it is: None keeps it, 53 bits is the int
    true division n / D, which is correctly rounded as float(Fraction(n,
    D)) is, and any other width rounds it once with `_rounded_mpf`; no
    Fraction is made.  Binary numerators, the scalars themselves, are
    rounded one by one with `to_binary`."""
    if type(unit) is int:
        return over_common_denominator(
            tuple([to_binary(x, precision) for x in numerators]))
    if precision is None:
        return numerators, unit
    den = unit.denominator
    if precision == DOUBLE_PRECISION:
        return tuple([n / den for n in numerators]), 1
    return tuple([_rounded_mpf(n, den, precision) for n in numerators]), 1


def in_family(q, x):
    """The rational q as a scalar that compares and combines with x: q
    itself, which ints, Fractions and floats mix with exactly, or for an
    mpf x (which does neither with a Fraction) q rounded to mpf at the
    working precision.  A Lorentz weight's tables round its breakpoints
    with it once per family and precision (see norms.ConcaveWeight)."""
    if is_mpf(x):
        import mpmath
        return _rounded_mpf(q.numerator, q.denominator, mpmath.mp.prec)
    return q


def _rounded_mpf(numerator, denominator, precision):
    """numerator / denominator rounded once to the nearest mpf of
    `precision` bits, however wide the two ints are."""
    import mpmath
    return mpmath.mp.make_mpf(mpmath.libmp.from_rational(
        numerator, denominator, precision, mpmath.libmp.round_nearest))


def _loaded_mpf():
    """mpmath's float type, or () while mpmath is not loaded: no mpf
    exists before, and isinstance and issubclass against () are false."""
    mpmath = sys.modules.get("mpmath")
    return () if mpmath is None else mpmath.mpf


def is_mpf(x) -> bool:
    """Whether x is an mpmath float."""
    return isinstance(x, _loaded_mpf())


#: the types of exact scalars; a sequence holding any other type is
#: binary (the constructors that call `over_common_denominator` check the
#: family of what they pass, so that type is a float or an mpf)
_EXACT_TYPES = frozenset((int, Fraction))


def over_common_denominator(values):
    """Write a sequence of scalars as (numerators, unit), values[i] ==
    numerators[i] * unit.

    Exact values (ints and Fractions) give a tuple of int numerators over
    their least common denominator D and the unit Fraction(1, D), so sums
    and products of numerators stay exact in int arithmetic and a kernel
    multiplies its result by the product of its units once.  Binary
    values (floats, mpfs), or a sequence holding any, come back
    unchanged with the unit int 1: multiplying by it is exact at the
    precision the values were rounded to, so the kernel's order of
    operations, and its result bit for bit, is that of the values.
    """
    if not _EXACT_TYPES.issuperset(map(type, values)):
        return values, 1
    dens = [v.denominator for v in values]
    den = math.lcm(*dens)
    return (tuple(v.numerator * (den // d) for v, d in zip(values, dens)),
            Fraction(1, den))


# A (numerators, unit) pair below has the unit the int 1 for binary
# numerators, which are the scalars themselves, and an exact unit 1/D for
# int numerators, as `over_common_denominator` writes them.

def in_lowest_terms(numerators, unit):
    """The pair for the scalars numerators[i] * unit that
    `over_common_denominator` gives: int numerators and D divided by their
    gcd (so D is the least common denominator), binary ones as they are;
    a tuple of numerators either way."""
    if type(unit) is int:
        return tuple(numerators), unit
    den = unit.denominator
    g = math.gcd(den, *numerators)
    if g == 1:
        return tuple(numerators), unit
    return tuple(x // g for x in numerators), Fraction(1, den // g)


def from_common_denominator(numerators, unit) -> tuple:
    """The scalars numerators[i] * unit: Fraction(n, D) for an exact unit
    1/D, one gcd and no Fraction product; binary numerators, which are
    the scalars themselves, as they are."""
    if type(unit) is int:
        return tuple(numerators)
    den = unit.denominator
    return tuple(Fraction(x, den) for x in numerators)


def shifted(numerators, unit, m):
    """The pair for the scalars numerators[i] * unit - m: for an exact
    unit and an exact m, the shift runs on int numerators over the common
    denominator of the two and is put in lowest terms; binary numerators
    come back as numerators[i] - m with the unit int 1."""
    if type(unit) is int:
        return tuple([x - m for x in numerators]), unit
    den = math.lcm(unit.denominator, m.denominator)
    scale, offset = den // unit.denominator, m.numerator * (den // m.denominator)
    return in_lowest_terms([x * scale - offset for x in numerators],
                           Fraction(1, den))


def over_one_unit(forms):
    """Put several (numerators, unit) pairs of `over_common_denominator`
    on one shared unit: (one numerator sequence per pair, unit).

    Exact pairs share the unit 1/D for D the lcm of their denominators.
    As soon as one pair is binary (its unit is the int 1), every pair
    comes back as its values with the unit int 1, which is what
    `over_common_denominator` gives for the concatenated values.
    """
    units = [unit for _, unit in forms]
    if any(type(unit) is int for unit in units):
        return [numerators if type(unit) is int
                else tuple(n * unit for n in numerators)
                for numerators, unit in forms], 1
    den = math.lcm(*(unit.denominator for unit in units))
    return [numerators if unit.denominator == den
            else tuple(n * (den // unit.denominator) for n in numerators)
            for numerators, unit in forms], Fraction(1, den)


def unit_product(*units):
    """The product of the units of (numerators, unit) pairs, as `*` gives
    it but with no gcd per factor: Fraction(1, D_1 D_2 ...) for the exact
    units 1/D_i among them (a product of unit fractions is in lowest
    terms), and the int 1 if all are binary."""
    dens = [u.denominator for u in units if type(u) is not int]
    return Fraction(1, math.prod(dens)) if dens else 1


def kept(obj, name: str, make, *args):
    """obj.__dict__[name], made as make(*args) on first use: how a frozen
    dataclass keeps what it derives, out of its fields' eq, hash and repr."""
    memo = obj.__dict__
    if name not in memo:
        memo[name] = make(*args)
    return memo[name]


def dot(terms, *columns):
    """Sum over i of terms[i] * columns[0][i] * ...: each term multiplied
    from the left, the terms added from the left starting from the int 0
    (the result for no terms), in the scalars' own arithmetic.  The
    built-in `sum` compensates float sums from Python 3.12 on (Neumaier,
    ZAMM 54, 1974; CPython gh-100425): this fold gives the same bits on
    every Python version."""
    for column in columns:
        terms = map(mul, terms, column)
    total = 0
    for term in terms:
        total += term
    return total


def binary_context(precision: int):
    """Arithmetic context for float-mode computations.

    A no-op for the native double; otherwise sets the mpmath working
    precision for the duration of the block.
    """
    if precision == DOUBLE_PRECISION:
        return _NO_CONTEXT
    import mpmath
    return mpmath.workprec(precision)


def _type_family(t) -> str:
    """The mixed-mode family of scalars of type t.

    ints are compatible with every mode and report "any".
    """
    if issubclass(t, bool):
        raise TypeError("booleans are not scalars")
    if issubclass(t, int):
        return "any"
    if issubclass(t, float):  # first: Fraction's ABC check is slower
        return "float"
    if issubclass(t, Fraction):
        return "exact"
    if issubclass(t, _loaded_mpf()):
        return "mpf"
    raise TypeError(f"unsupported scalar type {t.__name__}")


_ANY = frozenset(("any",))


def check_one_family(values, what: str, families=frozenset()) -> set:
    """Reject collections mixing exact and binary scalars, counting the
    `families` this check returned for scalars checked with them (a
    space's weights, for a function's values); return the families found,
    "any" (the ints) left out.

    Classifies each distinct type once, in order of first occurrence, so
    the first bool or unsupported type raises its TypeError.
    """
    families = ({_type_family(t) for t in dict.fromkeys(map(type, values))}
                - _ANY) | families
    if len(families) > 1:
        raise ValueError(f"{what} mixes arithmetic modes {sorted(families)}")
    return families
