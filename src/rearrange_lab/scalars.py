"""Scalar arithmetic modes and the string number format of the JSON layer.

Two arithmetic modes exist.  Exact mode keeps every quantity a
`fractions.Fraction` (lowest terms, positive denominator -- the Fraction
class guarantees both) and is the authority for every inequality that does
not involve a fractional root.  Float mode is binary floating point with a
configurable significand width: 53 bits means the native machine double,
anything else is evaluated through mpmath.  Mixed-mode arithmetic is
rejected at construction time by the container types in `spaces`.

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
"""

from __future__ import annotations

import contextlib
import math
from fractions import Fraction
from typing import Union

import mpmath

#: significand width of the native double, the default float-mode precision
DOUBLE_PRECISION = 53

#: significand width used when rechecking float-mode violations
QUAD_PRECISION = 113

INF = float("inf")

Scalar = Union[int, Fraction, float]
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


def is_rational_literal(text: str) -> bool:
    """True for "p/q" style literals, which force exact mode."""
    return isinstance(text, str) and "/" in text


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
    if isinstance(x, mpmath.mpf):
        return mpmath.nstr(x, 40)
    raise TypeError(f"cannot serialize scalar of type {type(x).__name__}")


def approximate_scalar(x) -> str:
    """A short decimal rendering of any scalar for messages: 12
    significant digits, never the digits of a huge exact value."""
    if isinstance(x, (int, Fraction)):
        with mpmath.workprec(DOUBLE_PRECISION):
            return mpmath.nstr(mpmath.mpf(x.numerator) / x.denominator, 12)
    return mpmath.nstr(x, 12) if isinstance(x, mpmath.mpf) else repr(x)


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
    """Round an exact rational to the float mode of the given precision;
    None keeps it exact."""
    if precision is None:
        return q
    if precision == DOUBLE_PRECISION:
        return float(q)
    with mpmath.workprec(precision):
        return mpmath.mpf(q.numerator) / q.denominator


def in_family(q, x):
    """The rational q as a scalar that compares and combines with x: q
    itself, which ints, Fractions and floats mix with exactly, or for an
    mpf x (which does neither with a Fraction) q rounded to mpf."""
    if isinstance(x, mpmath.mpf):
        return mpmath.mpf(q.numerator) / q.denominator
    return q


def over_common_denominator(values):
    """Write a sequence of scalars as (numerators, unit), values[i] ==
    numerators[i] * unit.

    Exact values (ints and Fractions) give int numerators over their
    least common denominator D and the unit Fraction(1, D), so sums and
    products of numerators stay exact in int arithmetic and a kernel
    multiplies its result by the product of its units once.  Binary
    values (floats, mpfs), or a sequence holding any, come back
    unchanged with the unit int 1: multiplying by it is exact at the
    precision the values were rounded to, so the kernel's order of
    operations, and its result bit for bit, is that of the values.
    """
    try:
        dens = [v.denominator for v in values]
    except AttributeError:  # floats and mpfs have no denominator
        return values, 1
    den = math.lcm(*dens)
    return ([v.numerator * (den // d) for v, d in zip(values, dens)],
            Fraction(1, den))


def binary_context(precision: int):
    """Arithmetic context for float-mode computations.

    A no-op for the native double; otherwise sets the mpmath working
    precision for the duration of the block.
    """
    if precision == DOUBLE_PRECISION:
        return contextlib.nullcontext()
    return mpmath.workprec(precision)


def _type_family(t) -> str:
    """The mixed-mode family of scalars of type t.

    ints are compatible with every mode and report "any".
    """
    if issubclass(t, bool):
        raise TypeError("booleans are not scalars")
    if issubclass(t, int):
        return "any"
    if issubclass(t, Fraction):
        return "exact"
    if issubclass(t, float):
        return "float"
    if issubclass(t, mpmath.mpf):
        return "mpf"
    raise TypeError(f"unsupported scalar type {t.__name__}")


def scalar_family(x) -> str:
    """Classify a scalar for the mixed-mode guard."""
    return _type_family(type(x))


def check_one_family(values, what: str) -> None:
    """Reject collections mixing exact and binary scalars.

    Classifies each distinct type once, in order of first occurrence, so
    the first bool or unsupported type raises its TypeError.
    """
    families = {_type_family(t)
                for t in dict.fromkeys(map(type, values))} - {"any"}
    if len(families) > 1:
        raise ValueError(f"{what} mixes arithmetic modes {sorted(families)}")
