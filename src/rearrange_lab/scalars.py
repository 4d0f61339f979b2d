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
rounding.  Floats serialize with shortest round-trip `repr`.  Exponents
are never rendered as decimals: they serialize as bare integers, "p/q"
literals or "inf".
"""

from __future__ import annotations

import contextlib
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


def parse_scalar(text: str) -> Fraction:
    """Parse a "p/q" or decimal string literal into an exact rational."""
    if not isinstance(text, str):
        raise ValueError(f"scalar literals must be strings, got {text!r}")
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


@contextlib.contextmanager
def binary_context(precision: int):
    """Arithmetic context for float-mode computations.

    A no-op for the native double; otherwise sets the mpmath working
    precision for the duration of the block.
    """
    if precision == DOUBLE_PRECISION:
        yield
    else:
        with mpmath.workprec(precision):
            yield


def scalar_family(x) -> str:
    """Classify a scalar for the mixed-mode guard.

    ints are compatible with every mode and report "any".
    """
    if isinstance(x, bool):
        raise TypeError("booleans are not scalars")
    if isinstance(x, int):
        return "any"
    if isinstance(x, Fraction):
        return "exact"
    if isinstance(x, float):
        return "float"
    if isinstance(x, mpmath.mpf):
        return "mpf"
    raise TypeError(f"unsupported scalar type {type(x).__name__}")


def check_one_family(values, what: str) -> None:
    """Reject collections mixing exact and binary scalars."""
    families = {scalar_family(v) for v in values} - {"any"}
    if len(families) > 1:
        raise ValueError(f"{what} mixes arithmetic modes {sorted(families)}")
