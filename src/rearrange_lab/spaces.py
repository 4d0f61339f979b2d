"""Finite probability spaces, simple functions, and scalar statistics.

A `DiscreteSpace` is a finite list of atoms with positive weights summing
to one; a `SimpleFunction` assigns one real value per atom.  Subsets of
atoms are plain ``frozenset`` objects of atom indices.  Everything is
immutable after construction and safe to share between threads.

Both types write their scalars over one common denominator when they are
built: ``numerators`` and ``unit`` are `over_common_denominator` of the
weights or values, so every exact kernel (`integrate` here,
`bilinear_form`, `decreasing_rearrangement`) reads int numerators without
deriving them again.  Binary scalars are their own numerators, with the
unit int 1, and so are the values of a function on a binary space, ints
included.  A function built from an exact pair
(`SimpleFunction.from_numerators`, as the instance generator builds them,
and `center` and `multiply`, which shift and multiply numerators) scales
its values back on first read and keeps them; until a caller reads them
no `Fraction` is made.  `equal_space` builds and validates one space per
atom count.  `common_space` is the one check that functions combined
pointwise share their space.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import repeat
from operator import mul
from typing import Iterable

from .errors import InputError
from .scalars import (approximate_scalar, check_one_family, dot,
                      format_scalar, from_common_denominator, in_family,
                      in_lowest_terms, over_common_denominator, parse_scalar,
                      shifted, to_binary, unit_product)

#: relative slack allowed on the weight sum for binary-float inputs
WEIGHT_SUM_TOLERANCE = Fraction(1, 2**40)

AtomSet = frozenset  # subset of atom indices


@dataclass(frozen=True)
class DiscreteSpace:
    """A finite probability space: positive atom weights summing to 1,
    also kept as ``numerators`` over a positive ``unit``, with their
    arithmetic ``families`` (`check_one_family`; the int weight 1 of a
    one-atom space is exact, as its unit is)."""

    weights: tuple
    numerators: tuple = field(init=False, repr=False, compare=False)
    unit: object = field(init=False, repr=False, compare=False)
    families: frozenset = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        weights = tuple(self.weights)
        object.__setattr__(self, "weights", weights)
        if not weights:
            raise InputError("a space needs at least one atom")
        object.__setattr__(self, "families", frozenset(
            check_one_family(weights, "space weights") or {"exact"}))
        numerators, unit = over_common_denominator(weights)
        object.__setattr__(self, "numerators", numerators)
        object.__setattr__(self, "unit", unit)
        if any(w <= 0 for w in numerators):
            raise InputError("atom weights must be positive")
        total = dot(numerators) * unit
        if total != 1 and \
                abs(total - 1) > in_family(WEIGHT_SUM_TOLERANCE, total):
            raise InputError(
                f"atom weights sum to {approximate_scalar(total)}, not 1")

    @property
    def n(self) -> int:
        return len(self.weights)

    def measure(self, atoms: Iterable[int]):
        """mu(A) for a set of atom indices (the int 0 for none)."""
        return dot(map(self.weights.__getitem__, atoms))

    @functools.cached_property
    def all_atoms(self) -> AtomSet:
        """The set of all atom indices, built once per space."""
        return frozenset(range(self.n))

    def check_atoms(self, atoms: Iterable[int]) -> AtomSet:
        s = frozenset(atoms)
        ints = all(map(isinstance, s, repeat(int)))
        if not (ints and s <= self.all_atoms):
            raise InputError(  # other items may not order, as 0 and "a"
                f"atom indices out of range for n={self.n}: "
                f"{sorted(s) if ints else sorted(s, key=repr)}")
        return s

    def complement(self, atoms: AtomSet) -> AtomSet:
        return self.all_atoms - atoms


@functools.cache
def equal_space(n: int) -> DiscreteSpace:
    """The n-atom space with equal weights 1/n, built and validated once
    per n: every call with the same n returns the same object."""
    return DiscreteSpace(tuple(Fraction(1, n) for _ in range(n)))


@dataclass(frozen=True)
class SimpleFunction:
    """A real-valued function given by one value per atom, also kept as
    ``numerators`` over a positive ``unit``."""

    values: tuple
    space: DiscreteSpace
    numerators: tuple = field(init=False, repr=False, compare=False)
    unit: object = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        values = tuple(self.values)
        object.__setattr__(self, "values", values)
        _check_values(values, self.space)
        numerators, unit = (values, 1) if type(self.space.unit) is int \
            else over_common_denominator(values)
        object.__setattr__(self, "numerators", numerators)
        object.__setattr__(self, "unit", unit)

    @classmethod
    def from_numerators(cls, numerators, unit, space) -> SimpleFunction:
        """The function with values numerators[i] * unit, for a pair in
        lowest terms as `over_common_denominator` gives it (a tuple of
        numerators), checked as the constructor checks, but on the pair.
        Exact values are scaled back on first read; binary numerators
        are the values and are kept as such."""
        _check_values(numerators, space, unit)
        return _from_pair(numerators, unit, space)


def _from_pair(numerators, unit, space) -> SimpleFunction:
    """`SimpleFunction.from_numerators` unchecked, for a pair made from
    checked functions on their common space."""
    fields = {"space": space, "numerators": numerators, "unit": unit}
    if type(unit) is int:  # binary numerators are the values
        fields["values"] = numerators
    f = object.__new__(SimpleFunction)
    f.__dict__.update(fields)
    return f


def _check_values(values: tuple, space: DiscreteSpace, unit=1) -> None:
    """One value per atom, of the arithmetic family of the weights; for
    int numerators over an exact unit the unit's family is the values'."""
    if len(values) != len(space.weights):
        raise InputError(
            f"{len(values)} values for a space with {space.n} atoms")
    families = space.families
    if type(unit) is not int:
        families = check_one_family((unit,), "function values", families)
    check_one_family(values, "function values", families)


def _scaled_values(f: SimpleFunction) -> tuple:
    return from_common_denominator(f.numerators, f.unit)


# A non-data descriptor under the field's name: an instance built by
# `from_numerators` with an exact unit scales its values back on the first
# read and keeps them, while the dataclass `__init__` stores given values
# in the instance dict, which takes precedence.  (A class-level
# `__getattr__` would do the same, but slows every attribute read.)
SimpleFunction.values = functools.cached_property(_scaled_values)
SimpleFunction.values.__set_name__(SimpleFunction, "values")


def integrate(f: SimpleFunction):
    """The expected value of f: sum of value * weight over atoms, in int
    numerators for exact scalars."""
    space = f.space
    return dot(f.numerators, space.numerators) * (f.unit * space.unit)


def center(f: SimpleFunction) -> SimpleFunction:
    """Subtract the mean, so the result integrates to zero (exactly, in
    exact mode); exact values are shifted as int numerators."""
    return _from_pair(*shifted(f.numerators, f.unit, integrate(f)), f.space)


def support(f: SimpleFunction) -> AtomSet:
    """Indices where f is nonzero.  No epsilon: binary-float values count
    as nonzero unless they are exactly 0."""
    return frozenset(i for i, v in enumerate(f.values) if v != 0)


def common_space(*functions: SimpleFunction) -> DiscreteSpace:
    """The space of the first function, which every other one must share
    (same weights in the same arithmetic: Fraction(1, 2) == 0.5, but an
    exact and a binary function do not combine)."""
    space = functions[0].space
    for f in functions[1:]:
        if f.space is not space and (f.space.weights != space.weights
                                     or f.space.families != space.families):
            raise InputError("functions live on different spaces")
    return space


def multiply(f: SimpleFunction, g: SimpleFunction) -> SimpleFunction:
    """Pointwise product fg, made of the numerators."""
    space = common_space(f, g)
    return _from_pair(*in_lowest_terms(tuple(map(mul, f.numerators,
                                                 g.numerators)),
                                       unit_product(f.unit, g.unit)), space)


def to_binary_space(space: DiscreteSpace, precision: int) -> DiscreteSpace:
    return DiscreteSpace(tuple(to_binary(w, precision) for w in space.weights))


def to_binary_function(f: SimpleFunction, space: DiscreteSpace, precision: int) -> SimpleFunction:
    return SimpleFunction(tuple(to_binary(v, precision) for v in f.values),
                          space)


# ---------------------------------------------------------------------------
# instance JSON format shared with the CLI:
# {"space": {"weights": ["1/4", ...]}, "functions": {"f": ["1", ...], ...}}

def space_to_json(space: DiscreteSpace) -> dict:
    return {"weights": [format_scalar(w) for w in space.weights]}


def space_from_json(obj: dict) -> DiscreteSpace:
    literals = obj.get("weights") if isinstance(obj, dict) else None
    if not isinstance(literals, list):
        raise InputError("a space object needs a 'weights' list of literals")
    try:
        weights = tuple(parse_scalar(w) for w in literals)
    except ValueError as exc:
        raise InputError(f"bad space object: {exc}") from exc
    return DiscreteSpace(weights)


def instance_to_json(space: DiscreteSpace, functions: dict) -> dict:
    return {
        "space": space_to_json(space),
        "functions": {
            name: [format_scalar(v) for v in f.values]
            for name, f in functions.items()
        },
    }


def instance_from_json(obj: dict):
    """Parse an instance document into (space, {name: SimpleFunction})."""
    if not isinstance(obj, dict) or "space" not in obj:
        raise InputError("instance JSON must contain a 'space' object")
    space = space_from_json(obj["space"])
    documents = obj.get("functions", {})
    if not isinstance(documents, dict):
        raise InputError("instance 'functions' must be an object")
    functions = {}
    for name, values in documents.items():
        if not isinstance(values, list):
            raise InputError(f"function {name!r} must be a list of literals")
        try:
            values = tuple(parse_scalar(v) for v in values)
        except ValueError as exc:
            raise InputError(f"bad function {name!r}: {exc}") from exc
        functions[name] = SimpleFunction(values, space)
    return space, functions
