"""Finite probability spaces, simple functions, and scalar statistics.

A `DiscreteSpace` is a finite list of atoms with positive weights summing
to one; a `SimpleFunction` assigns one real value per atom.  Subsets of
atoms are plain ``frozenset`` objects of atom indices.  Everything is
immutable after construction and safe to share between threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import InputError
from .scalars import (approximate_scalar, check_one_family, format_scalar,
                      in_family, over_common_denominator, parse_scalar,
                      to_binary)

#: relative slack allowed on the weight sum for binary-float inputs
WEIGHT_SUM_TOLERANCE = Fraction(1, 2**40)

AtomSet = frozenset  # subset of atom indices


@dataclass(frozen=True)
class DiscreteSpace:
    """A finite probability space: positive atom weights summing to 1."""

    weights: tuple

    def __post_init__(self):
        weights = tuple(self.weights)
        object.__setattr__(self, "weights", weights)
        if not weights:
            raise InputError("a space needs at least one atom")
        check_one_family(weights, "space weights")
        if any(w <= 0 for w in weights):
            raise InputError("atom weights must be positive")
        total = sum(weights)
        if total != 1 and \
                abs(total - 1) > in_family(WEIGHT_SUM_TOLERANCE, total):
            raise InputError(
                f"atom weights sum to {approximate_scalar(total)}, not 1")

    @property
    def n(self) -> int:
        return len(self.weights)

    @property
    def equal_atoms(self) -> bool:
        return all(w == self.weights[0] for w in self.weights)

    def measure(self, atoms: Iterable[int]):
        """mu(A) for a set of atom indices."""
        return sum((self.weights[i] for i in atoms), start=Fraction(0) * self.weights[0])

    def check_atoms(self, atoms: Iterable[int]) -> AtomSet:
        s = frozenset(atoms)
        if any(not isinstance(i, int) or not 0 <= i < self.n for i in s):
            raise InputError(f"atom indices out of range for n={self.n}: {sorted(s)}")
        return s

    def complement(self, atoms: AtomSet) -> AtomSet:
        return frozenset(range(self.n)) - atoms


def equal_space(n: int) -> DiscreteSpace:
    """The n-atom space with equal weights 1/n."""
    return DiscreteSpace(tuple(Fraction(1, n) for _ in range(n)))


@dataclass(frozen=True)
class SimpleFunction:
    """A real-valued function given by one value per atom."""

    values: tuple
    space: DiscreteSpace

    def __post_init__(self):
        values = tuple(self.values)
        object.__setattr__(self, "values", values)
        if len(values) != self.space.n:
            raise InputError(
                f"{len(values)} values for a space with {self.space.n} atoms"
            )
        check_one_family(values + self.space.weights, "function values")

    def __iter__(self):
        return iter(self.values)

    def __len__(self):
        return len(self.values)


def simple(values: Sequence, space: DiscreteSpace) -> SimpleFunction:
    return SimpleFunction(tuple(values), space)


def integrate(f: SimpleFunction):
    """The expected value of f: sum of value * weight over atoms, in int
    numerators for exact scalars."""
    values, value_unit = over_common_denominator(f.values)
    weights, weight_unit = over_common_denominator(f.space.weights)
    return sum(v * w for v, w in zip(values, weights)) \
        * (value_unit * weight_unit)


def center(f: SimpleFunction) -> SimpleFunction:
    """Subtract the mean, so the result integrates to zero (exactly, in
    exact mode)."""
    m = integrate(f)
    return SimpleFunction(tuple(v - m for v in f.values), f.space)


def support(f: SimpleFunction) -> AtomSet:
    """Indices where f is nonzero.  No epsilon: binary-float values count
    as nonzero unless they are exactly 0."""
    return frozenset(i for i, v in enumerate(f.values) if v != 0)


def pos_neg_parts(f: SimpleFunction):
    """Split f = f_plus - f_minus into nonnegative parts with disjoint
    supports."""
    zero = 0 * f.values[0] if f.values else 0
    plus = tuple(v if v > 0 else zero for v in f.values)
    minus = tuple(-v if v < 0 else zero for v in f.values)
    return SimpleFunction(plus, f.space), SimpleFunction(minus, f.space)


def scale(f: SimpleFunction, c) -> SimpleFunction:
    return SimpleFunction(tuple(c * v for v in f.values), f.space)


def add(f: SimpleFunction, g: SimpleFunction) -> SimpleFunction:
    _same_space(f, g)
    return SimpleFunction(tuple(a + b for a, b in zip(f.values, g.values)), f.space)


def multiply(f: SimpleFunction, g: SimpleFunction) -> SimpleFunction:
    """Pointwise product fg."""
    _same_space(f, g)
    return SimpleFunction(tuple(a * b for a, b in zip(f.values, g.values)), f.space)


def _same_space(f: SimpleFunction, g: SimpleFunction) -> None:
    if f.space.weights != g.space.weights:
        raise InputError("functions live on different spaces")


def to_binary_space(space: DiscreteSpace, precision: int) -> DiscreteSpace:
    return DiscreteSpace(tuple(to_binary(Fraction(w), precision) for w in space.weights))


def to_binary_function(f: SimpleFunction, space: DiscreteSpace, precision: int) -> SimpleFunction:
    return SimpleFunction(
        tuple(to_binary(Fraction(v), precision) for v in f.values), space
    )


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
