"""Decreasing rearrangements and step-profile arithmetic.

The decreasing rearrangement f* of a simple function f is the
nonincreasing, right-continuous step function on [0, infinity) that is
equimeasurable with |f|.  It is represented canonically as a
`StepProfile`: strictly decreasing positive values with positive segment
lengths, zero beyond the total length.  Products and L^p integrals
of profiles are computed on the merged breakpoint grid, exactly when the
scalars are exact.  `align` is the one builder of that grid, on the int
numerators that profiles keep, and every profile operation here is a
single pass over its output that scales back once.

The kernels read the int numerators that functions, spaces and profiles
keep from construction.  `decreasing_rearrangement` adds the weight
numerators of equal magnitudes of f's numerators and sorts the distinct
magnitudes, and `StepProfile.from_numerators` checks the merged segments
on those ints and keeps them; the segments are scaled back on first read
only.  Binary scalars run the same code with the unit 1, in their own
arithmetic and in the order of operations of a plain loop.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, repeat
from operator import le, sub

from .errors import InputError
from .scalars import (INF, check_one_family, dot, format_scalar,
                      from_common_denominator, in_lowest_terms,
                      over_common_denominator, over_one_unit, unit_product)
from .spaces import DiscreteSpace, SimpleFunction, common_space


def _check_family(scalars, what="segment lengths") -> None:
    try:
        check_one_family(scalars, what)
    except ValueError as exc:
        raise InputError(str(exc)) from None


def _check_segments(values, lengths) -> None:
    """The segment checks on values and lengths, or on their numerators
    over positive units, which order and sign as the scalars do."""
    if any(l <= 0 for l in lengths):
        raise InputError("segment lengths must be positive")
    if any(v <= 0 for v in values):
        raise InputError("segment values must be positive (zeros are implicit)")
    if any(values[i] <= values[i + 1] for i in range(len(values) - 1)):
        raise InputError("segment values must be strictly decreasing")


@dataclass(frozen=True)
class StepProfile:
    """A nonincreasing, right-continuous step function on [0, infinity).

    ``segments`` is an ordered tuple of (value, length) pairs with strictly
    decreasing positive values of one arithmetic family and positive
    lengths of one family; the function is 0 from the total length
    onward.  The zero function is the empty profile.  The segment values
    are also kept as ``value_numerators`` over ``value_unit`` and the
    lengths as ``length_numerators`` over ``length_unit``
    (`over_common_denominator`), which is what the kernels read.
    """

    segments: tuple
    value_numerators: tuple = field(init=False, repr=False, compare=False)
    value_unit: object = field(init=False, repr=False, compare=False)
    length_numerators: tuple = field(init=False, repr=False, compare=False)
    length_unit: object = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        segments = tuple(self.segments)
        object.__setattr__(self, "segments", segments)
        values = tuple(v for v, _ in segments)
        lengths = tuple(l for _, l in segments)
        _check_family(values, "segment values")
        _check_family(lengths)
        self._keep(*over_common_denominator(values),
                   *over_common_denominator(lengths))

    @classmethod
    def from_numerators(cls, value_numerators, value_unit, length_numerators,
                        length_unit) -> StepProfile:
        """The profile of segments (v * value_unit, l * length_unit), checked
        as the constructor checks its segments, but on the numerators; it
        keeps both pairs in lowest terms.  Exact segments are scaled back
        on first read; binary numerators are the segments' scalars and are
        kept as such."""
        _check_family(length_numerators)
        values = in_lowest_terms(value_numerators, value_unit)
        lengths = in_lowest_terms(length_numerators, length_unit)
        profile = object.__new__(cls)
        profile._keep(*values, *lengths)
        if type(value_unit) is int and type(length_unit) is int:
            object.__setattr__(profile, "segments",
                               tuple(zip(values[0], lengths[0])))
        return profile

    def _keep(self, value_numerators, value_unit, length_numerators,
              length_unit) -> None:
        _check_segments(value_numerators, length_numerators)
        object.__setattr__(self, "value_numerators", value_numerators)
        object.__setattr__(self, "value_unit", value_unit)
        object.__setattr__(self, "length_numerators", length_numerators)
        object.__setattr__(self, "length_unit", length_unit)

    @property
    def total_length(self):
        """The sum of the lengths, started from Fraction(0) (which keeps an
        empty or exact profile's length a Fraction)."""
        return Fraction(0) + self.boundaries[-1]

    @property
    def sup(self):
        """The essential sup = the value at 0."""
        return self.segments[0][0] if self.segments else Fraction(0)

    @cached_property
    def boundaries(self) -> tuple:
        """Cumulative segment boundaries (0, l1, l1+l2, ...), summed once
        per profile on first use (for mpf lengths, at the precision then in
        effect); the int 0 mixes with every arithmetic family (mpf does not
        with Fraction)."""
        cuts = [0]
        for _, l in self.segments:
            cuts.append(cuts[-1] + l)
        return tuple(cuts)

    def __call__(self, t):
        if t < 0:
            raise InputError("profiles live on [0, infinity)")
        idx = bisect_right(self.boundaries, t) - 1
        if idx >= len(self.segments):
            return Fraction(0)
        return self.segments[idx][0]


def _scaled_segments(profile: StepProfile) -> tuple:
    return tuple(zip(
        from_common_denominator(profile.value_numerators, profile.value_unit),
        from_common_denominator(profile.length_numerators,
                                profile.length_unit)))


# A non-data descriptor under the field's name, as `SimpleFunction.values`
# is: an exact profile built by `from_numerators` scales its segments back
# on the first read, one built from segments keeps them in its instance
# dict.
StepProfile.segments = cached_property(_scaled_segments)
StepProfile.segments.__set_name__(StepProfile, "segments")


def make_profile(pairs) -> StepProfile:
    """Canonicalize (value, length) pairs: drop zeros, merge runs of equal
    values."""
    merged = []
    for value, length in pairs:
        if length == 0 or value == 0:
            continue
        if value < 0:
            raise InputError("profile values must be nonnegative")
        if merged and merged[-1][0] == value:
            merged[-1][1] += length
        else:
            merged.append([value, length])
    return StepProfile(tuple((v, l) for v, l in merged))


def decreasing_rearrangement(f: SimpleFunction) -> StepProfile:
    """Sort atoms by |value| descending (ties by atom index) and lay their
    weights out from 0; equal values merge, zeros are dropped.

    The weight numerators of equal nonzero magnitudes of f's numerators
    are added in atom order (the order of a stable sort), and only the
    distinct magnitudes are sorted; the profile keeps the merged
    numerators.
    """
    lengths = {}
    for v, w in zip(f.numerators, f.space.numerators):
        if v:
            v = abs(v)
            # the first weight as it is: adding it to 0 would round an mpf
            lengths[v] = lengths[v] + w if v in lengths else w
    magnitudes = sorted(lengths, reverse=True)
    return StepProfile.from_numerators(
        magnitudes, f.unit, [lengths[v] for v in magnitudes], f.space.unit)


def distribution_measure(f: SimpleFunction, t):
    """mu({|f| > t}), added as `decreasing_rearrangement` adds f's
    lengths: the weights of each magnitude above t in atom order, then
    those sums from the largest magnitude down.  So f and its own
    rearrangement give the same binary sum, which the weights added in
    atom order need not."""
    sums = {}
    for v, w in zip(f.values, f.space.weights):
        v = abs(v)
        if v > t:
            sums[v] = sums[v] + w if v in sums else w
    return dot(map(sums.__getitem__, sorted(sums, reverse=True)))


def profile_level_measure(profile: StepProfile, t):
    """Lebesgue measure of {profile > t} (the int 0 for an empty set)."""
    return dot(l for v, l in profile.segments if v > t)


# ---------------------------------------------------------------------------
# merged-grid arithmetic

def align(*profiles):
    """Put profiles on their merged breakpoint grid, in the numerators
    they keep: (widths, rows, unit), the widths over the one length unit
    that `over_one_unit` gives all profiles, and per profile its value
    numerators on the grid over its own ``value_unit``, the int 0 (which
    mixes with every arithmetic family) beyond its length."""
    lengths, unit = over_one_unit(
        [(p.length_numerators, p.length_unit) for p in profiles])
    bounds = [(0, *accumulate(numerators)) for numerators in lengths]
    cuts = sorted(set().union(*bounds))
    widths = [b - a for a, b in zip(cuts, cuts[1:])]
    rows = [list(map((None, *p.value_numerators, 0).__getitem__,  # 1 + segment
                     map(bisect_right, repeat(ends), cuts[:-1])))
            for p, ends in zip(profiles, bounds)]
    return widths, rows, unit


def _on_one_unit(p: StepProfile, q: StepProfile):
    """align(p, q) as (widths, unit, rows, value unit), the rows on one
    unit; an empty profile's zeros take the other's (its own is exact, and
    a Fraction does not mix with an mpf)."""
    widths, rows, unit = align(p, q)
    units = [a.value_unit if a.value_numerators else b.value_unit
             for a, b in ((p, q), (q, p))]
    rows, value_unit = over_one_unit(list(zip(rows, units)))
    return widths, unit, rows, value_unit


def profile_integrate_product(profiles):
    """Integral over [0, infinity) of the pointwise product of profiles
    (the int 0, which mixes with every arithmetic family, if one is empty):
    the `dot` of `align`'s widths and rows, multiplied by the product of
    the units once.
    """
    if not profiles:
        raise InputError("need at least one profile")
    if any(not p.length_numerators for p in profiles):
        return 0
    widths, rows, unit = align(*profiles)
    return dot(widths, *rows) * unit_product(
        unit, *(p.value_unit for p in profiles))


def profile_leq(p: StepProfile, q: StepProfile) -> bool:
    """Pointwise p <= q on [0, infinity)."""
    _, _, (pv, qv), _ = _on_one_unit(p, q)
    return all(map(le, pv, qv))


def profile_difference_moment(p: StepProfile, q: StepProfile, k: int):
    """Integral of |p - q|^k on the merged grid, scaled back once."""
    widths, unit, (pv, qv), value_unit = _on_one_unit(p, q)
    total = dot([abs(a - b) ** k for a, b in zip(pv, qv)], widths)
    return total * (value_unit ** k * unit)


def profile_difference_sup(p: StepProfile, q: StepProfile):
    _, _, (pv, qv), value_unit = _on_one_unit(p, q)
    return max(map(abs, map(sub, pv, qv)), default=0) * value_unit


# ---------------------------------------------------------------------------
# checked identities

def _integer_exponent(p, what: str) -> int:
    """p as an int; `what` is checked for integer p (or inf) only."""
    if Fraction(p).denominator != 1:
        raise InputError(f"{what} is checked for integer p or inf")
    return int(p)


def lp_moments(f: SimpleFunction, p):
    """The pre-root pair (|f|_p^p, |f*|_p^p) for an integer p, or the two
    sups for p = inf; the two agree."""
    prof = decreasing_rearrangement(f)
    if p == INF:
        return max((abs(v) for v in f.values), default=Fraction(0)), prof.sup
    k = _integer_exponent(p, "Lp preservation")
    m_f = dot([abs(v) ** k for v in f.values], f.space.weights)
    return m_f, dot([v**k * l for v, l in prof.segments])


def indicator_difference_rearrangement(f: SimpleFunction, t):
    """Rearrange the signed indicator difference at level t.

    Returns the pair (left, right) where left is the rearrangement of
    1_{f_+ > t} - 1_{f_- > t} and right is the flat profile of height 1 on
    [0, mu({|f| > t})).  The two must coincide.
    """
    if t < 0:
        raise InputError("threshold t must be nonnegative")
    indicator = tuple(
        1 if v > t else (-1 if -v > t else 0) for v in f.values
    )
    left = decreasing_rearrangement(SimpleFunction(indicator, f.space))
    # mu({|f| > t}) in atom order, as left adds its one length
    width = f.space.measure(i for i, v in enumerate(indicator) if v)
    right = make_profile([(Fraction(1), width)] if width > 0 else [])
    return left, right


def nonexpansive_moments(f: SimpleFunction, g: SimpleFunction, p):
    """The pre-root pair (|f* - g*|^p integral, |f - g|_p^p) for integer
    p, or the two sups for p = inf; the first never exceeds the second."""
    weights = common_space(f, g).weights
    pf, pg = decreasing_rearrangement(f), decreasing_rearrangement(g)
    if p == INF:
        rhs = max(
            (abs(a - b) for a, b in zip(f.values, g.values)), default=Fraction(0)
        )
        return profile_difference_sup(pf, pg), rhs
    k = _integer_exponent(p, "non-expansiveness")
    rhs = dot([abs(a - b) ** k for a, b in zip(f.values, g.values)], weights)
    return profile_difference_moment(pf, pg, k), rhs


def equimeasurable(f: SimpleFunction, profile: StepProfile) -> bool:
    """mu({|f| > t}) equals |{profile > t}| for every t >= 0.

    Both distribution functions are right-continuous steps that change
    only at a value on their side, so it is enough to test every distinct
    value on either side and 0 (in the values' own arithmetic: mpf does
    not compare with Fraction).  For consecutive levels a < t < b the
    sets {|f| > t} and {profile > t} are those at a, so a threshold
    between levels repeats the test at the level below it.
    """
    levels = ({abs(v) for v in f.values} | {v for v, _ in profile.segments}
              | {0 * abs(f.values[0])})
    return all(
        distribution_measure(f, t) == profile_level_measure(profile, t)
        for t in levels
    )


def truncation_ladder(f: SimpleFunction, levels: int = 16):
    """The finite monotone-convergence ladder.

    Yields the profiles of f_n = sign(f) * min(|f|, n * delta) for
    n = 1..levels with delta = |f|_inf / levels.  The profiles increase
    pointwise and the last one equals f*.
    """
    sup = max((abs(v) for v in f.values), default=Fraction(0))
    if sup == 0:
        return [decreasing_rearrangement(f)] * levels
    delta = sup / levels
    out = []
    for n in range(1, levels + 1):
        cap = n * delta
        vals = tuple(
            (v if abs(v) <= cap else (cap if v > 0 else -cap)) for v in f.values
        )
        out.append(decreasing_rearrangement(SimpleFunction(vals, f.space)))
    return out


# ---------------------------------------------------------------------------
# layer-cake decomposition

@dataclass(frozen=True)
class LayerCake:
    """Bands between consecutive |f|-levels with per-band level sets.

    ``thresholds`` are the sorted distinct values of |f| with a 0 base;
    band j spans [thresholds[j], thresholds[j+1]) and carries the level
    sets {f_+ > t} and {f_- > t}, constant on the band.
    """

    thresholds: tuple
    pos_sets: tuple
    neg_sets: tuple
    space: DiscreteSpace

    def __post_init__(self):
        if len(self.thresholds) not in (0, len(self.pos_sets) + 1):
            raise InputError("thresholds and bands are inconsistent")


def layer_decompose(f: SimpleFunction) -> LayerCake:
    levels = sorted({abs(v) for v in f.values if v != 0})
    if not levels:
        return LayerCake((), (), (), f.space)
    # the base 0 in the values' own arithmetic (mpf does not compare with
    # Fraction)
    thresholds = (0 * levels[0], *levels)
    pos_sets, neg_sets = [], []
    for t in thresholds[:-1]:
        pos_sets.append(frozenset(i for i, v in enumerate(f.values) if v > t))
        neg_sets.append(frozenset(i for i, v in enumerate(f.values) if -v > t))
    return LayerCake(thresholds, tuple(pos_sets), tuple(neg_sets), f.space)


def layer_reconstruct(cake: LayerCake) -> SimpleFunction:
    """Rebuild the function: positive-part bands minus negative-part bands."""
    # a zero in the values' arithmetic, or for no band in the weights'
    zero = cake.thresholds[0] if cake.thresholds else 0 * cake.space.weights[0]
    values = [zero] * cake.space.n
    for j in range(len(cake.pos_sets)):
        width = cake.thresholds[j + 1] - cake.thresholds[j]
        for i in cake.pos_sets[j]:
            values[i] += width
        for i in cake.neg_sets[j]:
            values[i] -= width
    return SimpleFunction(tuple(values), cake.space)


# ---------------------------------------------------------------------------
# profile JSON: {"segments": [["3", "0.2"], ...]}

def profile_to_json(profile: StepProfile) -> dict:
    return {
        "segments": [[format_scalar(v), format_scalar(l)] for v, l in profile.segments]
    }
