"""Decreasing rearrangements and step-profile arithmetic.

The decreasing rearrangement f* of a simple function f is the
nonincreasing, right-continuous step function on [0, infinity) that is
equimeasurable with |f|.  It is represented canonically as a
`StepProfile`: strictly decreasing positive values with positive segment
lengths, zero beyond the total length.  Products, sums, and L^p integrals
of profiles are computed on the merged breakpoint grid, exactly when the
scalars are exact.  `align` is the one builder of that grid: it returns the
width of every grid interval and each profile's value on it, and every
pairwise profile operation here is a single pass over its output.

The two kernels of the thm32 bound, `decreasing_rearrangement` and
`profile_integrate_product`, sort, merge and integrate exact scalars as
int numerators over a common denominator (`over_common_denominator`) and
scale back once: to the few merged segments, or to the one integral.
Binary scalars run the same code with the unit 1, in their own
arithmetic and in the order of operations of a plain loop.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError
from .scalars import (INF, format_scalar, over_common_denominator,
                      parse_scalar)
from .spaces import AtomSet, DiscreteSpace, SimpleFunction, support


@dataclass(frozen=True)
class StepProfile:
    """A nonincreasing, right-continuous step function on [0, infinity).

    ``segments`` is an ordered tuple of (value, length) pairs with strictly
    decreasing positive values and positive lengths; the function is 0 from
    the total length onward.  The zero function is the empty profile.
    """

    segments: tuple

    def __post_init__(self):
        object.__setattr__(self, "segments", tuple(self.segments))
        lengths = [l for _, l in self.segments]
        values = [v for v, _ in self.segments]
        if any(l <= 0 for l in lengths):
            raise InputError("segment lengths must be positive")
        if any(v <= 0 for v in values):
            raise InputError("segment values must be positive (zeros are implicit)")
        if any(values[i] <= values[i + 1] for i in range(len(values) - 1)):
            raise InputError("segment values must be strictly decreasing")

    @property
    def total_length(self):
        return sum((l for _, l in self.segments), start=Fraction(0))

    @property
    def sup(self):
        """The essential sup = the value at 0."""
        return self.segments[0][0] if self.segments else Fraction(0)

    def boundaries(self) -> list:
        """Cumulative segment boundaries [0, l1, l1+l2, ...]; the int 0
        mixes with every arithmetic family (mpf does not with Fraction)."""
        cuts = [0]
        for _, l in self.segments:
            cuts.append(cuts[-1] + l)
        return cuts

    def __call__(self, t):
        if t < 0:
            raise InputError("profiles live on [0, infinity)")
        cuts = self.boundaries()
        idx = bisect_right(cuts, t) - 1
        if idx >= len(self.segments):
            return Fraction(0)
        return self.segments[idx][0]


def _merge(pairs) -> list:
    """Drop zero pairs and merge runs of equal values into [value, length]."""
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
    return merged


def make_profile(pairs) -> StepProfile:
    """Canonicalize (value, length) pairs: drop zeros, merge equal values."""
    return StepProfile(tuple((v, l) for v, l in _merge(pairs)))


def decreasing_rearrangement(f: SimpleFunction) -> StepProfile:
    """Sort atoms by |value| descending (ties by atom index) and lay their
    weights out from 0; equal values merge, zeros are dropped.

    Values and weights are sorted and merged as numerators over their
    common denominators; only the merged segments are scaled back.
    """
    values, value_unit = over_common_denominator(f.values)
    weights, length_unit = over_common_denominator(f.space.weights)
    order = sorted(range(len(values)), key=lambda i: (-abs(values[i]), i))
    merged = _merge((abs(values[i]), weights[i]) for i in order)
    return StepProfile(tuple(
        (v * value_unit, l * length_unit) for v, l in merged))


def distribution_measure(f: SimpleFunction, t):
    """mu({|f| > t})."""
    return f.space.measure(i for i, v in enumerate(f.values) if abs(v) > t)


def profile_level_measure(profile: StepProfile, t):
    """Lebesgue measure of {profile > t}."""
    return sum((l for v, l in profile.segments if v > t), start=Fraction(0))


# ---------------------------------------------------------------------------
# merged-grid arithmetic

def _values_on_grid(profile: StepProfile, cuts):
    """Value of the profile on each interval [cuts[j], cuts[j+1])."""
    out = []
    seg = 0
    bounds = profile.boundaries()
    for t in cuts[:-1]:
        while seg < len(profile.segments) and bounds[seg + 1] <= t:
            seg += 1
        if seg < len(profile.segments) and bounds[seg] <= t:
            out.append(profile.segments[seg][0])
        else:
            out.append(Fraction(0))
    return out


def align(*profiles):
    """Put profiles on their merged breakpoint grid.

    Returns (widths, rows): the width of each grid interval, and for each
    profile the list of its values on those intervals.
    """
    cuts = sorted(set().union(*(p.boundaries() for p in profiles)))
    widths = [b - a for a, b in zip(cuts, cuts[1:])]
    return widths, [_values_on_grid(p, cuts) for p in profiles]


def profile_integrate_product(profiles):
    """Integral over [0, infinity) of the pointwise product of profiles
    (the int 0, which mixes with every arithmetic family, if one is empty).

    Each profile's values are scaled by their own unit and all lengths by
    one shared unit, so the grid is built and integrated in ints and the
    integral is multiplied by the product of the units once.
    """
    if not profiles:
        raise InputError("need at least one profile")
    if any(not p.segments for p in profiles):
        return 0
    lengths, unit = over_common_denominator(
        [l for p in profiles for _, l in p.segments])
    scaled, start = [], 0
    for p in profiles:
        values, value_unit = over_common_denominator([v for v, _ in p.segments])
        stop = start + len(values)
        scaled.append(StepProfile(tuple(zip(values, lengths[start:stop]))))
        start, unit = stop, unit * value_unit
    widths, rows = align(*scaled)
    total = 0
    for j, width in enumerate(widths):
        term = width
        for row in rows:
            term = term * row[j]
        total = total + term
    return total * unit


def profile_add(p: StepProfile, q: StepProfile) -> StepProfile:
    """Pointwise sum (still nonincreasing, hence a valid profile)."""
    widths, (pv, qv) = align(p, q)
    return make_profile((a + b, w) for a, b, w in zip(pv, qv, widths))


def profile_leq(p: StepProfile, q: StepProfile) -> bool:
    """Pointwise p <= q on [0, infinity)."""
    _, (pv, qv) = align(p, q)
    return all(a <= b for a, b in zip(pv, qv))


def profile_submajorizes(p: StepProfile, q: StepProfile) -> bool:
    """Running-integral domination: int_0^t p <= int_0^t q for all t.

    Both running integrals are piecewise linear with kinks only at the
    merged segment boundaries, so checking the boundaries is enough.
    """
    widths, (pv, qv) = align(p, q)
    run_p = run_q = Fraction(0)
    for a, b, width in zip(pv, qv, widths):
        run_p = run_p + a * width
        run_q = run_q + b * width
        if run_p > run_q:
            return False
    return True


def profile_moment(profile: StepProfile, p) -> Fraction:
    """Integral of profile^p over [0, infinity) for a positive integer p."""
    p = int(p)
    return sum((v**p * l for v, l in profile.segments), start=Fraction(0))


def profile_difference_moment(p: StepProfile, q: StepProfile, k: int):
    """Integral of |p - q|^k on the merged grid."""
    widths, (pv, qv) = align(p, q)
    return sum(
        (abs(a - b) ** k * w for a, b, w in zip(pv, qv, widths)),
        start=Fraction(0),
    )


def profile_difference_sup(p: StepProfile, q: StepProfile):
    _, (pv, qv) = align(p, q)
    return max((abs(a - b) for a, b in zip(pv, qv)), default=Fraction(0))


# ---------------------------------------------------------------------------
# checked identities

def _lp_moments(f: SimpleFunction, p):
    """The pre-root pair (|f|_p^p, |f*|_p^p) for an integer p, or the two
    sups for p = inf."""
    prof = decreasing_rearrangement(f)
    if p == INF:
        return max((abs(v) for v in f.values), default=Fraction(0)), prof.sup
    if Fraction(p).denominator != 1:
        raise InputError("Lp preservation is checked for integer p or inf")
    k = int(p)
    m_f = sum(abs(v) ** k * w for v, w in zip(f.values, f.space.weights))
    return m_f, profile_moment(prof, k)


def rearrangement_preserves_Lp(f: SimpleFunction, p):
    """Return (|f|_p, |f*|_p) computed down the two independent routes.

    The agreement of the underlying p-th moments is exact for integer p in
    exact mode; the returned norms are floats when the root is inexact.
    """
    m_f, m_p = _lp_moments(f, p)
    if p == INF or p == 1:
        return m_f, m_p
    return float(m_f) ** (1.0 / int(p)), float(m_p) ** (1.0 / int(p))


def lp_moments_agree(f: SimpleFunction, p) -> bool:
    """Exact check that |f|_p = |f*|_p, comparing pre-root quantities."""
    m_f, m_p = _lp_moments(f, p)
    return m_f == m_p


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
    width = distribution_measure(f, t)
    right = make_profile([(Fraction(1), width)] if width > 0 else [])
    return left, right


def _nonexpansive_moments(f: SimpleFunction, g: SimpleFunction, p):
    """The pre-root pair (|f* - g*|^p integral, |f - g|_p^p) for integer
    p, or the two sups for p = inf."""
    if f.space.weights != g.space.weights:
        raise InputError("functions live on different spaces")
    pf, pg = decreasing_rearrangement(f), decreasing_rearrangement(g)
    if p == INF:
        rhs = max(
            (abs(a - b) for a, b in zip(f.values, g.values)), default=Fraction(0)
        )
        return profile_difference_sup(pf, pg), rhs
    k = int(p)
    rhs = sum(
        abs(a - b) ** k * w for a, b, w in zip(f.values, g.values, f.space.weights)
    )
    return profile_difference_moment(pf, pg, k), rhs


def nonexpansive_check(f: SimpleFunction, g: SimpleFunction, p):
    """Return (|f* - g*|_{L^p[0,inf)}, |f - g|_p); the first must not
    exceed the second."""
    lhs, rhs = _nonexpansive_moments(f, g, p)
    if p == INF or int(p) == 1:
        return lhs, rhs
    return float(lhs) ** (1.0 / int(p)), float(rhs) ** (1.0 / int(p))


def nonexpansive_holds(f: SimpleFunction, g: SimpleFunction, p) -> bool:
    """Exact comparison of the non-expansiveness inequality for
    p in {1, 2, ...} or inf (compares p-th moments, no roots)."""
    lhs, rhs = _nonexpansive_moments(f, g, p)
    return lhs <= rhs


def equimeasurable(f: SimpleFunction, profile: StepProfile) -> bool:
    """mu({|f| > t}) equals |{profile > t}| for every t >= 0.

    Both distribution functions are right-continuous steps, so it is
    enough to test the finitely many candidate levels: every distinct
    value on either side, midpoints between consecutive levels, and 0.
    """
    levels = sorted(
        {abs(v) for v in f.values} | {v for v, _ in profile.segments} | {Fraction(0)}
    )
    candidates = list(levels)
    for a, b in zip(levels, levels[1:]):
        candidates.append((a + b) / 2)
    candidates.append(levels[-1] + 1)
    return all(
        distribution_measure(f, t) == profile_level_measure(profile, t)
        for t in candidates
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
    thresholds = tuple([Fraction(0)] + levels)
    pos_sets, neg_sets = [], []
    for t in thresholds[:-1]:
        pos_sets.append(frozenset(i for i, v in enumerate(f.values) if v > t))
        neg_sets.append(frozenset(i for i, v in enumerate(f.values) if -v > t))
    return LayerCake(thresholds, tuple(pos_sets), tuple(neg_sets), f.space)


def layer_reconstruct(cake: LayerCake) -> SimpleFunction:
    """Rebuild the function: positive-part bands minus negative-part bands."""
    values = [Fraction(0)] * cake.space.n
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


def profile_from_json(obj: dict) -> StepProfile:
    try:
        pairs = [(parse_scalar(v), parse_scalar(l)) for v, l in obj["segments"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad profile object: {exc}") from exc
    return StepProfile(tuple(pairs))
