import math
from fractions import Fraction as F

import hypothesis.strategies as st
import pytest
import mpmath
from hypothesis import given, settings

from conftest import (function_pairs, functions, off_lattice_functions,
                      off_lattice_scalars, off_lattice_spaces, same_bits)
from rearrange_lab.errors import InputError
from rearrange_lab.rearrange import (StepProfile, decreasing_rearrangement,
                                     distribution_measure, equimeasurable,
                                     indicator_difference_rearrangement,
                                     layer_decompose, layer_reconstruct,
                                     lp_moments_agree, make_profile,
                                     nonexpansive_check, nonexpansive_holds,
                                     profile_add, profile_from_json,
                                     profile_integrate_product, profile_leq,
                                     profile_level_measure, profile_to_json,
                                     rearrangement_preserves_Lp,
                                     truncation_ladder)
from rearrange_lab.scalars import INF, binary_context, to_binary
from rearrange_lab.spaces import (DiscreteSpace, equal_space, simple,
                                  to_binary_function, to_binary_space)

WEIGHTED3 = DiscreteSpace((F(1, 5), F(3, 10), F(1, 2)))


def test_rearrangement_fixtures():
    f = simple((3, -1, 2), WEIGHTED3)
    prof = decreasing_rearrangement(f)
    assert prof.segments == ((3, F(1, 5)), (2, F(1, 2)), (1, F(3, 10)))
    assert decreasing_rearrangement(simple((0, 0), equal_space(2))).segments == ()
    prof = decreasing_rearrangement(simple((1, -1), equal_space(2)))
    assert prof.segments == ((1, 1),)


def test_profile_canonicalization():
    prof = make_profile([(F(2), F(1, 4)), (F(2), F(1, 4)), (F(1), F(1, 4))])
    assert prof.segments == ((2, F(1, 2)), (1, F(1, 4)))
    with pytest.raises(InputError):
        StepProfile(((F(1), F(1, 2)), (F(2), F(1, 2))))  # increasing values
    with pytest.raises(InputError):
        StepProfile(((F(1), F(0)),))  # zero length


def test_profile_eval_right_continuous():
    prof = make_profile([(F(3), F(1, 4)), (F(1), F(1, 4))])
    assert prof(0) == 3
    assert prof(F(1, 4)) == 1  # value from the right at the cut
    assert prof(F(1, 2)) == 0
    assert prof.sup == 3
    assert prof.total_length == F(1, 2)


def test_profile_product_fixtures():
    one = make_profile([(F(1), F(1))])
    assert profile_integrate_product([one, one]) == 1
    fstar = make_profile([(F(2), F(1, 2)), (F(1), F(1, 2))])
    gstar = make_profile([(F(3), F(1, 2)), (F(1), F(1, 2))])
    assert profile_integrate_product([fstar, gstar]) == F(7, 2)
    assert profile_integrate_product([fstar, make_profile([])]) == 0


def test_lp_preservation_fixtures():
    f = simple((3, -1, 2), WEIGHTED3)
    a, b = rearrangement_preserves_Lp(f, 2)
    assert a == b == math.sqrt(4.1)
    a, b = rearrangement_preserves_Lp(f, INF)
    assert a == b == 3
    zero = simple((0, 0, 0), WEIGHTED3)
    assert rearrangement_preserves_Lp(zero, 2) == (0.0, 0.0)
    for check in (rearrangement_preserves_Lp, lp_moments_agree):
        with pytest.raises(InputError):  # a truncated p would check p = 1
            check(f, F(3, 2))


def test_indicator_difference_fixtures():
    f = simple((1, -1), equal_space(2))
    left, right = indicator_difference_rearrangement(f, F(1, 2))
    assert left == right == make_profile([(F(1), F(1))])
    f = simple((3, -1, 2), WEIGHTED3)
    left, right = indicator_difference_rearrangement(f, F(1))
    assert left == right == make_profile([(F(1), F(7, 10))])
    left, right = indicator_difference_rearrangement(f, F(3))
    assert left == right == make_profile([])


def test_nonexpansive_fixtures():
    sp = equal_space(2)
    f = simple((1, -1), sp)
    assert nonexpansive_check(f, f, 1) == (0, 0)
    g = simple((-1, 1), sp)
    assert nonexpansive_check(f, g, 1) == (0, 2)
    f, g = simple((2, 0), sp), simple((0, 1), sp)
    assert nonexpansive_check(f, g, 1) == (F(1, 2), F(3, 2))


def test_layer_cake_fixtures():
    sp = equal_space(2)
    cake = layer_decompose(simple((2, F(1, 2)), sp))
    assert cake.thresholds == (0, F(1, 2), 2)
    assert cake.pos_sets == (frozenset({0, 1}), frozenset({0}))
    assert cake.neg_sets == (frozenset(), frozenset())
    cake = layer_decompose(simple((1, -1), sp))
    assert cake.pos_sets == (frozenset({0}),)
    assert cake.neg_sets == (frozenset({1}),)
    assert layer_decompose(simple((0, 0), sp)).thresholds == ()


@given(functions())
def test_layer_roundtrip(f):
    assert layer_reconstruct(layer_decompose(f)).values == f.values


@given(functions())
def test_equimeasurability(f):
    prof = decreasing_rearrangement(f)
    assert equimeasurable(f, prof)
    # spot-check the distribution identity at every stored level
    for v, _ in prof.segments:
        assert distribution_measure(f, v) == profile_level_measure(prof, v)


@given(functions())
def test_profile_is_canonical(f):
    prof = decreasing_rearrangement(f)
    values = [v for v, _ in prof.segments]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert all(l > 0 for _, l in prof.segments)
    assert prof.total_length <= 1


@given(functions(), st.integers(1, 3))
def test_lp_moments_agree_random(f, p):
    assert lp_moments_agree(f, p)
    assert lp_moments_agree(f, INF)


@given(function_pairs())
def test_nonexpansive_random(pair):
    f, g = pair
    for p in (1, 2, INF):
        assert nonexpansive_holds(f, g, p)


@given(function_pairs())
def test_sublinearity_at_zero(pair):
    f, g = pair
    fg = simple(tuple(a + b for a, b in zip(f.values, g.values)), f.space)
    assert decreasing_rearrangement(fg).sup <= (
        decreasing_rearrangement(f).sup + decreasing_rearrangement(g).sup
    )


@given(functions())
def test_indicator_difference_all_levels(f):
    levels = sorted({abs(v) for v in f.values} | {F(0)})
    candidates = levels + [(a + b) / 2 for a, b in zip(levels, levels[1:])]
    for t in candidates:
        left, right = indicator_difference_rearrangement(f, t)
        assert left == right


@given(functions())
def test_monotone_truncation_ladder(f):
    ladder = truncation_ladder(f, 16)
    assert len(ladder) == 16
    for a, b in zip(ladder, ladder[1:]):
        assert profile_leq(a, b)
    assert ladder[-1] == decreasing_rearrangement(f)


@given(function_pairs())
def test_profile_add_is_pointwise(pair):
    f, g = pair
    pf, pg = decreasing_rearrangement(f), decreasing_rearrangement(g)
    total = profile_add(pf, pg)
    for t in [F(k, 16) for k in range(18)]:
        assert total(t) == pf(t) + pg(t)


def test_profile_json_roundtrip():
    prof = make_profile([(F(3), F(1, 5)), (F(2), F(1, 2)), (F(1), F(3, 10))])
    doc = profile_to_json(prof)
    assert doc == {"segments": [["3", "0.2"], ["2", "0.5"], ["1", "0.3"]]}
    assert profile_from_json(doc) == prof


# ---------------------------------------------------------------------------
# the integer-numerator kernels against plain scalar loops

def rearrangement_reference(f):
    """Sort, drop zeros and merge equal values in the input's own scalars,
    in the order of operations of the former Fraction kernel."""
    order = sorted(range(f.space.n), key=lambda i: (-abs(f.values[i]), i))
    segments = []
    for i in order:
        value, weight = abs(f.values[i]), f.space.weights[i]
        if value == 0:
            continue
        if segments and segments[-1][0] == value:
            segments[-1][1] += weight
        else:
            segments.append([value, weight])
    return tuple((v, l) for v, l in segments)


def product_integral_reference(profiles):
    """The product integral over the merged cuts, each term started from
    the width and the total from Fraction(0), as the former kernel did."""
    if any(not p.segments for p in profiles):
        return 0
    bounds = []
    for p in profiles:
        cuts = [0]
        for _, l in p.segments:
            cuts.append(cuts[-1] + l)
        bounds.append(cuts)
    grid = sorted(set().union(*bounds))

    def value_at(p, cuts, t):
        for (v, _), a, b in zip(p.segments, cuts, cuts[1:]):
            if a <= t < b:
                return v
        return F(0)

    total = F(0)
    for a, b in zip(grid, grid[1:]):
        term = b - a
        for p, cuts in zip(profiles, bounds):
            term = term * value_at(p, cuts, a)
        total = total + term
    return total


@st.composite
def off_lattice_profile_lists(draw):
    """One to three profiles from off-lattice (value, length) pairs; a
    profile is empty when all its values are 0."""
    profiles = []
    for _ in range(draw(st.integers(1, 3))):
        n = draw(st.integers(0, 5))
        values = draw(st.lists(off_lattice_scalars(0, 10**30),
                               min_size=n, max_size=n))
        lengths = draw(st.lists(off_lattice_scalars(1, 10**6),
                                min_size=n, max_size=n))
        profiles.append(make_profile(
            sorted(zip(values, lengths), key=lambda pair: -pair[0])))
    return profiles


def _binary_profile(profile, precision):
    return make_profile(
        (to_binary(v, precision), to_binary(l, precision))
        for v, l in profile.segments)


@given(off_lattice_spaces().flatmap(off_lattice_functions))
@settings(max_examples=80)
def test_rearrangement_kernel_off_lattice(f):
    prof = decreasing_rearrangement(f)
    assert prof.segments == rearrangement_reference(f)
    assert all(type(v) is F and type(l) is F for v, l in prof.segments)


@given(off_lattice_spaces().flatmap(off_lattice_functions),
       st.sampled_from([53, 113]))
@settings(max_examples=60)
def test_rearrangement_kernel_is_the_scalar_loop_in_binary(f, precision):
    with binary_context(precision):
        space = to_binary_space(f.space, precision)
        fb = to_binary_function(f, space, precision)
        segments = decreasing_rearrangement(fb).segments
        expected = rearrangement_reference(fb)
    kind = float if precision == 53 else mpmath.mpf
    assert len(segments) == len(expected)
    for (v, l), (ev, el) in zip(segments, expected):
        assert type(v) is type(l) is kind
        assert same_bits(v, ev) and same_bits(l, el)


@given(off_lattice_profile_lists())
@settings(max_examples=80)
def test_product_integral_kernel_off_lattice(profiles):
    result = profile_integrate_product(profiles)
    assert result == product_integral_reference(profiles)
    if all(p.segments for p in profiles):
        assert type(result) is F


@given(off_lattice_profile_lists(), st.sampled_from([53, 113]))
@settings(max_examples=60)
def test_product_integral_kernel_is_the_scalar_loop_in_binary(profiles,
                                                              precision):
    with binary_context(precision):
        binary = [_binary_profile(p, precision) for p in profiles]
        result = profile_integrate_product(binary)
        expected = product_integral_reference(binary)
    if not all(p.segments for p in binary):
        assert result == expected == 0
        return
    assert type(result) is (float if precision == 53 else mpmath.mpf)
    assert same_bits(result, expected)
