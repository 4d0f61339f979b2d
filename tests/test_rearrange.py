import math
from fractions import Fraction as F

import hypothesis.strategies as st
import pytest
from hypothesis import given

from conftest import function_pairs, functions
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
from rearrange_lab.scalars import INF
from rearrange_lab.spaces import DiscreteSpace, equal_space, simple

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
