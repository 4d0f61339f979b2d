from decimal import Decimal
from fractions import Fraction as F

import hypothesis.strategies as st
import pytest
import mpmath
from hypothesis import example, given, settings

from conftest import (function_pairs, functions, off_lattice_functions,
                      off_lattice_scalars, off_lattice_spaces, same_bits)
from oracles import (former_profile_from_numerators, profile_add,
                     profile_from_json, scalar_difference_moment,
                     scalar_difference_sup, scalar_profile_leq)
from rearrange_lab.errors import InputError
from rearrange_lab.rearrange import (StepProfile, align,
                                     decreasing_rearrangement,
                                     distribution_measure, equimeasurable,
                                     indicator_difference_rearrangement,
                                     layer_decompose, layer_reconstruct,
                                     lp_moments, make_profile,
                                     nonexpansive_moments,
                                     profile_difference_moment,
                                     profile_difference_sup,
                                     profile_integrate_product, profile_leq,
                                     profile_level_measure, profile_to_json,
                                     truncation_ladder)
from rearrange_lab.scalars import (INF, binary_context,
                                   over_common_denominator, to_binary)
from rearrange_lab.spaces import (DiscreteSpace, SimpleFunction, equal_space,
                                  to_binary_function, to_binary_space)

WEIGHTED3 = DiscreteSpace((F(1, 5), F(3, 10), F(1, 2)))


def test_rearrangement_fixtures():
    f = SimpleFunction((3, -1, 2), WEIGHTED3)
    prof = decreasing_rearrangement(f)
    assert prof.segments == ((3, F(1, 5)), (2, F(1, 2)), (1, F(3, 10)))
    zero = SimpleFunction((0, 0), equal_space(2))
    assert decreasing_rearrangement(zero).segments == ()
    prof = decreasing_rearrangement(SimpleFunction((1, -1), equal_space(2)))
    assert prof.segments == ((1, 1),)


def test_profile_canonicalization():
    prof = make_profile([(F(2), F(1, 4)), (F(2), F(1, 4)), (F(1), F(1, 4))])
    assert prof.segments == ((2, F(1, 2)), (1, F(1, 4)))
    with pytest.raises(InputError):
        StepProfile(((F(1), F(1, 2)), (F(2), F(1, 2))))  # increasing values
    with pytest.raises(InputError):
        StepProfile(((F(1), F(0)),))  # zero length


def test_profile_lengths_share_one_family():
    """The Lorentz walk reads a profile in the arithmetic of its lengths,
    so exact and binary lengths do not mix; binary values over exact
    lengths (as a generated norm builds them) do."""
    with pytest.raises(InputError, match="segment lengths"):
        StepProfile(((3, F(1, 3) + F(1, 10**20)), (1, 0.25)))
    with pytest.raises(InputError, match="segment lengths"):
        StepProfile(((3, 0.5), (1, mpmath.mpf(0.25))))
    assert StepProfile(((3.0, F(1, 3)), (1.0, F(1, 4)))).total_length \
        == F(7, 12)
    assert StepProfile(((F(3), 1), (F(1), F(1, 4)))).total_length == F(5, 4)


def test_profile_values_share_one_supported_family():
    """Segment values are family-checked as lengths are, so a value of an
    unsupported type (a Decimal has no denominator) or exact values mixed
    with binary ones are refused, not kept as binary with the unit 1."""
    with pytest.raises(TypeError, match="unsupported scalar type Decimal"):
        StepProfile(((Decimal(3), F(1, 2)), (Decimal(1), F(1, 4))))
    with pytest.raises(InputError, match="segment values mixes"):
        StepProfile(((F(3), F(1, 2)), (1.0, F(1, 4))))
    assert StepProfile(((3, F(1, 2)), (1.0, F(1, 4)))).sup == 3


def test_profile_eval_right_continuous():
    prof = make_profile([(F(3), F(1, 4)), (F(1), F(1, 4))])
    assert prof(0) == 3
    assert prof(F(1, 4)) == 1  # value from the right at the cut
    assert prof(F(1, 2)) == 0
    assert prof.sup == 3
    assert prof.total_length == F(1, 2)


def test_profile_boundaries_are_summed_once_as_before():
    """The cuts are the former running sums from the int 0, summed once;
    total_length is the former sum from Fraction(0); equality and hashing
    ignore the cache."""
    with binary_context(113):
        third = mpmath.mpf(1) / 3
    for lengths in ((F(1, 4), F(1, 2)), (0.1, 0.2, 0.7), (1, F(1, 3)),
                    (third, third, mpmath.mpf(0.5)), ()):
        with binary_context(113):
            prof = StepProfile(tuple(zip(range(len(lengths), 0, -1), lengths)))
            cuts = [0]
            for length in lengths:
                cuts.append(cuts[-1] + length)
            total = sum(lengths, start=F(0))
            assert prof.boundaries is prof.boundaries
            assert all(map(same_bits, prof.boundaries, cuts))
            assert same_bits(prof.total_length, total)
        assert prof == StepProfile(prof.segments)
        assert hash(prof) == hash(StepProfile(prof.segments))


@given(functions())
def test_profile_eval_is_a_scan_of_the_segments(f):
    prof = decreasing_rearrangement(f)
    for t in {F(0), F(1, 3), *prof.boundaries, prof.total_length + 1}:
        start, expected = F(0), F(0)
        for value, length in prof.segments:
            if start <= t < start + length:
                expected = value
            start += length
        assert prof(t) == expected


def test_profile_product_fixtures():
    one = make_profile([(F(1), F(1))])
    assert profile_integrate_product([one, one]) == 1
    fstar = make_profile([(F(2), F(1, 2)), (F(1), F(1, 2))])
    gstar = make_profile([(F(3), F(1, 2)), (F(1), F(1, 2))])
    assert profile_integrate_product([fstar, gstar]) == F(7, 2)
    assert profile_integrate_product([fstar, make_profile([])]) == 0


def test_lp_preservation_fixtures():
    f = SimpleFunction((3, -1, 2), WEIGHTED3)
    assert lp_moments(f, 2) == (F(41, 10), F(41, 10))
    assert lp_moments(f, INF) == (3, 3)
    zero = SimpleFunction((0, 0, 0), WEIGHTED3)
    assert lp_moments(zero, 2) == (0, 0)
    with pytest.raises(InputError):  # a truncated p would check p = 1
        lp_moments(f, F(3, 2))


def test_indicator_difference_fixtures():
    f = SimpleFunction((1, -1), equal_space(2))
    left, right = indicator_difference_rearrangement(f, F(1, 2))
    assert left == right == make_profile([(F(1), F(1))])
    f = SimpleFunction((3, -1, 2), WEIGHTED3)
    left, right = indicator_difference_rearrangement(f, F(1))
    assert left == right == make_profile([(F(1), F(7, 10))])
    left, right = indicator_difference_rearrangement(f, F(3))
    assert left == right == make_profile([])


def test_nonexpansive_fixtures():
    sp = equal_space(2)
    f = SimpleFunction((1, -1), sp)
    assert nonexpansive_moments(f, f, 1) == (0, 0)
    g = SimpleFunction((-1, 1), sp)
    assert nonexpansive_moments(f, g, 1) == (0, 2)
    f, g = SimpleFunction((2, 0), sp), SimpleFunction((0, 1), sp)
    assert nonexpansive_moments(f, g, 1) == (F(1, 2), F(3, 2))
    for p in (F(3, 2), F(5, 2), 2.5):  # truncated, p would check 1 or 2
        with pytest.raises(InputError, match="integer p"):
            nonexpansive_moments(f, g, p)


def test_layer_cake_fixtures():
    sp = equal_space(2)
    cake = layer_decompose(SimpleFunction((2, F(1, 2)), sp))
    assert cake.thresholds == (0, F(1, 2), 2)
    assert cake.pos_sets == (frozenset({0, 1}), frozenset({0}))
    assert cake.neg_sets == (frozenset(), frozenset())
    cake = layer_decompose(SimpleFunction((1, -1), sp))
    assert cake.pos_sets == (frozenset({0}),)
    assert cake.neg_sets == (frozenset({1}),)
    assert layer_decompose(SimpleFunction((0, 0), sp)).thresholds == ()


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
    for q in (p, INF):
        m_f, m_p = lp_moments(f, q)
        assert m_f == m_p


@given(function_pairs())
def test_nonexpansive_random(pair):
    f, g = pair
    for p in (1, 2, INF):
        lhs, rhs = nonexpansive_moments(f, g, p)
        assert lhs <= rhs


@given(function_pairs())
def test_sublinearity_at_zero(pair):
    f, g = pair
    fg = SimpleFunction(tuple(a + b for a, b in zip(f.values, g.values)),
                        f.space)
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


@pytest.mark.parametrize("doc", [
    {},
    {"segments": 3},
    {"segments": [["x", "1"]]},
    {"segments": [["1"]]},
])
def test_profile_from_json_refuses_malformed_objects(doc):
    with pytest.raises(InputError, match="^bad profile object: "):
        profile_from_json(doc)


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
def off_lattice_profiles(draw):
    """A profile from off-lattice (value, length) pairs; it is empty when
    all its values are 0."""
    n = draw(st.integers(0, 5))
    values = draw(st.lists(off_lattice_scalars(0, 10**30),
                           min_size=n, max_size=n))
    lengths = draw(st.lists(off_lattice_scalars(1, 10**6),
                            min_size=n, max_size=n))
    return make_profile(
        sorted(zip(values, lengths), key=lambda pair: -pair[0]))


def off_lattice_profile_lists():
    """One to three off-lattice profiles."""
    return st.lists(off_lattice_profiles(), min_size=1, max_size=3)


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


@pytest.mark.parametrize("precision", [53, 113])
@pytest.mark.parametrize("swap", [False, True], ids=["f-g", "g-f"])
def test_binary_profile_differences_pad_with_int_zero(precision, swap):
    """The shorter profile is padded with the int 0, which mixes with mpf
    (Fraction - mpf raises); the exact values are all binary here."""
    space = equal_space(4)
    f = SimpleFunction((3, -1, 2, 0), space)
    g = SimpleFunction((1, 2, -2, 1), space)
    if swap:
        f, g = g, f
    kind = float if precision == 53 else mpmath.mpf
    with binary_context(precision):
        bspace = to_binary_space(space, precision)
        fb = to_binary_function(f, bspace, precision)
        gb = to_binary_function(g, bspace, precision)
        pf, pg = decreasing_rearrangement(fb), decreasing_rearrangement(gb)
        sup = profile_difference_sup(pf, pg)
        moment = profile_difference_moment(pf, pg, 2)
        lhs, rhs = nonexpansive_moments(fb, gb, 1)
    assert type(sup) is type(moment) is type(lhs) is type(rhs) is kind
    assert (sup, moment, lhs, rhs) == (1, F(1, 2), F(1, 2), F(5, 2))


@given(off_lattice_spaces().flatmap(off_lattice_functions),
       st.sampled_from([None, 53, 113]))
@settings(max_examples=60)
def test_profiles_keep_their_common_denominator_form(f, precision):
    """A profile built by the rearrangement kernel or by the constructor
    keeps over_common_denominator of its segment values and lengths (an
    empty binary profile keeps the binary unit, the int 1)."""
    with binary_context(precision or 53):
        if precision is not None:
            space = to_binary_space(f.space, precision)
            f = to_binary_function(f, space, precision)
        kernel = decreasing_rearrangement(f)
        public = StepProfile(kernel.segments)
    for prof in (kernel, public):
        for numerators, unit, scalars in (
                (prof.value_numerators, prof.value_unit,
                 [v for v, _ in prof.segments]),
                (prof.length_numerators, prof.length_unit,
                 [l for _, l in prof.segments])):
            expected, expected_unit = over_common_denominator(scalars)
            assert numerators == tuple(expected) and unit == expected_unit
            if prof.segments:
                assert type(unit) is type(expected_unit)


def _segment_scalars(small):
    """Exact scalars, possibly zero or negative, and the odd double."""
    exact = st.builds(F, st.integers(-3, 3), st.sampled_from([1, 2, 3, 6]))
    return exact if small else st.one_of(exact, st.sampled_from([0.5, -1.0]))


@given(st.lists(st.tuples(_segment_scalars(True), _segment_scalars(False)),
                max_size=4))
@settings(max_examples=200)
def test_numerator_profiles_reject_what_the_constructor_rejects(segments):
    """StepProfile.from_numerators, fed the numerators of any segment list,
    accepts it or rejects it with the constructor's InputError message."""
    try:
        expected = StepProfile(segments)
    except InputError as exc:
        expected = str(exc)
    values = over_common_denominator([v for v, _ in segments])
    lengths = over_common_denominator([l for _, l in segments])
    try:
        got = StepProfile.from_numerators(*values, *lengths)
    except InputError as exc:
        got = str(exc)
    if isinstance(expected, str):
        assert got == expected
    else:
        assert isinstance(got, StepProfile)
        assert got.segments == expected.segments
        assert [type(x) for pair in got.segments for x in pair] == \
            [type(x) for pair in expected.segments for x in pair]


@given(off_lattice_spaces().flatmap(off_lattice_functions),
       st.sampled_from([None, 53, 113]), st.integers(1, 6))
@settings(max_examples=60)
def test_segments_are_scaled_back_on_first_read_as_former_eager_ones(
        f, precision, factor):
    """A profile from exact numerators (over a unit not in lowest terms
    when factor > 1) scales its segments back on first read, to the
    segments, types, ==, hash and repr of the former eager
    from_numerators; binary segments are kept from the start."""
    with binary_context(precision or 53):
        if precision is not None:
            space = to_binary_space(f.space, precision)
            f = to_binary_function(f, space, precision)
        kernel = decreasing_rearrangement(f)
        pairs = [kernel.value_numerators, kernel.value_unit,
                 kernel.length_numerators, kernel.length_unit]
        if precision is None:
            for i in (0, 2):
                pairs[i] = tuple(n * factor for n in pairs[i])
                pairs[i + 1] = F(1, pairs[i + 1].denominator * factor)
        former = former_profile_from_numerators(*pairs)
        fresh = [StepProfile.from_numerators(*pairs) for _ in range(4)]
        assert all(("segments" in p.__dict__) is (precision is not None)
                   for p in (kernel, *fresh))
        assert fresh[0] == former and former == fresh[1]
        assert hash(fresh[2]) == hash(former)
        assert repr(fresh[3]) == repr(former)
        for p in (kernel, *fresh):
            assert p.segments == former.segments
            assert [type(x) for pair in p.segments for x in pair] == \
                [type(x) for pair in former.segments for x in pair]
            if precision is not None:
                assert all(same_bits(x, y)
                           for pair, former_pair in zip(p.segments,
                                                        former.segments)
                           for x, y in zip(pair, former_pair))


@pytest.mark.parametrize("precision", [53, 113])
def test_equimeasurable_and_layer_cake_in_binary(precision):
    """Both compare and seed values with a zero in the values' own
    arithmetic; a Fraction zero raised TypeError on mpf values, and on
    floats left a Fraction on a zero atom of the rebuilt function."""
    kind = float if precision == 53 else mpmath.mpf
    with binary_context(precision):
        space = to_binary_space(WEIGHTED3, precision)
        for values in ((3, -1, 2), (3, 0, 2), (0, 0, 0)):
            f = to_binary_function(SimpleFunction(values, WEIGHTED3), space,
                                   precision)
            assert equimeasurable(f, decreasing_rearrangement(f))
            cake = layer_decompose(f)
            assert all(type(t) is kind for t in cake.thresholds)
            rebuilt = layer_reconstruct(cake)
            assert rebuilt == f
            assert all(type(v) is kind for v in rebuilt.values)


def test_exact_layer_cake_stays_fraction():
    f = SimpleFunction((F(3), F(-1), F(2)), WEIGHTED3)
    cake = layer_decompose(f)
    assert cake.thresholds == (0, 1, 2, 3)
    assert all(type(t) is F for t in cake.thresholds)
    assert all(type(v) is F for v in layer_reconstruct(cake).values)


@st.composite
def _profile_pairs(draw):
    """Two off-lattice profiles: independent, equal, or the second with
    the first's values scaled up (so that p <= q)."""
    p = draw(off_lattice_profiles())
    kind = draw(st.integers(0, 2))
    if kind == 0:
        return p, draw(off_lattice_profiles())
    factor = 1 if kind == 1 else draw(st.integers(2, 5))
    return p, make_profile((v * factor, l) for v, l in p.segments)


@given(_profile_pairs(), off_lattice_profile_lists(),
       st.sampled_from([None, 53, 113]), st.integers(1, 3))
@example(pair=(make_profile([(F(3), F(1, 2))]), make_profile([])),
         profiles=[make_profile([])], precision=113, k=2)
@settings(max_examples=150, deadline=None)
def test_aligned_kernels_are_the_scalar_grid(pair, profiles, precision, k):
    """The kernels on align's numerator grid give the value and type of
    the former grid of scalars (the product integral: of the former
    kernel), exactly and bit for bit in binary; empty profiles included
    (a binary one made by make_profile has the exact unit of no
    scalars)."""
    with binary_context(precision or 53):
        if precision is not None:
            pair = [_binary_profile(p, precision) for p in pair]
            profiles = [_binary_profile(p, precision) for p in profiles]
        for a, b in (pair, pair[::-1]):
            for got, expected in (
                    (profile_leq(a, b), scalar_profile_leq(a, b)),
                    (profile_difference_moment(a, b, k),
                     scalar_difference_moment(a, b, k)),
                    (profile_difference_sup(a, b),
                     scalar_difference_sup(a, b)),
                    (profile_integrate_product([a, b]),
                     product_integral_reference([a, b])),
                    (profile_integrate_product(profiles),
                     product_integral_reference(profiles))):
                assert same_bits(got, expected), (a, b, got, expected)


def test_align_keeps_the_numerators():
    """Widths over one length unit, each row in its profile's value
    numerators with int zeros beyond its length."""
    p = make_profile([(F(3, 2), F(1, 3)), (F(1, 2), F(1, 6))])
    q = make_profile([(F(2, 5), F(1, 4))])
    widths, rows, unit = align(p, q)
    assert unit == F(1, 12) and widths == [3, 1, 2]
    assert p.value_unit == F(1, 2) and rows[0] == [3, 3, 1]
    assert q.value_unit == F(1, 5) and rows[1] == [2, 0, 0]
    assert align(make_profile([]), make_profile([])) == ([], [[], []], 1)
