from fractions import Fraction as F

import hypothesis.strategies as st
import mpmath
import pytest
from hypothesis import given, settings

from conftest import (functions, lattice_values, off_lattice_functions,
                      off_lattice_spaces, same_bits, spaces)
from oracles import (former_function_from_numerators, former_multiply,
                     former_to_binary)
from rearrange_lab.errors import InputError
from rearrange_lab.norms import L2, hardy_littlewood_check
from rearrange_lab.oscillation import bilinear_form, lemma31_bound
from rearrange_lab.rearrange import nonexpansive_moments
from rearrange_lab.scalars import (_type_family, binary_context,
                                   over_common_denominator, to_binary)
from rearrange_lab.spaces import (DiscreteSpace, Instance, SimpleFunction,
                                  center, common_space, equal_space,
                                  integrate, multiply, support,
                                  to_binary_function, to_binary_space)
from rearrange_lab.verify import thm43_sides


def test_integrate_fixtures():
    sp = equal_space(2)
    assert integrate(SimpleFunction((1, -1), sp)) == 0
    sp3 = DiscreteSpace((F(1, 5), F(3, 10), F(1, 2)))
    assert integrate(SimpleFunction((3, -1, 2), sp3)) == F(13, 10)
    assert integrate(SimpleFunction((F(7, 3),) * 3, sp3)) == F(7, 3)


def test_center_fixtures():
    sp = equal_space(2)
    assert center(SimpleFunction((2, 0), sp)).values == (1, -1)
    assert center(SimpleFunction((0, 0), sp)).values == (0, 0)
    sp3 = DiscreteSpace((F(1, 5), F(3, 10), F(1, 2)))
    assert center(SimpleFunction((3, -1, 2), sp3)).values == (
        F(17, 10), F(-23, 10), F(7, 10))


def test_support_fixtures():
    sp = equal_space(3)
    assert support(SimpleFunction((1, 0, -2), sp)) == {0, 2}
    assert support(SimpleFunction((0, 0, 0), sp)) == set()
    assert support(SimpleFunction((1, 1, 1), sp)) == {0, 1, 2}


@pytest.mark.parametrize("atoms", [
    [0, 1.0], [0, 0.5], [-1, 0], [0, 3], ["0"],
], ids=["float-index", "fractional-index", "negative", "index-n", "string"])
def test_check_atoms_refuses_bad_indices(atoms):
    with pytest.raises(InputError, match=r"^atom indices out of range for n=3"):
        equal_space(3).check_atoms(atoms)


@pytest.mark.parametrize("atoms,shown", [
    ([0, "a"], "['a', 0]"), ([0, None], "[0, None]"), ([5, 0, 3], "[0, 3, 5]"),
], ids=["string", "none", "ints"])
def test_check_atoms_names_items_that_do_not_order(atoms, shown):
    """Items that `sorted` cannot order are listed by repr in the input
    error, where they raised TypeError; sets of ints are listed sorted."""
    with pytest.raises(InputError) as error:
        equal_space(3).check_atoms(atoms)
    assert str(error.value) == f"atom indices out of range for n=3: {shown}"


@pytest.mark.parametrize("space", [
    equal_space(1), DiscreteSpace((F(1, 5), F(3, 10), F(1, 2))),
    DiscreteSpace((0.25, 0.75)),
], ids=["one-atom", "weighted", "double"])
def test_one_index_set_per_space(space):
    """The space keeps one set of its indices; check_atoms tests subsets
    against it and still refuses a float equal to an index."""
    n = space.n
    assert space.all_atoms == frozenset(range(n))
    assert space.all_atoms is space.all_atoms
    assert space.complement(frozenset({0})) == frozenset(range(1, n))
    assert space.check_atoms(range(n)) == space.all_atoms
    for bad in ([1.0], [-1], [n], [0.0]):
        with pytest.raises(InputError,
                           match=rf"^atom indices out of range for n={n}"):
            space.check_atoms(bad)


def test_check_atoms_accepts_indices_bools_and_the_empty_set():
    space = equal_space(3)
    assert space.check_atoms([2, 0, 2]) == frozenset({0, 2})
    assert space.check_atoms([False, True]) == frozenset({0, 1})
    assert space.check_atoms(()) == frozenset()


def test_weight_validation():
    with pytest.raises(InputError):
        DiscreteSpace((F(1, 2), F(1, 4)))
    with pytest.raises(InputError):
        DiscreteSpace((F(3, 2), F(-1, 2)))
    with pytest.raises(InputError):
        DiscreteSpace(())
    with pytest.raises(InputError):  # an mpf sum far from 1
        DiscreteSpace(tuple(to_binary(F(1, 3), 113) for _ in range(2)))
    with pytest.raises(InputError):
        SimpleFunction((F(1),), equal_space(2))


@given(functions(), st.integers(-5, 5), st.integers(-5, 5))
def test_integrate_linear(f, a, b):
    g = SimpleFunction(tuple(reversed(f.values)), f.space)
    combo = SimpleFunction(
        tuple(a * u + b * v for u, v in zip(f.values, g.values)), f.space)
    assert integrate(combo) == a * integrate(f) + b * integrate(g)


@given(functions())
def test_center_idempotent_and_kills_constants(f):
    c = center(f)
    assert integrate(c) == 0
    assert center(c).values == c.values
    const = SimpleFunction((F(7, 3),) * f.space.n, f.space)
    assert center(const).values == (0,) * f.space.n


@given(functions(), st.none() | st.integers(0, 10**6))
def test_instance_json_roundtrip(f, trial_index):
    """to_json writes "trial_index" only when it is set; from_json reads
    back the rest and not the index."""
    doc = Instance(f.space, {"f": f}, trial_index).to_json()
    assert doc.get("trial_index", None) == trial_index
    assert ("trial_index" in doc) == (trial_index is not None)
    back = Instance.from_json(doc)
    assert back.space.weights == f.space.weights
    assert back.functions["f"].values == f.values
    assert back.trial_index is None
    assert back.to_json() == Instance(f.space, {"f": f}).to_json()


def test_multiply_pointwise():
    sp = equal_space(2)
    product = multiply(SimpleFunction((2, 0), sp), SimpleFunction((1, -1), sp))
    assert product.values == (2, 0)


#: pairs of functions on different two-atom spaces: other weights, and
#: equal weights in exact and in double arithmetic (1/2 == 0.5)
_ON_EQUAL = SimpleFunction((1, 0), equal_space(2))
_DIFFERENT = (
    (_ON_EQUAL, SimpleFunction((1, -1), DiscreteSpace((F(1, 3), F(2, 3))))),
    (SimpleFunction((F(1, 2), -1), DiscreteSpace((F(1, 2), F(1, 2)))),
     SimpleFunction((0.5, 1.0), DiscreteSpace((0.5, 0.5)))),
)
_BOTH = frozenset({0, 1})


@pytest.mark.parametrize("call", [
    lambda f, g: multiply(f, g),
    lambda f, g: common_space(f, f, g),
    lambda f, g: bilinear_form(_BOTH, _BOTH, f, g, f),
    lambda f, g: lemma31_bound(f, f, g),
    lambda f, g: hardy_littlewood_check(f, g),
    lambda f, g: nonexpansive_moments(f, g, 1),
    lambda f, g: thm43_sides(f, g, L2, 53),
], ids=["multiply", "common_space", "bilinear_form", "lemma31_bound",
        "hardy_littlewood_check", "nonexpansive_moments", "thm43_sides"])
def test_functions_on_different_spaces_are_refused(call):
    for f, g in _DIFFERENT:
        with pytest.raises(InputError,
                           match="^functions live on different spaces$"):
            call(f, g)
    sp = _ON_EQUAL.space
    assert common_space(_ON_EQUAL, SimpleFunction((0, 1), sp)) is sp
    twin = SimpleFunction((0, 1), DiscreteSpace(sp.weights))
    assert common_space(_ON_EQUAL, twin) is sp


@pytest.mark.parametrize("weights", [
    (F(1, 5),) * 5,
    (F(1, 6),) * 6,
    tuple(F(k, 157) for k in (3, 41, 17, 64, 32)),  # random-rational
], ids=["5-equal", "6-equal", "random-rational"])
def test_weight_sum_guard_at_113_bits(weights):
    space = to_binary_space(DiscreteSpace(weights), 113)
    assert sum(space.weights) != 1  # the guard's tolerance is what admits it


def test_non_string_literals_are_input_errors():
    with pytest.raises(InputError):
        Instance.from_json({"space": {"weights": [1]}})
    with pytest.raises(InputError):
        Instance.from_json({"space": {"weights": ["1"]},
                            "functions": {"f": [1]}})


def integral_reference(f):
    """sum of value * weight as a plain loop from the int 0, the order of
    operations of the former kernel."""
    total = 0
    for v, w in zip(f.values, f.space.weights):
        total = total + v * w
    return total


@given(off_lattice_spaces().flatmap(off_lattice_functions))
@settings(max_examples=80)
def test_integrate_kernel_off_lattice(f):
    mean = integrate(f)
    assert type(mean) is F
    assert mean == integral_reference(f)
    assert center(f).values == tuple(v - mean for v in f.values)


@given(off_lattice_spaces().flatmap(off_lattice_functions),
       st.sampled_from([53, 113]))
@settings(max_examples=60)
def test_integrate_kernel_is_the_scalar_loop_in_binary(f, precision):
    with binary_context(precision):
        space = to_binary_space(f.space, precision)
        fb = to_binary_function(f, space, precision)
        mean = integrate(fb)
        expected = integral_reference(fb)
        centered = center(fb).values
        expected_centered = [v - expected for v in fb.values]
    assert type(mean) is (float if precision == 53 else mpmath.mpf)
    assert same_bits(mean, expected)
    assert all(same_bits(c, e) for c, e in zip(centered, expected_centered))


def _former_family_check(values, what):
    """The arithmetic-family guard as it classified every value."""
    families = {_type_family(type(v)) for v in values} - {"any"}
    if len(families) > 1:
        raise ValueError(f"{what} mixes arithmetic modes {sorted(families)}")


#: case -> (function values or None for a bare space, space weights)
_MIXED_SCALARS = {
    "bool-value": ((True, F(1, 2)), (F(1, 2), F(1, 2))),
    "bool-weight": (None, (True,)),
    "float-values-on-fraction-weights": ((0.5, 0.25), (F(1, 2), F(1, 2))),
    "float-fraction-weights": (None, (0.5, F(1, 2))),
    "float-fraction-values": ((0.5, F(1, 4)), (0.5, 0.5)),
    "mpf-float-weights": (None, (mpmath.mpf(0.5), 0.5)),
    "mpf-float-values": ((mpmath.mpf(1), 1.0), (0.5, 0.5)),
}


@pytest.mark.parametrize("case", sorted(_MIXED_SCALARS))
def test_mixed_and_bool_scalars_are_rejected_as_before(case):
    """The type-set guard raises what the per-value guard raised."""
    values, weights = _MIXED_SCALARS[case]
    if values is None:
        checked, what = weights, "space weights"
    else:
        checked, what = values + weights, "function values"
    with pytest.raises((TypeError, ValueError)) as former:
        _former_family_check(checked, what)
    with pytest.raises(former.type) as raised:
        if values is None:
            DiscreteSpace(weights)
        else:
            SimpleFunction(values, DiscreteSpace(weights))
    assert str(raised.value) == str(former.value)


def test_int_weights_are_exact():
    """The one-atom space of the int weight 1 has an exact unit, so it
    refuses binary values and shares the space of weight Fraction(1)."""
    space = DiscreteSpace((1,))
    assert space.families == {"exact"} and space.unit == F(1)
    with pytest.raises(ValueError, match="mixes arithmetic modes"):
        SimpleFunction((0.5,), space)
    f = SimpleFunction((F(1, 3),), space)
    assert multiply(f, SimpleFunction((3,), equal_space(1))).values == (1,)
    with pytest.raises(InputError, match="different spaces"):
        common_space(f, SimpleFunction((0.5,), DiscreteSpace((1.0,))))


def _assert_kept_pair(numerators, unit, scalars):
    """A stored (numerators, unit) pair is over_common_denominator of the
    scalars: equal numerators, an equal unit of the same type."""
    expected, expected_unit = over_common_denominator(scalars)
    assert numerators == tuple(expected)
    assert type(unit) is type(expected_unit) and unit == expected_unit


@given(off_lattice_spaces().flatmap(off_lattice_functions),
       st.sampled_from([None, 53, 113]))
@settings(max_examples=60)
def test_spaces_and_functions_keep_their_common_denominator_form(f, precision):
    """The pair a space or a function keeps, whether built by the
    constructor or by center's numerator path, is over_common_denominator
    of its weights or values."""
    with binary_context(precision or 53):
        if precision is not None:
            space = to_binary_space(f.space, precision)
            f = to_binary_function(f, space, precision)
        centered = center(f)
    _assert_kept_pair(f.space.numerators, f.space.unit, f.space.weights)
    for fn in (f, centered):
        _assert_kept_pair(fn.numerators, fn.unit, fn.values)
    if precision is None:
        assert all(type(n) is int for n in centered.numerators)


def test_equal_space_is_one_validated_object_per_atom_count():
    for n in (1, 6, 64):
        space = equal_space(n)
        assert equal_space(n) is space
        assert space.weights == (F(1, n),) * n
        assert space.numerators == (1,) * n and space.unit == F(1, n)
    assert equal_space(5) is not equal_space(6)
    for _ in range(2):  # a rejected count is rejected on every call
        with pytest.raises(InputError, match="at least one atom"):
            equal_space(0)


@given(off_lattice_spaces().flatmap(off_lattice_functions),
       st.sampled_from([None, 53, 113]))
@settings(max_examples=60)
def test_values_are_scaled_back_on_first_read_as_former_eager_ones(f,
                                                                    precision):
    """A function from numerators scales its exact values back on first
    read, to the values, types, ==, hash and repr of the former eager
    from_numerators; binary values are kept as they are, from the start."""
    with binary_context(precision or 53):
        if precision is not None:
            space = to_binary_space(f.space, precision)
            f = to_binary_function(f, space, precision)
        pair = over_common_denominator(f.values)
        former = former_function_from_numerators(*pair, f.space)
        fresh = [SimpleFunction.from_numerators(*pair, f.space)
                 for _ in range(4)]
        assert ("values" in fresh[0].__dict__) is (precision is not None)
        # each of ==, hash and repr reads the values itself
        assert fresh[0] == former and former == fresh[1]
        assert hash(fresh[2]) == hash(former)
        assert repr(fresh[3]) == repr(former)
        for g in fresh:
            assert g.values == former.values == f.values
            assert [type(v) for v in g.values] == \
                [type(v) for v in former.values]
            if precision is not None:
                assert all(map(same_bits, g.values, former.values))


@given(off_lattice_spaces().flatmap(lambda space: st.tuples(
    off_lattice_functions(space), off_lattice_functions(space),
    st.lists(st.integers(-8, 8), min_size=space.n, max_size=space.n))),
    st.sampled_from([None, 53, 113]))
@settings(max_examples=60)
def test_multiply_is_the_former_value_product(functions, precision):
    """multiply, which multiplies numerators, gives the pair and the values
    of the former product of values (binary ones bit for bit), also with
    int values, which take a binary space's arithmetic."""
    f, g, ints = functions
    with binary_context(precision or 53):
        if precision is not None:
            space = to_binary_space(f.space, precision)
            f, g = (to_binary_function(h, space, precision) for h in (f, g))
        h = SimpleFunction(tuple(ints), f.space)
        for a, b in ((f, g), (f, h), (h, g), (h, h)):
            product, former = multiply(a, b), former_multiply(a, b)
            assert (product.numerators, product.unit) == \
                (former.numerators, former.unit)
            assert product.values == former.values and product == former
            if precision is not None:
                assert all(map(same_bits, product.values, former.values))


@pytest.mark.parametrize("values,weights", [
    ((F(1, 2), F(1, 3)), (0.5, 0.5)),
    ((0.5, 0.25), (F(1, 2), F(1, 2))),
    ((F(1, 2),), (F(1, 2), F(1, 2))),
    ((F(1, 2), F(1, 3), F(1, 6)), (F(1, 2), F(1, 2))),
], ids=["exact-on-float", "float-on-exact", "too-few", "too-many"])
def test_values_from_numerators_are_checked_on_the_pair(values, weights):
    """from_numerators, which checks the pair and builds no values,
    rejects what the former eager one rejected, with its message."""
    space = DiscreteSpace(weights)
    pair = over_common_denominator(values)
    with pytest.raises((InputError, ValueError)) as former:
        former_function_from_numerators(*pair, space)
    with pytest.raises(former.type) as raised:
        SimpleFunction.from_numerators(*pair, space)
    assert str(raised.value) == str(former.value)


def _wide_scalars():
    """Exact scalars with numerators and denominators up to 10^30, zero
    and negatives included."""
    return st.one_of(st.just(F(0)), st.builds(
        F, st.integers(-(10**30), 10**30), st.integers(1, 10**30)))


@st.composite
def _wide_spaces(draw, max_atoms=7):
    """Random-rational weights k_i / sum(k) for k_i up to 10^29, so that
    numerators and denominators stay below 10^30: former_to_binary rounds
    an int wider than 113 bits before it divides, so it rounds once only
    on ints that fit."""
    raw = draw(st.lists(st.integers(1, 10**29), min_size=1,
                        max_size=max_atoms))
    total = sum(raw)
    return DiscreteSpace(tuple(F(k, total) for k in raw))


@given(st.one_of(spaces(max_atoms=7), _wide_spaces()).flatmap(
    lambda space: st.tuples(st.just(space), st.lists(
        _wide_scalars(), min_size=space.n, max_size=space.n))))
@settings(max_examples=150, deadline=None)
def test_conversion_from_the_pair_is_the_former_rounding(case):
    """to_binary_space and to_binary_function read the exact pair, and
    give each weight and value as former_to_binary rounds it, bit for
    bit and in type, at 53 and 113 bits and exactly; the result is what
    the constructor builds of those scalars, pair included.  A double
    space and function, converted once more, round value by value with
    `to_binary`."""
    space, values = case
    f = SimpleFunction(tuple(values), space)
    for precision in (None, 53, 113):
        binary = to_binary_space(space, precision)
        fb = to_binary_function(f, binary, precision)
        expected = SimpleFunction(tuple(former_to_binary(v, precision)
                                        for v in values), binary)
        assert all(map(same_bits, binary.weights,
                       (former_to_binary(w, precision)
                        for w in space.weights)))
        assert all(map(same_bits, fb.values, expected.values))
        assert (fb.numerators, fb.unit) == (expected.numerators, expected.unit)
        assert fb == expected and fb.space is binary
        for again in (None, 53, 113) if precision == 53 else ():
            twin = to_binary_space(binary, again)
            assert all(map(same_bits, twin.weights,
                           (to_binary(w, again) for w in binary.weights)))
            assert all(map(same_bits,
                           to_binary_function(fb, twin, again).values,
                           (to_binary(v, again) for v in fb.values)))


def test_a_space_converts_once_per_precision():
    """A second conversion at one precision returns the twin the space
    keeps, and another precision another object; an instance converts
    its space through it, and the kept twins change no equality, hash,
    repr or field of the space."""
    weights = (F(1, 3), F(1, 6), F(1, 2))
    space = DiscreteSpace(weights)
    fingerprint = (repr(space), hash(space), space.numerators, space.unit,
                   space.families)
    twins = {p: to_binary_space(space, p) for p in (None, 53, 113)}
    for precision, twin in twins.items():
        assert to_binary_space(space, precision) is twin
        assert [other for other in twins.values() if other is twin] == [twin]
    f = SimpleFunction((F(1), F(-2), F(0)), space)
    inst = Instance(space, {"f": f, "g": f})
    for precision in (53, 113):
        work = inst.to_binary(precision)
        assert work.space is twins[precision]
        assert all(g.space is twins[precision] for g in work.functions.values())
    assert inst.to_binary(None) is inst
    assert space == DiscreteSpace(weights)
    assert (repr(space), hash(space), space.numerators, space.unit,
            space.families) == fingerprint
