"""The product-rule kernel against its definition, and what it keeps.

`verify._product_rule` takes its five norms of `center(multiply(f, g))`,
f, `center(g)`, g and `center(f)`, and keeps on each function its centred
function and the norms taken of both.  Its sides must be, in value and
type, the ones `norm` gives of the same functions built afresh, the
product as the former `multiply` built it from the values
(`oracles.former_multiply`), in every arithmetic and on every norm kind;
and what it keeps must change no equality, hash, repr or field of a
function, a descriptor or a config.
"""

import dataclasses
import gc
import weakref
from fractions import Fraction as F

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from conftest import same_bits, spaces
from oracles import former_multiply
from rearrange_lab.errors import RearrangeLabError
from rearrange_lab.norms import (L1, L2, LINF, Associate, ConcaveWeight,
                                 Generated, LorentzLambda, Lp, norm)
from rearrange_lab.scalars import INF, binary_context
from rearrange_lab.spaces import (DiscreteSpace, SimpleFunction, center,
                                  to_binary_function, to_binary_space)
from rearrange_lab.verify import (TrialConfig, _kept, _kept_norm,
                                  _norm_table, _product_rule, generate_instance,
                                  run_suite, thm41_sides, thm43_sides)

PHI = ConcaveWeight(((0, 0), (F(1, 2), F(3, 4)), (1, 1)))
LORENTZ = LorentzLambda(PHI)

#: Lp with integer and fractional p, the Lorentz norm, its associate, and
#: generated norms of Lp
DESCRIPTORS = (L1, L2, Lp(3), LINF, Lp(F(3, 2)), Lp(F(5, 2)), LORENTZ,
               Associate(LORENTZ), Generated(L1, 2), Generated(L2, F(3, 2)))


def _reference(f, g, forms, precision):
    """The kernel from its definition, on functions built afresh and the
    product of the values."""
    fgc, fc, gc = center(former_multiply(f, g)), center(f), center(g)
    return {label: (norm(Y0, fgc, precision=precision),
                    norm(Y1, f, precision=precision)
                    * norm(Y2, gc, precision=precision)
                    + norm(Y3, g, precision=precision)
                    * norm(Y4, fc, precision=precision))
            for label, (Y0, Y1, Y2, Y3, Y4) in forms.items()}


def _outcome(evaluate, *args):
    try:
        return evaluate(*args)
    except RearrangeLabError as exc:  # ExactUnavailable, InputError
        return type(exc), str(exc)


def _same(a, b):
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(
            same_bits(x, y) for label in a for x, y in zip(a[label], b[label]))
    return a == b


@st.composite
def _pairs(draw, precision):
    """f and g on one space, equal or random-rational, in the arithmetic
    of precision; their values are lattice Fractions or ints (on a binary
    space, ints that take its arithmetic)."""
    space = draw(spaces(max_atoms=5))
    ints = draw(st.booleans())
    values = [tuple(k if ints else F(k, 4) for k in draw(
        st.lists(st.integers(-8, 8), min_size=space.n, max_size=space.n)))
        for _ in "fg"]
    if precision is None:
        return tuple(SimpleFunction(v, space) for v in values)
    binary = to_binary_space(space, precision)
    return tuple(SimpleFunction(v, binary) if ints
                 else to_binary_function(SimpleFunction(v, space), binary,
                                         precision) for v in values)


@pytest.mark.parametrize("precision", [None, 53, 113],
                         ids=["exact", "double", "113-bit"])
@given(data=st.data())
@settings(max_examples=120, deadline=None)
def test_kernel_is_norm_of_center_and_multiply(precision, data):
    f, g = data.draw(_pairs(precision))
    forms = {label: tuple(data.draw(st.sampled_from(DESCRIPTORS))
                          for _ in range(5))
             for label in data.draw(st.sampled_from(((None,), ("a", "b"))))}
    ambient = data.draw(st.booleans())
    # exact functions are also normed in doubles, after the exact norms
    for width in (precision,) if precision else (None, 53):
        with binary_context((width or 53) if ambient else 53):
            expected = _outcome(_reference, f, g, forms, width)
            assert _same(_outcome(_product_rule, f, g, forms, width),
                         expected), (f, g, forms, width)
            # again, now reading what the first call kept on f and g
            assert _same(_outcome(_product_rule, f, g, forms, width),
                         expected), (f, g, forms, width)


def test_mpf_functions_are_centred_at_the_precision_of_each_call():
    """An mpf mean rounds at the working precision in effect, as `center`
    rounds it, so nothing is kept across calls made at two of them."""
    space = to_binary_space(DiscreteSpace((F(1, 3), F(1, 6), F(1, 2))), 113)
    f, g = (to_binary_function(SimpleFunction(values, DiscreteSpace(
        (F(1, 3), F(1, 6), F(1, 2)))), space, 113)
        for values in ((F(1, 7), F(-2, 3), F(5, 11)), (F(3, 5), F(1, 9), -1)))
    forms = _norm_table("thm41", (2, 4, 4, 4, 4))
    for ambient in (53, 113, 53):
        with binary_context(ambient):
            assert _same(_product_rule(f, g, forms, 113),
                         _reference(f, g, forms, 113)), ambient


def test_int_valued_functions_take_their_binary_space_arithmetic():
    space = DiscreteSpace((0.25, 0.75))
    f = SimpleFunction((1, -1), space)
    twin = SimpleFunction((1.0, -1.0), space)
    assert (f.numerators, f.unit) == ((1, -1), 1)
    assert center(f).values == center(twin).values == (1.5, -0.5)
    assert thm41_sides(f, f, (1, INF, 1, INF, 1), 53) == \
        thm41_sides(twin, twin, (1, INF, 1, INF, 1), 53)
    assert thm43_sides(f, f, L2, 53) == thm43_sides(twin, twin, L2, 53)
    for X in (LORENTZ, Associate(LORENTZ)):
        assert same_bits(norm(X, f, precision=53), 1.0)


def _fingerprint(obj):
    return (repr(obj), hash(obj),
            [field.name for field in dataclasses.fields(obj)])


def test_what_the_kernel_keeps_is_invisible():
    """Evaluating keeps memos on functions, descriptors and configs, and
    none of them changes their equality, hash, repr or fields."""
    X = Associate(LORENTZ)
    cfg = TrialConfig(suite="thm43", atoms=5, trials=3, norm=X)
    fresh_cfg = TrialConfig(suite="thm43", atoms=5, trials=3,
                            norm=Associate(LORENTZ))
    inst = generate_instance(cfg, 1)
    space = to_binary_space(inst.space, 53)
    f, g = (to_binary_function(inst.functions[n], space, 53) for n in "fg")
    twins = [to_binary_function(inst.functions[n], space, 53) for n in "fg"]
    objects = (f, g, X, cfg, Lp(F(3, 2)), Generated(L2, 3))
    before = [_fingerprint(o) for o in objects]
    run_suite(cfg)
    _product_rule(f, g, _norm_table("thm41", (F(3, 2), 3, 3, 3, 3)), 53)
    _product_rule(f, g, _norm_table("thm43", X=Generated(L2, 3),
                                   labels=("norm_form",)), 53)
    norm(objects[4], f, precision=53)
    assert "_kernel" in f.__dict__ and "_norm_tables" in cfg.__dict__
    assert [_fingerprint(o) for o in objects] == before
    assert [f, g] == twins and [hash(f), hash(g)] == list(map(hash, twins))
    assert X == Associate(LORENTZ) and hash(X) == hash(Associate(LORENTZ))
    assert cfg == fresh_cfg and hash(cfg) == hash(fresh_cfg)


def test_a_kept_norm_holds_its_descriptor():
    """A function's memo keeps the descriptors it was keyed by alive, so
    no fresh descriptor can take their id while the memo lives."""
    space = DiscreteSpace((0.5, 0.25, 0.25))
    f = SimpleFunction((1.0, -2.0, 0.5), space)
    g = SimpleFunction((0.5, 0.5, -3.0), space)
    Y = Lp(3)
    alive = weakref.ref(Y)
    _product_rule(f, g, {None: (Y, Y, Y, Y, Y)}, 53)
    del Y
    gc.collect()
    assert alive() is not None
    del f, g
    gc.collect()
    assert alive() is None


def test_an_entry_left_at_a_descriptors_id_is_not_read():
    """An entry keyed by a descriptor's id but holding another descriptor
    (as one recycled id would leave) is evaluated again, not read."""
    f = SimpleFunction((1.0, -2.0, 0.5), DiscreteSpace((0.5, 0.25, 0.25)))
    Y = Lp(3)
    memo = _kept(f)
    memo[id(Y), id(f), 53] = Lp(5), 123.0
    assert same_bits(_kept_norm(memo, Y, f, 53), norm(Y, f, precision=53))
    assert memo[id(Y), id(f), 53][0] is Y

