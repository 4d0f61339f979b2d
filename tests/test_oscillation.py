import random
from fractions import Fraction as F

import hypothesis.strategies as st
import pytest
import mpmath
from hypothesis import given, settings

from conftest import (function_pairs, function_triples, functions,
                      lattice_values, off_lattice_functions,
                      off_lattice_spaces, same_bits)
from oracles import (ProductKernel, derivation, derivation_adjoint,
                     former_bilinear_form, function_pairing, kernel_add,
                     kernel_left, kernel_pairing, kernel_right,
                     product_identity_check, profile_submajorizes,
                     variance_identity_check)
from rearrange_lab.errors import (EmptyInput, InputError, NotZeroMean,
                                  PreconditionViolated)
from rearrange_lab.oscillation import (BlockDecomposition, ZeroMeanBlock,
                                       bilinear_form, decomposition_from_json,
                                       decomposition_to_json, lemma31_bound,
                                       zero_mean_decompose)
from rearrange_lab.rearrange import decreasing_rearrangement, make_profile
from rearrange_lab.scalars import binary_context
from rearrange_lab.spaces import (DiscreteSpace, SimpleFunction, center,
                                  equal_space, integrate, multiply, scale,
                                  simple, support, to_binary_function,
                                  to_binary_space)


def bilinear_oracle(A, B, f, g, h):
    """The defining double sum, kept as the independent route."""
    w = f.space.weights
    total = F(0)
    for y in A:
        for x in B:
            total += (
                (f.values[x] + f.values[y])
                * (g.values[x] - g.values[y])
                * h.values[y] * w[x] * w[y]
            )
    return total


def bilinear_reference(A, B, f, g, h):
    """The one-dimensional expansion as plain scalar loops, in the order of
    operations of the former Fraction kernel: each product starts from
    Fraction(1) and each integral from Fraction(0)."""
    w = f.space.weights

    def over(atoms, *funcs):
        total = F(0)
        for i in atoms:
            term = F(1)
            for fn in funcs:
                term = term * fn.values[i]
            total = total + term * w[i]
        return total

    return (
        over(B, f, g) * over(A, h)
        - over(B, f) * over(A, g, h)
        + over(B, g) * over(A, f, h)
        - over(B) * over(A, f, g, h)
    )


@st.composite
def off_lattice_cases(draw):
    """(A, B, f, g, h) with off-lattice exact values and weights; either
    set may be empty."""
    space = draw(off_lattice_spaces())
    f, g, h = (draw(off_lattice_functions(space)) for _ in range(3))
    A, B = (frozenset(draw(st.sets(st.integers(0, space.n - 1))))
            for _ in range(2))
    return A, B, f, g, h


@given(off_lattice_cases())
@settings(max_examples=80)
def test_bilinear_kernel_matches_oracle_off_lattice(case):
    A, B, f, g, h = case
    result = bilinear_form(A, B, f, g, h)
    assert type(result) is F
    assert result == bilinear_oracle(A, B, f, g, h)
    assert result == bilinear_reference(A, B, f, g, h)


@given(off_lattice_cases(), st.sampled_from([53, 113]))
@settings(max_examples=60)
def test_bilinear_kernel_is_the_scalar_loop_in_binary(case, precision):
    """Binary values take the kernel's one path with unit 1: the result is
    the former Fraction-seeded loop's, bit for bit, in the input's type."""
    A, B, *exact = case
    with binary_context(precision):
        space = to_binary_space(exact[0].space, precision)
        f, g, h = (to_binary_function(fn, space, precision) for fn in exact)
        result = bilinear_form(A, B, f, g, h)
        expected = bilinear_reference(A, B, f, g, h)
    if not (A or B):  # no term at all: an exact zero either way
        assert result == expected == 0
        return
    assert type(result) is (float if precision == 53 else mpmath.mpf)
    assert same_bits(result, expected)


def _sixteen_atom_triple(rng):
    """f, g, h on 16 atoms with random rational weights and values whose
    binary roundings round."""
    numerators = [rng.randint(1, 64) for _ in range(16)]
    space = DiscreteSpace(tuple(F(k, sum(numerators)) for k in numerators))
    return [SimpleFunction(tuple(F(rng.randint(-10**6, 10**6),
                                   rng.choice((1, 3, 7, 10)))
                                 for _ in range(16)), space)
            for _ in range(3)]


#: (A, B) pairs on 16 atoms that iterate in a non-ascending order
_UNORDERED_SETS = [(frozenset({9, 2, 5}), frozenset({3, 12, 5})),
                   (frozenset({9, 2}), frozenset({15, 0, 7, 9})),
                   (frozenset(range(16)), frozenset({9, 2, 5}))]


@pytest.mark.parametrize("precision", [None, 53, 113])
def test_bilinear_form_is_the_former_loop_bit_for_bit(precision):
    """The map/reduce integrals give the former Python loop's result, bit
    for bit on floats and mpfs, in the sets' own iteration order: on
    fixed sets that do not iterate in ascending order, and random ones,
    also as one set object passed as both A and B."""
    assert all(list(atoms) != sorted(atoms)
               for pair in _UNORDERED_SETS for atoms in pair if len(atoms) < 16)
    rng = random.Random(16)
    for case in range(40):
        exact = _sixteen_atom_triple(rng)
        sets = _UNORDERED_SETS if case == 0 else [
            tuple(frozenset(rng.sample(range(16), rng.randint(0, 16)))
                  for _ in range(2))]
        sets = [*sets, (sets[0][0], sets[0][0])]
        with binary_context(precision or 53):
            if precision is None:
                f, g, h = exact
            else:
                space = to_binary_space(exact[0].space, precision)
                f, g, h = (to_binary_function(fn, space, precision)
                           for fn in exact)
            for A, B in sets:
                result = bilinear_form(A, B, f, g, h)
                expected = former_bilinear_form(A, B, f, g, h)
                assert type(result) is type(expected)
                if precision is None or not (A or B):
                    assert result == expected
                else:
                    assert same_bits(result, expected)


def test_bilinear_fixtures():
    sp = equal_space(2)
    om = frozenset({0, 1})
    f, g = simple((1, 1), sp), simple((1, -1), sp)
    assert bilinear_form(om, om, f, g, simple((-1, 1), sp)) == 2
    assert bilinear_form(om, om, f, g, simple((1, -1), sp)) == -2
    const = simple((F(7, 2), F(7, 2)), sp)
    assert bilinear_form(om, om, f, const, simple((1, -1), sp)) == 0


@given(function_triples(min_atoms=2, max_atoms=5), st.data())
@settings(max_examples=80)
def test_bilinear_matches_double_sum_oracle(triple, data):
    f, g, h = triple
    n = f.space.n
    A = frozenset(data.draw(st.sets(st.integers(0, n - 1))))
    B = frozenset(data.draw(st.sets(st.integers(0, n - 1))))
    assert bilinear_form(A, B, f, g, h) == bilinear_oracle(A, B, f, g, h)


@given(function_triples(min_atoms=2, max_atoms=4), st.integers(-3, 3),
       st.integers(-3, 3))
@settings(max_examples=50)
def test_bilinear_linearity(triple, a, b):
    f, g, h = triple
    om = frozenset(range(f.space.n))
    other = SimpleFunction(tuple(reversed(f.values)), f.space)
    combo = SimpleFunction(
        tuple(a * u + b * v for u, v in zip(f.values, other.values)), f.space)
    assert bilinear_form(om, om, combo, g, h) == (
        a * bilinear_form(om, om, f, g, h)
        + b * bilinear_form(om, om, other, g, h))
    combo_g = SimpleFunction(tuple(a * v for v in g.values), g.space)
    assert bilinear_form(om, om, f, combo_g, h) == \
        a * bilinear_form(om, om, f, g, h)


@given(function_triples(min_atoms=2, max_atoms=5))
@settings(max_examples=80)
def test_splitting_identity(triple):
    f, g, h = triple
    space = f.space
    G = support(g)
    Gc = space.complement(G)
    om = frozenset(range(space.n))
    parts = (
        bilinear_form(G, Gc, f, g, h)
        + bilinear_form(Gc, G, f, g, h)
        + bilinear_form(G, G, f, g, h)
        + bilinear_form(Gc, Gc, f, g, h)
    )
    assert bilinear_form(om, om, f, g, h) == parts
    assert bilinear_form(Gc, Gc, f, g, h) == 0


@given(function_pairs())
def test_product_identity(pair):
    assert product_identity_check(*pair) == 0


def test_product_identity_fixtures():
    sp = equal_space(2)
    assert product_identity_check(simple((2, 0), sp), simple((1, -1), sp)) == 0
    f = simple((3, -2), sp)
    assert product_identity_check(f, f) == 0


# ---------------------------------------------------------------------------
# difference calculus

def test_derivation_fixture():
    sp = equal_space(2)
    K = derivation(simple((1, -1), sp))
    assert K.values == ((0, 2), (-2, 0))
    const = derivation(simple((F(5, 4), F(5, 4)), sp))
    assert const.values == ((0, 0), (0, 0))


@given(function_pairs(min_atoms=2, max_atoms=5))
def test_derivation_leibniz_rule(pair):
    f, g = pair
    lhs = derivation(multiply(f, g))
    rhs = kernel_add(kernel_left(f, derivation(g)),
                     kernel_right(derivation(f), g))
    assert lhs.values == rhs.values


def test_adjoint_fixtures():
    sp = equal_space(2)
    f = simple((1, -1), sp)
    assert derivation_adjoint(derivation(f)).values == (-2, 2)
    zero_kernel = kernel_left(simple((0, 0), sp), derivation(f))
    assert derivation_adjoint(zero_kernel).values == (0, 0)
    sym = ProductKernel(((F(3), F(3)), (F(3), F(3))), sp)
    assert derivation_adjoint(sym).values == (0, 0)


@given(functions(min_atoms=2, max_atoms=5))
def test_adjoint_pairing_with_divergence_sign(f):
    """<derivation u, K> = -<u, adjoint K> on the coordinate basis."""
    space = f.space
    K = derivation(f)
    for i in range(space.n):
        u = SimpleFunction(
            tuple(F(1) if j == i else F(0) for j in range(space.n)), space)
        assert kernel_pairing(derivation(u), K) == \
            -function_pairing(u, derivation_adjoint(K))


@given(functions(min_atoms=1, max_atoms=5))
def test_adjoint_of_derivation_is_neg_two_centering(f):
    adj = derivation_adjoint(derivation(f))
    expected = scale(center(f), -2)
    assert adj.values == expected.values


@given(function_pairs(min_atoms=2, max_atoms=5))
def test_product_decomposition_via_adjoint(pair):
    f, g = pair
    total = SimpleFunction(
        tuple(a + b for a, b in zip(
            derivation_adjoint(kernel_left(f, derivation(g))).values,
            derivation_adjoint(kernel_right(derivation(f), g)).values,
        )), f.space)
    expected = scale(center(multiply(f, g)), -2)
    assert total.values == expected.values


@given(function_triples(min_atoms=2, max_atoms=4))
@settings(max_examples=50)
def test_oscillation_form_through_adjoint(triple):
    f, g, h = triple
    om = frozenset(range(f.space.n))
    adj = derivation_adjoint(kernel_left(f, derivation(g)))
    assert bilinear_form(om, om, f, g, h) == function_pairing(adj, h)


def test_variance_fixtures():
    sp = equal_space(2)
    assert variance_identity_check(simple((1, -1), sp)) == (1, 1, 1)
    assert variance_identity_check(simple((5, 5), sp)) == (0, 0, 0)
    from rearrange_lab.spaces import DiscreteSpace
    sp3 = DiscreteSpace((F(1, 5), F(3, 10), F(1, 2)))
    a, b, c = variance_identity_check(simple((3, -1, 2), sp3))
    assert a == b == c == F(241, 100)


@given(functions())
def test_variance_identity_random(f):
    a, b, c = variance_identity_check(f)
    assert a == b == c


# ---------------------------------------------------------------------------
# zero-mean decomposition

def test_decomposition_worked_fixture():
    sp = equal_space(4)
    g = simple((3, 1, -2, -2), sp)
    dec = zero_mean_decompose(g)
    assert len(dec.blocks) == 2
    b1, b2 = dec.blocks
    assert (b1.a, b1.A, b1.b, b1.B) == (1, frozenset({0, 1}), 1, frozenset({2, 3}))
    assert (b2.a, b2.A, b2.b, b2.B) == (2, frozenset({0}), 1, frozenset({2, 3}))
    gstar = decreasing_rearrangement(g)
    assert gstar.segments == ((3, F(1, 4)), (2, F(1, 2)), (1, F(1, 4)))
    assert dec.profile_sum() == gstar
    assert decreasing_rearrangement(b1.to_function()) == \
        make_profile([(F(1), F(1))])
    assert decreasing_rearrangement(b2.to_function()) == \
        make_profile([(F(2), F(1, 4)), (F(1), F(1, 2))])


def test_decomposition_two_level_is_single_block():
    sp = equal_space(4)
    g = simple((2, 2, -1, -3), sp)  # not two-level
    dec = zero_mean_decompose(simple((1, 1, -1, -1), sp))
    assert len(dec.blocks) == 1
    dec = zero_mean_decompose(simple((1, -1, 0), equal_space(3)))
    assert len(dec.blocks) == 1
    b = dec.blocks[0]
    assert (b.a, b.A, b.b, b.B) == (1, frozenset({0}), 1, frozenset({1}))


def test_decomposition_errors():
    sp = equal_space(3)
    with pytest.raises(NotZeroMean):
        zero_mean_decompose(simple((1, 1, 1), sp))
    with pytest.raises(EmptyInput):
        zero_mean_decompose(simple((0, 0, 0), sp))


def centered_nonzero(draw_values, space):
    g = center(SimpleFunction(draw_values, space))
    return g if any(v != 0 for v in g.values) else None


@given(functions(min_atoms=2))
@settings(max_examples=150)
def test_decomposition_contract(f):
    g = center(f)
    if all(v == 0 for v in g.values):
        return
    dec = zero_mean_decompose(g)
    space = g.space
    # (a) each block balances to zero mean, exactly
    for block in dec.blocks:
        assert integrate(block.to_function()) == 0
        assert block.a * space.measure(block.A) == \
            block.b * space.measure(block.B)
    # (b) supports nested decreasing
    for earlier, later in zip(dec.blocks, dec.blocks[1:]):
        assert later.support <= earlier.support
    # (c) pointwise sum reproduces g
    totals = [F(0)] * space.n
    for block in dec.blocks:
        for i, v in enumerate(block.to_function().values):
            totals[i] += v
    assert tuple(totals) == g.values
    # (d') the blocks' profile sum carries the mass of g* and dominates
    # it in running integral; segment-wise equality is not available for
    # arbitrary zero-mean g (see the frozen counterexample below)
    from rearrange_lab.rearrange import profile_moment
    gstar = decreasing_rearrangement(g)
    total_profile = dec.profile_sum()
    assert profile_moment(total_profile, 1) == profile_moment(gstar, 1)
    assert profile_submajorizes(gstar, total_profile)
    # (e) round count within the level budget
    m = len({v for v in g.values if v > 0})
    k = len({v for v in g.values if v < 0})
    assert len(dec.blocks) <= m + k


@given(st.data())
@settings(max_examples=80)
def test_decomposition_profile_sum_exact_for_two_level(data):
    """Segment-wise additivity does hold for two-level inputs."""
    n = data.draw(st.integers(2, 6))
    sp = equal_space(n)
    split = data.draw(st.integers(1, n - 1))
    A = frozenset(range(split))
    B = frozenset(range(split, n))
    a = F(data.draw(st.integers(1, 8)), 4)
    b = a * sp.measure(A) / sp.measure(B)
    values = tuple(a if i in A else -b for i in range(n))
    g = SimpleFunction(values, sp)
    dec = zero_mean_decompose(g)
    assert len(dec.blocks) == 1
    assert dec.profile_sum() == decreasing_rearrangement(g)


def test_decomposition_profile_sum_counterexample():
    """The unique nested balanced decomposition of this zero-mean input
    cannot reproduce g* segment-wise: the first block's balance-scaled
    negative height (39/40) outranks the positive values 23/20 > 22/20 in
    the wrong order.  Frozen here so the limitation stays visible."""
    sp = equal_space(5)
    g = simple((F(23, 20), F(-22, 20), F(-27, 20), F(13, 20), F(13, 20)), sp)
    dec = zero_mean_decompose(g)
    from rearrange_lab.rearrange import profile_moment
    gstar = decreasing_rearrangement(g)
    total = dec.profile_sum()
    assert total != gstar
    assert total.segments[0] == (F(59, 40), F(1, 5))
    assert gstar.segments[0] == (F(27, 20), F(1, 5))
    assert profile_moment(total, 1) == profile_moment(gstar, 1)
    assert profile_submajorizes(gstar, total)


def test_block_validation():
    sp = equal_space(4)
    with pytest.raises(InputError):
        ZeroMeanBlock(F(1), frozenset({0}), F(1), frozenset({0}), sp)
    with pytest.raises(InputError):
        ZeroMeanBlock(F(1), frozenset({0}), F(2), frozenset({1}), sp)
    with pytest.raises(InputError):
        ZeroMeanBlock(F(1), frozenset(), F(1), frozenset({1}), sp)


def test_decomposition_json_roundtrip():
    sp = equal_space(4)
    dec = zero_mean_decompose(simple((3, 1, -2, -2), sp))
    doc = decomposition_to_json(dec)
    assert doc == {"blocks": [
        {"a": "1", "A": [0, 1], "b": "1", "B": [2, 3]},
        {"a": "2", "A": [0], "b": "1", "B": [2, 3]},
    ]}
    back = decomposition_from_json(doc, sp)
    assert back.blocks == dec.blocks


# ---------------------------------------------------------------------------
# the off-support cross-term bound

def test_lemma31_fixture():
    sp = equal_space(3)
    lhs, rhs = lemma31_bound(
        simple((1, 1, 1), sp), simple((1, -1, 0), sp), simple((1, 1, 1), sp))
    assert (lhs, rhs) == (0, F(4, 9))


def test_lemma31_full_support_is_trivial():
    sp = equal_space(2)
    lhs, rhs = lemma31_bound(
        simple((1, 0), sp), simple((1, -1), sp), simple((1, 1), sp))
    assert lhs == 0 and rhs == 0


def test_lemma31_preconditions():
    sp = equal_space(2)
    g = simple((1, -1), sp)
    with pytest.raises(PreconditionViolated, match="zero mean"):
        lemma31_bound(simple((1, 0), sp), simple((1, 1), sp), simple((1, 0), sp))
    with pytest.raises(PreconditionViolated, match="values in"):
        lemma31_bound(simple((2, 0), sp), g, simple((1, 0), sp))
    with pytest.raises(PreconditionViolated, match="h"):
        lemma31_bound(simple((1, 0), sp), g, simple((2, 0), sp))


@given(st.data())
@settings(max_examples=150)
def test_lemma31_random(data):
    n = data.draw(st.integers(2, 5))
    sp = equal_space(n)
    f = simple(tuple(F(data.draw(st.integers(-1, 1))) for _ in range(n)), sp)
    h = simple(tuple(F(data.draw(st.integers(-4, 4)), 4) for _ in range(n)), sp)
    g = center(simple(
        tuple(F(data.draw(st.integers(-8, 8)), 4) for _ in range(n)), sp))
    lhs, rhs = lemma31_bound(f, g, h)
    assert lhs <= rhs


def test_lemma31_zero_f():
    sp = equal_space(4)
    f = simple((0, 0, 0, 0), sp)
    g = center(simple((2, -1, 0, 1), sp))
    lhs, rhs = lemma31_bound(f, g, simple((1, -1, 1, -1), sp))
    assert lhs <= rhs


def test_lemma31_mean_is_checked_in_g_arithmetic():
    exact = equal_space(2)
    with pytest.raises(PreconditionViolated, match="zero mean"):
        lemma31_bound(simple((1, 0), exact),
                      simple((F(1, 1000), F(1, 1000)), exact),
                      simple((1, 0), exact))
    binary = DiscreteSpace((0.5, 0.5))
    f, h = simple((1.0, 0.0), binary), simple((1.0, 0.0), binary)
    with pytest.raises(PreconditionViolated, match="zero mean"):
        lemma31_bound(f, simple((0.6, -0.4), binary), h)
    # the rounding of an exactly centered g passes, though its mean is not 0
    fifths = DiscreteSpace((0.2,) * 5)
    g = simple((1.05, 0.05, 0.05, 0.8, -1.95), fifths)
    assert integrate(g) != 0
    lemma31_bound(simple((1.0, 0.0, -1.0, 0.0, 1.0), fifths), g,
                  simple((1.0, 1.0, 0.25, 0.0, -0.5), fifths))


@pytest.mark.parametrize("flags,precision", [
    (["--atoms", "5"], None),
    (["--atoms", "6", "--weights", "random-rational"], None),
    (["--atoms", "5"], "113"),
], ids=["5-atoms", "6-atoms-random-rational", "5-atoms-113-bits"])
def test_lemma31_runs_in_float_mode(flags, precision, monkeypatch, capsys):
    from rearrange_lab.cli import run
    if precision is not None:
        monkeypatch.setenv("REARRANGE_LAB_PRECISION", precision)
    argv = ["verify", "--suite", "lemma31", "--mode", "float",
            "--trials", "150", "--seed", "1", *flags]
    assert run(argv) == 0
    assert capsys.readouterr().err == ""
