import math
from fractions import Fraction as F

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from conftest import function_pairs, functions, lattice_values
from oracles import associate_norm_oracle, second_associate_lp_oracle
from rearrange_lab.errors import (ExactUnavailable, InputError,
                                  NonEqualAtomSpace)
from rearrange_lab.norms import (Associate, ConcaveWeight, Generated, L1, L2,
                                 LINF, LorentzLambda, Lp, associate_norm,
                                 dual_exponent, exactly_evaluable,
                                 hardy_littlewood_check, holder_check,
                                 lorentz_associate_exact_lp, norm,
                                 norm_from_json, norm_to_json)
from rearrange_lab.rearrange import decreasing_rearrangement
from rearrange_lab.scalars import INF
from rearrange_lab.spaces import (DiscreteSpace, SimpleFunction, equal_space,
                                  simple)

PHI = ConcaveWeight(((0, 0), (F(1, 4), F(1, 2)), (1, 1)))
LAMBDA = LorentzLambda(PHI)
KINDS = (L1, L2, Lp(3), LINF, LAMBDA, Generated(LAMBDA, 2), Associate(LAMBDA))


def test_norm_fixtures():
    sp = equal_space(2)
    f = simple((3, 4), sp)
    assert norm(L2, f, precision=53) == pytest.approx(math.sqrt(12.5), abs=1e-14)
    assert norm(LINF, f) == decreasing_rearrangement(f).sup == 4
    g = simple((1, -2, 3), equal_space(3))
    assert norm(Generated(L1, 2), g, precision=53) == pytest.approx(
        float(norm(L2, g, precision=53)), abs=1e-14)


def test_dual_exponents():
    assert dual_exponent(1) == INF
    assert dual_exponent(INF) == 1
    assert dual_exponent(F(4, 3)) == 4
    assert dual_exponent(2) == 2


def test_associate_fixtures():
    sp = equal_space(2)
    h = simple((3, 4), sp)
    assert associate_norm(L2, h, precision=53) == pytest.approx(
        math.sqrt(12.5), abs=1e-14)
    assert associate_norm(L1, h) == 4
    assert associate_norm(LINF, h) == F(7, 2)


def test_exact_mode_refuses_roots():
    f = simple((3, 4), equal_space(2))
    with pytest.raises(ExactUnavailable):
        norm(L2, f)
    with pytest.raises(ExactUnavailable):
        norm(Generated(L1, 2), f)
    assert norm(L1, f) == F(7, 2)  # root-free kinds stay exact
    assert norm(LAMBDA, f) == 4 * PHI(F(1, 2)) + 3 * (1 - PHI(F(1, 2)))


def test_equal_atom_requirement():
    sp = DiscreteSpace((F(1, 4), F(3, 4)))
    f = simple((1, 2), sp)
    norm(L2, f, precision=53)  # Lp accepts weighted spaces
    # Associate(L2) is L2, so it accepts them too
    assert norm(Associate(L2), f, precision=53) == norm(L2, f, precision=53)
    for X in (LAMBDA, Generated(LAMBDA, 2), Associate(LAMBDA)):
        with pytest.raises(NonEqualAtomSpace):
            norm(X, f, precision=53)


def test_generated_norm_of_lp_associate_accepts_weighted_spaces():
    sp = DiscreteSpace((F(1, 4), F(3, 4)))
    f = simple((1, 2), sp)
    assert norm(Generated(Associate(L2), 3), f, precision=53) == \
        norm(Generated(L2, 3), f, precision=53)


def test_concave_weight_validation():
    with pytest.raises(InputError):
        ConcaveWeight(((0, 0), (1, F(1, 2))))  # must end at (1, 1)
    with pytest.raises(InputError):
        ConcaveWeight(((0, 0), (F(1, 2), F(1, 4)), (1, 1)))  # convex corner
    with pytest.raises(InputError):
        ConcaveWeight(((0, F(1, 10)), (1, 1)))  # phi(0) != 0


@given(functions(equal_only=True, min_atoms=2))
@settings(max_examples=60)
def test_norm_axioms_on_samples(f):
    n = f.space.n
    shuffled = SimpleFunction(tuple(reversed(f.values)), f.space)
    doubled = SimpleFunction(tuple(2 * v for v in f.values), f.space)
    bigger = SimpleFunction(
        tuple(abs(v) + F(1, 2) for v in f.values), f.space)
    for X in KINDS:
        a = float(norm(X, f, precision=53))
        # absolute homogeneity
        assert float(norm(X, doubled, precision=53)) == pytest.approx(2 * a, rel=1e-12)
        # rearrangement invariance under atom permutations
        assert float(norm(X, shuffled, precision=53)) == pytest.approx(a, rel=1e-12)
        # ideal property
        assert a <= float(norm(X, bigger, precision=53)) + 1e-12
        # factoring through the decreasing rearrangement
        prof = decreasing_rearrangement(f)
        assert float(norm(X, prof, precision=53)) == pytest.approx(a, rel=1e-12)


@given(function_pairs(equal_only=True, min_atoms=2))
@settings(max_examples=60)
def test_triangle_inequality_on_samples(pair):
    f, g = pair
    total = SimpleFunction(
        tuple(a + b for a, b in zip(f.values, g.values)), f.space)
    for X in KINDS:
        lhs = float(norm(X, total, precision=53))
        rhs = float(norm(X, f, precision=53)) + float(norm(X, g, precision=53))
        assert lhs <= rhs + 1e-10


@given(functions(equal_only=True, min_atoms=2))
@settings(max_examples=60)
def test_unit_normalization_and_embedding(f):
    one = SimpleFunction((F(1),) * f.space.n, f.space)
    l1 = float(norm(L1, f))
    sup = float(norm(LINF, f))
    for X in KINDS:
        assert float(norm(X, one, precision=53)) == pytest.approx(1.0, abs=1e-12)
        val = float(norm(X, f, precision=53))
        assert l1 - 1e-10 <= val <= sup + 1e-10


def test_lp_rearrangement_invariance_on_weighted_spaces():
    # equimeasurable redistributions across different weighted spaces
    sp_a = DiscreteSpace((F(1, 4), F(1, 4), F(1, 2)))
    sp_b = DiscreteSpace((F(1, 2), F(1, 4), F(1, 4)))
    f = simple((3, 3, -1), sp_a)  # |f| = 3 on measure 1/2, 1 on measure 1/2
    g = simple((3, -1, -1), sp_b)  # same distribution of |values|
    for p in (1, 2, 3):
        assert norm(Lp(p), f, precision=53) == norm(Lp(p), g, precision=53)


def test_hardy_littlewood_fixtures():
    sp = equal_space(2)
    f, g = simple((1, -2), sp), simple((3, 1), sp)
    assert hardy_littlewood_check(f, g) == (F(5, 2), F(7, 2))
    sorted_pair = hardy_littlewood_check(simple((2, 1), sp), simple((3, 1), sp))
    assert sorted_pair[0] == sorted_pair[1]  # similarly ordered: equality
    zero = simple((0, 0), sp)
    assert hardy_littlewood_check(f, zero) == (0, 0)


@given(function_pairs())
@settings(max_examples=100)
def test_hardy_littlewood_random(pair):
    lhs, rhs = hardy_littlewood_check(*pair)
    assert lhs <= rhs


def test_holder_fixtures():
    sp = equal_space(2)
    f, g = simple((1, -2), sp), simple((3, 1), sp)
    a, b, c = holder_check(L2, f, g, precision=53)
    assert (a, b) == (F(5, 2), F(7, 2))
    assert float(c) == pytest.approx(math.sqrt(12.5), abs=1e-14)
    one = simple((1, 1), sp)
    a, b, c = holder_check(L2, one, g, precision=53)
    assert a == b == norm(L1, g)
    assert holder_check(L2, f, simple((0, 0), sp), precision=53) == (0, 0, 0.0)


@given(function_pairs(equal_only=True, min_atoms=2))
@settings(max_examples=40)
def test_holder_chain_random(pair):
    f, g = pair
    for X in (L1, L2, LINF, LAMBDA):
        a, b, c = (float(x) for x in holder_check(X, f, g, precision=53))
        scale = max(1.0, abs(c))
        assert a <= b + 1e-9 * scale
        assert b <= c + 1e-9 * scale


#: phi with breakpoints off the dyadic grid of equal-atom spaces
PHI_ODD = ConcaveWeight(((0, 0), (F(1, 3), F(1, 2)), (F(5, 7), F(6, 7)), (1, 1)))


def _second_associate(X, depth=2):
    for _ in range(depth):
        X = Associate(X)
    return X


def test_second_associate_fixtures():
    """X'' = X (Lorentz-Luxemburg), exactly, where X is evaluable exactly."""
    f = simple((1, 2, 3), equal_space(3))
    assert norm(_second_associate(L1), f) == norm(L1, f) == 2
    assert norm(_second_associate(Lp(3), 4), f, precision=53) == \
        norm(Lp(3), f, precision=53)
    assert norm(_second_associate(LAMBDA), f) == norm(LAMBDA, f)
    assert norm(_second_associate(LAMBDA, 4), f) == norm(LAMBDA, f)
    assert norm(Generated(_second_associate(LAMBDA), 2), f, precision=53) == \
        norm(Generated(LAMBDA, 2), f, precision=53)
    zero = simple((0, 0, 0), equal_space(3))
    assert norm(_second_associate(L2), zero, precision=53) == 0
    assert exactly_evaluable(_second_associate(LAMBDA))
    assert not exactly_evaluable(_second_associate(L2))


@given(functions(equal_only=True, min_atoms=2))
@settings(max_examples=25, deadline=None)
def test_second_associate_is_the_norm(f):
    for X, precision in ((L1, None), (L2, 53), (Lp(3), 53), (LAMBDA, None)):
        for depth in (2, 4):
            assert norm(_second_associate(X, depth), f, precision=precision) \
                == norm(X, f, precision=precision)


@given(functions(equal_only=True, min_atoms=2, max_atoms=9))
@settings(max_examples=25, deadline=None)
def test_lorentz_closed_form_vs_second_associate_lp(f):
    prof = decreasing_rearrangement(f)
    for phi in (PHI, PHI_ODD):
        closed = norm(_second_associate(LorentzLambda(phi)), f)
        oracle = second_associate_lp_oracle(phi, prof, 53)
        assert oracle == pytest.approx(float(closed), rel=1e-12, abs=1e-12)


@given(functions(equal_only=True, min_atoms=2, max_atoms=5))
@settings(max_examples=10, deadline=None)
def test_associate_closed_forms_vs_oracle(f):
    for X in (L1, L2, LAMBDA):
        closed = float(associate_norm(X, f, precision=53))
        oracle = associate_norm_oracle(X, f, starts=8, seed=3)
        assert oracle == pytest.approx(closed, rel=1e-9, abs=1e-9)


@given(functions(equal_only=True, min_atoms=2))
@settings(max_examples=60)
def test_lorentz_associate_closed_form_equals_exact_lp(f):
    assert norm(Associate(LAMBDA), f) == lorentz_associate_exact_lp(PHI, f)


def test_norm_descriptor_json_roundtrip():
    for X in (L2, Lp(F(4, 3)), Lp(F(3, 2)), LINF, LAMBDA, Generated(L2, 3),
              Associate(LAMBDA), Associate(L1)):
        doc = norm_to_json(X)
        assert norm_from_json(doc) == X
    assert norm_to_json(LINF) == {"kind": "lp", "p": "inf"}
    assert norm_to_json(Lp(F(3, 2))) == {"kind": "lp", "p": "3/2"}
    assert norm_to_json(LAMBDA)["phi"][1] == ["0.25", "0.5"]
    with pytest.raises(InputError):
        norm_from_json({"kind": "orlicz"})
