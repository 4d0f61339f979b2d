import math
from fractions import Fraction as F

import hypothesis.strategies as st
import mpmath
import pytest
from hypothesis import given, settings

from conftest import (function_pairs, functions, lattice_values,
                      off_lattice_functions, off_lattice_spaces,
                      random_rational_spaces, same_bits, spaces)
from oracles import (associate_norm_oracle, exact_scalar,
                     lorentz_associate_exact_lp, lorentz_choquet_sum,
                     lorentz_dual_subset_max,
                     reference_lorentz_associate_norm, reference_lorentz_norm,
                     reference_phi, second_associate_lp_oracle)
from rearrange_lab.errors import ExactUnavailable, InputError
from rearrange_lab.norms import (Associate, ConcaveWeight, Generated, L1, L2,
                                 LINF, LorentzLambda, Lp, dual_exponent,
                                 hardy_littlewood_check, norm, norm_from_json,
                                 norm_to_json)
from rearrange_lab.rearrange import (StepProfile, decreasing_rearrangement,
                                     make_profile)
from rearrange_lab.scalars import INF, binary_context, to_binary
from rearrange_lab.spaces import (DiscreteSpace, SimpleFunction, equal_space,
                                  to_binary_function, to_binary_space)

PHI = ConcaveWeight(((0, 0), (F(1, 4), F(1, 2)), (1, 1)))
LAMBDA = LorentzLambda(PHI)
KINDS = (L1, L2, Lp(3), LINF, LAMBDA, Generated(LAMBDA, 2), Associate(LAMBDA))


def test_norm_fixtures():
    sp = equal_space(2)
    f = SimpleFunction((3, 4), sp)
    assert norm(L2, f, precision=53) == pytest.approx(math.sqrt(12.5), abs=1e-14)
    assert norm(LINF, f) == decreasing_rearrangement(f).sup == 4
    g = SimpleFunction((1, -2, 3), equal_space(3))
    assert norm(Generated(L1, 2), g, precision=53) == pytest.approx(
        float(norm(L2, g, precision=53)), abs=1e-14)


def test_dual_exponents():
    assert dual_exponent(1) == INF
    assert dual_exponent(INF) == 1
    assert dual_exponent(F(4, 3)) == 4
    assert dual_exponent(2) == 2


def test_associate_fixtures():
    sp = equal_space(2)
    h = SimpleFunction((3, 4), sp)
    assert norm(Associate(L2), h, precision=53) == pytest.approx(
        math.sqrt(12.5), abs=1e-14)
    assert norm(Associate(L1), h) == 4
    assert norm(Associate(LINF), h) == F(7, 2)


def test_exact_mode_refuses_roots():
    f = SimpleFunction((3, 4), equal_space(2))
    with pytest.raises(ExactUnavailable):
        norm(L2, f)
    with pytest.raises(ExactUnavailable):
        norm(Generated(L1, 2), f)
    assert norm(L1, f) == F(7, 2)  # root-free kinds stay exact
    assert norm(LAMBDA, f) == 4 * PHI(F(1, 2)) + 3 * (1 - PHI(F(1, 2)))


def test_generated_norm_of_lp_associate_accepts_weighted_spaces():
    sp = DiscreteSpace((F(1, 4), F(3, 4)))
    f = SimpleFunction((1, 2), sp)
    assert norm(Generated(Associate(L2), 3), f, precision=53) == \
        norm(Generated(L2, 3), f, precision=53)


def test_concave_weight_validation():
    with pytest.raises(InputError):
        ConcaveWeight(((0, 0), (1, F(1, 2))))  # must end at (1, 1)
    with pytest.raises(InputError):
        ConcaveWeight(((0, 0), (F(1, 2), F(1, 4)), (1, 1)))  # convex corner
    with pytest.raises(InputError):
        ConcaveWeight(((0, F(1, 10)), (1, 1)))  # phi(0) != 0


@given(functions(min_atoms=2))
@settings(max_examples=60)
def test_norm_axioms_on_samples(f):
    shuffled = SimpleFunction(tuple(reversed(f.values)),
                              DiscreteSpace(tuple(reversed(f.space.weights))))
    doubled = SimpleFunction(tuple(2 * v for v in f.values), f.space)
    bigger = SimpleFunction(
        tuple(abs(v) + F(1, 2) for v in f.values), f.space)
    for X in KINDS:
        a = float(norm(X, f, precision=53))
        # absolute homogeneity
        assert float(norm(X, doubled, precision=53)) == pytest.approx(2 * a, rel=1e-12)
        # rearrangement invariance under atom permutations with their weights
        assert float(norm(X, shuffled, precision=53)) == pytest.approx(a, rel=1e-12)
        # ideal property
        assert a <= float(norm(X, bigger, precision=53)) + 1e-12
        # factoring through the decreasing rearrangement
        prof = decreasing_rearrangement(f)
        assert float(norm(X, prof, precision=53)) == pytest.approx(a, rel=1e-12)


@given(function_pairs(min_atoms=2))
@settings(max_examples=60)
def test_triangle_inequality_on_samples(pair):
    f, g = pair
    total = SimpleFunction(
        tuple(a + b for a, b in zip(f.values, g.values)), f.space)
    for X in KINDS:
        lhs = float(norm(X, total, precision=53))
        rhs = float(norm(X, f, precision=53)) + float(norm(X, g, precision=53))
        assert lhs <= rhs + 1e-10


@given(functions(min_atoms=2))
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
    # |f| = 3 on measure 1/2, 1 on measure 1/2
    f = SimpleFunction((3, 3, -1), sp_a)
    g = SimpleFunction((3, -1, -1), sp_b)  # same distribution of |values|
    for p in (1, 2, 3):
        assert norm(Lp(p), f, precision=53) == norm(Lp(p), g, precision=53)


def test_hardy_littlewood_fixtures():
    sp = equal_space(2)
    f, g = SimpleFunction((1, -2), sp), SimpleFunction((3, 1), sp)
    assert hardy_littlewood_check(f, g) == (F(5, 2), F(7, 2))
    sorted_pair = hardy_littlewood_check(SimpleFunction((2, 1), sp),
                                         SimpleFunction((3, 1), sp))
    assert sorted_pair[0] == sorted_pair[1]  # similarly ordered: equality
    zero = SimpleFunction((0, 0), sp)
    assert hardy_littlewood_check(f, zero) == (0, 0)


@given(function_pairs())
@settings(max_examples=100)
def test_hardy_littlewood_random(pair):
    lhs, rhs = hardy_littlewood_check(*pair)
    assert lhs <= rhs


def _holder_chain(X, f, g):
    """The integral of |fg|, the sorted pairing, and ||f||_X ||g||_X';
    each term bounds the one before it."""
    a, b = hardy_littlewood_check(f, g)
    return a, b, norm(X, f, precision=53) * norm(Associate(X), g,
                                                 precision=53)


def test_holder_fixtures():
    sp = equal_space(2)
    f, g = SimpleFunction((1, -2), sp), SimpleFunction((3, 1), sp)
    a, b, c = _holder_chain(L2, f, g)
    assert (a, b) == (F(5, 2), F(7, 2))
    assert float(c) == pytest.approx(math.sqrt(12.5), abs=1e-14)
    one = SimpleFunction((1, 1), sp)
    a, b, c = _holder_chain(L2, one, g)
    assert a == b == norm(L1, g)
    assert _holder_chain(L2, f, SimpleFunction((0, 0), sp)) == (0, 0, 0.0)


@given(function_pairs(min_atoms=2))
@settings(max_examples=40)
def test_holder_chain_random(pair):
    f, g = pair
    for X in (L1, L2, LINF, LAMBDA):
        a, b, c = (float(x) for x in _holder_chain(X, f, g))
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
    f = SimpleFunction((1, 2, 3), equal_space(3))
    assert norm(_second_associate(L1), f) == norm(L1, f) == 2
    assert norm(_second_associate(Lp(3), 4), f, precision=53) == \
        norm(Lp(3), f, precision=53)
    assert norm(_second_associate(LAMBDA), f) == norm(LAMBDA, f)
    assert norm(_second_associate(LAMBDA, 4), f) == norm(LAMBDA, f)
    assert norm(Generated(_second_associate(LAMBDA), 2), f, precision=53) == \
        norm(Generated(LAMBDA, 2), f, precision=53)
    zero = SimpleFunction((0, 0, 0), equal_space(3))
    assert norm(_second_associate(L2), zero, precision=53) == 0


@given(functions(min_atoms=2))
@settings(max_examples=25, deadline=None)
def test_second_associate_is_the_norm(f):
    for X, precision in ((L1, None), (L2, 53), (Lp(3), 53), (LAMBDA, None)):
        for depth in (2, 4):
            assert norm(_second_associate(X, depth), f, precision=precision) \
                == norm(X, f, precision=precision)


@given(functions(min_atoms=2, max_atoms=9))
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
        closed = float(norm(Associate(X), f, precision=53))
        oracle = associate_norm_oracle(X, f, starts=8, seed=3)
        assert oracle == pytest.approx(closed, rel=1e-9, abs=1e-9)


@given(functions(equal_only=True, min_atoms=2))
@settings(max_examples=60)
def test_lorentz_associate_closed_form_equals_exact_lp(f):
    assert norm(Associate(LAMBDA), f) == lorentz_associate_exact_lp(PHI, f)


# ---------------------------------------------------------------------------
# the Lorentz kinds on weighted spaces against their definitions

@st.composite
def _weighted_functions(draw, precision):
    """A lattice or off-lattice function on a random-rational space of 2
    to 6 atoms, rounded to `precision` bits (None: exact)."""
    space = draw(random_rational_spaces(2, 6))
    if draw(st.booleans()):
        f = draw(off_lattice_functions(space))
    else:
        f = SimpleFunction(draw(lattice_values(space.n)), space)
    if precision is None:
        return f
    return to_binary_function(f, to_binary_space(space, precision), precision)


def _assert_close(got, expected, precision):
    """got is the exact expected, or for a precision within
    2^-(precision - 8) of it relative."""
    if precision is None:
        assert got == expected
    else:
        error = abs(exact_scalar(got) - expected)
        assert error <= F(1, 2 ** (precision - 8)) * expected, \
            (got, expected)


def _check_lorentz_kinds(f, precision):
    """The Lorentz norm is the Choquet sum, its associate the subset max,
    and Generated(Lorentz, 2) the root of the Choquet sum of |f|^2."""
    squares = [exact_scalar(v) ** 2 for v in f.values]
    square = SimpleFunction(tuple(squares), DiscreteSpace(
        tuple(exact_scalar(w) for w in f.space.weights)))
    for phi in (PHI, PHI_ODD):
        X = LorentzLambda(phi)
        _assert_close(norm(X, f, precision=precision),
                      lorentz_choquet_sum(phi, f), precision)
        _assert_close(norm(Associate(X), f, precision=precision),
                      lorentz_dual_subset_max(phi, f), precision)
        if precision is not None:
            root = exact_scalar(norm(Generated(X, 2), f, precision=precision))
            _assert_close(root ** 2, lorentz_choquet_sum(phi, square),
                          precision)


@pytest.mark.parametrize("precision", [None, 53, 113])
@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_lorentz_kinds_are_their_definitions_on_weighted_spaces(precision,
                                                                data):
    _check_lorentz_kinds(data.draw(_weighted_functions(precision)), precision)


@pytest.mark.parametrize("precision,numerators,side", [
    (53, (15, 49, 10, 29), -1), (53, (47, 27, 7, 11), 1),
    (113, (9, 33, 16), -1), (113, (32, 63, 48, 42), 1),
])
def test_lorentz_kinds_with_rounded_weights_off_one(precision, numerators,
                                                    side):
    """Random-rational weights whose rounded total lies below (side -1) or
    above (side 1) 1, as the profile's last boundary in `precision`."""
    space = DiscreteSpace(tuple(F(k, sum(numerators)) for k in numerators))
    values = (F(3, 4), F(-2), F(5, 4), F(1, 2))[:space.n]
    binary = to_binary_space(space, precision)
    f = to_binary_function(SimpleFunction(values, space), binary, precision)
    with binary_context(precision):
        last = decreasing_rearrangement(f).boundaries[-1]
    assert (last > 1) - (last < 1) == side
    _check_lorentz_kinds(f, precision)


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


# ---------------------------------------------------------------------------
# Lp and generated norms against the former order of operations: a sum
# started at Fraction(0), one power per element with p re-read as a
# Fraction each time

DIFFERENTIAL_KINDS = (L1, L2, Lp(3), Lp(F(3, 2)), LINF, Generated(L1, 2))
DIFFERENTIAL_IDS = ("L1", "L2", "L3", "L3/2", "Linf", "generated-L1-2")


def _reference_binary(x, precision):
    if isinstance(x, mpmath.mpf):
        return x
    return float(x) if precision == 53 else to_binary(F(x), precision)


def _reference_power(x, p, precision):
    p = F(p)
    if p.denominator == 1:
        return x ** p.numerator
    if precision is None and isinstance(x, (int, F)):
        raise ExactUnavailable("fractional power")
    xb = _reference_binary(x, precision or 53)
    if isinstance(xb, mpmath.mpf):
        return xb ** (mpmath.mpf(p.numerator) / p.denominator)
    return xb ** (p.numerator / p.denominator)


def _reference_root(x, p, precision):
    if p == 1:
        return x
    if precision is None and isinstance(x, (int, F)):
        raise ExactUnavailable("root")
    xb = _reference_binary(x, precision or 53)
    if isinstance(xb, mpmath.mpf):
        return xb ** (mpmath.mpf(F(p).denominator) / F(p).numerator)
    return xb ** (1.0 / float(p))


def _reference_lp(p, pairs, precision):
    if p == INF:
        return max((v for v, _ in pairs), default=F(0))
    total = F(0)
    for v, w in pairs:
        total = total + _reference_power(v, p, precision) * w
    return _reference_root(total, p, precision)


def _reference_norm(X, f, precision):
    """norm(X, f) for X an Lp or Generated(Lp) norm, the former way."""
    with binary_context(precision or 53):
        if isinstance(X, Generated):
            powered = make_profile(
                (_reference_power(v, X.p, precision), l)
                for v, l in decreasing_rearrangement(f).segments)
            base = _reference_lp(X.base.p, powered.segments, precision)
            return _reference_root(base, X.p, precision)
        return _reference_lp(
            X.p, [(abs(v), w) for v, w in zip(f.values, f.space.weights)],
            precision)


@st.composite
def _off_lattice_instances(draw):
    return draw(off_lattice_functions(draw(off_lattice_spaces())))


@pytest.mark.parametrize("X", DIFFERENTIAL_KINDS, ids=DIFFERENTIAL_IDS)
@pytest.mark.parametrize("precision", [53, 113])
@given(f=_off_lattice_instances())
@settings(max_examples=40, deadline=None)
def test_binary_norms_are_the_former_loop_bit_for_bit(X, precision, f):
    space = to_binary_space(f.space, precision)
    fb = to_binary_function(f, space, precision)
    got = norm(X, fb, precision=precision)
    expected = _reference_norm(X, fb, precision)
    assert same_bits(got, expected), (got, expected)


@pytest.mark.parametrize("X", DIFFERENTIAL_KINDS, ids=DIFFERENTIAL_IDS)
@given(f=_off_lattice_instances())
@settings(max_examples=40, deadline=None)
def test_exact_norms_equal_the_former_loop(X, f):
    try:
        expected = _reference_norm(X, f, None)
    except ExactUnavailable:
        with pytest.raises(ExactUnavailable):
            norm(X, f)
    else:
        assert norm(X, f) == expected


@pytest.mark.parametrize("X", [Lp(F(3, 2)), Generated(L1, F(3, 2))],
                         ids=["lp", "generated"])
def test_exact_fractional_power_is_unavailable(X):
    f = SimpleFunction((F(1, 3), 0, F(-2, 7)), equal_space(3))
    with pytest.raises(ExactUnavailable):
        norm(X, f)
    binary = to_binary_function(f, to_binary_space(f.space, 53), 53)
    assert norm(X, binary, precision=53) > 0


# ---------------------------------------------------------------------------
# the Lorentz kinds against their former evaluation: phi rebuilt on every
# call and compared with float arguments as Fractions

def _double_below(q):
    x = float(q)
    return math.nextafter(x, -math.inf) if x > q else x


def _double_above(q):
    x = float(q)
    return math.nextafter(x, math.inf) if x < q else x


@st.composite
def concave_weights(draw):
    """A concave phi with up to three interior breakpoints, dyadic or
    not, some of them on flat or collinear pieces."""
    knots = set()
    for _ in range(draw(st.integers(0, 3))):
        den = draw(st.sampled_from((4, 16, 1024, 3, 7, 10, 12)))
        knots.add(F(draw(st.integers(1, den - 1)), den))
    knots = [F(0), *sorted(knots), F(1)]
    slopes = sorted([draw(st.integers(1, 9))] + draw(st.lists(
        st.integers(0, 9), min_size=len(knots) - 2, max_size=len(knots) - 2)),
        reverse=True)
    rises = [s * (b - a) for s, a, b in zip(slopes, knots, knots[1:])]
    values = [F(0)]
    for rise in rises:
        values.append(values[-1] + rise / sum(rises))
    return ConcaveWeight(tuple(zip(knots, values)))


WEIGHTS = st.one_of(st.sampled_from((PHI, PHI_ODD)), concave_weights())


def _in_precision(q, nudge, precision):
    """The exact q in the arithmetic of `precision`; in doubles, nudge
    -1/0/+1 picks the double below/nearest/above q."""
    if precision == 53:
        return (_double_below, float, _double_above)[nudge + 1](q)
    return to_binary(q, precision)


@st.composite
def _points_near(draw, phi, precision):
    """A point at, next to or away from one of phi's breakpoints, or
    beyond 1, in the arithmetic of `precision`."""
    pool = [t for t, _ in phi.breakpoints[1:]] + [
        F(1, 3), F(5, 8), F(5, 4), F(2), F(draw(st.integers(1, 99)), 64)]
    return _in_precision(draw(st.sampled_from(pool)),
                         draw(st.integers(-1, 1)), precision)


@st.composite
def _raw_profiles(draw, phi, precision):
    """A StepProfile whose boundaries are drawn near phi's breakpoints,
    so its total length falls below, on or above 1."""
    with binary_context(precision or 53):
        cuts = sorted(set(draw(st.lists(_points_near(phi, precision),
                                        min_size=1, max_size=5))))
        lengths = [b - a for a, b in zip([0] + cuts, cuts)]
    heights = sorted(set(draw(st.lists(st.integers(1, 60), min_size=len(cuts),
                                       max_size=len(cuts)))), reverse=True)
    values = [_in_precision(F(k, draw(st.sampled_from((4, 7)))), 0, precision)
              for k in heights]
    values = sorted(set(values), reverse=True)
    return StepProfile(tuple(zip(values, lengths)))


@st.composite
def _lorentz_inputs(draw, precision):
    phi = draw(WEIGHTS)
    if draw(st.booleans()):
        return phi, draw(_raw_profiles(phi, precision))
    space = draw(spaces(max_atoms=9))
    if draw(st.booleans()):
        f = draw(off_lattice_functions(space))
    else:
        f = SimpleFunction(draw(lattice_values(space.n)), space)
    if precision is None:
        return phi, f
    binary = to_binary_space(space, precision)
    return phi, to_binary_function(f, binary, precision)


def _former_lorentz_kind(X, f, precision):
    """norm(X, f) for X a Lorentz, Associate(Lorentz) or Generated(Lorentz,
    p) norm, evaluated as before the per-arithmetic tables."""
    with binary_context(precision or 53):
        prof = f if isinstance(f, StepProfile) else decreasing_rearrangement(f)
        if isinstance(X, Generated):
            powered = make_profile((_reference_power(v, X.p, precision), l)
                                   for v, l in prof.segments)
            base = reference_lorentz_norm(X.base.phi, powered)
            return _reference_root(base, X.p, precision)
        if isinstance(X, Associate):
            return reference_lorentz_associate_norm(X.base.phi, prof)
        return reference_lorentz_norm(X.phi, prof)


@pytest.mark.parametrize("precision", [None, 53, 113])
@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_lorentz_kinds_are_the_former_evaluation_bit_for_bit(precision, data):
    phi, f = data.draw(_lorentz_inputs(precision))
    lorentz = LorentzLambda(phi)
    for X in (lorentz, Associate(lorentz), Generated(lorentz, 2)):
        try:
            expected = _former_lorentz_kind(X, f, precision)
        except ExactUnavailable:
            with pytest.raises(ExactUnavailable):
                norm(X, f, precision=precision)
            continue
        got = norm(X, f, precision=precision)
        assert same_bits(got, expected), (X, f, got, expected)


def test_lorentz_associate_keeps_phi_breakpoints_in_doubles():
    """The profile's one boundary is the double nearest phi's breakpoint
    1/7, just below it.  The exact sup of H/phi over the double profile
    is H(b)/phi(b) at that boundary, and it rounds to ...285.  phi's
    linear formula at the double boundary rounds to a ratio of ...282;
    the breakpoint's own phi(1/7), met at the same H, gives ...285.  So
    the breakpoint pass is what keeps the correctly rounded value."""
    phi = ConcaveWeight(((0, 0), (F(1, 7), F(1024, 4453)),
                         (F(481, 1024), F(3367, 4453)),
                         (F(4, 7), F(25027, 31171)), (1, 1)))
    b = float(F(1, 7))
    prof = StepProfile(((0.25, b),))
    got = norm(Associate(LorentzLambda(phi)), prof, precision=53)
    assert same_bits(got, 0.15530831473214285)
    assert got == float(F(1, 4) * F(b) / phi(F(b)))
    assert same_bits(0.25 * b / phi(b), 0.15530831473214282)


@pytest.mark.parametrize("precision", [None, 53, 113])
@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_phi_is_the_former_evaluation_bit_for_bit(precision, data):
    phi = data.draw(WEIGHTS)
    t = data.draw(st.one_of(_points_near(phi, precision),
                            st.sampled_from((0, F(0), F(1), -1))))
    with binary_context(precision or 53):
        assert same_bits(phi(t), reference_phi(phi, t)), (phi, t)


def test_phi_tables_do_not_change_equality():
    phi = ConcaveWeight(PHI_ODD.breakpoints)
    phi(0.5), phi(F(1, 2))
    with binary_context(113):
        phi(mpmath.mpf(1) / 2)
    assert phi == PHI_ODD and hash(phi) == hash(PHI_ODD)
    assert LorentzLambda(phi) == LorentzLambda(PHI_ODD)


def _with_fraction_ends(phi):
    """A copy of phi whose double table reads phi(0) and phi(1) as the
    Fractions 0 and 1, as it did before they were the doubles 0.0 and
    1.0."""
    former = ConcaveWeight(phi.breakpoints)
    table = former._table_for(0.5)
    assert (table.zero, table.one) == (0.0, 1.0)
    former.__dict__["_tables"]["float"] = table._replace(zero=F(0), one=F(1))
    return former


@st.composite
def _profiles_reaching_one(draw):
    """A double profile whose boundaries run from 0 to 1 exactly, on
    sixteenths, and at times one segment beyond."""
    cuts = sorted(draw(st.sets(st.integers(1, 15), max_size=5)))
    lengths = [(b - a) / 16 for a, b in zip([0, *cuts], [*cuts, 16])]
    if draw(st.booleans()):
        lengths.append(draw(st.sampled_from((0.25, 1.0, 3.0))))
    values = sorted(draw(st.lists(st.floats(0.125, 8.0), min_size=len(lengths),
                                  max_size=len(lengths), unique=True)),
                    reverse=True)
    return StepProfile(tuple(zip(values, lengths)))


@given(phi=WEIGHTS, prof=_profiles_reaching_one())
@settings(max_examples=200, deadline=None)
def test_phi_ends_as_doubles_change_no_bit(phi, prof):
    """phi(0) and phi(1) in doubles are 0.0 and 1.0; a Lorentz norm or
    its associate of a profile that reads both ends gives the bits it
    gave when they were the Fractions 0 and 1."""
    former = _with_fraction_ends(phi)
    weights = (0.25, 0.25, 0.5)  # a function whose profile ends at 1.0
    f = SimpleFunction(tuple(v for v, _ in prof.segments[:3]) + (0.0,) * (
        3 - min(3, len(prof.segments))), DiscreteSpace(weights))
    for X in (LorentzLambda, lambda w: Associate(LorentzLambda(w))):
        for h in (prof, f):
            assert same_bits(norm(X(phi), h, precision=53),
                             norm(X(former), h, precision=53)), (X, h)
    assert same_bits(phi(0.0), 0.0) and same_bits(phi(1.0), 1.0)
    assert same_bits(former(0.0), F(0)) and same_bits(former(1.0), F(1))
