"""Suite power: can a verify suite see a wrong kernel?

Each bug below is planted in one of verify's names with monkeypatch and
run through `run_suite` at seed 0, 384 thm32 trials, 200 thm41/thm43
trials or 25 rearrange trials, at 4, 8 and 64 atoms.  A cell passes when
the suite certifies at least one violation; each rearrange bug is caught
by its own property, which every violation names.  The cells that the
random lattice instances miss today are strict expected failures:
ROADMAP item 11 (suite power) asks for near-extremal instances that
catch them, and a cell that starts to catch its bug fails here until its
mark is removed."""

from fractions import Fraction

import pytest

import rearrange_lab.verify as verify_mod
from rearrange_lab.norms import Associate, ConcaveWeight, LorentzLambda, Lp
from rearrange_lab.rearrange import decreasing_rearrangement
from rearrange_lab.spaces import SimpleFunction, equal_space

LORENTZ_ASSOCIATE = Associate(LorentzLambda(ConcaveWeight(
    ((0, 0), (Fraction(1, 2), Fraction(3, 4)), (1, 1)))))
ATOMS = (4, 8, 64)


def _thm32_rhs_three_quarters(real):
    def sides(f, g, h):
        lhs, rhs = real(f, g, h)
        return lhs, rhs * Fraction(3, 4)
    return sides


def _thm32_lhs_doubled(real):
    def sides(f, g, h):
        lhs, rhs = real(f, g, h)
        return 2 * lhs, rhs
    return sides


def _rearrangement_ignores_weights(real):
    def rearrangement(f):
        return real(SimpleFunction(f.values, equal_space(f.space.n)))
    return rearrangement


def _no_centering(real):
    return lambda f: f


def _ladder_rungs_3_and_10_swapped(real):
    def ladder(f, levels=16):
        rungs = list(real(f, levels))
        rungs[3], rungs[10] = rungs[10], rungs[3]
        return rungs
    return ladder


def _indicator_at_or_above(real):
    def pair(f, t):
        indicator = tuple(1 if v >= t else (-1 if -v >= t else 0)
                          for v in f.values)
        return (decreasing_rearrangement(SimpleFunction(indicator, f.space)),
                real(f, t)[1])
    return pair


def _hardy_littlewood_rhs_doubled(real):
    def check(f, g):
        lhs, rhs = real(f, g)
        return lhs, 2 * rhs
    return check


def _product_rhs_three_quarters(real):
    def product_rule(f, g, forms, precision=None):
        return {label: (lhs, rhs * 3 / 4) for label, (lhs, rhs)
                in real(f, g, forms, precision).items()}
    return product_rule


#: bug -> (verify name patched, its replacement from the real one, the
#: TrialConfig fields, the atom counts at which seed 0 catches it today)
BUGS = {
    "thm32-rhs-3/4": ("thm32_sides", _thm32_rhs_three_quarters,
                      dict(suite="thm32", trials=384), (4,)),
    "thm32-lhs-x2": ("thm32_sides", _thm32_lhs_doubled,
                     dict(suite="thm32", trials=384), (4,)),
    "thm32-unweighted-rearrangement": (
        "decreasing_rearrangement", _rearrangement_ignores_weights,
        dict(suite="thm32", trials=384, weight_scheme="random-rational"),
        (4,)),
    # the LHS is blind to a constant shift of g; only the RHS sees it
    "thm32-g-not-centred": ("center", _no_centering,
                            dict(suite="thm32", trials=384), ()),
    "thm41-rhs-3/4": ("_product_rule", _product_rhs_three_quarters,
                      dict(suite="thm41", trials=200), (4,)),
    "thm43-L2-rhs-3/4": ("_product_rule", _product_rhs_three_quarters,
                         dict(suite="thm43", trials=200, norm=Lp(2)), (4,)),
    "thm43-lorentz-associate-rhs-3/4": (
        "_product_rule", _product_rhs_three_quarters,
        dict(suite="thm43", trials=200, norm=LORENTZ_ASSOCIATE), (4,)),
    "rearrange-unweighted-rearrangement": (
        "decreasing_rearrangement", _rearrangement_ignores_weights,
        dict(suite="rearrange", trials=25, weight_scheme="random-rational"),
        ATOMS),
    "rearrange-ladder-rungs-swapped": (
        "truncation_ladder", _ladder_rungs_3_and_10_swapped,
        dict(suite="rearrange", trials=25), ATOMS),
    "rearrange-indicator-at-or-above": (
        "indicator_difference_rearrangement", _indicator_at_or_above,
        dict(suite="rearrange", trials=25), ATOMS),
    "rearrange-hardy-littlewood-rhs-x2": (
        "hardy_littlewood_check", _hardy_littlewood_rhs_doubled,
        dict(suite="rearrange", trials=25), ATOMS),
}

#: rearrange bug -> the properties that each of its violations fails (the
#: ladder's last rung is compared with verify's rearrangement of f too)
FAILED_PROPERTIES = {
    "rearrange-unweighted-rearrangement": ["equimeasurability",
                                           "monotone_ladder"],
    "rearrange-ladder-rungs-swapped": ["monotone_ladder"],
    "rearrange-indicator-at-or-above": ["indicator_identity"],
    "rearrange-hardy-littlewood-rhs-x2": ["hardy_littlewood"],
}


def _cells():
    for bug, (_, _, _, caught) in BUGS.items():
        for atoms in ATOMS:
            marks = () if atoms in caught else pytest.mark.xfail(
                strict=True, reason="ROADMAP item 11: the random lattice "
                "instances do not reach this bug")
            yield pytest.param(bug, atoms, marks=marks, id=f"{bug}-{atoms}")


@pytest.mark.parametrize("bug,atoms", _cells())
def test_planted_bug_is_certified(bug, atoms, monkeypatch):
    name, plant, fields, _ = BUGS[bug]
    monkeypatch.setattr(verify_mod, name, plant(getattr(verify_mod, name)))
    report = verify_mod.run_suite(
        verify_mod.TrialConfig(atoms=atoms, seed=0, **fields))
    assert report.violations
    for violation in report.violations:
        assert violation.get("failed_properties") == FAILED_PROPERTIES.get(bug)
