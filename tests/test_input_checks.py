"""Library input checks: each malformed argument is an InputError whose
message names what is wrong, raised before any work is done."""

from fractions import Fraction as F

import pytest

from rearrange_lab.errors import InputError
from rearrange_lab.norms import Lp
from rearrange_lab.oscillation import ZeroMeanBlock
from rearrange_lab.rearrange import (LayerCake,
                                     indicator_difference_rearrangement,
                                     make_profile, profile_integrate_product)
from rearrange_lab.spaces import DiscreteSpace, SimpleFunction, equal_space
from rearrange_lab.verify import TrialConfig

SPACE = equal_space(2)


@pytest.mark.parametrize("call,message", [
    (lambda: Lp(F(1, 2)), "Lp needs p >= 1"),
    (lambda: TrialConfig(suite="thm32", atoms=0), "need at least one atom"),
    (lambda: TrialConfig(suite="thm32", weight_scheme="uniform"),
     "unknown weight scheme 'uniform'"),
    (lambda: TrialConfig(suite="thm32", mode="quad"), "unknown mode 'quad'"),
    (lambda: make_profile([(F(1), F(1))])(F(-1, 2)),
     "profiles live on [0, infinity)"),
    (lambda: make_profile([(F(-1), F(1))]),
     "profile values must be nonnegative"),
    (lambda: profile_integrate_product([]), "need at least one profile"),
    (lambda: indicator_difference_rearrangement(
        SimpleFunction((F(1), F(-1)), SPACE), F(-1)),
     "threshold t must be nonnegative"),
    (lambda: LayerCake((F(0), F(1), F(2)), (frozenset({0}),),
                       (frozenset(),), SPACE),
     "thresholds and bands are inconsistent"),
    (lambda: ZeroMeanBlock(F(0), {0}, F(1), {1}, SPACE),
     "block heights must be positive"),
    (lambda: DiscreteSpace((F(0), F(1))), "atom weights must be positive"),
], ids=["lp-below-1", "config-no-atoms", "config-weight-scheme",
        "config-mode", "profile-negative-t", "profile-negative-value",
        "integrate-no-profiles", "indicator-negative-t", "layer-cake-bands",
        "block-height", "space-zero-weight"])
def test_malformed_input_is_refused_by_name(call, message):
    with pytest.raises(InputError) as info:
        call()
    assert type(info.value) is InputError
    assert str(info.value) == message
