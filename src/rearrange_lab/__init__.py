"""Decreasing rearrangements, rearrangement-invariant norms, and exact
verification of mean-oscillation product inequalities on finite
probability spaces."""

from .errors import (EmptyInput, ExactUnavailable, InfeasibleProblem,
                     InputError, NonEqualAtomSpace, NotZeroMean,
                     PreconditionViolated, RearrangeLabError,
                     TooManyFreeParameters)
from .norms import (Associate, ConcaveWeight, Generated, L1, L2, LINF,
                    LorentzLambda, Lp, hardy_littlewood_check, norm)
from .oscillation import (BlockDecomposition, ZeroMeanBlock, bilinear_form,
                          lemma31_bound, zero_mean_decompose)
from .rearrange import (LayerCake, StepProfile, decreasing_rearrangement,
                        indicator_difference_rearrangement, layer_decompose,
                        layer_reconstruct, lp_moments, nonexpansive_moments,
                        profile_integrate_product)
from .scalars import INF, format_scalar, parse_scalar
from .search import SearchProblem, SearchResult, landscape_rows, search
from .spaces import (AtomSet, DiscreteSpace, SimpleFunction, center,
                     equal_space, integrate, pos_neg_parts, support)
from .verify import (TrialConfig, VerificationReport, generate_instance,
                     run_suite)

__version__ = "0.1.0"
