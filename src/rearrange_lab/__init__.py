"""Decreasing rearrangements, rearrangement-invariant norms, and exact
verification of mean-oscillation product inequalities on finite
probability spaces."""

from .errors import (EmptyInput, ExactUnavailable, InfeasibleProblem,
                     InputError, NonEqualAtomSpace, NotZeroMean,
                     PreconditionViolated, RearrangeLabError,
                     TooManyFreeParameters)
from .norms import (Associate, ConcaveWeight, Generated, L1, L2, LINF,
                    LorentzLambda, Lp, associate_norm, associate_norm_oracle,
                    hardy_littlewood_check, holder_check,
                    lorentz_luxemburg_check, norm)
from .oscillation import (BlockDecomposition, ProductKernel, ZeroMeanBlock,
                          bilinear_form, derivation, derivation_adjoint,
                          lemma31_bound, product_identity_check,
                          variance_identity_check, zero_mean_decompose)
from .rearrange import (LayerCake, StepProfile, decreasing_rearrangement,
                        indicator_difference_rearrangement, layer_decompose,
                        layer_reconstruct, nonexpansive_check,
                        profile_integrate_product,
                        rearrangement_preserves_Lp)
from .scalars import INF, format_scalar, parse_scalar
from .search import SearchProblem, SearchResult, landscape_rows, search
from .spaces import (AtomSet, DiscreteSpace, SimpleFunction, center,
                     equal_space, integrate, pos_neg_parts, support)
from .verify import (TrialConfig, VerificationReport, generate_instance,
                     run_suite)

__version__ = "0.1.0"
