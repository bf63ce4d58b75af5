"""Loss-optimal label-DP randomization for regression labels on finite label
sets: optimal binned randomized response, private prior estimation, the
additive-noise baselines, and independent optimality verifiers."""

from .binopt import (
    BinLayout,
    inner_min_absolute,
    inner_min_generic,
    inner_min_poisson,
    inner_min_squared,
    optimize_bins,
)
from .core import (
    EpsilonBudget,
    LabelSet,
    MechanismMatrix,
    Prior,
    expected_loss,
    make_label_set,
    make_prior,
)
from .losses import (
    ABSOLUTE,
    POISSON,
    SQUARED,
    LossSpec,
    custom_loss,
)
from .mechanisms import (
    NoiseParams,
    discrete_laplace_sample,
    discrete_staircase_sample,
    exponential_mechanism_sample,
    laplace_sample,
    rr_on_bins_matrix,
    rr_on_bins_randomize,
    staircase_sample,
)
from .pipeline import RandomizationReport, randomize
from .prior import HistogramEstimate, default_budget_split, laplace_histogram, split_budget

__version__ = "0.1.0"

# the oracles are loaded on first use, so the CLI's cold start never compiles them
_VERIFY_NAMES = ("LpSolution", "brute_force_optimal_bins", "check_eps_dp",
                 "empirical_sampler_check", "lp_optimal_mechanism")


def __getattr__(name):
    if name in _VERIFY_NAMES:
        from . import verify
        return getattr(verify, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
