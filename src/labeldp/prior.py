"""Private prior estimation over a public label universe, and the privacy
budget split between estimation and randomization.

The histogram mechanism counts labels over the caller-supplied universe, adds
Laplace(2/eps) noise per cell (a histogram has sensitivity 2 under a one-label
change), clamps at zero and normalizes.  The universe must be public metadata:
inferring it from the data would leak.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .core import EpsilonBudget, LabelSet, Prior, ValueEq, as_indices, make_prior
from .mechanisms import NoiseParams, laplace_sample

log = logging.getLogger(__name__)


@dataclass(frozen=True, eq=False)
class HistogramEstimate(ValueEq):
    """A privately estimated prior; prior and the read-only noised_counts
    are DP."""

    prior: Prior
    noised_counts: np.ndarray


def laplace_histogram(indices, universe: LabelSet, eps1: float,
                      rng: np.random.Generator) -> HistogramEstimate:
    """Estimate the label distribution with eps1-DP Laplace noise.

    Takes the labels as universe indices (pipeline.universe_indices), counts
    each universe cell, perturbs with Laplace(2/eps1), clamps negatives to
    zero and normalizes.  If every noised count clamps to zero the estimate
    falls back to the uniform distribution (logged).
    """
    if not eps1 > 0:
        raise ValueError(f"eps1 must be positive, got {eps1}")
    idx = as_indices(indices, universe.k)
    if idx.size == 0:
        raise ValueError("need at least one label")
    counts = np.bincount(idx, minlength=universe.k).astype(float)
    noised = laplace_sample(counts, NoiseParams(eps=eps1, sensitivity=2.0), rng)
    noised = np.maximum(noised, 0.0)
    if noised.sum() <= 0.0:
        log.warning("all noised histogram counts clamped to zero; using uniform prior")
        prior = make_prior(universe, np.ones(universe.k))
    else:
        prior = make_prior(universe, noised)
    noised.flags.writeable = False
    return HistogramEstimate(prior=prior, noised_counts=noised)


def default_budget_split(eps: float, k: int, n: int) -> EpsilonBudget:
    """Split a total budget as eps1 = sqrt(k/n) for prior estimation and the
    remainder for randomization, as split_budget does."""
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps}")
    if k < 1 or n < 1:
        raise ValueError("need k >= 1 labels and n >= 1 samples")
    eps1 = math.sqrt(k / n)
    if eps1 >= eps:
        raise ValueError(
            f"default split needs sqrt(k/n) = {eps1:.6g} < eps = {eps:.6g}; "
            "supply an explicit split or more data"
        )
    return split_budget(eps, eps1)


def split_budget(eps: float, eps1: float) -> EpsilonBudget:
    """eps1 for prior estimation and eps2 = eps - eps1 for randomization.
    eps2 is corrected so that the float sum eps1 + eps2 is eps or, where no
    eps2 gives that sum (eps odd in its last bit, eps1 half an ulp of eps off
    its grid), falls just below it: the total never reads above eps."""
    if not eps1 > 0:
        raise ValueError(f"eps1 must be positive, got {eps1}")
    eps2 = eps - eps1
    for _ in range(4):  # a couple of one-ulp corrections at most
        if eps1 + eps2 == eps:
            break
        eps2 += eps - (eps1 + eps2)
    while eps1 + eps2 > eps:
        eps2 = math.nextafter(eps2, -math.inf)
    return EpsilonBudget(eps1=eps1, eps2=eps2)
