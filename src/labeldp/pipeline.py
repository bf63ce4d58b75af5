"""One entry point, randomize(), for every mechanism in MECHANISMS.

Each mechanism first maps the labels into the public universe, so it keeps
its eps on any input: laplace, staircase and exponential clamp them into
[y_min, y_max] (labels already there are passed as they are), the others
snap them down to universe indices once.
rr-on-bins is the two-step pipeline for the unknown prior: estimate the
prior with eps1, optimize the bins against it, then randomize every label
with eps2, (eps1 + eps2)-DP by basic composition.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .binopt import BinLayout, optimize_bins
from .core import (EpsilonBudget, LabelSet, Prior, as_indices, check_eps, integer_valued,
                   refuse_first)
from .losses import LossSpec
from .mechanisms import (
    NoiseParams,
    discrete_laplace_sample,
    discrete_staircase_noise,
    exponential_mechanism_sample,
    laplace_sample,
    rr_on_bins_randomize,
    staircase_sample,
)
from .prior import default_budget_split, laplace_histogram, split_budget


@dataclass(frozen=True)
class RandomizationReport:
    """Run metadata safe to persist alongside the noisy labels.

    mechanism_loss_on_inputs is the empirical mean loss between raw and noisy
    labels; it is a diagnostic data statistic, not DP-protected, and mirrors
    the evaluation convention of reporting the mechanism's label error.
    Contains no raw labels and no raw counts.  The one-step mechanisms have
    budget (0, eps) and no estimated prior or layout.
    """

    budget: EpsilonBudget
    estimated_prior: Prior | None
    layout: BinLayout | None
    mechanism_loss_on_inputs: float
    n: int
    loss_kind: str


@dataclass(frozen=True)
class Outputs:
    """A batch of noisy labels in input order, as floats in values.

    rr and rr-on-bins publish one of a few known outputs per label: they also
    give each label's index into table, with values = table[index], so the
    writer formats each output once.  The other mechanisms give values alone.
    """

    table: np.ndarray | None
    index: np.ndarray | None
    values: np.ndarray


def _indexed(table, index) -> Outputs:
    table = np.asarray(table, dtype=float)
    return Outputs(table, index, table[index])


def universe_indices(labels, universe: LabelSet) -> np.ndarray:
    """Index of the universe element each label rounds down to; labels below
    the minimum map to the first element, labels above the maximum (and NaN)
    to the last.

    Each index is guessed from the label's offset as if the grid were evenly
    spaced and checked; only the labels that fail the check are
    binary-searched, so the result is exact on any grid."""
    grid = universe.values
    x = np.asarray(labels, dtype=float)
    # clamp into the range, NaN to the top as searchsorted sorts it
    flat = np.maximum(x.reshape(-1), grid[0])
    np.fmin(flat, grid[-1], out=flat)
    span = float(grid[-1]) - float(grid[0])
    scale = (grid.size - 1) / span if 0 < span < math.inf else 0.0
    if 0 < scale < math.inf:
        idx = ((flat - grid[0]) * scale).astype(np.intp)
    else:
        # a single point, or a span or scale past the float range: every
        # guess is the first index and the check below does the work
        idx = np.zeros(flat.size, dtype=np.intp)
    padded = np.append(grid, np.inf)
    bad = np.flatnonzero((padded.take(idx) > flat) | (padded[1:].take(idx) <= flat))
    idx[bad] = np.searchsorted(grid, flat[bad], side="right") - 1
    return idx.reshape(x.shape)


def _rr_on_bins(idx, universe, eps, rng, loss, eps1, clip):
    """Two-step rr-on-bins; eps1 defaults to sqrt(k/n) of the total eps."""
    budget = (default_budget_split(eps, universe.k, idx.size) if eps1 is None
              else split_budget(eps, eps1))
    estimate = laplace_histogram(idx, universe, budget.eps1, rng)
    layout = optimize_bins(estimate.prior, budget.eps2, loss)
    out = rr_on_bins_randomize(layout.assignments()[idx], layout.d, budget.eps2, rng)
    return _indexed(layout.outputs, out), budget, estimate.prior, layout


def _one_step(draw):
    """Registry sampler for a mechanism that spends all of eps on draw(x,
    universe, eps, rng), clipping its output into the range on request."""

    def sample(x, universe, eps, rng, loss, eps1, clip):
        noisy = draw(x, universe, eps, rng)
        if clip:
            np.clip(noisy, universe.y_min, universe.y_max, out=noisy)
        return Outputs(None, None, noisy), EpsilonBudget(eps1=0.0, eps2=eps), None, None

    return sample


def _noise_params(universe, eps):
    span = universe.y_max - universe.y_min
    return NoiseParams(eps=eps, sensitivity=span if span > 0 else 1.0)


def _integer_grid(universe):
    """The universe as int64, refused unless every element is a whole number."""
    return integer_valued(universe.values,
                          "the discrete mechanisms need an integer universe").astype(np.int64)


@_one_step
def _laplace(y, universe, eps, rng):
    return laplace_sample(y, _noise_params(universe, eps), rng)


@_one_step
def _staircase(y, universe, eps, rng):
    return staircase_sample(y, _noise_params(universe, eps), rng)


@_one_step
def _discrete_laplace(idx, universe, eps, rng):
    ints = _integer_grid(universe).take(idx)
    return discrete_laplace_sample(ints, _noise_params(universe, eps), rng).astype(float)


@_one_step
def _discrete_staircase(idx, universe, eps, rng):
    # the labels are gathered after the last draw, never beside the draw buffers
    grid = _integer_grid(universe)
    params = NoiseParams(eps=eps, sensitivity=float(round(universe.y_max - universe.y_min)))
    out = discrete_staircase_noise(idx.shape, params, rng)
    out += grid.take(idx)
    return out.astype(float)


@_one_step
def _exponential(y, universe, eps, rng):
    return exponential_mechanism_sample(y, universe.y_min, universe.y_max, eps, rng)


def _rr(idx, universe, eps, rng, loss, eps1, clip):
    """Plain randomized response: rr-on-bins' last step with one bin per
    universe element and all of eps; its outputs need no clip."""
    out = rr_on_bins_randomize(idx, universe.k, eps, rng)
    return _indexed(universe.values, out), EpsilonBudget(eps1=0.0, eps2=eps), None, None


# name -> (takes universe indices, sampler).  A sampler without indices gets
# the labels clamped into [y_min, y_max]; each returns (Outputs, budget,
# estimated prior, layout).
MECHANISMS = {
    "rr-on-bins": (True, _rr_on_bins),
    "laplace": (False, _laplace),
    "discrete-laplace": (True, _discrete_laplace),
    "staircase": (False, _staircase),
    "discrete-staircase": (True, _discrete_staircase),
    "exponential": (False, _exponential),
    "rr": (True, _rr),
}


def find_mechanism(name):
    """MECHANISMS[name], or a ValueError naming the mechanisms there are."""
    if name not in MECHANISMS:
        raise ValueError(f"unknown mechanism {name!r}; pick from {', '.join(MECHANISMS)}")
    return MECHANISMS[name]


# the one-step mechanisms whose outputs leave [y_min, y_max] unless clipped
_ADDITIVE = ("laplace", "discrete-laplace", "staircase", "discrete-staircase")


def _check_loss_domain(mechanism, universe: LabelSet, loss: LossSpec, clip: bool) -> None:
    """Refuse a run whose outputs can fall below the loss's domain, where the
    loss would read NaN: an unclipped additive mechanism, or a universe that
    reaches below domain_min.  rr-on-bins solves its outputs inside the
    domain, and optimize_bins refuses the labels it cannot."""
    lo = loss.domain_min
    if lo is None or mechanism == "rr-on-bins":
        return
    if not clip and mechanism in _ADDITIVE:
        raise ValueError(f"the {loss.kind} loss needs outputs above {lo:g}: "
                         f"clip the outputs of {mechanism} into the universe range")
    if universe.y_min < lo:
        raise ValueError(f"the {loss.kind} loss needs outputs above {lo:g}, "
                         f"but the universe reaches {universe.y_min:g}")


def _labels(labels) -> np.ndarray:
    raw = np.asarray(labels, dtype=float)
    if raw.size == 0:
        raise ValueError("need at least one label")
    refuse_first(np.isfinite(raw), raw, "label at index {} is not finite: {!r}")
    return raw


def randomize(mechanism, labels, universe: LabelSet, eps: float, loss: LossSpec,
              rng: np.random.Generator, *, clip: bool = True, eps1: float | None = None,
              indices=None):
    """Randomize a batch of labels with one mechanism at total budget eps,
    drawing from rng.

    eps1 is rr-on-bins' prior-estimation share (default sqrt(k/n)); clip
    clamps the one-step mechanisms' outputs into the universe range.  A
    caller running many mechanisms on one batch passes indices =
    universe_indices(labels, universe) to map it once.  A run whose outputs
    can fall outside the loss's domain, a NaN or negative eps, a label that
    is not finite, or indices that are not one index into the universe per
    label, is refused before anything is sampled.  Returns (Outputs,
    report), the noisy labels in the order of the input.
    """
    indexed, sample = find_mechanism(mechanism)
    check_eps(eps)
    _check_loss_domain(mechanism, universe, loss, clip)
    raw = _labels(labels)
    if indices is not None:
        indices = as_indices(indices, universe.k)
        if indices.shape != raw.shape:
            raise ValueError(f"indices of shape {indices.shape} for labels of shape {raw.shape}")
    if indexed:
        x = universe_indices(raw, universe) if indices is None else indices
    elif raw.min() >= universe.y_min and raw.max() <= universe.y_max:
        x = raw  # clip would return the same bits, -0.0 included; no sampler writes x
    else:
        x = np.clip(raw, universe.y_min, universe.y_max)
    out, budget, prior, layout = sample(x, universe, eps, rng, loss, eps1, clip)
    del x  # a clamped copy is freed before the loss takes its temporary
    loss_on_inputs = float(np.mean(loss.eval_fn(out.values, raw)))
    return out, RandomizationReport(budget, prior, layout, loss_on_inputs, raw.size, loss.kind)
