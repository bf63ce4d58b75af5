"""Foundational domain types: label sets, priors, mechanism matrices, budgets.

All types here are immutable after construction and safe to share across
threads; every operation is a pure function.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

PROB_SUM_TOL = 1e-12     # normalization tolerance at construction
ROW_SUM_TOL = 1e-9       # tolerance when validating externally supplied matrices


@dataclass(frozen=True)
class LabelSet:
    """The finite set of distinct label values, sorted increasingly."""

    values: tuple[float, ...]

    def __post_init__(self):
        if len(self.values) == 0:
            raise ValueError("label set must be non-empty")
        for idx, v in enumerate(self.values):
            if not math.isfinite(v):
                raise ValueError(f"label at index {idx} is not finite: {v!r}")
        for idx in range(1, len(self.values)):
            if self.values[idx] <= self.values[idx - 1]:
                raise ValueError(
                    f"labels must be strictly increasing; violation at index {idx}"
                )

    @property
    def k(self) -> int:
        return len(self.values)

    @property
    def y_min(self) -> float:
        return self.values[0]

    @property
    def y_max(self) -> float:
        return self.values[-1]

    def as_array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=float)


def as_indices(indices, k: int) -> np.ndarray:
    """Indices into a k-element sequence as an integer array; raises naming
    the first entry that is not an integer in [0, k)."""
    idx = np.asarray(indices)
    if idx.dtype.kind in "iu" and (idx.size == 0 or (idx.min() >= 0 and idx.max() < k)):
        return idx
    bad = np.flatnonzero((idx < 0) | (idx >= k) | (np.mod(idx, 1) != 0))
    if bad.size:
        raise ValueError(f"entry at index {bad[0]} is not an index in [0, {k}): {idx.flat[bad[0]]!r}")
    return idx.astype(np.intp)


def make_label_set(values) -> LabelSet:
    """Sort and deduplicate raw values into a LabelSet.

    Rejects empty input and non-finite entries (the diagnostic names the
    offending input index).
    """
    vals = list(values)
    if not vals:
        raise ValueError("label set must be non-empty")
    for idx, v in enumerate(vals):
        v = float(v)
        if not math.isfinite(v):
            raise ValueError(f"label at input index {idx} is not finite: {v!r}")
    return LabelSet(tuple(sorted(set(float(v) for v in vals))))


@dataclass(frozen=True)
class Prior:
    """A probability distribution over a LabelSet."""

    labels: LabelSet
    probs: tuple[float, ...]

    def __post_init__(self):
        if len(self.probs) != self.labels.k:
            raise ValueError(
                f"probs length {len(self.probs)} != label count {self.labels.k}"
            )
        for idx, p in enumerate(self.probs):
            if not (p >= 0.0):
                raise ValueError(f"probability at index {idx} is negative: {p!r}")
        total = math.fsum(self.probs)
        if abs(total - 1.0) > PROB_SUM_TOL:
            raise ValueError(f"probabilities sum to {total!r}, expected 1")

    @property
    def k(self) -> int:
        return self.labels.k

    def probs_array(self) -> np.ndarray:
        return np.asarray(self.probs, dtype=float)


def make_prior(labels: LabelSet, weights) -> Prior:
    """Normalize non-negative weights (one per label) into a Prior."""
    w = np.asarray(list(weights), dtype=float)
    if len(w) != labels.k:
        raise ValueError(f"got {len(w)} weights for {labels.k} labels")
    if np.any(w < 0):
        idx = int(np.argmin(w))
        raise ValueError(f"weight at index {idx} is negative: {float(w[idx])!r}")
    total = math.fsum(w.tolist())
    if total <= 0:
        raise ValueError("weights sum to zero; cannot normalize")
    p = w / total
    # renormalize exactly so the fsum invariant holds after rounding
    p = p / math.fsum(p.tolist())
    return Prior(labels, tuple(float(x) for x in p))


@dataclass(frozen=True)
class MechanismMatrix:
    """Explicit row-stochastic matrix M[y -> o] over inputs x outputs."""

    inputs: LabelSet
    outputs: tuple[float, ...]
    rows: np.ndarray = field(repr=False)

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=float)
        object.__setattr__(self, "rows", rows)
        if rows.shape != (self.inputs.k, len(self.outputs)):
            raise ValueError(
                f"matrix shape {rows.shape} != ({self.inputs.k}, {len(self.outputs)})"
            )
        if np.any(rows < 0):
            raise ValueError("matrix entries must be non-negative")
        sums = rows.sum(axis=1)
        bad = np.where(np.abs(sums - 1.0) > ROW_SUM_TOL)[0]
        if bad.size:
            raise ValueError(
                f"row {int(bad[0])} sums to {sums[bad[0]]!r}, expected 1"
            )

    @property
    def n_outputs(self) -> int:
        return len(self.outputs)


@dataclass(frozen=True)
class EpsilonBudget:
    """Privacy budget split: eps1 for prior estimation, eps2 for randomization."""

    eps1: float
    eps2: float

    def __post_init__(self):
        if not (self.eps1 >= 0 and self.eps2 >= 0):
            raise ValueError(
                f"budget components must be non-negative, got {self.eps1}, {self.eps2}")

    @property
    def total(self) -> float:
        return self.eps1 + self.eps2


def expected_loss(m: MechanismMatrix, p: Prior, loss) -> float:
    """Expected loss of a mechanism under a prior: sum_y p_y sum_o M[y,o] l(o, y)."""
    if m.inputs != p.labels:
        raise ValueError("mechanism inputs do not match the prior's label set")
    ys = p.labels.as_array()
    outs = np.asarray(m.outputs, dtype=float)
    lmat = loss.eval_grid(outs, ys)  # shape (k, n_outputs), l(o_j, y_i)
    return float(np.dot(p.probs_array(), (m.rows * lmat).sum(axis=1)))
