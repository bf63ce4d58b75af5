"""Foundational domain types (label sets, priors, mechanism matrices, budgets)
and the one memory rule: check_memory refuses a build past physical memory.

The types are immutable after construction and safe to share across threads.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, fields

import numpy as np

PROB_SUM_TOL = 1e-12     # normalization tolerance at construction
ROW_SUM_TOL = 1e-9       # tolerance when validating externally supplied matrices


def _frozen(values) -> np.ndarray:
    """A read-only float64 copy of values."""
    a = np.array(values, dtype=float)
    a.flags.writeable = False
    return a


def check_eps(value, name: str = "eps", positive: bool = False):
    """value if it is at least 0 (above 0 with positive set), else ValueError."""
    if not (value > 0 if positive else value >= 0):
        raise ValueError(f"{name} must be {'positive' if positive else 'non-negative'}, got {value}")
    return value


def refuse_first(ok, values: np.ndarray, message: str) -> None:
    """Raise message.format(i, values.flat[i]) at the first False in ok."""
    if not ok.all():
        i = int(np.argmin(ok))
        raise ValueError(message.format(i, values.flat[i].item()))


def _physical_memory() -> float:
    """Bytes of physical memory on this machine; inf where the OS does not say."""
    try:
        return float(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"))
    except (AttributeError, OSError, ValueError):
        return math.inf


def check_memory(need: int, what: str) -> None:
    """Refuse a build of need bytes past physical memory, before it allocates."""
    if need > (memory := _physical_memory()):
        raise ValueError(f"{what} needs {need:,} bytes, more than the {memory:,.0f} "
                         "bytes of physical memory")


class ValueEq:
    """Equal when the other object has the same type and every field is equal,
    arrays by value.  Defining __eq__ leaves instances unhashable."""

    def __eq__(self, other):
        return type(other) is type(self) and all(
            np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b
            for a, b in ((getattr(self, f.name), getattr(other, f.name)) for f in fields(self)))


@dataclass(frozen=True, eq=False)
class LabelSet(ValueEq):
    """The finite set of distinct label values, sorted increasingly, as a
    read-only array; two label sets are equal when their values are."""

    values: np.ndarray

    def __post_init__(self):
        v = _frozen(self.values)
        object.__setattr__(self, "values", v)
        if v.size == 0:
            raise ValueError("label set must be non-empty")
        refuse_first(np.isfinite(v), v, "label at index {} is not finite: {!r}")
        refuse_first(np.append(True, v[1:] > v[:-1]), v,
                     "labels must be strictly increasing; violation at index {}")

    @property
    def k(self) -> int:
        return self.values.size

    @property
    def y_min(self) -> float:
        return float(self.values[0])

    @property
    def y_max(self) -> float:
        return float(self.values[-1])


def as_indices(indices, k: int) -> np.ndarray:
    """Indices into a k-element sequence as an integer array; raises naming
    the first entry that is not an integer in [0, k)."""
    idx = np.asarray(indices)
    if idx.dtype.kind in "iu" and (idx.size == 0 or (idx.min() >= 0 and idx.max() < k)):
        return idx
    refuse_first((idx >= 0) & (idx < k) & (np.mod(idx, 1) == 0), idx,
                 f"entry at index {{}} is not an index in [0, {k}): {{!r}}")
    return idx.astype(np.intp)


def integer_valued(values, what: str) -> np.ndarray:
    """values as an array, or a ValueError that opens with what and names the
    first entry that is not a whole number in the int64 range (a non-finite
    one included); arrays that cast safely to int64 pass unscanned."""
    a = np.asarray(values)
    if not np.can_cast(a.dtype, np.int64):
        with np.errstate(invalid="ignore"):  # the remainder of inf is NaN
            ok = (np.mod(a, 1) == 0) & (a >= -2**63) & (a < 2**63)
        refuse_first(ok, a, what + ": entry at index {} is {!r}")
    return a


def make_label_set(values) -> LabelSet:
    """Sort and deduplicate raw values into a LabelSet.

    Rejects empty input and non-finite entries (the diagnostic names the
    offending input index).  Of -0.0 and 0.0, the one that comes first in
    the input is kept.
    """
    x = np.asarray(values, dtype=float).reshape(-1)
    if x.size == 0:
        raise ValueError("label set must be non-empty")
    refuse_first(np.isfinite(x), x, "label at input index {} is not finite: {!r}")
    vals = np.sort(x)  # not np.unique, whose first call imports numpy.ma (about 10 ms)
    vals = vals[np.append(True, vals[1:] > vals[:-1])]
    zero = np.flatnonzero(x == 0.0)[:1]
    vals[vals == 0.0] = x[zero]
    return LabelSet(vals)


@dataclass(frozen=True, eq=False)
class Prior(ValueEq):
    """A probability distribution over a LabelSet, as a read-only array of
    probabilities; two priors are equal when their labels and probs are."""

    labels: LabelSet
    probs: np.ndarray

    def __post_init__(self):
        p = _frozen(self.probs)
        object.__setattr__(self, "probs", p)
        if p.size != self.labels.k:
            raise ValueError(f"probs length {p.size} != label count {self.labels.k}")
        refuse_first(p >= 0.0, p, "probability at index {} is negative: {!r}")
        total = math.fsum(p.tolist())
        if abs(total - 1.0) > PROB_SUM_TOL:
            raise ValueError(f"probabilities sum to {total!r}, expected 1")

    @property
    def k(self) -> int:
        return self.labels.k


def make_prior(labels: LabelSet, weights) -> Prior:
    """Normalize finite non-negative weights (one per label) into a Prior."""
    w = np.asarray(weights, dtype=float).reshape(-1)
    if w.size != labels.k:
        raise ValueError(f"got {w.size} weights for {labels.k} labels")
    refuse_first(np.isfinite(w), w, "weight at index {} is not finite: {!r}")
    refuse_first(w >= 0, w, "weight at index {} is negative: {!r}")
    total = math.fsum(w.tolist())
    if total <= 0:
        raise ValueError("weights sum to zero; cannot normalize")
    p = w / total
    # renormalize exactly so the fsum invariant holds after rounding
    return Prior(labels, p / math.fsum(p.tolist()))


@dataclass(frozen=True, eq=False)
class MechanismMatrix(ValueEq):
    """Explicit row-stochastic matrix M[y -> o] over inputs x outputs; two
    matrices are equal when their inputs, outputs and rows are."""

    inputs: LabelSet
    outputs: tuple[float, ...]
    rows: np.ndarray = field(repr=False)

    def __post_init__(self):
        rows = _frozen(self.rows)
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


@dataclass(frozen=True)
class EpsilonBudget:
    """Privacy budget split: eps1 for prior estimation, eps2 for randomization."""

    eps1: float
    eps2: float

    def __post_init__(self):
        check_eps(self.eps1, "eps1")
        check_eps(self.eps2, "eps2")

    @property
    def total(self) -> float:
        return self.eps1 + self.eps2


def expected_loss(m: MechanismMatrix, p: Prior, loss) -> float:
    """Expected loss of a mechanism under a prior: sum_y p_y sum_o M[y,o] l(o, y)."""
    if m.inputs != p.labels:
        raise ValueError("mechanism inputs do not match the prior's label set")
    lmat = loss.eval_grid(np.asarray(m.outputs, dtype=float), p.labels.values)  # l(o_j, y_i)
    return float(np.dot(p.probs, (m.rows * lmat).sum(axis=1)))
