"""Regression loss functions with the monotone-valley structure the bin
optimizer relies on: for fixed y, l(yhat, y) decreases up to the minimum and
increases after it.

Built-ins:
  squared   (yhat - y)^2
  absolute  |yhat - y|
  poisson   yhat - y*log(yhat), defined for yhat > 0

The squared loss here is the plain squared error (no 1/2 factor), so the
expected loss of a mechanism is its MSE.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Callable

import numpy as np

log = logging.getLogger(__name__)

POISSON_YHAT_FLOOR = 1e-12  # smallest output the inner solvers may propose

BUILTIN_KINDS = ("squared", "absolute", "poisson")


@dataclass(frozen=True)
class LossSpec:
    """A loss function plus the metadata the optimizer needs.

    eval_fn(yhat, y) must be non-negative on the declared domain and accept
    numpy arrays in either argument. domain_min, when set, is an open lower
    bound on yhat (e.g. 0 for the poisson loss).
    """

    kind: str
    eval_fn: Callable
    convex_in_first_arg: bool
    domain_min: float | None = None

    def eval_grid(self, yhats: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Loss at each (y_i, yhat_j) pair; shape (len(ys), len(yhats))."""
        self._check_domain(np.min(yhats))
        return self.eval_fn(yhats[None, :], ys[:, None])

    def _check_domain(self, yhat) -> None:
        if self.domain_min is not None and not np.all(yhat > self.domain_min):
            raise ValueError(
                f"{self.kind} loss requires yhat > {self.domain_min}, got {yhat}"
            )


def _squared(yhat, y):
    d = np.asarray(yhat) - np.asarray(y)
    return d * d


def _absolute(yhat, y):
    return np.abs(np.asarray(yhat) - np.asarray(y))


def _poisson(yhat, y):
    yhat, y = np.broadcast_arrays(np.asarray(yhat, dtype=float), np.asarray(y, dtype=float))
    # the log is taken only where y != 0, as 0 * log(yhat) counts 0 even at
    # yhat = 0; there a label above 0 costs log(0) = -inf, so the loss is +inf
    log_yhat = np.zeros(y.shape)
    with np.errstate(divide="ignore"):
        np.log(yhat, out=log_yhat, where=y != 0)
    return yhat - y * log_yhat


SQUARED = LossSpec("squared", _squared, convex_in_first_arg=True)
ABSOLUTE = LossSpec("absolute", _absolute, convex_in_first_arg=True)
POISSON = LossSpec("poisson", _poisson, convex_in_first_arg=True, domain_min=0.0)


def by_name(kind: str) -> LossSpec:
    try:
        return {"squared": SQUARED, "absolute": ABSOLUTE, "poisson": POISSON}[kind]
    except KeyError:
        raise ValueError(f"unknown loss kind {kind!r}; expected one of {BUILTIN_KINDS}")


def custom_loss(eval_fn, convex_in_first_arg: bool, domain_min: float | None = None) -> LossSpec:
    """Wrap an opaque loss function; eval_fn must be array-friendly."""
    return LossSpec("custom", eval_fn, convex_in_first_arg, domain_min)


def _is_valley(vals: np.ndarray, tol: float) -> bool:
    """True iff vals is non-increasing then non-decreasing (within tol)."""
    d = np.diff(vals)
    rising = False
    for step in d:
        if step > tol:
            rising = True
        elif step < -tol and rising:
            return False
    return True


def check_assumption(spec: LossSpec, labels, grid_size: int = 50) -> bool:
    """Sample a grid over [y_min, y_max]^2 and test the monotone-valley shape.

    Checks, per grid line: (a) bounded local variation as a continuity proxy,
    (b) along yhat for fixed y the loss falls then rises with its minimum at
    the grid point nearest y, (c) along y for fixed yhat the loss is a valley
    (single dip, located anywhere -- the poisson loss turns at yhat-dependent
    positions rather than on the diagonal). Returns True iff no sampled line
    violates the shape; the first violation is logged.
    """
    if grid_size < 3:
        raise ValueError("grid_size must be at least 3")
    lo, hi = labels.y_min, labels.y_max
    if spec.domain_min is not None:
        lo = max(lo, spec.domain_min + 1e-9)
    grid = np.linspace(lo, hi, grid_size)
    vals = spec.eval_grid(grid, grid)  # vals[i, j] = l(grid[j], grid[i])
    if not np.all(np.isfinite(vals)):
        log.info("assumption check failed: non-finite loss values on the grid")
        return False
    scale = max(float(np.max(np.abs(vals))), 1.0)
    tol = 1e-9 * scale
    # continuity proxy: no step between neighbours exceeding the global range
    max_step = max(
        float(np.max(np.abs(np.diff(vals, axis=0)))),
        float(np.max(np.abs(np.diff(vals, axis=1)))),
    )
    span = float(np.max(vals) - np.min(vals))
    if span > 0 and max_step > 0.75 * span + tol:
        log.info("assumption check failed: local variation too large (jump?)")
        return False
    for i in range(grid_size):
        row = vals[i, :]  # l(yhat, y=grid[i]) along yhat
        if not _is_valley(row, tol):
            log.info("assumption check failed along yhat at y=%s", grid[i])
            return False
        if abs(int(np.argmin(row)) - i) > 1:
            log.info(
                "assumption check failed: minimum over yhat at y=%s sits at %s",
                grid[i], grid[int(np.argmin(row))],
            )
            return False
        col = vals[:, i]  # l(yhat=grid[i], y) along y
        if not _is_valley(col, tol):
            log.info("assumption check failed along y at yhat=%s", grid[i])
            return False
    return True
