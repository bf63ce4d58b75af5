"""Regression loss functions for the bin optimizer, which relies on each loss
being convex in yhat for fixed y.  The built-ins are convex; a custom loss
only declares it (convex_in_first_arg), and nothing checks the declaration.

Built-ins:
  squared   (yhat - y)^2
  absolute  |yhat - y|
  poisson   yhat - y*log(yhat), defined for yhat > 0

The squared loss here is the plain squared error (no 1/2 factor), so the
expected loss of a mechanism is its MSE.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

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

    def check_labels(self, y_max: float) -> None:
        """Refuse labels that all lie below domain_min, where no output is both
        inside the domain and inside the labels' range."""
        if self.domain_min is not None and self.domain_min > y_max:
            raise ValueError(f"{self.kind} loss has domain_min {self.domain_min} "
                             f"above the largest label {y_max}")

    def _check_domain(self, yhat) -> None:
        if self.domain_min is not None and not np.all(yhat > self.domain_min):
            raise ValueError(
                f"{self.kind} loss requires yhat > {self.domain_min}, got {yhat}"
            )


def _squared(yhat, y):
    d = np.asarray(yhat) - np.asarray(y)
    d *= d  # in place: one label-sized temporary, not two
    return d


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
