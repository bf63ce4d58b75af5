"""Optimal interval binning for randomized response over a finite label set.

Given a prior over sorted labels y^1 < ... < y^k, a privacy parameter eps and
a loss, finds the partition of the labels into consecutive intervals plus one
output value per interval that minimizes the expected loss of randomized
response over the bin outputs.

The single-bin subproblem for the interval [y^r, y^i] is

    L[r][i] = min_yhat  sum_y  p_y * e^(eps * 1[y in [y^r, y^i]]) * loss(yhat, y)

and the best layout with d bins has cost A[k][d] = min over partitions of the
sum of its bins' L values; the reported objective is A[k][d]/(d - 1 + e^eps),
minimized over d.  L tables are filled one row r at a time, with numpy work
over every bin end i of the row.  Squared and poisson losses take the tilted
mean from running sums of p and p*y.  The absolute loss takes the tilted
weighted median: with P the prefix sums of p and T = e^eps - 1, the tilted
cumulative weight through label j is P(j) below the bin, (1+T)P(j) - T*P(r-1)
inside it and P(j) + T*(P(i) - P(r-1)) above it, each piece monotone in P, so
three searchsorted calls place every median of the row.  Any other convex
loss runs one golden-section search per row over a vector of brackets, one
per bin end, which converge in lockstep.

The search over (partition, d) runs as a parametric ratio search
(Dinkelbach's method): each round solves an unconstrained segmentation with a
per-bin price, which certifies the exact optimum in a handful of O(k^2)
passes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import LabelSet, Prior
from .losses import POISSON_YHAT_FLOOR, LossSpec

TILT_CAP = 1e300          # e^eps saturates here; layouts beyond eps ~ 35 are identity-like
GOLDEN_TOL = 1e-10        # absolute tolerance in yhat for the generic inner solver
_MAX_RATIO_ROUNDS = 100   # parametric search safety cap; never reached in practice

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def tilt_factor(eps: float) -> float:
    """e^eps, capped at 1e300 for overflow safety."""
    if eps < 0:
        raise ValueError(f"eps must be non-negative, got {eps}")
    if eps >= 690.0:
        return TILT_CAP
    return min(math.exp(eps), TILT_CAP)


@dataclass(frozen=True)
class BinLayout:
    """A partition of the sorted labels into consecutive intervals plus one
    output value per interval.

    boundaries holds the 1-based inclusive end index of each interval, so
    (2, 5) over k=5 labels means bins {y^1,y^2} and {y^3,y^4,y^5}.  outputs
    are non-decreasing and live in [y_min, y_max].  eps and objective record
    what the layout was optimized for and the expected loss it achieves.
    """

    labels: LabelSet
    boundaries: tuple[int, ...]
    outputs: tuple[float, ...]
    eps: float
    objective: float

    def __post_init__(self):
        k = self.labels.k
        if not self.boundaries or self.boundaries[-1] != k:
            raise ValueError("interval boundaries must cover all labels")
        prev = 0
        for b in self.boundaries:
            if b <= prev:
                raise ValueError("interval boundaries must be strictly increasing")
            prev = b
        if len(self.outputs) != len(self.boundaries):
            raise ValueError("need exactly one output per interval")
        for a, b in zip(self.outputs, self.outputs[1:]):
            if b < a:
                raise ValueError("bin outputs must be non-decreasing")
        lo, hi = self.labels.y_min, self.labels.y_max
        slack = 1e-9 * max(1.0, abs(lo), abs(hi))
        for v in self.outputs:
            if v < lo - slack or v > hi + slack:
                raise ValueError(f"bin output {v} outside label range [{lo}, {hi}]")

    @property
    def d(self) -> int:
        return len(self.outputs)

    def assignments(self) -> np.ndarray:
        """Bin index of each label, in label order."""
        out = np.empty(self.labels.k, dtype=np.int64)
        start = 0
        for b_idx, end in enumerate(self.boundaries):
            out[start:end] = b_idx
            start = end
        return out

    def output_for(self, y: float) -> float:
        """The bin output this layout maps a member label to."""
        i = self.labels.index_of(y)
        return self.outputs[int(self.assignments()[i])]


# ---------------------------------------------------------------------------
# single-bin subproblem tables, one row r at a time
# ---------------------------------------------------------------------------

def _empty_tables(k: int):
    """The k x k value and minimizer tables.  Builders allocate them first: a
    small array allocated before them can split the space the previous build's
    tables freed, so that it no longer holds both and the peak grows a table."""
    return np.full((k, k), np.inf), np.full((k, k), np.nan)


def _tilted_means(p: np.ndarray, y: np.ndarray, tilt: float):
    """Per row r, the moments of the bins [r, i] for every i >= r.

    Yields (r, dp, sw, swy, yhat): the in-bin sum of p, the tilted sums of p
    and p*y over all labels, and the tilted mean yhat, which minimizes
    both the squared and the poisson loss.  At saturated tilt yhat is the
    in-bin mean (the prior mean for a bin without mass), centred on the bin's
    first label with mass so that a bin holding only that label returns it
    exactly.
    """
    T = tilt - 1.0
    py = p * y
    w0 = float(np.sum(p))
    m0 = float(np.dot(p, y))
    capped = tilt >= TILT_CAP
    for r in range(len(p)):
        dp = np.cumsum(p[r:])
        dm = np.cumsum(py[r:])
        sw = w0 + T * dp
        swy = m0 + T * dm
        if capped:
            c = y[r + int(np.argmax(dp > 0))]
            spread = np.cumsum(p[r:] * (y[r:] - c))
            yhat = np.where(dp > 0, c + spread / np.where(dp > 0, dp, 1.0), m0 / w0)
        else:
            yhat = swy / sw
        yield r, dp, sw, swy, yhat


def _tables_squared(p: np.ndarray, y: np.ndarray, tilt: float):
    lval, lhat = _empty_tables(len(p))
    T = tilt - 1.0
    pyy = p * y * y
    q0 = float(np.dot(p, y * y))
    w0 = float(np.sum(p))
    mean0 = float(np.dot(p, y)) / w0
    var0 = float(np.dot(p, (y - mean0) ** 2))
    for r, dp, sw, swy, yhat in _tilted_means(p, y, tilt):
        if tilt >= TILT_CAP:
            # swy2 - yhat*swy cancels at this scale; sum the in-bin spread from
            # centred increments instead: adding label j to a bin with mass
            # dp_prev and mean m_prev adds p_j * dp_prev / dp * (y_j - m_prev)^2,
            # exactly 0 while the bin holds a single label with mass
            dp_prev = np.concatenate(([0.0], dp[:-1]))
            m_prev = np.concatenate(([0.0], yhat[:-1]))
            grow = p[r:] * dp_prev / np.where(dp > 0, dp, 1.0) * (y[r:] - m_prev) ** 2
            val = T * np.cumsum(grow) + (var0 + w0 * (yhat - mean0) ** 2)
        else:
            swy2 = q0 + T * np.cumsum(pyy[r:])
            val = swy2 - yhat * swy
        lhat[r, r:] = yhat
        lval[r, r:] = np.maximum(val, 0.0)
    return lval, lhat


def _tables_poisson(p: np.ndarray, y: np.ndarray, tilt: float):
    if y[0] < 0:
        raise ValueError("poisson loss requires non-negative labels")
    lval, lhat = _empty_tables(len(p))
    for r, _, sw, swy, yhat in _tilted_means(p, y, tilt):
        yhat = np.maximum(yhat, POISSON_YHAT_FLOOR)
        lhat[r, r:] = yhat
        lval[r, r:] = sw * yhat - swy * np.log(yhat)
    return lval, lhat


def _tables_absolute(p: np.ndarray, y: np.ndarray, tilt: float):
    k = len(p)
    lval, lhat = _empty_tables(k)
    T = tilt - 1.0
    # P[j] and Q[j] sum p and p*y over the first j labels
    P = np.concatenate(([0.0], np.cumsum(p)))
    Q = np.concatenate(([0.0], np.cumsum(p * y)))
    ends = np.arange(k)
    for r in range(k):
        i = ends[r:]
        tdP = T * (P[r + 1:] - P[r])  # weight the tilt adds to the bin [r, i]
        total = P[k] + tdP
        half = 0.5 * total
        # smallest label whose tilted cumulative weight reaches half the total,
        # looked up in the piece below, inside and above the bin in turn
        below = np.searchsorted(P[1:r + 1], half)
        inside = r + np.searchsorted(P[r + 1:] + tdP, half)
        above = np.clip(np.searchsorted(P[1:], half - tdP), i + 1, k - 1)
        m = np.where(below < r, below, np.where(inside <= i, inside, above))
        # tilted weight and weighted label sum through the median
        edge = np.clip(m + 1, r, i + 1)
        w_lo = P[m + 1] + T * (P[edge] - P[r])
        s_lo = Q[m + 1] + T * (Q[edge] - Q[r])
        s_hi = Q[k] + T * (Q[r + 1:] - Q[r]) - s_lo
        med = y[m]
        lhat[r, r:] = med
        lval[r, r:] = (med * w_lo - s_lo) + (s_hi - med * (total - w_lo))
    np.maximum(lval, 0.0, out=lval)
    return lval, lhat


def _golden_rows(w: np.ndarray, y: np.ndarray, loss: LossSpec):
    """Golden-section minimum of g_n(x) = sum_j w[n, j] * loss(x, y_j) over the
    label range (clipped to the loss's domain), for every row n of w at once.
    All brackets start equal and shrink by the same factor each step, so the
    rows converge in lockstep.  Returns (x, g(x)) arrays."""
    if not loss.convex_in_first_arg:
        raise ValueError("generic inner solver requires a convex loss")
    lo, hi = float(y[0]), float(y[-1])
    if loss.domain_min is not None:
        lo = max(lo, loss.domain_min + POISSON_YHAT_FLOOR)
        hi = max(hi, lo)

    def g(x):
        return np.sum(w * loss.eval_fn(x[:, None], y[None, :]), axis=1)

    a = np.full(w.shape[0], lo)
    b = np.full(w.shape[0], hi)
    if lo == hi:
        return a, g(a)
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = g(c), g(d)
    while np.max(b - a) > GOLDEN_TOL:
        left = fc <= fd  # the minimum lies in [a, d]: d becomes the new b
        a = np.where(left, a, c)
        b = np.where(left, d, b)
        kept, fkept = np.where(left, c, d), np.where(left, fc, fd)
        x = np.where(left, b - _INV_PHI * (b - a), a + _INV_PHI * (b - a))
        fx = g(x)
        c, fc = np.where(left, x, kept), np.where(left, fx, fkept)
        d, fd = np.where(left, kept, x), np.where(left, fkept, fx)
    x = 0.5 * (a + b)
    return x, g(x)


def _tables_generic(p: np.ndarray, y: np.ndarray, tilt: float, loss: LossSpec):
    k = len(p)
    lval, lhat = _empty_tables(k)
    j = np.arange(k)
    for r in range(k):
        in_bin = (j >= r) & (j <= np.arange(r, k)[:, None])
        lhat[r, r:], lval[r, r:] = _golden_rows(np.where(in_bin, p * tilt, p), y, loss)
    return lval, lhat


def _build_tables(prior: Prior, tilt: float, loss: LossSpec):
    p = prior.probs_array()
    y = prior.labels.as_array()
    if loss.kind == "squared":
        return _tables_squared(p, y, tilt)
    if loss.kind == "poisson":
        return _tables_poisson(p, y, tilt)
    if loss.kind == "absolute":
        return _tables_absolute(p, y, tilt)
    return _tables_generic(p, y, tilt, loss)


# ---------------------------------------------------------------------------
# public single-interval solvers (from-scratch; amortized tables must agree)
# ---------------------------------------------------------------------------

def _interval_weights(prior: Prior, r: int, i: int, eps: float) -> np.ndarray:
    k = prior.k
    if not (1 <= r <= i <= k):
        raise ValueError(f"need 1 <= r <= i <= k={k}, got r={r}, i={i}")
    w = prior.probs_array().copy()
    w[r - 1: i] *= tilt_factor(eps)
    return w


def inner_min_squared(prior: Prior, r: int, i: int, eps: float):
    """Tilted squared-loss minimizer over one interval [y^r, y^i] (1-based).

    Returns (yhat, value) where yhat is the exponentially weighted mean and
    value the weighted sum of squared losses at yhat.  The mean is centred on
    the heaviest label, whose weight (up to 1e300) multiplies any ulp of error.
    """
    w = _interval_weights(prior, r, i, eps)
    y = prior.labels.as_array()
    c = float(y[np.argmax(w)])
    yhat = c + float(np.dot(w, y - c)) / float(np.sum(w))
    value = float(np.dot(w, (yhat - y) ** 2))
    return yhat, value


def inner_min_poisson(prior: Prior, r: int, i: int, eps: float):
    """Tilted poisson-loss minimizer over one interval; same weighted mean as
    the squared case, with the output floored at a tiny positive value when
    all weighted label mass sits at zero."""
    y = prior.labels.as_array()
    if y[0] < 0:
        raise ValueError("poisson loss requires non-negative labels")
    w = _interval_weights(prior, r, i, eps)
    sw = float(np.sum(w))
    swy = float(np.dot(w, y))
    yhat = max(swy / sw, POISSON_YHAT_FLOOR)
    value = sw * yhat - swy * math.log(yhat)
    return yhat, value


def inner_min_absolute(prior: Prior, r: int, i: int, eps: float):
    """Tilted absolute-loss minimizer: the weighted median, i.e. the smallest
    label whose cumulative weight reaches half the total."""
    w = _interval_weights(prior, r, i, eps)
    y = prior.labels.as_array()
    cum = np.cumsum(w)
    m = int(np.searchsorted(cum, 0.5 * cum[-1]))
    yhat = float(y[m])
    value = float(np.dot(w, np.abs(yhat - y)))
    return yhat, value


def inner_min_generic(prior: Prior, r: int, i: int, eps: float, loss: LossSpec):
    """Golden-section inner solver for an arbitrary convex loss."""
    w = _interval_weights(prior, r, i, eps)
    x, v = _golden_rows(w[None, :], prior.labels.as_array(), loss)
    return float(x[0]), float(v[0])


# ---------------------------------------------------------------------------
# search over partitions
# ---------------------------------------------------------------------------

def _segment_pass(lval: np.ndarray, lam: float):
    """Best additive segmentation with a per-bin price of lam.

    B[i] = min_{0 <= r < i} B[r] + lval[r][i-1] - lam, smallest-r argmin.
    """
    k = lval.shape[0]
    B = np.empty(k + 1)
    parent = np.empty(k + 1, dtype=np.int64)
    B[0] = 0.0
    for i in range(1, k + 1):
        cand = B[:i] + lval[:i, i - 1]
        m = int(np.argmin(cand))
        B[i] = cand[m] - lam
        parent[i] = m
    return B[k], parent


def _segment_pass_min_d(lval: np.ndarray, lam: float):
    """Like _segment_pass but breaks exact value ties toward fewer bins,
    then toward the smallest start index."""
    k = lval.shape[0]
    B = np.empty(k + 1)
    D = np.empty(k + 1, dtype=np.int64)
    parent = np.empty(k + 1, dtype=np.int64)
    B[0] = 0.0
    D[0] = 0
    for i in range(1, k + 1):
        cand = B[:i] + lval[:i, i - 1]
        vmin = cand.min()
        ties = np.nonzero(cand == vmin)[0]
        m = int(ties[np.argmin(D[ties])])
        B[i] = vmin - lam
        D[i] = D[m] + 1
        parent[i] = m
    return parent


def _backtrack(parent: np.ndarray, k: int) -> list[tuple[int, int]]:
    """0-based inclusive (start, end) intervals from last-bin parent pointers."""
    spans = []
    i = k
    while i > 0:
        r = int(parent[i])
        spans.append((r, i - 1))
        i = r
    spans.reverse()
    return spans


def _partition_cost(lval: np.ndarray, spans) -> float:
    return float(math.fsum(lval[a, b] for a, b in spans))


def _parametric_search(lval: np.ndarray, tilt: float):
    """Exact minimizer of sum(L over bins) / (d - 1 + tilt) over partitions.

    Iterates lam <- cost(P)/(d-1+tilt) of the best segmentation at price lam,
    which strictly improves until the optimum certifies itself; terminates in
    a few rounds for any finite instance.
    """
    k = lval.shape[0]
    lam = lval[0, k - 1] / tilt  # single-bin layout seeds the ratio
    spans = [(0, k - 1)]
    for _ in range(_MAX_RATIO_ROUNDS):
        _, parent = _segment_pass(lval, lam)
        new_spans = _backtrack(parent, k)
        new_lam = _partition_cost(lval, new_spans) / (len(new_spans) - 1 + tilt)
        if new_lam >= lam - 1e-14 * max(1.0, abs(lam)):
            if new_lam < lam:
                lam, spans = new_lam, new_spans
            break
        lam, spans = new_lam, new_spans
    else:
        raise RuntimeError(f"parametric ratio search did not settle in {_MAX_RATIO_ROUNDS} rounds")
    # settle exact value ties toward fewer bins, then smaller start indices
    parent = _segment_pass_min_d(lval, lam)
    tied = _backtrack(parent, k)
    tied_lam = _partition_cost(lval, tied) / (len(tied) - 1 + tilt)
    if tied_lam <= lam + 1e-14 * max(1.0, abs(lam)):
        return tied_lam, tied
    return lam, spans


def optimize_bins(prior: Prior, eps: float, loss: LossSpec) -> BinLayout:
    """Compute the loss-optimal bin layout for randomized response at eps.

    Fills the single-bin tables, searches over interval partitions and bin
    counts, and backtracks the optimal partition with per-bin outputs.  Ties
    resolve toward fewer bins and smaller start indices.
    """
    if eps < 0:
        raise ValueError(f"eps must be non-negative, got {eps}")
    tilt = tilt_factor(eps)
    lval, lhat = _build_tables(prior, tilt, loss)
    objective, spans = _parametric_search(lval, tilt)
    outputs = [float(lhat[a, b]) for a, b in spans]
    spans, outputs, objective = _merge_degenerate_bins(
        lval, lhat, spans, outputs, objective, tilt
    )
    boundaries = tuple(b + 1 for _, b in spans)
    return BinLayout(
        labels=prior.labels,
        boundaries=boundaries,
        outputs=tuple(outputs),
        eps=float(eps),
        objective=float(objective),
    )


def _merge_degenerate_bins(lval, lhat, spans, outputs, objective, tilt):
    """Collapse adjacent bins whose outputs coincide or invert.

    Neither can occur at an exact optimum (the outputs form a set and are
    non-decreasing there), but float ties on degenerate priors can
    manufacture them; the merged layout is re-costed honestly.
    """
    while len(spans) > 1 and any(
        outputs[t] >= outputs[t + 1] for t in range(len(spans) - 1)
    ):
        t = next(t for t in range(len(spans) - 1) if outputs[t] >= outputs[t + 1])
        a, _ = spans[t]
        _, b = spans[t + 1]
        spans = spans[:t] + [(a, b)] + spans[t + 2:]
        outputs = outputs[:t] + [float(lhat[a, b])] + outputs[t + 2:]
        objective = _partition_cost(lval, spans) / (len(spans) - 1 + tilt)
    return spans, outputs, objective
