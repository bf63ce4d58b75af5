"""Optimal interval binning for randomized response over a finite label set.

Given a prior over sorted labels y^1 < ... < y^k, a privacy parameter eps and
a loss, finds the partition of the labels into consecutive intervals plus one
output value per interval that minimizes the expected loss of randomized
response over the bin outputs.

The single-bin subproblem for the interval [y^r, y^i] is

    L[r][i] = min_yhat  sum_y  p_y * e^(eps * 1[y in [y^r, y^i]]) * loss(yhat, y)

and the best layout with d bins has cost A[k][d] = min over partitions of the
sum of its bins' L values; the reported objective is A[k][d]/(d - 1 + e^eps),
minimized over d.  One table of k(k+1)/2 doubles holds the L values, not
their minimizers, packed by bin end: L[0..i][i] (0-based) at i(i+1)/2 onwards.
It is filled by bin end, with numpy work over every start of a block of ends,
and each built-in loss has one formula that is exact at every tilt
T = e^eps - 1: the parallel-axis form for the squared loss, sums of absolute
deviations about the tilted median for the absolute loss, and the tilted mean,
where every sum is positive, for the poisson loss.  The blocks change no cell:
each is computed as for its bin alone, down to the median searches, which
look in the start's own tilted prefix sums inside the bin and in the prior's
outside it.  Any other convex loss runs one lockstep search for all the bins
of a block of starts, about 2^16 weighted labels a block (_convex_rows).  Each
round evaluates the loss at every label for every bin still searching, O(k^3)
evaluations while all are, and a bin leaves once convexity certifies its
value to 1e-13: after about 12 evaluations a bin on the benchmark's Huber
tables, against 60 for golden section run to GOLDEN_TOL.

The search over (partition, d) runs as a parametric ratio search
(Dinkelbach's method): each round solves an unconstrained segmentation with a
per-bin price in one O(k^2) pass and certifies the exact optimum in a handful
of rounds.  Exact float ties go to fewer bins, then to the smaller start; ties
that are exact only in real arithmetic may go either way.  The outputs of the
chosen bins are then solved from scratch by the single-interval solvers.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .core import LabelSet, Prior
from .losses import POISSON_YHAT_FLOOR, LossSpec

TILT_CAP = 1e300          # e^eps saturates here; layouts beyond eps ~ 35 are identity-like
GOLDEN_TOL = 1e-10        # bracket width in yhat at which a custom-loss search stops uncertified
_CERT_RTOL = 1e-13        # relative gap to its convexity bound that certifies a custom-loss minimum
_TABLE_CELLS = 1 << 14    # cells per block of starts of a built-in loss's table
_GOLDEN_CELLS = 1 << 16   # weighted labels per lockstep search of a custom-loss table
_MAX_RATIO_ROUNDS = 100   # parametric search safety cap; never reached in practice
_RATIO_SLACK = 1e-14      # relative: ratios this close to lam agree to rounding

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_CGOLD = 1.0 - _INV_PHI  # a golden step's share of the larger side


def tilt_factor(eps: float) -> float:
    """e^eps, capped at 1e300 for overflow safety."""
    if not eps >= 0:
        raise ValueError(f"eps must be non-negative, got {eps}")
    return TILT_CAP if eps >= 690.0 else min(math.exp(eps), TILT_CAP)


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
        if any(b <= a for a, b in zip((0, *self.boundaries), self.boundaries)):
            raise ValueError("interval boundaries must be strictly increasing")
        if len(self.outputs) != len(self.boundaries):
            raise ValueError("need exactly one output per interval")
        if any(b < a for a, b in zip(self.outputs, self.outputs[1:])):
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
        return np.repeat(np.arange(self.d), np.diff((0, *self.boundaries)))


# ---------------------------------------------------------------------------
# the single-bin table
# ---------------------------------------------------------------------------

def _row_blocks(p: np.ndarray):
    """Blocks of about _TABLE_CELLS cells, never fewer than one start: starts
    r0..r1-1 and the prior masked to each start's bins, pm[t, j] = p[r0 + j]
    for j >= t and 0 before."""
    k = len(p)
    r0 = 0
    while r0 < k:
        r1 = min(k, r0 + max(1, _TABLE_CELLS // (k - r0)))
        pm = np.zeros((r1 - r0, k - r0))
        for t in range(r1 - r0):
            pm[t, t:] = p[r0 + t:]
        yield r0, pm
        r0 = r1


def _deviations(p: np.ndarray, y: np.ndarray):
    """Per label j, sum_{l<j} p_l*(y_j - y_l) and sum_{l>j} p_l*(y_l - y_j),
    each built up one gap at a time from terms of one sign."""
    gap = np.diff(y)
    below = np.concatenate(([0.0], np.cumsum(np.cumsum(p)[:-1] * gap)))
    above = np.cumsum(p[::-1])[::-1][1:] * gap
    return below, np.concatenate((np.cumsum(above[::-1])[::-1], [0.0]))


def _rows_squared(p: np.ndarray, y: np.ndarray, tilt: float):
    """Per start r, the tilted squared-loss minimum of the bins [r, r+n].

    The parallel-axis sum (Chan, Golub and LeVeque, 1979) of the prior's
    spread v0 about its mean mu0, the tilt's spread T*S on the bin about the
    bin's mean mu, and T*w0*dp/(w0 + T*dp) * (mu0 - mu)^2.  S grows by centred
    increments and the means are taken less the bin's first label, so every
    term is non-negative and accurate at any tilt.
    """
    T = tilt - 1.0
    w0 = float(np.sum(p))
    below, above = _deviations(p, y)
    g = (above - below) / w0  # mu0 - y_j
    v0 = float(np.dot(p, g * g))
    for r0, pm in _row_blocks(p):
        c = y[r0:r0 + len(pm), None]  # each row's first label
        d = y[r0:] - c
        dp = np.cumsum(pm, axis=1)
        # the bin mean less c; any finite value serves while the bin has no
        # mass, as it is then weighted by zero
        mass = np.where(dp > 0, dp, 1.0)
        mc = np.cumsum(pm * d, axis=1) / mass
        # adding label j to a bin of mass dp' and mean mu' adds p_j*dp'/dp*(y_j - mu')^2
        grow = pm[:, 1:] * dp[:, :-1] / mass[:, 1:] * (d[:, 1:] - mc[:, :-1]) ** 2
        spread = np.zeros_like(dp)
        np.cumsum(grow, axis=1, out=spread[:, 1:])
        dmu = g[r0:r0 + len(pm), None] - mc  # mu0 - mu
        vals = v0 + T * (spread + w0 * dp / (w0 + T * dp) * dmu ** 2)
        for t, row in enumerate(vals):
            yield r0 + t, row[t:]


def _rows_poisson(p: np.ndarray, y: np.ndarray, tilt: float):
    """Per start r, the tilted poisson-loss minimum, at the tilted mean."""
    if np.min(y) < 0:
        raise ValueError("poisson loss requires non-negative labels")
    T = tilt - 1.0
    w0 = float(np.sum(p))
    m0 = float(np.dot(p, y))
    for r0, pm in _row_blocks(p):
        sw = w0 + T * np.cumsum(pm, axis=1)
        swy = m0 + T * np.cumsum(pm * y[r0:], axis=1)
        yhat = np.maximum(swy / sw, POISSON_YHAT_FLOOR)
        vals = sw * yhat - swy * np.log(yhat)
        for t, row in enumerate(vals):
            yield r0 + t, row[t:]


def _rows_absolute(p: np.ndarray, y: np.ndarray, tilt: float):
    """Per start r, the tilted absolute-loss minimum over ascending labels y,
    one block of starts at a time (see _absolute_block), whose temporaries
    are freed before the next block's are made."""
    T = tilt - 1.0
    P = np.concatenate(([0.0], np.cumsum(p)))
    d_all = sum(_deviations(p, y))
    for r0, pm in _row_blocks(p):
        vals = _absolute_block(P, y, d_all, T, r0, pm)
        for s, row in enumerate(vals):
            yield r0 + s, row[s:]


def _absolute_block(P: np.ndarray, y: np.ndarray, d_all: np.ndarray, T: float, r0: int,
                    pm: np.ndarray) -> np.ndarray:
    """The bins [r0 + s, r0 + c] of a block, each valued D_all(m) + T*D_bin(m)
    at its tilted median m (see _medians): the sums of p_j*|y_j - y_m| over
    all labels and over the bin.  Both are built from deviations about a
    label, never from sums of p*y, so the tilt scales no cancelling
    difference.  D_bin comes from the bin's mass and its deviations below
    each label and above its first, prefix arrays over the block's columns
    that are zero before each row's start and led by zeros, so one flat
    gather reads each for every cell; u counts the bin's labels up to the
    median.
    """
    nb, n = pm.shape
    t = np.arange(nb)[:, None]
    yr = y[r0:r0 + nb, None]  # each row's first label
    mass = np.zeros((nb, n + 1))
    dp = np.cumsum(pm, axis=1, out=mass[:, 1:])  # mass of the bin [r, i]
    m = _medians(P, dp, T, r0)
    dev_lo = np.zeros((nb, n + 1))
    np.cumsum(dp[:, :-1] * np.diff(y[r0:]), axis=1, out=dev_lo[:, 2:])
    dev_hi = np.zeros((nb, n + 1))
    np.cumsum(pm * (y[r0:] - yr), axis=1, out=dev_hi[:, 1:])
    u = np.minimum(np.maximum(m - (r0 - 1), t), np.arange(1, n + 1)) + t * (n + 1)
    ym = y[m]
    d_bin = (dev_lo.ravel()[u] + (dev_hi[:, 1:] - dev_hi.ravel()[u])
             + (dp - mass.ravel()[u]) * (yr - ym) + dp * np.maximum(ym - y[r0:], 0.0))
    return d_all[m] + T * d_bin


def _medians(P: np.ndarray, dp: np.ndarray, T: float, r0: int) -> np.ndarray:
    """The tilted median of every bin [r0 + s, r0 + c] of a block: the
    smallest label whose tilted cumulative weight reaches half the total.

    With P the prefix sums of the prior and dp the bin's mass, that weight
    through label j is P(j) below the bin, H(j) = P(j) + T*dp(j) inside it and
    P(j) + T*dp(i) above it.  Each cell's case is decided on its own: the
    median lies below the bin if P(r-1) reaches half, and above it if H(i)
    does not.  There it is searched in P; inside, in the row's own H, which
    equals P before the row's start.  Each search compares what a search per
    bin compares, so no cell depends on the block.
    """
    k = len(P) - 1
    nb, n = dp.shape
    tdp = T * dp
    H = P[r0 + 1:] + tdp
    half = 0.5 * (P[k] + tdp)
    below = P[r0:r0 + nb, None] >= half
    above = H < half
    inside = np.flatnonzero(~(below | above))
    # above reversed: each row's keys ascend, so each search starts from the last
    below, above = np.flatnonzero(below), np.flatnonzero(above)[::-1]
    half, tdp = half.ravel(), tdp.ravel()
    m = np.empty(nb * n, dtype=np.intp)
    m[below] = np.searchsorted(P[1:], half[below])
    m[above] = np.maximum(np.searchsorted(P[1:], half[above] - tdp[above]), above % n + (r0 + 1))
    cut = np.searchsorted(inside, np.arange(nb + 1) * n)  # each row's share
    for s in range(nb):
        cells = inside[cut[s]:cut[s + 1]]
        m[cells] = r0 + np.searchsorted(H[s], half[cells])
    return m.reshape(nb, n)


def _convex_rows(w: np.ndarray, y: np.ndarray, loss: LossSpec):
    """Minimum of g_n(x) = sum_j w[n, j] * loss(x, y_j) over the label range
    (clipped to the loss's domain), for every row n of w at once.  Returns
    each row's best point and its value.

    Each row keeps five evaluated points x0 < ... < x4 about its best, x2; a
    point missing past an end of the range sits on that end with g = +inf.
    As g is convex, the chords through (x0, x1) and (x2, x3), extended, bound
    g from below on [x1, x2], so its minimum there is at least
    f2 - (x2 - x1) * min(s12 - s01, s23) in chord slopes; likewise on
    [x2, x3].  A row stops once both gaps are within _CERT_RTOL of f2, or once
    [x1, x3] is GOLDEN_TOL wide (16 ulps of the range's ends where that is
    wider).  For as many rounds as golden section takes to shrink the range
    to GOLDEN_TOL, each step goes to
    - the vertex of a parabola through three neighbouring points, the
      closest three whose vertex lies inside (x1, x3), moved out to the
      distance that would certify a parabola of that curvature where it is
      closer to x2, if the step is under half the step before last (Brent,
      1973);
    - else the lowest point of the bound on the side with the larger gap,
      which is the kink where two straight pieces meet;
    - else a golden step into the larger of [x1, x2] and [x2, x3].
    Past those rounds a row takes golden steps only, which shrink [x1, x3]
    until it stops.  Stopped rows leave the batch.  Every step and sum runs
    along its own row, so no row's result depends on the rows beside it.
    """
    if not loss.convex_in_first_arg:
        raise ValueError("generic inner solver requires a convex loss")
    lo, hi = float(np.min(y)), float(np.max(y))
    if loss.domain_min is not None:
        lo = max(lo, loss.domain_min + POISSON_YHAT_FLOOR)
        hi = max(hi, lo)

    def g(w, x):
        return np.sum(w * loss.eval_fn(x[:, None], y[None, :]), axis=1)

    n = len(w)
    x_best, f_best = np.full(n, lo), np.empty(n)
    if lo == hi:
        return x_best, g(w, x_best)
    # the first window, about the best of lo, the middle and hi
    start = np.array([lo, lo, lo, lo + 0.5 * (hi - lo), hi, hi, hi])
    vals = np.full((7, n), np.inf)
    for t in (2, 3, 4):
        vals[t] = g(w, np.full(n, start[t]))
    pick = np.argmin(vals[2:5], axis=0) + np.arange(5)[:, None]
    win = np.stack([start[pick], np.take_along_axis(vals, pick, 0)])  # (x, g) by point, row
    before = last = np.full(n, hi - lo)  # the step before last and the last step
    rows = np.arange(n)
    steps = math.ceil(math.log((hi - lo) / GOLDEN_TOL) / -math.log(_INV_PHI))
    # above 16 ulps of the range's ends no step rounds onto a point
    floor = max(GOLDEN_TOL, 16 * math.ulp(max(abs(lo), abs(hi))))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        while True:
            steps -= 1
            dx, df = np.diff(win, axis=1)
            s = df / dx  # s01, s12, s23, s34
            ds = np.diff(s, axis=0)  # s12 - s01, s23 - s12, s34 - s23, none negative
            width = dx[1:3]  # x2 - x1, x3 - x2
            gap = np.where(width > 0, width * np.minimum(ds[::2], (s[2], -s[1])), 0.0)
            stop = ((np.maximum(gap[0], gap[1]) <= _CERT_RTOL * np.abs(win[1, 2]))
                    | (width[0] + width[1] <= floor))
            if stop.any():
                x_best[rows[stop]], f_best[rows[stop]] = win[:, 2, stop]
                keep = ~stop
                if not keep.any():
                    return x_best, f_best
                rows, w, win = rows[keep], w[keep], win[:, :, keep]
                before, last = before[keep], last[keep]
                dx, s, ds, gap = (a[:, keep] for a in (dx, s, ds, gap))
                width = dx[1:3]
            x, (x2, f2) = win[0], win[:, 2]
            # a parabola's slope at the middle of each of its two chords is the
            # chord's slope, so its vertex is where the line through them is zero
            mid = x[:-1] + 0.5 * dx
            vertex = mid[:-1] - s[:-1] / ds * np.diff(mid, axis=0)
            # the tightest of the three whose vertex lies inside (x1, x3)
            span = np.where((vertex > x[1]) & (vertex < x[3]), x[2:] - x[:-2], np.inf)
            tight = span[0] < span[1]
            u = np.where(tight, vertex[0], vertex[1])
            u = np.where(span[2] < np.where(tight, span[0], span[1]), vertex[2], u)
            right = gap[1] > gap[0]
            reach = 0.5 * np.sqrt(_CERT_RTOL * np.abs(f2) * (width[0] + width[1]) / ds[1])
            u = np.where(np.abs(u - x2) < reach, x2 + np.where(right, reach, -reach), u)
            para = ((u > x[1]) & (u < x[3]) & (u != x2) & (np.abs(u - x2) < 0.5 * np.abs(before))
                    & (steps >= 0))
            frac = np.where(right, ds[2] / (ds[1] + ds[2]), ds[0] / (ds[0] + ds[1]))
            cross = x2 + np.where(right, width[1], -width[0]) * frac
            half = np.where(width[1] >= width[0], width[1], -width[0])
            kink = (cross > x[1]) & (cross < x[3]) & (cross != x2) & (steps >= 0)
            u = np.where(para, u, np.where(kink, cross, x2 + _CGOLD * half))
            before, last = np.where(para, last, half), u - x2
            # insert (u, g(u)) beside x2 and keep the five points about the better
            new = np.stack([u, g(w, u)])
            left = u < x2
            six = np.empty((2, 6, len(u)))
            six[:, :2], six[:, 4:] = win[:, :2], win[:, 3:]
            six[:, 2] = np.where(left, new, win[:, 2])
            six[:, 3] = np.where(left, win[:, 2], new)
            win = np.where(left != (new[1] < f2), six[:, 1:], six[:, :-1])


def _tilted_rows(p: np.ndarray, spans, tilt: float) -> np.ndarray:
    """One row of weights per bin (start, end), 0-based and inclusive: p, times
    the tilt on the bin's labels."""
    spans, j = np.asarray(spans), np.arange(len(p))
    return np.where((j >= spans[:, :1]) & (j <= spans[:, 1:]), p * tilt, p)


def _rows_generic(p: np.ndarray, y: np.ndarray, tilt: float, loss: LossSpec):
    """Per start r, the minimum of every bin [r, n] by _convex_rows.  The
    bins of a block of starts, about _GOLDEN_CELLS weighted labels and never
    fewer than one start, share one lockstep search.  Each row is searched
    and summed on the labels in ascending order, as inner_min_generic does,
    so every cell is bit for bit its from-scratch minimum."""
    k = len(p)
    bins = np.column_stack(np.triu_indices(k))  # every (start, end), by start, then end
    first = np.searchsorted(bins[:, 0], np.arange(k + 1))  # each start's first bin
    r0 = 0
    while r0 < k:
        r1 = max(r0 + 1, int(np.searchsorted(first, first[r0] + _GOLDEN_CELLS // k, "right")) - 1)
        w = _tilted_rows(p, bins[first[r0]:first[r1]], tilt)
        vals = _convex_rows(w[:, ::-1], y[::-1], loss)[1]
        yield from zip(range(r0, r1), np.split(vals, first[r0 + 1:r1] - first[r0]))
        r0 = r1


def _cell(a: int, b: int) -> int:
    """Index of L[a][b] (0-based, a <= b) in the packed table."""
    return b * (b + 1) // 2 + a


def _physical_memory() -> float:
    """Bytes of physical memory on this machine; inf where the OS does not say."""
    try:
        return float(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"))
    except (AttributeError, OSError, ValueError):
        return math.inf


def _build_tables(prior: Prior, tilt: float, loss: LossSpec) -> np.ndarray:
    """The single-bin table L, packed by bin end: L[r][i] at _cell(r, i).

    Rows are solved on the mirrored labels, where a row of starts is a column
    of ends of L, and stored as the contiguous columns the segmentation pass
    reads.  The table comes first: a small array allocated before it can split
    the space the last build's table freed, so that the peak grows a table.
    A table larger than the machine's physical memory is refused unallocated.
    """
    k = prior.k
    cells, memory = k * (k + 1) // 2, _physical_memory()
    if 8 * cells > memory:
        raise ValueError(f"the bin table for k={k} labels needs {8 * cells:,} bytes, "
                         f"more than the {memory:,.0f} bytes of physical memory")
    cols = np.empty(cells)
    p = np.ascontiguousarray(prior.probs[::-1])
    y = np.ascontiguousarray(prior.labels.values[::-1])
    if loss.kind == "squared":
        rows = _rows_squared(p, y, tilt)
    elif loss.kind == "poisson":
        rows = _rows_poisson(p, y, tilt)
    elif loss.kind == "absolute":
        rows = _rows_absolute(p, -y, tilt)  # negated, the labels ascend again
    else:
        rows = _rows_generic(p, y, tilt, loss)
    for r, vals in rows:
        end = k - 1 - r  # the mirrored row r holds the bins [end - n, end]
        cols[_cell(0, end):_cell(0, end + 1)] = vals[::-1]
    return cols


# ---------------------------------------------------------------------------
# public single-interval solvers (from-scratch; amortized tables must agree)
# ---------------------------------------------------------------------------

def _interval_weights(prior: Prior, r: int, i: int, eps: float) -> np.ndarray:
    k = prior.k
    if not (1 <= r <= i <= k):
        raise ValueError(f"need 1 <= r <= i <= k={k}, got r={r}, i={i}")
    return _tilted_rows(prior.probs, [(r - 1, i - 1)], tilt_factor(eps))[0]


def inner_min_squared(prior: Prior, r: int, i: int, eps: float):
    """Tilted squared-loss minimizer over one interval [y^r, y^i] (1-based).

    Returns (yhat, value) where yhat is the exponentially weighted mean and
    value the weighted sum of squared losses at yhat.  The mean takes the
    weights over e^eps, p outside the interval times e^-eps, which need no
    cap: past eps ~745 that mass underflows and yhat is the interval's own
    mean, the limit that the capped tilt stands for.  It is centred on the
    heaviest label, whose weight multiplies any ulp of error.
    """
    w = _interval_weights(prior, r, i, eps)
    y = prior.labels.values
    p = prior.probs
    u = p * math.exp(-eps)
    u[r - 1: i] = p[r - 1: i]
    if not u.any():  # no mass inside the interval and none left outside
        u = w
    c = float(y[np.argmax(u)])
    yhat = c + float(np.dot(u, y - c)) / float(np.sum(u))
    value = float(np.dot(w, (yhat - y) ** 2))
    return yhat, value


def inner_min_poisson(prior: Prior, r: int, i: int, eps: float):
    """Tilted poisson-loss minimizer over one interval; same weighted mean as
    the squared case, with the output floored at a tiny positive value when
    all weighted label mass sits at zero."""
    y = prior.labels.values
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
    y = prior.labels.values
    cum = np.cumsum(w)
    m = int(np.searchsorted(cum, 0.5 * cum[-1]))
    yhat = float(y[m])
    value = float(np.dot(w, np.abs(yhat - y)))
    return yhat, value


def inner_min_generic(prior: Prior, r: int, i: int, eps: float, loss: LossSpec):
    """Tilted minimizer over one interval for any convex loss, by the search
    that fills a custom loss's table (_convex_rows), so each table cell equals
    its value bit for bit.  Returns (yhat, value): the best point evaluated,
    whose value convexity certifies to 1e-13 of the minimum unless the
    bracket reached GOLDEN_TOL first."""
    w = _interval_weights(prior, r, i, eps)
    x, v = _convex_rows(w[None, :], prior.labels.values, loss)
    return float(x[0]), float(v[0])


# ---------------------------------------------------------------------------
# search over partitions
# ---------------------------------------------------------------------------

def _segment_pass(lval: np.ndarray, k: int, lam: float):
    """Best additive segmentation with a per-bin price of lam.

    B[i] = min_{0 <= r < i} B[r] + L[r][i-1] - lam.  Exact value ties go to
    the start whose segmentation has the fewest bins, then the smallest start.
    """
    B = np.zeros(k + 1)
    bins = np.zeros(k + 1, dtype=np.int64)
    parent = np.empty(k + 1, dtype=np.int64)
    for i in range(1, k + 1):
        cand = B[:i] + lval[_cell(0, i - 1):_cell(0, i)]
        m = int(cand.argmin())
        if int(cand[::-1].argmin()) != i - 1 - m:  # the last minimum is another start
            ties = (cand == cand[m]).nonzero()[0]
            m = int(ties[bins[ties].argmin()])
        B[i] = cand[m] - lam
        bins[i] = bins[m] + 1
        parent[i] = m
    return parent


def _backtrack(parent: np.ndarray, k: int) -> list[tuple[int, int]]:
    """0-based inclusive (start, end) intervals from last-bin parent pointers."""
    spans, i = [], k
    while i > 0:
        spans.append((int(parent[i]), i - 1))
        i = spans[-1][0]
    return spans[::-1]


def _partition_cost(lval: np.ndarray, spans) -> float:
    return float(math.fsum(lval[_cell(a, b)] for a, b in spans))


def _parametric_search(lval: np.ndarray, k: int, tilt: float):
    """Exact minimizer of sum(L over bins) / (d - 1 + tilt) over partitions.

    Iterates lam <- cost(P)/(d-1+tilt) of the best segmentation at price lam,
    which strictly improves until the optimum certifies itself; terminates in
    a few rounds for any finite instance.  The best layout of at most two bins,
    found in O(k), seeds the ratio.  Each pass sends exact float ties to
    fewer bins, then the smaller start; two layouts whose ratios agree to
    rounding, the seeds or the last two, resolve toward fewer bins.
    """
    lam, spans = lval[_cell(0, k - 1)] / tilt, [(0, k - 1)]
    if k > 1:  # L[0][s] + L[s+1][k-1] over every split s, the smallest s on ties
        two = lval[_cell(0, np.arange(k - 1))] + lval[_cell(1, k - 1):]
        s = int(two.argmin())
        if two[s] / (1.0 + tilt) < lam - _RATIO_SLACK * max(1.0, abs(lam)):
            lam, spans = two[s] / (1.0 + tilt), [(0, s), (s + 1, k - 1)]
    for _ in range(_MAX_RATIO_ROUNDS):
        new_spans = _backtrack(_segment_pass(lval, k, lam), k)
        new_lam = _partition_cost(lval, new_spans) / (len(new_spans) - 1 + tilt)
        slack = _RATIO_SLACK * max(1.0, abs(lam))
        if new_lam >= lam - slack:
            if new_lam > lam + slack or len(spans) < len(new_spans):
                return lam, spans
            return new_lam, new_spans
        lam, spans = new_lam, new_spans
    raise RuntimeError(f"parametric ratio search did not settle in {_MAX_RATIO_ROUNDS} rounds")


def _bin_outputs(prior: Prior, spans, eps: float, loss: LossSpec) -> list[float]:
    """Each bin's output, solved from scratch; in lockstep for a custom loss."""
    closed = {"squared": inner_min_squared, "poisson": inner_min_poisson,
              "absolute": inner_min_absolute}.get(loss.kind)
    if closed is not None:
        return [closed(prior, a + 1, b + 1, eps)[0] for a, b in spans]
    w = _tilted_rows(prior.probs, spans, tilt_factor(eps))
    return [float(x) for x in _convex_rows(w, prior.labels.values, loss)[0]]


def optimize_bins(prior: Prior, eps: float, loss: LossSpec) -> BinLayout:
    """Compute the loss-optimal bin layout for randomized response at eps.

    Fills the single-bin table, searches over interval partitions and bin
    counts, then solves each chosen bin's output from scratch.  Exact float
    ties resolve toward fewer bins, then smaller start indices; layouts that
    tie only in real arithmetic may resolve either way.
    """
    loss.check_labels(prior.labels.y_max)
    tilt = tilt_factor(eps)
    lval = _build_tables(prior, tilt, loss)
    objective, spans = _parametric_search(lval, prior.k, tilt)
    outputs = _bin_outputs(prior, spans, eps, loss)
    # adjacent outputs that coincide or invert cannot occur at an exact optimum
    # (the outputs form a set and are non-decreasing there), but float ties
    # on degenerate priors can make them: merge such bins and re-cost honestly
    while len(spans) > 1 and any(a >= b for a, b in zip(outputs, outputs[1:])):
        t = next(t for t in range(len(spans) - 1) if outputs[t] >= outputs[t + 1])
        spans[t:t + 2] = [(spans[t][0], spans[t + 1][1])]
        outputs[t:t + 2] = _bin_outputs(prior, spans[t:t + 1], eps, loss)
        objective = _partition_cost(lval, spans) / (len(spans) - 1 + tilt)
    return BinLayout(
        labels=prior.labels,
        boundaries=tuple(b + 1 for _, b in spans),
        outputs=tuple(outputs),
        eps=float(eps),
        objective=float(objective),
    )
