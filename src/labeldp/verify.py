"""Independent oracles for the optimality claims: exhaustive partition search,
the layered fill of the full partition table, a small dense simplex solver
for the mechanism-design linear program, the privacy ratio check on explicit
matrices, and a chi-square harness for validating samplers against their
analytic distributions.

The brute-force search and the LP solver deliberately share no code with the
dynamic-programming optimizer they are used to check.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .binopt import BinLayout, tilt_factor
from .core import MechanismMatrix, Prior
from .losses import POISSON_YHAT_FLOOR, LossSpec
from .mechanisms import Rng

DP_RATIO_SLACK = 1e-9
LP_FEAS_TOL = 1e-7
_PIVOT_TOL = 1e-9


# ---------------------------------------------------------------------------
# exhaustive search over interval partitions
# ---------------------------------------------------------------------------

def _golden(fn, lo, hi, tol=1e-12):
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c, d = b - phi * (b - a), a + phi * (b - a)
    fc, fd = fn(c), fn(d)
    while b - a > tol:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = fn(d)
    mid = 0.5 * (a + b)
    return mid, fn(mid)


def _interval_minimum(p, y, lo, hi, tilt, loss: LossSpec):
    """Exact tilted minimizer for one interval [lo, hi] of label indices."""
    w = p.copy()
    w[lo: hi + 1] *= tilt
    if loss.kind == "squared":
        # centred on the heaviest label, whose weight (up to 1e300) would
        # multiply any rounding of an uncentred mean
        c = float(y[np.argmax(w)])
        shift = float(np.dot(w, y - c) / np.sum(w))
        return c + shift, float(np.dot(w, (y - c - shift) ** 2))
    if loss.kind == "poisson":
        mean = max(float(np.dot(w, y) / np.sum(w)), POISSON_YHAT_FLOOR)
        return mean, float(np.sum(w) * mean - np.dot(w, y) * math.log(mean))
    if loss.kind == "absolute":
        cum = np.cumsum(w)
        m = int(np.searchsorted(cum, 0.5 * cum[-1]))
        med = float(y[m])
        return med, float(np.dot(w, np.abs(med - y)))
    if not loss.convex_in_first_arg:
        raise ValueError("brute force needs a convex loss for the generic solver")
    a, b = float(y[0]), float(y[-1])
    if loss.domain_min is not None:
        a = max(a, loss.domain_min + POISSON_YHAT_FLOOR)
        b = max(b, a)
    if a == b:
        return a, float(np.dot(w, loss.eval_fn(a, y)))
    return _golden(lambda v: float(np.dot(w, loss.eval_fn(v, y))), a, b)


def brute_force_optimal_bins(prior: Prior, eps: float, loss: LossSpec) -> BinLayout:
    """Enumerate every partition of the labels into consecutive intervals and
    return the best bin layout.  Exponential in k; limited to k <= 16.  Ties
    resolve toward the smallest bin count, then the lexicographically smallest
    boundary set."""
    k = prior.k
    if k > 16:
        raise ValueError(f"brute force limited to k <= 16 labels, got {k}")
    if eps < 0:
        raise ValueError(f"eps must be non-negative, got {eps}")
    tilt = tilt_factor(eps)
    p = prior.probs_array()
    y = prior.labels.as_array()
    best = None
    for mask in range(1 << (k - 1)):
        ends = [i for i in range(k - 1) if mask >> i & 1] + [k - 1]
        spans = []
        start = 0
        for e in ends:
            spans.append((start, e))
            start = e + 1
        solved = [_interval_minimum(p, y, a, b, tilt, loss) for a, b in spans]
        cost = math.fsum(v for _, v in solved)
        d = len(spans)
        obj = cost / (d - 1 + tilt)
        key = (obj, d, tuple(e + 1 for _, e in spans))
        if best is None or key < best[0]:
            best = (key, spans, [h for h, _ in solved])
    (obj, _, boundaries), spans, outputs = best
    # collapse float-tie duplicates and inversions so outputs form an ordered set
    while len(spans) > 1 and any(a >= b for a, b in zip(outputs, outputs[1:])):
        t = next(t for t in range(len(outputs) - 1) if outputs[t] >= outputs[t + 1])
        spans = spans[:t] + [(spans[t][0], spans[t + 1][1])] + spans[t + 2:]
        solved = [_interval_minimum(p, y, a, b, tilt, loss) for a, b in spans]
        outputs = [h for h, _ in solved]
        obj = math.fsum(v for _, v in solved) / (len(spans) - 1 + tilt)
        boundaries = tuple(b + 1 for _, b in spans)
    return BinLayout(
        labels=prior.labels,
        boundaries=boundaries,
        outputs=tuple(outputs),
        eps=float(eps),
        objective=float(obj),
    )


# ---------------------------------------------------------------------------
# layered fill of the partition table
# ---------------------------------------------------------------------------

def _table_k(lval: np.ndarray) -> int:
    """k of a packed table of k(k+1)/2 cells."""
    return (math.isqrt(8 * len(lval) + 1) - 1) // 2


def square_table(lval: np.ndarray) -> np.ndarray:
    """The packed single-bin table as a k x k array indexed [r-1][i-1], with
    inf where r > i."""
    k = _table_k(lval)
    square = np.full((k, k), np.inf)
    square.T[np.tril_indices(k)] = lval  # row-major lower triangle of L^T = packed by end
    return square


@dataclass
class DPTables:
    """Tables from the layered fill: a[i][j] is the best additive cost of
    splitting the first i labels into j bins; parent[i][j] the chosen start
    of the last bin.  lval holds the single-bin subproblem values, packed by
    bin end as optimize_bins builds them."""

    a: np.ndarray = field(repr=False)
    parent: np.ndarray = field(repr=False)
    lval: np.ndarray = field(repr=False)


def layered_tables(lval: np.ndarray) -> DPTables:
    """Reference layered fill of the full A[i][j] table (quadratic states,
    linear work per state), to cross-check the parametric ratio search."""
    k = _table_k(lval)
    a = np.full((k + 1, k + 1), np.inf)
    parent = np.full((k + 1, k + 1), -1, dtype=np.int64)
    a[0, 0] = 0.0
    for j in range(1, k + 1):
        aprev = a[:, j - 1]
        for i in range(j, k + 1):
            col = (i - 1) * i // 2  # L[0][i-1] in the packed table
            cand = aprev[j - 1: i] + lval[col + j - 1: col + i]
            m = int(np.argmin(cand))
            a[i, j] = cand[m]
            parent[i, j] = m + (j - 1)
    return DPTables(a=a, parent=parent, lval=lval)


def _layered_select(tables: DPTables, tilt: float):
    k = tables.a.shape[0] - 1
    ds = np.arange(1, k + 1)
    obj = tables.a[k, 1:] / (ds - 1 + tilt)
    d = int(np.argmin(obj)) + 1
    spans = []
    i, j = k, d
    while j > 0:
        r = int(tables.parent[i, j])
        spans.append((r, i - 1))
        i, j = r, j - 1
    spans.reverse()
    return float(obj[d - 1]), spans


def best_rr_on_bins_over_grid(prior: Prior, grid, eps: float, loss: LossSpec) -> float:
    """Best randomized-response-on-bins loss over all non-decreasing maps from
    the labels into subsets of a fixed output grid.  Exhaustive; small k only."""
    k = prior.k
    if k > 10:
        raise ValueError("grid enumeration limited to k <= 10")
    tilt = tilt_factor(eps)
    p = prior.probs_array()
    y = prior.labels.as_array()
    grid = sorted(float(g) for g in grid)
    lmat = loss.eval_grid(np.asarray(grid), y)  # lmat[i, j] = loss(grid[j], y_i)
    best = math.inf
    for mask in range(1 << (k - 1)):
        ends = [i for i in range(k - 1) if mask >> i & 1] + [k - 1]
        d = len(ends)
        if d > len(grid):
            continue
        stay = tilt / (tilt + d - 1)
        off = 1.0 / (tilt + d - 1)
        for combo in itertools.combinations(range(len(grid)), d):
            cols = list(combo)
            total_all = lmat[:, cols].sum(axis=1)
            start = 0
            val = 0.0
            for bin_idx, e in enumerate(ends):
                own = cols[bin_idx]
                for i in range(start, e + 1):
                    val += p[i] * (
                        stay * lmat[i, own] + off * (total_all[i] - lmat[i, own])
                    )
                start = e + 1
            if val < best:
                best = val
    return float(best)


# ---------------------------------------------------------------------------
# dense two-phase simplex for the mechanism LP
# ---------------------------------------------------------------------------

@dataclass
class LpSolution:
    matrix: MechanismMatrix | None
    objective: float | None
    status: str  # optimal | infeasible | iteration_limit


class _Tableau:
    """Dense simplex pivoting with Bland's anti-cycling rule."""

    def __init__(self, basis):
        self.basis = basis

    def pivot(self, tab, r, c):
        tab[r] = tab[r] / tab[r, c]
        for i in range(tab.shape[0]):
            if i != r and tab[i, c] != 0.0:
                tab[i] = tab[i] - tab[i, c] * tab[r]
        self.basis[r] = c

    def run(self, tab, allowed, max_iter):
        """Pivot to optimality; returns 'optimal' or 'iteration_limit'."""
        m = tab.shape[0] - 1
        for _ in range(max_iter):
            obj = tab[m]
            enter = -1
            for j in allowed:
                if obj[j] < -_PIVOT_TOL:
                    enter = j
                    break
            if enter < 0:
                return "optimal"
            leave, best_ratio, best_var = -1, math.inf, None
            for i in range(m):
                a = tab[i, enter]
                if a > _PIVOT_TOL:
                    ratio = tab[i, -1] / a
                    if ratio < best_ratio - 1e-12 or (
                        abs(ratio - best_ratio) <= 1e-12
                        and (best_var is None or self.basis[i] < best_var)
                    ):
                        leave, best_ratio, best_var = i, ratio, self.basis[i]
            if leave < 0:
                return "unbounded"
            self.pivot(tab, leave, enter)
        return "iteration_limit"


def simplex_solve(c, a_ub, b_ub, a_eq, b_eq, max_iter=20000):
    """Minimize c.x subject to a_ub x <= b_ub, a_eq x = b_eq, x >= 0.

    Dense two-phase simplex with Bland's rule (entering: lowest eligible
    index; leaving: lowest basic variable among ratio ties).  Returns
    (x, objective, status).
    """
    c = np.asarray(c, dtype=float)
    n = c.size
    a_ub = np.asarray(a_ub, dtype=float).reshape(-1, n) if len(a_ub) else np.empty((0, n))
    a_eq = np.asarray(a_eq, dtype=float).reshape(-1, n) if len(a_eq) else np.empty((0, n))
    b_ub = np.asarray(b_ub, dtype=float)
    b_eq = np.asarray(b_eq, dtype=float)
    n_ub, n_eq = a_ub.shape[0], a_eq.shape[0]
    m = n_ub + n_eq

    # columns: x | slacks | artificials; rows normalized to b >= 0
    rows = np.zeros((m, n + n_ub))
    rhs = np.zeros(m)
    need_art = []
    for i in range(n_ub):
        sign = 1.0 if b_ub[i] >= 0 else -1.0
        rows[i, :n] = sign * a_ub[i]
        rows[i, n + i] = sign
        rhs[i] = sign * b_ub[i]
        if sign < 0:
            need_art.append(i)
    for j in range(n_eq):
        i = n_ub + j
        sign = 1.0 if b_eq[j] >= 0 else -1.0
        rows[i, :n] = sign * a_eq[j]
        rhs[i] = sign * b_eq[j]
        need_art.append(i)

    n_art = len(need_art)
    ncols = n + n_ub + n_art
    tab = np.zeros((m + 1, ncols + 1))
    tab[:m, : n + n_ub] = rows
    tab[:m, -1] = rhs
    basis = [0] * m
    for i in range(n_ub):
        basis[i] = n + i
    for t, i in enumerate(need_art):
        tab[i, n + n_ub + t] = 1.0
        basis[i] = n + n_ub + t

    solver = _Tableau(basis)

    if n_art:
        # phase 1: minimize the artificial sum, priced out for the start basis
        for i in need_art:
            tab[m] -= tab[i]
        tab[m, n + n_ub:-1] = 0.0
        status = solver.run(tab, range(n + n_ub), max_iter)
        if status == "iteration_limit":
            return None, None, status
        if -tab[m, -1] > 1e-7:
            return None, None, "infeasible"
        # drive remaining artificials out of the basis
        drop_rows = []
        for i in range(m):
            if solver.basis[i] >= n + n_ub:
                piv = next(
                    (j for j in range(n + n_ub) if abs(tab[i, j]) > _PIVOT_TOL), None
                )
                if piv is None:
                    drop_rows.append(i)
                else:
                    solver.pivot(tab, i, piv)
        if drop_rows:
            keep = [i for i in range(m) if i not in drop_rows]
            tab = np.vstack([tab[keep], tab[m:]])
            solver.basis = [solver.basis[i] for i in keep]
            m = len(keep)

    # phase 2 objective row, priced out for the current basis
    tab[m, :] = 0.0
    tab[m, :n] = c
    for i in range(m):
        bj = solver.basis[i]
        if bj < n and tab[m, bj] != 0.0:
            tab[m] -= tab[m, bj] * tab[i]
    status = solver.run(tab, range(n + n_ub), max_iter)
    if status != "optimal":
        return None, None, "iteration_limit" if status == "iteration_limit" else status
    x = np.zeros(n)
    for i in range(m):
        if solver.basis[i] < n:
            x[solver.basis[i]] = tab[i, -1]
    return x, float(np.dot(c, x)), "optimal"


def lp_optimal_mechanism(prior: Prior, outputs, eps: float, loss: LossSpec) -> LpSolution:
    """Solve for the loss-minimal eps-DP mechanism from the labels onto a
    fixed finite output set, as an explicit linear program over the matrix
    entries: row-stochastic equalities, non-negativity, and every pairwise
    column ratio constraint M[y',o] <= e^eps M[y,o]."""
    if eps < 0:
        raise ValueError(f"eps must be non-negative, got {eps}")
    outs = sorted(float(o) for o in outputs)
    k, m = prior.k, len(outs)
    if k * m > 400:
        raise ValueError(f"LP size {k}x{m} exceeds the dense solver scale (<= 400 vars)")
    inv_tilt = math.exp(-eps)
    y = prior.labels.as_array()
    p = prior.probs_array()
    lmat = loss.eval_grid(np.asarray(outs), y)
    c = (p[:, None] * lmat).reshape(k * m)

    a_eq = np.zeros((k, k * m))
    for i in range(k):
        a_eq[i, i * m: (i + 1) * m] = 1.0
    b_eq = np.ones(k)

    # ratio constraints scaled by e^-eps for conditioning:
    # e^-eps * M[y'->o] - M[y->o] <= 0
    n_pairs = k * (k - 1)
    a_ub = np.zeros((m * n_pairs, k * m))
    row = 0
    for o in range(m):
        for i in range(k):
            for i2 in range(k):
                if i2 == i:
                    continue
                a_ub[row, i2 * m + o] = inv_tilt
                a_ub[row, i * m + o] = -1.0
                row += 1
    b_ub = np.zeros(m * n_pairs)

    x, obj, status = simplex_solve(c, a_ub, b_ub, a_eq, b_eq)
    if status == "unbounded":
        # row-stochastic rows bound every variable; this cannot happen
        raise RuntimeError("mechanism LP reported unbounded")
    if status != "optimal":
        return LpSolution(matrix=None, objective=None, status=status)
    mat = np.maximum(x.reshape(k, m), 0.0)
    # feasibility audit before declaring optimality
    if np.max(np.abs(mat.sum(axis=1) - 1.0)) > LP_FEAS_TOL:
        return LpSolution(matrix=None, objective=None, status="iteration_limit")
    for o in range(m):
        col = mat[:, o]
        if inv_tilt * np.max(col) > np.min(col) + LP_FEAS_TOL:
            return LpSolution(matrix=None, objective=None, status="iteration_limit")
    matrix = MechanismMatrix(prior.labels, tuple(outs), mat)
    return LpSolution(matrix=matrix, objective=float(obj), status="optimal")


# ---------------------------------------------------------------------------
# exact noise distributions the sampler checks compare against
# ---------------------------------------------------------------------------

def discrete_laplace_pmf(j, scale: float):
    """Exact pmf of the discrete Laplace with the given scale."""
    q = math.exp(-1.0 / scale)
    return (1 - q) / (1 + q) * q ** np.abs(np.asarray(j))


def staircase_interval_probs(edges: np.ndarray, eps: float, delta: float, gamma: float) -> np.ndarray:
    """Exact probabilities of staircase noise landing in [edges[i], edges[i+1])."""
    a = (1.0 - math.exp(-eps)) / (2.0 * delta * (gamma + math.exp(-eps) * (1.0 - gamma)))

    def cdf_half(x):
        # integral of the density over [0, x], x >= 0
        if math.isinf(x):
            return 0.5
        total = 0.0
        m = int(x // delta)
        for r in range(m):
            total += a * math.exp(-r * eps) * delta * (gamma + math.exp(-eps) * (1 - gamma))
        rem = x - m * delta
        h = a * math.exp(-m * eps)
        total += h * min(rem, gamma * delta)
        if rem > gamma * delta:
            total += h * math.exp(-eps) * (rem - gamma * delta)
        return total

    def cdf(x):
        return 0.5 + cdf_half(x) if x >= 0 else 0.5 - cdf_half(-x)

    vals = np.array([cdf(e) for e in edges])
    return np.diff(vals)


def discrete_staircase_pmf(i, eps: float, delta: int, r: int):
    """Exact pmf of the discrete staircase noise at integer offsets i."""
    b = math.exp(-eps)
    a = (1.0 - b) / (2 * r + 2 * b * (delta - r) - (1.0 - b))
    i = np.abs(np.asarray(i))
    rung, off = np.divmod(i, delta)
    return a * b**rung * np.where(off < r, 1.0, b)


# ---------------------------------------------------------------------------
# privacy and sampler checks
# ---------------------------------------------------------------------------

def check_eps_dp(matrix: MechanismMatrix, eps: float) -> bool:
    """True iff every column's max/min entry ratio is at most e^eps (with a
    relative slack of 1e-9); all-zero columns are compliant, columns mixing
    zero and positive entries are not."""
    tilt = tilt_factor(eps)
    for o in range(matrix.n_outputs):
        col = matrix.rows[:, o]
        mx = float(np.max(col))
        if mx == 0.0:
            continue
        mn = float(np.min(col))
        if mn == 0.0 or mx > tilt * mn * (1.0 + DP_RATIO_SLACK):
            return False
    return True


def empirical_sampler_check(
    sampler,
    values,
    probs,
    trials: int,
    rng: Rng,
    significance: float = 0.001,
) -> bool:
    """Chi-square goodness of fit of a sampler against an analytic discrete
    distribution.  sampler(n, rng) must return n draws; draws not matching any
    support value fall into an implicit remainder cell.  True iff the fit is
    not rejected at the given significance."""
    # scipy.stats takes about a second to import; only this check needs it
    from scipy.stats import chi2

    if trials < 10**4:
        raise ValueError("need at least 1e4 trials for a meaningful check")
    values = np.asarray(list(values), dtype=float)
    probs = np.asarray(list(probs), dtype=float)
    order = np.argsort(values)
    values, probs = values[order], probs[order]
    draws = np.asarray(sampler(trials, rng), dtype=float)
    idx = np.searchsorted(values, draws)
    idx = np.clip(idx, 0, len(values) - 1)
    matched = np.isclose(values[idx], draws, rtol=1e-12, atol=1e-12)
    counts = np.bincount(idx[matched], minlength=len(values)).astype(float)
    other = float(np.sum(~matched))
    expected = probs * trials
    expected_other = max(0.0, 1.0 - probs.sum()) * trials
    if expected_other < 1e-9 and other > 0:
        return False
    cells_obs = list(counts) + ([other] if expected_other >= 1e-9 else [])
    cells_exp = list(expected) + ([expected_other] if expected_other >= 1e-9 else [])
    # lump sparse cells so the chi-square approximation is sound
    obs_main, exp_main, obs_rare, exp_rare = [], [], 0.0, 0.0
    for o, e in zip(cells_obs, cells_exp):
        if e < 5.0:
            obs_rare += o
            exp_rare += e
        else:
            obs_main.append(o)
            exp_main.append(e)
    if exp_rare > 0:
        obs_main.append(obs_rare)
        exp_main.append(exp_rare)
    if len(obs_main) < 2:
        return True
    obs_arr = np.asarray(obs_main)
    exp_arr = np.asarray(exp_main)
    # condition on the total so expected counts sum to the observed total
    exp_arr = exp_arr * obs_arr.sum() / exp_arr.sum()
    stat = float(np.sum((obs_arr - exp_arr) ** 2 / exp_arr))
    threshold = float(chi2.ppf(1.0 - significance, df=len(obs_arr) - 1))
    return stat <= threshold
