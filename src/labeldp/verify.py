"""Independent oracles for the optimality claims, and the suites behind
`labeldp verify` that run optimize_bins and the samplers against them.

The oracles are exhaustive partition search, the layered fill of the full
partition table, the mechanism-design linear program solved by scipy's
HiGHS, the privacy ratio check on explicit matrices, and a chi-square
harness for samplers against their analytic distributions.  None of them
shares code with the optimizer it checks.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import losses
from .binopt import BinLayout, optimize_bins, tilt_factor
from .core import ROW_SUM_TOL, MechanismMatrix, Prior, make_label_set, make_prior
from .losses import POISSON_YHAT_FLOOR, LossSpec
from .mechanisms import (
    NoiseParams,
    discrete_laplace_sample,
    rr_on_bins_matrix,
    rr_on_bins_randomize,
)

DP_RATIO_SLACK = 1e-9
LP_FEAS_TOL = 1e-7
# the LP's time and memory follow its 2km ratio rows: at k = m = 100 (20,000
# rows) HiGHS took 3.0-4.6 s with a 7.2 MB traced peak on a 2-core host, and
# other shapes of 20,000 rows, k = 1000 by m = 10 to k = 10 by m = 1000, took
# 2.1-5.4 s
LP_MAX_ROWS = 20_000


# ---------------------------------------------------------------------------
# exhaustive search over interval partitions
# ---------------------------------------------------------------------------

def _golden(fn, lo, hi, tol=1e-12):
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c, d = b - phi * (b - a), a + phi * (b - a)
    fc, fd = fn(c), fn(d)
    # from 8192 on one ulp is wider than tol, so stop at 4 ulps of the ends
    # too, where the bracket can no longer shrink
    while b - a > max(tol, 4.0 * math.ulp(max(abs(a), abs(b)))):
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

    def cost(v):
        return float(np.dot(w, loss.eval_fn(v, y)))

    # at the capped tilt the label that carries the mass pins the minimum, and
    # the tilt multiplies any distance from it, so each label in range competes
    at_labels = [(float(t), cost(t)) for t in y[(a <= y) & (y <= b)]]
    return min([_golden(cost, a, b)] + at_labels, key=lambda pair: pair[1])


def brute_force_optimal_bins(prior: Prior, eps: float, loss: LossSpec) -> BinLayout:
    """Enumerate every partition of the labels into consecutive intervals and
    return the best bin layout.  Exponential in k; limited to k <= 16.  Ties
    resolve toward the smallest bin count, then the lexicographically smallest
    boundary set."""
    k = prior.k
    if k > 16:
        raise ValueError(f"brute force limited to k <= 16 labels, got {k}")
    loss.check_labels(prior.labels.y_max)
    tilt = tilt_factor(eps)
    p = prior.probs
    y = prior.labels.values
    best = None
    for mask in range(1 << (k - 1)):
        ends = [i for i in range(k - 1) if mask >> i & 1] + [k - 1]
        spans = list(zip([0] + [e + 1 for e in ends[:-1]], ends))
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


def layered_objective(lval: np.ndarray, tilt: float) -> float:
    """The best objective min_d a[k][d] / (d - 1 + tilt), from a reference
    layered fill of the full table a[i][j], the best additive cost of
    splitting the first i labels into j bins (quadratic states, linear work
    per state), to cross-check the parametric ratio search.  lval holds the
    single-bin costs, packed by bin end as optimize_bins builds them."""
    k = _table_k(lval)
    a = np.full((k + 1, k + 1), np.inf)
    a[0, 0] = 0.0
    for j in range(1, k + 1):
        for i in range(j, k + 1):
            col = (i - 1) * i // 2  # L[0][i-1] in the packed table
            a[i, j] = np.min(a[j - 1: i, j - 1] + lval[col + j - 1: col + i])
    return float(np.min(a[k, 1:] / (np.arange(k) + tilt)))


def best_rr_on_bins_over_grid(prior: Prior, grid, eps: float, loss: LossSpec) -> float:
    """Best randomized-response-on-bins loss over all non-decreasing maps from
    the labels into subsets of a fixed output grid.  Exhaustive; small k only."""
    k = prior.k
    if k > 10:
        raise ValueError("grid enumeration limited to k <= 10")
    tilt = tilt_factor(eps)
    p = prior.probs
    y = prior.labels.values
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
# the mechanism LP
# ---------------------------------------------------------------------------

@dataclass
class LpSolution:
    matrix: MechanismMatrix | None
    objective: float | None
    status: str  # optimal | infeasible | unbounded | iteration_limit | numerical


def lp_optimal_mechanism(prior: Prior, outputs, eps: float, loss: LossSpec) -> LpSolution:
    """Solve for the loss-minimal eps-DP mechanism from the labels onto a
    fixed finite output set, as an explicit linear program over the matrix
    entries: row-stochastic equalities, non-negativity, and the column ratio
    M[y',o] <= e^eps M[y,o] for all labels y, y'.  That ratio holds exactly
    when some floor l_o has l_o <= M[y,o] <= e^eps l_o for every y, so the
    program adds one variable l_o per output and has 2km ratio rows, solved
    with the HiGHS dual simplex."""
    if not eps >= 0:
        raise ValueError(f"eps must be non-negative, got {eps}")
    outs = sorted(float(o) for o in outputs)
    k, m = prior.k, len(outs)
    if 2 * k * m > LP_MAX_ROWS:
        raise ValueError(f"LP size {k}x{m} needs {2 * k * m} ratio rows, "
                         f"more than {LP_MAX_ROWS}")
    # scipy.optimize takes most of a second to import; only the LP needs it
    from scipy import sparse
    from scipy.optimize import linprog

    inv_tilt = math.exp(-eps)
    lmat = loss.eval_grid(np.asarray(outs), prior.labels.values)
    # variable i*m + o is M[y_i -> o], variable k*m + o is l_o; row i sums to 1
    cell = np.arange(k * m)
    floor = k * m + cell % m
    c = np.concatenate([(prior.probs[:, None] * lmat).ravel(), np.zeros(m)])
    a_eq = sparse.csr_array((np.ones(k * m), (cell // m, cell)), shape=(k, k * m + m))
    # l_o - M[y_i -> o] <= 0, then the upper side scaled by e^-eps for
    # conditioning: e^-eps * M[y_i -> o] - l_o <= 0
    rows = np.arange(2 * k * m)
    vals = np.concatenate([np.ones(k * m), np.full(k * m, inv_tilt), -np.ones(2 * k * m)])
    cols = np.concatenate([floor, cell, cell, floor])
    a_ub = sparse.csr_array((vals, (np.tile(rows, 2), cols)), shape=(2 * k * m, k * m + m))

    res = linprog(c, A_ub=a_ub, b_ub=np.zeros(2 * k * m), A_eq=a_eq, b_eq=np.ones(k),
                  method="highs-ds")
    status = ("optimal", "iteration_limit", "infeasible", "unbounded", "numerical")[res.status]
    if status != "optimal":
        return LpSolution(matrix=None, objective=None, status=status)
    mat = np.maximum(res.x[: k * m].reshape(k, m), 0.0)
    # feasibility audit before declaring optimality; the rows are held to the
    # bound MechanismMatrix checks, so an audited answer always builds one
    if (np.max(np.abs(mat.sum(axis=1) - 1.0)) > ROW_SUM_TOL
            or np.any(inv_tilt * mat.max(axis=0) > mat.min(axis=0) + LP_FEAS_TOL)):
        return LpSolution(matrix=None, objective=None, status="numerical")
    matrix = MechanismMatrix(prior.labels, tuple(outs), mat)
    return LpSolution(matrix=matrix, objective=float(res.fun), status="optimal")


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
    for col in matrix.rows.T:
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
    rng: np.random.Generator,
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


# ---------------------------------------------------------------------------
# the suites behind `labeldp verify`
# ---------------------------------------------------------------------------

# 12, 30 and 800 check the tables where e^eps swamps the mass outside a bin
EPS_GRID = (0.0, 0.5, 1.0, 2.0, 5.0, 12.0, 30.0, 800.0)
ALL_LOSSES = (losses.SQUARED, losses.ABSOLUTE, losses.POISSON)
HUBER_EPS = tuple(e for e in EPS_GRID if e <= 5.0)


def _huber(yhat, y):
    """Huber loss with delta 5: on labels in 0.5..50, bins use both pieces."""
    r = np.abs(np.asarray(yhat, dtype=float) - np.asarray(y, dtype=float))
    return np.where(r <= 5.0, 0.5 * r * r, 5.0 * (r - 2.5))


HUBER = losses.custom_loss(_huber, convex_in_first_arg=True)


def _random_prior(rng, k_max, y_lo=0.0, y_hi=50.0):
    k = int(rng.integers(2, k_max + 1))
    vals = np.sort(rng.uniform(y_lo, y_hi, size=k))
    while len(np.unique(vals)) < k:
        vals = np.sort(rng.uniform(y_lo, y_hi, size=k))
    p = rng.dirichlet(np.ones(k) * float(rng.uniform(0.3, 3.0)))
    return make_prior(make_label_set(vals), p)


def check_oracle_equivalence(seed: int, instances: int, k_max: int):
    """The built-in losses over EPS_GRID, then one Huber instance per eps up
    to 5, drawn after them from the same stream."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    cases = [(EPS_GRID[t % len(EPS_GRID)], ALL_LOSSES[t % len(ALL_LOSSES)])
             for t in range(instances)] + [(e, HUBER) for e in HUBER_EPS]
    for t, (eps, loss) in enumerate(cases):
        prior = _random_prior(rng, k_max, y_lo=0.5)
        fast = optimize_bins(prior, eps, loss)
        slow = brute_force_optimal_bins(prior, eps, loss)
        # relative: at high eps the squared and absolute objectives are tiny
        gap = abs(fast.objective - slow.objective)
        if gap > 1e-9 * abs(slow.objective):
            return False, f"instance {t}: objective gap {gap:.3e} at eps {eps:g}"
        worst = max(worst, gap / abs(slow.objective) if gap else 0.0)
    return True, (f"{instances} instances and {len(HUBER_EPS)} huber, "
                  f"worst relative gap {worst:.2e}")


def check_lp_cross(seed: int, instances: int, k_theorem: int):
    """The LP against the grid enumeration at k <= 5, then the paper's
    theorem at k <= k_theorem: over a grid that holds optimize_bins' outputs
    the LP matches its objective, and over a random grid it stays above."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for t in range(instances):
        prior = _random_prior(rng, 5, y_lo=0.5, y_hi=10.0)
        m = int(rng.integers(2, 6))
        grid = np.sort(
            rng.uniform(prior.labels.y_min, prior.labels.y_max, size=m)
        )
        if len(np.unique(grid)) < m:
            continue
        eps = float(rng.choice([0.3, 0.5, 1.0, 2.0]))
        loss = ALL_LOSSES[t % len(ALL_LOSSES)]
        sol = lp_optimal_mechanism(prior, grid, eps, loss)
        if sol.status != "optimal":
            return False, f"instance {t}: LP status {sol.status}"
        enum = best_rr_on_bins_over_grid(prior, grid, eps, loss)
        gap = abs(sol.objective - enum)
        worst = max(worst, gap)
        if gap > 1e-6:
            return False, f"instance {t}: LP {sol.objective:.9f} vs grid best {enum:.9f}"
    worst_rel = 0.0
    for t in range(instances):
        prior = _random_prior(rng, k_theorem, y_lo=0.5, y_hi=10.0)
        eps = float(rng.choice([0.3, 0.5, 1.0, 2.0]))
        loss = ALL_LOSSES[t % len(ALL_LOSSES)]
        best = optimize_bins(prior, eps, loss)
        extra = rng.uniform(prior.labels.y_min, prior.labels.y_max, size=prior.k)
        holds = np.union1d(best.outputs, extra[: prior.k - best.d])
        for grid, exact in ((holds, True), (extra, False)):
            sol = lp_optimal_mechanism(prior, grid, eps, loss)
            if sol.status != "optimal":
                return False, f"theorem instance {t}: LP status {sol.status}"
            rel = (sol.objective - best.objective) / abs(best.objective)
            worst_rel = max(worst_rel, abs(rel) if exact else -rel)
            if rel < -1e-9 or (exact and rel > 1e-6):
                return False, f"theorem instance {t}: LP {sol.objective:.9f} vs {best.objective:.9f}"
    return True, (f"{instances} instances, worst gap {worst:.2e}; theorem at k <= {k_theorem}, "
                  f"worst relative gap {worst_rel:.2e}")


def check_dp_ratio(seed: int, instances: int):
    rng = np.random.default_rng(seed)
    for t in range(instances):
        prior = _random_prior(rng, 8, y_lo=0.5)
        eps = float(rng.choice([0.5, 1.0, 2.0, 5.0]))
        layout = optimize_bins(prior, eps, losses.SQUARED)
        matrix = rr_on_bins_matrix(layout, eps)
        if not check_eps_dp(matrix, eps):
            return False, f"instance {t}: matrix violates the ratio at eps {eps:.3g}"
        if layout.d >= 2 and eps >= 0.2 and check_eps_dp(matrix, eps - 0.1):
            return False, f"instance {t}: matrix passed at eps - 0.1 (too lax)"
    return True, f"{instances} matrices"


def check_samplers(seed: int, trials: int):
    rngs = [np.random.default_rng(child) for child in np.random.SeedSequence(seed).spawn(2)]
    # randomized response over bins, against its own matrix row
    prior = make_prior(make_label_set([0, 1, 2, 3]), [4, 3, 2, 1])
    layout = optimize_bins(prior, 1.5, losses.SQUARED)
    matrix = rr_on_bins_matrix(layout, 1.5)
    own = layout.assignments()[1]
    row = matrix.rows[1]

    def sample_rr(n, rng):
        return np.asarray(layout.outputs)[rr_on_bins_randomize(np.full(n, own), layout.d, 1.5, rng)]

    if not empirical_sampler_check(
        sample_rr, matrix.outputs, row, max(trials // 10, 10**4), rngs[0]
    ):
        return False, "binned randomized response row failed chi-square"

    # discrete laplace against its exact pmf
    params = NoiseParams(eps=1.0, sensitivity=1.0)
    js = np.arange(-40, 41)
    if not empirical_sampler_check(
        lambda n, rng: discrete_laplace_sample(np.zeros(n, dtype=int), params, rng),
        js,
        discrete_laplace_pmf(js, params.scale),
        trials,
        rngs[1],
    ):
        return False, "discrete laplace failed chi-square"
    return True, "binned RR and discrete laplace fit their analytic rows"


def run_suites(quick: bool = False, seed: int = 0):
    """Run all suites; returns a list of (name, passed, detail)."""
    if quick:
        sizes = dict(oracle=(40, 5), lp=(10, 6), dp=10, trials=10**4)
    else:
        sizes = dict(oracle=(150, 8), lp=(30, 60), dp=30, trials=10**5)
    return [("oracle-equivalence",) + check_oracle_equivalence(seed, *sizes["oracle"]),
            ("lp-cross-check",) + check_lp_cross(seed + 1, *sizes["lp"]),
            ("dp-ratio",) + check_dp_ratio(seed + 2, sizes["dp"]),
            ("sampler-fit",) + check_samplers(seed + 3, sizes["trials"])]
