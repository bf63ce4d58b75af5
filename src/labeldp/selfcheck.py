"""Built-in verification suites behind the `verify` CLI command: dynamic
program vs exhaustive search, LP cross-checks, privacy ratio checks on
generated matrices, and sampler goodness-of-fit."""
from __future__ import annotations

import numpy as np

from . import losses
from .binopt import optimize_bins
from .core import make_label_set, make_prior
from .mechanisms import (
    NoiseParams,
    discrete_laplace_sample,
    rr_on_bins_matrix,
    rr_on_bins_randomize,
)
from .verify import (
    best_rr_on_bins_over_grid,
    brute_force_optimal_bins,
    check_eps_dp,
    discrete_laplace_pmf,
    empirical_sampler_check,
    lp_optimal_mechanism,
)

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
    labels = make_label_set(vals)
    return make_prior(labels, p)


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
    checked = 0
    for t in range(instances):
        prior = _random_prior(rng, 8, y_lo=0.5)
        eps = float(rng.choice([0.5, 1.0, 2.0, 5.0]))
        layout = optimize_bins(prior, eps, losses.SQUARED)
        matrix = rr_on_bins_matrix(layout, eps)
        if not check_eps_dp(matrix, eps):
            return False, f"instance {t}: matrix violates the ratio at eps {eps:.3g}"
        if layout.d >= 2 and eps >= 0.2 and check_eps_dp(matrix, eps - 0.1):
            return False, f"instance {t}: matrix passed at eps - 0.1 (too lax)"
        checked += 1
    return True, f"{checked} matrices"


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
    ok = empirical_sampler_check(
        lambda n, rng: discrete_laplace_sample(np.zeros(n, dtype=int), params, rng),
        js,
        discrete_laplace_pmf(js, params.scale),
        trials,
        rngs[1],
    )
    if not ok:
        return False, "discrete laplace failed chi-square"
    return True, "binned RR and discrete laplace fit their analytic rows"


def run_suites(quick: bool = False, seed: int = 0):
    """Run all suites; returns a list of (name, passed, detail)."""
    if quick:
        sizes = dict(oracle=(40, 5), lp=(10, 6), dp=10, trials=10**4)
    else:
        sizes = dict(oracle=(150, 8), lp=(30, 12), dp=30, trials=10**5)
    return [("oracle-equivalence",) + check_oracle_equivalence(seed, *sizes["oracle"]),
            ("lp-cross-check",) + check_lp_cross(seed + 1, *sizes["lp"]),
            ("dp-ratio",) + check_dp_ratio(seed + 2, sizes["dp"]),
            ("sampler-fit",) + check_samplers(seed + 3, sizes["trials"])]
