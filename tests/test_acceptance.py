"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.  Criterion 11 needs a real conversion-value extract
(one numeric label per line) pointed to by $LABELDP_CRITEO_FILE and skips
when the variable is unset.
"""
import math
import os
import time

import numpy as np
import pytest
from scipy.stats import chi2

from labeldp import (
    ABSOLUTE,
    POISSON,
    SQUARED,
    NoiseParams,
    brute_force_optimal_bins,
    check_eps_dp,
    discrete_laplace_sample,
    discrete_staircase_sample,
    expected_loss,
    exponential_mechanism_sample,
    laplace_histogram,
    laplace_sample,
    make_label_set,
    make_prior,
    optimize_bins,
    randomize,
    rr_on_bins_matrix,
    rr_on_bins_randomize,
    staircase_sample,
)
from labeldp.binopt import (
    _build_tables,
    inner_min_absolute,
    inner_min_generic,
    inner_min_poisson,
    inner_min_squared,
    tilt_factor,
)
from labeldp.prior import default_budget_split
from labeldp.verify import (
    best_rr_on_bins_over_grid,
    discrete_laplace_pmf,
    discrete_staircase_pmf,
    empirical_sampler_check,
    lp_optimal_mechanism,
    square_table,
    staircase_interval_probs,
)

ALL_LOSSES = (SQUARED, ABSOLUTE, POISSON)
SIGNIFICANCE = 0.001


def report(num, ok, detail):
    print(f"\n[criterion {num:>2}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def random_prior(rng, k, y_lo=0.5, y_hi=30.0):
    vals = np.sort(rng.uniform(y_lo, y_hi, k))
    while len(np.unique(vals)) < k:
        vals = np.sort(rng.uniform(y_lo, y_hi, k))
    return make_prior(make_label_set(vals), rng.dirichlet(np.ones(k)))


def chi_square_cells(counts, probs):
    """Chi-square statistic vs threshold at the suite significance; cells with
    expected count < 5 are lumped together first."""
    counts = np.asarray(counts, dtype=float)
    n = counts.sum()
    expected = np.asarray(probs, dtype=float) * n
    obs_main, exp_main, o_rare, e_rare = [], [], 0.0, 0.0
    for o, e in zip(counts, expected):
        if e < 5.0:
            o_rare += o
            e_rare += e
        else:
            obs_main.append(o)
            exp_main.append(e)
    if e_rare > 0:
        obs_main.append(o_rare)
        exp_main.append(e_rare)
    obs = np.asarray(obs_main)
    exp = np.asarray(exp_main) * n / np.sum(exp_main)
    stat = float(np.sum((obs - exp) ** 2 / exp))
    return stat, float(chi2.ppf(1 - SIGNIFICANCE, df=len(obs) - 1))


def zipf_prior(universe, a):
    ranks = np.arange(1, universe.k + 1, dtype=float)
    return make_prior(universe, ranks ** (-a))


def test_criterion_1_oracle_equivalence():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    for t in range(300):
        k = int(rng.integers(2, 9))
        prior = random_prior(rng, k)
        eps = float((0.0, 0.5, 1.0, 2.0, 5.0)[t % 5])
        loss = ALL_LOSSES[t % 3]
        fast = optimize_bins(prior, eps, loss)
        slow = brute_force_optimal_bins(prior, eps, loss)
        worst = max(worst, abs(fast.objective - slow.objective))
        if abs(fast.objective - slow.objective) > 1e-9:
            report(1, False, f"instance {t}: {fast.objective} vs {slow.objective}")
    elapsed = time.perf_counter() - t0
    report(
        1,
        elapsed < 30.0,
        f"300 instances, worst objective gap {worst:.2e}, {elapsed:.1f}s (< 30s)",
    )


def test_criterion_2_lp_cross_check():
    rng = np.random.default_rng(102)
    t0 = time.perf_counter()
    worst = 0.0
    done = 0
    while done < 50:
        k = int(rng.integers(2, 6))
        prior = random_prior(rng, k, y_hi=10.0)
        m = int(rng.integers(2, 6))
        grid = np.sort(rng.uniform(prior.labels.y_min, prior.labels.y_max, m))
        if len(np.unique(grid)) < m:
            continue
        eps = float(rng.choice([0.3, 0.5, 1.0, 2.0]))
        loss = ALL_LOSSES[done % 3]
        sol = lp_optimal_mechanism(prior, grid, eps, loss)
        if sol.status != "optimal":
            report(2, False, f"LP status {sol.status} on instance {done}")
        enum = best_rr_on_bins_over_grid(prior, grid, eps, loss)
        gap = abs(sol.objective - enum)
        worst = max(worst, gap)
        if gap > 1e-6:
            report(2, False, f"instance {done}: LP {sol.objective} vs grid {enum}")
        done += 1
    elapsed = time.perf_counter() - t0
    report(2, elapsed < 60.0, f"50 instances, worst gap {worst:.2e}, {elapsed:.1f}s (< 60s)")


def test_criterion_3_closed_form_spot_values():
    prior = make_prior(make_label_set([0, 1]), [1, 1])
    lay0 = optimize_bins(prior, 0.0, SQUARED)
    ok = lay0.objective == 0.25 and lay0.d == 1
    lay7 = optimize_bins(prior, math.log(7), SQUARED)
    ok = ok and abs(lay7.objective - 7 / 64) <= 1e-12
    ok = ok and abs(lay7.outputs[0] - 0.125) <= 1e-12
    ok = ok and abs(lay7.outputs[1] - 0.875) <= 1e-12
    report(
        3,
        ok,
        f"eps=0 objective {lay0.objective}; eps=ln7 objective {lay7.objective} "
        f"outputs {tuple(round(v, 6) for v in lay7.outputs)}",
    )


def test_criterion_4_inner_solver_identities():
    rng = np.random.default_rng(104)
    worst_gen, worst_amort = 0.0, 0.0
    for _ in range(100):
        k = int(rng.integers(2, 10))
        prior = random_prior(rng, k, y_lo=0.5, y_hi=10.0)
        r = int(rng.integers(1, k + 1))
        i = int(rng.integers(r, k + 1))
        eps = float(rng.uniform(0.0, 5.0))
        # closed forms vs the generic convex solver
        for fast, spec in ((inner_min_squared, SQUARED), (inner_min_poisson, POISSON)):
            _, v = fast(prior, r, i, eps)
            _, vg = inner_min_generic(prior, r, i, eps, spec)
            gap = abs(v - vg)
            worst_gen = max(worst_gen, gap)
            if gap > 1e-8 * max(1.0, abs(v)):
                report(4, False, f"{spec.kind} generic gap {gap:.2e}")
        # weighted median satisfies its cumulative-weight definition exactly
        yhat, _ = inner_min_absolute(prior, r, i, eps)
        w = prior.probs.copy()
        w[r - 1: i] *= math.exp(eps)
        ys = prior.labels.values
        j = int(np.searchsorted(ys, yhat))
        cum = np.cumsum(w)
        if not (cum[j] >= cum[-1] / 2 and (j == 0 or cum[j - 1] < cum[-1] / 2)):
            report(4, False, f"wmed violates its definition at index {j}")
        # amortized tables vs from-scratch recomputation
        for spec, fast in (
            (SQUARED, inner_min_squared),
            (POISSON, inner_min_poisson),
            (ABSOLUTE, inner_min_absolute),
        ):
            lval = square_table(_build_tables(prior, tilt_factor(eps), spec))
            _, v = fast(prior, r, i, eps)
            gap = abs(lval[r - 1, i - 1] - v)
            worst_amort = max(worst_amort, gap / max(1.0, abs(v)))
            if gap > 1e-12 * max(1.0, abs(v)):
                report(4, False, f"{spec.kind} amortized gap {gap:.2e} at ({r},{i})")
    report(
        4,
        True,
        f"100 triples; worst generic gap {worst_gen:.2e}, "
        f"worst amortized relative gap {worst_amort:.2e}",
    )


def measure_optimize(k, loss, reps=3):
    prior = make_prior(make_label_set(range(k)), np.arange(1, k + 1, dtype=float) ** -1.2)
    best = math.inf
    for _ in range(reps):
        t0 = time.perf_counter()
        optimize_bins(prior, 1.0, loss)
        best = min(best, time.perf_counter() - t0)
    return best


def test_criterion_5_quadratic_runtime():
    details = []
    for loss in (SQUARED, ABSOLUTE):
        measure_optimize(100, loss, reps=1)  # warm up caches and allocators
        t401 = measure_optimize(401, loss)
        t100 = measure_optimize(100, loss)
        t200 = measure_optimize(200, loss)
        t400 = measure_optimize(400, loss)
        r1, r2 = t200 / t100, t400 / t200
        details.append(f"{loss.kind} k=401 in {t401*1000:.1f}ms, doubling ratios {r1:.2f} and {r2:.2f}")
        if not (t401 < 1.0 and r1 <= 4.5 and r2 <= 4.5):
            report(5, False, details[-1] + " (need < 1s and <= 4.5)")
    report(5, True, "; ".join(details) + " (< 1s, <= 4.5)")


def test_criterion_6_privacy_ratio():
    rng = np.random.default_rng(106)
    checked = 0
    for _ in range(60):
        k = int(rng.integers(2, 9))
        prior = random_prior(rng, k)
        eps = float(rng.uniform(0.2, 4.0))
        layout = optimize_bins(prior, eps, SQUARED)
        matrix = rr_on_bins_matrix(layout, eps)
        if not check_eps_dp(matrix, eps):
            report(6, False, f"matrix failed at its own eps {eps:.3f}")
        if layout.d >= 2 and check_eps_dp(matrix, eps - 0.1):
            report(6, False, f"matrix passed at eps - 0.1 (eps {eps:.3f}, d {layout.d})")
        checked += 1
    report(6, True, f"{checked} generated matrices pass at eps and fail at eps - 0.1")


def test_criterion_7_sampler_fidelity():
    rngs = [np.random.default_rng(child) for child in np.random.SeedSequence(107).spawn(7)]
    n = 10**5
    details = []

    # binned randomized response against its matrix row
    prior = make_prior(make_label_set([0, 1, 2, 3]), [4, 3, 2, 1])
    layout = optimize_bins(prior, 1.5, SQUARED)
    matrix = rr_on_bins_matrix(layout, 1.5)
    row = matrix.rows[1]
    own = layout.assignments()[1]
    ok = empirical_sampler_check(
        lambda m, r: np.asarray(layout.outputs)[rr_on_bins_randomize(np.full(m, own), layout.d, 1.5, r)],
        matrix.outputs, row, n, rngs[0], SIGNIFICANCE,
    )
    details.append(("rr-on-bins", ok))

    # plain randomized response
    q, eps = 5, 1.0
    stay = math.exp(eps) / (math.exp(eps) + q - 1)
    probs = np.full(q, (1 - stay) / (q - 1))
    probs[2] = stay
    ok = empirical_sampler_check(
        lambda m, r: np.arange(1, q + 1)[rr_on_bins_randomize(np.full(m, 2), q, eps, r)],
        np.arange(1, q + 1), probs, n, rngs[1], SIGNIFICANCE,
    )
    details.append(("rr", ok))

    # discrete laplace, exact pmf
    params = NoiseParams(eps=1.0, sensitivity=1.0)
    js = np.arange(-60, 61)
    ok = empirical_sampler_check(
        lambda m, r: discrete_laplace_sample(np.zeros(m, dtype=int), params, r),
        js, discrete_laplace_pmf(js, params.scale), n, rngs[2], SIGNIFICANCE,
    )
    details.append(("discrete-laplace", ok))

    # discrete staircase, exact pmf
    dsp = NoiseParams(eps=1.0, sensitivity=10.0)
    r_step = dsp.discrete_r(10)
    js = np.arange(-400, 401)
    ok = empirical_sampler_check(
        lambda m, r: discrete_staircase_sample(np.zeros(m, dtype=int), dsp, r),
        js, discrete_staircase_pmf(js, 1.0, 10, r_step), n, rngs[3], SIGNIFICANCE,
    )
    details.append(("discrete-staircase", ok))

    # continuous laplace on analytic CDF cells
    lp = NoiseParams(eps=2.0, sensitivity=10.0)
    b = lp.scale
    draws = laplace_sample(np.zeros(n), lp, rngs[4])
    edges = np.linspace(-25, 25, 26)

    def lap_cdf(x):
        return 0.5 * math.exp(x / b) if x < 0 else 1 - 0.5 * math.exp(-x / b)

    cdfs = [0.0] + [lap_cdf(e) for e in edges] + [1.0]
    probs = np.diff(cdfs)
    counts = np.histogram(draws, bins=np.concatenate([[-np.inf], edges, [np.inf]]))[0]
    stat, thresh = chi_square_cells(counts, probs)
    details.append(("laplace", stat <= thresh))
    var_ok = abs(np.var(draws) - 2 * b * b) <= 0.1 * 2 * b * b
    details.append(("laplace-variance", var_ok))

    # continuous staircase on exact step cells
    sp = NoiseParams(eps=1.0, sensitivity=10.0)
    gamma = sp.gamma()
    draws = staircase_sample(np.zeros(n), sp, rngs[5])
    edges = np.concatenate([[-np.inf], np.linspace(-40, 40, 33), [np.inf]])
    probs = staircase_interval_probs(edges, 1.0, 10.0, gamma)
    counts = np.histogram(draws, bins=np.concatenate([[-1e308], edges[1:-1], [1e308]]))[0]
    stat, thresh = chi_square_cells(counts, probs)
    details.append(("staircase", stat <= thresh))

    # exponential mechanism: truncated-laplace cells on [lo, hi]
    y, lo, hi, eps = 3.0, 0.0, 10.0, 2.0
    scale = 2 * (hi - lo) / eps
    draws = exponential_mechanism_sample(np.full(n, y), lo, hi, eps, rngs[6])

    def trunc_cdf(x):
        def raw(t):
            return 0.5 * math.exp((t - y) / scale) if t < y else 1 - 0.5 * math.exp(-(t - y) / scale)

        return (raw(x) - raw(lo)) / (raw(hi) - raw(lo))

    edges = np.linspace(lo, hi, 21)
    probs = np.diff([trunc_cdf(e) for e in edges])
    counts = np.histogram(draws, bins=edges)[0]
    stat, thresh = chi_square_cells(counts, probs)
    details.append(("exponential", stat <= thresh))

    bad = [name for name, ok in details if not ok]
    report(7, not bad, f"{len(details)} checks at 1e5 draws: " + (
        "all fit their analytic distributions" if not bad else f"failed: {bad}"
    ))


def test_criterion_8_prior_estimation_bound():
    t0 = time.perf_counter()
    k, n = 10, 10**4
    universe = make_label_set(range(k))
    prior = zipf_prior(universe, 1.2)
    probs = prior.probs
    results = []
    for idx, eps1 in enumerate((0.05, 0.1, 0.5)):
        root = np.random.SeedSequence(108 + idx)
        errs = []
        for t in range(200):
            rng = np.random.default_rng(root.spawn(1)[0])
            cells = rng.choice(universe.k, size=n, p=probs)
            est = laplace_histogram(cells, universe, eps1, rng)
            errs.append(float(np.abs(est.prior.probs - probs).sum()))
        bound = 5 * (math.sqrt(k / n) + k / (eps1 * n))
        results.append((eps1, float(np.mean(errs)), bound))
        if np.mean(errs) > bound:
            report(8, False, f"eps1={eps1}: mean L1 {np.mean(errs):.4f} > bound {bound:.4f}")
    elapsed = time.perf_counter() - t0
    detail = "; ".join(f"eps1={e}: {m:.4f} <= {b:.4f}" for e, m, b in results)
    report(8, elapsed < 60.0, f"{detail}; {elapsed:.1f}s (< 60s)")


def test_criterion_9_two_step_convergence():
    eps = 1.0
    universe = make_label_set(range(51))
    prior = zipf_prior(universe, 1.5)
    probs = prior.probs
    lstar = optimize_bins(prior, eps, SQUARED).objective
    b_max = (universe.y_max - universe.y_min) ** 2

    gaps, ses = [], []
    for idx, n in enumerate((10**3, 10**4, 10**5)):
        budget = default_budget_split(eps, universe.k, n)
        root = np.random.SeedSequence(109 + idx)
        trial_gaps = []
        for t in range(20):
            rng = np.random.default_rng(root.spawn(1)[0])
            cells = rng.choice(universe.k, size=n, p=probs)
            est = laplace_histogram(cells, universe, budget.eps1, rng)
            layout = optimize_bins(est.prior, budget.eps2, SQUARED)
            achieved = expected_loss(rr_on_bins_matrix(layout, budget.eps2), prior, SQUARED)
            trial_gaps.append(achieved - lstar)
        gaps.append(float(np.mean(trial_gaps)))
        ses.append(float(np.std(trial_gaps, ddof=1) / math.sqrt(len(trial_gaps))))

    monotone = all(
        gaps[i + 1] <= gaps[i] + math.sqrt(ses[i] ** 2 + ses[i + 1] ** 2)
        for i in range(len(gaps) - 1)
    )
    final_bound = 5 * b_max * math.sqrt(universe.k / 10**5)
    ok = monotone and gaps[-1] <= final_bound
    report(
        9,
        ok,
        f"gaps {[f'{g:.3f}' for g in gaps]} (se {[f'{s:.3f}' for s in ses]}), "
        f"final {gaps[-1]:.3f} <= {final_bound:.1f}",
    )


def test_criterion_10_baseline_dominance():
    universe = make_label_set(range(401))
    prior = zipf_prior(universe, 1.2)
    probs = prior.probs
    grid = universe.values
    lo, hi = 0.0, 400.0
    n = 10**4
    eps_grid = (0.5, 1.0, 2.0, 4.0)
    mechanisms = ("rr-on-bins", "laplace+clip", "staircase+clip", "exponential")
    means = {}
    for eps in eps_grid:
        table = {m: [] for m in mechanisms}
        for seed in range(10):
            ys = np.random.default_rng(110 + seed).choice(grid, size=n, p=probs)
            rngs = [np.random.default_rng(c) for c in np.random.SeedSequence(110 + seed).spawn(4)]

            # rr-on-bins splits eps by default_budget_split
            _, rep = randomize("rr-on-bins", ys, universe, eps, SQUARED, rngs[0])
            table["rr-on-bins"].append(rep.mechanism_loss_on_inputs)

            # sensitivity hi - lo, outputs clipped into [lo, hi]
            lap = randomize("laplace", ys, universe, eps, SQUARED, rngs[1])[0].values
            table["laplace+clip"].append(float(np.mean((lap - ys) ** 2)))

            stair = randomize("staircase", ys, universe, eps, SQUARED, rngs[2])[0].values
            table["staircase+clip"].append(float(np.mean((stair - ys) ** 2)))

            expd = exponential_mechanism_sample(ys.astype(float), lo, hi, eps, rngs[3])
            table["exponential"].append(float(np.mean((expd - ys) ** 2)))
        means[eps] = {m: float(np.mean(v)) for m, v in table.items()}
        for m in mechanisms[1:]:
            if not means[eps]["rr-on-bins"] < means[eps][m]:
                report(10, False, f"eps={eps}: rr-on-bins {means[eps]['rr-on-bins']:.1f} "
                                  f"not < {m} {means[eps][m]:.1f}")
    detail = "; ".join(
        f"eps={e}: rr {means[e]['rr-on-bins']:.0f} < "
        + ",".join(f"{means[e][m]:.0f}" for m in mechanisms[1:])
        for e in eps_grid
    )
    report(10, True, detail)


def test_criterion_11_conversion_extract():
    path = os.environ.get("LABELDP_CRITEO_FILE")
    if not path:
        pytest.skip("LABELDP_CRITEO_FILE not set; data-gated check skipped")
    with open(path) as fh:
        raw = [float(line) for line in fh.read().split()]
    universe = make_label_set(range(401))
    ys = np.clip(np.floor(raw), 0, 400)
    _, rep = randomize("rr-on-bins", ys, universe, 0.5, SQUARED, np.random.default_rng(111))
    mse = rep.mechanism_loss_on_inputs
    lo, hi = 10977.09 - 3 * 885, 10977.09 + 3 * 885
    report(11, lo <= mse <= hi, f"mechanism MSE {mse:.2f} within [{lo:.0f}, {hi:.0f}]")
