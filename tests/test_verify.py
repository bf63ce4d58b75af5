import dataclasses
import math
import re

import numpy as np
import pytest

from labeldp import (
    ABSOLUTE,
    POISSON,
    SQUARED,
    MechanismMatrix,
    brute_force_optimal_bins,
    check_eps_dp,
    custom_loss,
    discrete_laplace_sample,
    empirical_sampler_check,
    expected_loss,
    lp_optimal_mechanism,
    make_label_set,
    make_prior,
    optimize_bins,
    rr_on_bins_matrix,
)
from labeldp import binopt, losses, verify
from labeldp.binopt import tilt_factor
from labeldp.verify import (
    LP_MAX_ROWS,
    LpSolution,
    _golden,
    _interval_minimum,
    best_rr_on_bins_over_grid,
)

ALL_LOSSES = (SQUARED, ABSOLUTE, POISSON)


def prior_of_size(rng, k, y_lo=0.5, y_hi=20.0):
    vals = np.sort(rng.uniform(y_lo, y_hi, k))
    while len(np.unique(vals)) < k:
        vals = np.sort(rng.uniform(y_lo, y_hi, k))
    return make_prior(make_label_set(vals), rng.dirichlet(np.ones(k)))


def random_prior(rng, k_max=8, y_lo=0.5, y_hi=20.0):
    return prior_of_size(rng, int(rng.integers(2, k_max + 1)), y_lo, y_hi)


# ---------------------------------------------------------------------------
# brute force
# ---------------------------------------------------------------------------

def test_brute_force_single_label():
    pr = make_prior(make_label_set([3]), [1])
    lay = brute_force_optimal_bins(pr, 1.0, SQUARED)
    assert lay.d == 1
    assert lay.outputs == (3.0,)


def test_brute_force_spot_value():
    pr = make_prior(make_label_set([0, 1]), [1, 1])
    lay = brute_force_optimal_bins(pr, math.log(7), SQUARED)
    assert lay.objective == pytest.approx(7 / 64, abs=1e-12)
    assert lay.outputs == (pytest.approx(0.125, abs=1e-12), pytest.approx(0.875, abs=1e-12))


def test_brute_force_size_guard():
    pr = make_prior(make_label_set(range(17)), np.ones(17))
    with pytest.raises(ValueError, match="16"):
        brute_force_optimal_bins(pr, 1.0, SQUARED)


@pytest.mark.parametrize("eps", [-1.0, math.nan])
def test_oracles_refuse_a_negative_or_nan_eps(eps):
    pr = make_prior(make_label_set([0, 1, 2]), [1, 2, 3])
    with pytest.raises(ValueError, match=f"eps must be non-negative, got {eps}"):
        brute_force_optimal_bins(pr, eps, SQUARED)
    with pytest.raises(ValueError, match=f"eps must be non-negative, got {eps}"):
        lp_optimal_mechanism(pr, [0.5, 1.5], eps, SQUARED)


def test_brute_force_matches_optimizer():
    # past eps 5 the squared and absolute objectives shrink like e^-eps, so
    # the bound is relative only; 800 runs at the capped tilt
    eps_cases = (0.0, 0.5, 1.0, 2.0, 5.0, 8.0, 12.0, 20.0, 30.0, 50.0, 800.0)
    rng = np.random.default_rng(21)
    for t in range(10 * 3 * len(eps_cases)):
        pr = random_prior(rng)
        eps = eps_cases[t % len(eps_cases)]
        loss = ALL_LOSSES[t % 3]
        fast = optimize_bins(pr, eps, loss)
        slow = brute_force_optimal_bins(pr, eps, loss)
        assert fast.objective == pytest.approx(slow.objective, rel=1e-9, abs=0), (t, eps, loss.kind)


def test_golden_stops_at_float_resolution():
    # one ulp near 1e4 is 1.8e-12, wider than the 1e-12 tolerance
    x, v = _golden(lambda v: (v - 1e4 - 0.3) ** 2, 1e4, 1e4 + 3)
    assert x == pytest.approx(1e4 + 0.3, rel=1e-9)
    assert v <= (1e-9 * (1e4 + 0.3)) ** 2


@pytest.mark.parametrize("base", (1e4, 1e6))
def test_brute_force_custom_loss_on_large_labels(base):
    # the custom squared loss goes through the golden search, SQUARED through
    # the closed form
    custom_sq = custom_loss(lambda yhat, y: (np.asarray(yhat) - np.asarray(y)) ** 2, True)
    pr = make_prior(make_label_set(base + np.array([0.0, 0.5, 1.7, 3.0])), [1, 2, 3, 1])
    for eps in (0.0, 0.5, 2.0, 8.0):
        want = brute_force_optimal_bins(pr, eps, SQUARED).objective
        got = brute_force_optimal_bins(pr, eps, custom_sq).objective
        assert got == pytest.approx(want, rel=1e-9), eps


def test_interval_minimum_at_the_capped_tilt():
    # a one-label bin at eps 1e6: the tilt of 1e300 pins the minimum to the
    # label, which a golden search in yhat misses by about 1e-12
    quartic = custom_loss(lambda yhat, y: (np.asarray(yhat) - np.asarray(y)) ** 4, True)
    y = np.array([0.0, 0.5, 2.0, 3.5, 7.0, 9.5])
    p = np.array([0.1, 0.3, 0.05, 0.25, 0.2, 0.1])
    for r in range(len(y)):
        yhat, v = _interval_minimum(p, y, r, r, tilt_factor(1e6), quartic)
        assert yhat == y[r]
        assert v == pytest.approx(float(np.dot(p, (y[r] - y) ** 4)), rel=1e-12)


@pytest.mark.parametrize("loss, y_lo", [
    (custom_loss(losses._poisson, True, domain_min=0.0), 0.0),
    # squared error restricted to yhat > 0: a bin of labels below 0 outputs
    # the floor above 0, not their mean
    (custom_loss(losses._squared, True, domain_min=0.0), -5.0),
], ids=("poisson", "squared-above-0"))
def test_brute_force_clamps_a_custom_loss_to_its_domain(loss, y_lo):
    # a custom loss goes through the golden search, whose bracket starts just
    # above domain_min
    rng = np.random.default_rng(26)
    for t in range(20):
        vals = random_prior(rng, k_max=6, y_lo=y_lo, y_hi=5.0).labels.values.copy()
        vals[-1] = 5.0
        if t % 2:
            vals[0] = y_lo
        pr = make_prior(make_label_set(vals), rng.dirichlet(np.ones(len(vals))))
        eps = (0.0, 0.5, 2.0, 8.0)[t % 4]
        fast = optimize_bins(pr, eps, loss)
        slow = brute_force_optimal_bins(pr, eps, loss)
        assert fast.objective == pytest.approx(slow.objective, rel=1e-9, abs=0), (t, eps)


def test_optimizers_name_a_domain_above_every_label(monkeypatch):
    pr = make_prior(make_label_set([-3, -1]), [1, 1])
    # at the largest label the output sits just inside the domain and the range
    at_top = custom_loss(losses._squared, True, domain_min=-1.0)
    assert optimize_bins(pr, 1.0, at_top).objective == pytest.approx(
        brute_force_optimal_bins(pr, 1.0, at_top).objective, rel=1e-9)

    def no_table(*args):
        raise AssertionError("a table was built")

    monkeypatch.setattr(binopt, "_build_tables", no_table)
    above = custom_loss(losses._squared, True, domain_min=0.0)
    for solve in (optimize_bins, brute_force_optimal_bins):
        with pytest.raises(ValueError, match="custom loss has domain_min 0.0 above "
                                             "the largest label -1.0"):
            solve(pr, 1.0, above)


def test_brute_force_refuses_a_nonconvex_custom_loss():
    capped = custom_loss(lambda yhat, y: np.minimum(np.abs(yhat - y), 3.0), False)
    pr = make_prior(make_label_set([0.0, 1.0, 5.0]), [1, 2, 1])
    with pytest.raises(ValueError, match="convex"):
        brute_force_optimal_bins(pr, 1.0, capped)


# ---------------------------------------------------------------------------
# mechanism LP
# ---------------------------------------------------------------------------

def test_lp_spot_value_matches_rr():
    pr = make_prior(make_label_set([0, 1]), [1, 1])
    sol = lp_optimal_mechanism(pr, [0.125, 0.875], math.log(7), SQUARED)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(7 / 64, abs=1e-7)
    assert np.allclose(sol.matrix.rows, [[7 / 8, 1 / 8], [1 / 8, 7 / 8]], atol=1e-7)


def test_lp_high_eps_maps_to_nearest_output():
    pr = make_prior(make_label_set([0.0, 4.0, 10.0]), [1, 1, 1])
    outs = [1.0, 9.0]
    sol = lp_optimal_mechanism(pr, outs, 50.0, SQUARED)
    assert sol.status == "optimal"
    want = expected_loss(
        MechanismMatrix(pr.labels, tuple(outs), np.array([[1, 0], [1, 0], [0, 1.0]])),
        pr,
        SQUARED,
    )
    assert sol.objective == pytest.approx(want, rel=1e-6)


def test_lp_eps0_is_best_constant_row():
    rng = np.random.default_rng(22)
    pr = random_prior(rng, k_max=4)
    outs = np.sort(rng.uniform(pr.labels.y_min, pr.labels.y_max, 4))
    sol = lp_optimal_mechanism(pr, outs, 0.0, SQUARED)
    assert sol.status == "optimal"
    # eps = 0 forces identical rows; optimum is one fixed distribution, and
    # with squared loss a point mass on the best single output is optimal
    best_const = min(
        float(np.dot(pr.probs, (o - pr.labels.values) ** 2)) for o in outs
    )
    assert sol.objective == pytest.approx(best_const, abs=1e-7)
    assert np.max(np.abs(sol.matrix.rows - sol.matrix.rows[0])) < 1e-7


def test_lp_matches_grid_enumeration():
    rng = np.random.default_rng(23)
    for t in range(30):
        pr = random_prior(rng, k_max=5, y_hi=10.0)
        m = int(rng.integers(2, 6))
        grid = np.sort(rng.uniform(pr.labels.y_min, pr.labels.y_max, m))
        if len(np.unique(grid)) < m:
            continue
        eps = float(rng.choice([0.3, 1.0, 2.0]))
        loss = ALL_LOSSES[t % 3]
        sol = lp_optimal_mechanism(pr, grid, eps, loss)
        assert sol.status == "optimal"
        enum = best_rr_on_bins_over_grid(pr, grid, eps, loss)
        assert sol.objective == pytest.approx(enum, abs=1e-6)


def test_grid_enumeration_refuses_k_past_10():
    pr = make_prior(make_label_set(range(11)), np.ones(11))
    with pytest.raises(ValueError, match="grid enumeration limited to k <= 10"):
        best_rr_on_bins_over_grid(pr, [0.0, 5.0], 1.0, SQUARED)


def test_lp_feasibility_of_solution():
    rng = np.random.default_rng(24)
    pr = random_prior(rng, k_max=5)
    grid = np.linspace(pr.labels.y_min, pr.labels.y_max, 4)
    eps = 1.0
    sol = lp_optimal_mechanism(pr, grid, eps, SQUARED)
    assert sol.status == "optimal"
    rows = sol.matrix.rows
    assert np.all(rows >= -1e-12)
    assert np.allclose(rows.sum(axis=1), 1.0, atol=1e-7)
    tilt = math.exp(eps)
    for col in rows.T:
        assert col.max() <= tilt * col.min() + 1e-7


def test_lp_deterministic_objective():
    pr = make_prior(make_label_set([0, 1, 2]), [2, 1, 1])
    a = lp_optimal_mechanism(pr, [0.0, 1.0, 2.0], 1.0, SQUARED)
    b = lp_optimal_mechanism(pr, [0.0, 1.0, 2.0], 1.0, SQUARED)
    assert a.objective == b.objective


@pytest.mark.parametrize("off, status", [(5e-10, "optimal"), (5e-8, "numerical")])
def test_lp_audits_rows_at_the_matrix_tolerance(monkeypatch, off, status):
    # an answer whose rows pass the audit builds a MechanismMatrix; one whose
    # rows are off by more than it allows is reported, never raised
    import scipy.optimize

    def answer(c, **kwargs):
        x = np.array([0.5 + off, 0.5, 0.5, 0.5, 0.5, 0.5])
        return scipy.optimize.OptimizeResult(status=0, x=x, fun=float(np.dot(c, x)))

    monkeypatch.setattr(scipy.optimize, "linprog", answer)
    pr = make_prior(make_label_set([0, 1]), [1, 1])
    sol = lp_optimal_mechanism(pr, [0.0, 1.0], 1.0, SQUARED)
    assert sol.status == status
    assert (sol.matrix is not None) == (status == "optimal")


def test_lp_size_guard():
    # k = m = 100 is the largest square LP under the cap; one output or one
    # label more is refused before scipy is touched
    assert 2 * 100 * 100 == LP_MAX_ROWS
    pr = make_prior(make_label_set(range(100)), np.arange(1, 101))
    with pytest.raises(ValueError, match="20200 ratio rows, more than 20000"):
        lp_optimal_mechanism(pr, range(101), 1.0, SQUARED)
    wide = make_prior(make_label_set(range(101)), np.ones(101))
    with pytest.raises(ValueError, match="more than 20000"):
        lp_optimal_mechanism(wide, range(100), 1.0, SQUARED)


@pytest.mark.parametrize("loss", ALL_LOSSES, ids=lambda loss: loss.kind)
def test_lp_confirms_rr_on_bins_at_real_size(loss):
    # the paper's theorem against every eps-DP mechanism on a finite grid: a
    # grid that holds optimize_bins' outputs reaches its objective, and no
    # grid beats it; k = m = 60 also has HiGHS solve and pass the audit there
    rng = np.random.default_rng(25)
    for k, eps in ((4, 0.3), (9, 1.0), (14, 4.0), (20, 1.5), (60, 2.0)):
        pr = prior_of_size(rng, k)
        best = optimize_bins(pr, eps, loss)
        extra = rng.uniform(pr.labels.y_min, pr.labels.y_max, k)
        holds = lp_optimal_mechanism(pr, np.union1d(best.outputs, extra[: k - best.d]), eps, loss)
        free = lp_optimal_mechanism(pr, extra, eps, loss)
        assert holds.status == free.status == "optimal", (k, eps)
        assert holds.objective == pytest.approx(best.objective, rel=1e-6), (k, eps)
        assert free.objective >= best.objective - 1e-9 * abs(best.objective), (k, eps)


# ---------------------------------------------------------------------------
# privacy ratio check
# ---------------------------------------------------------------------------

def test_check_eps_dp_on_rr_matrices():
    pr = make_prior(make_label_set([0, 1, 2, 3]), [4, 3, 2, 1])
    for eps in (0.2, 0.5, 1.0, 3.0):
        lay = optimize_bins(pr, eps, SQUARED)
        m = rr_on_bins_matrix(lay, eps)
        assert check_eps_dp(m, eps)
        if lay.d >= 2:
            assert not check_eps_dp(m, eps - 0.1)


def test_check_eps_dp_identity_and_uniform():
    ls = make_label_set([0, 1])
    ident = MechanismMatrix(ls, (0.0, 1.0), np.eye(2))
    assert not check_eps_dp(ident, 5.0)
    uni = MechanismMatrix(ls, (0.0, 1.0), np.full((2, 2), 0.5))
    assert check_eps_dp(uni, 0.0)


def test_check_eps_dp_zero_column_ok():
    ls = make_label_set([0, 1])
    m = MechanismMatrix(ls, (0.0, 1.0, 2.0), np.array([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0]]))
    assert check_eps_dp(m, 0.0)


# ---------------------------------------------------------------------------
# chi-square harness
# ---------------------------------------------------------------------------

def test_sampler_check_matched():
    probs = np.array([0.5, 0.25, 0.25])
    vals = np.array([0.0, 1.0, 2.0])

    def sampler(n, rng):
        return rng.choice(vals, size=n, p=probs)

    assert empirical_sampler_check(sampler, vals, probs, 10**5, np.random.default_rng(1))


def test_sampler_check_power():
    # claimed row swaps 0.5 and 0.25; must be rejected at 1e5 draws
    true = np.array([0.5, 0.25, 0.25])
    claimed = np.array([0.25, 0.5, 0.25])
    vals = np.array([0.0, 1.0, 2.0])

    def sampler(n, rng):
        return rng.choice(vals, size=n, p=true)

    assert not empirical_sampler_check(sampler, vals, claimed, 10**5, np.random.default_rng(2))


def test_sampler_check_fails_draws_off_a_support_with_no_remainder():
    # the claimed probabilities sum to 1, so no draw may fall outside the values
    def sampler(n, rng):
        draws = rng.choice([0.0, 1.0], size=n)
        draws[0] = 0.5
        return draws

    assert not empirical_sampler_check(sampler, [0.0, 1.0], [0.5, 0.5], 10**4,
                                       np.random.default_rng(4))


def test_sampler_check_deterministic_point_mass():
    vals = np.array([3.0])

    def sampler(n, rng):
        return np.full(n, 3.0)

    assert empirical_sampler_check(sampler, vals, np.array([1.0]), 10**4, np.random.default_rng(3))


def test_sampler_check_requires_enough_trials():
    with pytest.raises(ValueError):
        empirical_sampler_check(lambda n, r: np.zeros(n), [0.0], [1.0], 100,
                                np.random.default_rng(0))


# ---------------------------------------------------------------------------
# the suites behind `labeldp verify`, each broken where it checks
# ---------------------------------------------------------------------------

def _worse_objective(monkeypatch):
    real = verify.optimize_bins

    def worse(prior, eps, loss):
        layout = real(prior, eps, loss)
        return dataclasses.replace(layout, objective=2.0 * layout.objective + 1.0)

    monkeypatch.setattr(verify, "optimize_bins", worse)


def _lp_in_phase(monkeypatch, theorem: bool, broken):
    """Replace the LP's answers with broken(solution) in one phase of
    check_lp_cross: the theorem phase starts at its first optimize_bins."""
    real_lp, real_opt, started = verify.lp_optimal_mechanism, verify.optimize_bins, []

    def lp(*args):
        sol = real_lp(*args)
        return broken(sol) if bool(started) == theorem else sol

    monkeypatch.setattr(verify, "optimize_bins", lambda *a: started.append(1) or real_opt(*a))
    monkeypatch.setattr(verify, "lp_optimal_mechanism", lp)


def _not_optimal(sol):
    return LpSolution(matrix=None, objective=None, status="numerical")


def _shifted(sol):
    return dataclasses.replace(sol, objective=0.5 * sol.objective)


@pytest.mark.parametrize("check, args, breaks, detail", [
    (verify.check_oracle_equivalence, (3, 5), _worse_objective,
     r"^instance 0: objective gap \S+ at eps 0$"),
    (verify.check_lp_cross, (3, 6), lambda mp: _lp_in_phase(mp, False, _not_optimal),
     r"^instance 0: LP status numerical$"),
    (verify.check_lp_cross, (3, 6), lambda mp: _lp_in_phase(mp, False, _shifted),
     r"^instance 0: LP \S+ vs grid best \S+$"),
    (verify.check_lp_cross, (3, 6), lambda mp: _lp_in_phase(mp, True, _not_optimal),
     r"^theorem instance 0: LP status numerical$"),
    (verify.check_lp_cross, (3, 6), lambda mp: _lp_in_phase(mp, True, _shifted),
     r"^theorem instance 0: LP \S+ vs \S+$"),
    (verify.check_dp_ratio, (5,),
     lambda mp: mp.setattr(verify, "check_eps_dp", lambda matrix, eps: True),
     r"^instance \d: matrix passed at eps - 0\.1 \(too lax\)$"),
    (verify.check_samplers, (10**4,),
     lambda mp: mp.setattr(verify, "rr_on_bins_randomize", lambda own, d, eps, rng: own),
     r"^binned randomized response row failed chi-square$"),
    (verify.check_samplers, (10**4,),
     lambda mp: mp.setattr(verify, "discrete_laplace_sample",
                           lambda y, params, rng: discrete_laplace_sample(y, params, rng) + 1),
     r"^discrete laplace failed chi-square$"),
], ids=("oracle-gap", "lp-status", "lp-vs-grid", "theorem-status", "theorem-gap",
        "dp-too-lax", "rr-skewed", "discrete-laplace-shifted"))
def test_verify_suite_fails_where_its_check_breaks(monkeypatch, check, args, breaks, detail):
    ok, text = check(7, *args)
    assert ok is True, text
    breaks(monkeypatch)
    ok, text = check(7, *args)
    assert ok is False
    assert re.match(detail, text), text
