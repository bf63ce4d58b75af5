import math

import numpy as np
import pytest

from labeldp import (
    ABSOLUTE,
    POISSON,
    SQUARED,
    MechanismMatrix,
    Rng,
    brute_force_optimal_bins,
    check_eps_dp,
    empirical_sampler_check,
    expected_loss,
    lp_optimal_mechanism,
    make_label_set,
    make_prior,
    optimize_bins,
    rr_on_bins_matrix,
)
from labeldp.verify import best_rr_on_bins_over_grid, simplex_solve

ALL_LOSSES = (SQUARED, ABSOLUTE, POISSON)


def random_prior(rng, k_max=8, y_lo=0.5, y_hi=20.0):
    k = int(rng.integers(2, k_max + 1))
    vals = np.sort(rng.uniform(y_lo, y_hi, k))
    while len(np.unique(vals)) < k:
        vals = np.sort(rng.uniform(y_lo, y_hi, k))
    return make_prior(make_label_set(vals), rng.dirichlet(np.ones(k)))


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


# ---------------------------------------------------------------------------
# simplex / LP
# ---------------------------------------------------------------------------

def test_simplex_basic_lp():
    # max x1 + x2 s.t. x1 + x2 <= 1  ->  min -(x1+x2) = -1
    x, obj, status = simplex_solve(
        [-1.0, -1.0], [[1.0, 1.0]], [1.0], [], []
    )
    assert status == "optimal"
    assert obj == pytest.approx(-1.0)


def test_simplex_equality_and_bounds():
    # min x1 + 2 x2 s.t. x1 + x2 = 1 -> x = (1, 0)
    x, obj, status = simplex_solve([1.0, 2.0], [], [], [[1.0, 1.0]], [1.0])
    assert status == "optimal"
    assert obj == pytest.approx(1.0)
    assert x[0] == pytest.approx(1.0)


def test_simplex_infeasible():
    # x1 = 1 and x1 <= 0.5 cannot both hold with x >= 0
    x, obj, status = simplex_solve([1.0], [[1.0]], [0.5], [[1.0]], [1.0])
    assert status == "infeasible"


def test_simplex_degenerate_instance():
    # many tight zero rows; Bland's rule must not cycle
    a_ub = [[1.0, -1.0], [-1.0, 1.0], [1.0, 0.0]]
    b_ub = [0.0, 0.0, 2.0]
    x, obj, status = simplex_solve([-1.0, -1.0], a_ub, b_ub, [], [])
    assert status == "optimal"
    assert obj == pytest.approx(-4.0)


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
        float(np.dot(pr.probs_array(), (o - pr.labels.as_array()) ** 2)) for o in outs
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


def test_lp_size_guard():
    pr = make_prior(make_label_set(range(30)), np.ones(30))
    with pytest.raises(ValueError, match="400"):
        lp_optimal_mechanism(pr, range(30), 1.0, SQUARED)


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
        return rng.gen.choice(vals, size=n, p=probs)

    assert empirical_sampler_check(sampler, vals, probs, 10**5, Rng(1))


def test_sampler_check_power():
    # claimed row swaps 0.5 and 0.25; must be rejected at 1e5 draws
    true = np.array([0.5, 0.25, 0.25])
    claimed = np.array([0.25, 0.5, 0.25])
    vals = np.array([0.0, 1.0, 2.0])

    def sampler(n, rng):
        return rng.gen.choice(vals, size=n, p=true)

    assert not empirical_sampler_check(sampler, vals, claimed, 10**5, Rng(2))


def test_sampler_check_deterministic_point_mass():
    vals = np.array([3.0])

    def sampler(n, rng):
        return np.full(n, 3.0)

    assert empirical_sampler_check(sampler, vals, np.array([1.0]), 10**4, Rng(3))


def test_sampler_check_requires_enough_trials():
    with pytest.raises(ValueError):
        empirical_sampler_check(lambda n, r: np.zeros(n), [0.0], [1.0], 100, Rng(0))
