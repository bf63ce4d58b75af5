import logging
import math

import numpy as np
import pytest

from labeldp import (
    Rng,
    default_budget_split,
    laplace_histogram,
    losses,
    make_label_set,
    make_prior,
    randomize,
    split_budget,
)


def test_histogram_noiseless_limit():
    ls = make_label_set([0, 1])
    indices = [0, 0, 1, 1]
    est = laplace_histogram(indices, ls, 1e6, Rng(0))
    assert est.prior.probs[0] == pytest.approx(0.5, abs=0.01)
    assert est.prior.probs[1] == pytest.approx(0.5, abs=0.01)
    # Laplace(2e-6) noise leaves each noised count within 1e-3 of the true one
    assert est.noised_counts == pytest.approx(np.bincount(indices), abs=1e-3)


def test_histogram_single_sample_point_mass():
    ls = make_label_set([0, 1, 2])
    est = laplace_histogram([2], ls, 1e6, Rng(1))
    assert est.prior.probs[2] == pytest.approx(1.0, abs=0.01)


def test_histogram_rejects_foreign_label():
    ls = make_label_set([0, 1])
    # the histogram takes universe indices: non-integers and indices past
    # the universe are foreign
    for indices in ([0, 0.5], [0, 2], [0, -1]):
        with pytest.raises(ValueError, match="index 1"):
            laplace_histogram(indices, ls, 1.0, Rng(0))
    with pytest.raises(ValueError):
        laplace_histogram([], ls, 1.0, Rng(0))
    with pytest.raises(ValueError):
        laplace_histogram([0], ls, 0.0, Rng(0))


def test_histogram_all_zero_fallback_is_uniform(caplog):
    ls = make_label_set([0, 1, 2])
    with caplog.at_level(logging.WARNING, logger="labeldp.prior"):
        est = laplace_histogram([0], ls, 0.05, Rng(20))
    assert est.prior.probs == pytest.approx((1 / 3, 1 / 3, 1 / 3))
    assert "uniform" in caplog.text


def test_histogram_counts_are_clamped_nonnegative():
    ls = make_label_set(range(10))
    est = laplace_histogram([0, 5, 5], ls, 0.2, Rng(3))
    assert all(c >= 0 for c in est.noised_counts)
    assert math.fsum(est.prior.probs) == pytest.approx(1.0, abs=1e-12)


def test_histogram_noise_scale_is_2_over_eps():
    # with a single huge count the relative error pins the scale: sample many
    # cells and match the mean absolute deviation of Lap(2/eps) = 2/eps
    ls = make_label_set(range(200))
    eps = 0.5
    est = laplace_histogram([0], ls, eps, Rng(4))
    dev = [c for c in est.noised_counts[1:] if c > 0]  # cells with count 0 + noise > 0
    # positive half of Lap(2/eps): mean of positives is the scale itself
    assert np.mean(dev) == pytest.approx(2 / eps, rel=0.2)


def test_histogram_l1_error_within_theory_bound():
    # Monte-Carlo version of the estimation guarantee with fitted constant 5
    k, n, eps1 = 10, 10**4, 0.1
    ls = make_label_set(range(k))
    weights = 1.0 / np.arange(1, k + 1) ** 1.2
    pr = make_prior(ls, weights)
    probs = pr.probs_array()
    root = Rng(5)
    errs = []
    for t in range(50):
        rng = root.spawn(t)
        cells = rng.gen.choice(k, size=n, p=probs)
        est = laplace_histogram(cells, ls, eps1, rng)
        errs.append(float(np.abs(est.prior.probs_array() - probs).sum()))
    bound = 5 * (math.sqrt(k / n) + k / (eps1 * n))
    assert np.mean(errs) <= bound


def test_budget_split_examples():
    b = default_budget_split(1.0, 100, 10**6)
    assert b.eps1 == pytest.approx(0.01, rel=1e-12)
    assert b.eps2 == pytest.approx(0.99, rel=1e-12)
    assert b.eps1 + b.eps2 == 1.0

    b2 = default_budget_split(0.5, 401, 1386176)
    assert b2.eps1 == pytest.approx(math.sqrt(401 / 1386176), rel=1e-12)
    assert b2.eps1 == pytest.approx(0.01701, abs=1e-5)
    assert b2.eps1 + b2.eps2 == 0.5


def test_budget_split_infeasible():
    with pytest.raises(ValueError, match="explicit split or more data"):
        default_budget_split(0.1, 10**4, 10**4)


def test_budget_split_sum_exact_random():
    rng = np.random.default_rng(6)
    for _ in range(200):
        eps = float(rng.uniform(0.05, 8.0))
        k = int(rng.integers(2, 500))
        n = int(rng.integers(10**4, 10**7))
        if math.sqrt(k / n) >= eps:
            continue
        b = default_budget_split(eps, k, n)
        assert b.eps1 + b.eps2 == eps
        assert b.total == eps


def _sums_to(eps, eps1):
    """Whether some eps2 within 4 ulps of eps - eps1 gives eps1 + eps2 == eps."""
    below = above = eps - eps1
    for _ in range(5):
        if eps1 + below == eps or eps1 + above == eps:
            return True
        below, above = math.nextafter(below, -math.inf), math.nextafter(above, math.inf)
    return False


def test_explicit_split_never_reads_above_eps():
    # eps - eps1 overshoots by one ulp, and no eps2 sums to eps exactly: eps
    # is odd in its last bit and eps1 sits half an ulp of eps off eps's grid
    eps, eps1 = 0.3549130432119025, 0.08615158271934684
    assert eps1 + (eps - eps1) > eps and not _sums_to(eps, eps1)
    b = split_budget(eps, eps1)
    assert b.eps1 == eps1
    assert b.total == math.nextafter(eps, 0.0)
    assert eps1 + math.nextafter(b.eps2, math.inf) > eps
    rng = np.random.default_rng(7)
    for eps, share in rng.uniform(0.01, 8.0, (2000, 2)):
        eps, eps1 = float(eps), float(eps * share / 8.0)
        b = split_budget(eps, eps1)
        assert b.total == eps if _sums_to(eps, eps1) else b.total < eps
        assert eps1 + math.nextafter(b.eps2, math.inf) > eps or b.total == eps
    assert split_budget(1.0, 1.0).eps2 == 0.0
    for eps1, match in ((0.0, "eps1 must be positive"), (math.nan, "eps1 must be positive"),
                        (1.5, "eps2 must be non-negative")):
        with pytest.raises(ValueError, match=match):
            split_budget(1.0, eps1)
    with pytest.raises(ValueError, match="eps2 must be non-negative, got nan"):
        split_budget(math.nan, 0.5)


def test_default_split_where_no_exact_sum_exists():
    # sqrt(1/20) sits half an ulp of eps off eps's grid, and eps is odd in
    # its last bit; this split used to be refused
    eps = math.nextafter(0.5, 0.0)
    assert not _sums_to(eps, math.sqrt(1 / 20))
    b = default_budget_split(eps, 1, 20)
    assert b.eps1 == math.sqrt(1 / 20) and b.total == math.nextafter(eps, 0.0)


def test_explicit_split_reaches_the_report():
    eps, eps1 = 0.3549130432119025, 0.08615158271934684
    _, report = randomize("rr-on-bins", [0, 1, 1, 2], make_label_set([0, 1, 2]), eps,
                          losses.by_name("squared"), Rng(1), eps1=eps1)
    assert report.budget.eps1 == eps1
    assert report.budget.total == math.nextafter(eps, 0.0)
