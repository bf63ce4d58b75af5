import math

import numpy as np
import pytest

from labeldp import (
    SQUARED,
    EpsilonBudget,
    LabelSet,
    MechanismMatrix,
    expected_loss,
    make_label_set,
    make_prior,
)


def test_make_label_set_sorts_and_dedups():
    ls = make_label_set([3, 1, 2, 2])
    assert ls.values == (1.0, 2.0, 3.0)
    assert ls.k == 3
    assert make_label_set([0]).values == (0.0,)
    assert make_label_set([0.5, 400.0]).values == (0.5, 400.0)


def test_make_label_set_rejects_bad_input():
    with pytest.raises(ValueError):
        make_label_set([])
    with pytest.raises(ValueError, match="index 2"):
        make_label_set([1.0, 2.0, float("nan")])
    with pytest.raises(ValueError, match="index 1"):
        make_label_set([1.0, float("inf")])


def test_make_prior_examples():
    ls = make_label_set([0, 1])
    assert make_prior(ls, [1, 1]).probs == (0.5, 0.5)
    ls3 = make_label_set([0, 1, 2])
    assert make_prior(ls3, [0, 0, 5]).probs == (0.0, 0.0, 1.0)
    assert make_prior(make_label_set([1, 2]), [3, 1]).probs == (0.75, 0.25)


def test_make_prior_rejects_bad_weights():
    ls = make_label_set([0, 1])
    with pytest.raises(ValueError):
        make_prior(ls, [1, 1, 1])
    with pytest.raises(ValueError):
        make_prior(ls, [0, 0])
    with pytest.raises(ValueError, match="negative"):
        make_prior(ls, [1, -1])


@pytest.mark.parametrize("eps1, eps2", [(math.nan, 1.0), (1.0, math.nan), (-1.0, 1.0)])
def test_budget_rejects_nan_and_negative_components(eps1, eps2):
    with pytest.raises(ValueError, match="non-negative"):
        EpsilonBudget(eps1, eps2)
    assert EpsilonBudget(0.0, math.inf).total == math.inf


def test_matrix_validation():
    ls = make_label_set([0, 1])
    with pytest.raises(ValueError, match="row"):
        MechanismMatrix(ls, (0.0, 1.0), np.array([[0.6, 0.3], [0.5, 0.5]]))
    with pytest.raises(ValueError, match="non-negative"):
        MechanismMatrix(ls, (0.0, 1.0), np.array([[1.1, -0.1], [0.5, 0.5]]))


def test_expected_loss_identity_is_zero():
    ls = make_label_set([0, 1])
    pr = make_prior(ls, [1, 1])
    ident = MechanismMatrix(ls, (0.0, 1.0), np.eye(2))
    assert expected_loss(ident, pr, SQUARED) == 0.0


def test_expected_loss_constant_predictor():
    ls = make_label_set([0, 1])
    pr = make_prior(ls, [1, 1])
    const = MechanismMatrix(ls, (0.5,), np.ones((2, 1)))
    assert expected_loss(const, pr, SQUARED) == pytest.approx(0.25, abs=1e-15)


def test_expected_loss_rr_spot_value():
    # direct expansion: 0.5*(7/8*(1/8)^2 + 1/8*(7/8)^2) * 2 = 7/64
    ls = make_label_set([0, 1])
    pr = make_prior(ls, [1, 1])
    m = MechanismMatrix(
        ls, (0.125, 0.875), np.array([[7 / 8, 1 / 8], [1 / 8, 7 / 8]])
    )
    assert expected_loss(m, pr, SQUARED) == pytest.approx(7 / 64, abs=1e-15)


def test_expected_loss_label_mismatch():
    pr = make_prior(make_label_set([0, 1]), [1, 1])
    other = MechanismMatrix(make_label_set([0, 2]), (0.0, 1.0), np.eye(2))
    with pytest.raises(ValueError, match="label set"):
        expected_loss(other, pr, SQUARED)


def test_expected_loss_linear_in_matrix():
    rng = np.random.default_rng(0)
    ls = make_label_set([0.0, 1.0, 3.0, 4.5])
    pr = make_prior(ls, rng.dirichlet(np.ones(4)))
    outs = (0.5, 2.0, 4.0)

    def rand_matrix():
        rows = rng.dirichlet(np.ones(3), size=4)
        return MechanismMatrix(ls, outs, rows)

    m1, m2 = rand_matrix(), rand_matrix()
    for alpha in (0.0, 0.25, 0.7, 1.0):
        mix = MechanismMatrix(ls, outs, alpha * m1.rows + (1 - alpha) * m2.rows)
        want = alpha * expected_loss(m1, pr, SQUARED) + (1 - alpha) * expected_loss(
            m2, pr, SQUARED
        )
        assert expected_loss(mix, pr, SQUARED) == pytest.approx(want, abs=1e-12)


def test_expected_loss_nonnegative_random():
    rng = np.random.default_rng(1)
    for _ in range(20):
        k = int(rng.integers(2, 6))
        ls = make_label_set(np.sort(rng.uniform(0, 10, k) + np.arange(k) * 1e-3))
        pr = make_prior(ls, rng.dirichlet(np.ones(k)))
        rows = rng.dirichlet(np.ones(3), size=k)
        m = MechanismMatrix(ls, tuple(np.sort(rng.uniform(0, 10, 3))), rows)
        assert expected_loss(m, pr, SQUARED) >= 0.0
