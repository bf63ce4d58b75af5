import math
import warnings

import numpy as np
import pytest

from labeldp import ABSOLUTE, POISSON, SQUARED, custom_loss
from labeldp.losses import by_name, BUILTIN_KINDS


def test_eval_spot_values():
    assert SQUARED.eval_fn(3, 1) == 4.0
    assert ABSOLUTE.eval_fn(1.5, 4) == 2.5
    assert POISSON.eval_fn(2, 2) == pytest.approx(2 - 2 * math.log(2), abs=1e-15)
    grid = SQUARED.eval_grid(np.array([3.0, 1.5]), np.array([1.0, 4.0]))
    assert grid.tolist() == [[4.0, 0.25], [1.0, 6.25]]


def test_poisson_domain_guard():
    with pytest.raises(ValueError, match="yhat > 0"):
        POISSON.eval_grid(np.array([0.0, 1.0]), np.array([1.0]))
    with pytest.raises(ValueError, match="yhat > 0"):
        POISSON.eval_grid(np.array([-1.0]), np.array([1.0]))
    # y = 0 is fine: loss reduces to yhat
    assert POISSON.eval_grid(np.array([0.5]), np.array([0.0])).tolist() == [[0.5]]


def test_poisson_output_zero_warns_nothing():
    # an output of 0 costs +inf for a label above 0 and 0 for a label at 0
    yhat = np.array([0.0, 0.0, 0.0, 0.5, 2.0])
    y = np.array([0.0, 2.0, 1e-300, 0.0, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = POISSON.eval_fn(yhat, y)
        assert POISSON.eval_grid(np.array([0.5]), np.array([0.0])).tolist() == [[0.5]]
    assert list(got) == [0.0, math.inf, math.inf, 0.5, 2.0 - math.log(2.0)]


def test_poisson_finite_values_keep_their_bits():
    # y * log(yhat) at every y != 0, as the formula that logs every cell gives
    rng = np.random.default_rng(5)
    yhat = rng.random(2000) * 50 + 1e-12
    y = np.floor(rng.random(2000) * 8) * rng.choice([1.0, 0.5], 2000)
    assert np.array_equal(POISSON.eval_fn(yhat, y), yhat - np.where(y == 0, 0.0, y * np.log(yhat)))
    grid = POISSON.eval_fn(yhat[:40, None], y[None, :30])
    assert np.array_equal(grid, yhat[:40, None] - np.where(y[:30] == 0, 0.0, y[:30] * np.log(yhat[:40, None])))


def test_zero_at_diagonal():
    for spec in (SQUARED, ABSOLUTE):
        for y in (-2.0, 0.0, 3.5):
            assert spec.eval_fn(y, y) == 0.0


def test_poisson_minimized_at_y():
    for y in (0.5, 1.0, 4.0):
        grid = np.linspace(0.05, 8, 400)
        vals = POISSON.eval_fn(grid, y)
        assert abs(grid[int(np.argmin(vals))] - y) < 0.05


@pytest.mark.parametrize("kind", BUILTIN_KINDS)
def test_valley_shape_on_grid(kind):
    spec = by_name(kind)
    lo = 0.5 if kind == "poisson" else 0.0
    ys = np.linspace(lo, 6, 40)
    for y in ys:
        vals = spec.eval_fn(ys, y)
        m = int(np.argmin(vals))
        assert np.all(np.diff(vals[: m + 1]) <= 1e-12)
        assert np.all(np.diff(vals[m:]) >= -1e-12)


def test_by_name_rejects_unknown():
    with pytest.raises(ValueError, match="unknown loss"):
        by_name("hinge")
