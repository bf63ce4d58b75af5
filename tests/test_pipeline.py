import dataclasses
import math

import numpy as np
import pytest

from labeldp import SQUARED, Rng, make_label_set, randomize, snap_to_universe
from labeldp.cli import parse_universe
from labeldp.pipeline import universe_indices


def test_no_privacy_limit_is_identity():
    ls = make_label_set([0, 1])
    noisy, report = randomize("rr-on-bins", [0, 0, 1, 1], ls, 2e6, SQUARED, Rng(5), eps1=1e6)
    assert noisy.tolist() == [0.0, 0.0, 1.0, 1.0]
    assert report.mechanism_loss_on_inputs == pytest.approx(0.0, abs=1e-20)
    assert report.layout.d == 2


def test_eps2_zero_collapses_to_one_bin():
    ls = make_label_set([0, 1])
    labels = [0, 0, 1, 1]
    noisy, report = randomize("rr-on-bins", labels, ls, 1e6, SQUARED, Rng(7), eps1=1e6)
    assert report.layout.d == 1
    assert len(set(noisy.tolist())) == 1
    # constant output at the estimated mean; loss ~ prior variance
    assert noisy[0] == pytest.approx(0.5, abs=0.01)
    assert report.mechanism_loss_on_inputs == pytest.approx(0.25, abs=0.02)


def test_reproducibility():
    ls = make_label_set(range(10))
    labels = list(range(10)) * 30
    a, ra = randomize("rr-on-bins", labels, ls, 1.0, SQUARED, Rng(9), eps1=0.5)
    b, rb = randomize("rr-on-bins", labels, ls, 1.0, SQUARED, Rng(9), eps1=0.5)
    assert np.array_equal(a, b)
    assert ra == rb
    c, _ = randomize("rr-on-bins", labels, ls, 1.0, SQUARED, Rng(10), eps1=0.5)
    assert not np.array_equal(a, c)


def test_output_length_and_order_preserved():
    ls = make_label_set(range(5))
    labels = [4, 0, 2, 2, 1, 3, 0]
    noisy, report = randomize("rr-on-bins", labels, ls, 2e6, SQUARED, Rng(1), eps1=1e6)
    assert len(noisy) == len(labels)
    assert noisy.tolist() == [float(v) for v in labels]
    assert report.n == len(labels)


def test_snap_to_universe_rounds_down():
    uni = make_label_set([0, 1, 2, 3, 4, 5])
    snapped = snap_to_universe([2.7, -1.0, 5.5, 3.0, 0.2], uni)
    assert snapped.tolist() == [2.0, 0.0, 5.0, 3.0, 0.0]


EVEN_UNIVERSES = ("0:400:1", "0:1:0.1", "0:1:0.01", "-200:200:0.5")


def index_cases():
    rng = np.random.default_rng(17)
    for spec in EVEN_UNIVERSES:
        yield pytest.param(parse_universe(spec), id=spec)
    yield pytest.param(make_label_set([2.5]), id="single-point")
    yield pytest.param(make_label_set([1, 2, 5, 10, 100, 1000]), id="uneven")
    # labels in [2, 2.1) are guessed two steps high and need the binary search
    yield pytest.param(make_label_set([0, 2.1, 2.5, 3, 4]), id="skewed")
    # spans whose offsets or scale leave the float range guess index 0
    yield pytest.param(make_label_set([-1e308, -1.0, 0.0, 1e308]), id="overflowing-span")
    yield pytest.param(make_label_set([0.0, 5e-324, 1e-323]), id="subnormal-span")
    yield pytest.param(make_label_set(rng.uniform(-5, 5, 300)), id="random-300")


@pytest.mark.parametrize("universe", list(index_cases()))
def test_universe_indices_match_searchsorted(universe):
    grid = universe.as_array()
    rng = np.random.default_rng(23)
    # half the span plus one, in halves so that a span past the float range
    # still gives finite labels spread over the range and beyond both ends
    half = grid[-1] / 2 - grid[0] / 2 + 1.0
    x = np.concatenate([
        (grid[0] / 2 + grid[-1] / 2) + rng.uniform(-1.5, 1.5, 20000) * half,
        grid,
        np.nextafter(grid, np.inf),
        np.nextafter(grid, -np.inf),
        [np.inf, -np.inf, np.nan, 0.0, -0.0, 1e308, -1e308],
    ])
    oracle = np.clip(np.searchsorted(grid, x, "right") - 1, 0, universe.k - 1)
    got = universe_indices(x, universe)
    assert got.dtype == oracle.dtype
    np.testing.assert_array_equal(got, oracle)
    np.testing.assert_array_equal(universe_indices(x.reshape(-1, 1), universe), oracle[:, None])


def test_randomizer_snaps_before_estimating():
    uni = make_label_set([0, 1])
    noisy, _ = randomize("rr-on-bins", [0.4, 0.9, 1.0, 1.7], uni, 2e6, SQUARED, Rng(2), eps1=1e6)
    assert noisy.tolist() == [0.0, 0.0, 1.0, 1.0]


def test_report_carries_no_raw_data():
    ls = make_label_set([0, 1, 2])
    _, report = randomize("rr-on-bins", [0, 1, 2, 2], ls, 2.0, SQUARED, Rng(3), eps1=1.0)
    fields = {f.name for f in dataclasses.fields(report)}
    assert fields == {
        "budget",
        "estimated_prior",
        "layout",
        "mechanism_loss_on_inputs",
        "n",
        "loss_kind",
        "seed",
    }
    assert report.budget.total == 2.0
    assert report.loss_kind == "squared"
    assert report.seed == 3


def test_preconditions():
    ls = make_label_set([0, 1])
    with pytest.raises(ValueError):
        randomize("rr-on-bins", [0, 1], ls, 1.0, SQUARED, Rng(0), eps1=0.0)
    with pytest.raises(ValueError):
        randomize("rr-on-bins", [0, 1], ls, 0.5, SQUARED, Rng(0), eps1=1.0)
    with pytest.raises(ValueError):
        randomize("rr-on-bins", [], ls, 2.0, SQUARED, Rng(0), eps1=1.0)
