import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from numpy.random import default_rng

from labeldp import SQUARED, make_label_set, pipeline, randomize
from labeldp.cli import parse_universe
from labeldp.mechanisms import NoiseParams, discrete_staircase_noise, discrete_staircase_sample
from labeldp.pipeline import MECHANISMS, universe_indices


def test_no_privacy_limit_is_identity():
    ls = make_label_set([0, 1])
    out, report = randomize("rr-on-bins", [0, 0, 1, 1], ls, 2e6, SQUARED, default_rng(5), eps1=1e6)
    assert out.values.tolist() == [0.0, 0.0, 1.0, 1.0]
    assert report.mechanism_loss_on_inputs == pytest.approx(0.0, abs=1e-20)
    assert report.layout.d == 2


def test_eps2_zero_collapses_to_one_bin():
    ls = make_label_set([0, 1])
    labels = [0, 0, 1, 1]
    out, report = randomize("rr-on-bins", labels, ls, 1e6, SQUARED, default_rng(7), eps1=1e6)
    noisy = out.values
    assert report.layout.d == 1
    assert len(set(noisy.tolist())) == 1
    # constant output at the estimated mean; loss ~ prior variance
    assert noisy[0] == pytest.approx(0.5, abs=0.01)
    assert report.mechanism_loss_on_inputs == pytest.approx(0.25, abs=0.02)


def test_reproducibility():
    ls = make_label_set(range(10))
    labels = list(range(10)) * 30
    a, ra = randomize("rr-on-bins", labels, ls, 1.0, SQUARED, default_rng(9), eps1=0.5)
    b, rb = randomize("rr-on-bins", labels, ls, 1.0, SQUARED, default_rng(9), eps1=0.5)
    assert np.array_equal(a.values, b.values)
    assert ra == rb
    c, _ = randomize("rr-on-bins", labels, ls, 1.0, SQUARED, default_rng(10), eps1=0.5)
    assert not np.array_equal(a.values, c.values)


def test_output_length_and_order_preserved():
    ls = make_label_set(range(5))
    labels = [4, 0, 2, 2, 1, 3, 0]
    out, report = randomize("rr-on-bins", labels, ls, 2e6, SQUARED, default_rng(1), eps1=1e6)
    noisy = out.values
    assert len(noisy) == len(labels)
    assert noisy.tolist() == [float(v) for v in labels]
    assert report.n == len(labels)


def test_snap_to_universe_rounds_down():
    uni = make_label_set([0, 1, 2, 3, 4, 5])
    snapped = uni.values[universe_indices([2.7, -1.0, 5.5, 3.0, 0.2], uni)]
    assert snapped.tolist() == [2.0, 0.0, 5.0, 3.0, 0.0]


EVEN_UNIVERSES = ("0:400:1", "0:1:0.1", "0:1:0.01", "-200:200:0.5", "0:420:0.01", "0:1000:0.5",
                  "-3:7:0.1")


def index_cases():
    rng = default_rng(17)
    for spec in EVEN_UNIVERSES:
        yield pytest.param(parse_universe(spec), id=spec)
    yield pytest.param(make_label_set([2.5]), id="single-point")
    yield pytest.param(make_label_set([1, 2, 5, 10, 100, 1000]), id="uneven")
    yield pytest.param(make_label_set(np.geomspace(1, 1000, 401)), id="geometric-401")
    # labels in [2, 2.1) are guessed two steps high and need the binary search
    yield pytest.param(make_label_set([0, 2.1, 2.5, 3, 4]), id="skewed")
    # spans whose offsets or scale leave the float range guess index 0
    yield pytest.param(make_label_set([-1e308, -1.0, 0.0, 1e308]), id="overflowing-span")
    yield pytest.param(make_label_set([0.0, 5e-324, 1e-323]), id="subnormal-span")
    yield pytest.param(make_label_set(rng.uniform(-5, 5, 300)), id="random-300")


@pytest.mark.parametrize("universe", list(index_cases()))
def test_universe_indices_match_searchsorted(universe):
    grid = universe.values
    rng = default_rng(23)
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
    out, _ = randomize("rr-on-bins", [0.4, 0.9, 1.0, 1.7], uni, 2e6, SQUARED, default_rng(2),
                       eps1=1e6)
    assert out.values.tolist() == [0.0, 0.0, 1.0, 1.0]


def test_report_carries_no_raw_data():
    ls = make_label_set([0, 1, 2])
    _, report = randomize("rr-on-bins", [0, 1, 2, 2], ls, 2.0, SQUARED, default_rng(3), eps1=1.0)
    fields = {f.name for f in dataclasses.fields(report)}
    assert fields == {
        "budget",
        "estimated_prior",
        "layout",
        "mechanism_loss_on_inputs",
        "n",
        "loss_kind",
    }
    assert report.budget.total == 2.0
    assert report.loss_kind == "squared"


def test_preconditions():
    ls = make_label_set([0, 1])
    with pytest.raises(ValueError):
        randomize("rr-on-bins", [0, 1], ls, 1.0, SQUARED, default_rng(0), eps1=0.0)
    with pytest.raises(ValueError):
        randomize("rr-on-bins", [0, 1], ls, 0.5, SQUARED, default_rng(0), eps1=1.0)
    with pytest.raises(ValueError):
        randomize("rr-on-bins", [], ls, 2.0, SQUARED, default_rng(0), eps1=1.0)
    with pytest.raises(ValueError, match="unknown mechanism 'nope'; pick from rr-on-bins, laplace"):
        randomize("nope", [0, 1], ls, 1.0, SQUARED, default_rng(0))


@pytest.mark.parametrize("mech", MECHANISMS)
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_label_is_refused_before_any_draw(mech, bad):
    rng = default_rng(4)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match=f"label at index 1 is not finite: {bad!r}"):
        randomize(mech, [1.0, bad, 3.0], make_label_set(range(10)), 1.0, SQUARED, rng)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("mech", MECHANISMS)
@pytest.mark.parametrize("eps", [math.nan, -1.0])
def test_bad_eps_is_refused_before_the_labels_are_mapped(mech, eps, monkeypatch):
    def unreachable(*args):
        raise AssertionError("labels mapped before eps was checked")

    monkeypatch.setattr(pipeline, "universe_indices", unreachable)
    rng = default_rng(4)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match=f"^eps must be non-negative, got {eps}$"):
        randomize(mech, [1.0, 2.0, 3.0], make_label_set(range(10)), eps, SQUARED, rng)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("mech", MECHANISMS)
@pytest.mark.parametrize("indices, match", [
    ([-1, -2, -3], r"entry at index 0 is not an index in \[0, 10\): -1"),
    ([1.5, 2, 3], r"entry at index 0 is not an index in \[0, 10\): 1.5"),
    ([1, 2, 10], r"entry at index 2 is not an index in \[0, 10\): 10"),
    ([1, 2], r"indices of shape \(2,\) for labels of shape \(3,\)"),
])
def test_bad_indices_are_refused_before_any_draw(mech, indices, match):
    # labels 1, 2, 3 on 0:9:1, whose universe indices are 1, 2, 3
    rng = default_rng(4)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match=match):
        randomize(mech, [1, 2, 3], make_label_set(range(10)), 50.0, SQUARED, rng,
                  eps1=1.0, indices=indices)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("mech", MECHANISMS)
@pytest.mark.parametrize("clip", [True, False])
def test_randomize_never_writes_into_its_inputs(mech, clip):
    # read-only labels and indices, as bench shares them between the cells
    # it runs at once: a sampler that wrote into either would raise here
    uni = make_label_set(range(21))
    labels = np.arange(300.0) % 23 - 1  # one label below and one above the range
    idx = universe_indices(labels, uni)
    for a in (labels, idx):
        a.flags.writeable = False
    out, _ = randomize(mech, labels, uni, 1.0, SQUARED, default_rng(8), clip=clip, indices=idx)
    assert out.values.shape == labels.shape
    assert np.array_equal(labels, np.arange(300.0) % 23 - 1)
    assert np.array_equal(idx, np.clip(labels, 0, 20))


@pytest.mark.parametrize("mech, bound", [
    ("rr-on-bins", 3.05), ("laplace", 2.0), ("discrete-laplace", 3.0), ("staircase", 2.2),
    ("discrete-staircase", 2.55), ("exponential", 3.05), ("rr", 3.0)])
def test_randomize_peak_memory_in_label_arrays(mech, bound):
    # bench runs cells side by side, each at its own peak: the traced peak of
    # one call on 2e5 float labels and their indices, in label arrays, plus
    # 64 KiB for the call's Python objects
    uni = make_label_set(range(401))
    labels = default_rng(6).integers(0, 401, 200_000).astype(float)
    idx = universe_indices(labels, uni)
    rng = default_rng(7)
    tracemalloc.start()
    try:
        randomize(mech, labels, uni, 1.0, SQUARED, rng, indices=idx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * labels.nbytes + 2**16


@pytest.mark.parametrize("mech", ["laplace", "staircase", "exponential"])
@pytest.mark.parametrize("clip", [True, False])
@pytest.mark.parametrize("bottom", [0.0, -0.0])
def test_in_range_labels_draw_as_their_clamped_copy(mech, clip, bottom):
    # labels already in [y_min, y_max] reach the sampler uncopied: the same
    # bits as the clamped copy they used to get, signed zeros included
    uni = make_label_set([bottom, *range(1, 21)])
    labels = np.r_[-0.0, 0.0, 20.0, np.arange(300.0) % 41 / 2]
    labels.flags.writeable = False
    before = labels.tobytes()
    out, _ = randomize(mech, labels, uni, 1.0, SQUARED, default_rng(8), clip=clip)
    clamped = np.clip(labels, uni.y_min, uni.y_max)
    assert clamped.flags.writeable and clamped.tobytes() == before
    ref, *_ = MECHANISMS[mech].sample(clamped, uni, 1.0, default_rng(8), SQUARED, None)
    if clip and MECHANISMS[mech].additive:
        np.clip(ref.values, uni.y_min, uni.y_max, out=ref.values)
    assert out.values.tobytes() == ref.values.tobytes()
    assert labels.tobytes() == before


@pytest.mark.parametrize("eps, k, n", [
    *((eps, 401, n) for eps in (0.5, 4.0) for n in (0, 1, 200_000)),
    (60.0, 3, 1000),  # a(r) rounds to 1: every draw lands on the atom
])
def test_discrete_staircase_gathers_its_labels_after_the_same_draws(eps, k, n):
    # the pipeline draws the noise alone and adds the gathered integer labels
    # afterwards: the bytes of the sampler on the gathered labels
    uni = make_label_set(range(k))
    idx = default_rng(3).integers(0, k, n)
    out, *_ = MECHANISMS["discrete-staircase"].sample(idx, uni, eps, default_rng(9), SQUARED,
                                                      None)
    params = NoiseParams(eps=eps, sensitivity=float(k - 1))
    ints = uni.values.astype(np.int64)[idx]
    ref = discrete_staircase_sample(ints, params, default_rng(9))
    assert out.values.tobytes() == ref.astype(float).tobytes()
    noise = discrete_staircase_noise(idx.shape, params, default_rng(9))
    assert noise.dtype == np.int64 and np.array_equal(out.values, ints + noise)
    if eps == 60.0:
        assert not noise.any()


@pytest.mark.parametrize("mech", ["discrete-laplace", "discrete-staircase"])
def test_discrete_mechanisms_refuse_a_fractional_universe_before_any_draw(mech):
    rng = default_rng(4)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match=r"^the discrete mechanisms need an integer universe: "
                                         r"entry at index 1 is 0.5$"):
        randomize(mech, [0.0, 1.0], make_label_set([0, 0.5, 1, 2]), 1.0, SQUARED, rng)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("mech", MECHANISMS)
def test_outputs_index_their_table_or_carry_values_alone(mech):
    # rr and rr-on-bins give each label's index into their outputs, the
    # others their float values only; values is always the published labels
    uni = make_label_set(range(21))
    labels = np.r_[np.arange(21.0), 3.5, -2.0, 30.0] * np.ones((20, 1))
    out, report = randomize(mech, labels.ravel(), uni, 1.0, SQUARED, default_rng(12))
    assert out.values.dtype == float and out.values.shape == (labels.size,)
    if mech in ("rr", "rr-on-bins"):
        assert out.index.dtype.kind == "i" and out.index.shape == out.values.shape
        assert out.table.dtype == float
        assert np.array_equal(out.values, out.table[out.index])
        outputs = uni.values if mech == "rr" else report.layout.outputs
        assert out.table.tolist() == list(outputs)
    else:
        assert out.table is None and out.index is None
