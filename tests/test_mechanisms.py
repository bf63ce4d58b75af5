import math
import tracemalloc

import numpy as np
import pytest

from labeldp import (
    SQUARED,
    NoiseParams,
    Rng,
    discrete_laplace_sample,
    discrete_staircase_sample,
    exponential_mechanism_sample,
    laplace_sample,
    make_label_set,
    make_prior,
    optimize_bins,
    randomize,
    rr_on_bins_matrix,
    rr_on_bins_randomize,
    staircase_sample,
)
from labeldp.verify import (
    discrete_laplace_pmf,
    discrete_staircase_pmf,
    staircase_interval_probs,
)


def own_bins(lay, y, n):
    """n copies of member label y's bin index in the layout."""
    return np.full(n, lay.assignments()[np.searchsorted(lay.labels.as_array(), y)])


def three_bin_layout():
    pr = make_prior(make_label_set([0, 1, 2, 3, 4, 5]), [3, 3, 2, 2, 1, 1])
    lay = optimize_bins(pr, 2.0, SQUARED)
    assert lay.d >= 2
    return lay


# ---------------------------------------------------------------------------
# randomized response over bins
# ---------------------------------------------------------------------------

def test_rr_matrix_three_outputs():
    pr = make_prior(make_label_set([0, 1, 2]), [1, 1, 1])
    lay = optimize_bins(pr, 50.0, SQUARED)  # identity, d = 3
    m = rr_on_bins_matrix(lay, math.log(2))
    assert m.rows.shape == (3, 3)
    assert np.allclose(np.diag(m.rows), 0.5)
    off = m.rows[~np.eye(3, dtype=bool)]
    assert np.allclose(off, 0.25)
    assert np.allclose(m.rows.sum(axis=1), 1.0)


def test_rr_matrix_single_output():
    lay = optimize_bins(make_prior(make_label_set([0, 1]), [1, 1]), 0.0, SQUARED)
    assert lay.d == 1
    m = rr_on_bins_matrix(lay, 0.0)
    assert np.array_equal(m.rows, np.ones((2, 1)))


def test_rr_matrix_eps0_uniform():
    pr = make_prior(make_label_set([0, 1, 2, 3]), [1, 1, 1, 1])
    lay = optimize_bins(pr, 50.0, SQUARED)  # 4 bins
    m = rr_on_bins_matrix(lay, 0.0)
    assert np.allclose(m.rows, 0.25)


def test_rr_matrix_column_ratio_is_e_eps():
    lay = three_bin_layout()
    eps = 1.3
    m = rr_on_bins_matrix(lay, eps)
    for col in m.rows.T:
        assert col.max() / col.min() == pytest.approx(math.exp(eps), rel=1e-12)


def test_rr_sample_high_eps_sticks():
    lay = three_bin_layout()
    rng = Rng(1)
    phi = lay.outputs[own_bins(lay, 2.0, 1)[0]]
    draws = rr_on_bins_randomize(own_bins(lay, 2.0, 10**4), lay.outputs, 50.0, rng)
    assert np.mean(draws == phi) >= 0.999


def test_rr_sample_eps0_uniform_two_bins():
    pr = make_prior(make_label_set([0, 5]), [1, 1])
    lay = optimize_bins(pr, 5.0, SQUARED)
    assert lay.d == 2
    rng = Rng(2)
    draws = rr_on_bins_randomize(own_bins(lay, 0.0, 10**4), lay.outputs, 0.0, rng)
    freq = np.mean(draws == lay.outputs[0])
    assert freq == pytest.approx(0.5, abs=0.02)


def test_rr_sample_matches_matrix_row():
    lay = three_bin_layout()
    eps = math.log(2)
    m = rr_on_bins_matrix(lay, eps)
    y = lay.labels.values[0]
    row = m.rows[0]
    rng = Rng(3)
    draws = rr_on_bins_randomize(own_bins(lay, y, 10**4), lay.outputs, eps, rng)
    for out, p in zip(m.outputs, row):
        assert np.mean(draws == out) == pytest.approx(p, abs=0.02)


def test_rr_sample_rejects_foreign_label():
    lay = three_bin_layout()
    for own in ([lay.d], [-1], [0.5]):
        with pytest.raises(ValueError, match="index 0"):
            rr_on_bins_randomize(np.array(own), lay.outputs, 1.0, Rng(0))
    with pytest.raises(ValueError, match="non-negative"):
        rr_on_bins_randomize(np.array([0]), lay.outputs, -1.0, Rng(0))


def test_rr_randomize_batch_matches_scalar_distribution():
    lay = three_bin_layout()
    eps = 1.0
    ys = np.array([0.0, 1.0, 5.0] * 2000)
    own = lay.assignments()[np.searchsorted(lay.labels.as_array(), ys)]
    out = rr_on_bins_randomize(own, lay.outputs, eps, Rng(4))
    assert out.shape == ys.shape
    assert set(np.unique(out)) <= set(lay.outputs)


# ---------------------------------------------------------------------------
# additive mechanisms
# ---------------------------------------------------------------------------

def test_noise_params_scale_arithmetic():
    assert NoiseParams(eps=8.0, sensitivity=400.0).scale == 50.0
    with pytest.raises(ValueError):
        NoiseParams(eps=0.0, sensitivity=1.0)
    with pytest.raises(ValueError):
        NoiseParams(eps=1.0, sensitivity=0.0)


def test_laplace_moments():
    params = NoiseParams(eps=2.0, sensitivity=10.0)
    draws = laplace_sample(np.zeros(10**5), params, Rng(5))
    scale = params.scale
    assert np.mean(draws) == pytest.approx(0.0, abs=3 * math.sqrt(2) * scale / math.sqrt(10**5))
    assert np.var(draws) == pytest.approx(2 * scale**2, rel=0.1)


def test_discrete_laplace_pmf_at_zero():
    params = NoiseParams(eps=1.0, sensitivity=1.0)  # b = 1
    draws = discrete_laplace_sample(np.zeros(10**5, dtype=int), params, Rng(6))
    want = (math.e - 1) / (math.e + 1)
    assert np.mean(draws == 0) == pytest.approx(want, abs=0.01)


def test_discrete_laplace_symmetry():
    params = NoiseParams(eps=1.0, sensitivity=1.0)
    draws = discrete_laplace_sample(np.zeros(10**5, dtype=int), params, Rng(7))
    for j in (1, 2, 3):
        assert np.mean(draws == j) == pytest.approx(np.mean(draws == -j), abs=0.01)


def test_discrete_laplace_degenerate_scale():
    params = NoiseParams(eps=1000.0, sensitivity=1.0)  # b ~ 0
    draws = discrete_laplace_sample(np.full(100, 7), params, Rng(8))
    assert np.all(draws == 7)


def test_discrete_laplace_requires_integers():
    with pytest.raises(ValueError, match="integer"):
        discrete_laplace_sample(1.5, NoiseParams(eps=1.0, sensitivity=1.0), Rng(0))


def test_staircase_normalization_identity():
    # a(gamma) * 2*Delta*(gamma + e^-eps (1-gamma)) == 1 - e^-eps, so the
    # geometric rung series sums to exactly one
    for eps, delta in ((0.5, 3.0), (1.0, 10.0), (3.0, 400.0)):
        params = NoiseParams(eps=eps, sensitivity=delta)
        gamma = params.gamma()
        a = (1 - math.exp(-eps)) / (2 * delta * (gamma + math.exp(-eps) * (1 - gamma)))
        per_rung = a * 2 * delta * (gamma + math.exp(-eps) * (1 - gamma))
        total = per_rung / (1 - math.exp(-eps))
        assert total == pytest.approx(1.0, rel=1e-12)


def test_staircase_symmetry_and_rung_ratio():
    eps, delta = 1.0, 10.0
    params = NoiseParams(eps=eps, sensitivity=delta)
    noise = staircase_sample(np.zeros(2 * 10**5), params, Rng(9))
    assert np.mean(noise > 0) == pytest.approx(0.5, abs=0.01)
    gamma = params.gamma()
    # density ratio between the same step of adjacent rungs is e^-eps
    first = np.mean((noise >= 0) & (noise < gamma * delta))
    second = np.mean((noise >= delta) & (noise < delta + gamma * delta))
    assert second / first == pytest.approx(math.exp(-eps), rel=0.1)


def test_staircase_interval_probs_match_histogram():
    eps, delta = 1.0, 10.0
    params = NoiseParams(eps=eps, sensitivity=delta)
    gamma = params.gamma()
    edges = np.concatenate([[-np.inf], np.linspace(-30, 30, 25), [np.inf]])
    want = staircase_interval_probs(edges, eps, delta, gamma)
    assert want.sum() == pytest.approx(1.0, abs=1e-12)
    noise = staircase_sample(np.zeros(10**5), params, Rng(10))
    got = np.histogram(noise, bins=np.concatenate([[-1e18], edges[1:-1], [1e18]]))[0] / 10**5
    assert np.max(np.abs(got - want)) < 0.01


def test_discrete_staircase_pmf_identities():
    eps, delta = 1.0, 10
    params = NoiseParams(eps=eps, sensitivity=float(delta))
    r = params.discrete_r(delta)
    # window from the geometric tail bound: mass beyond rung 30 < e^-30 < 1e-9
    js = np.arange(-31 * delta, 31 * delta + 1)
    pmf = discrete_staircase_pmf(js, eps, delta, r)
    assert pmf.sum() == pytest.approx(1.0, abs=1e-9)
    assert np.array_equal(pmf, pmf[::-1])  # symmetry
    mid = 31 * delta
    assert pmf[mid] / pmf[mid + r] == pytest.approx(math.exp(eps), rel=1e-12)


def test_discrete_staircase_empirical_pmf():
    eps, delta = 1.0, 10
    params = NoiseParams(eps=eps, sensitivity=float(delta))
    r = params.discrete_r(delta)
    draws = discrete_staircase_sample(np.zeros(10**5, dtype=int), params, Rng(11))
    js = np.arange(-40, 41)
    pmf = discrete_staircase_pmf(js, eps, delta, r)
    emp = np.array([np.mean(draws == j) for j in js])
    assert np.max(np.abs(emp - pmf)) < 0.01


def test_discrete_staircase_guards():
    with pytest.raises(ValueError, match=">= 2"):
        discrete_staircase_sample(0, NoiseParams(eps=1.0, sensitivity=1.0), Rng(0))


@pytest.mark.parametrize("eps", [1e-12, 1e-9, 1e-6, 1e-3, 0.01, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0,
                                 100.0, 1e4, math.inf])
def test_discrete_staircase_step_stays_below_sensitivity(eps):
    # discrete_staircase_sample draws the low cells from [r, delta), so it
    # needs r < delta for every delta it accepts
    params = NoiseParams(eps=eps, sensitivity=1.0)
    for delta in range(2, 2001):
        assert 1 <= params.discrete_r(delta) < delta


def test_exponential_mechanism_stays_in_range():
    draws = exponential_mechanism_sample(np.full(3000, 3.0), 0.0, 10.0, 2.0, Rng(12))
    assert np.all((draws >= 0.0) & (draws <= 10.0))


def test_exponential_mechanism_truncated_laplace_shape():
    # two-bin frequency ratio against the analytic truncated density
    y, lo, hi, eps = 5.0, 0.0, 10.0, 2.0
    scale = 2 * (hi - lo) / eps
    draws = exponential_mechanism_sample(np.full(4 * 10**4, y), lo, hi, eps, Rng(13))
    near = np.mean(np.abs(draws - y) < 1.0)
    far = np.mean((np.abs(draws - y) >= 4.0) & (np.abs(draws - y) < 5.0))

    def band(a, b):  # integral of e^-|x|/scale over |x| in [a,b), both sides
        return 2 * scale * (math.exp(-a / scale) - math.exp(-b / scale))

    want_ratio = band(0, 1) / band(4, 5)
    assert near / far == pytest.approx(want_ratio, rel=0.1)


def test_exponential_mechanism_high_eps_concentrates():
    draws = exponential_mechanism_sample(np.full(200, 5.0), 0.0, 10.0, 500.0, Rng(14))
    assert np.max(np.abs(draws - 5.0)) < 0.5


@pytest.mark.parametrize("at_hi", [False, True])
def test_exponential_mechanism_one_sided_at_range_ends(at_hi):
    # at y = lo (or hi) every draw lies on one side, with the truncated CDF
    # (1 - e^(-d/b)) / (1 - e^(-Delta/b)) at distance d
    lo, hi, eps, n = 0.0, 10.0, 2.0, 10**5
    y = hi if at_hi else lo
    b = 2 * (hi - lo) / eps
    draws = exponential_mechanism_sample(np.full(n, y), lo, hi, eps, Rng(15 + at_hi))
    assert np.all((draws >= lo) & (draws <= hi))
    expect = -math.expm1(-(hi - lo) / 10 / b) / -math.expm1(-(hi - lo) / b)
    share = np.mean(np.abs(draws - y) < (hi - lo) / 10)
    assert abs(share - expect) < 5 * math.sqrt(expect * (1 - expect) / n)


def test_exponential_mechanism_tiny_eps_is_uniform():
    from scipy.stats import chi2

    lo, hi, n, cells = -3.0, 7.0, 10**5, 20
    ys = np.random.default_rng(3).uniform(lo, hi, n)
    draws = exponential_mechanism_sample(ys, lo, hi, 1e-9, Rng(17))
    counts, _ = np.histogram(draws, bins=cells, range=(lo, hi))
    assert counts.sum() == n
    stat = float(np.sum((counts - n / cells) ** 2 / (n / cells)))
    assert stat <= chi2.ppf(1 - 1e-3, df=cells - 1)


def test_exponential_mechanism_huge_eps_stays_at_input():
    lo, hi = 0.0, 10.0
    ys = np.concatenate([[lo, hi], np.random.default_rng(4).uniform(lo, hi, 10**4)])
    draws = exponential_mechanism_sample(ys, lo, hi, 1e6, Rng(18))
    assert np.all(np.abs(draws - ys) <= 1e-3 * (hi - lo))
    assert np.all((draws >= lo) & (draws <= hi))
    assert np.array_equal(exponential_mechanism_sample(ys, lo, hi, math.inf, Rng(18)), ys)


def test_exponential_mechanism_point_range():
    draws = exponential_mechanism_sample(np.full(5, 2.0), 2.0, 2.0, 1.0, Rng(19))
    assert draws.tolist() == [2.0] * 5


def test_exponential_mechanism_guards():
    with pytest.raises(ValueError, match="outside"):
        exponential_mechanism_sample(np.array([5.0, 11.0]), 0.0, 10.0, 1.0, Rng(0))
    with pytest.raises(ValueError, match="range"):
        exponential_mechanism_sample(np.array([0.0]), 1.0, 0.0, 1.0, Rng(0))
    with pytest.raises(ValueError, match="eps"):
        exponential_mechanism_sample(np.array([5.0]), 0.0, 10.0, 0.0, Rng(0))


@pytest.mark.parametrize("lo, hi, eps", [(0.0, 400.0, 1e-310), (0.0, 1e308, 1.0), (-1e308, 1e308, 1.0)])
def test_exponential_mechanism_rejects_overflowing_scale(lo, hi, eps):
    # b = 2 (hi - lo) / eps past the float range would turn every draw into NaN
    with pytest.raises(ValueError, match="too small for the range"):
        exponential_mechanism_sample(np.array([lo, hi]), lo, hi, eps, Rng(0))
    with pytest.raises(ValueError, match="too small for the range"):
        exponential_mechanism_sample(np.array([lo]), np.float64(lo), np.float64(hi), np.float64(eps), Rng(0))


def test_randomized_response_examples():
    # plain randomized response on {1..q}: one label per bin, index y - 1
    def rr(y, q, eps, n, rng):
        return rr_on_bins_randomize(np.full(n, y - 1), np.arange(1, q + 1), eps, rng)

    draws = rr(1, 2, 0.0, 10**4, Rng(15))
    assert np.mean(draws == 1) == pytest.approx(0.5, abs=0.02)

    draws = rr(2, 4, math.log(3), 10**4, Rng(16))
    assert np.mean(draws == 2) == pytest.approx(0.5, abs=0.02)

    rng = Rng(17)
    assert np.all(rr(3, 5, 200.0, 100, rng) == 3)
    with pytest.raises(ValueError):
        rr(0, 4, 1.0, 1, rng)


ADDITIVE = ("laplace", "staircase", "discrete-laplace", "discrete-staircase")


def test_clip():
    # clip=True clamps the very draws that clip=False returns into the range
    universe = make_label_set(range(401))
    y = np.array([0.0, 200.0, 400.0] * 100)
    for mechanism in ADDITIVE:
        raw, _ = randomize(mechanism, y, universe, 0.5, SQUARED, Rng(3), clip=False)
        clipped, _ = randomize(mechanism, y, universe, 0.5, SQUARED, Rng(3))
        assert raw.min() < 0.0 and raw.max() > 400.0, mechanism
        assert np.array_equal(clipped, np.clip(raw, 0.0, 400.0)), mechanism


def test_clip_never_hurts():
    rng = np.random.default_rng(18)
    universe = make_label_set(range(11))
    y = rng.uniform(0.0, 10.0, 1000)
    for mechanism in ADDITIVE:
        noisy, _ = randomize(mechanism, y, universe, 0.2, SQUARED, Rng(18), clip=False)
        clipped, _ = randomize(mechanism, y, universe, 0.2, SQUARED, Rng(18))
        assert np.all(np.abs(clipped - y) <= np.abs(noisy - y) + 1e-12), mechanism


def test_determinism_and_spawn():
    params = NoiseParams(eps=1.0, sensitivity=1.0)
    a = laplace_sample(np.zeros(100), params, Rng(42))
    b = laplace_sample(np.zeros(100), params, Rng(42))
    assert np.array_equal(a, b)
    c = laplace_sample(np.zeros(100), params, Rng(42).spawn(0))
    d = laplace_sample(np.zeros(100), params, Rng(42).spawn(1))
    e = laplace_sample(np.zeros(100), params, Rng(42).spawn(0))
    assert np.array_equal(c, e)
    assert not np.array_equal(c, d)


# the samplers that combine their noise in buffers they own, each with the
# dtype of its output
IN_PLACE = {
    "exponential": (lambda y, eps, rng: exponential_mechanism_sample(y, 0.0, 400.0, eps, rng),
                    np.float64),
    "staircase": (lambda y, eps, rng: staircase_sample(y, NoiseParams(eps, 400.0), rng),
                  np.float64),
    "discrete-staircase": (lambda y, eps, rng: discrete_staircase_sample(y, NoiseParams(eps, 400.0), rng),
                           np.int64),
}


@pytest.mark.parametrize("name", IN_PLACE)
@pytest.mark.parametrize("shape", [(), (7,), (3, 5)])
@pytest.mark.parametrize("dtype", [np.int64, np.float64])
def test_in_place_samplers_keep_their_contract(name, shape, dtype):
    # a 0-d input takes the array path too and gives a 0-d array of its dtype
    sample, out_dtype = IN_PLACE[name]
    y = (np.arange(math.prod(shape)) * 7 + 3).astype(dtype).reshape(shape)
    before = y.copy()
    out = sample(y, 0.5, Rng(5))
    assert y.dtype == dtype and np.array_equal(y, before)
    assert type(out) is np.ndarray and out.shape == shape and out.dtype == out_dtype


@pytest.mark.parametrize("name, bound", [("exponential", 3.5), ("staircase", 4.5),
                                         ("discrete-staircase", 8.0)])
def test_sampler_peak_memory_in_label_arrays(name, bound):
    # the traced peak of one call on 2e5 labels, in multiples of the label
    # array: float labels as the clamping mechanisms pass them, int64 labels
    # as the discrete ones do
    labels = np.random.default_rng(6).integers(0, 401, 200_000)
    y = labels if name.startswith("discrete") else labels.astype(float)
    sample = IN_PLACE[name][0]
    tracemalloc.start()
    try:
        sample(y, 0.5, Rng(7))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * y.nbytes
