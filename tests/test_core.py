import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from labeldp import (
    SQUARED,
    EpsilonBudget,
    BinLayout,
    LabelSet,
    MechanismMatrix,
    NoiseParams,
    Prior,
    brute_force_optimal_bins,
    check_eps_dp,
    default_budget_split,
    expected_loss,
    exponential_mechanism_sample,
    laplace_histogram,
    lp_optimal_mechanism,
    make_label_set,
    make_prior,
    optimize_bins,
    randomize,
    rr_on_bins_matrix,
    rr_on_bins_randomize,
    split_budget,
)
from labeldp.binopt import tilt_factor
from labeldp.core import integer_valued


def test_make_label_set_sorts_and_dedups():
    ls = make_label_set([3, 1, 2, 2])
    assert ls.values.tolist() == [1.0, 2.0, 3.0]
    assert ls.k == 3
    assert make_label_set([0]).values.tolist() == [0.0]
    assert make_label_set([0.5, 400.0]).values.tolist() == [0.5, 400.0]


@given(st.lists(st.one_of(st.sampled_from([0.0, -0.0, 1.0, -2.5]),
                          st.floats(allow_nan=False, allow_infinity=False)), min_size=1))
@example([0.0, -0.0])
@example([-0.0, 3.0, 0.0, -0.0])
@example([5.0, 5.0, -1.0, 5.0])
@example([1.0, 1.0, 0.0, -0.0])  # np.unique alone keeps -0.0 here
def test_make_label_set_keeps_the_bits_of_a_sorted_set(xs):
    # a Python set keeps the first of -0.0 and 0.0 it meets, and so must the array
    expected = np.array(sorted(set(xs)), dtype=float)
    assert make_label_set(xs).values.view(np.int64).tolist() == expected.view(np.int64).tolist()
    assert make_label_set(np.array(xs)) == make_label_set(xs)


def test_label_set_and_prior_are_read_only_and_equal_by_value():
    raw = np.array([2.0, 0.0, 1.0])
    ls = make_label_set(raw)
    pr = make_prior(ls, raw)
    raw[:] = 7.0  # the caller's arrays are copied, not shared
    assert ls.values.tolist() == [0.0, 1.0, 2.0]
    with pytest.raises(ValueError, match="read-only"):
        ls.values[0] = 5.0
    with pytest.raises(ValueError, match="read-only"):
        pr.probs[0] = 0.5
    assert ls == LabelSet((0.0, 1.0, 2.0)) and ls != make_label_set([0, 1])
    assert pr == Prior(LabelSet([0, 1, 2]), pr.probs.tolist())
    assert pr != make_prior(ls, [1, 1, 1])
    assert pr != make_prior(make_label_set([0, 1, 3]), [0, 1, 2])


def test_matrix_and_estimate_are_read_only_equal_by_value_and_unhashable():
    ls = make_label_set([0, 1])
    rows = np.eye(2)
    m = MechanismMatrix(ls, (0.0, 1.0), rows)
    rows[0, 0] = 7.0  # the caller's rows are copied, not shared
    assert m.rows[0, 0] == 1.0
    with pytest.raises(ValueError, match="read-only"):
        m.rows[0, 0] = 7.0
    assert m == MechanismMatrix(LabelSet([0, 1]), (0.0, 1.0), np.eye(2).tolist())
    assert m != MechanismMatrix(ls, (0.0, 1.0), np.full((2, 2), 0.5))
    assert m != MechanismMatrix(ls, (0.0, 2.0), np.eye(2))
    est = laplace_histogram([0, 1, 1], ls, 1.0, np.random.default_rng(3))
    with pytest.raises(ValueError, match="read-only"):
        est.noised_counts[0] = 1.0
    assert est == laplace_histogram([0, 1, 1], ls, 1.0, np.random.default_rng(3))
    assert est != laplace_histogram([0, 1, 1], ls, 1.0, np.random.default_rng(4))
    assert ls != ls.values.tolist() and est != est.prior
    for value in (ls, est.prior, m, est):
        with pytest.raises(TypeError, match="unhashable"):
            hash(value)


def test_make_label_set_rejects_bad_input():
    with pytest.raises(ValueError):
        make_label_set([])
    with pytest.raises(ValueError, match="index 2"):
        make_label_set([1.0, 2.0, float("nan")])
    with pytest.raises(ValueError, match="index 1"):
        make_label_set([1.0, float("inf")])


@pytest.mark.parametrize("values, match", [
    ((), "non-empty"),
    ((0.0, math.nan), "index 1 is not finite"),
    ((-math.inf, 0.0), "index 0 is not finite"),
    ((0.0, 2.0, 2.0), "strictly increasing; violation at index 2"),
    ((1.0, 0.0), "strictly increasing; violation at index 1"),
])
def test_label_set_built_directly_refuses_bad_values(values, match):
    with pytest.raises(ValueError, match=match):
        LabelSet(values)


@pytest.mark.parametrize("probs, match", [
    ((1.0,), "probs length 1 != label count 2"),
    ((1.5, -0.5), "probability at index 1 is negative"),
    ((0.5, 0.6), "probabilities sum to 1.1"),
])
def test_prior_built_directly_refuses_bad_probs(probs, match):
    with pytest.raises(ValueError, match=match):
        Prior(make_label_set([0, 1]), probs)


@pytest.mark.parametrize("boundaries, outputs, match", [
    ((2, 1, 3), (0.0, 1.0, 2.0), "strictly increasing"),
    ((1, 1, 3), (0.0, 1.0, 2.0), "strictly increasing"),
    ((1, 3), (1.0,), "one output per interval"),
    ((1, 3), (0.0, 1.0, 2.0), "one output per interval"),
])
def test_bin_layout_built_directly_refuses_bad_bins(boundaries, outputs, match):
    with pytest.raises(ValueError, match=match):
        BinLayout(make_label_set([0, 1, 2]), boundaries, outputs, 1.0, 0.0)


def test_make_prior_examples():
    ls = make_label_set([0, 1])
    assert make_prior(ls, [1, 1]).probs.tolist() == [0.5, 0.5]
    ls3 = make_label_set([0, 1, 2])
    assert make_prior(ls3, [0, 0, 5]).probs.tolist() == [0.0, 0.0, 1.0]
    assert make_prior(make_label_set([1, 2]), [3, 1]).probs.tolist() == [0.75, 0.25]


def test_make_prior_rejects_bad_weights():
    ls = make_label_set([0, 1])
    with pytest.raises(ValueError):
        make_prior(ls, [1, 1, 1])
    with pytest.raises(ValueError):
        make_prior(ls, [0, 0])
    with pytest.raises(ValueError, match="negative"):
        make_prior(ls, [1, -1])


def test_make_prior_names_a_negative_weight_as_a_plain_float():
    with pytest.raises(ValueError) as err:
        make_prior(make_label_set([0, 1, 2]), np.array([0.5, -0.1, 0.6]))
    assert str(err.value) == "weight at index 1 is negative: -0.1"
    with pytest.raises(ValueError) as err:  # the first negative weight, not the most negative
        make_prior(make_label_set([0, 1, 2]), [-0.1, -0.5, 1.0])
    assert str(err.value) == "weight at index 0 is negative: -0.1"


@pytest.mark.parametrize("weights, message", [
    ([math.nan, 1.0], "weight at index 0 is not finite: nan"),
    (np.array([1.0, math.inf]), "weight at index 1 is not finite: inf"),
    ([1.0, -math.inf], "weight at index 1 is not finite: -inf"),
])
def test_make_prior_names_a_non_finite_weight(weights, message):
    with pytest.raises(ValueError) as err:
        make_prior(make_label_set([0, 1]), weights)
    assert str(err.value) == message


def test_integer_valued_passes_whole_numbers_and_names_the_first_fraction():
    ints = np.arange(5)
    assert integer_valued(ints, "need integers") is ints  # no scan, no copy
    assert integer_valued([0.0, -3.0, 1e300], "need integers").tolist() == [0.0, -3.0, 1e300]
    assert integer_valued(7.0, "need integers").shape == ()
    for values, message in (([0.0, 1.5, 2.25], "need integers: entry at index 1 is 1.5"),
                            (np.array([[1.0, 2.0], [3.0, -0.5]]),
                             "need integers: entry at index 3 is -0.5"),
                            (0.5, "need integers: entry at index 0 is 0.5")):
        with pytest.raises(ValueError) as err:
            integer_valued(values, "need integers")
        assert str(err.value) == message


@pytest.mark.parametrize("eps1, eps2", [(math.nan, 1.0), (1.0, math.nan), (-1.0, 1.0)])
def test_budget_rejects_nan_and_negative_components(eps1, eps2):
    with pytest.raises(ValueError, match="non-negative"):
        EpsilonBudget(eps1, eps2)
    name, value = ("eps1", eps1) if not eps1 >= 0 else ("eps2", eps2)
    with pytest.raises(ValueError, match=f"{name} must be non-negative, got {value}"):
        EpsilonBudget(eps1, eps2)
    assert EpsilonBudget(0.0, math.inf).total == math.inf


def test_matrix_validation():
    ls = make_label_set([0, 1])
    with pytest.raises(ValueError, match="row"):
        MechanismMatrix(ls, (0.0, 1.0), np.array([[0.6, 0.3], [0.5, 0.5]]))
    with pytest.raises(ValueError, match="non-negative"):
        MechanismMatrix(ls, (0.0, 1.0), np.array([[1.1, -0.1], [0.5, 0.5]]))
    with pytest.raises(ValueError, match=r"matrix shape \(2, 1\) != \(2, 2\)"):
        MechanismMatrix(ls, (0.0, 1.0), np.ones((2, 1)))


def test_matrix_equal_by_value():
    layout = optimize_bins(make_prior(make_label_set([0, 1, 2]), [1, 2, 3]), 1.0, SQUARED)
    a, b = rr_on_bins_matrix(layout, 1.0), rr_on_bins_matrix(layout, 1.0)
    assert a is not b and a == b
    assert a != rr_on_bins_matrix(layout, 2.0)
    assert a != "a matrix"


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


_PR = make_prior(make_label_set([0, 1, 2]), [1, 2, 3])
_RNG = np.random.default_rng(0)


@pytest.mark.parametrize("call, text", [
    pytest.param(lambda e: NoiseParams(e, 1.0), "eps must be positive", id="NoiseParams"),
    pytest.param(lambda e: rr_on_bins_matrix(optimize_bins(_PR, 1.0, SQUARED), e),
                 "eps must be non-negative", id="rr_on_bins_matrix"),
    pytest.param(lambda e: rr_on_bins_randomize([0, 1], 2, e, _RNG),
                 "eps must be non-negative", id="rr_on_bins_randomize"),
    pytest.param(lambda e: exponential_mechanism_sample([0.5], 0.0, 1.0, e, _RNG),
                 "eps must be positive", id="exponential_mechanism_sample"),
    pytest.param(tilt_factor, "eps must be non-negative", id="tilt_factor"),
    pytest.param(lambda e: optimize_bins(_PR, e, SQUARED), "eps must be non-negative",
                 id="optimize_bins"),
    pytest.param(lambda e: laplace_histogram([0, 1], _PR.labels, e, _RNG),
                 "eps must be positive", id="laplace_histogram"),
    pytest.param(lambda e: default_budget_split(e, 3, 100), "eps must be positive",
                 id="default_budget_split"),
    pytest.param(lambda e: split_budget(1.0, e), "eps1 must be positive", id="split_budget"),
    pytest.param(lambda e: EpsilonBudget(e, 1.0), "eps1 must be non-negative", id="EpsilonBudget.eps1"),
    pytest.param(lambda e: EpsilonBudget(1.0, e), "eps2 must be non-negative", id="EpsilonBudget.eps2"),
    pytest.param(lambda e: randomize("rr", [0, 1], _PR.labels, e, SQUARED, _RNG),
                 "eps must be non-negative", id="randomize"),
    pytest.param(lambda e: brute_force_optimal_bins(_PR, e, SQUARED), "eps must be non-negative",
                 id="brute_force_optimal_bins"),
    pytest.param(lambda e: lp_optimal_mechanism(_PR, [0.5, 1.5], e, SQUARED),
                 "eps must be non-negative", id="lp_optimal_mechanism"),
    pytest.param(lambda e: check_eps_dp(rr_on_bins_matrix(optimize_bins(_PR, 1.0, SQUARED), 1.0), e),
                 "eps must be non-negative", id="check_eps_dp"),
])
def test_public_eps_entry_points_refuse_nan_with_the_shared_text(call, text):
    with pytest.raises(ValueError) as err:
        call(math.nan)
    assert str(err.value) == f"{text}, got nan"
