"""Metric definitions, the shot-noise draws and the repeated-test protocol."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tricalib.config import default_device_config
from tricalib.data import build_grid, generate_simulated, kick_from_steps
from tricalib.device import estimate_probabilities, sample_counts
from tricalib.errors import DegenerateDataError, InvalidParameterError, UndefinedMetricError
from tricalib.metrics import (
    cosine_similarity,
    fresh_noise,
    mean_and_sd,
    noisy_draw,
    nrmse,
    repeated_test_evaluation,
)

from conftest import same_bits

DEV = default_device_config()


# -------------------------------------------------------------------- nrmse


def test_nrmse_zero_for_perfect_prediction():
    y = np.array([1.0, 2.5, 4.0, 6.5])
    assert nrmse(y, y.copy(), 7.0) == 0.0


def test_nrmse_unit_constant_error():
    # every coordinate off by exactly the range: sqrt(4/4) / 1 = 1
    y = np.zeros(4)
    yhat = np.ones(4)
    assert nrmse(y, yhat, 1.0) == 1.0


def test_nrmse_hand_value():
    # errors (3, 4) over K=2, range 10: sqrt(25/2)/10
    got = nrmse([0.0, 0.0], [3.0, 4.0], 10.0)
    assert got == pytest.approx(np.sqrt(12.5) / 10.0, rel=1e-15)


def test_nrmse_scales_linearly_with_error():
    rng = np.random.default_rng(0)
    y = rng.uniform(1.0, 7.0, size=40)
    e = rng.normal(size=40)
    a = nrmse(y, y + e, 6.0)
    b = nrmse(y, y + 2.0 * e, 6.0)
    assert b == pytest.approx(2.0 * a, rel=1e-12)


def test_nrmse_intensive_under_concatenation():
    # duplicating the whole vector pair cannot change a per-coordinate rate
    rng = np.random.default_rng(1)
    y = rng.uniform(size=25)
    yhat = y + rng.normal(0.0, 0.1, size=25)
    single = nrmse(y, yhat, 1.0)
    double = nrmse(np.concatenate([y, y]), np.concatenate([yhat, yhat]), 1.0)
    assert double == pytest.approx(single, rel=1e-12)


def test_nrmse_validation():
    with pytest.raises(InvalidParameterError):
        nrmse([1.0, 2.0], [1.0], 1.0)
    with pytest.raises(InvalidParameterError):
        nrmse([], [], 1.0)
    for span in (0.0, -1.0, float("nan")):
        with pytest.raises(InvalidParameterError, match="span must be > 0"):
            nrmse([1.0], [1.0], span)


# ------------------------------------------------------------------- cosine


def test_cosine_hand_values():
    assert cosine_similarity([1.0, 2.0, 3.0], [2.0, 4.0, 6.0]) == 1.0
    assert cosine_similarity([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 1.0
    assert cosine_similarity([1.0, 0.0], [0.0, 1.0]) == 0.0
    assert cosine_similarity([1.0, 2.0, 3.0], [-1.0, -2.0, -3.0]) == -1.0


def test_cosine_near_one_for_small_perturbations():
    rng = np.random.default_rng(2)
    y = rng.uniform(1.0, 7.0, size=100)
    yhat = y + rng.normal(0.0, 1e-6, size=100)
    assert cosine_similarity(y, yhat) == pytest.approx(1.0, abs=1e-9)


def test_cosine_zero_norm_undefined():
    with pytest.raises(UndefinedMetricError):
        cosine_similarity([0.0, 0.0], [1.0, 2.0])
    with pytest.raises(UndefinedMetricError):
        cosine_similarity([1.0, 2.0], [0.0, 0.0])


def test_cosine_validation():
    with pytest.raises(InvalidParameterError):
        cosine_similarity([1.0, 2.0], [1.0])
    with pytest.raises(InvalidParameterError):
        cosine_similarity([], [])


# -------------------------------------------------------------- fresh noise


def small_pool():
    grid = build_grid(2.0, 5.0, 7)
    kick = kick_from_steps(grid, 1)
    ds = generate_simulated(grid, kick, DEV, np.random.default_rng(0), mean_total=None)
    return ds.features, ds.targets


def test_fresh_noise_none_is_passthrough():
    probs, _ = small_pool()
    assert fresh_noise(probs, None, np.random.default_rng(0)) is probs


def test_fresh_noise_renormalizes_triples():
    probs, _ = small_pool()
    noisy = fresh_noise(probs, 800.0, np.random.default_rng(4))
    assert noisy.shape == probs.shape
    for block in (noisy[:, 0:3], noisy[:, 3:6], noisy[:, 6:9], noisy[:, 9:12]):
        np.testing.assert_allclose(block.sum(axis=1), 1.0, atol=1e-12)
    assert np.abs(noisy - probs).max() > 0.0  # it actually resampled


def test_fresh_noise_deterministic():
    probs, _ = small_pool()
    a = fresh_noise(probs, 500.0, np.random.default_rng(11))
    b = fresh_noise(probs, 500.0, np.random.default_rng(11))
    assert np.array_equal(a, b)


@pytest.mark.parametrize("n_cols", [6, 12])
def test_fresh_noise_draw_order(n_cols):
    """Blocks are drawn left to right, one `sample_counts` call each, so a
    given seed reproduces the per-block draws bit for bit."""
    probs = small_pool()[0][:, :n_cols]
    rng = np.random.default_rng(3)
    want = np.concatenate(
        [estimate_probabilities(sample_counts(probs[:, c:c + 6], 900.0, rng))
         for c in range(0, n_cols, 6)], axis=-1)
    got = fresh_noise(probs, 900.0, np.random.default_rng(3))
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_fresh_noise_single_measurement_vector():
    probs = small_pool()[0][4]
    got = fresh_noise(probs, 900.0, np.random.default_rng(5))
    want = fresh_noise(probs[None], 900.0, np.random.default_rng(5))[0]
    assert got.shape == (12,) and np.array_equal(got, want)


def test_fresh_noise_zero_photons_name_the_budget():
    probs = small_pool()[0]
    with pytest.raises(DegenerateDataError,
                       match=r"^\d+ of 196 acquisitions drew zero photons at a budget "
                             r"of 0\.5 photons per input; cannot normalize$"):
        fresh_noise(probs, 0.5, np.random.default_rng(0))


# ------------------------------------------------- repeated test evaluation


def test_repeated_evaluation_perfect_oracle():
    """Noise-free pool plus a predictor that answers from a lookup table:
    the protocol must report zero error in every repetition."""
    probs, targets = small_pool()
    table = {row.tobytes(): t for row, t in zip(probs, targets)}

    def predict_fn(feats):
        return np.array([table[row.tobytes()] for row in feats])

    nr, cs, _ = repeated_test_evaluation(
        predict_fn, probs, targets, None, span=3.0,
        rep_count=20, rep_size=10, rng=np.random.default_rng(5))
    assert nr.shape == cs.shape == (20,)
    assert (nr == 0.0).all()
    np.testing.assert_allclose(cs, 1.0, rtol=0.0, atol=1e-12)


def test_repeated_evaluation_noise_raises_error():
    probs, targets = small_pool()
    table = {row.tobytes(): t for row, t in zip(probs, targets)}

    def truth_at_clean_rows(feats):
        # noisy features no longer match the table, so answer a constant
        return np.tile(targets.mean(axis=0), (feats.shape[0], 1))

    nr, _, _ = repeated_test_evaluation(
        truth_at_clean_rows, probs, targets, 500.0, span=3.0,
        rep_count=10, rep_size=10, rng=np.random.default_rng(6))
    assert (nr > 0.0).all()
    assert mean_and_sd(nr)[1] > 0.0
    assert len(table) == probs.shape[0]  # rows were distinct to begin with


def test_repeated_evaluation_single_rep_degenerate():
    """One repetition gives one sample per metric: its mean is that
    sample bit for bit, and its SD is exactly 0.0."""
    probs, targets = small_pool()
    nr, cs, _ = repeated_test_evaluation(
        lambda f: np.tile(targets.mean(axis=0), (f.shape[0], 1)),
        probs, targets, None, span=3.0,
        rep_count=1, rep_size=5, rng=np.random.default_rng(7))
    assert nr.shape == cs.shape == (1,)
    for sample in (nr, cs):
        mean, sd = mean_and_sd(sample)
        assert np.float64(mean).view(np.uint64) == sample[0].view(np.uint64)
        assert sd == 0.0


def test_repeated_evaluation_samples_match_summary():
    """Sample r is the metric pair of repetition r's draw: replaying the
    draws from the same seed and scoring the recorded predictions gives
    the same values bit for bit.  The returned truths and predictions are
    repetition 0's, bit for bit."""
    probs, targets = small_pool()
    predicted = []

    def predict_fn(feats):
        predicted.append(np.tile(targets.mean(axis=0), (feats.shape[0], 1)) + feats[:, :4])
        return predicted[-1]

    nr, cs, (truth, pred) = repeated_test_evaluation(
        predict_fn, probs, targets, 300.0, span=3.0,
        rep_count=15, rep_size=8, rng=np.random.default_rng(8))
    assert nr.shape == cs.shape == (15,)
    replay = np.random.default_rng(8)
    for r in range(15):
        idx, _ = noisy_draw(probs, 300.0, 8, replay)
        y, yhat = targets[idx].ravel(), predicted[r].ravel()
        assert nr[r] == nrmse(y, yhat, 3.0)
        assert cs[r] == cosine_similarity(y, yhat)
        if r == 0:
            assert same_bits(truth, targets[idx]) and same_bits(pred, predicted[0])


def test_repeated_evaluation_pool_bounds():
    probs, targets = small_pool()
    n = probs.shape[0]
    for rep_size in (0, -1, n + 1):
        with pytest.raises(InvalidParameterError,
                           match=rf"size {rep_size} must lie in \[1, {n}\], the size of the pool"):
            repeated_test_evaluation(lambda f: f[:, :4], probs, targets, None,
                                     span=3.0, rep_count=2, rep_size=rep_size,
                                     rng=np.random.default_rng(0))
    with pytest.raises(InvalidParameterError):
        repeated_test_evaluation(lambda f: f[:, :4], probs, targets, None,
                                 span=3.0, rep_count=0, rep_size=5,
                                 rng=np.random.default_rng(0))


# ------------------------------------------------------------- mean and SD


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=2, max_size=60))
def test_mean_and_sd_bitwise_numpy(values):
    # equal values are the one exception: their SD is exactly 0.0
    mean, sd = mean_and_sd(values)
    want_sd = 0.0 if len(set(values)) == 1 else np.std(values, ddof=1)
    assert np.float64(mean).view(np.uint64) == np.float64(np.mean(values)).view(np.uint64)
    assert np.float64(sd).view(np.uint64) == np.float64(want_sd).view(np.uint64)


def test_mean_and_sd_single_value_has_zero_sd():
    assert mean_and_sd([0.02]) == (0.02, 0.0)


@settings(deadline=None)
@given(st.integers(-2**20, 2**20), st.integers(-30, 30), st.integers(2, 64))
def test_mean_and_sd_identical_values_have_zero_sd(k, exponent, n):
    # n copies of k * 2**exponent sum exactly, so the mean is the value
    # itself
    value = math.ldexp(k, exponent)
    assert mean_and_sd([value] * n) == (value, 0.0)


@pytest.mark.parametrize("values", [[0.1] * 3, [0.999] * 50])
def test_mean_and_sd_equal_values_whose_sum_rounds_have_zero_sd(values):
    # np.std leaves a few ulps here (1.7e-17 for three copies of 0.1)
    assert np.std(values, ddof=1) != 0.0
    assert mean_and_sd(values)[1] == 0.0
