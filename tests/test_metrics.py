"""Metric definitions, the repeated-test protocol, and report writers."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tricalib import metrics
from tricalib.config import default_device_config
from tricalib.data import build_grid, generate_simulated, kick_from_steps
from tricalib.device import estimate_probabilities, sample_counts
from tricalib.errors import DegenerateDataError, InvalidParameterError, UndefinedMetricError
from tricalib.metrics import (
    cosine_similarity,
    format_value,
    fresh_noise,
    mean_and_sd,
    nrmse,
    repeated_test_evaluation,
    write_report,
    write_rows_csv,
)

DEV = default_device_config()


# -------------------------------------------------------------------- nrmse


def test_nrmse_zero_for_perfect_prediction():
    y = np.array([1.0, 2.5, 4.0, 6.5])
    assert nrmse(y, y.copy(), 0.0, 7.0) == 0.0


def test_nrmse_unit_constant_error():
    # every coordinate off by exactly the range: sqrt(4/4) / 1 = 1
    y = np.zeros(4)
    yhat = np.ones(4)
    assert nrmse(y, yhat, 0.0, 1.0) == 1.0


def test_nrmse_hand_value():
    # errors (3, 4) over K=2, range 10: sqrt(25/2)/10
    got = nrmse([0.0, 0.0], [3.0, 4.0], 0.0, 10.0)
    assert got == pytest.approx(np.sqrt(12.5) / 10.0, rel=1e-15)


def test_nrmse_scales_linearly_with_error():
    rng = np.random.default_rng(0)
    y = rng.uniform(1.0, 7.0, size=40)
    e = rng.normal(size=40)
    a = nrmse(y, y + e, 1.0, 7.0)
    b = nrmse(y, y + 2.0 * e, 1.0, 7.0)
    assert b == pytest.approx(2.0 * a, rel=1e-12)


def test_nrmse_intensive_under_concatenation():
    # duplicating the whole vector pair cannot change a per-coordinate rate
    rng = np.random.default_rng(1)
    y = rng.uniform(size=25)
    yhat = y + rng.normal(0.0, 0.1, size=25)
    single = nrmse(y, yhat, 0.0, 1.0)
    double = nrmse(np.concatenate([y, y]), np.concatenate([yhat, yhat]), 0.0, 1.0)
    assert double == pytest.approx(single, rel=1e-12)


def test_nrmse_validation():
    with pytest.raises(InvalidParameterError):
        nrmse([1.0, 2.0], [1.0], 0.0, 1.0)
    with pytest.raises(InvalidParameterError):
        nrmse([], [], 0.0, 1.0)
    with pytest.raises(InvalidParameterError):
        nrmse([1.0], [1.0], 1.0, 1.0)
    with pytest.raises(InvalidParameterError):
        nrmse([1.0], [1.0], 2.0, 1.0)


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
    kick = kick_from_steps(grid, 1, 1)
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
    the protocol must report zero error with zero spread."""
    probs, targets = small_pool()
    table = {row.tobytes(): t for row, t in zip(probs, targets)}

    def predict_fn(feats):
        return np.array([table[row.tobytes()] for row in feats])

    report, _, _ = repeated_test_evaluation(
        predict_fn, probs, targets, None, span=3.0,
        rep_count=20, rep_size=10, rng=np.random.default_rng(5))
    assert report.nrmse == 0.0
    assert report.nrmse_spread == 0.0
    assert report.cosine == pytest.approx(1.0, abs=1e-12)
    assert report.cosine_spread < 1e-12
    assert report.n_repetitions == 20
    assert report.n_examples_per_rep == 10
    assert not report.degenerate_spread


def test_repeated_evaluation_noise_raises_error():
    probs, targets = small_pool()
    table = {row.tobytes(): t for row, t in zip(probs, targets)}

    def truth_at_clean_rows(feats):
        # noisy features no longer match the table, so answer a constant
        return np.tile(targets.mean(axis=0), (feats.shape[0], 1))

    report, _, _ = repeated_test_evaluation(
        truth_at_clean_rows, probs, targets, 500.0, span=3.0,
        rep_count=10, rep_size=10, rng=np.random.default_rng(6))
    assert report.nrmse > 0.0
    assert report.nrmse_spread > 0.0
    assert len(table) == probs.shape[0]  # rows were distinct to begin with


def test_repeated_evaluation_single_rep_degenerate():
    probs, targets = small_pool()
    report, _, _ = repeated_test_evaluation(
        lambda f: np.tile(targets.mean(axis=0), (f.shape[0], 1)),
        probs, targets, None, span=3.0,
        rep_count=1, rep_size=5, rng=np.random.default_rng(7))
    assert report.degenerate_spread
    assert report.nrmse_spread == 0.0
    assert report.cosine_spread == 0.0


def test_repeated_evaluation_samples_match_summary():
    probs, targets = small_pool()
    report, nr, cs = repeated_test_evaluation(
        lambda f: np.tile(targets.mean(axis=0), (f.shape[0], 1)),
        probs, targets, 300.0, span=3.0,
        rep_count=15, rep_size=8, rng=np.random.default_rng(8))
    assert nr.shape == cs.shape == (15,)
    assert report.nrmse == float(nr.mean())
    assert report.nrmse_spread == float(nr.std(ddof=1))
    assert report.cosine == float(cs.mean())
    assert report.cosine_spread == float(cs.std(ddof=1))


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


# ------------------------------------------------------------ report output


def test_format_value_round_trips():
    for x in (0.1, 1.0 / 3.0, 1e-17, 12345.6789, -0.0):
        assert float(format_value(x)) == x
    assert format_value(True) == "True"
    assert format_value(7) == "7"
    assert format_value("simulated") == "simulated"
    assert format_value(None) == "none"


def test_write_report_deterministic(tmp_path):
    pairs = [("val_nrmse", 0.02043916357267829),
             ("val_cosine", 0.9995677212161831),
             ("best_epoch", 106),
             ("provenance", "simulated")]
    p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
    write_report(p1, pairs)
    write_report(p2, pairs)
    assert p1.read_bytes() == p2.read_bytes()
    text = p1.read_text()
    assert "val_nrmse = 0.02043916357267829\n" in text
    assert "best_epoch = 106\n" in text


def test_write_rows_csv_round_trips(tmp_path):
    rows = [[1, 0.1, "full"], [2, 2.0 / 3.0, "sub"]]
    path = tmp_path / "rows.csv"
    write_rows_csv(path, ["idx", "value", "tag"], rows)
    lines = path.read_text().splitlines()
    assert lines[0] == "idx,value,tag"
    assert len(lines) == 3
    idx, value, tag = lines[2].split(",")
    assert int(idx) == 2 and float(value) == 2.0 / 3.0 and tag == "sub"


def test_writers_do_not_call_public_format_value(tmp_path, monkeypatch):
    """A wrapper around `format_value` (as a tracer puts one) is not called
    per cell by the writers, and their bytes are `format_value`'s text."""
    pairs = [("val_nrmse", 0.1), ("best_epoch", 7), ("mean_total", None), ("tag", "sim")]
    rows = [[1, 0.1, "full"], [2, 2.0 / 3.0, None], [True, -0.0, 1e-17]]
    expected_report = "".join(f"{k} = {format_value(v)}\n" for k, v in pairs)
    expected_csv = "a,b,c\n" + "".join(",".join(map(format_value, r)) + "\n" for r in rows)
    calls = []

    def counting(x):
        calls.append(x)
        return format_value(x)

    monkeypatch.setattr(metrics, "format_value", counting)
    metrics.write_report(tmp_path / "r.txt", pairs)
    metrics.write_rows_csv(tmp_path / "r.csv", ["a", "b", "c"], rows)
    assert calls == []
    assert (tmp_path / "r.txt").read_bytes() == expected_report.encode()
    assert (tmp_path / "r.csv").read_bytes() == expected_csv.encode()
