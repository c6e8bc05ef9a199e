"""Evaluation metrics and their aggregation protocols.

Two scalar metrics compare a prediction vector with its truth:

    NRMSE(y, yhat) = ||y - yhat|| / (sqrt(K) * (y_max - y_min))
    c(y, yhat)     = (y . yhat) / (||y|| * ||yhat||)

K is the vector length and (y_max - y_min) the target-voltage range the
model was trained over, so the NRMSE is a dimensionless fraction of the
operating range.  Both are evaluated on the full concatenation of all
examples under test, and the repeated-test protocol re-draws the shot
noise each repetition to expose the statistical spread.
"""

from dataclasses import dataclass

import numpy as np

from .device import estimate_probabilities, sample_counts
from .errors import DegenerateDataError, InvalidParameterError, UndefinedMetricError

__all__ = [
    "nrmse",
    "cosine_similarity",
    "fresh_noise",
    "noisy_draw",
    "mean_and_sd",
    "EvaluationReport",
    "repeated_test_evaluation",
    "format_value",
    "write_report",
    "write_rows_csv",
]


def nrmse(y, yhat, y_min: float, y_max: float) -> float:
    """Range-normalized root-mean-square error of a flat vector pair."""
    y = np.asarray(y, dtype=float).ravel()
    yhat = np.asarray(yhat, dtype=float).ravel()
    if y.shape != yhat.shape or y.size == 0:
        raise InvalidParameterError("nrmse needs two equal-length nonempty vectors")
    if not y_max > y_min:
        raise InvalidParameterError("degenerate normalization range: y_max must exceed y_min")
    e = y - yhat
    return float(np.sqrt(np.dot(e, e) / y.size) / (y_max - y_min))


def cosine_similarity(y, yhat) -> float:
    """Normalized inner product; 1 means proportional with positive scale."""
    y = np.asarray(y, dtype=float).ravel()
    yhat = np.asarray(yhat, dtype=float).ravel()
    if y.shape != yhat.shape or y.size == 0:
        raise InvalidParameterError("cosine needs two equal-length nonempty vectors")
    yy = np.dot(y, y)
    hh = np.dot(yhat, yhat)
    if yy == 0.0 or hh == 0.0:
        raise UndefinedMetricError("cosine similarity of a zero-norm vector is undefined")
    return float(np.dot(y, yhat) / np.sqrt(yy * hh))


def mean_and_sd(values) -> tuple[float, float]:
    """Mean and sample SD (ddof=1) of a sample.

    The SD is exactly 0.0 below two values and when all values are equal,
    where `np.std` can leave a few ulps because their sum rounds.
    """
    x = np.asarray(values, dtype=float)
    equal = x.size < 2 or (x == x[0]).all()
    return float(x.mean()), 0.0 if equal else float(x.std(ddof=1))


@dataclass(frozen=True)
class EvaluationReport:
    """Mean and sample standard deviation over noise repetitions."""

    nrmse: float
    nrmse_spread: float
    cosine: float
    cosine_spread: float
    n_repetitions: int
    n_examples_per_rep: int
    degenerate_spread: bool = False


def fresh_noise(probs, mean_total, rng):
    """Photon-count estimates of exact probabilities: the one shot-noise path.

    `probs` holds six-outcome measurements side by side along its last
    axis (6 columns, or 12 for a base and a kicked one).  Each is drawn
    as Poisson counts with `mean_total` expected photons per input, block
    by block from left to right, and every input triple is renormalized
    by its own total.  mean_total=None returns `probs` unchanged
    (noise-free).

    Raises degenerate-data, naming the budget, if any acquisition (one
    input's triple) draws zero photons: its frequencies are undefined,
    and redrawing it would bias the noise.
    """
    if mean_total is None:
        return probs
    counts = np.concatenate([sample_counts(probs[..., col:col + 6], mean_total, rng)
                             for col in range(0, probs.shape[-1], 6)], axis=-1)
    try:
        return estimate_probabilities(counts.reshape(counts.shape[:-1] + (-1, 6))
                                      ).reshape(counts.shape)
    except DegenerateDataError:
        empty = int(np.count_nonzero(counts.reshape(-1, 3).sum(axis=-1) == 0))
        raise DegenerateDataError(
            f"{empty} of {counts.size // 3} acquisitions drew zero photons at a "
            f"budget of {mean_total:g} photons per input; cannot normalize"
        ) from None


def noisy_draw(pool_probs, mean_total, size: int, rng: np.random.Generator):
    """One noisy test draw, the one path by which evaluation samples points.

    Picks `size` rows of the exact-probability pool without replacement,
    then draws their shot noise with `fresh_noise` from the same `rng`.
    Returns (indices, features): the pool rows drawn and their noisy
    features.  Raises invalid-parameter unless 1 <= size <= len(pool).
    """
    n = len(pool_probs)
    if not 1 <= size <= n:
        raise InvalidParameterError(
            f"test draw size {size} must lie in [1, {n}], the size of the pool")
    idx = rng.choice(n, size=size, replace=False)
    return idx, fresh_noise(pool_probs[idx], mean_total, rng)


def repeated_test_evaluation(
    predict_fn,
    pool_probs,
    pool_targets,
    mean_total,
    span: float,
    rep_count: int = 500,
    rep_size: int = 100,
    *,
    rng: np.random.Generator,
):
    """Metric statistics over repeated noisy test draws.

    Each repetition is one `noisy_draw` of `rep_size` pool entries
    (mean_total=None skips the noise); it predicts, and evaluates both
    metrics on the concatenated vectors.
    `predict_fn` maps an (n, 12) feature block to (n, 4) voltages.
    Returns (report, per_rep_nrmse, per_rep_cosine): an EvaluationReport
    and the two per-repetition metric arrays.
    """
    pool_probs = np.asarray(pool_probs, dtype=float)
    pool_targets = np.asarray(pool_targets, dtype=float)
    if rep_count < 1:
        raise InvalidParameterError("rep_count must be >= 1")
    nr = np.empty(rep_count)
    cs = np.empty(rep_count)
    for r in range(rep_count):
        idx, feats = noisy_draw(pool_probs, mean_total, rep_size, rng)
        yhat = np.asarray(predict_fn(feats), dtype=float).ravel()
        y = pool_targets[idx].ravel()
        nr[r] = nrmse(y, yhat, 0.0, span)
        cs[r] = cosine_similarity(y, yhat)
    report = EvaluationReport(
        *mean_and_sd(nr),
        *mean_and_sd(cs),
        n_repetitions=rep_count,
        n_examples_per_rep=rep_size,
        degenerate_spread=rep_count < 2,
    )
    return report, nr, cs


def _format_value(x) -> str:
    if x is None:
        return "none"
    if isinstance(x, (bool, int, str)):
        return str(x)
    return repr(float(x))


def format_value(x) -> str:
    """Stable text form: shortest round-trip repr for floats, "none" for None.

    The writers below call `_format_value` per cell instead, so a wrapper
    put around this public function (a tracer's span, say) costs nothing
    per cell.
    """
    return _format_value(x)


def write_report(path, pairs):
    """Line-oriented `key = value` report, deterministic byte for byte."""
    with open(path, "w", encoding="utf-8") as fh:
        for key, value in pairs:
            fh.write(f"{key} = {_format_value(value)}\n")


def write_rows_csv(path, header, rows):
    """Small CSV writer with the same stable float formatting."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(map(_format_value, row)) + "\n")
