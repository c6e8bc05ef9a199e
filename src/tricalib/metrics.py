"""Evaluation metrics and their aggregation protocols.

Two scalar metrics compare a prediction vector with its truth:

    NRMSE(y, yhat) = ||y - yhat|| / (sqrt(K) * span)
    c(y, yhat)     = (y . yhat) / (||y|| * ||yhat||)

K is the vector length and span the target-voltage range the model was
trained over, so the NRMSE is a dimensionless fraction of the operating
range.  Both are evaluated on the full concatenation of all examples
under test, and the repeated-test protocol re-draws the shot noise each
repetition to expose the statistical spread.  It returns the
per-repetition samples, which `mean_and_sd` summarizes, and the
per-example voltages of its first repetition.
"""

import numpy as np

from .device import estimate_probabilities, sample_counts
from .errors import DegenerateDataError, InvalidParameterError, UndefinedMetricError

__all__ = [
    "nrmse",
    "cosine_similarity",
    "fresh_noise",
    "noisy_draw",
    "mean_and_sd",
    "repeated_test_evaluation",
]


def nrmse(y, yhat, span: float) -> float:
    """Root-mean-square error of a flat vector pair over the range `span`."""
    y = np.asarray(y, dtype=float).ravel()
    yhat = np.asarray(yhat, dtype=float).ravel()
    if y.shape != yhat.shape or y.size == 0:
        raise InvalidParameterError("nrmse needs two equal-length nonempty vectors")
    if not span > 0.0:
        raise InvalidParameterError("degenerate normalization range: span must be > 0")
    e = y - yhat
    return float(np.sqrt(np.dot(e, e) / y.size) / span)


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
    rep_count: int,
    rep_size: int,
    *,
    rng: np.random.Generator,
):
    """Both metrics over repeated noisy test draws, one value per repetition.

    Each repetition is one `noisy_draw` of `rep_size` pool entries
    (mean_total=None skips the noise); it predicts, and evaluates both
    metrics on the concatenated vectors.
    `predict_fn` maps an (n, 12) feature block to (n, 4) voltages.
    Returns (per_rep_nrmse, per_rep_cosine, (truth, predicted)): two
    arrays of `rep_count` values, which `mean_and_sd` summarizes, and
    the (rep_size, 4) target and predicted voltages of repetition 0.
    """
    pool_probs = np.asarray(pool_probs, dtype=float)
    pool_targets = np.asarray(pool_targets, dtype=float)
    if rep_count < 1:
        raise InvalidParameterError("rep_count must be >= 1")
    nr = np.empty(rep_count)
    cs = np.empty(rep_count)
    for r in range(rep_count):
        idx, feats = noisy_draw(pool_probs, mean_total, rep_size, rng)
        yhat = np.asarray(predict_fn(feats), dtype=float)
        y = pool_targets[idx]
        if r == 0:
            first = (y, yhat)
        nr[r] = nrmse(y, yhat, span)
        cs[r] = cosine_similarity(y, yhat)
    return nr, cs, first

