"""Network internals: initialization, forward/backward, Adam, the
training loop, prediction, and the checkpoint format."""

import hashlib
import inspect
import struct
import sys
import threading
import time
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tricalib import net
from tricalib.config import default_device_config
from tricalib.data import (
    Dataset,
    KickConfig,
    TargetScaling,
    build_grid,
    generate_simulated,
    kick_from_steps,
    split,
)
from tricalib.errors import CheckpointError, InvalidParameterError, TrainingDivergedError
from tricalib.net import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPSILON,
    TrainConfig,
    _flush_subnormal,
    adam_step,
    backward,
    forward,
    init_he,
    layer_sizes,
    load_checkpoint,
    loss,
    predict,
    save_checkpoint,
    train,
)

from conftest import (
    BYTE_MUTATION,
    flatten,
    kink_mask,
    mutate_bytes,
    numeric_gradient,
    same_bits,
)

DEV = default_device_config()


def toy_dataset(n=5, mean_total=None, seed=0):
    grid = build_grid(2.0, 5.0, n)
    kick = kick_from_steps(grid, 1)
    return generate_simulated(grid, kick, DEV, np.random.default_rng(seed),
                              mean_total=mean_total)


def splits(ds, split_seed=0, fraction=0.2):
    return split(ds, fraction, np.random.default_rng(split_seed))


# ----------------------------------------------------------- initialization


def test_layer_sizes_default():
    assert layer_sizes(12, 4) == [12, 200, 200, 200, 4]


def test_he_init_variance_and_biases():
    params = init_he(layer_sizes(12, 4), np.random.default_rng(0))
    W0, b0 = params[0]
    assert W0.shape == (200, 12)
    var = W0.var()
    assert 0.8 * (2.0 / 12.0) < var < 1.2 * (2.0 / 12.0)
    for _, b in params:
        assert np.array_equal(b, np.zeros_like(b))


def test_he_init_deterministic():
    a = init_he([12, 8, 4], np.random.default_rng(77))
    b = init_he([12, 8, 4], np.random.default_rng(77))
    for (Wa, ba), (Wb, bb) in zip(a, b):
        assert np.array_equal(Wa, Wb) and np.array_equal(ba, bb)


def test_init_needs_two_layers():
    with pytest.raises(InvalidParameterError):
        init_he([12], np.random.default_rng(0))


# ----------------------------------------------------------------- forward


def test_forward_zero_params():
    params = [(np.zeros((3, 2)), np.zeros(3)), (np.zeros((4, 3)), np.zeros(4))]
    assert np.array_equal(forward(params, [0.4, 0.6]), np.zeros(4))


def test_forward_relu_gates_negative_preactivation():
    # single hidden unit, w = 1 b = -0.5: input 0.3 gives preactivation
    # -0.2, the ReLU kills it, and the output stays at the output bias
    params = [(np.array([[1.0]]), np.array([-0.5])),
              (np.array([[2.0]]), np.array([0.25]))]
    assert forward(params, [0.3]) == np.array([0.25])
    # above the kink the unit passes: 0.7 -> 0.2 -> 0.4 + bias
    assert forward(params, [0.7]) == pytest.approx(np.array([0.65]))


def straight_line_forward(params, x):
    """Loop-based reference network, no matrix shortcuts."""
    a = list(x)
    for li, (W, b) in enumerate(params):
        z = []
        for j in range(W.shape[0]):
            acc = b[j]
            for k in range(W.shape[1]):
                acc += W[j, k] * a[k]
            z.append(acc)
        a = z if li == len(params) - 1 else [max(v, 0.0) for v in z]
    return np.array(a)


def test_forward_matches_straight_line_oracle():
    rng = np.random.default_rng(8)
    params = init_he([5, 7, 3], rng)
    for _ in range(10):
        x = rng.normal(size=5)
        np.testing.assert_allclose(forward(params, x), straight_line_forward(params, x),
                                   atol=1e-10)


def test_forward_batch_matches_single():
    rng = np.random.default_rng(9)
    params = init_he([6, 10, 2], rng)
    X = rng.normal(size=(4, 6))
    batch = forward(params, X)
    for i in range(4):
        np.testing.assert_allclose(batch[i], forward(params, X[i]), atol=1e-12)


# -------------------------------------------------------------------- loss


def test_loss_zero_at_perfect_fit():
    params = [(np.zeros((4, 12)), np.array([0.1, 0.2, 0.3, 0.4]))]
    X = np.random.default_rng(0).uniform(size=(6, 12))
    Y = np.tile([0.1, 0.2, 0.3, 0.4], (6, 1))
    assert loss(params, X, Y) == 0.0


def test_loss_constant_error_hand_case():
    params = [(np.zeros((4, 2)), np.ones(4))]
    assert loss(params, np.zeros((1, 2)), np.zeros((1, 4))) == 1.0


def test_loss_matches_per_example_recomputation():
    rng = np.random.default_rng(3)
    params = init_he([6, 9, 4], rng)
    X = rng.uniform(size=(11, 6))
    Y = rng.uniform(size=(11, 4))
    per_example = []
    for i in range(11):
        e = forward(params, X[i]) - Y[i]
        per_example.append(np.sqrt((e**2).mean()))
    assert loss(params, X, Y) == pytest.approx(np.mean(per_example), rel=1e-12)


# ----------------------------------------------------------------- backward


def test_backward_zero_error_gives_zero_gradient():
    params = [(np.zeros((4, 12)), np.array([0.5, 0.5, 0.5, 0.5]))]
    X = np.random.default_rng(1).uniform(size=(5, 12))
    Y = np.full((5, 4), 0.5)
    grads = backward(params, X, Y)
    assert np.all(flatten(grads) == 0.0)


def test_backward_matches_finite_differences():
    rng = np.random.default_rng(12)
    checked = 0
    for _ in range(20):
        params = init_he([12, 8, 4], rng)
        X = rng.uniform(size=(6, 12))
        Y = rng.uniform(size=(6, 4))
        if not kink_mask(params, X):
            continue
        g = flatten(backward(params, X, Y))
        gn = numeric_gradient(params, X, Y)
        denom = np.maximum(np.abs(gn), 1e-8)
        assert (np.abs(g - gn) / denom).max() < 1e-5
        checked += 1
    assert checked >= 10


def test_backward_float32_matches_float64_finite_differences():
    """Float32 weights and inputs give float32 gradients.  float32 keeps
    24 significand bits (eps = 2**-23, about 1.2e-7), and each entry here
    sums at most 12 rounded products, so the gradient may be off by a few
    eps of its largest entry: the tolerance is 64 eps of max |gradient|.
    The reference is the float64 central difference at the same values."""
    eps32 = np.finfo(np.float32).eps
    rng = np.random.default_rng(13)
    checked = 0
    while checked < 10:
        params = [(W.astype(np.float32), b.astype(np.float32))
                  for W, b in init_he([12, 8, 4], rng)]
        X = rng.uniform(size=(6, 12)).astype(np.float32)
        Y = rng.uniform(size=(6, 4)).astype(np.float32)
        params64 = [(W.astype(float), b.astype(float)) for W, b in params]
        if not kink_mask(params64, X.astype(float), tol=1e-4):
            continue
        grads = backward(params, X, Y)
        assert all(a.dtype == np.float32 for pair in grads for a in pair)
        g = flatten(grads).astype(float)
        gn = numeric_gradient(params64, X.astype(float), Y.astype(float))
        assert np.abs(g - gn).max() <= 64 * eps32 * np.abs(gn).max()
        checked += 1


def test_backward_dead_unit_gets_no_gradient():
    # hidden unit 1 has a hugely negative bias, so it never activates
    # and its incoming weights receive exactly zero gradient
    rng = np.random.default_rng(5)
    params = init_he([4, 3, 2], rng)
    params[0][1][1] = -100.0
    X = rng.uniform(size=(8, 4))
    Y = rng.uniform(size=(8, 2))
    grads = backward(params, X, Y)
    assert np.all(grads[0][0][1] == 0.0)
    assert grads[0][1][1] == 0.0


def test_backward_permutation_invariant():
    rng = np.random.default_rng(6)
    params = init_he([12, 8, 4], rng)
    X = rng.uniform(size=(32, 12))
    Y = rng.uniform(size=(32, 4))
    g1 = flatten(backward(params, X, Y))
    perm = rng.permutation(32)
    g2 = flatten(backward(params, X[perm], Y[perm]))
    assert np.abs(g1 - g2).max() < 1e-12


# --------------------------------------------------------------------- adam


def zeros_like_pairs(params):
    """Zeroed (W, b) pairs shaped like `params`: Adam's initial moments."""
    return [(np.zeros_like(W), np.zeros_like(b)) for W, b in params]


def test_adam_first_step_magnitude():
    params = [(np.array([[2.0]]), np.array([0.5]))]
    grads = [(np.array([[3.0]]), np.array([-0.7]))]
    lr = TrainConfig().learning_rate
    W0 = params[0][0].copy()
    assert adam_step(params, grads, zeros_like_pairs(params), zeros_like_pairs(params),
                     1, lr) is None
    # bias correction makes the first step lr * g / (|g| + eps) ~ lr
    step = (W0 - params[0][0])[0, 0]
    assert step == pytest.approx(lr, rel=1e-6)


def test_adam_zero_gradient_is_a_no_op():
    params = init_he([3, 4, 2], np.random.default_rng(0))
    before = [(W.copy(), b.copy()) for W, b in params]
    zeros = zeros_like_pairs(params)
    adam_step(params, zeros, zeros_like_pairs(params), zeros_like_pairs(params),
              1, TrainConfig().learning_rate)
    for (W, b), (W0, b0) in zip(params, before):
        assert np.array_equal(W, W0) and np.array_equal(b, b0)


def test_adam_second_moments_nonnegative():
    rng = np.random.default_rng(2)
    params = init_he([3, 4, 2], rng)
    m, v = zeros_like_pairs(params), zeros_like_pairs(params)
    for t in range(1, 6):
        grads = [(rng.normal(size=W.shape), rng.normal(size=b.shape)) for W, b in params]
        adam_step(params, grads, m, v, t, TrainConfig().learning_rate)
    for vW, vb in v:
        assert vW.min() >= 0.0 and vb.min() >= 0.0


def reference_adam_scalar(theta, grads, lr, b1=0.9, b2=0.999, eps=1e-8):
    m = v = 0.0
    trajectory = []
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1.0 - b1) * g
        v = b2 * v + (1.0 - b2) * g * g
        mh = m / (1.0 - b1**t)
        vh = v / (1.0 - b2**t)
        theta = theta - lr * mh / (np.sqrt(vh) + eps)
        trajectory.append(theta)
    return np.array(trajectory)


def test_adam_scalar_trajectory_matches_reference():
    gs = np.random.default_rng(3).normal(size=10)
    cfg = TrainConfig(learning_rate=1e-3)
    params = [(np.array([[1.5]]), np.array([0.0]))]
    m, v = zeros_like_pairs(params), zeros_like_pairs(params)
    mine = []
    for t, g in enumerate(gs, start=1):
        adam_step(params, [(np.array([[g]]), np.array([0.0]))], m, v, t, cfg.learning_rate)
        mine.append(params[0][0][0, 0])
    ref = reference_adam_scalar(1.5, gs, cfg.learning_rate)
    assert np.abs(np.array(mine) - ref).max() < 1e-12


def reference_adam_step(params, grads, m, v, t, learning_rate):
    """The one-expression-per-moment update `adam_step` must match bitwise."""
    b1, b2, eps, lr = ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON, learning_rate
    c1 = 1.0 - b1**t
    c2 = 1.0 - b2**t
    for li, ((W, b), (gW, gb)) in enumerate(zip(params, grads)):
        mW, mb = m[li]
        vW, vb = v[li]
        mW *= b1
        mW += (1.0 - b1) * gW
        mb *= b1
        mb += (1.0 - b1) * gb
        vW *= b2
        vW += (1.0 - b2) * gW**2
        vb *= b2
        vb += (1.0 - b2) * gb**2
        W -= lr * (mW / c1) / (np.sqrt(vW / c2) + eps)
        b -= lr * (mb / c1) / (np.sqrt(vb / c2) + eps)


def assert_adam_matches_reference(dtype, t0):
    rng = np.random.default_rng(5)
    params = [(W.astype(dtype), b.astype(dtype)) for W, b in init_he([12, 8, 8, 4], rng)]
    ref_params = [(W.copy(), b.copy()) for W, b in params]
    m, v = zeros_like_pairs(params), zeros_like_pairs(params)
    ref_m, ref_v = zeros_like_pairs(params), zeros_like_pairs(params)
    lr = TrainConfig().learning_rate
    for t in range(t0 + 1, t0 + 21):
        # about a third of the gradient entries are exact zeros
        grads = [tuple((rng.normal(size=a.shape) * (rng.random(a.shape) > 0.3)).astype(dtype)
                       for a in pair) for pair in params]
        adam_step(params, grads, m, v, t, lr)
        reference_adam_step(ref_params, grads, ref_m, ref_v, t, lr)
    for got, want in ((params, ref_params), (m, ref_m), (v, ref_v)):
        for pair, ref_pair in zip(got, want):
            for a, r in zip(pair, ref_pair):
                assert same_bits(a, r)


def test_adam_step_bitwise_matches_reference_expression():
    assert_adam_matches_reference(np.float64, 0)


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
def test_adam_step_bitwise_matches_reference_across_step_356(dtype):
    """From step 356 on, 1 - b1^t is exactly 1.0 and `adam_step` skips
    the division by it; the reference always divides."""
    assert 1.0 - ADAM_BETA1**355 != 1.0 == 1.0 - ADAM_BETA1**356
    assert_adam_matches_reference(dtype, 345)


def reference_forward(params, X):
    """Allocate-per-op forward: (the activations of every layer, the input
    first and the output last; the hidden pre-activations)."""
    acts, zs = [X], []
    for W, b in params[:-1]:
        z = acts[-1] @ W.T + b
        zs.append(z)
        acts.append(np.maximum(z, 0.0))
    W, b = params[-1]
    acts.append(acts[-1] @ W.T + b)
    return acts, zs


def reference_backward(params, acts, zs, Y):
    """Allocate-per-op backward: (per-tensor gradients, batch loss), with
    a fresh `d.T @ a` and `d.sum(axis=0)` per layer, the ReLU mask taken
    from the pre-activations and `.mean()` for both means."""
    e = acts[-1] - Y
    B, K = e.shape
    rmse = np.sqrt((e**2).mean(axis=1, keepdims=True))
    d = e / (B * K * np.where(rmse > 0.0, rmse, 1.0))
    grads = [None] * len(params)
    for li in range(len(params) - 1, -1, -1):
        grads[li] = (d.T @ acts[li], d.sum(axis=0))
        if li > 0:
            d = (d @ params[li][0]) * (zs[li - 1] > 0.0)
    return grads, float(rmse.mean())


def reference_gradients(params, X, Y):
    return reference_backward(params, *reference_forward(params, X), Y)[0]


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
def test_flat_buffers_match_per_tensor_bitwise(dtype):
    """What `train` does on its two flat buffers, one Adam pass over the
    pair and gradients written into views, gives the bits of per-tensor
    work on separate arrays."""
    rng = np.random.default_rng(5)
    he = init_he([12, 8, 8, 4], rng)
    (weights, biases), params = net._flat_views(he, dtype)
    for (W, b), (W0, b0) in zip(params, he):
        W[...], b[...] = W0, b0
    (gw, gb), grads = net._flat_views(he, dtype)
    ref_params = [(W.copy(), b.copy()) for W, b in params]
    m, v = zeros_like_pairs([(weights, biases)]), zeros_like_pairs([(weights, biases)])
    ref_m, ref_v = zeros_like_pairs(ref_params), zeros_like_pairs(ref_params)
    lr = TrainConfig().learning_rate
    for t in range(1, 21):
        # about a third of the gradient entries are exact zeros
        ref_grads = [tuple((rng.normal(size=a.shape) * (rng.random(a.shape) > 0.3)).astype(dtype)
                           for a in pair) for pair in params]
        for views, pair in zip(grads, ref_grads):
            for view, g in zip(views, pair):
                view[...] = g
        adam_step([(weights, biases)], [(gw, gb)], m, v, t, lr)
        adam_step(ref_params, ref_grads, ref_m, ref_v, t, lr)
    [(mw, mb)] = m
    [(vw, vb)] = v
    for flat, ref in (((weights, biases), ref_params), ((mw, mb), ref_m),
                      ((vw, vb), ref_v)):
        for a, r in zip(flat, (np.concatenate([W.ravel() for W, _ in ref]),
                               np.concatenate([b for _, b in ref]))):
            assert a.dtype == dtype and same_bits(a, r)

    X = rng.uniform(size=(32, 12)).astype(dtype)
    Y = rng.uniform(size=(32, 4)).astype(dtype)
    got = backward(params, X, Y)
    for (gW, gb_), (rW, rb) in zip(got, reference_gradients(params, X, Y)):
        assert same_bits(gW, rW) and same_bits(gb_, rb)
    # backward's gradients are views into one weight and one bias buffer
    assert got[0][0].base is got[-1][0].base and got[0][1].base is got[-1][1].base


def kernel_case(dtype, seed=7, sizes=(12, 16, 16, 4), rows=32):
    """He weights, features in [0, 1) and targets in [0, 1), in `dtype`."""
    rng = np.random.default_rng(seed)
    params = [(W.astype(dtype), b.astype(dtype)) for W, b in init_he(list(sizes), rng)]
    for _, b in params:
        b[...] = rng.normal(scale=0.1, size=b.shape)
    X = rng.uniform(size=(rows, sizes[0])).astype(dtype)
    Y = rng.uniform(size=(rows, sizes[-1])).astype(dtype)
    return params, X, Y


def assert_same_grads(got, want):
    for (gW, gb), (rW, rb) in zip(got, want, strict=True):
        assert same_bits(gW, rW) and same_bits(gb, rb)


def assert_grads_kernel_matches(params, acts, Y, want, want_loss):
    """`_grads_from_cache`, writing into flat views as `train` does, gives
    the reference's loss and gradient bits."""
    _, grads = net._flat_views(params, Y.dtype)
    assert net._grads_from_cache(params, acts, Y, grads) == want_loss
    assert_same_grads(grads, want)


def assert_step_matches_reference(params, X, Y):
    """`forward`, `backward` and the kernels of a `train` step give the
    reference's bits."""
    acts, zs = reference_forward(params, X)
    want, want_loss = reference_backward(params, acts, zs, Y)
    assert same_bits(forward(params, X), acts[-1])
    assert_same_grads(backward(params, X, Y), want)
    got_acts = net._forward_cached(params, X)
    assert len(got_acts) == len(acts)
    for a, r in zip(got_acts, acts):
        assert same_bits(a, r)
    assert_grads_kernel_matches(params, got_acts, Y, want, want_loss)


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
def test_step_kernels_match_allocating_reference_bitwise(dtype):
    """The in-place layers, the mask read from the activations and the
    bare `np.add.reduce` means change no bit: on a full batch and on the
    20-row tail that `train` cuts from a permutation."""
    params, X, Y = kernel_case(dtype)
    assert_step_matches_reference(params, X, Y)
    idx = np.random.default_rng(1).permutation(52)[32:]
    params, X, Y = kernel_case(dtype, rows=52)
    assert_step_matches_reference(params, X[idx], Y[idx])


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
def test_step_kernels_match_reference_at_zero_preactivations(dtype):
    """A pre-activation of exactly 0.0 or -0.0 is masked out whether the
    mask is read from it (z > 0) or from max(z, 0) > 0."""
    params, X, Y = kernel_case(dtype)
    # zero incoming weights give units whose pre-activation is exactly
    # the bias: 0.0 for unit 0, -0.0 + 0.0 = 0.0 for unit 1 of each layer
    for W, b in params[:-1]:
        W[:2] = 0.0
        b[:2] = (0.0, -0.0)
    zs = reference_forward(params, X)[1]
    assert all((z[:, :2] == 0.0).all() for z in zs)
    assert_step_matches_reference(params, X, Y)

    # matmul and bias add never give -0.0 here, so set the pre-activations
    # directly: the backward pass reads only the activations and the output
    acts, zs = reference_forward(params, X)
    rng = np.random.default_rng(2)
    for li, z in enumerate(zs, start=1):
        pick = rng.random(z.shape)
        z[pick < 0.2] = 0.0
        z[pick > 0.8] = -0.0
        acts[li] = np.maximum(z, 0.0)
    assert any(np.signbit(z[z == 0.0]).any() for z in zs)
    assert_grads_kernel_matches(params, acts, Y, *reference_backward(params, acts, zs, Y))


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
def test_forward_cached_leaves_its_input_unchanged(dtype):
    params, X, _ = kernel_case(dtype)
    before = X.copy()
    acts = net._forward_cached(params, X)
    assert acts[0] is X and same_bits(X, before)
    assert not any(np.shares_memory(X, a) for a in acts[1:])


class DtypeLog(np.ndarray):
    """An ndarray whose every derived array (ufunc result, matmul result,
    view) logs its dtype in `made`."""

    made = []

    def __array_finalize__(self, obj):
        DtypeLog.made.append(self.dtype)


def test_float32_step_makes_only_float32_arrays(monkeypatch):
    """No float64 array or scalar upcasts the float32 forward and
    backward: every float array the step derives from its inputs is
    float32, and so are the gradients."""
    params, X, Y = kernel_case(np.float32)
    monkeypatch.setattr(DtypeLog, "made", [])
    logged = [(W.view(DtypeLog), b.view(DtypeLog)) for W, b in params]
    acts = net._forward_cached(logged, X.view(DtypeLog))
    _, grads = net._flat_views(params, np.float32)
    batch_loss = net._grads_from_cache(logged, acts, Y.view(DtypeLog), grads)
    floats = {dt for dt in DtypeLog.made if dt.kind == "f"}
    assert len(DtypeLog.made) > 20 and floats == {np.dtype(np.float32)}
    assert all(a.dtype == np.float32 for a in acts)
    assert all(a.dtype == np.float32 for pair in grads for a in pair)
    assert isinstance(batch_loss, float)


def reference_train(train_ds, val_ds, config):
    """`train`'s loop written out per tensor: the same rng stream, the
    allocate-per-op forward and backward, `reference_adam_step` on
    separate float32 (W, b) arrays, the float64 validation copy and the
    best-epoch pick.  Returns (best float64 weights, train losses)."""
    scaling = TargetScaling.fit(train_ds.targets)
    X = train_ds.features.astype(np.float32)
    Y = scaling.transform(train_ds.targets).astype(np.float32)
    Xv, Yv = val_ds.features, scaling.transform(val_ds.targets)
    rng = np.random.default_rng(config.seed)
    he = init_he(layer_sizes(X.shape[1], Y.shape[1], config.hidden), rng)
    params = [(W.astype(np.float32), b.astype(np.float32)) for W, b in he]
    m, v, t = zeros_like_pairs(params), zeros_like_pairs(params), 0
    best_loss, best, stale, train_losses = np.inf, None, 0, []
    n = X.shape[0]
    for _ in range(config.max_epochs):
        order = rng.permutation(n)
        loss_sum = 0.0
        for start in range(0, n, config.batch_size):
            idx = order[start:start + config.batch_size]
            grads, batch_loss = reference_backward(
                params, *reference_forward(params, X[idx]), Y[idx])
            t += 1
            reference_adam_step(params, grads, m, v, t, config.learning_rate)
            loss_sum += batch_loss * idx.size
        train_losses.append(loss_sum / n)
        for pair in m:
            for a in pair:
                a[np.abs(a) < np.finfo(a.dtype).tiny] = 0.0
        params64 = [(W.astype(float), b.astype(float)) for W, b in params]
        vout = reference_forward(params64, Xv)[0][-1]
        val_loss = float(np.sqrt(((vout - Yv) ** 2).mean(axis=1)).mean())
        if val_loss < best_loss:
            best_loss, best, stale = val_loss, params64, 0
        else:
            stale += 1
            if stale >= config.patience:
                break
    return best, train_losses


def test_train_matches_per_tensor_reference_loop_bitwise():
    """A whole-loop oracle that needs no stored digest: three epochs of
    `train` (flat buffers, in-place layers, one Adam pass per buffer)
    return the weights of the reference loop bit for bit, with a partial
    last batch in every epoch, over 390 Adam steps: past step 356, from
    which `adam_step` skips its division by 1 - b1^t."""
    tr, va = splits(toy_dataset(n=18))
    cfg = TrainConfig(max_epochs=3, patience=3, batch_size=2, seed=4, hidden=(8, 8))
    assert len(tr) % cfg.batch_size and 3 * -(-len(tr) // cfg.batch_size) > 356
    params, _, report = train(tr, va, cfg)
    want, train_losses = reference_train(tr, va, cfg)
    assert report.train_loss == train_losses and report.epochs_run == 3
    for (W, b), (rW, rb) in zip(params, want, strict=True):
        assert same_bits(W, rW) and same_bits(b, rb)


def test_flush_subnormal_zeroes_only_subnormals():
    """The threshold is the smallest normal number of each array's own
    dtype: the float64 one would leave every float32 subnormal alone."""
    for dtype, bits in ((np.float64, np.uint64), (np.float32, np.uint32)):
        tiny = np.finfo(dtype).tiny
        sub = np.nextafter(dtype(0), dtype(1))
        below = np.nextafter(tiny, dtype(0))
        W = np.array([[tiny, -tiny, 1.5, 0.0], [tiny / 2, -tiny / 2, sub, -sub]], dtype=dtype)
        b = np.array([below, -tiny * 4, 3.0], dtype=dtype)
        _flush_subnormal([(W, b)])
        want_W = np.array([[tiny, -tiny, 1.5, 0.0], [0.0, 0.0, 0.0, 0.0]], dtype=dtype)
        want_b = np.array([0.0, -tiny * 4, 3.0], dtype=dtype)
        # compare bit patterns: flushed entries are +0.0, the rest untouched
        assert W.dtype == b.dtype == dtype
        assert np.array_equal(W.view(bits), want_W.view(bits)), dtype
        assert np.array_equal(b.view(bits), want_b.view(bits)), dtype


def test_train_returns_no_subnormal_first_moment(monkeypatch):
    # From step 2 on, the first layer's gradient is exactly zero, as for
    # ReLU units that no input activates. Its float32 first moments then
    # decay by beta1 per step and fall below the smallest normal float32
    # after about 800 steps (a float64 moment would take about 6 650);
    # the moments captured here are the ones at the end of the run,
    # which is later than either.  `train` passes one (weights, biases)
    # pair of flat buffers; the first layer's (8, 12) weights and 8
    # biases lead them.
    first_w, first_b = slice(0, 8 * 12), slice(0, 8)
    real_step = net.adam_step
    seen = {}

    def step_with_dead_first_layer(params, grads, m, v, t, learning_rate):
        seen.setdefault("moments", (m, v))
        seen["t"] = t
        if t > 1:
            [(gw, gb)] = grads
            gw[first_w] = 0.0
            gb[first_b] = 0.0
        real_step(params, grads, m, v, t, learning_rate)

    monkeypatch.setattr(net, "adam_step", step_with_dead_first_layer)
    tr, va = splits(toy_dataset(n=6))
    cfg = TrainConfig(max_epochs=300, patience=300, batch_size=1, seed=0, hidden=(8, 8))
    train(tr, va, cfg)
    assert seen["t"] > 7000
    [(mw, mb)], [(vw, vb)] = seen["moments"]
    for m in (mw, mb):
        assert m.dtype == np.float32
        tiny = np.finfo(m.dtype).tiny
        assert not ((m != 0.0) & (np.abs(m) < tiny)).any()
    # the first layer had a gradient at step 1 (v > 0) and its m is now
    # 0.0; the later layers kept learning
    for m, v, first in ((mw, vw, first_w), (mb, vb, first_b)):
        assert (v[first] > 0.0).any() and not m[first].any()
        assert m[first.stop:].any()


def test_train_steps_adam_in_float32_only(monkeypatch):
    """Every Adam step inside `train` sees float32 weights, gradients and
    moments, so neither a float64 array nor a float64 scalar upcasts the
    training loop; the tensors are still float32 after the step.  Each
    is one pair of C-contiguous buffers, all weights then all biases."""
    real_step = net.adam_step
    dtypes, layouts = set(), set()

    def recording_step(params, grads, m, v, t, learning_rate):
        real_step(params, grads, m, v, t, learning_rate)
        for group in (params, grads, m, v):
            dtypes.update(a.dtype for pair in group for a in pair)
            layouts.add(tuple((a.size, a.flags.c_contiguous) for pair in group for a in pair))

    monkeypatch.setattr(net, "adam_step", recording_step)
    tr, va = splits(toy_dataset(n=6))
    train(tr, va, TrainConfig(max_epochs=3, patience=3, seed=0, hidden=(8, 8)))
    assert dtypes == {np.dtype(np.float32)}
    sizes = layer_sizes(12, 4, (8, 8))
    n_weights = sum(a * b for a, b in zip(sizes[:-1], sizes[1:]))
    assert layouts == {((n_weights, True), (sum(sizes[1:]), True))}


def test_train_runs_adam_on_one_blas_thread(blas_count, monkeypatch):
    """`train` holds OpenBLAS on one thread through every step, and the
    count it found is back afterwards."""
    outside = blas_count()
    real_step = net.adam_step
    seen = []

    def recording_step(*args):
        seen.append(blas_count())
        real_step(*args)

    monkeypatch.setattr(net, "adam_step", recording_step)
    tr, va = splits(toy_dataset(n=6))
    train(tr, va, TrainConfig(max_epochs=3, patience=3, seed=0, hidden=(8, 8)))
    assert seen and set(seen) == {None if outside is None else 1}
    assert blas_count() == outside


def test_train_returns_float64_holding_float32_values():
    tr, va = splits(toy_dataset(n=6))
    params, _, _ = train(tr, va, TrainConfig(max_epochs=4, patience=4, seed=0, hidden=(8, 8)))
    for pair in params:
        for a in pair:
            assert a.dtype == np.float64
            assert same_bits(a.astype(np.float32).astype(np.float64), a)


def test_one_blas_thread_pins_and_restores(blas_count):
    outside = blas_count()
    pinned = None if outside is None else 1
    with net._one_blas_thread():
        assert blas_count() == pinned
    assert blas_count() == outside
    with pytest.raises(RuntimeError, match="inside"):
        with net._one_blas_thread():
            assert blas_count() == pinned
            raise RuntimeError("inside")
    assert blas_count() == outside


def test_one_blas_thread_without_openblas(blas_count, monkeypatch):
    outside = blas_count()
    monkeypatch.setattr(net, "_openblas_threads", lambda: None)
    with net._one_blas_thread():
        assert blas_count() == outside
    assert blas_count() == outside


def test_one_blas_thread_overlapping_pins_hold_until_the_last_exits(blas_count):
    """Nested in one thread or overlapping across two, the pin keeps the
    count at 1 until its last holder leaves, whichever entered first."""
    outside = blas_count()
    pinned = None if outside is None else 1
    with net._one_blas_thread():
        with net._one_blas_thread():
            assert blas_count() == pinned
        assert blas_count() == pinned
    assert blas_count() == outside

    entered, release, left = threading.Event(), threading.Event(), threading.Event()
    seen = []

    def other_holder():
        with net._one_blas_thread():
            entered.set()
            release.wait(timeout=30)
            seen.append(blas_count())
        left.set()

    # the other thread enters first and leaves first, inside our pin
    worker = threading.Thread(target=other_holder)
    worker.start()
    assert entered.wait(timeout=30)
    with net._one_blas_thread():
        release.set()
        assert left.wait(timeout=30)
        assert blas_count() == pinned
    worker.join(timeout=30)
    assert not worker.is_alive()
    assert seen == [pinned] and blas_count() == outside

    # we enter first and leave first, inside the other thread's pin
    for event in (entered, release, left):
        event.clear()
    seen.clear()
    with net._one_blas_thread():
        worker = threading.Thread(target=other_holder)
        worker.start()
        assert entered.wait(timeout=30)
    assert blas_count() == pinned
    release.set()
    worker.join(timeout=30)
    assert not worker.is_alive()
    assert seen == [pinned] and blas_count() == outside


def test_one_blas_thread_under_contention(blas_count):
    """More pinning threads than cores, switching as often as the
    interpreter allows: every block sees one thread, and the count is
    restored once all have left (a lost update of the holder count would
    restore it early or never)."""
    outside = blas_count()
    pinned = None if outside is None else 1
    seen = set()

    def pin_repeatedly():
        for _ in range(300):
            with net._one_blas_thread():
                seen.add(blas_count())
                time.sleep(0)  # let another thread enter or leave in between
                seen.add(blas_count())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=pin_repeatedly) for _ in range(6)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert seen == {pinned} and blas_count() == outside


def test_train_config_validation():
    with pytest.raises(InvalidParameterError):
        TrainConfig(max_epochs=0)
    with pytest.raises(InvalidParameterError):
        TrainConfig(patience=300, max_epochs=250)
    for lr in (0.0, np.nan, np.inf):
        with pytest.raises(InvalidParameterError, match="finite and > 0"):
            TrainConfig(learning_rate=lr)
    with pytest.raises(InvalidParameterError):
        TrainConfig(hidden=())


# ----------------------------------------------------------------- training


def test_train_deterministic_report():
    tr, va = splits(toy_dataset(n=6))
    cfg = TrainConfig(max_epochs=8, patience=8, seed=4, hidden=(16, 16))
    _, _, rep1 = train(tr, va, cfg)
    _, _, rep2 = train(tr, va, cfg)
    assert rep1.train_loss == rep2.train_loss
    assert rep1.val_loss == rep2.val_loss
    assert rep1.val_nrmse == rep2.val_nrmse
    assert rep1.val_cosine == rep2.val_cosine
    assert rep1.best_epoch == rep2.best_epoch


def test_train_report_lengths_match_epochs():
    tr, va = splits(toy_dataset(n=6))
    cfg = TrainConfig(max_epochs=6, patience=6, seed=0, hidden=(12,))
    _, _, rep = train(tr, va, cfg)
    assert rep.epochs_run == len(rep.val_loss) == len(rep.val_nrmse) == len(rep.val_cosine)
    assert 0 <= rep.best_epoch < rep.epochs_run


def test_train_early_stop_on_plateau():
    # constant features and targets: nothing to learn after epoch 0,
    # patience 1 must end the run long before max_epochs
    feats = np.full((30, 12), 0.5)
    feats += np.random.default_rng(0).normal(0, 1e-3, feats.shape)
    targets = np.tile([2.0, 3.0, 2.5, 3.5], (30, 1))
    targets += np.random.default_rng(1).normal(0, 1e-6, targets.shape)
    ds = Dataset(features=feats, targets=targets, kick=KickConfig(0.5, 0.5),
                 provenance="simulated")
    tr, va = splits(ds, fraction=0.3)
    _, _, rep = train(tr, va, TrainConfig(max_epochs=200, patience=1,
                                            seed=0, hidden=(8,)))
    assert rep.epochs_run < 200
    assert rep.best_epoch <= rep.epochs_run - 1


def test_train_returns_best_epoch_weights():
    tr, va = splits(toy_dataset(n=7))
    cfg = TrainConfig(max_epochs=30, patience=30, seed=1, hidden=(32, 32))
    params, scaling, rep = train(tr, va, cfg)
    out = forward(params, va.features)
    val_loss = float(np.sqrt(((out - scaling.transform(va.targets)) ** 2).mean(axis=1)).mean())
    assert val_loss == pytest.approx(rep.val_loss[rep.best_epoch], rel=1e-12)
    assert rep.val_loss[rep.best_epoch] == min(rep.val_loss)


def test_training_loss_decreases_over_ten_seeds():
    """Epoch 10 training loss beats epoch 1 for every seed on the
    reference dataset. Uses the full default grid, so this is the
    slowest unit test here (about 6 s)."""
    grid = build_grid(1.0, 7.0, 53)
    kick = kick_from_steps(grid, 5)
    ds = generate_simulated(grid, kick, DEV, np.random.default_rng(7),
                            mean_total=1000.0)
    tr, va = splits(ds, split_seed=20, fraction=0.15)
    for seed in range(10):
        _, _, rep = train(tr, va, TrainConfig(max_epochs=10, patience=10, seed=seed))
        assert rep.train_loss[9] < rep.train_loss[0]


def test_train_divergence_reports_epoch():
    """A diverging run is refused by its non-finite loss, without a numpy
    overflow warning on the way."""
    tr, va = splits(toy_dataset(n=5))
    cfg = TrainConfig(max_epochs=5, patience=5, seed=0, learning_rate=1e160,
                      hidden=(8,))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TrainingDivergedError) as err:
            train(tr, va, cfg)
    assert err.value.epoch is not None


# --------------------------------------------------------------- prediction


def test_predict_constant_network():
    # zero weights with output biases equal to a known scaled target:
    # every input predicts that target, one kick apart, so the kick
    # residual vanishes
    scaling = TargetScaling(lo=np.array([1.0, 1.0, 1.5, 1.5]),
                            hi=np.array([7.0, 7.0, 7.5, 7.5]))
    kick = KickConfig(dv1=0.5, dv2=0.5)
    volts = np.array([3.0, 4.0, 3.5, 4.5])
    params = [(np.zeros((8, 12)), np.zeros(8)),
              (np.zeros((4, 8)), scaling.transform(volts))]
    got = predict(params, np.random.default_rng(0).uniform(size=12), scaling)
    assert got.shape == (4,)
    np.testing.assert_allclose(got, volts, rtol=0.0, atol=1e-12)
    assert kick.residual(got) == pytest.approx(0.0, abs=1e-12)


def test_predict_untrained_zero_network():
    scaling = TargetScaling(lo=np.array([1.0, 1.0, 1.5, 1.5]),
                            hi=np.array([7.0, 7.0, 7.5, 7.5]))
    params = [(np.zeros((4, 12)), np.zeros(4))]
    got = predict(params, np.zeros(12), scaling)
    assert (got == scaling.lo).all()  # inverse scale of zero is the lower bound


def test_predict_vectorized():
    scaling = TargetScaling(lo=np.array([1.0, 1.0, 1.5, 1.5]),
                            hi=np.array([7.0, 7.0, 7.5, 7.5]))
    params = init_he([12, 6, 4], np.random.default_rng(0))
    feats = np.random.default_rng(1).uniform(size=(3, 9, 12))
    volts = predict(params, feats, scaling)
    assert volts.shape == (3, 9, 4)
    # the one features-to-volts map: the scaling undone on the network output
    assert same_bits(volts, scaling.invert(forward(params, feats)))
    # row by row too (a matrix-vector product may round differently)
    for row, f in zip(volts.reshape(-1, 4), feats.reshape(-1, 12)):
        np.testing.assert_allclose(row, predict(params, f, scaling), rtol=1e-12)
    residual = KickConfig(0.5, 0.5).residual(volts)
    assert residual.shape == (3, 9)
    assert np.all(residual >= 0.0)


# -------------------------------------------------------------- checkpoints


def trained_toy(tmp_path):
    tr, va = splits(toy_dataset(n=6))
    cfg = TrainConfig(max_epochs=5, patience=5, seed=2, hidden=(10, 10))
    params, scaling, _ = train(tr, va, cfg)
    path = tmp_path / "toy.ckpt"
    save_checkpoint(path, params, tr.kick, scaling, provenance="toy")
    return path, params, scaling, tr.kick


def dtype_line(lines):
    """The stored dtype of a checkpoint's lines (text or bytes): the numpy
    dtype its `dtype` header line names."""
    text = [line.decode() if isinstance(line, bytes) else line for line in lines]
    return np.dtype(next(line for line in text if line.startswith("dtype ")).split()[1])


def f32_exact(x):
    """x survives a round trip through IEEE binary32 bit for bit (struct
    packs by C cast, refusing values beyond binary32's range)."""
    try:
        back = struct.unpack("<f", struct.pack("<f", x))[0]
    except OverflowError:
        return False
    return struct.pack("<d", back) == struct.pack("<d", x)


def rewrite_with_checksum(path, lines):
    """Write `lines` (without a checksum line) plus a valid checksum."""
    payload = "\n".join(lines) + "\n"
    digest = hashlib.sha256(payload.encode()).hexdigest()
    path.write_text(payload + f"checksum {digest}\n")


def test_checkpoint_round_trip_bitwise(tmp_path):
    path, params, scaling, kick = trained_toy(tmp_path)
    ck = load_checkpoint(path)
    assert len(ck.params) == len(params)
    for (W, b), (rW, rb) in zip(params, ck.params):
        assert same_bits(W, rW) and same_bits(b, rb)
    assert ck.kick == kick
    assert same_bits(ck.scaling.lo, scaling.lo)
    assert same_bits(ck.scaling.hi, scaling.hi)
    assert ck.provenance == "toy"
    lines = path.read_text().splitlines()
    assert lines[1] == "format 4"
    assert lines[7] == "dtype <f4"  # train's weights are float32 values
    assert not any(line.startswith(("adam_t", "tensor m", "tensor v")) for line in lines)
    heads = [i for i, line in enumerate(lines) if line.startswith("tensor ")]
    assert len(heads) == 2 * len(params)
    for i in heads:  # one line of 8 hex digits per float32 under each header
        _, _, rows, cols = lines[i].split()
        assert len(lines[i + 1]) == 8 * int(rows) * int(cols)
        assert lines[i + 2].startswith(("tensor ", "checksum "))


def test_checkpoint_functions_take_path():
    """perfbench/tracing.py binds the `path` argument of both checkpoint
    functions to count file bytes: renaming it must fail here, not crash a
    traced benchmark run."""
    for fn in (load_checkpoint, save_checkpoint):
        assert "path" in inspect.signature(fn).parameters


def test_checkpoint_default_size_round_trip_bitwise(tmp_path):
    """save -> load of a default-size (12-200-200-200-4) network, whose data
    lines are far longer than the toy models', is the identity on every bit."""
    rng = np.random.default_rng(11)
    params = [(W, rng.normal(size=b.shape))
              for W, b in init_he(layer_sizes(12, 4), rng)]
    scaling = TargetScaling(lo=rng.normal(size=4), hi=rng.normal(size=4))
    path = tmp_path / "default.ckpt"
    save_checkpoint(path, params, KickConfig(0.5, 0.25), scaling, provenance="default")
    ck = load_checkpoint(path)
    assert ck.sizes == [12, 200, 200, 200, 4]
    assert dtype_line(path.read_text().splitlines()) == "<f8"
    for (W, b), (rW, rb) in zip(params, ck.params, strict=True):
        assert same_bits(W, rW) and same_bits(b, rb)
    assert same_bits(scaling.lo, ck.scaling.lo) and same_bits(scaling.hi, ck.scaling.hi)


def test_checkpoint_loaded_arrays_are_owned_float64(tmp_path):
    """Every loaded weight and bias is float64, C-contiguous and writable,
    owns its memory and shares it with no other, whichever dtype stored
    it: callers may update them in place."""
    path, params, scaling, kick = trained_toy(tmp_path)
    for stored in ("<f4", "<f8"):
        if stored == "<f8":  # one weight that float32 cannot hold
            params[0][0][0, 0] += 2.0**-40
            save_checkpoint(path, params, kick, scaling, provenance="toy")
        assert dtype_line(path.read_text().splitlines()) == stored
        arrays = [arr for pair in load_checkpoint(path).params for arr in pair]
        for arr in arrays:
            assert arr.dtype == np.float64 and arr.flags.owndata
            assert arr.flags.c_contiguous and arr.flags.writeable
        for i, a in enumerate(arrays):
            for b in arrays[i + 1:]:
                assert not np.shares_memory(a, b)


# -0.0, float64 subnormals (float32 flushes them), values beyond float32's
# range, and the float32 extremes themselves
_EXTREMES = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, np.finfo(float).tiny / 3,
                             np.finfo(float).max, -np.finfo(float).max, 1e39, -1e39,
                             float(np.finfo(np.float32).max), float(np.finfo(np.float32).tiny),
                             float(np.finfo(np.float32).smallest_subnormal)])
_FLOAT32 = st.floats(width=32, allow_nan=False, allow_infinity=False)
_FLOAT64 = st.floats(allow_nan=False, allow_infinity=False) | _EXTREMES


@settings(max_examples=60, deadline=None)
@given(data=st.data(), only_float32=st.booleans(),
       sizes=st.lists(st.integers(min_value=1, max_value=5), min_size=2, max_size=4))
def test_checkpoint_round_trip_property(tmp_path_factory, data, only_float32, sizes):
    """save -> load is the identity on every bit of every stored float, for
    parameters drawn as float32 values or as any finite float64 (with
    float32 values mixed in), and the tensors are stored as float32
    exactly when every weight and bias is a float32 value."""
    weights = _FLOAT32 if only_float32 else _FLOAT64 | _FLOAT32

    def vec(n, finite=weights):
        return np.array(data.draw(st.lists(finite, min_size=n, max_size=n)), dtype=float)

    params = [(vec(n_in * n_out).reshape(n_out, n_in), vec(n_out))
              for n_in, n_out in zip(sizes[:-1], sizes[1:])]
    scaling = TargetScaling(lo=vec(sizes[-1], _FLOAT64), hi=vec(sizes[-1], _FLOAT64))
    kick = KickConfig(*data.draw(st.tuples(*[st.floats(min_value=5e-324, max_value=1e300)] * 2)))
    path = tmp_path_factory.mktemp("ckpt") / "p.ckpt"
    save_checkpoint(path, params, kick, scaling, provenance="property")
    ck = load_checkpoint(path)
    assert ck.sizes == sizes and ck.kick == kick and ck.provenance == "property"
    exact = all(f32_exact(float(x)) for pair in params for arr in pair for x in arr.ravel())
    assert dtype_line(path.read_text().splitlines()) == ("<f4" if exact else "<f8")
    if only_float32:
        assert exact
    for (W, b), (rW, rb) in zip(params, ck.params, strict=True):
        assert same_bits(W, rW) and same_bits(b, rb)
    assert same_bits(scaling.lo, ck.scaling.lo) and same_bits(scaling.hi, ck.scaling.hi)


@pytest.mark.parametrize("bad", ["nan weight", "inf bias", "-inf scale_hi"])
def test_checkpoint_non_finite_parameters_refused(tmp_path, bad):
    """A non-finite weight, bias or scaling bound is refused at save time,
    and no file is written (the loader would reject it: exit 7)."""
    params = [(np.ones((4, 12)), np.zeros(4))]
    scaling = TargetScaling(lo=np.zeros(4), hi=np.ones(4))
    value, where = bad.split()
    {"weight": params[0][0], "bias": params[0][1], "scale_hi": scaling.hi}[where][-1] = float(value)
    path = tmp_path / "n.ckpt"
    with pytest.raises(InvalidParameterError, match="non-finite") as exc:
        save_checkpoint(path, params, KickConfig(0.5, 0.25), scaling)
    assert exc.value.exit_code == 3
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("layer, W1, b0, scale", [
    (1, (4, 5), (3,), 4),   # W1 takes 5 inputs from a 3-unit layer
    (0, (4, 3), (5,), 4),   # b0 has 5 entries for W0's 3 rows
    (0, (4, 3), (1, 3), 4),  # a bias is a vector
    (None, (4, 3), (3,), 2),  # 2 scaling bounds for 4 outputs
], ids=["W1-in", "b0-length", "b0-2d", "scaling"])
def test_checkpoint_unchained_shapes_refused(tmp_path, layer, W1, b0, scale):
    """Layers whose shapes do not chain would be written as a file the
    loader refuses, so the save refuses them first, naming the layer, and
    leaves no file or temporary file behind."""
    params = [(np.ones((3, 12)), np.zeros(b0)), (np.ones(W1), np.zeros(4))]
    scaling = TargetScaling(lo=np.zeros(scale), hi=np.ones(scale))
    path = tmp_path / "s.ckpt"
    match = f"layer {layer}" if layer is not None else "scaling bounds"
    with pytest.raises(InvalidParameterError, match=match) as exc:
        save_checkpoint(path, params, KickConfig(0.5, 0.25), scaling)
    assert exc.value.exit_code == 3
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("failure", [OSError(28, "No space left on device"), KeyboardInterrupt()],
                         ids=["disk-full", "interrupt"])
def test_checkpoint_failed_save_keeps_the_old_file(tmp_path, monkeypatch, failure):
    """A save that fails after writing its bytes leaves the file that was
    at `path` as it was, and no temporary file beside it."""
    path, params, scaling, kick = trained_toy(tmp_path)
    before = path.read_bytes()
    params[0][0][0, 0] += 1.0

    def fail(*_):
        raise failure

    monkeypatch.setattr(net.os, "replace", fail)
    with pytest.raises(type(failure)):
        save_checkpoint(path, params, kick, scaling, provenance="toy")
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == [path.name]


@pytest.mark.parametrize("provenance", ["run 1\nrun 2", "run 1\r", "\n"])
def test_checkpoint_multiline_provenance_refused(tmp_path, provenance):
    """A line break in the provenance would split its header line."""
    params = [(np.ones((4, 12)), np.zeros(4))]
    path = tmp_path / "m.ckpt"
    with pytest.raises(InvalidParameterError, match="provenance must be one line"):
        save_checkpoint(path, params, KickConfig(0.5, 0.25),
                        TargetScaling(lo=np.zeros(4), hi=np.ones(4)), provenance=provenance)
    assert not path.exists()


def test_checkpoint_truncation_rejected(tmp_path):
    path, *_ = trained_toy(tmp_path)
    text = path.read_text()
    path.write_text(text[: len(text) // 2])
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_checkpoint_bad_magic_rejected(tmp_path):
    path, *_ = trained_toy(tmp_path)
    path.write_text("not-a-checkpoint\n" + path.read_text())
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(path)


def test_checkpoint_bit_flip_rejected(tmp_path):
    path, *_ = trained_toy(tmp_path)
    lines = path.read_text().splitlines()
    at = lines.index("tensor b0 1 10") + 1
    lines[at] = f"{int(lines[at][0], 16) ^ 1:x}" + lines[at][1:]  # one bit of b0[0]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CheckpointError, match="checksum"):
        load_checkpoint(path)


@pytest.mark.parametrize("fmt", ["format 1", "format 2", "format 3", "format 999"])
def test_checkpoint_foreign_format_version_rejected(tmp_path, fmt):
    """Only format 4 loads; the decimal formats 1 and 2 and format 3 (hex
    float64 without a dtype line) are refused like any other version, and
    the message names the format that is read."""
    path, *_ = trained_toy(tmp_path)
    lines = path.read_text().splitlines()[:-1]
    lines[1] = fmt
    rewrite_with_checksum(path, lines)
    with pytest.raises(CheckpointError, match="unsupported checkpoint format.*format 4"):
        load_checkpoint(path)


@pytest.mark.parametrize("label, value, message", [
    ("tensor W0", "nan", "non-finite value in tensor W0"),
    ("scale_hi", "inf", "non-finite value in scale_hi"),
    ("kick", "nan", "kick offsets must be finite"),
    ("scale_lo", "1_0", "malformed checkpoint header"),
    ("dtype", "<f2", "malformed checkpoint header: dtype '<f2'"),
])
def test_checkpoint_non_finite_value_rejected(tmp_path, label, value, message):
    path, *_ = trained_toy(tmp_path)
    lines = path.read_text().splitlines()[:-1]
    at = next(i for i, line in enumerate(lines) if line.startswith(label))
    if label.startswith("tensor"):  # the last element of its hex data line
        stored = dtype_line(lines)
        lines[at + 1] = lines[at + 1][:-2 * stored.itemsize] + np.array(float(value), stored).tobytes().hex()
    else:
        fields = lines[at].split()
        fields[-1] = value
        lines[at] = " ".join(fields)
    rewrite_with_checksum(path, lines)
    with pytest.raises(CheckpointError, match=message):
        load_checkpoint(path)


def test_checkpoint_missing_tensor_line_message_is_bounded(tmp_path):
    """With a `tensor` line deleted, the loader reads the data line below it
    in its place; the message quotes at most 60 characters of that line."""
    path, *_ = trained_toy(tmp_path)
    lines = path.read_text().splitlines()[:-1]
    at = lines.index("tensor W1 10 10")
    assert len(lines[at + 1]) == 800
    del lines[at]
    rewrite_with_checksum(path, lines)
    with pytest.raises(CheckpointError, match="expected 'tensor W1 10 10', got ") as exc:
        load_checkpoint(path)
    assert repr(lines[at][:60]) in str(exc.value)
    assert len(str(exc.value)) < 150


def handmade_checkpoint(path, params, kick, scaling, dtype):
    """Write `params` to the documented format 4 layout by hand: a `dtype`
    header line, then one line of hex `dtype` values per tensor."""
    sizes = [params[0][0].shape[1]] + [W.shape[0] for W, _ in params]
    lines = [
        "tricalib-checkpoint",
        "format 4",
        "sizes " + " ".join(map(str, sizes)),
        f"kick {float(kick.dv1)!r} {float(kick.dv2)!r}",
        "scale_lo " + " ".join(repr(float(x)) for x in scaling.lo),
        "scale_hi " + " ".join(repr(float(x)) for x in scaling.hi),
        "provenance handmade",
        f"dtype {dtype}",
    ]
    for li, pair in enumerate(params):
        for kind, arr in zip("Wb", pair):
            arr = np.atleast_2d(arr)
            lines.append(f"tensor {kind}{li} {arr.shape[0]} {arr.shape[1]}")
            lines.append(arr.astype(dtype).tobytes().hex())
    rewrite_with_checksum(path, lines)


@pytest.mark.parametrize("dtype", ["<f4", "<f8"])
def test_checkpoint_written_elsewhere_loads(tmp_path, dtype):
    """A file assembled by hand to the documented layout of the one format
    read must load, with either dtype."""
    rng = np.random.default_rng(0)
    W0, b0 = rng.normal(size=(2, 12)).astype(dtype).astype(float), np.zeros(2)
    W1, b1 = rng.normal(size=(4, 2)).astype(dtype).astype(float), np.zeros(4)
    path = tmp_path / "handmade.ckpt"
    handmade_checkpoint(path, [(W0, b0), (W1, b1)], KickConfig(0.5, 0.5),
                        TargetScaling(lo=np.zeros(4), hi=np.ones(4)), dtype)

    assert path.read_text().splitlines()[1] == "format 4"
    ck = load_checkpoint(path)
    assert same_bits(ck.params[0][0], W0) and same_bits(ck.params[1][0], W1)
    assert ck.sizes == [12, 2, 4]
    feats = rng.uniform(size=12)
    expected = W1 @ np.maximum(W0 @ feats + b0, 0.0) + b1
    np.testing.assert_allclose(forward(ck.params, feats), expected, atol=1e-12)
    volts = predict(ck.params, feats, ck.scaling)
    assert volts.shape == (4,) and np.isfinite(volts).all()


@pytest.mark.parametrize("extra", ["line", "moments"])
def test_checkpoint_trailing_content_rejected(tmp_path, extra):
    """Nothing may follow the last tensor, neither a stray line nor whole
    extra tensor blocks (here Adam moments)."""
    path, params, *_ = trained_toy(tmp_path)
    lines = path.read_text().splitlines()[:-1]
    if extra == "line":
        lines.append("0.0")
    else:  # format 1's moment blocks, in the format 4 body form
        for label in ("m", "v"):
            for li, (W, b) in enumerate(params):
                for name, arr in ((f"{label}W{li}", W), (f"{label}b{li}", b[None])):
                    lines.append(f"tensor {name} {arr.shape[0]} {arr.shape[1]}")
                    lines.append(np.zeros(arr.shape, dtype_line(lines)).tobytes().hex())
    rewrite_with_checksum(path, lines)
    with pytest.raises(CheckpointError, match="after the last tensor"):
        load_checkpoint(path)


@pytest.fixture(scope="module")
def fuzz_bases(tmp_path_factory):
    """Two small checkpoints (12-3-4), one stored as float32 and one as
    float64, and a scratch path for their mutants.

    W0[0, 0] is 1.9375: 0x3ff80000 in float32, stored as 0000f83f, and
    0x3fff000000000000 in float64, stored as 000000000000ff3f; either way
    one bit of its last hex digit but one away from a NaN."""
    rng = np.random.default_rng(5)
    W0, W1 = rng.normal(size=(3, 12)), rng.normal(size=(4, 3))
    W0[0, 0] = 1.9375
    params = [(W0, rng.normal(size=3)), (W1, rng.normal(size=4))]
    root = tmp_path_factory.mktemp("fuzz")
    bases = []
    for dtype in ("<f4", "<f8"):
        stored = [(W.astype(dtype).astype(float), b.astype(dtype).astype(float)) for W, b in params]
        path = root / f"base{dtype[1:]}.ckpt"
        save_checkpoint(path, stored, KickConfig(0.5, 0.25),
                        TargetScaling(lo=np.zeros(4), hi=np.full(4, 2.0)), provenance="fuzz")
        assert dtype_line(path.read_text().splitlines()) == dtype
        bases.append(path.read_bytes())
    return bases, root / "mutant.ckpt"


@settings(max_examples=300, deadline=None)
@given(mutations=st.lists(BYTE_MUTATION, min_size=1, max_size=3), recompute=st.booleans())
# Line 9 is W0's data line: a newline or a space at a value boundary
# splits it, and '3' -> '7' in W0[0, 0]'s top byte (hex digit 6 of a
# float32, 14 of a float64) makes 0x7ff80000 or 0x7fff000000000000, a NaN.
@example(mutations=[("insert", 9, 16, ord("\n"))], recompute=True)
@example(mutations=[("insert", 9, 16, ord(" "))], recompute=True)
@example(mutations=[("flip", 9, 6, ord("3") ^ ord("7"))], recompute=True)
@example(mutations=[("flip", 9, 14, ord("3") ^ ord("7"))], recompute=True)
def test_checkpoint_byte_mutation_fuzz(fuzz_bases, mutations, recompute):
    """Flipped, inserted or deleted bytes give a CheckpointError or a
    checkpoint whose tensors match its sizes and are all finite, and whose
    data lines hold exactly 2 * itemsize hex digits per value of the dtype
    its `dtype` line names, with the checksum left as it is or recomputed
    so the mutation reaches the parser.  Each mutation is applied to the
    float32 and to the float64 file."""
    bases, path = fuzz_bases
    for base in bases:
        if recompute:
            payload = base[:base.rindex(b"checksum ")]
            for mutation in mutations:
                payload = mutate_bytes(payload, *mutation)
            data = payload + f"checksum {hashlib.sha256(payload).hexdigest()}\n".encode()
        else:
            data = base
            for mutation in mutations:
                data = mutate_bytes(data, *mutation)
        path.write_bytes(data)
        try:
            ck = load_checkpoint(path)
        except CheckpointError:
            continue
        assert len(ck.sizes) >= 2 and len(ck.params) == len(ck.sizes) - 1
        for (W, b), n_in, n_out in zip(ck.params, ck.sizes[:-1], ck.sizes[1:]):
            assert W.shape == (n_out, n_in) and b.shape == (n_out,)
            assert np.isfinite(W).all() and np.isfinite(b).all()
        assert ck.scaling.lo.shape == ck.scaling.hi.shape == (ck.sizes[-1],)
        assert np.isfinite(ck.scaling.lo).all() and np.isfinite(ck.scaling.hi).all()
        lines = data.split(b"\n")
        itemsize = dtype_line(lines).itemsize
        heads = [i for i, line in enumerate(lines) if line.startswith(b"tensor ")]
        assert len(heads) == 2 * len(ck.params)
        for i, arr in zip(heads, (arr for pair in ck.params for arr in pair)):
            assert len(lines[i + 1]) == 2 * itemsize * arr.size

