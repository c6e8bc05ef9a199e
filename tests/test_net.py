"""Network internals: initialization, forward/backward, Adam, the
training loop, prediction, and the checkpoint format."""

import hashlib
import inspect

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
    init_adam,
    init_he,
    layer_sizes,
    load_checkpoint,
    loss,
    predict,
    save_checkpoint,
    train,
)

from conftest import BYTE_MUTATION, mutate_bytes, same_bits

DEV = default_device_config()


def toy_dataset(n=5, mean_total=None, seed=0):
    grid = build_grid(2.0, 5.0, n)
    kick = kick_from_steps(grid, 1, 1)
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


def flatten(grads):
    return np.concatenate([np.concatenate([gW.ravel(), gb.ravel()]) for gW, gb in grads])


def numeric_gradient(params, X, Y, h=1e-5):
    out = []
    for li, (W, b) in enumerate(params):
        for arr in (W, b):
            g = np.zeros_like(arr)
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                old = arr[idx]
                arr[idx] = old + h
                lp = loss(params, X, Y)
                arr[idx] = old - h
                lm = loss(params, X, Y)
                arr[idx] = old
                g[idx] = (lp - lm) / (2.0 * h)
            out.append(g.ravel())
    return np.concatenate(out)


def kink_mask(params, X, tol=1e-6):
    """True for parameter coordinates safe from ReLU kinks: we simply
    flag whole instances whose hidden preactivations approach zero."""
    A = np.atleast_2d(X)
    for W, b in params[:-1]:
        Z = A @ W.T + b
        if np.abs(Z).min() < tol:
            return False
        A = np.maximum(Z, 0.0)
    return True


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


def test_adam_first_step_magnitude():
    params = [(np.array([[2.0]]), np.array([0.5]))]
    state = init_adam(params)
    grads = [(np.array([[3.0]]), np.array([-0.7]))]
    cfg = TrainConfig()
    W0 = params[0][0].copy()
    adam_step(params, grads, state, cfg)
    # bias correction makes the first step lr * g / (|g| + eps) ~ lr
    step = (W0 - params[0][0])[0, 0]
    assert step == pytest.approx(cfg.learning_rate, rel=1e-6)
    assert state.t == 1


def test_adam_zero_gradient_is_a_no_op():
    params = init_he([3, 4, 2], np.random.default_rng(0))
    before = [(W.copy(), b.copy()) for W, b in params]
    state = init_adam(params)
    zeros = [(np.zeros_like(W), np.zeros_like(b)) for W, b in params]
    adam_step(params, zeros, state, TrainConfig())
    for (W, b), (W0, b0) in zip(params, before):
        assert np.array_equal(W, W0) and np.array_equal(b, b0)
    assert state.t == 1


def test_adam_second_moments_nonnegative():
    rng = np.random.default_rng(2)
    params = init_he([3, 4, 2], rng)
    state = init_adam(params)
    for _ in range(5):
        grads = [(rng.normal(size=W.shape), rng.normal(size=b.shape)) for W, b in params]
        adam_step(params, grads, state, TrainConfig())
    for vW, vb in state.v:
        assert vW.min() >= 0.0 and vb.min() >= 0.0
    assert state.t == 5


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
    state = init_adam(params)
    mine = []
    for g in gs:
        adam_step(params, [(np.array([[g]]), np.array([0.0]))], state, cfg)
        mine.append(params[0][0][0, 0])
    ref = reference_adam_scalar(1.5, gs, cfg.learning_rate)
    assert np.abs(np.array(mine) - ref).max() < 1e-12


def reference_adam_step(params, grads, state, config):
    """The one-expression-per-moment update `adam_step` must match bitwise."""
    b1, b2, eps, lr = ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON, config.learning_rate
    state.t += 1
    c1 = 1.0 - b1**state.t
    c2 = 1.0 - b2**state.t
    for li, ((W, b), (gW, gb)) in enumerate(zip(params, grads)):
        mW, mb = state.m[li]
        vW, vb = state.v[li]
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


def test_adam_step_bitwise_matches_reference_expression():
    rng = np.random.default_rng(5)
    params = init_he([12, 8, 8, 4], rng)
    ref_params = [(W.copy(), b.copy()) for W, b in params]
    state, ref_state = init_adam(params), init_adam(ref_params)
    cfg = TrainConfig()
    for _ in range(20):
        # about a third of the gradient entries are exact zeros
        grads = [tuple(rng.normal(size=a.shape) * (rng.random(a.shape) > 0.3)
                       for a in pair) for pair in params]
        adam_step(params, grads, state, cfg)
        reference_adam_step(ref_params, grads, ref_state, cfg)
    assert state.t == ref_state.t == 20
    for got, want in ((params, ref_params), (state.m, ref_state.m), (state.v, ref_state.v)):
        for pair, ref_pair in zip(got, want):
            for a, r in zip(pair, ref_pair):
                assert np.array_equal(a, r)


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
    # the Adam state captured here is the one at the end of the run,
    # which is later than either.
    real_step = net.adam_step
    captured = []

    def step_with_dead_first_layer(params, grads, state, config):
        if not captured:
            captured.append(state)
        if state.t > 0:
            for g in grads[0]:
                g[...] = 0.0
        return real_step(params, grads, state, config)

    monkeypatch.setattr(net, "adam_step", step_with_dead_first_layer)
    tr, va = splits(toy_dataset(n=6))
    cfg = TrainConfig(max_epochs=300, patience=300, batch_size=1, seed=0, hidden=(8, 8))
    train(tr, va, cfg)
    adam = captured[0]
    assert adam.t > 7000
    for m_pair in adam.m:
        for m in m_pair:
            assert m.dtype == np.float32
            tiny = np.finfo(m.dtype).tiny
            assert not ((m != 0.0) & (np.abs(m) < tiny)).any()
    # the first layer had a gradient at step 1 (v > 0) and its m is now 0.0
    for m, v in zip(adam.m[0], adam.v[0]):
        assert (v > 0.0).any() and not m.any()


def test_train_steps_adam_in_float32_only(monkeypatch):
    """Every Adam step inside `train` sees float32 weights, gradients and
    moments, so neither a float64 array nor a float64 scalar upcasts the
    training loop; the tensors are still float32 after the step."""
    real_step = net.adam_step
    dtypes = set()

    def recording_step(params, grads, state, config):
        real_step(params, grads, state, config)
        for group in (params, grads, state.m, state.v):
            dtypes.update(a.dtype for pair in group for a in pair)
        return params, state

    monkeypatch.setattr(net, "adam_step", recording_step)
    tr, va = splits(toy_dataset(n=6))
    train(tr, va, TrainConfig(max_epochs=3, patience=3, seed=0, hidden=(8, 8)))
    assert dtypes == {np.dtype(np.float32)}


def test_train_returns_float64_holding_float32_values():
    tr, va = splits(toy_dataset(n=6))
    params, _, _ = train(tr, va, TrainConfig(max_epochs=4, patience=4, seed=0, hidden=(8, 8)))
    for pair in params:
        for a in pair:
            assert a.dtype == np.float64
            assert same_bits(a.astype(np.float32).astype(np.float64), a)


def test_train_config_validation():
    with pytest.raises(InvalidParameterError):
        TrainConfig(max_epochs=0)
    with pytest.raises(InvalidParameterError):
        TrainConfig(patience=300, max_epochs=250)
    with pytest.raises(InvalidParameterError):
        TrainConfig(learning_rate=0.0)
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
    ds = Dataset(features=feats, targets=targets, kick=KickConfig(0.5, 0.5))
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
    kick = kick_from_steps(grid, 5, 5)
    ds = generate_simulated(grid, kick, DEV, np.random.default_rng(7),
                            mean_total=1000.0)
    tr, va = splits(ds, split_seed=20, fraction=0.15)
    for seed in range(10):
        _, _, rep = train(tr, va, TrainConfig(max_epochs=10, patience=10, seed=seed))
        assert rep.train_loss[9] < rep.train_loss[0]


def test_train_divergence_reports_epoch():
    tr, va = splits(toy_dataset(n=5))
    cfg = TrainConfig(max_epochs=5, patience=5, seed=0, learning_rate=1e160,
                      hidden=(8,))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(TrainingDivergedError) as err:
            train(tr, va, cfg)
    assert err.value.epoch is not None


# --------------------------------------------------------------- prediction


def test_predict_constant_network():
    # zero weights with output biases equal to a known scaled target:
    # every input predicts that target, so the kick residual vanishes
    scaling = TargetScaling(lo=np.array([1.0, 1.0, 1.5, 1.5]),
                            hi=np.array([7.0, 7.0, 7.5, 7.5]))
    kick = KickConfig(dv1=0.5, dv2=0.5)
    volts = np.array([3.0, 4.0, 3.5, 4.5])
    params = [(np.zeros((8, 12)), np.zeros(8)),
              (np.zeros((4, 8)), scaling.transform(volts))]
    v1, v2, residual = predict(params, np.random.default_rng(0).uniform(size=12),
                               scaling, kick)
    assert v1 == pytest.approx(3.0, abs=1e-12)
    assert v2 == pytest.approx(4.0, abs=1e-12)
    assert residual == pytest.approx(0.0, abs=1e-12)


def test_predict_untrained_zero_network():
    scaling = TargetScaling(lo=np.array([1.0, 1.0, 1.5, 1.5]),
                            hi=np.array([7.0, 7.0, 7.5, 7.5]))
    params = [(np.zeros((4, 12)), np.zeros(4))]
    v1, v2, _ = predict(params, np.zeros(12), scaling, KickConfig(0.5, 0.5))
    assert v1 == 1.0 and v2 == 1.0  # inverse scale of zero is the lower bound


def test_predict_vectorized():
    scaling = TargetScaling(lo=np.zeros(4), hi=np.ones(4))
    params = init_he([12, 6, 4], np.random.default_rng(0))
    feats = np.random.default_rng(1).uniform(size=(9, 12))
    v1, v2, res = predict(params, feats, scaling, KickConfig(0.5, 0.5))
    assert v1.shape == v2.shape == res.shape == (9,)
    assert np.all(res >= 0.0)


# -------------------------------------------------------------- checkpoints


def trained_toy(tmp_path):
    tr, va = splits(toy_dataset(n=6))
    cfg = TrainConfig(max_epochs=5, patience=5, seed=2, hidden=(10, 10))
    params, scaling, _ = train(tr, va, cfg)
    path = tmp_path / "toy.ckpt"
    save_checkpoint(path, params, tr.kick, scaling, provenance="toy")
    return path, params, scaling, tr.kick


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
    assert lines[1] == "format 3"
    assert not any(line.startswith(("adam_t", "tensor m", "tensor v")) for line in lines)
    heads = [i for i, line in enumerate(lines) if line.startswith("tensor ")]
    assert len(heads) == 2 * len(params)
    for i in heads:  # one line of 16 hex digits per float64 under each header
        _, _, rows, cols = lines[i].split()
        assert len(lines[i + 1]) == 16 * int(rows) * int(cols)
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
    for (W, b), (rW, rb) in zip(params, ck.params, strict=True):
        assert same_bits(W, rW) and same_bits(b, rb)
    assert same_bits(scaling.lo, ck.scaling.lo) and same_bits(scaling.hi, ck.scaling.hi)


def test_checkpoint_loaded_arrays_are_owned_float64(tmp_path):
    """Every loaded weight and bias is float64, C-contiguous and writable,
    and shares memory with no other: callers may update them in place."""
    path, *_ = trained_toy(tmp_path)
    arrays = [arr for pair in load_checkpoint(path).params for arr in pair]
    for arr in arrays:
        assert arr.dtype == np.float64
        assert arr.flags.c_contiguous and arr.flags.writeable
    for i, a in enumerate(arrays):
        for b in arrays[i + 1:]:
            assert not np.shares_memory(a, b)


_EXTREMES = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, np.finfo(float).tiny / 3,
                             np.finfo(float).max, -np.finfo(float).max])


@settings(max_examples=40, deadline=None)
@given(data=st.data(),
       sizes=st.lists(st.integers(min_value=1, max_value=5), min_size=2, max_size=4))
def test_checkpoint_round_trip_property(tmp_path_factory, data, sizes):
    """save -> load is the identity on every bit of every stored float."""
    finite = st.floats(allow_nan=False, allow_infinity=False) | _EXTREMES

    def vec(n):
        return np.array(data.draw(st.lists(finite, min_size=n, max_size=n)), dtype=float)

    params = [(vec(n_in * n_out).reshape(n_out, n_in), vec(n_out))
              for n_in, n_out in zip(sizes[:-1], sizes[1:])]
    scaling = TargetScaling(lo=vec(sizes[-1]), hi=vec(sizes[-1]))
    kick = KickConfig(*data.draw(st.tuples(*[st.floats(min_value=5e-324, max_value=1e300)] * 2)))
    path = tmp_path_factory.mktemp("ckpt") / "p.ckpt"
    save_checkpoint(path, params, kick, scaling, provenance="property")
    ck = load_checkpoint(path)
    assert ck.sizes == sizes and ck.kick == kick and ck.provenance == "property"
    for (W, b), (rW, rb) in zip(params, ck.params, strict=True):
        assert same_bits(W, rW) and same_bits(b, rb)
    assert same_bits(scaling.lo, ck.scaling.lo) and same_bits(scaling.hi, ck.scaling.hi)


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


@pytest.mark.parametrize("fmt", ["format 1", "format 2", "format 999"])
def test_checkpoint_foreign_format_version_rejected(tmp_path, fmt):
    """Only format 3 loads; the decimal formats 1 and 2 are refused like
    any other version, and the message names the format that is read."""
    path, *_ = trained_toy(tmp_path)
    lines = path.read_text().splitlines()[:-1]
    lines[1] = fmt
    rewrite_with_checksum(path, lines)
    with pytest.raises(CheckpointError, match="unsupported checkpoint format.*format 3"):
        load_checkpoint(path)


@pytest.mark.parametrize("label, value, message", [
    ("tensor W0", "nan", "non-finite value in tensor W0"),
    ("scale_hi", "inf", "non-finite value in scale_hi"),
    ("kick", "nan", "kick offsets must be finite"),
    ("scale_lo", "1_0", "malformed checkpoint header"),
])
def test_checkpoint_non_finite_value_rejected(tmp_path, label, value, message):
    path, *_ = trained_toy(tmp_path)
    lines = path.read_text().splitlines()[:-1]
    at = next(i for i, line in enumerate(lines) if line.startswith(label))
    if label.startswith("tensor"):  # the last element of its hex float64 data line
        lines[at + 1] = lines[at + 1][:-16] + np.array(float(value), "<f8").tobytes().hex()
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
    assert len(lines[at + 1]) == 1600
    del lines[at]
    rewrite_with_checksum(path, lines)
    with pytest.raises(CheckpointError, match="expected 'tensor W1 10 10', got ") as exc:
        load_checkpoint(path)
    assert repr(lines[at][:60]) in str(exc.value)
    assert len(str(exc.value)) < 150


def handmade_checkpoint(path, params, kick, scaling):
    """Write `params` to the documented format 3 layout by hand: one line
    of hex float64 per tensor."""
    sizes = [params[0][0].shape[1]] + [W.shape[0] for W, _ in params]
    lines = [
        "tricalib-checkpoint",
        "format 3",
        "sizes " + " ".join(map(str, sizes)),
        f"kick {float(kick.dv1)!r} {float(kick.dv2)!r}",
        "scale_lo " + " ".join(repr(float(x)) for x in scaling.lo),
        "scale_hi " + " ".join(repr(float(x)) for x in scaling.hi),
        "provenance handmade",
    ]
    for li, pair in enumerate(params):
        for kind, arr in zip("Wb", pair):
            arr = np.atleast_2d(arr)
            lines.append(f"tensor {kind}{li} {arr.shape[0]} {arr.shape[1]}")
            lines.append(arr.astype("<f8").tobytes().hex())
    rewrite_with_checksum(path, lines)


@pytest.mark.parametrize("fmt", [3])
def test_checkpoint_written_elsewhere_loads(tmp_path, fmt):
    """A file assembled by hand to the documented layout of the one format
    read must load."""
    rng = np.random.default_rng(0)
    W0, b0 = rng.normal(size=(2, 12)), np.zeros(2)
    W1, b1 = rng.normal(size=(4, 2)), np.zeros(4)
    path = tmp_path / "handmade.ckpt"
    handmade_checkpoint(path, [(W0, b0), (W1, b1)], KickConfig(0.5, 0.5),
                        TargetScaling(lo=np.zeros(4), hi=np.ones(4)))

    assert path.read_text().splitlines()[1] == f"format {fmt}"
    ck = load_checkpoint(path)
    assert ck.sizes == [12, 2, 4]
    feats = rng.uniform(size=12)
    expected = W1 @ np.maximum(W0 @ feats + b0, 0.0) + b1
    np.testing.assert_allclose(forward(ck.params, feats), expected, atol=1e-12)
    v1, v2, res = predict(ck.params, feats, ck.scaling, ck.kick)
    assert np.isfinite([v1, v2, res]).all()


@pytest.mark.parametrize("extra", ["line", "moments"])
def test_checkpoint_trailing_content_rejected(tmp_path, extra):
    """Nothing may follow the last tensor, neither a stray line nor whole
    extra tensor blocks (here Adam moments)."""
    path, params, *_ = trained_toy(tmp_path)
    lines = path.read_text().splitlines()[:-1]
    if extra == "line":
        lines.append("0.0")
    else:  # format 1's moment blocks, in the format 3 body form
        for label in ("m", "v"):
            for li, (W, b) in enumerate(params):
                for name, arr in ((f"{label}W{li}", W), (f"{label}b{li}", b[None])):
                    lines.append(f"tensor {name} {arr.shape[0]} {arr.shape[1]}")
                    lines.append(np.zeros(arr.shape, "<f8").tobytes().hex())
    rewrite_with_checksum(path, lines)
    with pytest.raises(CheckpointError, match="after the last tensor"):
        load_checkpoint(path)


@pytest.fixture(scope="module")
def fuzz_base(tmp_path_factory):
    """A small format 3 checkpoint (12-3-4) and a scratch path for its mutants.

    W0[0, 0] is 1.9375, 0x3fff000000000000, stored as 000000000000ff3f:
    one bit of its 15th hex digit away from a NaN."""
    rng = np.random.default_rng(5)
    W0, W1 = rng.normal(size=(3, 12)), rng.normal(size=(4, 3))
    W0[0, 0] = 1.9375
    params = [(W0, rng.normal(size=3)), (W1, rng.normal(size=4))]
    path = tmp_path_factory.mktemp("fuzz") / "base.ckpt"
    save_checkpoint(path, params, KickConfig(0.5, 0.25),
                    TargetScaling(lo=np.zeros(4), hi=np.full(4, 2.0)), provenance="fuzz")
    return path.read_bytes(), path.with_name("mutant.ckpt")


@settings(max_examples=300, deadline=None)
@given(mutations=st.lists(BYTE_MUTATION, min_size=1, max_size=3), recompute=st.booleans())
# Line 8 is W0's data line: a newline or a space at a float64 boundary
# splits it, and '3' -> '7' in W0[0, 0]'s top byte makes 0x7fff000000000000,
# a NaN.
@example(mutations=[("insert", 8, 16, ord("\n"))], recompute=True)
@example(mutations=[("insert", 8, 16, ord(" "))], recompute=True)
@example(mutations=[("flip", 8, 14, ord("3") ^ ord("7"))], recompute=True)
def test_checkpoint_byte_mutation_fuzz(fuzz_base, mutations, recompute):
    """Flipped, inserted or deleted bytes give a CheckpointError or a
    checkpoint whose tensors match its sizes and are all finite, and whose
    data lines hold exactly 16 hex digits per float64, with the checksum
    left as it is or recomputed so the mutation reaches the parser."""
    base, path = fuzz_base
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
        return
    assert len(ck.sizes) >= 2 and len(ck.params) == len(ck.sizes) - 1
    for (W, b), n_in, n_out in zip(ck.params, ck.sizes[:-1], ck.sizes[1:]):
        assert W.shape == (n_out, n_in) and b.shape == (n_out,)
        assert np.isfinite(W).all() and np.isfinite(b).all()
    assert ck.scaling.lo.shape == ck.scaling.hi.shape == (ck.sizes[-1],)
    assert np.isfinite(ck.scaling.lo).all() and np.isfinite(ck.scaling.hi).all()
    lines = data.split(b"\n")
    heads = [i for i, line in enumerate(lines) if line.startswith(b"tensor ")]
    assert len(heads) == 2 * len(ck.params)
    for i, arr in zip(heads, (arr for pair in ck.params for arr in pair)):
        assert len(lines[i + 1]) == 16 * arr.size

