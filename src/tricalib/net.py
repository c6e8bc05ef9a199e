"""From-scratch feed-forward regressor: He init, ReLU hidden layers,
linear output, exact backpropagation, Adam, early stopping.

`forward`, `backward` and `adam_step` compute in the dtype of the
weights they are given.  `train` runs its whole loop in float32, which
moves half the bytes of float64 per Adam pass and per matmul, and
validates and returns float64 copies of those weights, which hold the
float32 values exactly.  Prediction is float64.  A checkpoint stores
such weights as float32, any others as float64, and loads either as
float64.

Inside `train` every weight matrix lives in one contiguous float32
buffer and every bias in a second one; the per-layer (W, b) pairs are
views into them, and so are the gradients, which the backward pass
writes in place.  `train` owns Adam's moments, shaped like the two
buffers, and its step count, so a step is one `adam_step` over the
single pair (weights, biases): the same element-wise operations in the
same order as one pass per tensor, hence the same bits, but a few large
numpy calls instead of many small ones.  OpenBLAS is held on one thread
for the whole loop: the matrices are small, and idle BLAS workers only
compete with it.

Each layer of the forward pass allocates one array, its matmul's
result, and adds the bias and applies the ReLU to it in place; the
backward pass reads the ReLU mask from those activations, so no
pre-activation is kept.  These are the operations of one fresh array
per operation, in the same order and dtype, hence the same bits.

The network maps the 12 kick-augmented probabilities to the 4 target
voltages, scaled to [0, 1] for training; `predict` is the one function
that maps features to volts, undoing that scaling.  Parameters are a
list of (weight, bias) pairs, weights stored (out, in).  The training
loss is the batch mean of per-example RMSE over the K outputs:

    L = (1/B) * sum_k sqrt( (1/K) * sum_m (yhat_km - y_km)^2 )

which is what the validation monitor and the early stopping watch too.
"""

import binascii
import contextlib
import ctypes
import functools
import hashlib
import os
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from .config import check_one_line, format_values, parse_int, split_floats
from .data import Dataset, KickConfig, TargetScaling
from .errors import (
    CheckpointError,
    InvalidParameterError,
    TrainingDivergedError,
)
from .metrics import cosine_similarity, nrmse

__all__ = [
    "TrainConfig",
    "TrainReport",
    "layer_sizes",
    "init_he",
    "forward",
    "loss",
    "backward",
    "adam_step",
    "train",
    "predict",
    "save_checkpoint",
    "load_checkpoint",
    "Checkpoint",
]

# 35 204 parameters.  The seed study in BENCH_35.json (train seeds 0-9, two
# OpenBLAS kernels) found every gate kept with margin at 128-128-128, in
# about 60 % of 200-200-200's training time; at 100-100-100 one injective
# sub-range ablation read 0.081, past the study's 0.08 margin.
DEFAULT_HIDDEN = (128, 128, 128)

# Adam's decay rates and denominator offset (Kingma & Ba's defaults)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


@dataclass(frozen=True)
class TrainConfig:
    max_epochs: int = 250
    batch_size: int = 32
    learning_rate: float = 1e-3
    patience: int = 25
    seed: int = 0
    hidden: tuple = DEFAULT_HIDDEN

    def __post_init__(self):
        if self.max_epochs < 1 or self.batch_size < 1 or self.patience < 1:
            raise InvalidParameterError("epochs, batch size and patience must be >= 1")
        if self.patience > self.max_epochs:
            raise InvalidParameterError("patience cannot exceed max_epochs")
        if not 0 < self.learning_rate < np.inf:
            raise InvalidParameterError("learning rate must be finite and > 0")
        if any(h < 1 for h in self.hidden) or not self.hidden:
            raise InvalidParameterError("hidden layer sizes must be >= 1")


@dataclass
class TrainReport:
    """Per-epoch curves plus where the best validation loss occurred.

    `wall_clock` is informational only and is never written into result
    files (those must be reproducible byte for byte).
    """

    train_loss: list = field(default_factory=list)
    val_loss: list = field(default_factory=list)
    val_nrmse: list = field(default_factory=list)
    val_cosine: list = field(default_factory=list)
    best_epoch: int = -1
    wall_clock: float = 0.0

    @property
    def epochs_run(self) -> int:
        return len(self.train_loss)


def layer_sizes(n_in: int, n_out: int, hidden=DEFAULT_HIDDEN):
    return [int(n_in), *map(int, hidden), int(n_out)]


def init_he(sizes, rng: np.random.Generator):
    """Weights ~ N(0, 2/n_in) layer by layer, biases zero."""
    if len(sizes) < 2:
        raise InvalidParameterError("need at least an input and an output layer")
    params = []
    for n_in, n_out in zip(sizes[:-1], sizes[1:]):
        W = rng.standard_normal((n_out, n_in)) * np.sqrt(2.0 / n_in)
        params.append((W, np.zeros(n_out)))
    return params


def _forward_cached(params, X):
    """The activations of every layer, the input `X` first and the output
    last.  Each layer's matmul makes one new array, and the bias and the
    ReLU are applied to it in place, so `X` is never written."""
    acts = [X]
    for W, b in params[:-1]:
        A = np.matmul(acts[-1], W.T)
        A += b
        acts.append(np.maximum(A, 0.0, out=A))
    W, b = params[-1]
    out = np.matmul(acts[-1], W.T)
    out += b
    acts.append(out)
    return acts


def _in_weight_dtype(params, X):
    """X as an array of the weights' dtype, so the network computes in it."""
    return np.asarray(X, dtype=params[0][0].dtype)


def forward(params, X):
    """Network output for a single feature vector or an (N, n_in) batch."""
    X = _in_weight_dtype(params, X)
    single = X.ndim == 1
    out = _forward_cached(params, np.atleast_2d(X))[-1]
    return out[0] if single else out


def _mean_rmse(out, Y) -> float:
    """Batch mean of per-example RMSE over the output coordinates: the
    formula of `loss` and of `train`'s validation loss."""
    return float(np.sqrt(((out - Y) ** 2).mean(axis=1)).mean())


def loss(params, X, Y) -> float:
    """Batch mean of per-example RMSE of the network's outputs on (X, Y)."""
    return _mean_rmse(forward(params, X), np.atleast_2d(Y))


def _grads_from_cache(params, acts, Y, grads):
    """Write the exact gradient of `loss` into `grads`, a list of (gW, gb)
    arrays shaped like `params`, and return the batch loss.  The ReLU
    subgradient at 0 is taken as 0.

    The ReLU mask is read from the activations: max(z, 0) > 0 exactly
    where z > 0, NaN and -0.0 included, so no pre-activation is kept.
    The means are `np.add.reduce` and a division by the count, which is
    what `ndarray.mean` computes, without its Python wrapper."""
    e = acts[-1] - Y
    B, K = e.shape
    rmse = np.add.reduce(np.square(e), axis=1, keepdims=True)
    rmse /= K
    np.sqrt(rmse, out=rmse)
    d = e / (B * K * np.where(rmse > 0.0, rmse, 1.0))
    for li in range(len(params) - 1, -1, -1):
        gW, gb = grads[li]
        np.matmul(d.T, acts[li], out=gW)
        np.add.reduce(d, axis=0, out=gb)
        if li > 0:
            d = d @ params[li][0]
            d *= acts[li] > 0.0
    return float(np.add.reduce(rmse, axis=None) / B)


def _flat_views(params, dtype):
    """One contiguous buffer for the weights of `params` and one for the
    biases, uninitialised, in `dtype`: returns ((weights, biases), views),
    the views being a (W, b) pair per layer shaped like `params`."""
    weights = np.empty(sum(W.size for W, _ in params), dtype)
    biases = np.empty(sum(b.size for _, b in params), dtype)
    views, w0, b0 = [], 0, 0
    for W, b in params:
        views.append((weights[w0:w0 + W.size].reshape(W.shape), biases[b0:b0 + b.size]))
        w0, b0 = w0 + W.size, b0 + b.size
    return (weights, biases), views


def backward(params, X, Y):
    """Gradient of `loss` w.r.t. every weight and bias."""
    X = np.atleast_2d(_in_weight_dtype(params, X))
    Y = np.atleast_2d(_in_weight_dtype(params, Y))
    acts = _forward_cached(params, X)
    _, grads = _flat_views(params, X.dtype)
    _grads_from_cache(params, acts, Y, grads)
    return grads


def adam_step(params, grads, m, v, t, learning_rate):
    """Bias-corrected Adam update number `t` (from 1), in place on
    `params` and the moments `m` and `v`: (W, b) pairs shaped like `grads`.

    Per element this is m = m*b1 + (1-b1)*g, v = v*b2 + (1-b2)*g^2,
    p -= (lr*(m/c1)) / (sqrt(v/c2) + eps), evaluated in that order with
    two scratch arrays per tensor.  From step 356 on, c1 = 1 - b1^t
    rounds to exactly 1.0, and m/1.0 is m bit for bit, so that division
    is skipped: one pass fewer per tensor for nearly every step.
    """
    b1, b2, eps, lr = ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON, learning_rate
    c1 = 1.0 - b1**t
    c2 = 1.0 - b2**t
    for layer in zip(params, grads, m, v):
        for p, g, mi, vi in zip(*layer):
            tmp = np.multiply(g, 1.0 - b1)
            mi *= b1
            mi += tmp
            np.square(g, out=tmp)
            tmp *= 1.0 - b2
            vi *= b2
            vi += tmp
            den = np.divide(vi, c2)
            np.sqrt(den, out=den)
            den += eps
            if c1 == 1.0:
                np.multiply(mi, lr, out=tmp)
            else:
                np.divide(mi, c1, out=tmp)
                tmp *= lr
            tmp /= den
            p -= tmp


def _flush_subnormal(pairs):
    """Zero every entry of the (W, b) arrays below the smallest normal
    number of its own dtype in magnitude (-0.0 becomes 0.0).

    A first moment whose gradient stays exactly zero (a dead ReLU unit)
    decays by ADAM_BETA1 per step into the subnormal range and stays there
    (in float32 after about 800 steps), and subnormal arithmetic is
    several times slower on common CPUs.
    """
    for arrays in pairs:
        for a in arrays:
            a[np.abs(a) < np.finfo(a.dtype).tiny] = 0.0


def _cast(params, dtype):
    return [(W.astype(dtype), b.astype(dtype)) for W, b in params]


# get/set pairs of the OpenBLAS thread count, as numpy 2 wheels
# (scipy-openblas, ILP64), other ILP64 builds and LP64 builds export them
_OPENBLAS_THREAD_CALLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@functools.cache
def _openblas_threads():
    """(get, set) of the thread count of the OpenBLAS numpy links, or None.

    dlsym on numpy's extension module also searches its dependencies, so
    this finds the bundled OpenBLAS without knowing its file name.  The
    lookup runs once per process.
    """
    core = np._core if int(np.__version__.split(".")[0]) >= 2 else np.core
    lib = ctypes.CDLL(core._multiarray_umath.__file__)
    for get_name, set_name in _OPENBLAS_THREAD_CALLS:
        try:
            get, set_ = getattr(lib, get_name), getattr(lib, set_name)
        except AttributeError:
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


# The OpenBLAS thread count is process-wide, so its pin is too: how many
# blocks hold it, and the count to restore when the last one leaves.
_pin_lock = threading.Lock()
_pin_holders = 0
_pin_saved = None


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block with OpenBLAS on one thread.

    This is the only place that sets the OpenBLAS thread count.  The
    pin is reference-counted: the first block to enter saves the count
    and sets 1, and the last to leave restores it, so a nested or
    concurrent block never restores it under one still running.
    `cli.main` runs every command inside it and `experiments` forks its
    workers inside it, so a worker starts on one thread with the pin
    held and calls no setter (one would start a spinning OpenBLAS thread
    in the child).  Where no OpenBLAS is found this does nothing.
    """
    global _pin_holders, _pin_saved
    calls = _openblas_threads()
    if calls is None:
        yield
        return
    get, set_ = calls
    with _pin_lock:
        if _pin_holders == 0:
            _pin_saved = get()
            set_(1)
        _pin_holders += 1
    try:
        yield
    finally:
        with _pin_lock:
            _pin_holders -= 1
            if _pin_holders == 0:
                set_(_pin_saved)


def train(train_ds: Dataset, val_ds: Dataset, config: TrainConfig):
    """Mini-batch training with validation-loss early stopping.

    Both datasets carry targets in volts.  The network learns them
    mapped onto [0, 1] by a `TargetScaling` fitted on the train split
    only, and the validation metrics are taken back in volts.  Stops
    after `patience` epochs without validation improvement or at
    `max_epochs`, whichever comes first.  Returns (params, scaling,
    report): the parameters of the best validation epoch, the fitted
    scaling and the per-epoch report.

    Features, scaled targets, weights and Adam's moments are float32,
    cast once here; the He draw stays float64 so the rng stream is that
    of `init_he`.  The weights, the gradients and Adam's moments each
    sit in a weight buffer and a bias buffer (see the module docstring),
    and the loop runs with OpenBLAS on one thread.  Each epoch is
    validated on a float64 copy of the weights, and the best such copy
    is returned, so the reported validation metrics are exactly what the
    saved float64 weights reproduce.
    """
    if len(train_ds) == 0 or len(val_ds) == 0:
        raise InvalidParameterError("training and validation sets must be nonempty")
    scaling = TargetScaling.fit(train_ds.targets)
    X = train_ds.features.astype(np.float32)
    Y = scaling.transform(train_ds.targets).astype(np.float32)
    Xv, Yv = val_ds.features, scaling.transform(val_ds.targets)
    # Round-tripped rather than the raw targets, so both sides of each
    # validation metric pass through the same scaling.
    y_val_volts = scaling.invert(Yv)
    span = scaling.pooled_span()

    rng = np.random.default_rng(config.seed)
    he = init_he(layer_sizes(X.shape[1], Y.shape[1], config.hidden), rng)
    flat, params = _flat_views(he, np.float32)
    for (W, b), (W0, b0) in zip(params, he):
        W[...], b[...] = W0, b0
    flat_grads, grads = _flat_views(he, np.float32)
    m = [tuple(map(np.zeros_like, flat))]  # Adam's moments, shaped like [flat]
    v = [tuple(map(np.zeros_like, flat))]
    step = 0
    report = TrainReport()
    best_loss = np.inf
    best_params = None  # a finite validation loss beats inf at epoch 0
    stale = 0
    t0 = time.perf_counter()

    n = X.shape[0]
    # a diverging run overflows without numpy warnings: its loss is refused below
    with _one_blas_thread(), np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.max_epochs):
            order = rng.permutation(n)
            loss_sum = 0.0
            for start in range(0, n, config.batch_size):
                idx = order[start : start + config.batch_size]
                acts = _forward_cached(params, X[idx])
                batch_loss = _grads_from_cache(params, acts, Y[idx], grads)
                step += 1
                adam_step([flat], [flat_grads], m, v, step, config.learning_rate)
                loss_sum += batch_loss * idx.size
            train_loss = loss_sum / n
            _flush_subnormal(m)

            params64 = _cast(params, float)
            vout = forward(params64, Xv)
            val_loss = _mean_rmse(vout, Yv)
            if not (np.isfinite(train_loss) and np.isfinite(val_loss)):
                raise TrainingDivergedError(
                    f"non-finite loss at epoch {epoch}", epoch=epoch
                )
            yhat_volts = scaling.invert(vout)
            report.train_loss.append(train_loss)
            report.val_loss.append(val_loss)
            report.val_nrmse.append(nrmse(y_val_volts.ravel(), yhat_volts.ravel(), span))
            report.val_cosine.append(cosine_similarity(y_val_volts.ravel(), yhat_volts.ravel()))

            if val_loss < best_loss:
                best_loss = val_loss
                best_params = params64
                report.best_epoch = epoch
                stale = 0
            else:
                stale += 1
                if stale >= config.patience:
                    break
    report.wall_clock = time.perf_counter() - t0
    return best_params, scaling, report


def predict(params, features, scaling: TargetScaling):
    """The voltages the network reads from `features`, in volts.

    The one function that undoes the network's [0, 1] target scaling:
    (..., 12) features map to the (..., 4) base and kicked voltages of a
    calibration model.  Vectorized over leading axes.
    """
    return scaling.invert(forward(params, features))


# ---------------------------------------------------------------------------
# checkpoint container: versioned self-describing text with a content checksum

_MAGIC = "tricalib-checkpoint"
_FORMAT = 4
_DTYPES = ("<f4", "<f8")  # the `dtype` line's tokens: float32, float64


@dataclass
class Checkpoint:
    params: list
    sizes: list
    kick: KickConfig
    scaling: TargetScaling
    provenance: str


def _storage_dtype(arrays):
    """'<f4' when every value of `arrays` survives a round trip through
    float32 bit for bit, else '<f8'.  The bits are compared, so -0.0
    counts and a float64 subnormal (which float32 flushes) does not.  A
    value beyond float32's range casts to inf and fails the comparison;
    numpy's overflow warning for that cast is silenced."""
    with np.errstate(over="ignore"):
        for a in arrays:
            a = np.asarray(a, dtype=np.float64)
            back = a.astype(np.float32).astype(np.float64)
            if not np.array_equal(back.view(np.uint64), a.view(np.uint64)):
                return "<f8"
    return "<f4"


def _tensor_lines(name, arr, dtype, out):
    arr = np.atleast_2d(arr)
    out.append(f"tensor {name} {arr.shape[0]} {arr.shape[1]}")
    out.append(np.ascontiguousarray(arr, dtype=dtype).tobytes().hex())


def _chained_sizes(params, scaling: TargetScaling):
    """The layer sizes [n_in, ..., n_out] of `params`.  Layers whose shapes
    do not chain, or scaling bounds that do not match the outputs, would
    make a file `load_checkpoint` refuses: InvalidParameterError."""
    sizes = [np.shape(params[0][0])[-1]]
    for li, (W, b) in enumerate(params):
        if np.ndim(W) != 2 or np.shape(W)[1] != sizes[-1] or np.shape(b) != np.shape(W)[:1]:
            raise InvalidParameterError(
                f"cannot save layer {li}: W{li} has shape {np.shape(W)} and b{li} "
                f"{np.shape(b)}, expected (n, {sizes[-1]}) and (n,)")
        sizes.append(np.shape(W)[0])
    if not np.size(scaling.lo) == np.size(scaling.hi) == sizes[-1]:
        raise InvalidParameterError(f"cannot save layer sizes {sizes} with "
                                    f"{np.size(scaling.lo)}/{np.size(scaling.hi)} scaling bounds")
    return sizes


def save_checkpoint(path, params, kick: KickConfig, scaling: TargetScaling,
                    provenance: str = "unknown"):
    """Serialize the weights, scaling and kick config (format 4).

    The header is decimal text at round-trip precision, and its last
    line, `dtype <f4` or `dtype <f8`, names how the tensors are stored:
    float32 when every weight and bias is a float32 value (always so for
    `train`'s output), float64 otherwise, so every bit round-trips
    either way.  Each tensor is a `tensor <name> <rows> <cols>` line
    followed by one line holding the hex digits of its little-endian data
    in that dtype, C order.  The trailing line carries a SHA-256 of the
    file bytes above it, so truncation or bit rot is caught at load time.

    A provenance that spans lines, layers whose shapes do not chain and
    a non-finite weight, bias or scaling bound are refused
    (InvalidParameterError) before any file is opened.  The file is
    written beside `path` under a temporary name and then renamed over
    it, so a save that fails part-way leaves any earlier file intact.
    """
    check_one_line("provenance", provenance)
    sizes = _chained_sizes(params, scaling)
    tensors = [a for pair in params for a in pair]
    if not all(np.isfinite(a).all() for a in [*tensors, scaling.lo, scaling.hi]):
        raise InvalidParameterError("cannot save a checkpoint with a non-finite weight, bias or scaling bound")
    dtype = _storage_dtype(tensors)
    lines = [
        _MAGIC,
        f"format {_FORMAT}",
        "sizes " + " ".join(str(s) for s in sizes),
        "kick " + format_values((kick.dv1, kick.dv2)),
        "scale_lo " + format_values(scaling.lo),
        "scale_hi " + format_values(scaling.hi),
        f"provenance {provenance}",
        f"dtype {dtype}",
    ]
    for li, (W, b) in enumerate(params):
        _tensor_lines(f"W{li}", W, dtype, lines)
        _tensor_lines(f"b{li}", b, dtype, lines)
    payload = ("\n".join(lines) + "\n").encode("utf-8")
    digest = hashlib.sha256(payload).hexdigest()
    tmp = f"{os.fspath(path)}.{os.urandom(4).hex()}.tmp"
    fh = open(tmp, "xb")
    try:
        with fh:
            fh.write(payload)
            fh.write(f"checksum {digest}\n".encode("ascii"))
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


class _LineReader:
    """The lines of a checkpoint body, as memoryview slices of the file's
    bytes: no line is copied until it is decoded."""

    def __init__(self, raw, start, end):
        self.raw, self.view = raw, memoryview(raw)
        self.pos, self.end = start, end  # raw[end - 1] is the body's last newline

    def next(self, what):
        """The next line's bytes, without its newline."""
        if self.pos >= self.end:
            raise CheckpointError(f"truncated checkpoint: expected {what}")
        stop = self.raw.index(b"\n", self.pos, self.end)
        line = self.view[self.pos:stop]
        self.pos = stop + 1
        return line

    def text(self, what):
        return str(self.next(what), "utf-8")

    def field(self, label):
        """The text after `label` on the next line, which must start with it."""
        line = self.text(f"{label} line")
        key, _, value = line.partition(" ")
        if key != label:
            raise CheckpointError(f"malformed checkpoint: expected {label!r} line, got {line[:60]!r}")
        return value


def _finite(values, what):
    if not np.isfinite(values).all():
        raise CheckpointError(f"malformed checkpoint: non-finite value in {what}")
    return values


def _read_tensor(reader: _LineReader, name, shape, dtype):
    """A `tensor` line, then one line of hex little-endian `dtype` values,
    returned as a new float64 array of `shape`; a vector's `tensor` line
    reads as one row."""
    rows, cols = (1, *shape)[-2:]
    head = reader.text(f"tensor {name}")
    if head != f"tensor {name} {rows} {cols}":
        raise CheckpointError(f"malformed checkpoint: expected 'tensor {name} {rows} {cols}', got {head[:60]!r}")
    try:  # a2b_hex takes hex digits only
        data = binascii.a2b_hex(reader.next(f"data of {name}"))
    except binascii.Error as exc:
        raise CheckpointError(f"malformed checkpoint: bad hex data in tensor {name}") from exc
    expected = rows * cols * np.dtype(dtype).itemsize
    if len(data) != expected:
        raise CheckpointError(f"malformed checkpoint: tensor {name} holds {len(data)} bytes, "
                              f"expected {expected}")
    values = np.frombuffer(data, dtype=dtype).reshape(shape)
    return _finite(values, f"tensor {name}").astype(np.float64)


def load_checkpoint(path) -> Checkpoint:
    """Read a format 4 checkpoint.

    Works on the file's bytes without copying them whole.  The checksum
    is verified over the raw bytes before anything is decoded, then the
    body is decoded once, whole, to check that it is UTF-8, before any
    line is read.  Only the header and `tensor` lines are then decoded as
    text; each data line goes from hex digits straight to values of the
    header's dtype, float32 or float64, so any other byte in it
    (whitespace included) is bad hex.
    Every weight and bias is returned as a float64 array of its own, C
    order and writable, whichever dtype stored it.  Raises
    CheckpointError on a bad magic or checksum, on any format but 4
    (formats 1 and 2 held decimal rows, format 3 hex float64 without a
    dtype line; retrain to replace such a file), on a truncated or
    malformed layout, on an unknown dtype, on a tensor body of the wrong
    length, on any non-finite number and on content after the last
    tensor.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    magic = _MAGIC.encode("ascii")
    if raw[:len(magic) + 1] not in (magic + b"\n", magic):  # the whole first line
        raise CheckpointError("not a tricalib checkpoint (bad magic)")
    body_end = raw.rfind(b"\n", 0, len(raw) - 1) + 1  # start of the last line
    body, last = memoryview(raw)[:body_end], raw[body_end:]
    if not last.startswith(b"checksum "):
        raise CheckpointError("truncated checkpoint: missing checksum line")
    if hashlib.sha256(body).hexdigest().encode("ascii") != last[len(b"checksum "):].strip():
        raise CheckpointError("checksum mismatch: checkpoint corrupted or truncated")
    try:
        str(body, "utf-8")
    except UnicodeDecodeError as exc:
        raise CheckpointError(f"malformed checkpoint: not UTF-8 text ({exc.reason})") from exc

    reader = _LineReader(raw, len(magic) + 1, body_end)
    fmt = reader.text("format line")
    if fmt != f"format {_FORMAT}":
        raise CheckpointError(f"unsupported checkpoint format: {fmt!r} (this build reads format {_FORMAT} only)")
    try:
        sizes = [parse_int(s) for s in reader.field("sizes").split()]
        dv1, dv2 = split_floats(reader.field("kick"))
        kick = KickConfig(dv1=dv1, dv2=dv2)
        lo = _finite(np.array(split_floats(reader.field("scale_lo"))), "scale_lo")
        hi = _finite(np.array(split_floats(reader.field("scale_hi"))), "scale_hi")
        provenance = reader.field("provenance")
        dtype = reader.field("dtype")
    except (ValueError, InvalidParameterError) as exc:
        raise CheckpointError(f"malformed checkpoint header: {exc}") from exc
    if len(sizes) < 2 or min(sizes) < 1 or not lo.size == hi.size == sizes[-1]:
        raise CheckpointError(f"malformed checkpoint header: sizes {sizes} with "
                              f"{lo.size}/{hi.size} scaling entries")
    if dtype not in _DTYPES:
        raise CheckpointError(f"malformed checkpoint header: dtype {dtype[:60]!r} is not one of {_DTYPES}")
    scaling = TargetScaling(lo=lo, hi=hi)

    params = [(_read_tensor(reader, f"W{li}", (n_out, n_in), dtype),
               _read_tensor(reader, f"b{li}", (n_out,), dtype))
              for li, (n_in, n_out) in enumerate(zip(sizes[:-1], sizes[1:]))]
    if reader.pos != reader.end:
        raise CheckpointError(f"malformed checkpoint: unexpected content after the last tensor: "
                              f"{reader.text('trailing content')[:60]!r}")
    return Checkpoint(params=params, sizes=sizes, kick=kick,
                      scaling=scaling, provenance=provenance)
