"""From-scratch feed-forward regressor: He init, ReLU hidden layers,
linear output, exact backpropagation, Adam, early stopping.

`forward`, `backward` and `adam_step` compute in the dtype of the
weights they are given.  `train` runs its whole loop in float32, which
moves half the bytes of float64 per Adam pass and per matmul, and
validates and returns float64 copies of those weights, which hold the
float32 values exactly; prediction and checkpoints are float64.

The network maps the 12 kick-augmented probabilities to the 4 target
voltages (scaled to [0, 1] for training).  Parameters are a list of
(weight, bias) pairs, weights stored (out, in).  The training loss is
the batch mean of per-example RMSE over the K outputs:

    L = (1/B) * sum_k sqrt( (1/K) * sum_m (yhat_km - y_km)^2 )

which is what the validation monitor and the early stopping watch too.
"""

import binascii
import hashlib
import time
from dataclasses import dataclass, field

import numpy as np

from .config import check_one_line, parse_int, split_floats
from .data import Dataset, KickConfig, TargetScaling
from .errors import (
    CheckpointError,
    InvalidParameterError,
    TrainingDivergedError,
)
from .metrics import cosine_similarity, format_value, nrmse

__all__ = [
    "TrainConfig",
    "TrainReport",
    "layer_sizes",
    "init_he",
    "forward",
    "loss",
    "backward",
    "init_adam",
    "adam_step",
    "train",
    "predict",
    "save_checkpoint",
    "load_checkpoint",
    "Checkpoint",
]

DEFAULT_HIDDEN = (200, 200, 200)

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
        if self.learning_rate <= 0:
            raise InvalidParameterError("learning rate must be > 0")
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


@dataclass
class AdamState:
    m: list
    v: list
    t: int = 0


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
    """Returns (activations per layer incl. input, hidden preactivations)."""
    acts = [X]
    zs = []
    A = X
    for W, b in params[:-1]:
        z = A @ W.T + b
        zs.append(z)
        A = np.maximum(z, 0.0)
        acts.append(A)
    W, b = params[-1]
    acts.append(A @ W.T + b)
    return acts, zs


def _in_weight_dtype(params, X):
    """X as an array of the weights' dtype, so the network computes in it."""
    return np.asarray(X, dtype=params[0][0].dtype)


def forward(params, X):
    """Network output for a single feature vector or an (N, n_in) batch."""
    X = _in_weight_dtype(params, X)
    single = X.ndim == 1
    out = _forward_cached(params, np.atleast_2d(X))[0][-1]
    return out[0] if single else out


def loss(params, X, Y) -> float:
    """Batch mean of per-example RMSE over the output coordinates."""
    out = forward(params, X)
    e = out - np.atleast_2d(Y)
    return float(np.sqrt((e**2).mean(axis=1)).mean())


def _grads_from_cache(params, acts, zs, Y):
    """Exact gradient of `loss`; ReLU subgradient at 0 is taken as 0."""
    e = acts[-1] - Y
    B, K = e.shape
    rmse = np.sqrt((e**2).mean(axis=1, keepdims=True))
    delta = e / (B * K * np.where(rmse > 0.0, rmse, 1.0))
    grads = [None] * len(params)
    d = delta
    for li in range(len(params) - 1, -1, -1):
        grads[li] = (d.T @ acts[li], d.sum(axis=0))
        if li > 0:
            d = (d @ params[li][0]) * (zs[li - 1] > 0.0)
    return grads, float(rmse.mean())


def backward(params, X, Y):
    """Gradient of `loss` w.r.t. every weight and bias."""
    X = np.atleast_2d(_in_weight_dtype(params, X))
    Y = np.atleast_2d(_in_weight_dtype(params, Y))
    acts, zs = _forward_cached(params, X)
    return _grads_from_cache(params, acts, zs, Y)[0]


def init_adam(params) -> AdamState:
    zeros = lambda: [(np.zeros_like(W), np.zeros_like(b)) for W, b in params]
    return AdamState(m=zeros(), v=zeros(), t=0)


def adam_step(params, grads, state: AdamState, config: TrainConfig):
    """One bias-corrected Adam update; mutates params and state in place.

    Per element this is m = m*b1 + (1-b1)*g, v = v*b2 + (1-b2)*g^2,
    p -= (lr*(m/c1)) / (sqrt(v/c2) + eps), evaluated in that order with
    two scratch arrays per tensor.
    """
    b1, b2, eps, lr = ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON, config.learning_rate
    state.t += 1
    c1 = 1.0 - b1**state.t
    c2 = 1.0 - b2**state.t
    for layer in zip(params, grads, state.m, state.v):
        for p, g, m, v in zip(*layer):
            tmp = np.multiply(g, 1.0 - b1)
            m *= b1
            m += tmp
            np.square(g, out=tmp)
            tmp *= 1.0 - b2
            v *= b2
            v += tmp
            den = np.divide(v, c2)
            np.sqrt(den, out=den)
            den += eps
            np.divide(m, c1, out=tmp)
            tmp *= lr
            tmp /= den
            p -= tmp
    return params, state


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
    of `init_he`.  Each epoch is validated on a float64 copy of the
    weights, and the best such copy is returned, so the reported
    validation metrics are exactly what the saved float64 weights
    reproduce.
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
    params = _cast(init_he(layer_sizes(X.shape[1], Y.shape[1], config.hidden), rng),
                   np.float32)
    state = init_adam(params)
    report = TrainReport()
    best_loss = np.inf
    best_params = _cast(params, float)
    stale = 0
    t0 = time.perf_counter()

    n = X.shape[0]
    for epoch in range(config.max_epochs):
        order = rng.permutation(n)
        loss_sum = 0.0
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            acts, zs = _forward_cached(params, X[idx])
            grads, batch_loss = _grads_from_cache(params, acts, zs, Y[idx])
            adam_step(params, grads, state, config)
            loss_sum += batch_loss * idx.size
        train_loss = loss_sum / n
        _flush_subnormal(state.m)

        params64 = _cast(params, float)
        vout = forward(params64, Xv)
        val_loss = float(np.sqrt(((vout - Yv) ** 2).mean(axis=1)).mean())
        if not (np.isfinite(train_loss) and np.isfinite(val_loss)):
            raise TrainingDivergedError(
                f"non-finite loss at epoch {epoch}", epoch=epoch
            )
        yhat_volts = scaling.invert(vout)
        report.train_loss.append(train_loss)
        report.val_loss.append(val_loss)
        report.val_nrmse.append(nrmse(y_val_volts.ravel(), yhat_volts.ravel(), 0.0, span))
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


def predict(params, features, scaling: TargetScaling, kick: KickConfig):
    """Voltage estimate plus a self-consistency residual.

    The network predicts all four targets; the estimate is the first
    pair and the residual measures how far the predicted kicked pair is
    from sitting exactly one kick away, a cheap sanity signal at
    deployment time.  Vectorized over leading axes.
    """
    out = forward(params, features)
    volts = scaling.invert(out)
    v1, v2 = volts[..., 0], volts[..., 1]
    residual = np.maximum(
        np.abs(volts[..., 2] - v1 - kick.dv1),
        np.abs(volts[..., 3] - v2 - kick.dv2),
    )
    return v1, v2, residual


# ---------------------------------------------------------------------------
# checkpoint container: versioned self-describing text with a content checksum

_MAGIC = "tricalib-checkpoint"
_FORMAT = 3
_TENSOR_DTYPE = "<f8"


@dataclass
class Checkpoint:
    params: list
    sizes: list
    kick: KickConfig
    scaling: TargetScaling
    provenance: str


def _fmt_vec(vec) -> str:
    return " ".join(map(format_value, np.asarray(vec, dtype=float).ravel()))


def _tensor_lines(name, arr, out):
    arr = np.atleast_2d(arr)
    out.append(f"tensor {name} {arr.shape[0]} {arr.shape[1]}")
    out.append(np.ascontiguousarray(arr, dtype=_TENSOR_DTYPE).tobytes().hex())


def save_checkpoint(path, params, kick: KickConfig, scaling: TargetScaling,
                    provenance: str = "unknown"):
    """Serialize the weights, scaling and kick config (format 3).

    The header is decimal text at round-trip precision.  Each tensor is a
    `tensor <name> <rows> <cols>` line followed by one line holding the
    hex digits of its little-endian float64 data in C order, so every bit
    round-trips.  The trailing line carries a SHA-256 of the file bytes
    above it, so truncation or bit rot is caught at load time.  A
    provenance that spans lines is refused.
    """
    check_one_line("provenance", provenance)
    sizes = [params[0][0].shape[1]] + [W.shape[0] for W, _ in params]
    lines = [
        _MAGIC,
        f"format {_FORMAT}",
        "sizes " + " ".join(str(s) for s in sizes),
        "kick " + _fmt_vec((kick.dv1, kick.dv2)),
        "scale_lo " + _fmt_vec(scaling.lo),
        "scale_hi " + _fmt_vec(scaling.hi),
        f"provenance {provenance}",
    ]
    for li, (W, b) in enumerate(params):
        _tensor_lines(f"W{li}", W, lines)
        _tensor_lines(f"b{li}", b, lines)
    payload = ("\n".join(lines) + "\n").encode("utf-8")
    digest = hashlib.sha256(payload).hexdigest()
    with open(path, "wb") as fh:
        fh.write(payload)
        fh.write(f"checksum {digest}\n".encode("ascii"))


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


def _read_tensor(reader: _LineReader, name, rows, cols):
    """A `tensor` line, then one line of hex little-endian float64."""
    head = reader.text(f"tensor {name}")
    if head != f"tensor {name} {rows} {cols}":
        raise CheckpointError(f"malformed checkpoint: expected 'tensor {name} {rows} {cols}', got {head[:60]!r}")
    try:  # a2b_hex takes hex digits only; a writable copy for numpy
        data = bytearray(binascii.a2b_hex(reader.next(f"data of {name}")))
    except binascii.Error as exc:
        raise CheckpointError(f"malformed checkpoint: bad hex data in tensor {name}") from exc
    if len(data) != rows * cols * 8:
        raise CheckpointError(f"malformed checkpoint: tensor {name} holds {len(data)} bytes, "
                              f"expected {rows * cols * 8}")
    return _finite(np.frombuffer(data, dtype=_TENSOR_DTYPE).reshape(rows, cols), f"tensor {name}")


def load_checkpoint(path) -> Checkpoint:
    """Read a format 3 checkpoint.

    Works on the file's bytes without copying them whole.  The checksum
    is verified over the raw bytes before anything is decoded, and the
    file is checked to be UTF-8 before any line is read.  Only the header
    and `tensor` lines are then decoded as text; each data line goes from
    hex digits straight to float64, so any other byte in it (whitespace
    included) is bad hex.  Raises CheckpointError on a bad magic or
    checksum, on any format but 3 (formats 1 and 2 held decimal rows;
    retrain to replace such a file), on a truncated or malformed layout,
    on a tensor body of the wrong length, on any non-finite number and on
    content after the last tensor.
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
    if not raw.isascii():  # the checksum line is ASCII, so only the body can fail
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
    except (ValueError, InvalidParameterError) as exc:
        raise CheckpointError(f"malformed checkpoint header: {exc}") from exc
    if len(sizes) < 2 or min(sizes) < 1 or not lo.size == hi.size == sizes[-1]:
        raise CheckpointError(f"malformed checkpoint header: sizes {sizes} with "
                              f"{lo.size}/{hi.size} scaling entries")
    scaling = TargetScaling(lo=lo, hi=hi)

    params = [(_read_tensor(reader, f"W{li}", n_out, n_in),
               _read_tensor(reader, f"b{li}", 1, n_out)[0])
              for li, (n_in, n_out) in enumerate(zip(sizes[:-1], sizes[1:]))]
    if reader.pos != reader.end:
        raise CheckpointError(f"malformed checkpoint: unexpected content after the last tensor: "
                              f"{reader.text('trailing content')[:60]!r}")
    return Checkpoint(params=params, sizes=sizes, kick=kick,
                      scaling=scaling, provenance=provenance)
