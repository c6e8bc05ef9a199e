"""Voltage grids, kick-augmented datasets, and their file formats.

A training example pairs twelve probabilities with four voltages:

    features = [P(i->j) at (V1, V2),  P(i->j) at (V1+dV1, V2+dV2)]
    targets  = [V1, V2, V1+dV1, V2+dV2]

The second measurement (the "kick") is taken at a fixed voltage offset
and is what makes the inverse problem well posed: the bare six
probabilities repeat themselves across the operating range, the twelve
almost never do.

The CSV schema holds one example per row, for simulated and measured
data alike:

    v1,v2,v1k,v2k,p11,p12,p13,p21,p22,p23,q11,q12,q13,q21,q22,q23

Comment lines start with '#'.  Four `# key = value` metadata comments
are required, each exactly once: `provenance`, the kick offsets `dv1`
and `dv2`, and the count budget `mean_total`.  The writer puts them
first, so a round-trip is lossless; the reader refuses a file that lacks
or repeats one.  Only data labelled `simulated` are taken to have the
device model behind them (`Dataset.simulated`).

Both directions stream the rows: the reader hands each data line to the
number parser as it scans it, and the writer formats a few hundred rows
at a time, so a dataset costs about one copy of its arrays in memory.
"""

from array import array
from dataclasses import dataclass, replace

import numpy as np

from .config import check_one_line, parse_float, parse_float_rows, text_lines
from .device import DeviceConfig, voltage_probabilities
from .errors import DegenerateDataError, FileFormatError, InvalidParameterError
from .metrics import format_value, fresh_noise

__all__ = [
    "KickConfig",
    "Dataset",
    "TargetScaling",
    "build_grid",
    "kick_from_steps",
    "exact_features",
    "bad_feature_rows",
    "generate_simulated",
    "split",
    "write_csv",
    "read_csv",
]

DATASET_HEADER = "v1,v2,v1k,v2k,p11,p12,p13,p21,p22,p23,q11,q12,q13,q21,q22,q23"
_N_COLS = DATASET_HEADER.count(",") + 1
METADATA_KEYS = ("provenance", "dv1", "dv2", "mean_total")

# How far the three frequencies of one input may sum from 1.  Loose
# enough for a vector typed to two decimals (0.44,0.35,0.20 sums to
# 0.99); the frequencies this code computes sum to 1 within 1e-15.
FEATURE_SUM_TOLERANCE = 0.02


@dataclass(frozen=True)
class KickConfig:
    """Fixed voltage offsets (dv1, dv2) of the second measurement."""

    dv1: float
    dv2: float

    def __post_init__(self):
        if not (np.isfinite(self.dv1) and np.isfinite(self.dv2)):
            raise InvalidParameterError("kick offsets must be finite")
        if self.dv1 <= 0.0 or self.dv2 <= 0.0:
            raise InvalidParameterError("kick offsets must be > 0")

    def offset(self) -> np.ndarray:
        return np.array([self.dv1, self.dv2])

    def residual(self, volts):
        """How far (..., 4) voltages sit from one kick apart: the larger
        gap, in volts, between the kicked pair and the base pair plus the
        kick."""
        return np.maximum(np.abs(volts[..., 2] - volts[..., 0] - self.dv1),
                          np.abs(volts[..., 3] - volts[..., 1] - self.dv2))


@dataclass(frozen=True)
class TargetScaling:
    """Per-dimension affine map of targets onto [0, 1], fitted on train data."""

    lo: np.ndarray
    hi: np.ndarray

    @classmethod
    def fit(cls, targets) -> "TargetScaling":
        t = np.asarray(targets, dtype=float)
        lo, hi = t.min(axis=0), t.max(axis=0)
        if np.any(hi <= lo):
            raise DegenerateDataError("constant target dimension; cannot scale to [0, 1]")
        return cls(lo=lo, hi=hi)

    def transform(self, targets):
        return (np.asarray(targets, dtype=float) - self.lo) / (self.hi - self.lo)

    def invert(self, scaled):
        return np.asarray(scaled, dtype=float) * (self.hi - self.lo) + self.lo

    def pooled_span(self) -> float:
        """Overall target-voltage range, the normalization of the NRMSE."""
        return float(self.hi.max() - self.lo.min())


@dataclass(frozen=True)
class Dataset:
    """Immutable example collection plus the metadata needed to reuse it."""

    features: np.ndarray  # (N, 12) probabilities in [0, 1]
    targets: np.ndarray  # (N, 4) volts
    kick: KickConfig
    provenance: str
    mean_total: float | None = None  # None means noise-free features

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def simulated(self) -> bool:
        """Whether the device model here can remake the features: true only
        for data `generate_simulated` labelled, never for measured data."""
        return self.provenance == "simulated"

    def subset(self, idx) -> "Dataset":
        return replace(self, features=self.features[idx], targets=self.targets[idx])


def build_grid(v_min: float, v_max: float, n: int) -> np.ndarray:
    """The axis of a square grid: `n` equally spaced voltages over
    [v_min, v_max], taken by V1 and V2 alike."""
    if n < 2:
        raise InvalidParameterError("grid needs at least 2 values per axis")
    if not (np.isfinite(v_min) and np.isfinite(v_max)) or v_min >= v_max:
        raise InvalidParameterError("grid range must satisfy v_min < v_max")
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        axis = np.linspace(v_min, v_max, n)
    # a range a few ulps wide rounds to repeated values, one too wide overflows
    if not np.all(np.isfinite(axis)) or np.any(np.diff(axis) <= 0):
        raise InvalidParameterError("grid values must be finite and strictly increasing")
    return axis


def kick_from_steps(axis, steps: int) -> KickConfig:
    """A kick of `steps` grid steps along each voltage axis."""
    if steps < 1:
        raise InvalidParameterError("kick steps must be >= 1")
    step = float(axis[1] - axis[0])
    return KickConfig(dv1=steps * step, dv2=steps * step)


def exact_features(targets, device: DeviceConfig):
    """The 12 exact model probabilities at (N, 4) base-and-kicked voltages."""
    return np.concatenate(
        [voltage_probabilities(targets[:, :2], device),
         voltage_probabilities(targets[:, 2:4], device)], axis=-1)


def bad_feature_rows(features):
    """Indices of the rows of (N, 12) `features` that no acquisition can
    produce: a value outside [0, 1], or an input triple (columns 3i to
    3i+2) summing more than FEATURE_SUM_TOLERANCE away from 1, or a nan.
    Beyond the range check's (N, 12) masks, the temporaries are (N,)
    columns: a large file's read stays near the rows it holds."""
    features = np.asarray(features, dtype=float)
    bad = ((features < 0.0) | (features > 1.0)).any(axis=1)
    for col in range(0, features.shape[1], 3):
        gap = features[:, col] + features[:, col + 1]
        gap += features[:, col + 2]
        gap -= 1.0
        bad |= ~(np.abs(gap, out=gap) <= FEATURE_SUM_TOLERANCE)  # a nan gap is bad
    return np.nonzero(bad)[0]


def generate_simulated(
    axis,
    kick: KickConfig,
    device: DeviceConfig,
    rng: np.random.Generator,
    mean_total: float | None,
    replicas: int = 1,
) -> Dataset:
    """One example per setting of the square grid on `axis` (times
    `replicas` noise draws), V1 the outer loop.

    Probabilities are estimated from Poisson counts with `mean_total`
    expected photons per input, like a real acquisition would: each
    replica is one `fresh_noise` draw of the exact features.  Pass
    mean_total=None for exact model probabilities (no shot noise).

    Raises invalid-parameter if the grid or any kicked setting falls
    outside the simulable device range, or if mean_total is not a
    positive photon count.  Raises degenerate-data, naming the budget, if
    any acquisition of a replica draws zero photons (see `fresh_noise`).
    """
    if replicas < 1:
        raise InvalidParameterError("replicas must be >= 1")
    v1, v2 = np.meshgrid(axis, axis, indexing="ij")
    base = np.stack([v1.ravel(), v2.ravel()], axis=-1)
    kicked = base + kick.offset()
    if base.min() < device.v_min or base.max() > device.v_max:
        raise InvalidParameterError("grid exceeds the device voltage range")
    if kicked.max() > device.v_max:
        raise InvalidParameterError(
            "kicked settings exceed the simulable device range "
            f"({kicked.max():.6g} V > {device.v_max:.6g} V)"
        )
    targets = np.concatenate([base, kicked], axis=-1)
    exact = exact_features(targets, device)
    features = np.empty((replicas,) + exact.shape)
    for draw in features:
        draw[...] = fresh_noise(exact, mean_total, rng)
    return Dataset(
        features=features.reshape(-1, exact.shape[1]),
        targets=np.tile(targets, (replicas, 1)),
        kick=kick,
        provenance="simulated",
        mean_total=mean_total,
    )


def split(dataset: Dataset, validation_fraction: float, rng: np.random.Generator):
    """Random disjoint (train, validation) partition by setting.

    A setting is the exact bits of a row's four targets.  All rows of one
    setting (replicas, repeated measurements) fall on one side, so
    validation never scores a setting the network trained on.
    `rng.permutation` of the settings, numbered by first appearance, puts
    the validation share (rounded, at least one) first.  Each side holds
    its settings in that order and a setting's rows in dataset order, so
    one row per setting gives the row permutation.  Raises
    degenerate-data for fewer than two settings.
    """
    if not 0.0 < validation_fraction < 1.0:
        raise InvalidParameterError("validation fraction must lie in (0, 1)")
    bits = np.ascontiguousarray(dataset.targets, dtype=np.float64).view(np.uint64)
    _, first, setting = np.unique(bits, axis=0, return_index=True, return_inverse=True)
    n = len(first)
    if n < 2:
        raise DegenerateDataError(
            f"cannot split {len(dataset)} rows into training and validation: "
            f"they hold {n} distinct settings, at least 2 are needed")
    n_val = int(round(validation_fraction * n))
    n_val = min(max(n_val, 1), n - 1)
    # place[s]: where the permutation puts the setting np.unique sorted
    # to index s, whose number by first appearance is its rank in `first`
    place = np.empty(n, dtype=np.intp)
    place[np.argsort(first)] = rng.permutation(n).argsort()
    place = place[setting.ravel()]
    rows = np.argsort(place, kind="stable")
    n_val_rows = np.count_nonzero(place < n_val)
    return dataset.subset(rows[n_val_rows:]), dataset.subset(rows[:n_val_rows])


# Rows the writer formats at a time: its temporaries stay near a
# megabyte whatever the dataset size.
_WRITE_BLOCK_ROWS = 512


def _write_rows(fh, *columns):
    """Write 2-D float blocks side by side as CSV lines in `format_value`'s
    text form: the bytes of writing their `np.hstack`, without that copy.

    The blocks are joined one slice of rows at a time.  Shot-noise
    frequencies and grid voltages repeat, so within a slice each distinct
    float64 bit pattern is formatted once: the unique patterns are taken
    over the uint64 view (so -0.0 and 0.0 stay apart) and every cell is
    looked up among them.  A table over the whole dataset would format
    fewer values but hold a string for most cells at once.  The text of a
    Python float under `format_value` is its `repr`, called here directly
    because this loop runs once per distinct value.
    """
    blocks = [np.asarray(block, dtype=np.float64).view(np.uint64) for block in columns]
    for start in range(0, blocks[0].shape[0], _WRITE_BLOCK_ROWS):
        bits = np.hstack([block[start:start + _WRITE_BLOCK_ROWS] for block in blocks])
        distinct, where = np.unique(bits, return_inverse=True)
        text = np.array(list(map(repr, distinct.view(np.float64).tolist())), dtype=object)
        cells = text[where.reshape(bits.shape)]
        fh.writelines(",".join(row) + "\n" for row in cells.tolist())


def write_csv(dataset: Dataset, path):
    """Serialize a dataset; lossless (floats round-trip bit-exactly).

    Refuses a provenance that spans lines or starts or ends with
    whitespace, which the reader would strip, and arrays that do not fill
    the schema's columns: (N, 4) targets beside (N, 12) features.
    """
    check_one_line("provenance", dataset.provenance)
    if dataset.provenance != dataset.provenance.strip():
        raise InvalidParameterError(
            f"provenance must not start or end with whitespace, got {dataset.provenance!r}")
    n = len(dataset.targets)
    if np.shape(dataset.targets) != (n, 4) or np.shape(dataset.features) != (n, _N_COLS - 4):
        raise InvalidParameterError(
            f"a dataset row needs 4 targets and {_N_COLS - 4} features, got arrays of shape "
            f"{np.shape(dataset.targets)} and {np.shape(dataset.features)}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# provenance = {dataset.provenance}\n"
                 f"# dv1 = {format_value(dataset.kick.dv1)}\n"
                 f"# dv2 = {format_value(dataset.kick.dv2)}\n"
                 f"# mean_total = {format_value(dataset.mean_total)}\n"
                 f"{DATASET_HEADER}\n")
        _write_rows(fh, dataset.targets, dataset.features)


def _data_lines(path, meta, linenos):
    """Yield the stripped data lines of a dataset CSV while checking the rest.

    Comment, metadata and blank lines are skipped; metadata values go
    into `meta` and the line number of each data line yielded onto
    `linenos`.  A repeated metadata key, a header mismatch and a wrong
    column count raise FileFormatError with their line number, and bytes
    that are not UTF-8 raise it too, when the scan reaches them.  After
    the last line, a missing header, an empty body and missing metadata
    keys are raised in that order.  A comment whose key is not in
    `METADATA_KEYS` is a plain comment.
    """
    saw_header = False
    for lineno, raw in text_lines(path):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            key, eq, val = line[1:].partition("=")
            key = key.strip()
            if eq and key in METADATA_KEYS:
                if key in meta:
                    raise FileFormatError(f"duplicate metadata key {key!r}", line=lineno)
                meta[key] = val.strip()
            continue
        if not saw_header:
            if line != DATASET_HEADER:
                raise FileFormatError(
                    f"header mismatch: expected {DATASET_HEADER!r}", line=lineno
                )
            saw_header = True
            continue
        if line.count(",") != _N_COLS - 1:
            raise FileFormatError(
                f"expected {_N_COLS} columns, got {line.count(',') + 1}", line=lineno
            )
        linenos.append(lineno)
        yield line
    if not saw_header:
        raise FileFormatError(f"missing header line {DATASET_HEADER!r} in {path}")
    if not linenos:
        raise FileFormatError(f"no data rows in {path}")
    missing = [key for key in METADATA_KEYS if key not in meta]
    if missing:
        raise FileFormatError(f"missing metadata {', '.join(map(repr, missing))} in {path}")


def _parse_rows(path):
    """Dataset CSV reader: returns (metadata, rows, row_linenos).

    `parse_float_rows` consumes the data lines as `_data_lines` scans
    them, so no list of lines is kept.  The errors and their line numbers
    are those of checking the whole file before parsing any number: a
    failed parse stops the scan early, so the file is scanned again into
    a list, which raises any error of the scan, and the first line that
    does not parse is found by bisection.  A nan or inf is reported with
    its line number.
    """
    meta: dict[str, str] = {}
    linenos = array("q")
    lines = _data_lines(path, meta, linenos)
    try:
        rows = parse_float_rows(lines)
    except ValueError:
        lines.close()
        meta, linenos = {}, array("q")
        lines = list(_data_lines(path, meta, linenos))
        bad = _first_bad_line(lines)
        raise FileFormatError(f"non-numeric field in {lines[bad]!r}", line=linenos[bad])
    bad = np.nonzero(~np.isfinite(rows).all(axis=1))[0]
    if bad.size:
        raise FileFormatError("non-finite field (nan or inf)", line=linenos[bad[0]])
    return meta, rows, linenos


def _first_bad_line(lines):
    """Index of the first line `parse_float_rows` rejects, by bisection."""
    lo, hi = 0, len(lines)  # lines[:lo] parse, lines[lo:hi] hold a bad one
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            parse_float_rows(lines[lo:mid])
            lo = mid
        except ValueError:
            hi = mid
    return lo


def read_csv(path) -> Dataset:
    """Load a dataset CSV; validates schema, metadata, ranges and kick consistency."""
    meta, rows, linenos = _parse_rows(path)
    targets, features = rows[:, :4], rows[:, 4:]
    bad = bad_feature_rows(features)
    if bad.size:
        raise FileFormatError(
            "features no acquisition can produce (columns 5-16): each probability must lie "
            f"in [0, 1] and each input's three must sum to 1 within {FEATURE_SUM_TOLERANCE}",
            line=linenos[bad[0]])
    try:
        kick = KickConfig(dv1=parse_float(meta["dv1"]), dv2=parse_float(meta["dv2"]))
    except (ValueError, InvalidParameterError) as exc:
        raise FileFormatError(
            f"bad kick metadata dv1 = {meta['dv1']!r}, dv2 = {meta['dv2']!r}: {exc}")
    bad = np.nonzero(kick.residual(targets) > 1e-9)[0]
    if bad.size:
        raise FileFormatError("kick offset differs from the dataset's", line=linenos[bad[0]])
    mean_total = None
    text = meta["mean_total"]
    if text != "none":
        try:
            mean_total = parse_float(text)
        except ValueError:
            pass
        if mean_total is None or not 0.0 < mean_total < np.inf:
            raise FileFormatError(
                f"bad mean_total metadata {text!r} (expected a positive photon count or 'none')"
            )
    return Dataset(
        features=features,
        targets=targets,
        kick=kick,
        provenance=meta["provenance"],
        mean_total=mean_total,
    )
