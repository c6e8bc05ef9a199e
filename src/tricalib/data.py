"""Voltage grids, kick-augmented datasets, and their file formats.

A training example pairs twelve probabilities with four voltages:

    features = [P(i->j) at (V1, V2),  P(i->j) at (V1+dV1, V2+dV2)]
    targets  = [V1, V2, V1+dV1, V2+dV2]

The second measurement (the "kick") is taken at a fixed voltage offset
and is what makes the inverse problem well posed: the bare six
probabilities repeat themselves across the operating range, the twelve
almost never do.

Two CSV schemas live here.  The dataset schema (one example per row,
shared by simulated and ingested data):

    v1,v2,v1k,v2k,p11,p12,p13,p21,p22,p23,q11,q12,q13,q21,q22,q23

and the measurement schema for raw per-setting grids as produced by an
experiment (or by `tricalib simulate --grid`):

    v1,v2,p11,p12,p13,p21,p22,p23

Comment lines start with '#'.  The dataset writer stores provenance,
kick offsets and the count budget in leading comments so a round-trip
is lossless.
"""

from dataclasses import dataclass, replace

import numpy as np

from .config import DeviceConfig, check_one_line, parse_float, parse_float_rows, text_lines
from .device import voltage_probabilities
from .errors import (
    DegenerateDataError,
    FileFormatError,
    IngestionError,
    InvalidParameterError,
)
from .metrics import format_value, fresh_noise

__all__ = [
    "VoltageGrid",
    "KickConfig",
    "Dataset",
    "TargetScaling",
    "build_grid",
    "kick_from_steps",
    "exact_features",
    "generate_simulated",
    "split",
    "write_csv",
    "read_csv",
    "write_measurement_csv",
    "read_measurement_csv",
    "ingest_experimental",
]

DATASET_HEADER = "v1,v2,v1k,v2k,p11,p12,p13,p21,p22,p23,q11,q12,q13,q21,q22,q23"
MEASUREMENT_HEADER = "v1,v2,p11,p12,p13,p21,p22,p23"


@dataclass(frozen=True)
class VoltageGrid:
    """Cartesian grid of settings; v1 sweeps the outer loop."""

    v1_values: np.ndarray
    v2_values: np.ndarray

    def __post_init__(self):
        for name in ("v1_values", "v2_values"):
            vals = np.asarray(getattr(self, name), dtype=float)
            if vals.ndim != 1 or vals.size < 2:
                raise InvalidParameterError(f"{name} must be a vector of at least 2 values")
            if not np.all(np.isfinite(vals)) or np.any(np.diff(vals) <= 0):
                raise InvalidParameterError(f"{name} must be finite and strictly increasing")
            object.__setattr__(self, name, vals)

    def settings(self) -> np.ndarray:
        """All (n1*n2, 2) voltage pairs, row-major in (v1, v2)."""
        g1, g2 = np.meshgrid(self.v1_values, self.v2_values, indexing="ij")
        return np.stack([g1.ravel(), g2.ravel()], axis=-1)


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
    provenance: str = "simulated"
    mean_total: float | None = None  # None means noise-free features

    def __len__(self) -> int:
        return self.features.shape[0]

    def subset(self, idx) -> "Dataset":
        return replace(self, features=self.features[idx], targets=self.targets[idx])


def build_grid(v_min: float, v_max: float, n: int) -> VoltageGrid:
    """`n` equally spaced values per axis over [v_min, v_max]."""
    if n < 2:
        raise InvalidParameterError("grid needs at least 2 values per axis")
    if not (np.isfinite(v_min) and np.isfinite(v_max)) or v_min >= v_max:
        raise InvalidParameterError("grid range must satisfy v_min < v_max")
    vals = np.linspace(v_min, v_max, n)
    return VoltageGrid(v1_values=vals, v2_values=vals.copy())


def kick_from_steps(grid: VoltageGrid, steps1: int, steps2: int) -> KickConfig:
    """Kick offsets as integer multiples of the grid step."""
    if steps1 < 1 or steps2 < 1:
        raise InvalidParameterError("kick steps must be >= 1")
    step1 = float(grid.v1_values[1] - grid.v1_values[0])
    step2 = float(grid.v2_values[1] - grid.v2_values[0])
    return KickConfig(dv1=steps1 * step1, dv2=steps2 * step2)


def exact_features(targets, device: DeviceConfig):
    """The 12 exact model probabilities at (N, 4) base-and-kicked voltages."""
    return np.concatenate(
        [voltage_probabilities(targets[:, :2], device.coeffs, device.tritter),
         voltage_probabilities(targets[:, 2:4], device.coeffs, device.tritter)], axis=-1)


def generate_simulated(
    grid: VoltageGrid,
    kick: KickConfig,
    device: DeviceConfig,
    rng: np.random.Generator,
    mean_total: float | None,
    replicas: int = 1,
) -> Dataset:
    """One example per grid setting (times `replicas` noise draws).

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
    base = grid.settings()
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
    return Dataset(
        features=np.concatenate([fresh_noise(exact, mean_total, rng)
                                 for _ in range(replicas)]),
        targets=np.tile(targets, (replicas, 1)),
        kick=kick,
        provenance="simulated",
        mean_total=mean_total,
    )


def split(dataset: Dataset, validation_fraction: float, rng: np.random.Generator):
    """Random disjoint (train, validation) partition of the examples."""
    if not 0.0 < validation_fraction < 1.0:
        raise InvalidParameterError("validation fraction must lie in (0, 1)")
    n = len(dataset)
    n_val = int(round(validation_fraction * n))
    n_val = min(max(n_val, 1), n - 1)
    perm = rng.permutation(n)
    return dataset.subset(perm[n_val:]), dataset.subset(perm[:n_val])


# Rows the writer gathers and joins at a time: keeps its temporaries near
# a megabyte whatever the dataset size.
_WRITE_BLOCK_ROWS = 4096


def _write_rows(fh, rows):
    """Write a 2-D float array as CSV lines in `format_value`'s text form.

    Shot-noise frequencies repeat a lot, so each distinct float64 bit
    pattern is formatted once: the unique patterns are taken over the
    uint64 view (so -0.0 and 0.0 stay apart) and every cell is looked up
    among them, one block of rows at a time.  The text of a Python float
    under `format_value` is its `repr`, called here directly because this
    loop runs once per distinct value.
    """
    bits = np.ascontiguousarray(rows, dtype=np.float64).view(np.uint64)
    distinct = np.unique(bits)
    text = np.array(list(map(repr, distinct.view(np.float64).tolist())), dtype=object)
    for start in range(0, bits.shape[0], _WRITE_BLOCK_ROWS):
        cells = text[np.searchsorted(distinct, bits[start:start + _WRITE_BLOCK_ROWS])]
        fh.writelines(",".join(row) + "\n" for row in cells.tolist())


def write_csv(dataset: Dataset, path):
    """Serialize a dataset; lossless (floats round-trip bit-exactly).

    Refuses a provenance that spans lines or starts or ends with
    whitespace, which the reader would strip.
    """
    check_one_line("provenance", dataset.provenance)
    if dataset.provenance != dataset.provenance.strip():
        raise InvalidParameterError(
            f"provenance must not start or end with whitespace, got {dataset.provenance!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# provenance = {dataset.provenance}\n"
                 f"# dv1 = {format_value(dataset.kick.dv1)}\n"
                 f"# dv2 = {format_value(dataset.kick.dv2)}\n"
                 f"# mean_total = {format_value(dataset.mean_total)}\n"
                 f"{DATASET_HEADER}\n")
        _write_rows(fh, np.hstack([dataset.targets, dataset.features]))


def _parse_rows(path, header, n_cols):
    """Shared CSV scanner: returns (metadata, rows, row_linenos).

    Comment, metadata and blank lines are skipped line by line; the data
    lines are parsed together by `parse_float_rows`.  A wrong column
    count, a non-numeric field and a nan or inf are reported with their
    line number.
    """
    meta: dict[str, str] = {}
    lines = []
    linenos = []
    saw_header = False
    for lineno, raw in text_lines(path):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if "=" in body:
                key, _, val = body.partition("=")
                meta[key.strip()] = val.strip()
            continue
        if not saw_header:
            if line != header:
                raise FileFormatError(
                    f"header mismatch: expected {header!r}", line=lineno
                )
            saw_header = True
            continue
        if line.count(",") != n_cols - 1:
            raise FileFormatError(
                f"expected {n_cols} columns, got {line.count(',') + 1}", line=lineno
            )
        lines.append(line)
        linenos.append(lineno)
    if not saw_header:
        raise FileFormatError(f"missing header line {header!r} in {path}")
    if not lines:
        raise FileFormatError(f"no data rows in {path}")
    try:
        rows = parse_float_rows(lines)
    except ValueError:
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


def _check_probability_block(block, linenos, first_col):
    bad = np.nonzero((block < 0.0) | (block > 1.0))[0]
    if bad.size:
        raise FileFormatError(
            f"probability outside [0, 1] (column {first_col + 1}+)", line=linenos[bad[0]]
        )


def read_csv(path) -> Dataset:
    """Load a dataset CSV; validates schema, ranges and kick consistency."""
    meta, rows, linenos = _parse_rows(path, DATASET_HEADER, 16)
    targets, features = rows[:, :4], rows[:, 4:]
    _check_probability_block(features, linenos, 4)
    if "dv1" in meta and "dv2" in meta:
        try:
            kick = KickConfig(dv1=parse_float(meta["dv1"]), dv2=parse_float(meta["dv2"]))
        except (ValueError, InvalidParameterError) as exc:
            raise FileFormatError(
                f"bad kick metadata dv1 = {meta['dv1']!r}, dv2 = {meta['dv2']!r}: {exc}")
    else:
        kick = KickConfig(
            dv1=float(targets[0, 2] - targets[0, 0]),
            dv2=float(targets[0, 3] - targets[0, 1]),
        )
    drift = np.maximum(
        np.abs((targets[:, 2] - targets[:, 0]) - kick.dv1),
        np.abs((targets[:, 3] - targets[:, 1]) - kick.dv2),
    )
    bad = np.nonzero(drift > 1e-9)[0]
    if bad.size:
        raise FileFormatError("kick offset differs from the dataset's", line=linenos[bad[0]])
    mean_total = None
    text = meta.get("mean_total", "none")
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
        provenance=meta.get("provenance", "simulated"),
        mean_total=mean_total,
    )


def write_measurement_csv(voltages, probs, path, comment: str | None = None):
    """Raw per-setting grid file in the measurement schema; refuses a
    comment that spans lines."""
    check_one_line("comment", comment or "")
    with open(path, "w", encoding="utf-8") as fh:
        if comment:
            fh.write(f"# {comment}\n")
        fh.write(MEASUREMENT_HEADER + "\n")
        _write_rows(fh, np.hstack([voltages, probs]))


def read_measurement_csv(path):
    """Load a measurement grid file -> (voltages (N,2), probabilities (N,6))."""
    _, rows, linenos = _parse_rows(path, MEASUREMENT_HEADER, 8)
    _check_probability_block(rows[:, 2:], linenos, 2)
    return rows[:, :2], rows[:, 2:]


def _grid_axis(values, name):
    axis = np.unique(values)
    if axis.size < 2:
        raise IngestionError(f"measurement grid has fewer than 2 distinct {name} values")
    steps = np.diff(axis)
    if np.abs(steps - steps[0]).max() > 1e-9 * max(1.0, abs(float(steps[0]))):
        raise IngestionError(f"measurement grid spacing along {name} is not uniform")
    return axis, float(steps[0])


def _steps_on_axis(dv, step, name):
    ratio = dv / step
    k = int(round(ratio))
    if k < 1 or abs(ratio - k) > 1e-6:
        raise IngestionError(
            f"kick {name} = {dv!r} V is not a positive integer multiple "
            f"of the grid step {step!r} V"
        )
    return k


def ingest_experimental(path, kick: KickConfig):
    """Assemble kicked examples from a measured rectangular grid.

    Each setting is paired with the setting one kick away on the same
    grid; border settings whose partner was never measured are dropped.
    Returns (dataset, n_dropped).

    Raises ingestion errors when the grid is not rectangular/uniform or
    the kick does not land on grid points.
    """
    voltages, probs = read_measurement_csv(path)
    axis1, step1 = _grid_axis(voltages[:, 0], "v1")
    axis2, step2 = _grid_axis(voltages[:, 1], "v2")
    if axis1.size * axis2.size != voltages.shape[0]:
        raise IngestionError(
            f"measurement grid is not rectangular: {axis1.size} x {axis2.size} "
            f"axes but {voltages.shape[0]} rows"
        )
    index = {}
    for row, (u, w) in enumerate(voltages):
        i = int(np.searchsorted(axis1, u))
        j = int(np.searchsorted(axis2, w))
        if (i, j) in index:
            raise IngestionError(f"duplicate measurement at v = ({u!r}, {w!r})")
        index[(i, j)] = row
    # n1 * n2 rows and no setting twice: every setting of the grid is present
    s1 = _steps_on_axis(kick.dv1, step1, "dv1")
    s2 = _steps_on_axis(kick.dv2, step2, "dv2")

    feats, targs = [], []
    dropped = 0
    for i in range(axis1.size):
        for j in range(axis2.size):
            pi, pj = i + s1, j + s2
            if pi >= axis1.size or pj >= axis2.size:
                dropped += 1
                continue
            feats.append(np.concatenate([probs[index[(i, j)]], probs[index[(pi, pj)]]]))
            targs.append([axis1[i], axis2[j], axis1[pi], axis2[pj]])
    if not feats:
        raise IngestionError("kick larger than the measured grid; no examples remain")
    dataset = Dataset(
        features=np.array(feats),
        targets=np.array(targs),
        kick=kick,
        provenance="experimental",
        mean_total=None,
    )
    return dataset, dropped
