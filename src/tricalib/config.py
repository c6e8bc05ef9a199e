"""How numbers are read and written, the small writers, and the device file.

Every text file here spells numbers one way.  `parse_float` and
`parse_int` read them; `format_value` writes them, a float as its
shortest round-trip repr, so a written number reads back bit for bit.
`write_report` (`key = value` lines) and `write_rows_csv` write the
result files in that form.

The device config file is plain key-value text, one `key = values` pair
per line, `#` comments allowed.  Matrices are flattened row-major:

    # two-phase interferometer, simulated reference device
    resistances = 100.0, 100.0
    alpha       = 6.0, 3.0, 3.0, 6.0
    alpha_nl    = 2.7, 1.35, 1.35, 2.7
    v_min       = 0.0
    v_max       = 8.0
    mean_total  = 1000.0
    # optional fabricated-tritter override, 9 complex entries
    # row-major with re/im interleaved (18 reals):
    # tritter = re00, im00, re01, im01, ...

If `--device-config` is not given on the command line, the file
`device.cfg` inside the directory named by the environment variable
TRICALIB_CONFIG_DIR is used when present, otherwise the built-in
defaults above.  The device object itself, `device.DeviceConfig`,
checks the values.
"""

import os
import re

import numpy as np

from .device import DeviceConfig
from .errors import FileFormatError, InvalidParameterError

__all__ = [
    "default_device_config",
    "read_device_config",
    "write_device_config",
    "resolve_device_config",
    "parse_float_rows",
    "split_floats",
    "parse_float",
    "parse_int",
    "format_value",
    "format_values",
    "write_report",
    "write_rows_csv",
    "text_lines",
    "check_one_line",
    "CONFIG_DIR_ENV",
    "CONFIG_FILE_NAME",
    "GRID_V_MIN",
    "GRID_V_MAX",
    "GRID_N",
    "KICK_STEPS",
]

CONFIG_DIR_ENV = "TRICALIB_CONFIG_DIR"
CONFIG_FILE_NAME = "device.cfg"

# Default acquisition grid.  The device itself can be driven over its
# full [v_min, v_max]; the grid leaves headroom at the top so kicked
# settings stay simulable, and starts at 1 V because the phase response
# goes flat as v -> 0 (sensitivity scales with v), which would put an
# uninformative dead zone in the training data.
GRID_V_MIN = 1.0
GRID_V_MAX = 7.0
GRID_N = 53
KICK_STEPS = 5

_KEYS = ("resistances", "alpha", "alpha_nl", "v_min", "v_max", "mean_total", "tritter")


def default_device_config() -> DeviceConfig:
    """Reference simulated device.

    With 100 ohm heaters and a 7 V grid ceiling each heater dissipates
    up to 0.49 W, and the coefficients below sweep each phase through
    several radians (past 2 pi once kicked settings are included).  The
    single-measurement voltage -> probability map is then strongly
    non-injective: the three-mode circuit leaves a six-element symmetry
    on the phase pair, and the quadratic response folds phase wraps on
    top of it.  That regime is what the kick augmentation exists to
    disambiguate.

    The balance of the three knobs matters more than their exact
    values.  Strong thermal crosstalk (half the direct coefficient)
    entangles the two phases so that far-apart voltage pairs rarely
    produce near-identical kicked measurement pairs, and a heavy
    quadratic term (45% of the linear one) makes the phase increment of
    a fixed voltage kick vary strongly across the range, which is what
    lets the network tell wrapped branches apart.  Both were tuned by
    measuring trained-network failure rates over seed ensembles; the
    landscape is sharp (for example, dropping the crosstalk ratio to
    0.4 roughly doubles the reachable validation error).
    """
    return DeviceConfig(
        alpha=np.array([[6.0, 3.0], [3.0, 6.0]]),
        alpha_nl=np.array([[2.7, 1.35], [1.35, 2.7]]),
        resistances=np.array([100.0, 100.0]),
        v_min=0.0, v_max=8.0, mean_total=1000.0,
    )


def parse_float_rows(lines):
    """Parse comma-separated lines of numbers into an (n, k) float array.

    `np.loadtxt` accepts what Python's `float()` does except digit-group
    underscores and non-ASCII digits, so every reader of numbers spells
    them alike.  A field that is not a number raises ValueError.
    """
    return np.loadtxt(lines, delimiter=",", comments=None, dtype=float, ndmin=2)


def split_floats(text: str):
    """The numbers of a comma- or space-separated list.

    A token that is not a number (as `parse_float_rows` reads numbers)
    raises ValueError; each caller maps it onto its own error category.
    """
    tokens = text.replace(",", " ").split()
    return parse_float_rows([",".join(tokens)])[0].tolist() if tokens else []


def parse_float(text: str) -> float:
    """One number, spelled as `split_floats` reads numbers."""
    values = split_floats(text)
    if len(values) != 1:
        raise ValueError(f"expected one number, got {text!r}")
    return values[0]


_ASCII_INT = re.compile(r"[+-]?[0-9]+")


def parse_int(text: str) -> int:
    """An integer in ASCII digits with an optional sign.

    Python's `int()` also reads digit-group underscores and non-ASCII
    digits, which no reader of numbers here accepts; they raise
    ValueError like any other non-integer.
    """
    text = text.strip()
    if not _ASCII_INT.fullmatch(text):
        raise ValueError(f"expected an integer, got {text!r}")
    return int(text)


def format_value(x) -> str:
    """Stable text form: shortest round-trip repr for floats, "none" for None."""
    if x is None:
        return "none"
    if isinstance(x, (bool, int, str)):
        return str(x)
    return repr(float(x))


def format_values(values, sep: str = " ") -> str:
    """The numbers of `values`, flattened, as floats in `format_value`'s form."""
    return sep.join(map(format_value, np.asarray(values, dtype=float).ravel()))


def write_report(path, pairs):
    """Line-oriented `key = value` report, deterministic byte for byte."""
    with open(path, "w", encoding="utf-8") as fh:
        for key, value in pairs:
            fh.write(f"{key} = {format_value(value)}\n")


def write_rows_csv(path, header, rows):
    """Small CSV writer with the same stable float formatting."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(map(format_value, row)) + "\n")


def text_lines(path):
    """Yield (1-based line number, line) of a UTF-8 text file.

    A byte sequence that is not UTF-8 is a FileFormatError, not a
    UnicodeDecodeError escaping to the caller.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            yield from enumerate(fh, start=1)
        except UnicodeDecodeError as exc:
            raise FileFormatError(f"{path} is not UTF-8 text ({exc.reason})") from exc


def check_one_line(name: str, text: str):
    """Reject a header value that would split its line in a text file."""
    if "\n" in text or "\r" in text:
        raise InvalidParameterError(f"{name} must be one line, got {text!r}")


def read_device_config(path) -> DeviceConfig:
    """Parse a device config file; unknown keys are rejected."""
    values: dict[str, list[float]] = {}
    for lineno, raw in text_lines(path):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise FileFormatError("expected 'key = values'", line=lineno)
        key, _, rest = line.partition("=")
        key = key.strip()
        if key not in _KEYS:
            raise FileFormatError(f"unknown key {key!r}", line=lineno)
        if key in values:
            raise FileFormatError(f"duplicate key {key!r}", line=lineno)
        try:
            values[key] = split_floats(rest)
        except ValueError as exc:
            raise FileFormatError(f"expected numbers, got {rest.strip()!r}", line=lineno) from exc

    def need(key, count):
        if key not in values:
            raise FileFormatError(f"missing required key {key!r} in {path}")
        if len(values[key]) != count:
            raise FileFormatError(f"key {key!r} needs {count} value(s), got {len(values[key])}")
        return values[key]

    def interleaved_matrix(flat):
        return np.array(flat[0::2]).reshape(3, 3) + 1j * np.array(flat[1::2]).reshape(3, 3)

    return DeviceConfig(
        alpha=np.array(need("alpha", 4)).reshape(2, 2),
        alpha_nl=np.array(need("alpha_nl", 4)).reshape(2, 2),
        resistances=np.array(need("resistances", 2)),
        tritter=interleaved_matrix(need("tritter", 18)) if "tritter" in values else None,
        v_min=need("v_min", 1)[0],
        v_max=need("v_max", 1)[0],
        mean_total=need("mean_total", 1)[0],
    )


def write_device_config(cfg: DeviceConfig, path):
    """Write `cfg` as `read_device_config` reads it, every number a float."""
    fields = [("resistances", cfg.resistances), ("alpha", cfg.alpha),
              ("alpha_nl", cfg.alpha_nl), ("v_min", cfg.v_min), ("v_max", cfg.v_max),
              ("mean_total", cfg.mean_total)]
    if cfg.tritter is not None:  # row-major, re/im interleaved
        fields.append(("tritter", np.stack([cfg.tritter.real, cfg.tritter.imag], axis=-1)))
    text = "".join(f"{key} = {format_values(values, ', ')}\n" for key, values in fields)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# tricalib device configuration\n" + text)


def resolve_device_config(explicit_path=None) -> DeviceConfig:
    """Config lookup order: explicit path, env directory, defaults."""
    if explicit_path is not None:
        return read_device_config(explicit_path)
    env_dir = os.environ.get(CONFIG_DIR_ENV)
    if env_dir:
        candidate = os.path.join(env_dir, CONFIG_FILE_NAME)
        if os.path.exists(candidate):
            return read_device_config(candidate)
    return default_device_config()
