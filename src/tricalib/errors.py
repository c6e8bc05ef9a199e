"""Error taxonomy shared by the whole package.

Every failure the library can signal deliberately derives from
:class:`CalibrationError` and carries a short machine-readable category
plus a process exit code used by the command line front end.

Exit code map (2 is reserved for argparse usage errors, 10 for OS-level
file problems; 6 is retired and not reused):

    3  invalid-parameter   bad numeric input, out-of-range voltage, ...
    4  degenerate-data     zero counts, constant target dimension, ...
    5  file-format         malformed config/CSV row (reported with line number)
    7  checkpoint          bad magic/version/checksum, truncated or malformed file, nan/inf value
    8  training-diverged   non-finite loss during optimization
    9  undefined-metric    cosine of a zero-norm vector
"""


class CalibrationError(Exception):
    """Base class; subclasses set `category` and `exit_code`."""

    category = "error"
    exit_code = 1


class InvalidParameterError(CalibrationError):
    category = "invalid-parameter"
    exit_code = 3


class DegenerateDataError(CalibrationError):
    category = "degenerate-data"
    exit_code = 4


class FileFormatError(CalibrationError):
    """Parse failure in a config or dataset file.

    `line` is the 1-based line number when one can be attributed.
    """

    category = "file-format"
    exit_code = 5

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class CheckpointError(CalibrationError):
    category = "checkpoint"
    exit_code = 7


class TrainingDivergedError(CalibrationError):
    category = "training-diverged"
    exit_code = 8

    def __init__(self, message, epoch=None):
        super().__init__(message)
        self.epoch = epoch


class UndefinedMetricError(CalibrationError):
    category = "undefined-metric"
    exit_code = 9
