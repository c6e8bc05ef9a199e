"""Calibration toolkit for a simulated two-phase three-mode interferometer.

The device model is two balanced three-mode couplers around a pair of
voltage-controlled phase shifters.  Single-photon output probabilities
are a many-to-one function of the two control voltages, so the toolkit
augments every measurement with a second one taken at a fixed voltage
kick and trains a small fully connected network to invert probabilities
back to voltages.  Everything downstream of numpy is implemented here:
the forward model, Poisson photon statistics, the network and its Adam
optimizer, the evaluation protocol and the experiment harnesses.

Start with `default_device_config()` and `generate_simulated()`, or use
the `tricalib` command line tool.
"""

from .config import (
    CONFIG_DIR_ENV,
    default_device_config,
    read_device_config,
    resolve_device_config,
    write_device_config,
)
from .data import (
    Dataset,
    KickConfig,
    TargetScaling,
    build_grid,
    generate_simulated,
    kick_from_steps,
    read_csv,
    split,
    write_csv,
)
from .device import (
    DeviceConfig,
    device_unitary,
    dissipated_power,
    estimate_probabilities,
    output_probabilities,
    phases_from_voltages,
    sample_counts,
    tritter_unitary,
    voltage_probabilities,
)
from .errors import (
    CalibrationError,
    CheckpointError,
    DegenerateDataError,
    FileFormatError,
    InvalidParameterError,
    TrainingDivergedError,
    UndefinedMetricError,
)
from .metrics import cosine_similarity, nrmse, repeated_test_evaluation
from .net import (
    TrainConfig,
    TrainReport,
    backward,
    forward,
    init_he,
    load_checkpoint,
    loss,
    predict,
    save_checkpoint,
    train,
)

__version__ = "0.1.0"

__all__ = [
    "CONFIG_DIR_ENV",
    "CalibrationError",
    "CheckpointError",
    "Dataset",
    "DegenerateDataError",
    "DeviceConfig",
    "FileFormatError",
    "InvalidParameterError",
    "KickConfig",
    "TargetScaling",
    "TrainConfig",
    "TrainReport",
    "TrainingDivergedError",
    "UndefinedMetricError",
    "backward",
    "build_grid",
    "cosine_similarity",
    "default_device_config",
    "device_unitary",
    "dissipated_power",
    "estimate_probabilities",
    "forward",
    "generate_simulated",
    "init_he",
    "kick_from_steps",
    "load_checkpoint",
    "loss",
    "nrmse",
    "output_probabilities",
    "phases_from_voltages",
    "predict",
    "read_csv",
    "read_device_config",
    "repeated_test_evaluation",
    "resolve_device_config",
    "sample_counts",
    "save_checkpoint",
    "split",
    "train",
    "tritter_unitary",
    "voltage_probabilities",
    "write_csv",
    "write_device_config",
]
