"""Forward model of the three-mode, two-phase interferometer.

The chip is a tritter, three phase shifters (the third arm is the
reference and carries no shifter), and a second tritter.  Applying a
voltage pair to the two resistive heaters dissipates electrical power,
which shifts the two internal phases through a linear plus quadratic
response with thermal crosstalk:

    dphi_i = sum_j ( alpha[i,j] * P_j + alpha_nl[i,j] * P_j**2 ),
    P_j    = v_j**2 / R_j.

Single-photon detection statistics follow from the transfer unitary
U = T diag(e^{i dphi1}, e^{i dphi2}, 1) T: the probability that a photon
injected in mode i leaves in mode j is |U[j, i]|**2.  Only inputs 1 and 2
are used, giving six probabilities per voltage setting.

All functions are pure and vectorized: a voltage or phase "pair" may be
a plain length-2 array or an (..., 2) stack of pairs.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDataError, InvalidParameterError

__all__ = [
    "DeviceConfig",
    "dissipated_power",
    "phases_from_voltages",
    "tritter_unitary",
    "device_unitary",
    "output_probabilities",
    "voltage_probabilities",
    "sample_counts",
    "estimate_probabilities",
]


@dataclass(frozen=True)
class DeviceConfig:
    """The simulated device: heater response, operating envelope, tritter.

    alpha       : 2x2 linear coefficients, radians per watt
    alpha_nl    : 2x2 quadratic coefficients, radians per watt^2
    resistances : length-2 heater resistances in ohm, strictly positive
    v_min, v_max: the drivable voltage range, 0 <= v_min < v_max
    mean_total  : expected photons per input of one acquisition
    tritter     : optional 3x3 unitary replacing the ideal splitter on
                  both sides, for a fabricated (imperfect) tritter

    Off-diagonal entries of alpha and alpha_nl model thermal crosstalk
    between the arms.  `config.default_device_config()` holds the
    reference values.
    """

    alpha: np.ndarray
    alpha_nl: np.ndarray
    resistances: np.ndarray
    v_min: float
    v_max: float
    mean_total: float
    tritter: np.ndarray | None = None

    def __post_init__(self):
        alpha = np.asarray(self.alpha, dtype=float)
        alpha_nl = np.asarray(self.alpha_nl, dtype=float)
        res = np.asarray(self.resistances, dtype=float)
        if alpha.shape != (2, 2) or alpha_nl.shape != (2, 2):
            raise InvalidParameterError("alpha and alpha_nl must be 2x2 matrices")
        if res.shape != (2,):
            raise InvalidParameterError("resistances must be a length-2 vector")
        if not (np.all(np.isfinite(alpha)) and np.all(np.isfinite(alpha_nl))):
            raise InvalidParameterError("response coefficients must be finite")
        if not np.all(np.isfinite(res)) or np.any(res <= 0.0):
            raise InvalidParameterError("resistances must be finite and > 0")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "alpha_nl", alpha_nl)
        object.__setattr__(self, "resistances", res)
        if not (np.isfinite(self.v_min) and np.isfinite(self.v_max)):
            raise InvalidParameterError("voltage range must be finite")
        if self.v_min < 0.0 or self.v_max <= self.v_min:
            raise InvalidParameterError("voltage range must satisfy 0 <= v_min < v_max")
        if not np.isfinite(self.mean_total) or self.mean_total <= 0.0:
            raise InvalidParameterError("mean_total must be positive")
        if self.tritter is not None:
            t = np.asarray(self.tritter, dtype=complex)
            if t.shape != (3, 3):
                raise InvalidParameterError("tritter override must be a 3x3 matrix")
            if not np.isfinite(t).all():
                raise InvalidParameterError("tritter override must be finite")
            with np.errstate(over="ignore", invalid="ignore"):  # a nan gap fails the `<=`
                gap = np.abs(t.conj().T @ t - np.eye(3)).max()
            if not gap <= 1e-6:
                raise InvalidParameterError("tritter override is not unitary")
            object.__setattr__(self, "tritter", t)


def _check_voltages(v):
    v = np.asarray(v, dtype=float)
    if v.shape[-1] != 2:
        raise InvalidParameterError("voltage input must have a trailing axis of length 2")
    if not np.all(np.isfinite(v)):
        raise InvalidParameterError("voltages must be finite")
    if np.any(v < 0.0):
        raise InvalidParameterError("voltages must be non-negative")
    return v


def dissipated_power(v, device: DeviceConfig):
    """Ohmic power P_j = v_j^2 / R_j for each heater, in watts."""
    v = _check_voltages(v)
    return v**2 / device.resistances


def phases_from_voltages(v, device: DeviceConfig):
    """Phase pair produced by a voltage pair, crosstalk included.

    Sums the linear and quadratic power terms over both resistors for
    each of the two phases.  Shape follows the input: (..., 2).
    """
    p = dissipated_power(v, device)
    return p @ device.alpha.T + (p**2) @ device.alpha_nl.T


def tritter_unitary() -> np.ndarray:
    """Balanced three-mode splitter: the 3-point Fourier matrix.

    T[j, k] = omega^(j*k) / sqrt(3) with omega = exp(2 pi i / 3).  Every
    entry has modulus 1/sqrt(3) and T is unitary.
    """
    j, k = np.meshgrid(np.arange(3), np.arange(3), indexing="ij")
    return np.exp(2j * np.pi * j * k / 3.0) / np.sqrt(3.0)


def device_unitary(phases, tritter: np.ndarray | None = None) -> np.ndarray:
    """Transfer matrix U = T diag(e^{i dphi1}, e^{i dphi2}, 1) T.

    `tritter` optionally replaces the ideal splitter on both sides, for
    modeling a fabricated (imperfect) tritter.  Accepts a single phase
    pair or an (..., 2) stack and returns (..., 3, 3).
    """
    phases = np.asarray(phases, dtype=float)
    if phases.shape[-1] != 2:
        raise InvalidParameterError("phase input must have a trailing axis of length 2")
    if not np.all(np.isfinite(phases)):
        raise InvalidParameterError("phases must be finite")
    T = tritter_unitary() if tritter is None else np.asarray(tritter, dtype=complex)
    diag = np.ones(phases.shape[:-1] + (3,), dtype=complex)
    diag[..., 0] = np.exp(1j * phases[..., 0])
    diag[..., 1] = np.exp(1j * phases[..., 1])
    # U = T @ diag(d) @ T, with the diagonal applied between the splitters.
    return (T * diag[..., None, :]) @ T


def output_probabilities(phases, tritter: np.ndarray | None = None):
    """Six single-photon probabilities for inputs 1 and 2.

    Record layout: [P(1->1), P(1->2), P(1->3), P(2->1), P(2->2), P(2->3)],
    i.e. p[3*(i-1) + (j-1)] = |U[j, i]|^2.  Each input triple sums to 1
    up to roundoff.  Returns shape (..., 6).
    """
    U = device_unitary(phases, tritter)
    amp2 = np.abs(U) ** 2
    p = np.concatenate([amp2[..., :, 0], amp2[..., :, 1]], axis=-1)
    # |.|^2 can round a hair below zero through the complex arithmetic;
    # clamp so downstream Poisson means are valid.
    return np.clip(p, 0.0, 1.0)


def voltage_probabilities(v, device: DeviceConfig):
    """Voltages -> phases -> probabilities, through the device's tritter."""
    return output_probabilities(phases_from_voltages(v, device), device.tritter)


def sample_counts(p, mean_total: float, rng: np.random.Generator):
    """Poisson photon counts with mean `mean_total * p_k` per outcome.

    The six outcomes are drawn independently, which is the standard
    model for photon counting with a Poissonian source.  Deterministic
    given the generator state.
    """
    if not np.isfinite(mean_total) or mean_total <= 0.0:
        raise InvalidParameterError("mean_total must be a positive finite number")
    p = np.asarray(p, dtype=float)
    if np.any(p < -1e-9) or np.any(p > 1.0 + 1e-9):
        raise InvalidParameterError("probabilities must lie in [0, 1]")
    return rng.poisson(mean_total * np.clip(p, 0.0, 1.0))


def estimate_probabilities(counts):
    """Per-input relative frequencies from a count record.

    Normalizes each input triple by its own total, so the two triples of
    the returned record sum to one by construction.  A triple with zero
    total counts carries no information and is rejected.
    """
    c = np.asarray(counts, dtype=float)
    if c.shape[-1] != 6:
        raise InvalidParameterError("count input must have a trailing axis of length 6")
    if np.any(c < 0):
        raise InvalidParameterError("counts must be non-negative")
    totals = np.stack([c[..., :3].sum(axis=-1), c[..., 3:].sum(axis=-1)], axis=-1)
    if np.any(totals <= 0):
        raise DegenerateDataError("zero total counts for an input; cannot normalize")
    out = np.empty_like(c)
    out[..., :3] = c[..., :3] / totals[..., :1]
    out[..., 3:] = c[..., 3:] / totals[..., 1:]
    return out
