"""Forward-model tests: power, phases, tritter algebra, probabilities,
Poisson sampling and frequency estimation."""

import cmath
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tricalib.config import GRID_N, GRID_V_MAX, GRID_V_MIN, KICK_STEPS, default_device_config
from tricalib.device import (
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
from tricalib.errors import DegenerateDataError, InvalidParameterError

DEV = default_device_config()

# Two distinct in-grid voltage pairs with identical base probabilities
# (1.4e-15 apart) but kicked features 1.08 apart.  Found by mapping the
# six-element symmetry orbit of the phase pair plus a 2 pi wrap back
# through the voltage response; frozen at full float precision.
WITNESS_A = np.array([4.8, 3.7])
WITNESS_B = np.array([6.7696837237899299, 6.1575411827881057])


def response(alpha, alpha_nl, resistances):
    """The reference device with other heater response coefficients."""
    return replace(DEV, alpha=alpha, alpha_nl=alpha_nl, resistances=resistances)


def default_kick_offset():
    step = (GRID_V_MAX - GRID_V_MIN) / (GRID_N - 1)
    return np.array([KICK_STEPS * step, KICK_STEPS * step])


# ------------------------------------------------------------- power, phases


def test_dissipated_power_zero_voltage():
    dev = response(np.eye(2), np.zeros((2, 2)), np.array([50.0, 70.0]))
    assert np.array_equal(dissipated_power([0.0, 0.0], dev), [0.0, 0.0])


def test_dissipated_power_direct_substitution():
    dev = response(np.eye(2), np.zeros((2, 2)), np.array([1.0, 1.0]))
    np.testing.assert_allclose(dissipated_power([1.0, 2.0], dev), [1.0, 4.0], rtol=0)


def test_dissipated_power_reference_values():
    # v = (3.5, 5.0) into (100, 120) ohm: 12.25/100 and 25/120
    dev = response(np.eye(2), np.zeros((2, 2)), np.array([100.0, 120.0]))
    p = dissipated_power([3.5, 5.0], dev)
    np.testing.assert_allclose(p, [0.1225, 0.20833333333333334], rtol=1e-15)


def test_phases_zero_voltage():
    assert np.array_equal(phases_from_voltages([0.0, 0.0], DEV), [0.0, 0.0])


def test_phases_single_power_substitution():
    # one watt on the first heater only, identity linear response plus
    # a 0.1 quadratic term: phase 1 = 1*1 + 0.1*1 = 1.1, phase 2 = 0
    dev = response(np.eye(2), 0.1 * np.eye(2), np.array([1.0, 1.0]))
    np.testing.assert_allclose(phases_from_voltages([1.0, 0.0], dev), [1.1, 0.0],
                               rtol=0, atol=1e-15)


def test_phases_term_by_term_reference():
    """Vectorized phase response agrees with a scalar summation."""
    v = np.array([3.0, 4.0])
    p = v**2 / DEV.resistances
    expected = np.zeros(2)
    for i in range(2):
        for j in range(2):
            expected[i] += DEV.alpha[i, j] * p[j]
            expected[i] += DEV.alpha_nl[i, j] * p[j] ** 2
    np.testing.assert_allclose(phases_from_voltages(v, DEV), expected, atol=1e-12)


def test_crosstalk_moves_the_other_phase():
    # driving only heater 2 still shifts phase 1 through the off-diagonal
    phases = phases_from_voltages([0.0, 4.0], DEV)
    assert phases[0] != 0.0


def test_voltage_validation():
    with pytest.raises(InvalidParameterError):
        dissipated_power([-1.0, 2.0], DEV)
    with pytest.raises(InvalidParameterError):
        dissipated_power([np.nan, 2.0], DEV)
    with pytest.raises(InvalidParameterError):
        dissipated_power([1.0, 2.0, 3.0], DEV)


def test_coefficient_validation():
    with pytest.raises(InvalidParameterError, match="2x2"):
        response(np.eye(3), np.zeros((2, 2)), np.array([1.0, 1.0]))
    with pytest.raises(InvalidParameterError, match="resistances must be finite"):
        response(np.eye(2), np.zeros((2, 2)), np.array([1.0, 0.0]))
    with pytest.raises(InvalidParameterError, match="coefficients must be finite"):
        response(np.full((2, 2), np.inf), np.zeros((2, 2)), np.array([1.0, 1.0]))


def test_device_config_has_no_reference_defaults():
    """Only the tritter has a default: the reference values live in
    `default_device_config` alone."""
    with pytest.raises(TypeError):
        DeviceConfig(DEV.alpha, DEV.alpha_nl, DEV.resistances)
    dev = DeviceConfig(DEV.alpha, DEV.alpha_nl, DEV.resistances, 0.0, 8.0, 1000.0)
    assert dev.tritter is None


# ------------------------------------------------------------ tritter algebra


def oracle_unitary(ph1, ph2):
    """Straight cmath implementation of T diag T, kept independent of
    the library's vectorized code."""
    w = cmath.exp(2j * cmath.pi / 3.0)
    s = 1.0 / cmath.sqrt(3.0)
    T = [[s * w ** (j * k) for k in range(3)] for j in range(3)]
    d = [cmath.exp(1j * ph1), cmath.exp(1j * ph2), 1.0]
    TD = [[T[j][k] * d[k] for k in range(3)] for j in range(3)]
    return [[sum(TD[j][m] * T[m][k] for m in range(3)) for k in range(3)]
            for j in range(3)]


def test_tritter_entry_moduli():
    T = tritter_unitary()
    np.testing.assert_allclose(np.abs(T), 1.0 / np.sqrt(3.0), atol=1e-15)


def test_tritter_unitary():
    T = tritter_unitary()
    assert np.abs(T.conj().T @ T - np.eye(3)).max() < 1e-12


def test_tritter_squared_is_a_permutation():
    """T^2 maps mode 1 to 1 and swaps modes 2 and 3."""
    w = cmath.exp(2j * cmath.pi / 3.0)
    s = 1.0 / cmath.sqrt(3.0)
    T = [[s * w ** (j * k) for k in range(3)] for j in range(3)]
    T2 = [[sum(T[j][m] * T[m][k] for m in range(3)) for k in range(3)] for j in range(3)]
    moduli = np.array([[abs(T2[j][k]) for k in range(3)] for j in range(3)])
    expected = np.array([[1.0, 0.0, 0.0],
                         [0.0, 0.0, 1.0],
                         [0.0, 1.0, 0.0]])
    np.testing.assert_allclose(moduli, expected, atol=1e-12)
    lib = np.abs(tritter_unitary() @ tritter_unitary())
    np.testing.assert_allclose(lib, expected, atol=1e-12)


def test_device_unitary_zero_phases():
    # at zero phase the diagonal is the identity, so U = T^2 and the
    # photon routing is deterministic: 1 -> 1 and 2 -> 3
    p = output_probabilities([0.0, 0.0])
    np.testing.assert_allclose(p, [1, 0, 0, 0, 0, 1], atol=1e-12)


def test_device_unitary_against_oracle():
    ph = (np.pi / 2.0, np.pi / 3.0)
    U = device_unitary(ph)
    ref = np.array(oracle_unitary(*ph))
    np.testing.assert_allclose(np.abs(U) ** 2, np.abs(ref) ** 2, atol=1e-10)
    # and the probability record layout picks out columns 0 and 1
    p = output_probabilities(ph)
    expected = np.concatenate([np.abs(ref[:, 0]) ** 2, np.abs(ref[:, 1]) ** 2])
    np.testing.assert_allclose(p, expected, atol=1e-10)


def test_device_unitarity_random_phases():
    rng = np.random.default_rng(42)
    phases = rng.uniform(0.0, 4.0 * np.pi, size=(1000, 2))
    U = device_unitary(phases)
    err = np.abs(np.swapaxes(U.conj(), -1, -2) @ U - np.eye(3)).max()
    assert err < 1e-12


def test_probability_rows_normalized():
    rng = np.random.default_rng(7)
    phases = rng.uniform(0.0, 4.0 * np.pi, size=(1000, 2))
    p = output_probabilities(phases)
    assert np.abs(p[:, :3].sum(axis=1) - 1.0).max() < 1e-12
    assert np.abs(p[:, 3:].sum(axis=1) - 1.0).max() < 1e-12
    assert p.min() >= 0.0 and p.max() <= 1.0


def test_probability_periodicity():
    rng = np.random.default_rng(11)
    phases = rng.uniform(-2.0 * np.pi, 2.0 * np.pi, size=(200, 2))
    base = output_probabilities(phases)
    for m, n in [(1, 0), (0, 1), (1, 1), (-2, 3)]:
        shifted = output_probabilities(phases + 2.0 * np.pi * np.array([m, n]))
        assert np.abs(shifted - base).max() < 1e-12


PHASE = st.floats(-4.0 * np.pi, 4.0 * np.pi, allow_nan=False)


def random_tritter(seed):
    """An imperfect tritter: the unitary Q of a QR factorisation of a
    random complex 3x3 matrix."""
    rng = np.random.default_rng(seed)
    return np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))[0]


def symmetry_orbit(phi1, phi2):
    """The six phase pairs the balanced circuit cannot tell apart.

    With d = (e^{i phi1}, e^{i phi2}, 1), U[j, i] is (1/3) sum_k
    omega^{k(i+j)} d_k.  A cyclic shift of d, or a transposition of d
    together with complex conjugation, leaves every |U[j, i]| unchanged;
    a global phase that brings d's last entry back to 1 gives the pair.
    """
    return [(phi1, phi2), (phi2 - phi1, -phi1), (-phi2, phi1 - phi2),
            (-phi2, -phi1), (phi1, phi1 - phi2), (phi2 - phi1, phi2)]


@settings(max_examples=200, deadline=None)
@given(phi1=PHASE, phi2=PHASE, seed=st.integers(0, 2**32 - 1))
def test_device_unitary_property(phi1, phi2, seed):
    """Unitary, with each input's output triple summing to 1, for the
    balanced tritter and an imperfect one alike."""
    for tritter in (None, random_tritter(seed)):
        U = device_unitary([phi1, phi2], tritter)
        assert np.abs(U.conj().T @ U - np.eye(3)).max() < 1e-12
        p = output_probabilities([phi1, phi2], tritter)
        assert abs(p[:3].sum() - 1.0) < 1e-12 and abs(p[3:].sum() - 1.0) < 1e-12


@settings(max_examples=200, deadline=None)
@given(phi1=PHASE, phi2=PHASE)
def test_six_element_phase_symmetry_property(phi1, phi2):
    """The balanced circuit gives all six phase pairs of an orbit the
    same six probabilities (the symmetry named by `default_device_config`)."""
    orbit = symmetry_orbit(phi1, phi2)
    probs = output_probabilities(np.array(orbit))
    assert np.abs(probs - probs[0]).max() < 1e-12


def test_six_element_phase_symmetry_orbit_is_distinct():
    orbit = np.array(symmetry_orbit(0.7, 2.1)) % (2.0 * np.pi)
    assert len({tuple(np.round(pair, 9)) for pair in orbit}) == 6


def test_phase_validation():
    with pytest.raises(InvalidParameterError):
        device_unitary([np.inf, 0.0])
    with pytest.raises(InvalidParameterError):
        device_unitary([0.0, 1.0, 2.0])


# ------------------------------------------------- ambiguity of the bare map


def test_two_voltages_same_bare_probabilities():
    """The single-measurement map is not injective on the default grid
    range; the kicked 12-feature map separates the same pair."""
    pa = voltage_probabilities(WITNESS_A, DEV)
    pb = voltage_probabilities(WITNESS_B, DEV)
    assert np.linalg.norm(pa - pb) < 1e-6
    assert np.linalg.norm(WITNESS_A - WITNESS_B) > 0.5

    dv = default_kick_offset()
    ka = np.concatenate([pa, voltage_probabilities(WITNESS_A + dv, DEV)])
    kb = np.concatenate([pb, voltage_probabilities(WITNESS_B + dv, DEV)])
    assert np.linalg.norm(ka - kb) > 0.01


# ------------------------------------------------------ counts, frequencies


def test_sample_counts_zero_probability():
    rng = np.random.default_rng(0)
    counts = sample_counts(np.zeros(6), 1000.0, rng)
    assert np.array_equal(counts, np.zeros(6, dtype=counts.dtype))


def test_sample_counts_deterministic():
    p = voltage_probabilities([3.0, 4.0], DEV)
    a = sample_counts(p, 1000.0, np.random.default_rng(123))
    b = sample_counts(p, 1000.0, np.random.default_rng(123))
    assert np.array_equal(a, b)


def test_sample_counts_poisson_mean():
    # 1e5 draws at mean 500 per outcome; the empirical mean must sit
    # within 3 sigma / sqrt(n) of 500 (sigma^2 = 500 for a Poisson)
    rng = np.random.default_rng(99)
    counts = sample_counts(np.full((100_000, 6), 0.5), 1000.0, rng)
    bound = 3.0 * np.sqrt(500.0) / np.sqrt(100_000)
    assert np.abs(counts.mean(axis=0) - 500.0).max() < bound


def test_sample_counts_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(InvalidParameterError):
        sample_counts(np.full(6, 0.5), 0.0, rng)
    with pytest.raises(InvalidParameterError):
        sample_counts(np.full(6, 0.5), np.inf, rng)
    with pytest.raises(InvalidParameterError):
        sample_counts(np.full(6, 1.5), 100.0, rng)


def test_estimate_probabilities_hand_cases():
    np.testing.assert_array_equal(
        estimate_probabilities([100, 0, 0, 0, 0, 100]), [1, 0, 0, 0, 0, 1])
    np.testing.assert_array_equal(
        estimate_probabilities([50, 25, 25, 10, 10, 20]),
        [0.5, 0.25, 0.25, 0.25, 0.25, 0.5])


def test_estimate_probabilities_rows_sum_to_one():
    # per-triple division leaves at most one rounding step per sum
    rng = np.random.default_rng(13)
    counts = rng.poisson(200.0, size=(40, 6)) + 1
    est = estimate_probabilities(counts)
    assert np.abs(est[:, :3].sum(axis=1) - 1.0).max() < 1e-15
    assert np.abs(est[:, 3:].sum(axis=1) - 1.0).max() < 1e-15


def test_estimate_probabilities_zero_total_rejected():
    with pytest.raises(DegenerateDataError):
        estimate_probabilities([0, 0, 0, 10, 10, 10])


def test_estimate_probabilities_negative_rejected():
    with pytest.raises(InvalidParameterError):
        estimate_probabilities([-1, 5, 5, 5, 5, 5])


def test_estimate_converges_to_model_probabilities():
    probs = voltage_probabilities([3.0, 4.0], DEV)
    est = estimate_probabilities(sample_counts(probs, 1e6, np.random.default_rng(5)))
    assert np.abs(est - probs).max() < 1e-2
