"""Device config: defaults, file round-trip, lookup order, rejection."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tricalib.config import (
    CONFIG_DIR_ENV,
    CONFIG_FILE_NAME,
    default_device_config,
    parse_float,
    parse_int,
    read_device_config,
    resolve_device_config,
    write_device_config,
)
from tricalib.device import tritter_unitary
from tricalib.errors import CalibrationError, FileFormatError, InvalidParameterError

from conftest import BYTE_MUTATION, mutate_bytes


def test_default_config_sanity():
    cfg = default_device_config()
    assert cfg.v_min == 0.0 and cfg.v_max == 8.0
    assert cfg.mean_total == 1000.0
    assert cfg.tritter is None
    assert np.array_equal(cfg.resistances, [100.0, 100.0])
    # symmetric response with crosstalk at half the direct coefficient
    a = cfg.alpha
    assert a[0, 1] == a[1, 0] == a[0, 0] / 2.0
    nl = cfg.alpha_nl
    assert nl[0, 0] / a[0, 0] == pytest.approx(0.45)


def test_write_read_round_trip(tmp_path):
    cfg = default_device_config()
    path = tmp_path / "device.cfg"
    write_device_config(cfg, path)
    back = read_device_config(path)
    assert np.array_equal(back.alpha, cfg.alpha)
    assert np.array_equal(back.alpha_nl, cfg.alpha_nl)
    assert np.array_equal(back.resistances, cfg.resistances)
    assert back.v_min == cfg.v_min and back.v_max == cfg.v_max
    assert back.mean_total == cfg.mean_total
    assert back.tritter is None


def test_tritter_override_round_trip(tmp_path):
    # a fabricated tritter: perturb the ideal one and re-unitarize by QR
    rng = np.random.default_rng(4)
    noisy = tritter_unitary() + 0.05 * (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    q, r = np.linalg.qr(noisy)
    q = q * (np.diag(r) / np.abs(np.diag(r)))  # fix the phase convention
    cfg = replace(default_device_config(), tritter=q)
    path = tmp_path / "device.cfg"
    write_device_config(cfg, path)
    back = read_device_config(path)
    assert back.tritter is not None
    np.testing.assert_array_equal(back.tritter, q)


def test_non_unitary_tritter_rejected():
    with pytest.raises(InvalidParameterError):
        replace(default_device_config(), tritter=np.ones((3, 3), dtype=complex))


def _tritter_with(entry, value):
    t = tritter_unitary().copy()
    t[entry] = value
    return t


@pytest.mark.parametrize("tritter", [
    _tritter_with((0, 0), np.nan),
    _tritter_with((2, 1), complex(0.5, np.inf)),
    # finite, but t^H t overflows to inf - inf = nan, which no `>` catches
    np.full((3, 3), 1e200 * (1 + 1j)),
], ids=["nan", "inf-imag", "overflow"])
def test_non_finite_tritter_rejected(tritter):
    with pytest.raises(InvalidParameterError, match="tritter override"):
        replace(default_device_config(), tritter=tritter)


def test_invalid_ranges_rejected():
    dev = default_device_config()
    with pytest.raises(InvalidParameterError):
        replace(dev, v_min=-1.0)
    with pytest.raises(InvalidParameterError):
        replace(dev, v_min=5.0, v_max=5.0)
    with pytest.raises(InvalidParameterError):
        replace(dev, mean_total=0.0)


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


BASE_LINES = [
    "resistances = 100.0, 100.0",
    "alpha = 6.0, 3.0, 3.0, 6.0",
    "alpha_nl = 2.7, 1.35, 1.35, 2.7",
    "v_min = 0.0",
    "v_max = 8.0",
    "mean_total = 1000.0",
]


def test_comments_and_spacing_tolerated(tmp_path):
    path = tmp_path / "c.cfg"
    write_lines(path, ["# a comment", ""] + BASE_LINES + ["  # trailing comment"])
    cfg = read_device_config(path)
    assert cfg.v_max == 8.0


def test_unknown_key_rejected(tmp_path):
    path = tmp_path / "c.cfg"
    write_lines(path, BASE_LINES + ["wavelength = 800"])
    with pytest.raises(FileFormatError):
        read_device_config(path)


def test_duplicate_key_rejected(tmp_path):
    path = tmp_path / "c.cfg"
    write_lines(path, BASE_LINES + ["v_max = 9.0"])
    with pytest.raises(FileFormatError):
        read_device_config(path)


def test_missing_key_rejected(tmp_path):
    path = tmp_path / "c.cfg"
    write_lines(path, BASE_LINES[:-1])
    with pytest.raises(FileFormatError):
        read_device_config(path)


def test_bad_number_reports_line(tmp_path):
    path = tmp_path / "c.cfg"
    write_lines(path, BASE_LINES[:2] + ["alpha_nl = 2.7, oops, 1.35, 2.7"] + BASE_LINES[3:])
    with pytest.raises(FileFormatError, match="line 3"):
        read_device_config(path)


@pytest.mark.parametrize("text, value", [("12", 12), ("-3", -3), ("+4", 4), (" 7 ", 7),
                                         ("007", 7)])
def test_parse_int_reads_ascii_integers(text, value):
    assert parse_int(text) == value and type(parse_int(text)) is int


@pytest.mark.parametrize("text", ["2_00", "\u0661\u0666", "\uff11", "1.0", "1e3", "0x10",
                                  "", "-", "1 2", "١"])
def test_parse_int_refuses_what_int_alone_would_read(text):
    """`int()` reads the first three; no reader of numbers here does."""
    with pytest.raises(ValueError):
        parse_int(text)


@pytest.mark.parametrize("text", ["1_0", "\u0661", "1,2", "", "abc"])
def test_parse_float_refuses_non_numbers_and_lists(text):
    with pytest.raises(ValueError):
        parse_float(text)


def test_parse_float_reads_one_number():
    assert parse_float("1e-3") == 1e-3 and parse_float("-1") == -1.0


def test_wrong_value_count_rejected(tmp_path):
    path = tmp_path / "c.cfg"
    write_lines(path, ["resistances = 100.0"] + BASE_LINES[1:])
    with pytest.raises(FileFormatError):
        read_device_config(path)


def test_resolve_lookup_order(tmp_path, monkeypatch):
    env_dir = tmp_path / "envcfg"
    env_dir.mkdir()
    env_cfg = replace(default_device_config(), v_max=9.0)
    write_device_config(env_cfg, env_dir / CONFIG_FILE_NAME)

    explicit = tmp_path / "explicit.cfg"
    write_device_config(replace(default_device_config(), v_max=10.0),
                        explicit)

    monkeypatch.delenv(CONFIG_DIR_ENV, raising=False)
    assert resolve_device_config().v_max == 8.0  # built-in defaults

    monkeypatch.setenv(CONFIG_DIR_ENV, str(env_dir))
    assert resolve_device_config().v_max == 9.0  # env directory

    assert resolve_device_config(str(explicit)).v_max == 10.0  # explicit wins


def test_resolve_env_dir_without_file_falls_back(tmp_path, monkeypatch):
    monkeypatch.setenv(CONFIG_DIR_ENV, str(tmp_path))
    assert resolve_device_config().v_max == 8.0


@pytest.fixture(scope="module")
def config_fuzz_base(tmp_path_factory):
    """A config file with every key, the tritter included, and a path for
    its mutants."""
    root = tmp_path_factory.mktemp("config_fuzz")
    cfg = replace(default_device_config(), tritter=tritter_unitary())
    write_device_config(cfg, root / "base.cfg")
    return (root / "base.cfg").read_bytes(), root / "mutant.cfg"


@settings(max_examples=300, deadline=None)
@given(mutations=st.lists(BYTE_MUTATION, min_size=1, max_size=3))
# three flips turn the imaginary part of the tritter's first entry, "0.0",
# into "nan", which a unitarity test by `>` alone lets through
@example(mutations=[("flip", 7, 30, ord("0") ^ ord("n")), ("flip", 7, 31, ord(".") ^ ord("a")),
                    ("flip", 7, 32, ord("0") ^ ord("n"))])
def test_device_config_byte_mutation_fuzz(config_fuzz_base, mutations):
    """Flipped, inserted or deleted bytes give a CalibrationError or a
    config whose every number is finite."""
    data, path = config_fuzz_base
    for mutation in mutations:
        data = mutate_bytes(data, *mutation)
    path.write_bytes(data)
    try:
        cfg = read_device_config(path)
    except CalibrationError:
        return
    numbers = [cfg.alpha, cfg.alpha_nl, cfg.resistances,
               cfg.v_min, cfg.v_max, cfg.mean_total]
    if cfg.tritter is not None:
        numbers.append(cfg.tritter)
    assert all(np.isfinite(x).all() for x in numbers)
