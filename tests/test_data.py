"""Grids, kick-augmented dataset generation, splits, normalization and
CSV round-trips."""

import io
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from tricalib import data as datamod
from tricalib.config import default_device_config
from tricalib.data import (
    Dataset,
    KickConfig,
    TargetScaling,
    build_grid,
    exact_features,
    generate_simulated,
    kick_from_steps,
    read_csv,
    split,
    write_csv,
)
from tricalib.device import voltage_probabilities
from tricalib.metrics import fresh_noise
from tricalib.net import TrainConfig, train
from tricalib.errors import (
    CalibrationError,
    DegenerateDataError,
    FileFormatError,
    InvalidParameterError,
)

from conftest import BYTE_MUTATION, mutate_bytes, same_bits

DEV = default_device_config()


def small_dataset(mean_total=1000.0, n=9, seed=0):
    grid = build_grid(2.0, 5.0, n)
    kick = kick_from_steps(grid, 2)
    return generate_simulated(grid, kick, DEV, np.random.default_rng(seed),
                              mean_total=mean_total)


# -------------------------------------------------------------------- grids


def test_build_grid_reference_shape():
    axis = build_grid(0.0, 7.0, 53)
    assert axis.shape == (53,)
    assert axis[1] - axis[0] == pytest.approx(7.0 / 52.0)


def test_build_grid_two_points():
    axis = build_grid(0.0, 1.0, 2)
    np.testing.assert_array_equal(axis, [0.0, 1.0])


def test_generate_simulated_settings_are_the_square_grid_v1_outer():
    axis = build_grid(2.0, 5.0, 3)
    ds = generate_simulated(axis, KickConfig(0.5, 0.5), DEV, np.random.default_rng(0),
                            mean_total=None)
    want = [(v1, v2) for v1 in axis for v2 in axis]
    assert np.array_equal(ds.targets[:, :2], want)


def test_build_grid_validation():
    with pytest.raises(InvalidParameterError):
        build_grid(0.0, 1.0, 1)
    with pytest.raises(InvalidParameterError):
        build_grid(2.0, 2.0, 5)
    with pytest.raises(InvalidParameterError):
        build_grid(3.0, 1.0, 5)
    # a range two ulps wide: linspace repeats values, which no grid may
    with pytest.raises(InvalidParameterError, match="finite and strictly increasing"):
        build_grid(1.0, 1.0000000000000004, 5)
    # a range too wide for float64: the step overflows
    with pytest.raises(InvalidParameterError, match="finite and strictly increasing"):
        build_grid(-1e308, 1e308, 5)


def test_kick_from_steps():
    grid = build_grid(1.0, 7.0, 53)
    kick = kick_from_steps(grid, 5)
    step = 6.0 / 52.0
    assert kick.dv1 == pytest.approx(5 * step)
    assert kick.dv2 == pytest.approx(5 * step)


def test_zero_step_kick_rejected():
    grid = build_grid(1.0, 7.0, 10)
    with pytest.raises(InvalidParameterError):
        kick_from_steps(grid, 0)
    with pytest.raises(InvalidParameterError):
        KickConfig(dv1=0.0, dv2=0.5)


# ---------------------------------------------------------------- generation


def test_generate_full_grid_shape():
    grid = build_grid(1.0, 7.0, 53)
    kick = kick_from_steps(grid, 5)
    ds = generate_simulated(grid, kick, DEV, np.random.default_rng(0), mean_total=None)
    assert ds.features.shape == (2809, 12)
    assert ds.targets.shape == (2809, 4)
    assert ds.provenance == "simulated"


def test_generate_deterministic():
    a = small_dataset(seed=21)
    b = small_dataset(seed=21)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.targets, b.targets)


def test_generate_kick_targets_consistent():
    ds = small_dataset(mean_total=None)
    d1 = ds.targets[:, 2] - ds.targets[:, 0]
    d2 = ds.targets[:, 3] - ds.targets[:, 1]
    # targets are built by adding the offset in floating point, so the
    # recovered differences sit within one rounding step of the offset
    assert np.abs(d1 - ds.kick.dv1).max() < 1e-12
    assert np.abs(d2 - ds.kick.dv2).max() < 1e-12


def test_generate_rejects_out_of_range_kick():
    grid = build_grid(1.0, 7.0, 10)
    kick = KickConfig(dv1=1.5, dv2=1.5)  # 7 + 1.5 > 8
    with pytest.raises(InvalidParameterError):
        generate_simulated(grid, kick, DEV, np.random.default_rng(0), mean_total=None)


def test_generate_replicas():
    grid = build_grid(2.0, 5.0, 4)
    kick = kick_from_steps(grid, 1)
    ds = generate_simulated(grid, kick, DEV, np.random.default_rng(3),
                            mean_total=500.0, replicas=3)
    assert len(ds) == 48
    # replica blocks repeat the same targets but re-draw the noise
    assert np.array_equal(ds.targets[:16], ds.targets[16:32])
    assert not np.array_equal(ds.features[:16], ds.features[16:32])


def test_generate_noise_vanishes_at_large_counts():
    exact = small_dataset(mean_total=None, n=7, seed=1)
    noisy = small_dataset(mean_total=1e7, n=7, seed=1)
    assert np.abs(noisy.features - exact.features).max() < 1e-3


def test_generate_features_are_probabilities():
    ds = small_dataset(mean_total=200.0)
    assert ds.features.min() >= 0.0 and ds.features.max() <= 1.0
    assert np.abs(ds.features[:, 0:3].sum(axis=1) - 1.0).max() < 1e-12
    assert np.abs(ds.features[:, 3:6].sum(axis=1) - 1.0).max() < 1e-12
    assert np.abs(ds.features[:, 6:9].sum(axis=1) - 1.0).max() < 1e-12
    assert np.abs(ds.features[:, 9:12].sum(axis=1) - 1.0).max() < 1e-12


# -------------------------------------------------------------------- splits


def test_split_partition():
    ds = small_dataset(mean_total=None)
    tr, va = split(ds, 0.15, np.random.default_rng(0))
    assert len(tr) + len(va) == len(ds)
    merged = np.vstack([tr.targets, va.targets])
    assert np.array_equal(np.sort(merged, axis=0), np.sort(ds.targets, axis=0))


def test_split_reference_sizes():
    grid = build_grid(1.0, 7.0, 53)
    kick = kick_from_steps(grid, 5)
    ds = generate_simulated(grid, kick, DEV, np.random.default_rng(0), mean_total=None)
    tr, va = split(ds, 0.15, np.random.default_rng(1))
    assert len(va) == 421  # round(0.15 * 2809)
    assert len(tr) == 2388


def test_split_two_examples_half():
    ds = small_dataset(mean_total=None).subset(np.array([0, 1]))
    tr, va = split(ds, 0.5, np.random.default_rng(0))
    assert len(tr) == 1 and len(va) == 1


def test_split_seed_behavior():
    ds = small_dataset(mean_total=None)
    a1, _ = split(ds, 0.2, np.random.default_rng(5))
    a2, _ = split(ds, 0.2, np.random.default_rng(5))
    assert np.array_equal(a1.targets, a2.targets)
    # ten different seeds give ten different partitions
    fronts = [split(ds, 0.2, np.random.default_rng(s))[0].targets[:5] for s in range(10)]
    for i in range(10):
        for j in range(i + 1, 10):
            assert not np.array_equal(fronts[i], fronts[j])


def test_split_fraction_validation():
    ds = small_dataset(mean_total=None)
    for bad in (0.0, 1.0, -0.2, 1.3):
        with pytest.raises(InvalidParameterError):
            split(ds, bad, np.random.default_rng(0))


def test_split_one_row_per_setting_is_a_row_permutation():
    """With one row per setting, the split is the row permutation it
    always was: validation first, in permutation order."""
    ds = small_dataset()
    tr, va = split(ds, 0.2, np.random.default_rng(7))
    perm = np.random.default_rng(7).permutation(len(ds))
    n_val = round(0.2 * len(ds))
    assert same_bits(va.features, ds.features[perm[:n_val]])
    assert same_bits(tr.features, ds.features[perm[n_val:]])
    assert same_bits(tr.targets, ds.targets[perm[n_val:]])


def test_split_keeps_replicas_of_a_setting_together():
    grid = build_grid(2.0, 5.0, 9)
    ds = generate_simulated(grid, kick_from_steps(grid, 2), DEV, np.random.default_rng(0),
                            mean_total=1000.0, replicas=3)
    tr, va = split(ds, 0.15, np.random.default_rng(20))
    assert len(tr) + len(va) == len(ds) and len(va) == 3 * round(0.15 * 81)
    seen = {row.tobytes() for row in tr.targets}
    assert not any(row.tobytes() in seen for row in va.targets)
    # each side holds all three replicas of its settings, in file order
    for part in (tr, va):
        _, counts = np.unique(part.targets, axis=0, return_counts=True)
        assert set(counts) == {3}
    first = np.flatnonzero((ds.targets == va.targets[0]).all(axis=1))
    assert same_bits(va.features[:3], ds.features[first])


@pytest.mark.parametrize("rows", [1, 3])
def test_split_refuses_one_setting(rows):
    ds = small_dataset().subset(np.zeros(rows, dtype=int))
    with pytest.raises(DegenerateDataError, match="1 distinct settings, at least 2"):
        split(ds, 0.2, np.random.default_rng(0))


# ------------------------------------------------------------- normalization


def test_normalize_endpoints_and_inverse():
    ds = small_dataset(mean_total=None)
    scaling = TargetScaling.fit(ds.targets)
    scaled = scaling.transform(ds.targets)
    assert scaled.min(axis=0) == pytest.approx(np.zeros(4), abs=0)
    assert scaled.max(axis=0) == pytest.approx(np.ones(4), abs=0)
    back = scaling.invert(scaled)
    assert np.abs(back - ds.targets).max() < 1e-12


def test_normalization_fitted_on_train_only():
    """`train` fits its scaling on the train split, not on validation."""
    ds = small_dataset(mean_total=None)
    tr = ds.subset(np.arange(0, len(ds) // 2))
    va = ds.subset(np.arange(len(ds) // 2, len(ds)))
    _, scaling, _ = train(tr, va, TrainConfig(max_epochs=1, patience=1, hidden=(4,)))
    lo, hi = tr.targets.min(axis=0), tr.targets.max(axis=0)
    assert np.array_equal(scaling.lo, lo) and np.array_equal(scaling.hi, hi)
    # the validation split may land outside [0, 1] and that is fine
    va_scaled = scaling.transform(va.targets)
    assert va_scaled.max() > 1.0 - 1e-12


def test_normalize_constant_dimension_rejected():
    feats = np.random.default_rng(0).uniform(0, 1, size=(5, 12))
    targets = np.ones((5, 4))
    ds = Dataset(features=feats, targets=targets, kick=KickConfig(0.5, 0.5),
                 provenance="simulated")
    with pytest.raises(DegenerateDataError):
        TargetScaling.fit(ds.targets)
    with pytest.raises(DegenerateDataError):
        train(ds.subset([0, 1, 2]), ds.subset([3, 4]),
              TrainConfig(max_epochs=1, patience=1, hidden=(4,)))


def test_pooled_span():
    scaling = TargetScaling(lo=np.array([1.0, 1.0, 1.5, 1.5]),
                            hi=np.array([7.0, 7.0, 7.5, 7.5]))
    assert scaling.pooled_span() == 6.5


# ------------------------------------------------------------------ CSV I/O


def test_dataset_round_trip_bit_exact(tmp_path):
    ds = small_dataset(mean_total=750.0, seed=9)
    path = tmp_path / "d.csv"
    write_csv(ds, path)
    back = read_csv(path)
    assert np.array_equal(back.features, ds.features)
    assert np.array_equal(back.targets, ds.targets)
    assert back.kick == ds.kick
    assert back.mean_total == ds.mean_total
    assert back.provenance == ds.provenance
    # and writing again produces identical bytes
    path2 = tmp_path / "d2.csv"
    write_csv(back, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_noise_free_metadata_round_trip(tmp_path):
    ds = small_dataset(mean_total=None)
    path = tmp_path / "d.csv"
    write_csv(ds, path)
    assert read_csv(path).mean_total is None


def corrupt(tmp_path, mutate):
    ds = small_dataset(mean_total=None, n=3)
    path = tmp_path / "d.csv"
    write_csv(ds, path)
    lines = path.read_text().splitlines()
    mutate(lines)
    path.write_text("\n".join(lines) + "\n")
    return path


def test_header_mismatch_rejected(tmp_path):
    path = corrupt(tmp_path, lambda ls: ls.__setitem__(4, ls[4].replace("v1,", "volt1,")))
    with pytest.raises(FileFormatError, match="header"):
        read_csv(path)


def test_wrong_column_count_reports_line(tmp_path):
    path = corrupt(tmp_path, lambda ls: ls.__setitem__(6, ls[6] + ",0.5"))
    with pytest.raises(FileFormatError, match="line 7: expected 16 columns, got 17"):
        read_csv(path)


def test_probability_out_of_range_rejected(tmp_path):
    """A value above 1, and a first triple of values in [0, 1] that sums
    to 1.9, which no acquisition gives either."""
    for triple in (["1.5"], ["0.9", "0.5", "0.5"]):
        def bump(ls):
            parts = ls[5].split(",")
            parts[4:4 + len(triple)] = triple
            ls[5] = ",".join(parts)
        path = corrupt(tmp_path, bump)
        with pytest.raises(FileFormatError, match=r"line 6: .*probability.* sum to 1 within 0\.02"):
            read_csv(path)


@pytest.mark.parametrize("features,bad", [
    ([0.44, 0.35, 0.20] * 4, False),  # sums to 0.99: a vector typed to two decimals
    ([0.5, 0.25, 0.25] * 3 + [0.5, 0.5, 0.03], True),  # one triple sums to 1.03
    ([1.0, 0.0, 0.0] * 4, False),
    ([0.0] * 12, True),
    ([1.0] * 12, True),
    ([1.01, -0.01, 0.0] * 4, True),  # sums to 1, but outside [0, 1]
    ([np.nan, 0.5, 0.5] + [0.5, 0.25, 0.25] * 3, True),
])
def test_feature_rule_hand_cases(features, bad):
    assert datamod.bad_feature_rows([features]).tolist() == ([0] if bad else [])


@settings(max_examples=40, deadline=None)
@given(volts=st.lists(st.tuples(st.floats(0.0, 7.0), st.floats(0.0, 7.0)), min_size=1,
                      max_size=20),
       mean_total=st.floats(1e-3, 1e9), seed=st.integers(0, 2**32 - 1))
def test_acquisitions_obey_the_feature_rule(volts, mean_total, seed):
    """`fresh_noise` and `generate_simulated` make only features the rule
    passes, at any photon budget that draws photons."""
    targets = np.hstack([np.array(volts), np.array(volts) + 0.5])
    rng = np.random.default_rng(seed)
    try:
        noisy = fresh_noise(exact_features(targets, DEV), mean_total, rng)
        grid = build_grid(2.0, 5.0, 3)
        ds = generate_simulated(grid, kick_from_steps(grid, 1), DEV, rng, mean_total, replicas=2)
    except DegenerateDataError:  # some acquisition drew no photon
        assume(False)
    assert datamod.bad_feature_rows(noisy).size == 0
    assert datamod.bad_feature_rows(ds.features).size == 0


def test_non_numeric_field_rejected(tmp_path):
    def mangle(ls):
        parts = ls[5].split(",")
        parts[7] = "abc"
        ls[5] = ",".join(parts)
    path = corrupt(tmp_path, mangle)
    with pytest.raises(FileFormatError, match="line 6: non-numeric field in '.*,abc,"):
        read_csv(path)


@pytest.mark.parametrize("cols,text", [((4,), "nan"), ((5,), "-inf"),
                                        ((0, 2), "inf"), ((1, 3), "nan")])
def test_non_finite_field_rejected_with_line(tmp_path, cols, text):
    # (0, 2) sets v1 and v1' both to inf: their difference is NaN, which
    # no range or kick check can catch after parsing
    def poison(ls):
        parts = ls[7].split(",")
        for c in cols:
            parts[c] = text
        ls[7] = ",".join(parts)
    path = corrupt(tmp_path, poison)
    with pytest.raises(FileFormatError, match="line 8: non-finite"):
        read_csv(path)


@pytest.mark.parametrize("value", ["abc", "nan", "inf", "0", "-5", "1_000", "١٠٠٠"])
def test_bad_mean_total_metadata_rejected(tmp_path, value):
    path = corrupt(tmp_path, lambda ls: ls.__setitem__(3, f"# mean_total = {value}"))
    with pytest.raises(FileFormatError, match=f"mean_total metadata '{value}'"):
        read_csv(path)


def test_inconsistent_kick_rejected(tmp_path):
    def shift(ls):
        parts = ls[6].split(",")
        parts[2] = repr(float(parts[2]) + 0.05)
        ls[6] = ",".join(parts)
    path = corrupt(tmp_path, shift)
    with pytest.raises(FileFormatError, match="kick"):
        read_csv(path)


def test_empty_file_rejected(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("")
    with pytest.raises(FileFormatError):
        read_csv(path)


def test_header_only_rejected(tmp_path):
    path = corrupt(tmp_path, lambda ls: ls.__delitem__(slice(5, None)))
    with pytest.raises(FileFormatError, match="no data rows"):
        read_csv(path)


@pytest.mark.parametrize("bad", [[0], [3], [8], [2, 7], [5, 6, 8]])
def test_non_numeric_field_reports_first_bad_line(tmp_path, bad):
    """Every data line is parsed in one call; the error still names the
    first bad line, wherever it is among the others."""
    def mangle(ls):
        ls.insert(6, "# a comment between rows")
        ls.insert(9, "")
        for row in bad:
            at = 5 + row + (row >= 1) + (row >= 3)  # skip the inserted lines
            ls[at] = ls[at].replace(",", ",x", 1)
    path = corrupt(tmp_path, mangle)
    first = 6 + bad[0] + (bad[0] >= 1) + (bad[0] >= 3)
    with pytest.raises(FileFormatError, match=f"line {first}: non-numeric field"):
        read_csv(path)


def test_non_numeric_rescan_always_raises(tmp_path, monkeypatch):
    """A streamed parse that fails while every line of the second reading
    parses alone (the file changed between the readings) is still a
    FileFormatError, never rows that were not parsed."""
    path = corrupt(tmp_path, lambda ls: None)
    calls = []
    real = datamod.parse_float_rows

    def fail_first_call(lines):
        calls.append(lines)
        if len(calls) == 1:
            raise ValueError("could not convert string to float: 'x'")
        return real(lines)

    monkeypatch.setattr(datamod, "parse_float_rows", fail_first_call)
    with pytest.raises(FileFormatError, match="changed while it was read"):
        read_csv(path)
    assert len(calls) == 1 + 3 * 3  # the streamed parse, then each of the 9 rows alone


@pytest.mark.parametrize("field", ["1_0", "\u0661", "\uff11", "0x1p0", ""])
def test_python_only_float_spellings_rejected(tmp_path, field):
    """Digit-group underscores and non-ASCII digits, which Python's float()
    would take, are not numbers in a CSV file."""
    path = corrupt(tmp_path, lambda ls: ls.__setitem__(6, field + ls[6][3:]))
    with pytest.raises(FileFormatError, match="line 7: non-numeric field"):
        read_csv(path)


@pytest.mark.parametrize("edit,message", [
    (lambda ls: ls.__delitem__(1), "missing metadata 'dv1' in "),
    (lambda ls: ls.__setitem__(11, ls[11] + ",0.5"), "line 12: expected 16 columns, got 17"),
    (lambda ls: ls.insert(11, ls[2]), "line 12: duplicate metadata key 'dv2'"),
], ids=["missing-key", "later-column-count", "later-duplicate-key"])
def test_scan_errors_outrank_a_non_numeric_field(tmp_path, edit, message):
    """The file is refused as if it were checked whole before any number
    is parsed: a bad number on line 7 does not hide a missing metadata
    key or a structural fault on a later line."""
    def mangle(ls):
        ls[6] = ls[6].replace(",", ",x", 1)
        edit(ls)
    path = corrupt(tmp_path, mangle)
    with pytest.raises(FileFormatError, match=message):
        read_csv(path)


def test_whitespace_around_fields_accepted(tmp_path):
    plain = read_csv(corrupt(tmp_path, lambda ls: None))
    padded = read_csv(corrupt(tmp_path, lambda ls: ls.__setitem__(
        5, ",".join(f" {field}\t" for field in ls[5].split(",")))))
    assert np.array_equal(padded.targets, plain.targets)
    assert np.array_equal(padded.features, plain.features)


def test_missing_metadata_names_every_missing_key(tmp_path):
    """Without its metadata a file is refused, not read with the kick of
    its first row, provenance `simulated` and no budget."""
    path = corrupt(tmp_path, lambda ls: ls.__delitem__(slice(0, 4)))
    with pytest.raises(FileFormatError,
                       match="missing metadata 'provenance', 'dv1', 'dv2', 'mean_total' in "):
        read_csv(path)


@pytest.mark.parametrize("key", datamod.METADATA_KEYS)
def test_duplicate_metadata_key_reports_line(tmp_path, key):
    """A repeated metadata key is refused at the line of the repeat, even
    with the same value, so a second line cannot relabel the file."""
    def repeat(ls):
        ls.insert(6, next(line for line in ls if line.startswith(f"# {key} = ")))
    path = corrupt(tmp_path, repeat)
    with pytest.raises(FileFormatError, match=f"line 7: duplicate metadata key '{key}'"):
        read_csv(path)


def test_other_comment_keys_are_plain_comments(tmp_path):
    """Only the four metadata keys are metadata: other `# key = value`
    comments may repeat and change nothing."""
    def annotate(ls):
        ls[4:4] = ["# operator = A", "# operator = B", "# provenance", "#dv = 3"]
    plain = read_csv(corrupt(tmp_path, lambda ls: None))
    noted = read_csv(corrupt(tmp_path, annotate))
    assert (noted.kick, noted.provenance, noted.mean_total) == \
        (plain.kick, plain.provenance, plain.mean_total)
    assert same_bits(noted.features, plain.features)


def test_non_utf8_dataset_csv_is_a_file_format_error(tmp_path):
    """The reader's error for a non-UTF-8 file maps to exit 5."""
    path = corrupt(tmp_path, lambda ls: None)
    path.write_bytes(path.read_bytes().replace(b"\n", b"\n\xff", 1))
    with pytest.raises(FileFormatError, match="is not UTF-8 text") as exc:
        read_csv(path)
    assert exc.value.exit_code == 5


@pytest.mark.parametrize("provenance", ["run 1\nrun 2", "run 1\r", "\r\n"])
def test_multiline_provenance_refused(tmp_path, provenance):
    """A line break in the provenance would split its metadata line."""
    ds = replace(small_dataset(mean_total=None, n=3), provenance=provenance)
    path = tmp_path / "d.csv"
    with pytest.raises(InvalidParameterError, match="provenance must be one line"):
        write_csv(ds, path)
    assert not path.exists()


@pytest.mark.parametrize("provenance", [" padded ", " lead", "trail\t"])
def test_padded_provenance_refused(tmp_path, provenance):
    """The reader strips metadata values, so padding would not round-trip."""
    ds = replace(small_dataset(mean_total=None, n=3), provenance=provenance)
    path = tmp_path / "d.csv"
    with pytest.raises(InvalidParameterError, match="whitespace"):
        write_csv(ds, path)
    assert not path.exists()


@pytest.mark.parametrize("features, targets", [((5, 6), (5, 2)), ((5, 12), (4, 4)),
                                               ((5, 12), (5, 5)), ((12,), (4,))],
                         ids=["6-and-2-columns", "row-counts-differ", "5-targets", "one-row-1d"])
def test_write_csv_refuses_arrays_off_the_schema(tmp_path, features, targets):
    """Only (N, 12) features beside (N, 4) targets fill the 16 columns the
    reader requires; anything else is refused before the file opens."""
    ds = replace(small_dataset(n=3), features=np.full(features, 0.25),
                 targets=np.full(targets, 3.0))
    path = tmp_path / "d.csv"
    with pytest.raises(InvalidParameterError, match="4 targets and 12 features") as exc:
        write_csv(ds, path)
    assert exc.value.exit_code == 3
    assert not path.exists()


def test_exact_features_are_the_model_at_both_settings():
    targets = np.array([[1.0, 2.0, 1.5, 2.5], [3.0, 0.5, 3.5, 1.0]])
    got = exact_features(targets, DEV)
    assert np.array_equal(got[:, :6], voltage_probabilities(targets[:, :2], DEV))
    assert np.array_equal(got[:, 6:], voltage_probabilities(targets[:, 2:], DEV))


def test_replicas_are_consecutive_fresh_noise_draws():
    """Each replica is one `fresh_noise` draw of the exact features, in
    order from one generator: this pins the dataset's draw order."""
    grid = build_grid(2.0, 5.0, 6)
    kick = kick_from_steps(grid, 1)
    ds = generate_simulated(grid, kick, DEV, np.random.default_rng(8),
                            mean_total=700.0, replicas=3)
    exact = exact_features(ds.targets[:36], DEV)
    rng = np.random.default_rng(8)
    want = np.concatenate([fresh_noise(exact, 700.0, rng) for _ in range(3)])
    assert np.array_equal(ds.features.view(np.uint64), want.view(np.uint64))
    assert np.array_equal(ds.targets, np.tile(ds.targets[:36], (3, 1)))


# ---------------------------------------------------------------- memory


def traced_peak(fn, *args):
    """(fn(*args), the peak bytes it allocated); numpy reports its buffers
    to tracemalloc."""
    tracemalloc.start()
    try:
        return fn(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def replicated(replicas):
    """A shot-noise dataset of 1 024 settings times `replicas`."""
    grid = build_grid(2.0, 5.0, 32)
    return generate_simulated(grid, kick_from_steps(grid, 2), DEV,
                              np.random.default_rng(5), mean_total=1000.0, replicas=replicas)


@pytest.fixture(scope="module")
def replicated_csv(tmp_path_factory):
    """A written 20 480-row dataset and its arrays' bytes."""
    ds = replicated(20)
    path = tmp_path_factory.mktemp("replicated") / "r.csv"
    write_csv(ds, path)
    return path, ds.features.nbytes + ds.targets.nbytes


def test_generate_simulated_holds_one_copy_of_its_replicas():
    ds, peak = traced_peak(replicated, 20)
    assert peak < 1.2 * (ds.features.nbytes + ds.targets.nbytes)


def test_read_csv_streams_its_lines(replicated_csv):
    path, nbytes = replicated_csv
    ds, peak = traced_peak(read_csv, path)
    assert ds.features.nbytes + ds.targets.nbytes == nbytes
    assert peak < 2 * nbytes


def test_write_csv_formats_a_slice_of_rows_at_a_time(replicated_csv, tmp_path):
    path, nbytes = replicated_csv
    ds = read_csv(path)
    _, peak = traced_peak(write_csv, ds, tmp_path / "again.csv")
    assert peak < nbytes
    assert (tmp_path / "again.csv").read_bytes() == path.read_bytes()


def test_zero_count_acquisitions_name_the_budget():
    with pytest.raises(DegenerateDataError,
                       match=r"^30 of 324 acquisitions drew zero photons at a budget "
                             r"of 2 photons per input; cannot normalize$"):
        small_dataset(mean_total=2.0, n=9)


# ------------------------------------------------------- CSV bit-exactness


def reference_rows(rows):
    """The writer's output as it was when every cell was formatted on its own."""
    return "".join(",".join(repr(float(x)) for x in row) + "\n" for row in rows)


_TINY = np.finfo(float).tiny
_MAX = np.finfo(float).max
FINITE = (st.floats(allow_nan=False, allow_infinity=False)
          | st.sampled_from([0.0, -0.0, 5e-324, -5e-324, _TINY / 3, -_TINY, _MAX, -_MAX]))
PROBABILITY = (st.floats(min_value=0.0, max_value=1.0)
               | st.sampled_from([0.0, -0.0, 5e-324, _TINY / 3, _TINY, 1.0]))


def cells(data, shape, elements):
    """An array of `shape` drawn from `elements`: either a few values
    repeated all over, or every cell a distinct bit pattern."""
    n = shape[0] * shape[1]
    if data.draw(st.booleans(), label="repeated"):
        pool = data.draw(st.lists(elements, min_size=1, max_size=3))
        values = data.draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    else:
        values = data.draw(st.lists(elements, min_size=n, max_size=n,
                                    unique_by=lambda x: np.float64(x).tobytes()))
    return np.array(values, dtype=float).reshape(shape)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(1, 9), block=st.integers(1, 4))
def test_write_rows_matches_per_cell_repr(data, n, block):
    """Same bytes as formatting every cell on its own, across row blocks."""
    rows = cells(data, (n, data.draw(st.integers(1, 5))),
                 FINITE | st.sampled_from([np.nan, np.inf, -np.inf]))
    cut = data.draw(st.integers(0, rows.shape[1]), label="cut")
    whole, halves = io.StringIO(), io.StringIO()
    with mock.patch.object(datamod, "_WRITE_BLOCK_ROWS", block):
        datamod._write_rows(whole, rows)
        datamod._write_rows(halves, rows[:, :cut], rows[:, cut:])
    assert whole.getvalue() == reference_rows(rows)
    assert halves.getvalue() == whole.getvalue()


def test_write_rows_keeps_signed_zeros_apart():
    rows = np.array([[0.0, -0.0], [-0.0, 0.0]])
    for cut in range(3):
        whole, halves = io.StringIO(), io.StringIO()
        datamod._write_rows(whole, rows)
        datamod._write_rows(halves, rows[:, :cut], rows[:, cut:])
        assert whole.getvalue() == halves.getvalue() == "0.0,-0.0\n-0.0,0.0\n"


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(1, 8),
       dv=st.tuples(*[st.floats(min_value=5e-324, max_value=1e-12)] * 2),
       mean_total=st.none() | st.floats(min_value=5e-324, max_value=_MAX))
def test_dataset_csv_round_trip_property(tmp_path_factory, data, n, dv, mean_total):
    """write -> read is the identity on every bit; writing again gives the
    same bytes.  Kick offsets below 1e-9 V let the targets take any finite
    value and still pass the kick-consistency check.  The drawn features
    are scaled triple by triple to sum to 1, as an acquisition's do, an
    all-zero triple becoming (1, 0, 0)."""
    base = cells(data, (n, 2), FINITE)
    triples = cells(data, (n, 12), PROBABILITY).reshape(n, 4, 3)
    total = triples.sum(axis=2, keepdims=True)
    triples = np.where(total > 0.0, triples / np.where(total > 0.0, total, 1.0), [1.0, 0.0, 0.0])
    ds = Dataset(features=triples.reshape(n, 12),
                 targets=np.hstack([base, base + np.array(dv)]),
                 kick=KickConfig(*dv), provenance="property", mean_total=mean_total)
    root = tmp_path_factory.mktemp("csv")
    write_csv(ds, root / "a.csv")
    back = read_csv(root / "a.csv")
    assert same_bits(back.features, ds.features) and same_bits(back.targets, ds.targets)
    assert (back.kick, back.provenance, back.mean_total) == (ds.kick, "property", mean_total)
    write_csv(back, root / "b.csv")
    assert (root / "a.csv").read_bytes() == (root / "b.csv").read_bytes()


@pytest.fixture(scope="module")
def csv_fuzz_base(tmp_path_factory):
    """A small dataset file's bytes, and a path for its mutants."""
    root = tmp_path_factory.mktemp("csv_fuzz")
    write_csv(small_dataset(n=3), root / "d.csv")
    return (root / "d.csv").read_bytes(), root / "mutant.csv"


@settings(max_examples=300, deadline=None)
@given(mutations=st.lists(BYTE_MUTATION, min_size=1, max_size=3))
# '.' -> '_' in the v1 of the second data row makes '2_0', which float() reads as 20
@example(mutations=[("flip", 6, 1, ord(".") ^ ord("_"))])
def test_csv_byte_mutation_fuzz(csv_fuzz_base, mutations):
    """Flipped, inserted or deleted bytes give a CalibrationError or arrays
    of the schema's shape that are all finite, probabilities in [0, 1]."""
    data, path = csv_fuzz_base
    for mutation in mutations:
        data = mutate_bytes(data, *mutation)
    path.write_bytes(data)
    try:
        ds = read_csv(path)
    except CalibrationError:
        return
    volts, probs = ds.targets, ds.features
    assert ds.kick.dv1 > 0 and ds.kick.dv2 > 0
    assert volts.shape == (len(probs), 4) and probs.shape[1:] == (12,)
    assert np.isfinite(volts).all() and np.isfinite(probs).all()
    assert ((probs >= 0.0) & (probs <= 1.0)).all()
