"""Command line front end at toy scale: every subcommand, the output
conventions, and the exit-code contract."""

import argparse
import hashlib
import importlib
import multiprocessing
import os
import re
import shutil
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from tricalib import cli, errors, metrics, net
from tricalib.config import default_device_config, write_device_config
from tricalib.data import (
    DATASET_HEADER,
    METADATA_KEYS,
    KickConfig,
    TargetScaling,
    build_grid,
    exact_features,
    generate_simulated,
    kick_from_steps,
    read_csv,
    write_csv,
)
from tricalib.device import (
    output_probabilities,
    phases_from_voltages,
    tritter_unitary,
    voltage_probabilities,
)
from tricalib.experiments import SweepConfig, exact_feature_pool, train_on_dataset
from tricalib.metrics import noisy_draw
from tricalib.net import TrainConfig, forward, load_checkpoint, predict, save_checkpoint

from conftest import read_report, run_cli, same_bits

FAST = ["--epochs", "6", "--patience", "6", "--hidden", "24,24"]
REPO = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def toy(tmp_path_factory):
    """One small dataset and one trained model shared by this module."""
    root = tmp_path_factory.mktemp("cli_toy")
    ds = root / "ds.csv"
    model = root / "model.ckpt"
    rpt = root / "rpt"
    assert run_cli(["gen-dataset", "--grid", "10", "--grid-min", "2",
                    "--grid-max", "5", "--kick-steps", "1", "-o", str(ds)]) == 0
    assert run_cli(["train", "-i", str(ds), "-o", str(model),
                    "--report-dir", str(rpt), *FAST]) == 0
    return {"root": root, "ds": ds, "model": model, "rpt": rpt}


# ----------------------------------------------------------------- simulate


def test_simulate_point_stdout(capsys):
    assert run_cli(["simulate", "--volts", "3,4"]) == 0
    out = capsys.readouterr().out
    lines = dict(line.split(" = ") for line in out.strip().splitlines())
    probs = np.array([float(p) for p in lines["probabilities"].split()])
    assert probs.shape == (6,)
    assert probs[:3].sum() == pytest.approx(1.0, abs=1e-12)
    assert probs[3:].sum() == pytest.approx(1.0, abs=1e-12)
    assert len(lines["phases"].split()) == 2


def test_simulate_point_with_counts(capsys):
    assert run_cli(["simulate", "--volts", "3,4", "--counts", "2000",
                    "--seed", "5"]) == 0
    out = capsys.readouterr().out
    counts_line = [l for l in out.splitlines() if l.startswith("counts = ")][0]
    counts = [int(c) for c in counts_line.split(" = ")[1].split()]
    assert len(counts) == 6 and all(c >= 0 for c in counts)


def test_simulate_negative_counts_inherit_device_budget(capsys):
    """--counts -1 means "device config" in simulate as in every subcommand."""
    def outputs(counts):
        assert run_cli(["simulate", "--volts", "3,4", "--counts", counts]) == 0
        return capsys.readouterr().out

    inherited = outputs("-1")
    assert "counts = " in inherited
    assert inherited == outputs(str(default_device_config().mean_total))


def test_simulate_needs_volts(capsys):
    """--volts is required, so a bare `simulate` is a usage error."""
    with pytest.raises(SystemExit) as exc:
        run_cli(["simulate"])
    assert exc.value.code == 2
    assert "the following arguments are required: --volts" in capsys.readouterr().err


def test_simulate_rejects_out_of_range_volts():
    assert run_cli(["simulate", "--volts", "9,9"]) == 3
    assert run_cli(["simulate", "--volts", "3"]) == 3


# -------------------------------------------------------------- gen-dataset


def test_gen_dataset_counts_metadata(tmp_path):
    noisy, clean, custom = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
    assert run_cli(["gen-dataset", "--grid", "5", "--grid-min", "2",
                    "--grid-max", "4", "-o", str(noisy)]) == 0
    assert run_cli(["gen-dataset", "--grid", "5", "--grid-min", "2",
                    "--grid-max", "4", "--counts", "0", "-o", str(clean)]) == 0
    assert run_cli(["gen-dataset", "--grid", "5", "--grid-min", "2",
                    "--grid-max", "4", "--counts", "500", "-o", str(custom)]) == 0
    assert read_csv(noisy).mean_total == 1000.0  # device config budget
    assert read_csv(clean).mean_total is None
    assert read_csv(custom).mean_total == 500.0
    assert "# mean_total = none" in clean.read_text().splitlines()[3]


def test_gen_dataset_replicas(tmp_path):
    single, double = tmp_path / "r1.csv", tmp_path / "r2.csv"
    base = ["gen-dataset", "--grid", "4", "--grid-min", "2", "--grid-max", "4"]
    assert run_cli([*base, "-o", str(single)]) == 0
    assert run_cli([*base, "--replicas", "2", "-o", str(double)]) == 0
    assert len(read_csv(double)) == 2 * len(read_csv(single)) == 32


def test_gen_dataset_seed_controls_bytes(tmp_path):
    paths = [tmp_path / f"{i}.csv" for i in range(3)]
    base = ["gen-dataset", "--grid", "4", "--grid-min", "2", "--grid-max", "4"]
    assert run_cli([*base, "--seed", "7", "-o", str(paths[0])]) == 0
    assert run_cli([*base, "--seed", "7", "-o", str(paths[1])]) == 0
    assert run_cli([*base, "--seed", "8", "-o", str(paths[2])]) == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert paths[0].read_bytes() != paths[2].read_bytes()


def test_gen_dataset_kick_beyond_device_range(tmp_path):
    # one grid step is 1 V here, so two kick steps push past 8 V
    assert run_cli(["gen-dataset", "--grid", "7", "--grid-min", "1.0",
                    "--grid-max", "7.0", "--kick-steps", "2",
                    "-o", str(tmp_path / "x.csv")]) == 3


def test_gen_dataset_grid_of_repeated_values(tmp_path, capsys):
    """A range two ulps wide gives five equal grid values: exit 3, no file."""
    out = tmp_path / "x.csv"
    assert run_cli(["gen-dataset", "--grid-min", "1", "--grid-max", "1.0000000000000004",
                    "--grid", "5", "-o", str(out)]) == 3
    assert "strictly increasing" in capsys.readouterr().err
    assert not out.exists()


# -------------------------------------------------------- train and predict


def test_train_artifacts(toy):
    assert toy["model"].exists()
    rep = read_report(toy["rpt"] / "report.txt")
    assert rep["command"] == "train"
    assert rep["examples"] == 100
    assert rep["validation_examples"] == 15
    assert 0 <= rep["best_epoch"] < rep["epochs_run"] <= 6
    assert rep["val_nrmse"] > 0.0
    curves = (toy["rpt"] / "curves.csv").read_text().splitlines()
    assert len(curves) == rep["epochs_run"] + 1


def test_train_provenance_is_input_hash(toy):
    ck = load_checkpoint(toy["model"])
    assert ck.provenance == hashlib.sha256(toy["ds"].read_bytes()).hexdigest()


def test_file_hash_reads_in_blocks(tmp_path):
    """The provenance hash of an 8 MiB file equals `hashlib.sha256` of its
    bytes, and its Python allocations peak far below the file's size."""
    payload = np.random.default_rng(0).bytes(8 << 20)
    path = tmp_path / "big.csv"
    path.write_bytes(payload)
    tracemalloc.start()
    try:
        digest = cli._file_sha256(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert digest == hashlib.sha256(payload).hexdigest()
    assert peak < len(payload) // 32, peak


def test_train_epoch_curves_rows_and_best(toy, tmp_path):
    """curves.csv holds one row per epoch run with the library's losses bit
    for bit, and report.txt names the best of them."""
    assert run_cli(["train", "-i", str(toy["ds"]), "-o", str(tmp_path / "m.ckpt"),
                    "--epochs", "15", "--patience", "15", "--seed", "2",
                    "--split-seed", "0", "--hidden", "16,16"]) == 0
    cfg = TrainConfig(max_epochs=15, patience=15, seed=2, hidden=(16, 16))
    _, _, report, _ = train_on_dataset(read_csv(toy["ds"]), cfg, split_seed=0)

    lines = (tmp_path / "curves.csv").read_text().splitlines()
    assert lines[0] == "epoch,train_loss,val_loss,val_nrmse,val_cosine"
    rep = read_report(tmp_path / "report.txt")
    assert len(lines) - 1 == rep["epochs_run"] == report.epochs_run
    val_loss = [float(line.split(",")[2]) for line in lines[1:]]
    assert val_loss == report.val_loss  # repr round-trips bit for bit
    assert rep["best_epoch"] == report.best_epoch
    assert rep["best_val_loss"] == min(val_loss)
    assert rep["best_val_loss"] < val_loss[0]  # it learned something


def test_train_creates_checkpoint_dir(toy, tmp_path):
    """The checkpoint's directory is made before training, and the report
    files land beside the checkpoint."""
    model = tmp_path / "sub" / "dir" / "m.ckpt"
    assert run_cli(["train", "-i", str(toy["ds"]), "-o", str(model),
                    "--epochs", "1", "--patience", "1", "--hidden", "8"]) == 0
    assert sorted(p.name for p in model.parent.iterdir()) == [
        "curves.csv", "m.ckpt", "report.txt"]


def test_predict_round_trip(toy, capsys):
    feats = read_csv(toy["ds"]).features[0]
    probs_arg = ",".join(repr(float(p)) for p in feats)
    assert run_cli(["predict", "-m", str(toy["model"]), "--probs", probs_arg]) == 0
    out = dict(line.split(" = ") for line in capsys.readouterr().out.strip().splitlines())
    assert np.isfinite(float(out["v1"]))
    assert np.isfinite(float(out["v2"]))
    assert float(out["consistency_residual"]) >= 0.0


@pytest.mark.parametrize("row", [0, 37, 99])
def test_predict_cli_is_library_predict_of_one_row(toy, capsys, row):
    """`predict --probs` prints, bit for bit, what library `predict` gives
    for that one feature vector: the batch `evaluate` and `surface`
    predict may round a row differently (matrix-vector against
    matrix-matrix products), the one-row call may not."""
    ckpt = load_checkpoint(toy["model"])
    feats = read_csv(toy["ds"]).features[row]
    assert run_cli(["predict", "-m", str(toy["model"]),
                    "--probs", ",".join(repr(float(p)) for p in feats)]) == 0
    out = dict(line.split(" = ") for line in capsys.readouterr().out.strip().splitlines())
    volts = predict(ckpt.params, feats, ckpt.scaling)
    printed = np.array([float(out["v1"]), float(out["v2"]), float(out["consistency_residual"])])
    assert same_bits(printed, np.array([volts[0], volts[1], ckpt.kick.residual(volts)]))


def test_predict_rejects_bad_probs(toy):
    eleven = ",".join(["0.1"] * 11)
    assert run_cli(["predict", "-m", str(toy["model"]), "--probs", eleven]) == 3
    bad = ",".join(["0.1"] * 11 + ["1.5"])
    assert run_cli(["predict", "-m", str(toy["model"]), "--probs", bad]) == 3
    # every comparison with NaN is False, so a range check alone lets it by
    for value in ("nan", "inf"):
        bad = ",".join([value] + ["0.1"] * 11)
        assert run_cli(["predict", "-m", str(toy["model"]), "--probs", bad]) == 3


# ----------------------------------------------------------------- evaluate


def test_evaluate_writes_reports(toy, tmp_path):
    out = tmp_path / "eval"
    assert run_cli(["evaluate", "-m", str(toy["model"]), "-i", str(toy["ds"]),
                    "-o", str(out), "--reps", "3", "--rep-size", "10"]) == 0
    rep = read_report(out / "report.txt")
    assert rep["repetitions"] == 3
    assert rep["examples_per_repetition"] == 10
    assert rep["sampling"] == "grid"
    assert rep["nrmse_mean"] > 0.0
    assert -1.0 <= rep["cosine_mean"] <= 1.0
    assert len((out / "reps.csv").read_text().splitlines()) == 4


def test_evaluate_summary_is_mean_and_sd_of_reps(toy, tmp_path):
    """report.txt's means and SDs are `mean_and_sd` of the reps.csv
    columns, bit for bit."""
    out = tmp_path / "eval"
    assert run_cli(["evaluate", "-m", str(toy["model"]), "-i", str(toy["ds"]),
                    "-o", str(out), "--reps", "7", "--rep-size", "10"]) == 0
    header, *lines = (out / "reps.csv").read_text().splitlines()
    assert header == "rep,nrmse,cosine"
    cols = np.array([[float(x) for x in line.split(",")] for line in lines]).T
    assert list(cols[0]) == list(range(7))
    text = dict(line.split(" = ") for line in (out / "report.txt").read_text().splitlines())
    for name, col in (("nrmse", cols[1]), ("cosine", cols[2])):
        mean, sd = metrics.mean_and_sd(col)
        assert text[f"{name}_mean"] == repr(mean)
        assert text[f"{name}_sd"] == repr(sd)
    assert text["spread_degenerate"] == "False"


def test_evaluate_single_repetition_is_degenerate(toy, tmp_path, capsys):
    out = tmp_path / "eval"
    assert run_cli(["evaluate", "-m", str(toy["model"]), "-i", str(toy["ds"]),
                    "-o", str(out), "--reps", "1", "--rep-size", "10"]) == 0
    text = dict(line.split(" = ") for line in (out / "report.txt").read_text().splitlines())
    assert text["repetitions"] == "1"
    assert text["spread_degenerate"] == "True"
    assert text["nrmse_sd"] == text["cosine_sd"] == "0.0"
    _, row = (out / "reps.csv").read_text().splitlines()
    assert row.split(",")[1:] == [text["nrmse_mean"], text["cosine_mean"]]
    assert capsys.readouterr().out.endswith(f"cosine = {text['cosine_mean']} +- 0.0\n")


def test_evaluate_uniform_sampling_on_simulated(toy, tmp_path):
    out = tmp_path / "eval_u"
    assert run_cli(["evaluate", "-m", str(toy["model"]), "-i", str(toy["ds"]),
                    "-o", str(out), "--reps", "2", "--rep-size", "10",
                    "--sampling", "uniform"]) == 0
    assert read_report(out / "report.txt")["sampling"] == "uniform"


@pytest.mark.parametrize("command", ["predict", "evaluate"])
def test_commands_run_on_one_blas_thread(toy, tmp_path, monkeypatch, blas_count, command):
    """`main` runs every command inside `net._one_blas_thread`: the
    `predict` calls of `predict` and `evaluate` see one OpenBLAS thread,
    and the caller's count is back when `main` returns, on success and
    on an error exit (a missing model, exit 10)."""
    outside = blas_count()
    seen = []
    real = cli.predict

    def recording(*args):
        seen.append(blas_count())
        return real(*args)

    monkeypatch.setattr(cli, "predict", recording)
    argv = {"predict": ["predict", "--probs", ",".join(["0.1"] * 12)],
            "evaluate": ["evaluate", "-i", str(toy["ds"]), "-o", str(tmp_path / "eval"),
                         "--reps", "2", "--rep-size", "10"]}[command]
    assert run_cli([*argv, "-m", str(toy["model"])]) == 0
    assert seen and set(seen) == {None if outside is None else 1}
    assert blas_count() == outside
    assert run_cli([*argv, "-m", str(tmp_path / "missing.ckpt")]) == 10
    assert blas_count() == outside


def relabelled_dataset(toy, path, **changes):
    """The toy dataset written to `path` with some metadata changed."""
    write_csv(replace(read_csv(toy["ds"]), **changes), path)
    return path


def test_evaluate_uniform_rejected_on_experimental(toy, tmp_path):
    exp = relabelled_dataset(toy, tmp_path / "exp.csv", provenance="experimental")
    assert run_cli(["evaluate", "-m", str(toy["model"]), "-i", str(exp),
                    "-o", str(tmp_path / "e1"), "--reps", "2", "--rep-size", "10",
                    "--sampling", "uniform"]) == 3
    # grid sampling has no such restriction
    assert run_cli(["evaluate", "-m", str(toy["model"]), "-i", str(exp),
                    "-o", str(tmp_path / "e2"), "--reps", "2",
                    "--rep-size", "10"]) == 0


def test_evaluate_inherits_no_noise_for_measured_data_without_a_budget(toy, tmp_path):
    """A dataset not simulated here already carries its measured noise, so
    the default --counts adds no fresh noise, whether its `mean_total` is
    `none` or records the budget that noise was taken at; a simulated
    noise-free dataset still takes the device's budget."""
    def evaluate(dataset, *counts):
        out = tmp_path / f"eval_{dataset.stem}{''.join(counts)}"
        assert run_cli(["evaluate", "-m", str(toy["model"]), "-i", str(dataset),
                        "-o", str(out), "--reps", "3", "--rep-size", "10", *counts]) == 0
        return read_report(out / "report.txt")["mean_total"], (out / "reps.csv").read_bytes()

    measured = relabelled_dataset(toy, tmp_path / "measured.csv",
                                  provenance="experimental", mean_total=None)
    budget, reps = evaluate(measured)
    assert budget == "none"
    assert reps == evaluate(measured, "--counts", "0")[1]
    assert reps != evaluate(measured, "--counts", "1000")[1]
    recorded = relabelled_dataset(toy, tmp_path / "recorded.csv",
                                  provenance="experimental", mean_total=500.0)
    budget, recorded_reps = evaluate(recorded)
    assert budget == "none"
    assert recorded_reps == evaluate(recorded, "--counts", "0")[1]
    clean = relabelled_dataset(toy, tmp_path / "clean.csv", mean_total=None)
    assert evaluate(clean)[0] == default_device_config().mean_total


# ---------------------------------------------------------- study front end


def test_ablate_kicks_cli(tmp_path, capsys):
    out = tmp_path / "ab"
    assert run_cli(["ablate-kicks", "--grid", "8", "--grid-min", "2",
                    "--grid-max", "5", "--kick-steps", "1", *FAST,
                    "-o", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "improvement_fraction = " in stdout
    rep = read_report(out / "report.txt")
    assert rep["improvement_fraction"] == 1.0 - (rep["rmse_with_kick_volts"]
                                                 / rep["rmse_without_kick_volts"])


def test_ablate_kicks_noise_free_flag(tmp_path):
    out = tmp_path / "abnf"
    assert run_cli(["ablate-kicks", "--grid", "8", "--grid-min", "2",
                    "--grid-max", "5", "--kick-steps", "1", "--counts", "0",
                    *FAST, "-o", str(out)]) == 0
    echo = read_report(out / "config.echo")
    assert echo["mean_total"] == "none"
    assert echo["mean_total_bare"] == "none"


def test_sweep_grid_cli(tmp_path):
    out = tmp_path / "sweep"
    assert run_cli(["sweep-grid", "--sizes", "5,8", "--trainings", "2",
                    "--test-size", "10", "--grid-min", "2", "--grid-max", "5",
                    "--kick-steps", "1", "--epochs", "4", "--patience", "4",
                    "--hidden", "12", "-o", str(out)]) == 0
    lines = (out / "results.csv").read_text().splitlines()
    assert len(lines) == 3  # header + one summary row per size
    assert lines[0].startswith("size,n_runs,")


def test_sweep_grid_rejects_zero_jobs(tmp_path, capsys):
    out = tmp_path / "sweep"
    assert run_cli(["sweep-grid", "--sizes", "5,8", "--trainings", "1",
                    "--jobs", "0", "-o", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error[invalid-parameter]: ") and "jobs must be >= 1" in err, err
    assert "Traceback" not in err and err.count("\n") == 1, err
    assert not out.exists()


def test_sweep_grid_rejects_test_size_above_pool(tmp_path, capsys):
    """The test pool is the largest grid (8 x 8 here): a larger --test-size
    exits 3 before any training, not with numpy's traceback."""
    out = tmp_path / "sweep"
    assert run_cli(["sweep-grid", "--sizes", "5,8", "--trainings", "1",
                    "--test-size", "65", "--grid-min", "2", "--grid-max", "5",
                    "--kick-steps", "1", "-o", str(out)]) == 3
    err = capsys.readouterr().err
    assert err == ("error[invalid-parameter]: test draw size 65 must lie in [1, 64], "
                   "the size of the pool\n"), err
    assert not out.exists()


def test_ablate_kicks_out_of_range_leaves_no_directory(tmp_path, capsys):
    """A 15-point grid makes the default 5-step kick 5/14 of the 8 V
    range: the kicked settings overshoot the device, which exits 3
    before any output directory is made."""
    out = tmp_path / "ablation"
    assert run_cli(["ablate-kicks", "--grid", "15", "-o", str(out)]) == 3
    err = capsys.readouterr().err
    assert err == ("error[invalid-parameter]: kicked settings exceed the simulable "
                   "device range (9.14286 V > 8 V)\n"), err
    assert not out.exists()


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("harness", ["sweep-grid", "ablate-kicks"])
def test_diverging_training_leaves_no_directory(tmp_path, capsys, monkeypatch, harness, jobs):
    """A learning rate of 1e160 makes every training diverge in epoch 0.
    The worker's exception crosses back to this process intact, so one
    worker or two exit 8 with the message `train` gives; no output
    directory is made, and no worker process is left running.  The
    ablation takes one worker per training, capped by the core count."""
    out = tmp_path / "study"
    shared = ["--grid-min", "2", "--grid-max", "5", "--kick-steps", "1", "--epochs", "3",
              "--patience", "3", "--lr", "1e160", "--hidden", "8", "-o", str(out)]
    if harness == "sweep-grid":
        argv = ["sweep-grid", "--sizes", "5,8", "--trainings", "1", "--test-size", "20",
                "--jobs", str(jobs), *shared]
    else:
        monkeypatch.setattr(os, "cpu_count", lambda: jobs)
        argv = ["ablate-kicks", "--grid", "9", *shared]
    assert run_cli(argv) == 8
    err = capsys.readouterr().err
    assert err == "error[training-diverged]: non-finite loss at epoch 0\n", err
    assert not out.exists()
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("sizes", ["20,20", "10,20,20", "20,10"])
def test_sweep_grid_rejects_sizes_not_strictly_ascending(tmp_path, capsys, sizes):
    """A repeated size would train the same runs twice and write its rows
    twice: exit 3 before anything is trained or written."""
    out = tmp_path / "sweep"
    assert run_cli(["sweep-grid", "--sizes", sizes, "--trainings", "1", "--epochs", "1",
                    "--patience", "1", "-o", str(out)]) == 3
    err = capsys.readouterr().err
    assert err == ("error[invalid-parameter]: sweep sizes must be strictly ascending "
                   "and >= 2\n"), err
    assert not out.exists()


@pytest.mark.parametrize("sizes", ["10,x", ",", "1_0,20", "\u0661\u0660,20"])
def test_sweep_grid_rejects_bad_sizes(tmp_path, capsys, sizes):
    out = tmp_path / "sweep"
    assert run_cli(["sweep-grid", "--sizes", sizes, "-o", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error[invalid-parameter]: ") and "grid size list" in err, err
    assert "Traceback" not in err and err.count("\n") == 1, err
    assert not out.exists()


def test_surface_prediction_cli(toy, tmp_path):
    out = tmp_path / "pred"
    assert run_cli(["surface", "-m", str(toy["model"]), "-i", str(toy["ds"]),
                    "--n-new", "8", "--seed", "3", "-o", str(out)]) == 0
    lines = (out / "results.csv").read_text().splitlines()
    assert len(lines) == 9
    # a model and a dataset are required, and the rendering flags are gone:
    # argparse usage errors, not crashes
    nope = ["-o", str(tmp_path / "nope")]
    for argv in (["-m", str(toy["model"]), *nope],
                 ["-i", str(toy["ds"]), *nope],
                 ["-m", str(toy["model"]), "-i", str(toy["ds"]), "--resolution", "5", *nope]):
        with pytest.raises(SystemExit) as exc:
            run_cli(["surface", *argv])
        assert exc.value.code == 2, argv
    assert not (tmp_path / "nope").exists()


def test_prediction_surface_rows(toy, tmp_path):
    out = tmp_path / "pred"
    assert run_cli(["surface", "-m", str(toy["model"]), "-i", str(toy["ds"]),
                    "--n-new", "12", "--seed", "9", "-o", str(out)]) == 0
    header, *lines = (out / "results.csv").read_text().splitlines()
    assert len(lines) == 12
    assert header.split(",") == ["true_v1", "true_v2", "pred_v1", "pred_v2", "error",
                                 "consistency_residual"]
    file_rows = [list(map(float, line.split(","))) for line in lines]
    for tv1, tv2, pv1, pv2, err, res in file_rows:
        assert err == pytest.approx(np.hypot(pv1 - tv1, pv2 - tv2), rel=1e-12)
        assert res >= 0.0

    rep = read_report(out / "report.txt")
    errors = np.array([r[4] for r in file_rows])
    assert rep["rms_error_volts"] == pytest.approx(np.sqrt((errors**2).mean()),
                                                   rel=1e-12)


def test_prediction_surface_bounds(toy, tmp_path, capsys):
    """--n-new outside [1, N] exits 3 before the output directory exists."""
    n = len(read_csv(toy["ds"]))
    for n_new in (0, n + 1):
        out = tmp_path / f"surface_{n_new}"
        assert run_cli(["surface", "-m", str(toy["model"]), "-i", str(toy["ds"]),
                        "--n-new", str(n_new), "-o", str(out)]) == 3
        err = capsys.readouterr().err
        assert err == (f"error[invalid-parameter]: test draw size {n_new} must lie in "
                       f"[1, {n}], the size of the pool\n"), err
        assert not out.exists()


@pytest.mark.parametrize("seed, n_new", [(3, 8), (11, 100)])
def test_surface_is_repetition_zero_of_evaluate(toy, tmp_path, monkeypatch, seed, n_new):
    """`surface --seed S --n-new K` writes, bit for bit, the truths and
    predictions of repetition 0 of the grid-pool evaluation with rep_size K
    and default_rng(S)."""
    out = tmp_path / "surface"
    assert run_cli(["surface", "-m", str(toy["model"]), "-i", str(toy["ds"]),
                    "--seed", str(seed), "--n-new", str(n_new), "-o", str(out)]) == 0
    header, *lines = (out / "results.csv").read_text().splitlines()
    assert header.split(",")[:4] == ["true_v1", "true_v2", "pred_v1", "pred_v2"]
    cols = np.array([[float(x) for x in line.split(",")] for line in lines]).T

    ckpt, ds = load_checkpoint(toy["model"]), read_csv(toy["ds"])
    drawn, predicted = [], []

    def recording_draw(*args):
        idx, feats = noisy_draw(*args)
        drawn.append(idx)
        return idx, feats

    def predict_fn(feats):
        predicted.append(ckpt.scaling.invert(forward(ckpt.params, feats)))
        return predicted[-1]

    monkeypatch.setattr(metrics, "noisy_draw", recording_draw)
    metrics.repeated_test_evaluation(
        predict_fn, exact_feature_pool(ds, default_device_config()), ds.targets,
        ds.mean_total, ckpt.scaling.pooled_span(), rep_count=2, rep_size=n_new,
        rng=np.random.default_rng(seed))
    assert len(drawn) == 2
    truth, pred = ds.targets[drawn[0]], predicted[0]
    for col, want in zip(cols[:4], (truth[:, 0], truth[:, 1], pred[:, 0], pred[:, 1])):
        assert same_bits(col, np.ascontiguousarray(want))


# ------------------------------------------------------------ device config


# the flags each subcommand needs to parse; no file named here is read
MINIMAL_ARGV = {
    "simulate": ["--volts", "3,4"],
    "gen-dataset": ["-o", "d.csv"],
    "train": ["-i", "d.csv", "-o", "m.ckpt"],
    "predict": ["-m", "m.ckpt", "--probs", "0.5"],
    "evaluate": ["-m", "m.ckpt", "-i", "d.csv", "-o", "out"],
    "sweep-grid": ["-o", "out"],
    "ablate-kicks": ["-o", "out"],
    "surface": ["-m", "m.ckpt", "-i", "d.csv", "-o", "out"],
}


def _subcommand_names():
    ap = cli.build_parser()
    return set(next(a.choices for a in ap._actions
                    if isinstance(a, argparse._SubParsersAction)))


def test_device_config_only_where_it_is_read(tmp_path, monkeypatch, capsys):
    """Every subcommand that takes --device-config reads it first (a missing
    file exits 10); train and predict read no device, so they reject it."""
    monkeypatch.chdir(tmp_path)
    assert _subcommand_names() == set(MINIMAL_ARGV)
    missing = str(tmp_path / "missing.cfg")
    for name, argv in MINIMAL_ARGV.items():
        argv = [name, *argv, "--device-config", missing]
        if name in ("train", "predict"):
            with pytest.raises(SystemExit) as exc:
                run_cli(argv)
            assert exc.value.code == 2, name
            assert "unrecognized arguments: --device-config" in capsys.readouterr().err
        else:
            assert run_cli(argv) == 10, name
            assert "missing.cfg" in capsys.readouterr().err, name
    assert list(tmp_path.iterdir()) == []


def test_subcommand_lists_agree():
    """build_parser(), the README's Subcommands table and the cli module
    docstring name the same subcommands."""
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    table = readme.split("\n## Subcommands\n", 1)[1].split("\n## ", 1)[0]
    assert set(re.findall(r"^\| `([a-z-]+)` \|", table, re.M)) == _subcommand_names()
    assert set(re.findall(r"^    ([a-z][a-z-]*)  ", cli.__doc__, re.M)) == _subcommand_names()


def test_exit_code_lists_agree():
    """README's exit-code table, the `errors` module docstring's map and the
    error classes name the same codes; the CLI adds 0 (success), 2
    (argparse usage) and 10 (OS errors)."""
    classes = [c for c in vars(errors).values()
               if isinstance(c, type) and issubclass(c, errors.CalibrationError)
               and c is not errors.CalibrationError]
    by_code = {c.exit_code: c.category for c in classes}
    assert len(by_code) == len(classes), "two error classes share an exit code"
    doc_map = re.findall(r"^    (\d+)  ([a-z-]+) ", errors.__doc__, re.M)
    assert {int(code): category for code, category in doc_map} == by_code
    assert len(doc_map) == len(by_code)
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    table = readme.split("\n## Exit codes\n", 1)[1].split("\n## ", 1)[0]
    codes = [int(c) for c in re.findall(r"^\| (\d+) \|", table, re.M)]
    assert sorted(codes) == sorted({*by_code, 0, 2, cli.OS_ERROR_EXIT})


def test_dataset_metadata_lists_agree(toy):
    """README's "Dataset CSV" paragraph, the keys `read_csv` requires and
    the keys `write_csv` writes are the same four, in the same order."""
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    paragraph = readme.split("\n**Dataset CSV**", 1)[1].split("\n\n", 1)[0]
    listed = paragraph.split("metadata lines,", 1)[1].split("; then", 1)[0]
    documented = re.findall(r"`([a-z0-9_]+)`", listed)
    lines = toy["ds"].read_text(encoding="utf-8").splitlines()
    written = [re.fullmatch(r"# ([a-z0-9_]+) = .*", line)[1]
               for line in lines[:lines.index(DATASET_HEADER)]]
    assert documented == written == list(METADATA_KEYS)


def test_checkpoint_format_doc_agrees():
    """README's "Checkpoint" paragraph names the format `net` writes and
    reads and both tokens of its `dtype` line."""
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    paragraph = readme.split("\n**Checkpoint**", 1)[1].split("\n\n", 1)[0]
    assert f"format {net._FORMAT}" in paragraph
    for dtype in net._DTYPES:
        assert f"`dtype {dtype}`" in paragraph, dtype


def test_device_config_override_changes_phases(tmp_path, capsys):
    dev = default_device_config()
    softer = replace(dev, alpha=dev.alpha * 0.5, alpha_nl=dev.alpha_nl * 0.5)
    cfg_path = tmp_path / "device.cfg"
    write_device_config(softer, cfg_path)

    assert run_cli(["simulate", "--volts", "3,4"]) == 0
    default_out = capsys.readouterr().out
    assert run_cli(["simulate", "--volts", "3,4",
                    "--device-config", str(cfg_path)]) == 0
    override_out = capsys.readouterr().out
    assert default_out != override_out
    ph_default = [float(x) for x in default_out.splitlines()[0].split(" = ")[1].split()]
    ph_soft = [float(x) for x in override_out.splitlines()[0].split(" = ")[1].split()]
    assert ph_soft[0] == pytest.approx(0.5 * ph_default[0], rel=1e-12)


def test_tritter_reaches_every_voltage_path(tmp_path, capsys):
    """A fabricated tritter on the device object reaches `exact_features`,
    noise-free `generate_simulated` and `simulate`: each equals the model
    through that tritter and differs from the ideal device's."""
    ideal = default_device_config()
    rotation = np.array([[np.cos(0.3), -np.sin(0.3), 0.0], [np.sin(0.3), np.cos(0.3), 0.0],
                         [0.0, 0.0, 1.0]])
    phases = np.diag(np.exp([0.2j, -0.4j, 0.1j]))
    dev = replace(ideal, tritter=tritter_unitary() @ phases @ rotation)

    def model(v, device):
        return output_probabilities(phases_from_voltages(v, device), device.tritter)

    axis = build_grid(2.0, 5.0, 6)
    ds = generate_simulated(axis, kick_from_steps(axis, 1), dev, np.random.default_rng(0),
                            mean_total=None)
    expected = np.hstack([model(ds.targets[:, :2], dev), model(ds.targets[:, 2:], dev)])
    assert same_bits(exact_features(ds.targets, dev), expected)
    assert same_bits(ds.features, expected)
    assert not np.allclose(expected, exact_features(ds.targets, ideal))

    cfg_path = tmp_path / "device.cfg"
    write_device_config(dev, cfg_path)
    assert run_cli(["simulate", "--volts", "3,4", "--device-config", str(cfg_path)]) == 0
    line = capsys.readouterr().out.splitlines()[1]
    printed = np.array([float(p) for p in line.split(" = ")[1].split()])
    assert same_bits(printed, model([3.0, 4.0], dev))
    assert not np.allclose(printed, voltage_probabilities([3.0, 4.0], ideal))


def test_exit_code_non_utf8_device_config(tmp_path, capsys):
    cfg_path = tmp_path / "device.cfg"
    write_device_config(default_device_config(), cfg_path)
    cfg_path.write_bytes(cfg_path.read_bytes().replace(b"=", b"= \xff", 1))
    assert run_cli(["simulate", "--volts", "3,4", "--device-config", str(cfg_path)]) == 5
    err = capsys.readouterr().err
    assert err.startswith("error[file-format]: ") and "is not UTF-8 text" in err, err
    assert "Traceback" not in err and err.count("\n") == 1, err


def test_exit_code_non_finite_tritter_device_config(tmp_path, capsys):
    """A NaN in the tritter override is exit 3, not `probabilities = nan`."""
    cfg_path = tmp_path / "device.cfg"
    write_device_config(replace(default_device_config(), tritter=tritter_unitary()), cfg_path)
    text = cfg_path.read_text()
    at = text.index("tritter = ") + len("tritter = ")
    cfg_path.write_text(text[:at] + "nan" + text[text.index(",", at):])
    assert run_cli(["simulate", "--volts", "3,4", "--device-config", str(cfg_path)]) == 3
    captured = capsys.readouterr()
    assert "probabilities" not in captured.out
    assert captured.err.startswith("error[invalid-parameter]: tritter override must be finite")


# --------------------------------------------------------------- exit codes


def test_exit_code_missing_file(tmp_path):
    assert run_cli(["train", "-i", str(tmp_path / "nope.csv"),
                    "-o", str(tmp_path / "m.ckpt")]) == 10


@pytest.mark.parametrize("lr", ["nan", "inf"])
def test_exit_code_non_finite_learning_rate(toy, tmp_path, capsys, lr):
    """A learning rate that is not a finite positive number is exit 3
    before `train` makes its model directory."""
    model_dir = tmp_path / "model"
    assert run_cli(["train", "-i", str(toy["ds"]), "-o", str(model_dir / "m.ckpt"),
                    "--lr", lr, *FAST]) == 3
    err = capsys.readouterr().err
    assert err == "error[invalid-parameter]: learning rate must be finite and > 0\n", err
    assert not model_dir.exists()


def test_exit_code_corrupt_checkpoint(toy, tmp_path):
    bad = tmp_path / "bad.ckpt"
    bad.write_text(toy["model"].read_text().replace("tensor W0", "tensor XX", 1))
    probs_arg = ",".join(["0.1"] * 12)
    assert run_cli(["predict", "-m", str(bad), "--probs", probs_arg]) == 7


def _rechecksummed_model(toy, tmp_path, edit):
    """A copy of the toy model with W0's data line edited and the checksum
    recomputed, so the edit reaches the tensor parser."""
    lines = toy["model"].read_text().splitlines()[:-1]
    row = lines.index("tensor W0 24 12") + 1
    lines[row] = edit(lines[row])
    payload = "\n".join(lines) + "\n"
    bad = tmp_path / "edited.ckpt"
    bad.write_text(payload + f"checksum {hashlib.sha256(payload.encode()).hexdigest()}\n")
    return bad


def test_exit_code_nan_checkpoint_weight(toy, tmp_path, capsys):
    """A NaN weight under a valid checksum is exit 7, not `v1 = nan`."""
    bad = _rechecksummed_model(toy, tmp_path, lambda data: "0000c07f" + data[8:])
    probs_arg = ",".join(["0.1"] * 12)
    assert run_cli(["predict", "-m", str(bad), "--probs", probs_arg]) == 7
    captured = capsys.readouterr()
    assert "v1 =" not in captured.out and "tensor W0" in captured.err
    assert "non-finite value in tensor W0" in captured.err and "Traceback" not in captured.err


# Edits of a format 4 data line (hex little-endian float32, as `train`
# stores its weights) under a valid checksum; the NaN case is
# test_exit_code_nan_checkpoint_weight.
@pytest.mark.parametrize("edit, message", [
    (lambda data: data[:-2], "tensor W0 holds 1151 bytes, expected 1152"),  # one byte short
    (lambda data: "g" + data[1:], "bad hex data in tensor W0"),
    (lambda data: data[:-8] + "000080ff", "non-finite value in tensor W0"),  # -inf
    (lambda data: " \t".join(data[i:i + 8] for i in range(0, len(data), 8)) + "  ",
     "bad hex data in tensor W0"),  # whitespace between and after the float32s
], ids=["one-byte-short", "non-hex", "minus-inf", "whitespace"])
def test_exit_code_bad_checkpoint_tensor_data(toy, tmp_path, capsys, edit, message):
    bad = _rechecksummed_model(toy, tmp_path, edit)
    assert run_cli(["predict", "-m", str(bad), "--probs", ",".join(["0.1"] * 12)]) == 7
    captured = capsys.readouterr()
    assert "v1 =" not in captured.out
    assert captured.err.startswith("error[checkpoint]: ") and message in captured.err, captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("fmt", ["format 1", "format 2", "format 3"])
def test_exit_code_decimal_checkpoint_format(toy, tmp_path, capsys, fmt):
    """Checkpoint formats 1 and 2 (decimal rows) and 3 (hex float64, no
    dtype line) are no longer read: exit 7, and the message names the one
    format that is."""
    payload = toy["model"].read_text().replace("format 4", fmt, 1).rpartition("checksum ")[0]
    bad = tmp_path / "old.ckpt"
    bad.write_text(payload + f"checksum {hashlib.sha256(payload.encode()).hexdigest()}\n")
    assert run_cli(["predict", "-m", str(bad), "--probs", ",".join(["0.1"] * 12)]) == 7
    err = capsys.readouterr().err
    assert err.startswith("error[checkpoint]: unsupported checkpoint format"), err
    assert f"'{fmt}'" in err and "format 4" in err, err


@pytest.mark.parametrize("sizes", ["12 2_4 24 4", "12 \u0662\u0664 24 4"],
                         ids=["underscore", "non-ascii"])
def test_exit_code_python_only_int_spelling_checkpoint(toy, tmp_path, capsys, sizes):
    """`int()` would read these layer sizes as 24; the checkpoint reader
    spells integers as every reader spells numbers: exit 7."""
    payload = toy["model"].read_text().replace("sizes 12 24 24 4", f"sizes {sizes}", 1)
    payload = payload.rpartition("checksum ")[0]
    bad = tmp_path / "sizes.ckpt"
    bad.write_text(payload + f"checksum {hashlib.sha256(payload.encode()).hexdigest()}\n")
    assert run_cli(["predict", "-m", str(bad), "--probs", ",".join(["0.1"] * 12)]) == 7
    captured = capsys.readouterr()
    assert "v1 =" not in captured.out
    assert captured.err.startswith("error[checkpoint]: malformed checkpoint header"), captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("command", ["predict", "evaluate", "surface"])
@pytest.mark.parametrize("sizes", [(6, 8, 2), (12, 8, 2), (6, 8, 4)], ids=["6-8-2", "12-8-2", "6-8-4"])
def test_exit_code_model_of_the_wrong_shape(toy, tmp_path, capsys, command, sizes):
    """A well-formed checkpoint whose network does not map the 12
    probabilities to the 4 target voltages is exit 7 naming its sizes."""
    rng = np.random.default_rng(0)
    params = [(rng.normal(size=(n_out, n_in)), np.zeros(n_out))
              for n_in, n_out in zip(sizes[:-1], sizes[1:])]
    model = tmp_path / "shape.ckpt"
    save_checkpoint(model, params, KickConfig(0.5, 0.5),
                    TargetScaling(lo=np.zeros(sizes[-1]), hi=np.ones(sizes[-1])))
    argv = {"predict": ["--probs", ",".join(["0.1"] * 12)],
            "evaluate": ["-i", str(toy["ds"]), "-o", str(tmp_path / "out"), "--reps", "2"],
            "surface": ["-i", str(toy["ds"]), "-o", str(tmp_path / "out")]}[command]
    assert run_cli([command, "-m", str(model), *argv]) == 7
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error[checkpoint]: "), captured.err
    assert str(list(sizes)) in captured.err and "Traceback" not in captured.err
    assert not (tmp_path / "out").exists()


def test_exit_code_non_utf8_checkpoint(toy, tmp_path, capsys):
    """A byte that is not UTF-8 fails the byte-level checksum: exit 7."""
    data = toy["model"].read_bytes()
    at = data.index(b"tensor W0 24 12\n") + len(b"tensor W0 24 12\n")
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(data[:at] + b"\xff" + data[at + 1:])
    assert run_cli(["predict", "-m", str(bad), "--probs", ",".join(["0.1"] * 12)]) == 7
    err = capsys.readouterr().err
    assert err.startswith("error[checkpoint]: checksum mismatch"), err
    assert "Traceback" not in err


def test_exit_code_bad_csv(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("v1,v2,oops\n1,2,3\n")
    assert run_cli(["train", "-i", str(bad), "-o", str(tmp_path / "m.ckpt")]) == 5


def _rejects_edited_dataset(toy, tmp_path, capsys, edit, message, command="train"):
    """`command -i` (`train`, or `evaluate` or `surface` with the toy
    model) on an edited copy of the toy dataset exits 5 with a one-line
    file-format error containing `message`, and writes nothing."""
    lines = toy["ds"].read_text().splitlines()
    edit(lines)
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    argv = FAST if command == "train" else ["-m", str(toy["model"])]
    assert run_cli([command, "-i", str(bad), "-o", str(out), *argv]) == 5
    err = capsys.readouterr().err
    assert err.startswith("error[file-format]: ") and message in err, err
    assert "Traceback" not in err and err.count("\n") == 1, err
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "evaluate", "surface"])
@pytest.mark.parametrize("key", ["provenance", "dv1", "dv2", "mean_total"])
def test_exit_code_missing_metadata_line(toy, tmp_path, capsys, key, command):
    """Each of the four metadata lines is required: without one, every
    command that reads a dataset exits 5 naming it, with no default."""
    def edit(lines):
        lines.remove(next(line for line in lines if line.startswith(f"# {key} = ")))
    _rejects_edited_dataset(toy, tmp_path, capsys, edit, f"missing metadata '{key}' in ", command)


@pytest.mark.parametrize("command", ["train", "evaluate", "surface"])
def test_exit_code_duplicate_metadata_line(toy, tmp_path, capsys, command):
    """A second provenance line among the rows would relabel the file; it
    is exit 5 at the line of the repeat."""
    def edit(lines):
        lines.insert(7, "# provenance = experimental")
    _rejects_edited_dataset(toy, tmp_path, capsys, edit,
                            "line 8: duplicate metadata key 'provenance'", command)


def test_evaluate_refuses_an_unlabelled_constant_dataset(toy, tmp_path, capsys):
    """A file without its provenance line is not taken for simulated data.
    With every probability the constant triple (0.5, 0.25, 0.25), scoring
    it against the device model at its targets would report the real
    dataset's errors; it exits 5 instead."""
    def edit(lines):
        lines.remove(next(line for line in lines if line.startswith("# provenance = ")))
        rows = lines.index(DATASET_HEADER) + 1
        lines[rows:] = [",".join(row.split(",")[:4] + ["0.5", "0.25", "0.25"] * 4)
                        for row in lines[rows:]]
    _rejects_edited_dataset(toy, tmp_path, capsys, edit, "missing metadata 'provenance'",
                            "evaluate")


def _set_fields(lines, lineno, cols, text):
    parts = lines[lineno - 1].split(",")
    for c in cols:
        parts[c] = text
    lines[lineno - 1] = ",".join(parts)


def test_exit_code_nan_probability(toy, tmp_path, capsys):
    _rejects_edited_dataset(
        toy, tmp_path, capsys, lambda ls: _set_fields(ls, 9, (4,), "nan"),
        "line 9: non-finite field")


def test_exit_code_inf_targets(toy, tmp_path, capsys):
    # v1 and v1' both inf: the kick offset inf - inf is NaN, not a mismatch
    _rejects_edited_dataset(
        toy, tmp_path, capsys, lambda ls: _set_fields(ls, 12, (0, 2), "inf"),
        "line 12: non-finite field")


@pytest.mark.parametrize("text", ["1_0", "\u0661"])
def test_exit_code_python_only_float_spelling(toy, tmp_path, capsys, text):
    """Underscores and non-ASCII digits are not CSV numbers: exit 5."""
    _rejects_edited_dataset(
        toy, tmp_path, capsys, lambda ls: _set_fields(ls, 10, (5,), text),
        "line 10: non-numeric field")


def test_exit_code_python_only_float_spelling_flag(capsys):
    """Flags spell numbers as the CSV readers do: a non-ASCII digit is exit 3."""
    assert run_cli(["simulate", "--volts", "\u0663,4"]) == 3
    captured = capsys.readouterr()
    assert "phases" not in captured.out
    assert captured.err.startswith("error[invalid-parameter]: --volts contains a non-numeric")


def test_exit_code_python_only_float_spelling_device_config(tmp_path, capsys):
    cfg_path = tmp_path / "device.cfg"
    write_device_config(default_device_config(), cfg_path)
    text = cfg_path.read_text()
    assert "\nalpha = 6.0, 3.0, 3.0, 6.0\n" in text
    cfg_path.write_text(text.replace("alpha = 6.0, 3.0, 3.0, 6.0", "alpha = 6_0, 3, 3, 6"))
    assert run_cli(["simulate", "--volts", "3,4", "--device-config", str(cfg_path)]) == 5
    err = capsys.readouterr().err
    assert err.startswith("error[file-format]: ") and "expected numbers, got '6_0, 3, 3, 6'" in err, err


@pytest.mark.parametrize("hidden", ["2_4", "\u0661\u0666"], ids=["underscore", "non-ascii"])
def test_exit_code_python_only_int_spelling_hidden(toy, tmp_path, capsys, hidden):
    """--hidden spells integers as the CSV readers spell numbers: exit 3
    before any training."""
    out = tmp_path / "m.ckpt"
    assert run_cli(["train", "-i", str(toy["ds"]), "-o", str(out),
                    *FAST, "--hidden", hidden]) == 3
    err = capsys.readouterr().err
    assert err == f"error[invalid-parameter]: bad hidden layer list {hidden!r}\n", err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["train", "-i", "ds.csv", "-o", "m.ckpt", "--epochs", "1_0"],
    ["train", "-i", "ds.csv", "-o", "m.ckpt", "--lr", "1_0e-3"],
    ["gen-dataset", "-o", "ds.csv", "--counts", "1_000"],
    ["gen-dataset", "-o", "ds.csv", "--grid", "\u0661\u0660"],
    ["simulate", "--volts", "3,4", "--counts", "\u0661\u0660"],
], ids=["int-underscore", "float-underscore", "counts-underscore",
        "int-non-ascii", "float-non-ascii"])
def test_exit_code_python_only_number_spelling_typed_flag(capsys, argv):
    """Typed flags read numbers as the CSV readers do, so argparse refuses
    a digit-group underscore or a non-ASCII digit as a usage error."""
    with pytest.raises(SystemExit) as exc:
        run_cli(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "invalid parse_" in err and repr(argv[-1]) in err, err


@pytest.mark.parametrize("argv, message", [
    (["gen-dataset", "--counts", "5"], "81 of 11236 acquisitions drew zero photons "
                                       "at a budget of 5 photons per input"),
    (["evaluate", "-m", "{model}", "-i", "{ds}", "--counts", "0.01"],
     "398 of 400 acquisitions drew zero photons at a budget of 0.01 photons per input"),
    (["surface", "-m", "{model}", "-i", "{ds}", "--counts", "0.01"],
     "398 of 400 acquisitions drew zero photons at a budget of 0.01 photons per input"),
], ids=["gen-dataset", "evaluate", "surface"])
def test_exit_code_zero_count_acquisitions(toy, tmp_path, capsys, argv, message):
    """A budget too low for every triple to see a photon is exit 4 in
    every command that draws noise; the message names the budget and how
    many acquisitions came up empty."""
    out = tmp_path / "out"
    argv = [a.format(model=toy["model"], ds=toy["ds"]) for a in argv]
    assert run_cli([*argv, "-o", str(out)]) == 4
    err = capsys.readouterr().err
    assert err == f"error[degenerate-data]: {message}; cannot normalize\n", err
    assert not out.exists()


def test_exit_code_bad_mean_total_header(toy, tmp_path, capsys):
    def edit(lines):
        i = next(i for i, l in enumerate(lines) if l.startswith("# mean_total = "))
        lines[i] = "# mean_total = abc"
    _rejects_edited_dataset(toy, tmp_path, capsys, edit,
                            "bad mean_total metadata 'abc'")


def test_exit_code_non_utf8_dataset(toy, tmp_path, capsys):
    data = bytearray(toy["ds"].read_bytes())
    data[data.index(b"\n2.") + 1] = 0xFF  # the first digit of a data row
    bad = tmp_path / "bad.csv"
    bad.write_bytes(bytes(data))
    assert run_cli(["train", "-i", str(bad), "-o", str(tmp_path / "m.ckpt"), *FAST]) == 5
    err = capsys.readouterr().err
    assert err.startswith("error[file-format]: ") and "is not UTF-8 text" in err, err
    assert "Traceback" not in err and err.count("\n") == 1, err
    assert not (tmp_path / "m.ckpt").exists()


@pytest.mark.parametrize("dv1", ["nan", "-0.5", "1_0"])
def test_exit_code_bad_kick_header(toy, tmp_path, capsys, dv1):
    def edit(lines):
        i = next(i for i, l in enumerate(lines) if l.startswith("# dv1 = "))
        lines[i] = f"# dv1 = {dv1}"
    _rejects_edited_dataset(toy, tmp_path, capsys, edit,
                            f"bad kick metadata dv1 = '{dv1}'")


def test_parser_defaults_come_from_the_library(capsys):
    ap = cli.build_parser()
    for argv in (["train", "-i", "d.csv", "-o", "m.ckpt"],
                 ["sweep-grid", "-o", "out"],
                 ["ablate-kicks", "-o", "out"]):
        args = ap.parse_args(argv)
        assert cli._train_config(args, seed=0) == TrainConfig(seed=0), argv[0]
        # the validation fraction is the library's constant, not a flag
        with pytest.raises(SystemExit) as exc:
            ap.parse_args([*argv, "--val-fraction", "0.2"])
        assert exc.value.code == 2, argv[0]
        assert "unrecognized arguments: --val-fraction" in capsys.readouterr().err
    args = ap.parse_args(["sweep-grid", "-o", "out"])
    assert SweepConfig(grid_sizes=tuple(int(s) for s in args.sizes.split(",")),
                       trainings_per_size=args.trainings,
                       test_size=args.test_size) == SweepConfig()


def test_exit_code_usage_errors():
    with pytest.raises(SystemExit) as exc:
        run_cli(["train", "--no-such-flag"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run_cli(["gen-dataset"])  # missing required -o
    assert exc.value.code == 2


def _console_script_target():
    """The `module:attr` that pyproject.toml declares for the `tricalib` script."""
    try:
        import tomllib
    except ModuleNotFoundError:  # standard library only from Python 3.11
        tomllib = pytest.importorskip("tomli")
    with open(REPO / "pyproject.toml", "rb") as fh:
        return tomllib.load(fh)["project"]["scripts"]["tricalib"]


def _check_launcher_contract(launcher, env=None):
    """A subcommand run through `launcher` prints its result and exits 0; an
    invalid parameter exits with its documented code and a one-line error."""
    proc = subprocess.run([*launcher, "simulate", "--volts", "3,4"],
                          capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    assert "probabilities = " in proc.stdout, proc.stderr
    proc = subprocess.run([*launcher, "simulate", "--volts", "9,9"],
                          capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 3, proc.stderr
    assert "error[invalid-parameter]" in proc.stderr, proc.stderr
    assert "Traceback" not in proc.stderr, proc.stderr


def test_console_script_runs():
    """Run the declared entry point in a fresh interpreter the way the
    setuptools launcher does, so no installed package is needed."""
    target = _console_script_target()
    module, _, attr = target.partition(":")
    entry = getattr(importlib.import_module(module), attr, None)
    assert entry is cli.main, \
        f"[project.scripts] tricalib = {target!r} does not name tricalib.cli:main"

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p)
    code = f"import sys; from {module} import {attr}; sys.exit({attr}())"
    _check_launcher_contract([sys.executable, "-c", code], env=env)


@pytest.mark.skipif(shutil.which("tricalib") is None,
                    reason="tricalib console script not on PATH (pip install -e .)")
def test_installed_console_script_runs():
    _check_launcher_contract(["tricalib"])
