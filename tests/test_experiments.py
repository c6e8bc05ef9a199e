"""Study harnesses at reduced scale: determinism, file layout, and the
arithmetic of the headline numbers."""

import concurrent.futures
import functools
import multiprocessing
import os

import numpy as np
import pytest

from tricalib import experiments, net
from tricalib.config import default_device_config
from tricalib.data import (
    build_grid,
    generate_simulated,
    kick_from_steps,
)
from tricalib.device import voltage_probabilities
from tricalib.errors import InvalidParameterError
from tricalib.experiments import (
    SweepConfig,
    exact_feature_pool,
    run_grid_sweep,
    run_kick_ablation,
    train_on_dataset,
)
from tricalib.metrics import noisy_draw
from tricalib.net import TrainConfig

from conftest import read_report

DEV = default_device_config()

TOY_CFG = TrainConfig(max_epochs=8, patience=8, seed=1, hidden=(16, 16))


def toy_dataset(n=9, seed=3):
    grid = build_grid(2.0, 5.0, n)
    kick = kick_from_steps(grid, 1)
    return generate_simulated(grid, kick, DEV, np.random.default_rng(seed),
                              mean_total=1000.0)


def read_csv_rows(path):
    lines = path.read_text().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def tree_bytes(out_dir):
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


# ----------------------------------------------------------- shared helpers


def test_train_on_dataset_returns_raw_val_split():
    params, scaling, report, val_raw = train_on_dataset(
        toy_dataset(), TOY_CFG, split_seed=0)
    assert val_raw.targets.min() >= 2.0  # volts, not the [0, 1] scale
    assert report.epochs_run >= 1
    assert scaling.pooled_span() > 0.0


def test_exact_feature_pool_simulated():
    ds = toy_dataset()
    pool = exact_feature_pool(ds, DEV)
    base = voltage_probabilities(ds.targets[:, :2], DEV)
    kicked = voltage_probabilities(ds.targets[:, 2:4], DEV)
    assert np.array_equal(pool, np.concatenate([base, kicked], axis=-1))
    # noise-free by construction even though the dataset itself is noisy
    assert np.abs(pool - ds.features).max() > 0.0


def test_exact_feature_pool_experimental_passthrough():
    from dataclasses import replace

    ds = replace(toy_dataset(), provenance="experimental")
    assert exact_feature_pool(ds, DEV) is ds.features


def test_sweep_config_validation():
    for sizes in ((20, 10), (10, 10), (10, 20, 20), (1, 10)):
        with pytest.raises(InvalidParameterError, match="strictly ascending and >= 2"):
            SweepConfig(grid_sizes=sizes)
    with pytest.raises(InvalidParameterError):
        SweepConfig(grid_sizes=())
    with pytest.raises(InvalidParameterError):
        SweepConfig(trainings_per_size=0)


# ------------------------------------------------------------ kick ablation


def test_kick_ablation_arithmetic_and_artifacts(tmp_path):
    out = tmp_path / "ab"
    rmse_with, rmse_without, improvement = run_kick_ablation(
        DEV, TOY_CFG, 2.0, 5.0, 9, 1, data_seed=3, split_seed=0, out_dir=out,
        mean_total=1000.0)
    assert improvement == 1.0 - rmse_with / rmse_without
    assert rmse_with > 0.0 and rmse_without > 0.0

    echo = read_report(out / "config.echo")
    assert echo["mean_total"] == 1000.0
    assert echo["mean_total_bare"] == 2000.0  # two acquisitions' worth
    rep = read_report(out / "report.txt")
    assert rep["rmse_with_kick_volts"] == rmse_with
    assert rep["improvement_fraction"] == improvement

    header, rows = read_csv_rows(out / "results.csv")
    assert header == ["variant", "n_inputs", "n_outputs", "mean_total",
                      "best_epoch", "val_rmse_volts"]
    assert [r[0] for r in rows] == ["with_kick", "without_kick"]
    assert [r[1] for r in rows] == ["12", "6"]
    assert [r[2] for r in rows] == ["4", "2"]


def test_kick_ablation_noise_free_mode(tmp_path):
    out = tmp_path / "abnf"
    run_kick_ablation(DEV, TOY_CFG, 2.0, 5.0, 9, 1, data_seed=3, split_seed=0,
                      out_dir=out, mean_total=None)
    echo = read_report(out / "config.echo")
    assert echo["mean_total"] == "none"
    assert echo["mean_total_bare"] == "none"


def test_kick_ablation_byte_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        run_kick_ablation(DEV, TOY_CFG, 2.0, 5.0, 9, 1, data_seed=3,
                          split_seed=0, out_dir=out, mean_total=1000.0)
    assert tree_bytes(a) == tree_bytes(b)


# --------------------------------------------------------------- grid sweep


def small_sweep(out, jobs=1, trainings=2, mean_total=1000.0):
    sweep = SweepConfig(grid_sizes=(5, 8), trainings_per_size=trainings,
                        test_size=20)
    return run_grid_sweep(DEV, sweep, TOY_CFG, 2.0, 5.0, 1,
                          data_seed=3, train_seed=1, eval_seed=5, split_seed=0,
                          out_dir=out, mean_total=mean_total, jobs=jobs)


def test_grid_sweep_summary_and_files(tmp_path):
    out = tmp_path / "sweep"
    summary = small_sweep(out)
    assert [row[0] for row in summary] == [5, 8]
    assert all(row[1] == 2 for row in summary)

    header, rows = read_csv_rows(out / "runs.csv")
    assert header == ["size", "run", "val_nrmse", "test_cosine"]
    assert len(rows) == 4
    # summary means recompute from the per-run rows
    nr5 = [float(r[2]) for r in rows if r[0] == "5"]
    assert summary[0][2] == pytest.approx(np.mean(nr5), rel=1e-15)

    echo = read_report(out / "config.echo")
    assert echo["seed_rule"] == "base*1000000 + size*1000 + run"
    assert echo["grid_sizes"] == "5 8"
    assert echo["kick_dv1"] == echo["kick_dv2"]
    # kick fixed in volts from the largest grid: one step of the 8-grid
    assert echo["kick_dv1"] == pytest.approx(3.0 / 7.0, rel=1e-12)


def test_grid_sweep_single_training_flags_degenerate(tmp_path):
    out = tmp_path / "sweep1"
    summary = small_sweep(out, trainings=1)
    assert all(row[3] == 0.0 and row[5] == 0.0 for row in summary)
    rep = read_report(out / "report.txt")
    assert rep["size_5_spread_degenerate"] is True
    assert rep["size_8_spread_degenerate"] is True


def test_grid_sweep_jobs_do_not_change_bytes(tmp_path):
    serial = tmp_path / "s1"
    small_sweep(serial, jobs=1)
    for jobs in (2, 3):  # 3 is more workers than a 2-core machine has cores
        pooled = tmp_path / f"s{jobs}"
        small_sweep(pooled, jobs=jobs)
        assert tree_bytes(serial) == tree_bytes(pooled), jobs
        assert multiprocessing.active_children() == []


@pytest.mark.parametrize("jobs", [1, 2])
def test_grid_sweep_trains_on_one_blas_thread(tmp_path, monkeypatch, blas_count, jobs):
    """Every Adam step of every training, each in a worker process, runs
    on one OpenBLAS thread, and the count of this process is unchanged.

    The trainings run in forked workers, so a list here would stay empty:
    each step appends `pid seed count` to a file instead.  A worker runs
    one training at a time, so the seed of its running training is read
    from a wrapper around `train`."""
    outside = blas_count()
    log = tmp_path / "steps.log"
    real_train, real_step = experiments.train, net.adam_step
    running = {}

    def recording_train(train_ds, val_ds, config):
        running["seed"] = config.seed
        return real_train(train_ds, val_ds, config)

    def recording_step(*args):
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()} {running['seed']} {blas_count()}\n")
        real_step(*args)

    monkeypatch.setattr(experiments, "train", recording_train)
    monkeypatch.setattr(net, "adam_step", recording_step)
    small_sweep(tmp_path / "sweep", jobs=jobs)
    steps = [line.split() for line in log.read_text().splitlines()]
    assert {seed for _, seed, _ in steps} == {str(1_000_000 + size * 1_000 + run)
                                             for size in (5, 8) for run in (0, 1)}
    assert {count for _, _, count in steps} == {str(None if outside is None else 1)}
    assert str(os.getpid()) not in {pid for pid, _, _ in steps}
    assert blas_count() == outside


def blas_count_in_task(_):
    """The OpenBLAS thread count of the process running this task."""
    calls = net._openblas_threads()
    return None if calls is None else calls[0]()


@pytest.mark.parametrize("jobs", [1, 2])
def test_pool_workers_run_whole_tasks_on_one_blas_thread(blas_count, jobs):
    """A worker is on one OpenBLAS thread from its start, so the forward
    passes a task runs outside `net.train` (the sweep's test draw, the
    ablation's validation forward) are single-threaded too; this
    process's count is unchanged."""
    outside = blas_count()
    counts = experiments._in_workers(blas_count_in_task, [(i,) for i in range(2)], jobs)
    assert counts == [None if outside is None else 1] * 2
    assert blas_count() == outside
    assert multiprocessing.active_children() == []


def threads_after_a_pinned_matmul(_):
    """The number of threads of the process running this task, after a
    matmul inside `net._one_blas_thread`, as `train` runs in a worker."""
    with net._one_blas_thread():
        np.ones((200, 200)) @ np.ones((200, 200))
    return len(os.listdir("/proc/self/task"))


@pytest.mark.skipif(net._openblas_threads() is None or not os.path.isdir("/proc/self/task"),
                    reason="needs numpy's OpenBLAS and /proc/self/task")
@pytest.mark.parametrize("jobs", [1, 2])
def test_pool_workers_start_no_blas_thread(blas_count, jobs):
    """A worker forks from a pinned parent and calls no OpenBLAS setter,
    so it runs on its own thread alone, although this process's BLAS
    threads were running when the pool opened.  (A setter call in the
    child starts an OpenBLAS thread there, which spins.)"""
    np.ones((500, 500)) @ np.ones((500, 500))
    counts = experiments._in_workers(threads_after_a_pinned_matmul, [(i,) for i in range(2)], jobs)
    assert counts == [1, 1]
    assert multiprocessing.active_children() == []


class RecordingPool:
    """Stands in for `ProcessPoolExecutor`: records the worker count and
    start method each pool asks for, and runs its tasks in this process."""

    def __init__(self, requests, max_workers, mp_context):
        requests.append((max_workers, mp_context.get_start_method()))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


def test_pools_never_ask_for_more_workers_than_trainings(tmp_path, monkeypatch):
    """A fork pool starts all its workers at once, so `jobs` (or the core
    count) above the number of trainings must not reach it.  No process
    is started: the executor is replaced by a recording stand-in."""
    requests = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        functools.partial(RecordingPool, requests))
    small_sweep(tmp_path / "sweep", jobs=1000, trainings=1)
    small_sweep(tmp_path / "sweep1", jobs=1, trainings=1)
    for cores in (1000, 1):
        monkeypatch.setattr(os, "cpu_count", lambda: cores)
        run_kick_ablation(DEV, TOY_CFG, 2.0, 5.0, 9, 1, data_seed=3, split_seed=0,
                          out_dir=tmp_path / f"ab{cores}", mean_total=1000.0)
    assert requests == [(2, "fork"), (1, "fork"), (2, "fork"), (1, "fork")]


@pytest.mark.parametrize("harness", ["generate_simulated", "run_grid_sweep",
                                     "run_kick_ablation", "noisy_draw"])
def test_library_rejects_negative_photon_budget(tmp_path, harness):
    """A negative budget is the CLI's "inherit" flag value; the CLI resolves
    it, so the library must fail on it rather than reinterpret it."""
    ds = toy_dataset()
    calls = {
        "generate_simulated": lambda: generate_simulated(
            build_grid(2.0, 5.0, 9), ds.kick, DEV, np.random.default_rng(0),
            mean_total=-1.0),
        "run_grid_sweep": lambda: small_sweep(tmp_path / "s", mean_total=-1.0),
        "run_kick_ablation": lambda: run_kick_ablation(
            DEV, TOY_CFG, 2.0, 5.0, 9, 1, data_seed=3, split_seed=0,
            out_dir=tmp_path / "a", mean_total=-1.0),
        "noisy_draw": lambda: noisy_draw(
            exact_feature_pool(ds, DEV), -1.0, 5, np.random.default_rng(0)),
    }
    with pytest.raises(InvalidParameterError, match="mean_total"):
        calls[harness]()

