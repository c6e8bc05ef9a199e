"""End-to-end study harnesses: grid-size sweep and kick ablation.

Every harness is deterministic given its seeds, reads one resolved
configuration, and writes a results directory containing

    config.echo   the settings actually used, key = value
    results.csv   the study's table (plus runs.csv for per-run rows)
    report.txt    headline numbers, key = value

Wall-clock timings never enter these files, so repeated runs with the
same seeds are byte-identical.
"""

import os
from dataclasses import dataclass, replace

import numpy as np

from .config import write_report, write_rows_csv
from .data import (
    Dataset,
    build_grid,
    exact_features,
    generate_simulated,
    kick_from_steps,
    split,
)
from .device import DeviceConfig, voltage_probabilities
from .errors import InvalidParameterError
from .metrics import cosine_similarity, fresh_noise, mean_and_sd, noisy_draw
from .net import TrainConfig, _one_blas_thread, predict, train

__all__ = [
    "SweepConfig",
    "train_on_dataset",
    "train_config_pairs",
    "exact_feature_pool",
    "uniform_feature_pool",
    "run_grid_sweep",
    "run_kick_ablation",
]

DEFAULT_SWEEP_SIZES = (10, 15, 20, 30, 40, 53)
VAL_FRACTION = 0.15


@dataclass(frozen=True)
class SweepConfig:
    grid_sizes: tuple = DEFAULT_SWEEP_SIZES
    trainings_per_size: int = 50
    test_size: int = 100

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.grid_sizes)
        if not sizes or sizes[0] < 2 or any(a >= b for a, b in zip(sizes, sizes[1:])):
            raise InvalidParameterError("sweep sizes must be strictly ascending and >= 2")
        if self.trainings_per_size < 1 or self.test_size < 1:
            raise InvalidParameterError("trainings per size and test size must be >= 1")
        object.__setattr__(self, "grid_sizes", sizes)


def _combine(base_seed: int, size: int, run: int) -> int:
    # deterministic per-(size, run) seed derivation, documented in config.echo
    return base_seed * 1_000_000 + size * 1_000 + run


def train_on_dataset(dataset: Dataset, cfg: TrainConfig, split_seed: int):
    """Split off VAL_FRACTION for validation, then train (which fits the
    target scaling on the train split).

    Returns (params, scaling, report, val_split), `train`'s result plus
    the validation split, which carries volt targets.
    """
    train_ds, val_ds = split(dataset, VAL_FRACTION, np.random.default_rng(split_seed))
    params, scaling, report = train(train_ds, val_ds, cfg)
    return params, scaling, report, val_ds


def _in_workers(task, arg_lists, jobs):
    """`[task(*args) for args in arg_lists]`, computed in
    `min(jobs, len(arg_lists))` forked worker processes.

    `fork` is asked for by name: the `forkserver` default of newer
    Pythons leaves its server process running after the command, and
    under `fork` the pool's semaphores are unlinked at once, so no
    resource-tracker process starts either.  The `with` block joins every
    worker on success and on error; a task's exception, pickled back
    from its worker, is raised here.  The pool opens inside
    `net._one_blas_thread`, so every worker forks with OpenBLAS on one
    thread and the pin already held: a whole task, its forward passes
    outside `net.train` included, runs single-threaded, and `train`'s
    own pin in a worker calls no setter (one there would start a
    spinning OpenBLAS thread in the child).
    """
    # imported here: `multiprocessing` costs every other command start-up time
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with _one_blas_thread(), ProcessPoolExecutor(
            max_workers=min(jobs, len(arg_lists)),
            mp_context=multiprocessing.get_context("fork")) as pool:
        return list(pool.map(task, *zip(*arg_lists)))


def train_config_pairs(cfg: TrainConfig):
    """The `key = value` pairs of the training settings a result file records."""
    return [("max_epochs", cfg.max_epochs), ("batch_size", cfg.batch_size),
            ("learning_rate", cfg.learning_rate), ("patience", cfg.patience),
            ("hidden", ",".join(map(str, cfg.hidden)))]


def exact_feature_pool(dataset: Dataset, device: DeviceConfig):
    """Noise-free feature probabilities for every example of a dataset.

    `Dataset.simulated` data are re-evaluated through the device model at
    their target voltages; for any other data the stored probabilities
    are the best available stand-in for the truth.
    """
    if dataset.simulated:
        return exact_features(dataset.targets, device)
    return dataset.features


def uniform_feature_pool(dataset: Dataset, device: DeviceConfig, rng: np.random.Generator):
    """Off-grid test pool: noise-free (features, targets) at uniform draws.

    Draws len(dataset) base settings uniformly over the dataset's base
    target box and pairs each with its kicked setting.  Only
    `Dataset.simulated` data have a device model behind them to evaluate
    off the grid.
    """
    if not dataset.simulated:
        raise InvalidParameterError("uniform (off-grid) sampling needs a simulated dataset")
    lo = dataset.targets[:, :2].min(axis=0)
    hi = dataset.targets[:, :2].max(axis=0)
    base = rng.uniform(lo, hi, size=(len(dataset), 2))
    targets = np.concatenate([base, base + dataset.kick.offset()], axis=-1)
    return exact_features(targets, device), targets


def _sweep_run(dataset, cfg, split_seed, test_probs, test_targets, eval_seed):
    """One sweep training, then one fresh-noise draw of the fixed test
    rows at the dataset's photon budget: (best val NRMSE, test cosine)."""
    params, scaling, report, _ = train_on_dataset(dataset, cfg, split_seed)
    idx, feats = noisy_draw(test_probs, dataset.mean_total, len(test_targets),
                            np.random.default_rng(eval_seed))
    # cosine goes over the full 4-target concatenation of the test draw
    cosine = cosine_similarity(test_targets[idx], predict(params, feats, scaling))
    return report.val_nrmse[report.best_epoch], cosine


def run_grid_sweep(
    device: DeviceConfig,
    sweep: SweepConfig,
    train_cfg: TrainConfig,
    grid_min: float,
    grid_max: float,
    kick_steps: int,
    data_seed: int,
    eval_seed: int,
    split_seed: int,
    out_dir,
    mean_total: float | None,
    jobs: int = 1,
):
    """Training-set-size study.

    The kick offset is fixed in volts (kick_steps steps of the largest
    grid) so every size trains and tests the same physical acquisition.
    The 100-example test pool is drawn once from the largest dataset's
    settings, at their exact probabilities, and held fixed; each run sees
    it with its own fresh shot noise.  Run `run` of size `size` trains with
    seed `_combine(train_cfg.seed, size, run)`.  Returns the summary rows.

    Trainings run in `jobs` forked worker processes (never more than
    there are trainings), each on one OpenBLAS thread (`_in_workers`).
    Every training has its own seeds, so the files are identical for any
    `jobs`.  The output directory is made only once every training has
    returned, so a failed training leaves none behind.
    """
    if jobs < 1:
        raise InvalidParameterError("jobs must be >= 1")
    sizes = sweep.grid_sizes
    largest = sizes[-1]
    kick = kick_from_steps(build_grid(grid_min, grid_max, largest), kick_steps)

    datasets = {}
    for size in sizes:
        axis = build_grid(grid_min, grid_max, size)
        rng = np.random.default_rng(_combine(data_seed, size, 0))
        datasets[size] = generate_simulated(axis, kick, device, rng, mean_total=mean_total)

    pick, test_probs = noisy_draw(exact_feature_pool(datasets[largest], device), None,
                                  sweep.test_size, np.random.default_rng(_combine(eval_seed, 0, 0)))
    test_targets = datasets[largest].targets[pick]

    keys = [(size, run) for size in sizes for run in range(sweep.trainings_per_size)]
    results = _in_workers(_sweep_run, [
        (datasets[size], replace(train_cfg, seed=_combine(train_cfg.seed, size, run)), split_seed,
         test_probs, test_targets, _combine(eval_seed, size, run))
        for size, run in keys], jobs)
    per_run = dict(zip(keys, results))
    os.makedirs(out_dir, exist_ok=True)

    run_rows = [(size, run, *per_run[(size, run)]) for size, run in keys]
    summary_rows = []
    for size in sizes:
        nr, cs = zip(*(per_run[(size, r)] for r in range(sweep.trainings_per_size)))
        summary_rows.append((size, len(nr), *mean_and_sd(nr), *mean_and_sd(cs)))

    write_report(os.path.join(out_dir, "config.echo"), [
        ("harness", "sweep-grid"),
        ("grid_sizes", " ".join(str(s) for s in sizes)),
        ("trainings_per_size", sweep.trainings_per_size),
        ("test_size", sweep.test_size),
        ("grid_min", grid_min), ("grid_max", grid_max),
        ("kick_steps_of_largest_grid", kick_steps),
        ("kick_dv1", kick.dv1), ("kick_dv2", kick.dv2),
        ("mean_total", mean_total),
        ("val_fraction", VAL_FRACTION),
        ("data_seed", data_seed), ("train_seed", train_cfg.seed),
        ("eval_seed", eval_seed), ("split_seed", split_seed),
        ("seed_rule", "base*1000000 + size*1000 + run"),
        *train_config_pairs(train_cfg),
    ])
    write_rows_csv(os.path.join(out_dir, "runs.csv"),
                   ["size", "run", "val_nrmse", "test_cosine"], run_rows)
    write_rows_csv(
        os.path.join(out_dir, "results.csv"),
        ["size", "n_runs", "val_nrmse_mean", "val_nrmse_sd",
         "test_cosine_mean", "test_cosine_sd"],
        summary_rows)
    report_pairs = [("harness", "sweep-grid")]
    for size, n_runs, nm, nsd, cm, csd in summary_rows:
        report_pairs += [
            (f"size_{size}_val_nrmse_mean", nm),
            (f"size_{size}_val_nrmse_sd", nsd),
            (f"size_{size}_test_cosine_mean", cm),
            (f"size_{size}_test_cosine_sd", csd),
        ]
        if n_runs < 2:
            report_pairs.append((f"size_{size}_spread_degenerate", True))
    write_report(os.path.join(out_dir, "report.txt"), report_pairs)
    return summary_rows


def _ablation_run(dataset, cfg, split_seed):
    """One ablation training: (validation RMSE in volts, best epoch)."""
    params, scaling, report, val_raw = train_on_dataset(dataset, cfg, split_seed)
    err = predict(params, val_raw.features, scaling) - val_raw.targets
    return float(np.sqrt((err**2).mean())), report.best_epoch


def run_kick_ablation(
    device: DeviceConfig,
    train_cfg: TrainConfig,
    grid_min: float,
    grid_max: float,
    grid_n: int,
    kick_steps: int,
    data_seed: int,
    split_seed: int,
    out_dir,
    mean_total: float | None,
):
    """Paired comparison of the kicked network against a bare one.

    The unkicked variant sees only six base probabilities and predicts
    the two base voltages, but keeps the same hidden layers, the same
    settings, the same split and the same training seed.  Because a
    kicked example is built from two acquisitions, the bare variant's
    counts are drawn at twice the per-acquisition budget: both variants
    then see the same total photon number, and the improvement fraction
    isolates what the kick's structure adds, not the extra counts.  Pass
    mean_total=None to compare on exact probabilities instead (no noise
    at all).

    The two trainings run in forked worker processes on one OpenBLAS
    thread each (`_in_workers`; at most `os.cpu_count()` workers), and
    the output directory is made only once both have returned.  Returns
    (rmse_with, rmse_without, improvement_fraction), validation RMSE in volts.
    """
    axis = build_grid(grid_min, grid_max, grid_n)
    kick = kick_from_steps(axis, kick_steps)
    rng = np.random.default_rng(_combine(data_seed, grid_n, 0))
    kicked_ds = generate_simulated(axis, kick, device, rng, mean_total=mean_total)
    bare_budget = None if mean_total is None else 2.0 * mean_total
    bare_feats = fresh_noise(voltage_probabilities(kicked_ds.targets[:, :2], device),
                             bare_budget, rng)
    bare_ds = replace(kicked_ds, features=bare_feats,
                      targets=kicked_ds.targets[:, :2], mean_total=bare_budget)
    (rmse_with, best_with), (rmse_without, best_without) = _in_workers(
        _ablation_run, [(kicked_ds, train_cfg, split_seed), (bare_ds, train_cfg, split_seed)],
        os.cpu_count() or 1)
    improvement = 1.0 - rmse_with / rmse_without
    os.makedirs(out_dir, exist_ok=True)

    write_report(os.path.join(out_dir, "config.echo"), [
        ("harness", "ablate-kicks"),
        ("grid_min", grid_min), ("grid_max", grid_max), ("grid_n", grid_n),
        ("kick_steps", kick_steps),
        ("kick_dv1", kick.dv1), ("kick_dv2", kick.dv2),
        ("mean_total", mean_total),
        ("mean_total_bare", bare_budget),
        ("val_fraction", VAL_FRACTION),
        ("data_seed", data_seed), ("split_seed", split_seed),
        ("train_seed", train_cfg.seed),
        *train_config_pairs(train_cfg),
    ])
    write_rows_csv(
        os.path.join(out_dir, "results.csv"),
        ["variant", "n_inputs", "n_outputs", "mean_total", "best_epoch",
         "val_rmse_volts"],
        [("with_kick", 12, 4, mean_total, best_with, rmse_with),
         ("without_kick", 6, 2, bare_budget, best_without, rmse_without)])
    write_report(os.path.join(out_dir, "report.txt"), [
        ("rmse_with_kick_volts", rmse_with),
        ("rmse_without_kick_volts", rmse_without),
        ("improvement_fraction", improvement),
    ])
    return rmse_with, rmse_without, improvement

