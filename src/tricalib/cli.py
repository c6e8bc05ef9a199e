"""Command line front end.

One binary, eight subcommands:

    simulate      probabilities (optionally counts) at one voltage setting
    gen-dataset   simulate a kick-augmented training dataset -> CSV
    train         fit the regressor on a dataset CSV -> checkpoint, report, curves
    predict       invert one 12-probability feature vector -> voltages
    evaluate      repeated noisy test protocol; repetition 0 per point -> results.csv
    sweep-grid    grid-size study (fresh dataset and trainings per size)
    ablate-kicks  paired kicked vs unkicked comparison
    surface       evaluate with one repetition of grid sampling (--n-new points)

Config files can be overridden by flags; flags win.  All randomness is
controlled by explicit seed flags, and identical command lines with
identical inputs produce byte-identical output files.  Failures exit
with the category codes documented in `tricalib.errors` (argparse usage
errors exit 2, missing files and other OS errors exit 10).  Numeric
flags spell numbers as the file readers do (`config.parse_int` and
`config.parse_float`), so `--epochs 1_0` is a usage error, as is a
negative seed.
"""

import argparse
import contextlib
import hashlib
import os
import sys

import numpy as np

from . import config as cfgmod
from . import data as datamod
from .config import format_value, format_values, write_report, write_rows_csv
from .data import N_FEATURES, N_TARGETS
from .device import phases_from_voltages, sample_counts, voltage_probabilities
from .errors import CalibrationError, CheckpointError, InvalidParameterError
from .experiments import (
    SweepConfig,
    exact_feature_pool,
    run_grid_sweep,
    run_kick_ablation,
    train_config_pairs,
    train_on_dataset,
    uniform_feature_pool,
)
from .metrics import mean_and_sd, repeated_test_evaluation
from .net import TrainConfig, _one_blas_thread, load_checkpoint, predict, save_checkpoint

# Reference seeds for the reproducible default pipeline.
DEFAULT_DATA_SEED = 7
DEFAULT_TRAIN_SEED = 3
DEFAULT_SPLIT_SEED = 20
DEFAULT_EVAL_SEED = 11

OS_ERROR_EXIT = 10


def _parse_floats_arg(text, n, what):
    try:
        values = np.array(cfgmod.split_floats(text))
    except ValueError:
        raise InvalidParameterError(f"{what} contains a non-numeric value: {text!r}")
    if len(values) != n:
        raise InvalidParameterError(f"{what} needs {n} comma-separated values, got {len(values)}")
    return values


def _parse_seed(text):
    """A seed flag: an integer as `config.parse_int` spells it, and not
    negative, since numpy's generators refuse a negative seed."""
    try:
        seed = cfgmod.parse_int(text)
        if seed >= 0:
            return seed
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")


def _parse_int_list(text, what):
    """A comma-separated integer flag such as --hidden or --sizes."""
    try:
        return tuple(cfgmod.parse_int(p) for p in text.split(","))
    except ValueError:
        raise InvalidParameterError(f"bad {what} list {text!r}")


def _mean_total(counts_flag, device, dataset=None):
    """Map the --counts convention onto a mean photon budget.

    negative -> inherit (the dataset's mean_total unless None, else device config),
    0 -> noise-free, positive -> that many expected counts per input.
    A dataset not `Dataset.simulated` inherits no fresh noise: its features
    already carry their measured noise, and a `mean_total` it records is
    the budget that noise was taken at, not one to spend again.
    This is the only place the convention is resolved: the library takes
    the resulting photon count, or None for noise-free.
    """
    if counts_flag < 0:
        if dataset is not None and not dataset.simulated:
            return None
        if dataset is not None and dataset.mean_total is not None:
            return dataset.mean_total
        return device.mean_total
    if counts_flag == 0:
        return None
    return float(counts_flag)


def _train_config(args, seed):
    return TrainConfig(
        max_epochs=args.epochs,
        batch_size=args.batch_size,
        learning_rate=args.lr,
        patience=args.patience,
        seed=seed,
        hidden=_parse_int_list(args.hidden, "hidden layer"),
    )


def _add_train_flags(sp):
    cfg = TrainConfig()
    sp.add_argument("--epochs", type=cfgmod.parse_int, default=cfg.max_epochs,
                    help="maximum training epochs")
    sp.add_argument("--batch-size", type=cfgmod.parse_int, default=cfg.batch_size)
    sp.add_argument("--lr", type=cfgmod.parse_float, default=cfg.learning_rate,
                    help="Adam learning rate")
    sp.add_argument("--patience", type=cfgmod.parse_int, default=cfg.patience,
                    help="epochs without validation improvement before stopping")
    sp.add_argument("--hidden", default=",".join(str(h) for h in cfg.hidden),
                    help="comma-separated hidden layer widths")


def _add_grid_flags(sp):
    sp.add_argument("--grid", type=cfgmod.parse_int, default=cfgmod.GRID_N,
                    help="grid points per voltage axis")
    sp.add_argument("--grid-min", type=cfgmod.parse_float, default=cfgmod.GRID_V_MIN)
    sp.add_argument("--grid-max", type=cfgmod.parse_float, default=cfgmod.GRID_V_MAX)


def _add_evaluation_flags(sp):
    """The flags evaluate and surface share: model, test pool, output, seed, budget."""
    sp.add_argument("-m", "--model", required=True, help="checkpoint path")
    sp.add_argument("-i", "--input", required=True, help="dataset CSV (test pool)")
    sp.add_argument("-o", "--output", required=True, help="results directory")
    sp.add_argument("--seed", type=_parse_seed, default=DEFAULT_EVAL_SEED)
    sp.add_argument("--counts", type=cfgmod.parse_float, default=-1,
                    help="photon budget for fresh noise; -1 = dataset/device, 0 = none")


# ---------------------------------------------------------------- handlers


def cmd_simulate(args):
    device = cfgmod.resolve_device_config(args.device_config)
    mean_total = _mean_total(args.counts, device)
    v = _parse_floats_arg(args.volts, 2, "--volts")
    phases = phases_from_voltages(v, device)
    probs = voltage_probabilities(v, device)
    lines = [f"phases = {format_values(phases)}", f"probabilities = {format_values(probs)}"]
    if mean_total is not None:
        counts = sample_counts(probs, mean_total, np.random.default_rng(args.seed))
        lines.append("counts = " + " ".join(str(int(c)) for c in counts))
    # printed once every value is in hand, so a failed draw prints no result
    print("\n".join(lines))
    return 0


def cmd_gen_dataset(args):
    device = cfgmod.resolve_device_config(args.device_config)
    axis = datamod.build_grid(args.grid_min, args.grid_max, args.grid)
    kick = datamod.kick_from_steps(axis, args.kick_steps)
    mean_total = _mean_total(args.counts, device)
    rng = np.random.default_rng(args.seed)
    ds = datamod.generate_simulated(axis, kick, device, rng,
                                    mean_total=mean_total, replicas=args.replicas)
    datamod.write_csv(ds, args.output)
    print(f"wrote {len(ds)} examples to {args.output}")
    return 0


def _file_sha256(path):
    """SHA-256 of a file, read in 64 KiB blocks so it never sits whole in memory."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()


@contextlib.contextmanager
def _made_dirs(*paths):
    """Make each directory of `paths` with its missing parents.  If the
    block then fails, remove each directory made here that is still
    empty, deepest first; one that existed before is never touched.  A
    plain file on a path fails `os.mkdir` here, before the block runs."""
    made = []
    try:
        for path in paths:
            missing, head = [], os.path.normpath(path)
            while head and not os.path.isdir(head):
                missing.append(head)
                head = os.path.dirname(head)
            for d in reversed(missing):
                os.mkdir(d)
                made.append(d)
        yield
    except BaseException:
        for d in reversed(made):
            with contextlib.suppress(OSError):
                os.rmdir(d)
        raise


def cmd_train(args):
    ds = datamod.read_csv(args.input)
    cfg = _train_config(args, args.seed)
    model_dir = os.path.dirname(args.output) or "."
    report_dir = args.report_dir or model_dir
    # made before training, so an unwritable path fails in seconds
    with _made_dirs(model_dir, report_dir):
        params, scaling, report, val_raw = train_on_dataset(ds, cfg, args.split_seed)
        provenance = _file_sha256(args.input)
        save_checkpoint(args.output, params, ds.kick, scaling, provenance=provenance)
        write_rows_csv(os.path.join(report_dir, "curves.csv"),
                       ["epoch", "train_loss", "val_loss", "val_nrmse", "val_cosine"],
                       [(ep, report.train_loss[ep], report.val_loss[ep],
                         report.val_nrmse[ep], report.val_cosine[ep])
                        for ep in range(report.epochs_run)])
        best = report.best_epoch
        write_report(os.path.join(report_dir, "report.txt"), [
            ("command", "train"),
            ("input_sha256", provenance),
            ("examples", len(ds)),
            ("validation_examples", len(val_raw)),
            ("seed", args.seed),
            ("split_seed", args.split_seed),
            *train_config_pairs(cfg),
            ("epochs_run", report.epochs_run),
            ("best_epoch", best),
            ("best_val_loss", report.val_loss[best]),
            ("val_nrmse", report.val_nrmse[best]),
            ("val_cosine", report.val_cosine[best]),
            ("normalization_span_volts", scaling.pooled_span()),
        ])
    print(f"best_epoch = {best}")
    print(f"val_nrmse = {format_value(report.val_nrmse[best])}")
    print(f"val_cosine = {format_value(report.val_cosine[best])}")
    print(f"wall_clock_s = {report.wall_clock:.1f}", file=sys.stderr)
    return 0


def _load_model(path):
    """The checkpoint at `path`, refused (exit 7) unless its layer sizes
    run from N_FEATURES inputs to N_TARGETS outputs."""
    ckpt = load_checkpoint(path)
    if ckpt.sizes[0] != N_FEATURES or ckpt.sizes[-1] != N_TARGETS:
        raise CheckpointError(f"model has layer sizes {ckpt.sizes}; a calibration model maps "
                              f"{N_FEATURES} inputs to {N_TARGETS} outputs")
    return ckpt


def cmd_predict(args):
    ckpt = _load_model(args.model)
    feats = _parse_floats_arg(args.probs, N_FEATURES, "--probs")
    if datamod.bad_feature_rows([feats]).size:
        raise InvalidParameterError(
            "--probs holds no acquisition's frequencies: each value must lie in [0, 1] and "
            f"each input's three must sum to 1 within {datamod.FEATURE_SUM_TOLERANCE}")
    volts = predict(ckpt.params, feats, ckpt.scaling)
    print(f"v1 = {format_value(volts[0])}")
    print(f"v2 = {format_value(volts[1])}")
    print(f"consistency_residual = {format_value(ckpt.kick.residual(volts))}")
    return 0


def cmd_evaluate(args):
    device = cfgmod.resolve_device_config(args.device_config)
    ckpt = _load_model(args.model)
    ds = datamod.read_csv(args.input)
    mean_total = _mean_total(args.counts, device, ds)
    rng = np.random.default_rng(args.seed)
    if args.sampling == "grid":
        pool_probs, pool_targets = exact_feature_pool(ds, device), ds.targets
    else:
        pool_probs, pool_targets = uniform_feature_pool(ds, device, rng)
    span = ckpt.scaling.pooled_span()
    rep_nrmse, rep_cosine, (truth, volts) = repeated_test_evaluation(
        lambda feats: predict(ckpt.params, feats, ckpt.scaling),
        pool_probs, pool_targets, mean_total, span,
        rep_count=args.reps, rep_size=args.rep_size, rng=rng)
    nrmse_mean, nrmse_sd = mean_and_sd(rep_nrmse)
    cosine_mean, cosine_sd = mean_and_sd(rep_cosine)
    os.makedirs(args.output, exist_ok=True)
    write_rows_csv(os.path.join(args.output, "reps.csv"),
                   ["rep", "nrmse", "cosine"],
                   [(r, rep_nrmse[r], rep_cosine[r]) for r in range(args.reps)])
    dv1, dv2 = volts[:, 0] - truth[:, 0], volts[:, 1] - truth[:, 1]
    write_rows_csv(
        os.path.join(args.output, "results.csv"),
        ["true_v1", "true_v2", "pred_v1", "pred_v2", "error", "consistency_residual"],
        zip(truth[:, 0], truth[:, 1], volts[:, 0], volts[:, 1], np.sqrt(dv1**2 + dv2**2),
            ckpt.kick.residual(volts)))
    pairs = [
        ("command", "evaluate"),
        ("model_provenance", ckpt.provenance),
        ("sampling", args.sampling),
        ("mean_total", mean_total),
        ("normalization_span_volts", span),
        ("repetitions", args.reps),
        ("examples_per_repetition", args.rep_size),
        ("seed", args.seed),
        ("nrmse_mean", nrmse_mean),
        ("nrmse_sd", nrmse_sd),
        ("cosine_mean", cosine_mean),
        ("cosine_sd", cosine_sd),
        ("spread_degenerate", args.reps < 2),
    ]
    # measured data get no fresh noise, so scoring a model on its own
    # training file scores the rows it was fitted to
    if not ds.simulated and _file_sha256(args.input) == ckpt.provenance:
        pairs.append(("in_sample", True))
    write_report(os.path.join(args.output, "report.txt"), pairs)
    print(f"nrmse = {format_value(nrmse_mean)} +- {format_value(nrmse_sd)}")
    print(f"cosine = {format_value(cosine_mean)} +- {format_value(cosine_sd)}")
    return 0


def cmd_sweep_grid(args):
    device = cfgmod.resolve_device_config(args.device_config)
    sweep = SweepConfig(grid_sizes=_parse_int_list(args.sizes, "grid size"),
                        trainings_per_size=args.trainings,
                        test_size=args.test_size)
    run_grid_sweep(
        device, sweep, _train_config(args, args.train_seed),
        args.grid_min, args.grid_max, args.kick_steps,
        data_seed=args.data_seed, eval_seed=args.eval_seed, split_seed=args.split_seed,
        out_dir=args.output, mean_total=_mean_total(args.counts, device),
        jobs=args.jobs)
    print(f"sweep results in {args.output}")
    return 0


def cmd_ablate_kicks(args):
    device = cfgmod.resolve_device_config(args.device_config)
    cfg = _train_config(args, args.train_seed)
    rmse_with, rmse_without, improvement = run_kick_ablation(
        device, cfg, args.grid_min, args.grid_max, args.grid, args.kick_steps,
        data_seed=args.data_seed, split_seed=args.split_seed,
        out_dir=args.output, mean_total=_mean_total(args.counts, device))
    print(f"rmse_with_kick = {format_value(rmse_with)}")
    print(f"rmse_without_kick = {format_value(rmse_without)}")
    print(f"improvement_fraction = {format_value(improvement)}")
    return 0


# ------------------------------------------------------------------ parser


def build_parser():
    ap = argparse.ArgumentParser(
        prog="tricalib",
        description="Neural-network calibration of a simulated two-phase "
                    "three-mode interferometer.")
    sub = ap.add_subparsers(dest="subcommand", required=True)

    # device=False for the commands that never read the device model
    def add(name, func, help_text, device=True):
        sp = sub.add_parser(name, help=help_text)
        sp.set_defaults(func=func)
        if device:
            sp.add_argument("--device-config", default=None,
                            help=f"device config file (default: "
                                 f"${cfgmod.CONFIG_DIR_ENV}/{cfgmod.CONFIG_FILE_NAME} "
                                 f"or built-in defaults)")
        return sp

    sp = add("simulate", cmd_simulate, "model probabilities at one setting")
    sp.add_argument("--volts", required=True, help="one setting 'v1,v2'; prints to stdout")
    sp.add_argument("--counts", type=cfgmod.parse_float, default=0,
                    help="photon budget; 0 = exact probabilities, -1 = device config")
    sp.add_argument("--seed", type=_parse_seed, default=DEFAULT_DATA_SEED)

    sp = add("gen-dataset", cmd_gen_dataset, "simulate a kick-augmented dataset")
    _add_grid_flags(sp)
    sp.add_argument("--kick-steps", type=cfgmod.parse_int, default=cfgmod.KICK_STEPS,
                    help="kick offset in grid steps (both axes)")
    sp.add_argument("--counts", type=cfgmod.parse_float, default=-1,
                    help="photon budget per input; -1 = device config, 0 = noise-free")
    sp.add_argument("--replicas", type=cfgmod.parse_int, default=1,
                    help="independent noise draws per grid setting")
    sp.add_argument("--seed", type=_parse_seed, default=DEFAULT_DATA_SEED)
    sp.add_argument("-o", "--output", required=True, help="dataset CSV path")

    sp = add("train", cmd_train, "train the regressor on a dataset CSV", device=False)
    sp.add_argument("-i", "--input", required=True, help="dataset CSV")
    sp.add_argument("-o", "--output", required=True, help="checkpoint path (dir is created)")
    sp.add_argument("--report-dir", default=None,
                    help="where report.txt and curves.csv go (default: checkpoint dir)")
    sp.add_argument("--seed", type=_parse_seed, default=DEFAULT_TRAIN_SEED)
    sp.add_argument("--split-seed", type=_parse_seed, default=DEFAULT_SPLIT_SEED)
    _add_train_flags(sp)

    sp = add("predict", cmd_predict, "invert one feature vector", device=False)
    sp.add_argument("-m", "--model", required=True, help="checkpoint path")
    sp.add_argument("--probs", required=True,
                    help="12 comma-separated probabilities (base then kicked)")

    sp = add("evaluate", cmd_evaluate, "repeated noisy test evaluation")
    _add_evaluation_flags(sp)
    sp.add_argument("--reps", type=cfgmod.parse_int, default=500)
    sp.add_argument("--rep-size", type=cfgmod.parse_int, default=100)
    sp.add_argument("--sampling", choices=("grid", "uniform"), default="grid",
                    help="test points: dataset grid points, or uniform off-grid draws")

    sp = add("sweep-grid", cmd_sweep_grid, "grid-size study")
    sweep = SweepConfig()
    sp.add_argument("--sizes", default=",".join(str(s) for s in sweep.grid_sizes))
    sp.add_argument("--trainings", type=cfgmod.parse_int, default=sweep.trainings_per_size,
                    help="trainings per size")
    sp.add_argument("--test-size", type=cfgmod.parse_int, default=sweep.test_size)
    sp.add_argument("--grid-min", type=cfgmod.parse_float, default=cfgmod.GRID_V_MIN)
    sp.add_argument("--grid-max", type=cfgmod.parse_float, default=cfgmod.GRID_V_MAX)
    sp.add_argument("--kick-steps", type=cfgmod.parse_int, default=cfgmod.KICK_STEPS)
    sp.add_argument("--counts", type=cfgmod.parse_float, default=-1)
    sp.add_argument("--data-seed", type=_parse_seed, default=DEFAULT_DATA_SEED)
    sp.add_argument("--train-seed", type=_parse_seed, default=DEFAULT_TRAIN_SEED)
    sp.add_argument("--eval-seed", type=_parse_seed, default=DEFAULT_EVAL_SEED)
    sp.add_argument("--split-seed", type=_parse_seed, default=DEFAULT_SPLIT_SEED)
    sp.add_argument("--jobs", type=cfgmod.parse_int, default=1,
                    help="trainings run at once, in forked worker processes; "
                         "results do not depend on it")
    sp.add_argument("-o", "--output", required=True)
    _add_train_flags(sp)

    sp = add("ablate-kicks", cmd_ablate_kicks, "kicked vs unkicked comparison")
    _add_grid_flags(sp)
    sp.add_argument("--kick-steps", type=cfgmod.parse_int, default=cfgmod.KICK_STEPS)
    sp.add_argument("--counts", type=cfgmod.parse_float, default=-1,
                    help="per-acquisition photon budget (bare variant gets 2x); "
                         "-1 = device config, 0 = noise-free")
    sp.add_argument("--data-seed", type=_parse_seed, default=DEFAULT_DATA_SEED)
    sp.add_argument("--train-seed", type=_parse_seed, default=DEFAULT_TRAIN_SEED)
    sp.add_argument("--split-seed", type=_parse_seed, default=DEFAULT_SPLIT_SEED)
    sp.add_argument("-o", "--output", required=True)
    _add_train_flags(sp)

    sp = add("surface", cmd_evaluate, "evaluate with one repetition of grid sampling")
    sp.set_defaults(reps=1, sampling="grid")
    _add_evaluation_flags(sp)
    sp.add_argument("--n-new", dest="rep_size", metavar="N_NEW", type=cfgmod.parse_int,
                    default=100, help="test points drawn")
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        with _one_blas_thread():
            return args.func(args)
    except CalibrationError as exc:
        print(f"error[{exc.category}]: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error[os]: {exc}", file=sys.stderr)
        return OS_ERROR_EXIT


if __name__ == "__main__":
    sys.exit(main())
