"""Acceptance gate: the eight headline requirements, one PASS/FAIL line
each.  The expensive end-to-end checks share the session-wide default
pipeline fixture and re-derive every number from the artifact files, so
a green run here means the shipped defaults actually deliver."""

import time

import numpy as np

from tricalib.config import default_device_config
from tricalib.data import read_csv, write_csv
from tricalib.device import device_unitary, output_probabilities
from tricalib.errors import (
    CheckpointError,
    DegenerateDataError,
    FileFormatError,
    InvalidParameterError,
)
from tricalib.metrics import cosine_similarity, nrmse
from tricalib.net import backward, forward, init_he, load_checkpoint

from conftest import (
    PipelineArtifacts,
    flatten,
    kink_mask,
    numeric_gradient,
    read_report,
    run_cli,
)

DEV = default_device_config()


def announce(capsys, number, name, ok, detail=""):
    tail = f" ({detail})" if detail else ""
    with capsys.disabled():
        print(f"\nacceptance {number} {name}: {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"acceptance {number} {name} failed{tail}"


# 1 ------------------------------------------------------ model correctness


def test_criterion_1_unitarity(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    phases = rng.uniform(0.0, 4.0 * np.pi, size=(1000, 2))
    U = device_unitary(phases)
    gram = np.einsum("nij,nkj->nik", U.conj(), U)
    dev_unitary = np.abs(gram - np.eye(3)).max()
    probs = output_probabilities(phases)
    dev_rows = max(np.abs(probs[:, :3].sum(axis=1) - 1.0).max(),
                   np.abs(probs[:, 3:].sum(axis=1) - 1.0).max())
    elapsed = time.perf_counter() - t0
    ok = dev_unitary < 1e-12 and dev_rows < 1e-12 and elapsed < 1.0
    announce(capsys, 1, "model correctness", ok,
             f"unitarity {dev_unitary:.2e}, rows {dev_rows:.2e}, {elapsed:.2f} s")


# 2 ------------------------------------------------------- gradient fidelity


def test_criterion_2_gradients(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(2)
    worst = 0.0
    checked = 0
    while checked < 100:
        params = init_he([12, 8, 4], rng)
        X = rng.uniform(size=(4, 12))
        Y = rng.uniform(size=(4, 4))
        if not kink_mask(params, X, tol=1e-4):
            continue
        g = flatten(backward(params, X, Y))
        gn = numeric_gradient(params, X, Y)
        rel = (np.abs(g - gn) / np.maximum(np.abs(gn), 1e-8)).max()
        worst = max(worst, rel)
        checked += 1
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-5 and elapsed < 30.0
    announce(capsys, 2, "gradient fidelity", ok,
             f"100 networks, worst rel err {worst:.2e}, {elapsed:.1f} s")


# 3 ------------------------------------------------- end-to-end calibration


def test_criterion_3_default_pipeline(capsys, default_pipeline):
    val_nrmse = default_pipeline.train_report["val_nrmse"]
    cosine = default_pipeline.eval_report["cosine_mean"]
    reps = default_pipeline.eval_report["repetitions"]
    per_rep = default_pipeline.eval_report["examples_per_repetition"]
    elapsed = default_pipeline.wall_clock
    ok = (val_nrmse <= 0.03 and cosine >= 0.995
          and reps == 500 and per_rep == 100 and elapsed <= 15 * 60)
    announce(capsys, 3, "end-to-end calibration", ok,
             f"val NRMSE {val_nrmse:.4f} <= 0.03, "
             f"cosine {cosine:.4f} >= 0.995 over {reps}x{per_rep}, "
             f"{elapsed:.0f} s")


# 4 --------------------------------------------------------- kick mechanism


def test_criterion_4_kick_ablation(capsys, tmp_path):
    t0 = time.perf_counter()
    full_dir, sub_dir = tmp_path / "full", tmp_path / "sub"
    assert run_cli(["ablate-kicks", "-o", str(full_dir)]) == 0
    assert run_cli(["ablate-kicks", "--grid-min", "5.75", "--grid-max", "6.75",
                    "-o", str(sub_dir)]) == 0
    full = read_report(full_dir / "report.txt")["improvement_fraction"]
    sub = read_report(sub_dir / "report.txt")["improvement_fraction"]
    elapsed = time.perf_counter() - t0
    ok = full >= 0.5 and sub < 0.1 and elapsed <= 30 * 60
    announce(capsys, 4, "kick mechanism", ok,
             f"full-range improvement {full:.3f} >= 0.5, "
             f"injective sub-range {sub:.3f} < 0.1, {elapsed:.0f} s")


# 5 ------------------------------------------------- data-size monotonicity


def test_criterion_5_grid_size_monotonicity(capsys, tmp_path):
    t0 = time.perf_counter()
    out = tmp_path / "sweep"
    assert run_cli(["sweep-grid", "--sizes", "10,20,53", "--trainings", "5",
                    "--jobs", "4", "-o", str(out)]) == 0
    rows = [line.split(",") for line
            in (out / "results.csv").read_text().splitlines()[1:]]
    sizes = [int(r[0]) for r in rows]
    nr = [float(r[2]) for r in rows]
    cs = [float(r[4]) for r in rows]
    elapsed = time.perf_counter() - t0
    ok = (sizes == [10, 20, 53]
          and nr[0] > nr[1] > nr[2]
          and cs[0] < cs[1] < cs[2]
          and elapsed <= 45 * 60)
    announce(capsys, 5, "data-size monotonicity", ok,
             "NRMSE " + " > ".join(f"{x:.4f}" for x in nr)
             + ", cosine " + " < ".join(f"{x:.5f}" for x in cs)
             + f", {elapsed:.0f} s")


# 6 ------------------------------------------------------------ determinism


def test_criterion_6_determinism(capsys, default_pipeline, tmp_path):
    rerun = PipelineArtifacts(tmp_path).run()
    pairs = [
        (default_pipeline.dataset, rerun.dataset),
        (default_pipeline.checkpoint, rerun.checkpoint),
        (default_pipeline.report_dir / "report.txt", rerun.report_dir / "report.txt"),
        (default_pipeline.report_dir / "curves.csv", rerun.report_dir / "curves.csv"),
        (default_pipeline.eval_dir / "report.txt", rerun.eval_dir / "report.txt"),
        (default_pipeline.eval_dir / "reps.csv", rerun.eval_dir / "reps.csv"),
    ]
    same = [a.read_bytes() == b.read_bytes() for a, b in pairs]
    ok = all(same)
    announce(capsys, 6, "determinism", ok,
             f"{sum(same)}/{len(same)} artifact files byte-identical")


# 7 ----------------------------------------------------- metric unit checks


def test_criterion_7_metric_hand_cases(capsys):
    checks = [
        nrmse([1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0, 4.0], span=1.0) == 0.0,
        nrmse(np.zeros(4), np.ones(4), span=1.0) == 1.0,
        cosine_similarity([1.0, 2.0, 3.0], [2.0, 4.0, 6.0]) == 1.0,
        cosine_similarity([1.0, 0.0], [0.0, 1.0]) == 0.0,
        cosine_similarity([1.0, 2.0], [-1.0, -2.0]) == -1.0,
    ]
    ok = all(checks)
    announce(capsys, 7, "metric hand cases", ok,
             f"{sum(checks)}/{len(checks)} exact")


# 8 -------------------------------------------------------- format round-trips


def test_criterion_8_format_round_trips(capsys, default_pipeline, tmp_path):
    problems = []

    ds = read_csv(default_pipeline.dataset)
    copy_path = tmp_path / "copy.csv"
    write_csv(ds, copy_path)
    if copy_path.read_bytes() != default_pipeline.dataset.read_bytes():
        problems.append("dataset CSV round-trip not byte-identical")
    ds2 = read_csv(copy_path)
    if not (np.array_equal(ds.features, ds2.features)
            and np.array_equal(ds.targets, ds2.targets)):
        problems.append("dataset arrays drifted through CSV")

    ck = load_checkpoint(default_pipeline.checkpoint)
    probe = np.random.default_rng(0).uniform(size=(5, 12))
    out1 = forward(ck.params, probe)
    out2 = forward(load_checkpoint(default_pipeline.checkpoint).params, probe)
    if not np.array_equal(out1, out2):
        problems.append("checkpoint reload changed predictions")

    # documented rejection categories for corrupted inputs
    expectations = [
        ("file-format", 5, FileFormatError),
        ("checkpoint", 7, CheckpointError),
        ("degenerate-data", 4, DegenerateDataError),
        ("invalid-parameter", 3, InvalidParameterError),
    ]
    for category, code, cls in expectations:
        if cls.category != category or cls.exit_code != code:
            problems.append(f"{cls.__name__} category/exit mismatch")

    bad_csv = tmp_path / "bad.csv"
    bad_csv.write_text("not,the,header\n1,2,3\n")
    try:
        read_csv(bad_csv)
        problems.append("malformed CSV accepted")
    except FileFormatError:
        pass

    bad_ckpt = tmp_path / "bad.ckpt"
    bad_ckpt.write_text(
        default_pipeline.checkpoint.read_text().replace("provenance", "provenancX", 1))
    try:
        load_checkpoint(bad_ckpt)
        problems.append("corrupted checkpoint accepted")
    except CheckpointError:
        pass

    ok = not problems
    announce(capsys, 8, "format round-trips", ok,
             "lossless and guarded" if ok else "; ".join(problems))
