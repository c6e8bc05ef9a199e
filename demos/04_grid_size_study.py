"""How much training data does the calibration need?

Sweeps the measurement grid density, training several networks per
size, and evaluates every one of them on the same fixed test pool with
fresh shot noise.  Error falls and cosine similarity climbs as the grid
gets denser; the spread across repeated trainings shrinks too.

This is the reduced version of

    tricalib sweep-grid --sizes 10,15,20,30,40,53 --trainings 50 -o out/

which reproduces the trend at full scale (budget ~1 h with --jobs 4).

Run:  python3 demos/04_grid_size_study.py
"""

import tempfile
from pathlib import Path

from tricalib.config import default_device_config
from tricalib.experiments import SweepConfig, run_grid_sweep
from tricalib.net import TrainConfig

dev = default_device_config()
out = Path(tempfile.mkdtemp(prefix="tricalib_sweep_"))

summary = run_grid_sweep(
    dev,
    SweepConfig(grid_sizes=(8, 15, 25), trainings_per_size=3, test_size=60),
    TrainConfig(max_epochs=60, patience=15, seed=0, hidden=(100, 100)),
    grid_min=1.0, grid_max=7.0, kick_steps=2,
    data_seed=7, train_seed=3, eval_seed=11, split_seed=20,
    out_dir=out, mean_total=dev.mean_total, jobs=3)

print(f"{'grid':>6s} {'examples':>9s} {'val NRMSE':>16s} {'test cosine':>18s}")
for size, n_runs, nm, nsd, cm, csd in summary:
    print(f"{size:4d}^2 {size * size:9d} {nm:9.4f} +- {nsd:.4f} "
          f"{cm:11.5f} +- {csd:.5f}")

print(f"\nper-run rows in {out}/runs.csv, summary in {out}/results.csv")
print("The kick offset is fixed in volts (2 steps of the largest grid), so")
print("all sizes describe the same physical acquisition protocol and only")
print("the number of measured settings changes.")
