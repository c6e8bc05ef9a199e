"""What does the kick actually buy?  A paired ablation at desk scale.

Trains one network on kick-augmented examples (12 inputs -> 4 targets)
and one on bare examples (6 inputs -> 2 targets), same grid, same
split, same seeds.  The bare variant gets its counts at twice the
per-acquisition budget so both see the same total photon number; any
remaining gap is structural, not statistical.

On the full operating range the bare network faces ambiguous fringes
and loses badly.  On a sub-range chosen to be injective the two are
nearly tied, which is the point: the kick pays for disambiguation, not
for accuracy as such.

Equivalent CLI:  tricalib ablate-kicks -o out/   (full scale)

Run:  python3 demos/03_kick_ablation.py
"""

import tempfile
from pathlib import Path

from tricalib.config import default_device_config
from tricalib.experiments import run_kick_ablation
from tricalib.net import TrainConfig

dev = default_device_config()
cfg = TrainConfig(max_epochs=80, patience=20, seed=3, hidden=(100, 100))
out_root = Path(tempfile.mkdtemp(prefix="tricalib_ablation_"))

cases = [
    ("full range [1, 7] V", 1.0, 7.0),
    ("injective sub-range [5.75, 6.75] V", 5.75, 6.75),
]

print(f"{'case':38s} {'with kick':>10s} {'without':>10s} {'improvement':>12s}")
for name, v_lo, v_hi in cases:
    rmse_with, rmse_without, improvement = run_kick_ablation(
        dev, cfg, v_lo, v_hi, grid_n=25, kick_steps=2,
        data_seed=7, split_seed=20, out_dir=out_root / name.split()[0],
        mean_total=dev.mean_total)
    print(f"{name:38s} {rmse_with:9.4f}V {rmse_without:9.4f}V "
          f"{100 * improvement:10.1f}%")

print(f"\nartifacts (config.echo, results.csv, report.txt) in {out_root}")
print("Improvement is 1 - RMSE_with / RMSE_without on the validation split,")
print("both in volts.  Negative values mean the bare variant happened to win.")
