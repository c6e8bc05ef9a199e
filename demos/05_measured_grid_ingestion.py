"""From a measured probability grid to a trained calibrator.

Real calibration data arrives as one probability row per voltage
setting (the measurement schema), not as ready-made training examples.
`ingest_experimental` pairs each setting with the setting one kick away
on the same grid and drops border settings without a partner.

There is no real instrument in this demo, so we stand one up:
`write_measurement_csv` stores noise-free model probabilities in the
measurement schema, as `tricalib simulate --grid N --counts 0 -o` does.
Everything downstream (ingestion, training, evaluation) then runs as it
would on lab data.

Run:  python3 demos/05_measured_grid_ingestion.py
"""

import tempfile
from pathlib import Path

import numpy as np

from tricalib.config import default_device_config
from tricalib.data import (
    build_grid,
    ingest_experimental,
    kick_from_steps,
    write_csv,
    write_measurement_csv,
)
from tricalib.device import voltage_probabilities
from tricalib.experiments import train_on_dataset
from tricalib.metrics import repeated_test_evaluation
from tricalib.net import TrainConfig, forward

dev = default_device_config()
work = Path(tempfile.mkdtemp(prefix="tricalib_ingest_"))

# 1. "measure" a 31x31 grid into a file in the measurement schema
grid = build_grid(1.0, 7.0, 31)
settings = grid.settings()
measured = work / "measured.csv"
write_measurement_csv(settings, voltage_probabilities(settings, dev.coeffs, dev.tritter),
                      measured, comment="noise-free model probabilities")
print(f"measured grid file: {measured}")
print("  " + measured.read_text().splitlines()[1])  # the schema header

# 2. ingest: pair settings one kick apart, drop unpartnered borders
kick = kick_from_steps(grid, 2, 2)
dataset, n_dropped = ingest_experimental(measured, kick)
print(f"\ningested {len(dataset)} examples "
      f"({n_dropped} border settings dropped), provenance "
      f"'{dataset.provenance}'")
write_csv(dataset, work / "ingested.csv")

# 3. train on the ingested dataset exactly as on a simulated one
cfg = TrainConfig(max_epochs=60, patience=15, seed=3, hidden=(100, 100))
params, scaling, report, _ = train_on_dataset(dataset, cfg, split_seed=20)
best = report.best_epoch
print(f"trained {report.epochs_run} epochs, "
      f"val NRMSE {report.val_nrmse[best]:.4f}, "
      f"val cosine {report.val_cosine[best]:.5f}")

# 4. repeated noisy test protocol on the stored grid points
ev, _, _ = repeated_test_evaluation(
    lambda feats: scaling.invert(forward(params, feats)),
    dataset.features, dataset.targets,
    mean_total=dev.mean_total, span=scaling.pooled_span(),
    rep_count=50, rep_size=60, rng=np.random.default_rng(11))
print(f"repeated test ({ev.n_repetitions}x{ev.n_examples_per_rep}): "
      f"NRMSE {ev.nrmse:.4f} +- {ev.nrmse_spread:.4f}, "
      f"cosine {ev.cosine:.5f} +- {ev.cosine_spread:.5f}")

print(f"\nall artifacts under {work}")
print("CLI equivalent, given a measured grid file from the instrument:")
print("  (ingestion is library-only; datasets then flow through the CLI)")
print("  tricalib train -i ingested.csv -o model.ckpt")
print("  tricalib evaluate -m model.ckpt -i ingested.csv -o eval/")
