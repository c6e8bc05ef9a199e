"""Generate a reduced dataset, train the inverse network, and use it.

The full reference pipeline (53x53 grid, 250 epochs) lives behind the
command line:

    tricalib gen-dataset -o train.csv
    tricalib train -i train.csv -o model.ckpt
    tricalib evaluate -m model.ckpt -i train.csv -o eval/

This script does the same thing at desk scale through the library API
so the moving parts are visible, then inverts fresh noisy measurements
at settings that were never in the training set: `exact_features` gives
their exact kicked probabilities and `fresh_noise` draws the shot noise,
the same two steps `generate_simulated` takes for every grid setting.

Run:  python3 demos/02_train_small_model.py
"""

import numpy as np

from tricalib.config import default_device_config
from tricalib.data import build_grid, exact_features, generate_simulated, kick_from_steps
from tricalib.experiments import train_on_dataset
from tricalib.metrics import fresh_noise
from tricalib.net import TrainConfig, predict

dev = default_device_config()
rng = np.random.default_rng(1)

axis = build_grid(1.0, 7.0, 21)
kick = kick_from_steps(axis, 2)  # 2 grid steps = 0.6 V on each axis
print(f"grid: 21x21 over [1, 7] V, kick ({kick.dv1:.2f}, {kick.dv2:.2f}) V")

dataset = generate_simulated(axis, kick, dev, rng, mean_total=dev.mean_total)
print(f"dataset: {len(dataset)} examples, "
      f"{dataset.features.shape[1]} features, mean_total {dataset.mean_total}")

cfg = TrainConfig(max_epochs=80, patience=20, seed=0, hidden=(100, 100))
params, scaling, report, _ = train_on_dataset(dataset, cfg, split_seed=0)
best = report.best_epoch
print(f"trained {report.epochs_run} epochs in {report.wall_clock:.1f} s, "
      f"best epoch {best}")
print(f"validation NRMSE  = {report.val_nrmse[best]:.4f}")
print(f"validation cosine = {report.val_cosine[best]:.5f}")

print("\n== invert fresh measurements at settings the net never saw ==")
truth = rng.uniform(1.5, 6.0, size=(5, 2))
exact = exact_features(np.concatenate([truth, truth + kick.offset()], axis=-1), dev)
for v_true, probs in zip(truth, exact):
    v1, v2, v1k, v2k = predict(params, fresh_noise(probs, dev.mean_total, rng), scaling)
    err = np.hypot(v1 - v_true[0], v2 - v_true[1])
    print(f"  true ({v_true[0]:5.2f}, {v_true[1]:5.2f}) V -> "
          f"predicted ({v1:5.2f}, {v2:5.2f}) V, kicked ({v1k:5.2f}, {v2k:5.2f}) V, "
          f"error {err:5.3f} V")

print("\n`predict` returns the four voltages the network was trained on: the")
print("base pair, which is the calibration answer, and the kicked pair, which")
print(f"should sit one kick ({kick.dv1:.2f}, {kick.dv2:.2f}) V beyond it.")
