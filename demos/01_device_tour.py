"""Tour of the simulated device: voltages -> phases -> unitary -> counts.

Walks the forward model end to end and shows the one physical fact the
whole calibration problem hangs on: the voltage-to-probability map is
not injective over the full operating range, and a second acquisition
at kicked voltages resolves the ambiguity.

Run:  python3 demos/01_device_tour.py
"""

import numpy as np

from tricalib.config import default_device_config
from tricalib.data import build_grid, kick_from_steps
from tricalib.device import (
    device_unitary,
    estimate_probabilities,
    phases_from_voltages,
    sample_counts,
    voltage_probabilities,
)

dev = default_device_config()
rng = np.random.default_rng(0)

print("== device configuration ==")
print(f"alpha (rad/W):\n{dev.alpha}")
print(f"alpha_nl (rad/W^2):\n{dev.alpha_nl}")
print(f"resistances (ohm): {dev.resistances}")
print(f"voltage range: [{dev.v_min}, {dev.v_max}] V, "
      f"photon budget {dev.mean_total} per acquisition")

print("\n== zero volts routes photons deterministically ==")
p0 = voltage_probabilities([0.0, 0.0], dev)
print(f"P(1->1..3) = {np.round(p0[:3], 12)}")
print(f"P(2->1..3) = {np.round(p0[3:], 12)}")

print("\n== phases grow past 2*pi across the operating range ==")
for v in (1.0, 3.0, 5.0, 7.0):
    ph = phases_from_voltages([v, v], dev)
    print(f"  V = ({v}, {v}) V -> phases = ({ph[0]:7.3f}, {ph[1]:7.3f}) rad"
          f"  ({ph[0] / (2 * np.pi):.2f} turns)")

print("\n== the unitary stays unitary everywhere ==")
phases = rng.uniform(0, 4 * np.pi, size=(500, 2))
U = device_unitary(phases)
gram = np.einsum("nij,nkj->nik", U.conj(), U)
print(f"max |U+ U - I| over 500 random phase pairs: "
      f"{np.abs(gram - np.eye(3)).max():.3e}")

print("\n== a fringe along v2 at fixed v1 = 4 V ==")
v2_axis = np.linspace(1.0, 7.0, 61)
settings = np.stack([np.full_like(v2_axis, 4.0), v2_axis], axis=-1)
p11 = voltage_probabilities(settings, dev)[:, 0]
for v2, p in zip(v2_axis[::3], p11[::3]):
    bar = "#" * int(round(40 * p))
    print(f"  v2 = {v2:4.1f} V  P(1->1) = {p:.3f} |{bar}")

print("\n== the map is not injective: a witness pair ==")
# Two distinct settings whose six base probabilities agree to machine
# precision.  They come from the symmetry of the probability map in
# phase space (swapping and negating the two phases, modulo 2*pi).
wa = np.array([4.8, 3.7])
wb = np.array([6.7696837237899299, 6.1575411827881057])
pa = voltage_probabilities(wa, dev)
pb = voltage_probabilities(wb, dev)
print(f"A = {wa} V, B = {np.round(wb, 4)} V, "
      f"separation {np.linalg.norm(wa - wb):.2f} V")
print(f"max |P_A - P_B| on the base features: {np.abs(pa - pb).max():.2e}")

axis = build_grid(1.0, 7.0, 53)
kick = kick_from_steps(axis, 5)
ka = voltage_probabilities(wa + kick.offset(), dev)
kb = voltage_probabilities(wb + kick.offset(), dev)
print(f"after a ({kick.dv1:.3f}, {kick.dv2:.3f}) V kick: "
      f"max |P_A - P_B| = {np.abs(ka - kb).max():.3f}")
print("-> the kicked acquisition separates what the base one cannot.")

print("\n== finite photon budgets add shot noise ==")
counts = sample_counts(pa, dev.mean_total, rng)
est = estimate_probabilities(counts)
print(f"counts at A ({int(counts.sum())} photons total): {counts.astype(int)}")
print(f"estimated probabilities: {np.round(est, 3)}")
print(f"truth:                   {np.round(pa, 3)}")
