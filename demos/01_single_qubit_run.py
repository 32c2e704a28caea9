"""Simulate one noisy qubit and walk the pi-estimation pipeline end to end.

The measured |1> fraction follows an affine-distorted cosine of the rotation
time.  We sample 8192 shots at each of 64 times, then estimate pi from the
spacing of the half-level crossings divided by the area under the normalized
curve between them.
"""

import math

from rabipi import (NoiseModel, estimate_pi, fit_model, make_grid, render_svg,
                    sample_dataset, save_csv, save_text)

# a plausible hardware-like distortion: 90% visibility, 5% dark counts,
# small phase offset, rate slightly off unity
model = NoiseModel(alpha=0.9, beta=0.05, phi0=0.05, c=1.01)
grid = make_grid(0, 6.3, 0.1)

dataset = sample_dataset(model, grid, shots=8192, seed=42, label="demo-qubit")
save_csv(dataset, "demo_qubit.csv")
print(f"sampled {len(dataset)} time instants x {dataset.shots[0]} shots")

result = estimate_pi(dataset)
print(f"rough->refined amplitude  alpha_hat = {result.alpha_hat:.4f}")
print(f"rough->refined offset     beta_hat  = {result.beta_hat:.4f}")
print(f"half-level crossings      t1 = {result.t1_hat:.4f}, t2 = {result.t2_hat:.4f}")
print(f"trapezoidal area          I  = {result.integral_I:.4f}  (c_hat = {result.c_hat:.4f})")
print(f"pi estimate               pi_hat = {result.pi_hat:.4f}"
      f"  (true pi = {math.pi:.4f}, error {result.pi_hat - math.pi:+.4f})")

# Figure-style plot: points, fitted curve, crossing markers
fitted = fit_model(dataset)
print(f"fitted model: alpha={fitted.alpha:.3f} beta={fitted.beta:.3f} "
      f"phi0={fitted.phi0:.3f} c={fitted.c:.3f}")
save_text(render_svg(dataset, fitted, result), "demo_qubit.svg")
print("wrote demo_qubit.csv and demo_qubit.svg")
