"""Monte Carlo error characterization of the estimator.

Three qubit-like noise models, 50 synthetic re-runs each (150 total),
pooled standard deviations of the final and intermediate quantities, then
the multi-qubit average with a 2-sigma error bar.
"""

from rabipi import (DEFAULT_GRID, McConfig, NoiseModel, report, run_mc,
                    sample_dataset)
from rabipi.montecarlo import model_from_estimate

# stand-ins for three hardware qubits: same rate and phase, differing
# amplitude/offset distortion (what differs between qubits in practice)
models = [
    NoiseModel(0.90, 0.05, 0.0, 1.0),
    NoiseModel(0.85, 0.08, 0.0, 1.0),
    NoiseModel(0.95, 0.02, 0.0, 1.0),
]

# one "experimental" dataset per qubit; report screens and estimates each,
# fits models back from the estimates, and regenerates from those models
datasets = [sample_dataset(m, DEFAULT_GRID, 8192, seed=100 + i, label=f"q{i}")
            for i, m in enumerate(models)]
rep = report(datasets, runs_per_model=50, base_seed=7)
for truth, (_, r) in zip(models, rep.estimates):
    rec = model_from_estimate(r)
    print(f"true (a={truth.alpha:.2f}, b={truth.beta:.2f})  ->  "
          f"recovered (a={rec.alpha:.3f}, b={rec.beta:.3f}, c={rec.c:.3f})")

# the spacing and the integral are pooled in units of each model's rate,
# c * (t2 - t1) and c * I
summary = rep.mc
print(f"\n{summary.n_runs} Monte Carlo runs ({summary.failures} failures)")
print(f"std of pi_hat          = {summary.std_pi:.4f}")
print(f"std of c * (t2 - t1)   = {summary.std_dt:.4f}")
print(f"std of c * integral I  = {summary.std_I:.4f}")

# ideal-case reference: no amplitude/offset distortion at all
ideal = run_mc([NoiseModel(1, 0, 0, 1)],
               McConfig(runs_per_model=150, shots=8192, base_seed=7))
print(f"ideal-case std_I       = {ideal.std_I:.4f} (shot noise alone)")

print(f"\npi = {rep.mean_pi:.4f} +/- {rep.error_bar:.4f}  "
      f"({rep.sigma_source})")
