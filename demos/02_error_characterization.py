"""Monte Carlo error characterization of the estimator.

Three qubit-like noise models, 50 synthetic re-runs each (150 total),
pooled standard deviations of the final and intermediate quantities, then
the multi-qubit average with a 2-sigma error bar.
"""

from rabipi import (DEFAULT_GRID, McConfig, NoiseModel, aggregate,
                    estimate_pi, models_from_datasets, run_mc, sample_dataset)

# stand-ins for three hardware qubits: same rate and phase, differing
# amplitude/offset distortion (what differs between qubits in practice)
models = [
    NoiseModel(0.90, 0.05, 0.0, 1.0),
    NoiseModel(0.85, 0.08, 0.0, 1.0),
    NoiseModel(0.95, 0.02, 0.0, 1.0),
]

# one "experimental" dataset per qubit; fit models back from the data
datasets = [sample_dataset(m, DEFAULT_GRID, 8192, seed=100 + i, label=f"q{i}")
            for i, m in enumerate(models)]
recovered = models_from_datasets(datasets)
for truth, rec in zip(models, recovered):
    print(f"true (a={truth.alpha:.2f}, b={truth.beta:.2f})  ->  "
          f"recovered (a={rec.alpha:.3f}, b={rec.beta:.3f}, c={rec.c:.3f})")

# regenerate from the recovered models; the spacing and the integral are
# pooled in units of each model's rate, c * (t2 - t1) and c * I
summary = run_mc(recovered, McConfig(runs_per_model=50, shots=8192, base_seed=7))
print(f"\n{summary.n_runs} Monte Carlo runs ({summary.failures} failures)")
print(f"std of pi_hat          = {summary.std_pi:.4f}")
print(f"std of c * (t2 - t1)   = {summary.std_dt:.4f}")
print(f"std of c * integral I  = {summary.std_I:.4f}")

# ideal-case reference: no amplitude/offset distortion at all
ideal = run_mc([NoiseModel(1, 0, 0, 1)],
               McConfig(runs_per_model=150, shots=8192, base_seed=7))
print(f"ideal-case std_I       = {ideal.std_I:.4f} (shot noise alone)")

results = [(ds.label, estimate_pi(ds)) for ds in datasets]
report = aggregate(results, sigma=summary.std_pi)
print(f"\npi = {report.mean_pi:.4f} +/- {report.error_bar:.4f}  "
      f"({report.sigma_source})")
