"""Screening datasets for calibration jumps.

Each time instant runs as a separate job on real hardware, so a
recalibration between jobs can shift all later fractions by a constant.
The screener flags any adjacent-time jump larger than the model's maximum
rate of change plus five binomial standard deviations.
"""

from rabipi import (DEFAULT_GRID, NoiseModel, inject_step, render_svg,
                    sample_dataset, save_text, screen_dataset)

model = NoiseModel(0.9, 0.05, 0.0, 1.0)
clean = sample_dataset(model, DEFAULT_GRID, 8192, seed=1, label="clean")

print("clean dataset:", "accept" if screen_dataset(clean) else "reject")

for offset in (0.005, 0.05, 0.15):
    jumped = inject_step(clean, t_jump=4.0, offset=offset)
    verdict = screen_dataset(jumped)
    if verdict:
        print(f"step of {offset:+.3f} at t=4.0: accept (within noise)")
    else:
        print(f"step of {offset:+.3f} at t=4.0: reject at t={verdict.location}")
        print(f"    {verdict.reason}")

save_text(render_svg(inject_step(clean, 4.0, 0.15)), "demo_step_anomaly.svg")
print("wrote demo_step_anomaly.svg")
