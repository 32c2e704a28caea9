"""Record the fit, screen and estimate of every file of a seeded corpus,
seeded ``run_mc`` summaries and the text of seeded ``rabipi report`` runs.

    python benchmarks/record_outputs.py             # writes tests/data/outputs.json
    python benchmarks/record_outputs.py OUT.json    # writes OUT.json instead

The corpus is built with ``rabipi.simulate`` alone, so the file holds what
the program gives on it; ``tests/test_outputs.py`` compares the program
against the file, continuous values to a relative 1e-9 (NumPy's SIMD
dispatch can move the last bits of a fit from one CPU to another) and
screen verdicts, failing steps and report text exactly.  A change that
means to move outputs re-records the file and says which values moved.

Per file it records ``fit_model``'s four values and the RSS of that curve
(or the step that failed), ``screen_dataset``'s verdict and location, and
``estimate_pi``'s fields (or the step that failed).  Per Monte Carlo case
it records the ``McSummary`` fields, and per report case the printed text.
"""

import dataclasses
import json
import math
import random
import sys
import tempfile
from pathlib import Path

import numpy as np

from rabipi import McConfig, NoiseModel, run_mc
from rabipi.cli import cli_main
from rabipi.dataio import save_csv
from rabipi.estimate import PipelineError, estimate_pi, fit_model, screen_dataset
from rabipi.model import noisy_prob
from rabipi.simulate import DEFAULT_GRID, inject_step, make_grid, sample_dataset

OUTPUTS = Path(__file__).resolve().parents[1] / "tests" / "data" / "outputs.json"
#: The paper's three demo qubits, as ``rabibench``'s protocol runs them.
DEMO_QUBITS = (NoiseModel(0.90, 0.05, 0.0, 1.0), NoiseModel(0.85, 0.08, 0.0, 1.0),
               NoiseModel(0.95, 0.02, 0.0, 1.0))
#: ``rabibench``'s three off-protocol models, run at 256 shots on the 0.05 grid.
LOWSHOT_MODELS = (NoiseModel(0.6, 0.2, 0.5, 1.1), NoiseModel(0.9, 0.05, 1.5, 1.0),
                  NoiseModel(0.5, 0.2, 0.0, 1.0))


def fit_corpus():
    """The 400 files of ``tests/test_estimate.py``'s ``fit_corpus``: c =
    0.3..2.5, 256/8192 shots, phi0 in {0, 2} and 0.1/0.05 grids, every 5th
    with a calibration step."""
    for i in range(400):
        c = 0.3 + 0.1 * (i % 23)
        grid = make_grid(0.0, 6.3, (0.1, 0.05)[i // 92 % 2])
        ds = sample_dataset(NoiseModel(0.8, 0.1, (0.0, 2.0)[i // 46 % 2], c),
                            grid, (256, 8192)[i // 23 % 2], seed=i)
        if i % 5 == 0:
            ds = inject_step(ds, 3.0, 0.15 if ds.fractions()[35] < 0.5
                             else -0.15)
        yield f"fit_corpus/{i}", ds


def _step_away(ds, model, t_jump, size):
    """``ds`` with a step of ``size`` at ``t_jump``, away from the nearer
    bound so that clipping cannot hide it."""
    return inject_step(ds, t_jump, -size if noisy_prob(model, t_jump) > 0.5 else size)


def mixed(count=200, seed=2027):
    """``count`` files: c 0.2..3, any phase, alpha 0.5..0.98 with beta in
    [0, 1 - alpha], grids 0.05/0.1/0.2 over [0, 6.3], 16..8192 shots, and a
    step of 0.1..0.25 in every fourth file."""
    rng = random.Random(seed)
    for k in range(count):
        alpha = rng.uniform(0.5, 0.98)
        model = NoiseModel(alpha, rng.uniform(0.0, 1.0 - alpha),
                           rng.uniform(-math.pi, math.pi), rng.uniform(0.2, 3.0))
        grid = make_grid(0.0, 6.3, rng.choice((0.05, 0.1, 0.2)))
        ds = sample_dataset(model, grid, rng.choice((16, 64, 256, 1024, 8192)),
                            seed=rng.getrandbits(63))
        if k % 4 == 3:
            ds = _step_away(ds, model, rng.uniform(1.0, 5.5), rng.uniform(0.1, 0.25))
        yield f"mixed/{k}", ds


def triage_like(count=48, seed=0):
    """``count`` files as ``rabibench``'s ``triage`` writes them: alpha
    0.80..0.95, beta 0.02..0.05, phi0 0, c 1, 8192 shots on DEFAULT_GRID, a
    quarter with a step of 0.15..0.25 at t in [1, 5.5]."""
    rng = random.Random(seed)
    steps = set(rng.sample(range(count), count // 4))
    for k in range(count):
        model = NoiseModel(rng.uniform(0.80, 0.95), rng.uniform(0.02, 0.05), 0.0, 1.0)
        ds = sample_dataset(model, DEFAULT_GRID, 8192, seed=rng.getrandbits(63))
        if k in steps:
            ds = _step_away(ds, model, rng.uniform(1.0, 5.5), rng.uniform(0.15, 0.25))
        yield f"triage/{k}", ds


def corpus():
    """(name, dataset) of every file recorded."""
    yield from fit_corpus()
    yield from mixed()
    yield from triage_like()


def record(ds) -> dict:
    """The outputs recorded for one file."""
    out = {}
    try:
        m = fit_model(ds)
        rss = np.sum((ds.fractions() - noisy_prob(m, ds.times())) ** 2)
        out["fit"] = {"alpha": m.alpha, "beta": m.beta, "phi0": m.phi0, "c": m.c,
                      "rss": float(rss)}
    except PipelineError as e:
        out["fit"] = e.step
    verdict = screen_dataset(ds)
    out["screen"] = {"accepted": verdict.accepted, "location": verdict.location}
    try:
        out["estimate"] = dataclasses.asdict(estimate_pi(ds))
    except PipelineError as e:
        out["estimate"] = e.step
    return out


def mc_cases():
    """(name, models, McConfig) of each ``run_mc`` recorded: the 150-run
    protocol on the demo qubits, and 50 runs of each low-shot model."""
    yield "run_mc/demo_qubits", list(DEMO_QUBITS), McConfig(base_seed=1)
    lowshot = McConfig(shots=256, grid=make_grid(0.0, 6.3, 0.05), base_seed=2)
    for k, model in enumerate(LOWSHOT_MODELS):
        yield f"run_mc/lowshot/{k}", [model], lowshot


def report_cases():
    """(name, datasets, Monte Carlo seed) of each report recorded: two
    triplets of the demo qubits at 8192 shots, and a third whose second
    file carries a step that the screen rejects."""
    for k in range(3):
        files = [sample_dataset(m, DEFAULT_GRID, 8192, seed=100 + 3 * k + q,
                                label=f"r{k}q{q}") for q, m in enumerate(DEMO_QUBITS)]
        if k == 2:
            files[1] = inject_step(files[1], 4.0, 0.15)
        yield f"report/{k}", files, k


def report_text(datasets, seed) -> str:
    """What ``rabipi report`` prints on ``datasets`` written as CSV files."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for ds in datasets:
            paths.append(str(Path(tmp) / f"{ds.label}.csv"))
            save_csv(ds, paths[-1])
        out = str(Path(tmp) / "report.txt")
        if cli_main(["report", *paths, "--seed", str(seed), "--out", out]) != 0:
            raise RuntimeError(f"rabipi report failed on {paths}")
        return Path(out).read_text(encoding="utf-8")


def outputs() -> dict:
    """name -> the outputs recorded, for every file and case."""
    out = {name: record(ds) for name, ds in corpus()}
    for name, models, cfg in mc_cases():
        out[name] = {"run_mc": dataclasses.asdict(run_mc(models, cfg))}
    for name, datasets, seed in report_cases():
        out[name] = {"report": report_text(datasets, seed)}
    return out


def main(argv):
    path = Path(argv[0]) if argv else OUTPUTS
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [f"{json.dumps(name)}: {json.dumps(v)}" for name, v in outputs().items()]
    path.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
    print(f"{len(lines)} files and cases -> {path}")


if __name__ == "__main__":
    main(sys.argv[1:])
