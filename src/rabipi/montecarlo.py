"""Monte Carlo error characterization of the pi estimator.

Regenerates the experiment many times from given (or fitted) noise models,
runs the full pipeline on every synthetic dataset, and reports pooled
standard deviations of the final and intermediate quantities.  Three models
at 50 runs each reproduce the 150-run protocol used to quote the error bar.
"""

import hashlib
import math
import struct
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .estimate import EstimateConfig, EstimateResult, PipelineError, estimate_pi, \
    estimate_rows, screen_dataset
from .model import NoiseModel
from .simulate import DEFAULT_GRID, DEFAULT_SHOTS, TimeGrid, sample_counts

__all__ = [
    "McConfig",
    "McSummary",
    "AggregateReport",
    "run_mc",
    "model_from_estimate",
    "models_from_datasets",
    "aggregate",
]


@dataclass(frozen=True)
class McConfig:
    runs_per_model: int = 50
    shots: int = DEFAULT_SHOTS
    grid: TimeGrid = DEFAULT_GRID
    base_seed: int = 0
    estimate: EstimateConfig = field(default_factory=EstimateConfig)

    def __post_init__(self):
        if self.runs_per_model < 2:
            raise ValueError("runs_per_model must be >= 2 for a standard deviation")
        if self.shots < 1:
            raise ValueError(f"shots must be >= 1, got {self.shots}")


@dataclass(frozen=True)
class McSummary:
    n_runs: int
    mean_pi: float
    std_pi: float
    # the spreads pool rate-free quantities, each run scaled by its own
    # model's rate c, so models whose c differ pool into one spread
    std_dt: float    # std of (t2_hat - t1_hat) * c, which is near pi
    std_I: float     # std of integral_I * c, which is near 1
    failures: int
    #: PipelineError.step -> number of runs that failed there; sums to failures
    failures_by_step: dict = field(default_factory=dict, hash=False)


@dataclass(frozen=True)
class AggregateReport:
    per_qubit: tuple          # (label, EstimateResult) pairs
    mean_pi: float
    error_bar: float          # 2 sigma
    sigma_source: str


def _run_seed(base_seed: int, model: NoiseModel, run: int) -> int:
    """Deterministic per-run seed keyed to the model parameters, not the
    position of the model in the list, so pooled statistics are invariant
    under permutation of the model list."""
    payload = struct.pack("<qddddq", base_seed, model.alpha, model.beta,
                          model.phi0, model.c, run)
    return int.from_bytes(hashlib.sha256(payload).digest()[:8], "little")


def run_mc(models: list, cfg: McConfig = McConfig()) -> McSummary:
    """Sample and estimate ``runs_per_model`` times for each model.

    Each model gets one generator: run r of a model is row r of
    ``sample_counts(model, cfg.grid, cfg.shots, _run_seed(cfg.base_seed,
    model, 0), cfg.runs_per_model)``, so run 0 is ``sample_dataset`` with
    that seed.  The runs of every model are estimated as one batch.  Failed
    pipeline runs are counted, by step, and excluded from the pooled
    statistics; an error is raised only if every run fails.  The crossing
    spacing and the integral are pooled in units of the run's model rate
    (see ``McSummary``); pi_hat needs no scaling.
    """
    if not models:
        raise ValueError("need at least one model")
    ones = np.concatenate([
        sample_counts(model, cfg.grid, cfg.shots, _run_seed(cfg.base_seed, model, 0),
                      cfg.runs_per_model)
        for model in models])
    rows = estimate_rows(cfg.grid.times(), ones / cfg.shots, cfg.estimate)
    ok = rows.ok
    failed = Counter(rows.errors[r].step for r in np.flatnonzero(~ok))
    n_runs = len(ones)
    rates = np.repeat([model.c for model in models], cfg.runs_per_model)
    # canonical (sorted) order makes the pooled statistics bitwise invariant
    # under permutation of the model list
    pis, dts, integrals = (np.sort(v[ok]) for v in (
        rows.pi_hat, (rows.t2_hat - rows.t1_hat) * rates, rows.integral_I * rates))
    if not len(pis):
        raise PipelineError("run_mc", f"all {n_runs} runs failed")
    if len(pis) < 2:
        raise PipelineError("run_mc", "fewer than 2 successful runs; "
                            "standard deviation undefined")
    return McSummary(
        n_runs=n_runs,
        mean_pi=float(np.mean(pis)),
        std_pi=float(np.std(pis, ddof=1)),
        std_dt=float(np.std(dts, ddof=1)),
        std_I=float(np.std(integrals, ddof=1)),
        failures=sum(failed.values()),
        failures_by_step=dict(sorted(failed.items())),
    )


def model_from_estimate(r: EstimateResult) -> NoiseModel:
    """The noise model one pipeline run recovers.

    Amplitude and offset come from the refined estimates, the rate from the
    reciprocal integral, and the phase from the first crossing.
    """
    return NoiseModel(alpha=r.alpha_hat, beta=r.beta_hat,
                      phi0=math.pi / 2 - r.c_hat * r.t1_hat, c=r.c_hat)


def models_from_datasets(datasets: list,
                         cfg: EstimateConfig = EstimateConfig()) -> list:
    """Recover one noise model per dataset (``model_from_estimate``) from a
    full pipeline run.  Datasets failing the jump screen are rejected
    outright.
    """
    models = []
    for ds in datasets:
        verdict = screen_dataset(ds)
        if not verdict:
            raise PipelineError(
                "models_from_datasets",
                f"dataset {ds.label or '<unlabeled>'} rejected by screening: "
                f"{verdict.reason}")
        try:
            r = estimate_pi(ds, cfg)
        except PipelineError as exc:
            raise PipelineError(
                "models_from_datasets",
                f"pipeline failed on dataset {ds.label or '<unlabeled>'}: {exc}")
        models.append(model_from_estimate(r))
    return models


def aggregate(results: list, sigma: float) -> AggregateReport:
    """Average per-qubit estimates and attach a 2-sigma error bar.

    ``sigma`` is the Monte Carlo standard deviation of a single-run
    estimate (not divided by the number of qubits); the report records
    this convention.
    """
    if not results:
        raise ValueError("need at least one estimate")
    if sigma <= 0:
        raise ValueError(f"sigma must be > 0, got {sigma}")
    mean_pi = float(np.mean([r.pi_hat for _, r in results]))
    return AggregateReport(
        per_qubit=tuple(results),
        mean_pi=mean_pi,
        error_bar=2 * sigma,
        sigma_source="Monte Carlo standard deviation of a single-run estimate",
    )
