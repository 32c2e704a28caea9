"""Monte Carlo error characterization of the pi estimator.

Regenerates the experiment many times from given (or fitted) noise models,
runs the full pipeline on every synthetic dataset, and reports pooled
standard deviations of the final and intermediate quantities.  Three models
at 50 runs each reproduce the 150-run protocol used to quote the error bar;
``report`` takes a set of datasets to that error bar.
"""

import hashlib
import math
import struct
from collections import Counter
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

# estimate_pi is not called here; rabibench/selftest.py checks that the
# tracer rebinds it under this module and restores it
from .estimate import EstimateResult, PipelineError, estimate_pi, estimate_rows, \
    screen_rows
from .model import NoiseModel
from .simulate import DEFAULT_GRID, DEFAULT_SHOTS, TimeGrid, sample_counts

__all__ = [
    "McConfig",
    "McSummary",
    "Report",
    "run_mc",
    "model_from_estimate",
    "report",
]


@dataclass(frozen=True)
class McConfig:
    runs_per_model: int = 50
    shots: int = DEFAULT_SHOTS
    grid: TimeGrid = DEFAULT_GRID
    base_seed: int = 0

    def __post_init__(self):
        if self.runs_per_model < 2:
            raise ValueError("runs_per_model must be >= 2 for a standard deviation")
        if self.shots < 1:
            raise ValueError(f"shots must be >= 1, got {self.shots}")
        _check_seed(self.base_seed)


def _check_seed(seed: int):
    """Raise ``ValueError`` unless ``seed`` is a signed 64-bit integer, as
    ``_run_seed`` packs it; mod 2**64, as ``sample_counts`` takes a seed,
    that range names each generator once."""
    if not -2**63 <= seed < 2**63:
        raise ValueError(f"base_seed must be a signed 64-bit integer, got {seed}")


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
class Report:
    """What ``report`` found on a set of datasets."""

    verdicts: tuple    # (name, ScreenVerdict) of every dataset, in input order
    estimates: tuple   # (name, EstimateResult) of each accepted dataset
    mc: McSummary      # run_mc on the models the estimates recover
    mean_pi: float     # mean of the accepted datasets' pi_hat
    error_bar: float   # 2 * mc.std_pi

    sigma_source: ClassVar[str] = \
        "Monte Carlo standard deviation of a single-run estimate"


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
    model, k), cfg.runs_per_model)``, so run 0 is ``sample_dataset`` with
    that seed.  k counts the earlier models whose parameters have the same
    bits, so equal models draw different runs, the first of them keeps
    k = 0, and the seeds of a list are those of any reordering of it.  The
    runs of every model are estimated as one batch.  Failed
    pipeline runs are counted, by step, and excluded from the pooled
    statistics; an error is raised only if every run fails.  The crossing
    spacing and the integral are pooled in units of the run's model rate
    (see ``McSummary``); pi_hat needs no scaling.
    """
    if not models:
        raise ValueError("need at least one model")
    runs = cfg.runs_per_model
    times = cfg.grid.times()
    # each model's counts are divided into its block of one fraction array,
    # so no array of all the counts is kept while the batch is estimated
    f = np.empty((len(models) * runs, len(times)))
    repeats = Counter()  # of each model's parameter bits, as _run_seed packs them
    for m, model in enumerate(models):
        params = struct.pack("<4d", model.alpha, model.beta, model.phi0, model.c)
        np.divide(sample_counts(model, cfg.grid, cfg.shots,
                                _run_seed(cfg.base_seed, model, repeats[params]), runs),
                  cfg.shots, out=f[m * runs:(m + 1) * runs])
        repeats[params] += 1
    rows = estimate_rows(times, f)
    ok = rows.ok
    failed = dict(sorted(Counter(
        rows.errors[r].step for r in np.flatnonzero(~ok)).items()))
    n_runs = len(f)
    rates = np.repeat([model.c for model in models], runs)
    # pi_hat, the spacing and the integral of each successful run, one row
    # each, C-ordered so that every statistic sums along a contiguous row as
    # on its own, and sorted (canonical order makes the pooled statistics
    # bitwise invariant under permutation of the model list)
    pooled = np.compress(ok, (rows.pi_hat, (rows.t2_hat - rows.t1_hat) * rates,
                              rows.integral_I * rates), axis=1)
    pooled.sort(axis=1)
    n_ok = pooled.shape[1]
    if not n_ok:
        raise PipelineError("run_mc", f"all {n_runs} runs failed: {_steps(failed)}")
    if n_ok < 2:
        raise PipelineError("run_mc", f"{n_runs - 1} of {n_runs} runs failed: "
                            f"{_steps(failed)}; fewer than 2 successful runs, "
                            "standard deviation undefined")
    std_pi, std_dt, std_I = pooled.std(axis=1, ddof=1).tolist()
    return McSummary(
        n_runs=n_runs,
        mean_pi=float(pooled[0].mean()),
        std_pi=std_pi,
        std_dt=std_dt,
        std_I=std_I,
        failures=sum(failed.values()),
        failures_by_step=failed,
    )


def _steps(failures_by_step: dict) -> str:
    """``step n, step n``: the runs that failed at each pipeline step."""
    return ", ".join(f"{step} {n}" for step, n in failures_by_step.items())


def model_from_estimate(r: EstimateResult) -> NoiseModel:
    """The noise model one pipeline run recovers.

    Amplitude and offset come from the refined estimates, the rate from the
    reciprocal integral, and the phase from the first crossing.
    """
    return NoiseModel(alpha=r.alpha_hat, beta=r.beta_hat,
                      phi0=math.pi / 2 - r.c_hat * r.t1_hat, c=r.c_hat)


def _experiment(name: str, ds, grid: TimeGrid | None = None) -> tuple:
    """The uniform time grid and the shot count ``ds`` was taken with.

    The times must lie within 1e-9 steps of the grid's, which allows for
    the rounding of times written by ``np.linspace`` or ``TimeGrid.times``.
    ``grid``, when given, is the grid already built and checked for a
    dataset with the same times.
    """
    if grid is None:
        t = ds.t
        start, stop = float(t[0]), float(t[-1])
        grid = TimeGrid(start, stop, (stop - start) / (len(t) - 1))
        if np.max(np.abs(grid.times() - t)) > 1e-9 * grid.step:
            raise PipelineError("report", f"{name}: times are not a uniform grid")
    lo, hi = ds.shots.min(), ds.shots.max()
    if lo != hi:
        raise PipelineError("report", f"{name}: shots vary by row ({lo} to {hi})")
    return grid, int(lo)


def _per_file(n: int, batches: list, run) -> list:
    """``run(ks)`` on each batch ``ks`` of file indices, its outcomes put
    back in input order; None for a file in no batch."""
    out = [None] * n
    for ks in batches:
        for k, outcome in zip(ks, run(ks)):
            out[k] = outcome
    return out


def _raise_first(names: list, outcomes: list):
    """Raise the first ``PipelineError`` among ``outcomes`` as
    ``report: name: ...``."""
    for name, outcome in zip(names, outcomes):
        if isinstance(outcome, PipelineError):
            raise PipelineError("report", f"{name}: {outcome}") from outcome


def report(datasets: list, runs_per_model: int = McConfig.runs_per_model,
           base_seed: int = McConfig.base_seed) -> Report:
    """From datasets to the mean pi_hat and its 2-sigma error bar.

    Datasets failing the jump screen are skipped.  Each accepted one is
    estimated and recovers a model (``model_from_estimate``); ``run_mc``
    re-runs those models on the accepted datasets' time grid and shot
    count, so the error bar describes the experiment that was run.  sigma
    is the Monte Carlo standard deviation of a single-run estimate, not
    divided by the number of datasets.

    Datasets with identical times form one batch.  A batch is screened by
    one ``screen_rows`` call, which scans the rates of all its datasets
    together and runs the rate search only on those whose verdict the scan
    cannot settle (none, on clean files), its accepted datasets are
    estimated by one ``estimate_rows`` call, and its time grid is built and
    checked once.  Each dataset gets the same bits as ``screen_dataset``
    and ``estimate_pi`` give it alone.

    A dataset is named by its label or, when that is empty, by its 1-based
    position (``dataset 2``), in the verdicts, the estimates and errors.
    The first dataset in input order that fails to screen is named in the
    error; if all screen, the first accepted one that fails to estimate.
    """
    if not datasets:
        raise ValueError("need at least one dataset")
    names = [ds.label or f"dataset {i}" for i, ds in enumerate(datasets, 1)]
    fractions = [ds.fractions() for ds in datasets]
    keys = [ds.t.tobytes() for ds in datasets]
    batches = {}
    for k, key in enumerate(keys):
        batches.setdefault(key, []).append(k)

    def screen(ks):
        return screen_rows(datasets[ks[0]].t, np.array([fractions[k] for k in ks]),
                           np.array([datasets[k].shots for k in ks]))

    screened = _per_file(len(datasets), batches.values(), screen)
    _raise_first(names, screened)
    verdicts = tuple(zip(names, screened))
    if not any(screened):
        raise PipelineError("report", "all datasets rejected by screening")

    def estimate(ks):
        rows = estimate_rows(datasets[ks[0]].t, np.array([fractions[k] for k in ks]))
        return [rows.result(r) if rows.ok[r] else rows.errors[r]
                for r in range(len(ks))]

    accepted = [[k for k in ks if screened[k]] for ks in batches.values()]
    results = _per_file(len(datasets), [ks for ks in accepted if ks], estimate)
    _raise_first(names, results)
    kept = [k for k, v in enumerate(screened) if v]
    estimates = [(names[k], results[k]) for k in kept]
    grids, experiments = {}, []  # one grid per batch, built at its first file
    for k in kept:
        experiments.append(_experiment(names[k], datasets[k], grids.get(keys[k])))
        grids[keys[k]] = experiments[-1][0]
    if len(set(experiments)) > 1:
        raise PipelineError("report", "datasets differ in time grid or shots: " +
                            ", ".join(f"{names[k]} {n} shots on t = {g.start:g}:"
                                      f"{g.step:.6g}:{g.stop:g}"
                                      for k, (g, n) in zip(kept, experiments)))
    grid, shots = experiments[0]
    mc = run_mc([model_from_estimate(r) for _, r in estimates],
                McConfig(runs_per_model=runs_per_model, shots=shots, grid=grid,
                         base_seed=base_seed))
    return Report(verdicts=verdicts, estimates=tuple(estimates), mc=mc,
                  mean_pi=float(np.mean([r.pi_hat for _, r in estimates])),
                  error_bar=2 * mc.std_pi)
