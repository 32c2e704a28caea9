"""Estimate pi from (simulated) single-qubit Rabi oscillation data.

The measured |1> fraction oscillates as an affine-distorted cosine of the
rotation time.  The spacing of its half-level crossings divided by the area
under the normalized curve between them yields pi; a Monte Carlo harness
characterizes the estimator's statistical error.
"""

from .estimate import (EstimateConfig, EstimateResult, NormalizedCurve,
                       PipelineError, ScreenVerdict, estimate_pi, fit_model,
                       find_crossing, interpolate, normalize,
                       refine_alpha_beta, refine_crossing_linear,
                       rough_alpha_beta, screen_dataset, trapezoid_integral)
from .model import (IDEAL, NoiseModel, analytic_half_crossings,
                    analytic_integral_reciprocal_c, ideal_prob, noisy_prob)
from .montecarlo import (AggregateReport, McConfig, McSummary, aggregate,
                         models_from_datasets, run_mc)
from .simulate import (DEFAULT_GRID, DEFAULT_SHOTS, Dataset, ShotRecord,
                       TimeGrid, exact_dataset, inject_step, make_grid,
                       sample_dataset)
from .dataio import CsvFormatError, load_csv, parse_csv, save_csv, save_text, write_csv
from .plotting import render_svg

__version__ = "0.1.0"
