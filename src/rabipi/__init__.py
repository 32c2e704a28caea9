"""Estimate pi from (simulated) single-qubit Rabi oscillation data.

The measured |1> fraction oscillates as an affine-distorted cosine of the
rotation time.  The spacing of its half-level crossings divided by the area
under the normalized curve between them yields pi; a Monte Carlo harness
characterizes the estimator's statistical error.
"""

from .estimate import (EstimateResult, PipelineError, ScreenVerdict,
                       estimate_pi, fit_model, screen_dataset)
from .model import (IDEAL, NoiseModel, analytic_half_crossings,
                    analytic_integral_reciprocal_c, ideal_prob, noisy_prob)
from .montecarlo import McConfig, McSummary, Report, report, run_mc
from .simulate import (DEFAULT_GRID, DEFAULT_SHOTS, Dataset, TimeGrid,
                       exact_dataset, inject_step, make_grid, sample_dataset)
from .dataio import CsvFormatError, load_csv, parse_csv, save_csv, save_text, write_csv
from .plotting import render_svg

__version__ = "0.1.0"
