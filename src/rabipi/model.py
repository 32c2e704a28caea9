"""Closed-form Rabi probability curves and analytic oracles.

The ideal curve is p(phi) = sin^2(phi/2) = (1 - cos phi)/2.  Real hardware
distorts it affinely in both time and value, giving

    P(t) = alpha * (1 - cos(c*t + phi0)) / 2 + beta

with amplitude ``alpha``, offset ``beta``, phase ``phi0`` and angular rate
``c``.  The analytic half-crossing and unit-area identities below serve as
oracles for the sampled-data estimation pipeline.
"""

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "NoiseModel",
    "IDEAL",
    "ideal_prob",
    "noisy_prob",
    "analytic_half_crossings",
    "analytic_integral_reciprocal_c",
]


@dataclass(frozen=True)
class NoiseModel:
    """Affine distortion of the ideal Rabi curve.

    alpha: oscillation amplitude, >= 0
    beta:  vertical offset, >= 0, with alpha + beta <= 1
    phi0:  phase offset in radians
    c:     angular rate (radians per time unit), > 0
    """

    alpha: float
    beta: float
    phi0: float
    c: float

    def __post_init__(self):
        for name in ("alpha", "beta", "phi0", "c"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v!r}")
        if self.alpha < 0:
            raise ValueError(f"alpha must be >= 0, got {self.alpha}")
        if self.beta < 0:
            raise ValueError(f"beta must be >= 0, got {self.beta}")
        if self.alpha + self.beta > 1:
            raise ValueError(
                f"alpha + beta must be <= 1, got {self.alpha + self.beta}"
            )
        if self.c <= 0:
            raise ValueError(f"c must be > 0, got {self.c}")

    def is_normalized(self) -> bool:
        """True when the curve spans the full [0, 1] range (alpha=1, beta=0)."""
        return self.alpha == 1.0 and self.beta == 0.0


#: The undistorted curve: excited-state probability is exactly (1 - cos t)/2.
IDEAL = NoiseModel(alpha=1.0, beta=0.0, phi0=0.0, c=1.0)


def ideal_prob(phi: float) -> float:
    """Probability of measuring |1> after rotating |0> by ``phi`` radians."""
    if not math.isfinite(phi):
        raise ValueError(f"phi must be finite, got {phi!r}")
    return (1.0 - math.cos(phi)) / 2.0


def noisy_prob(model: NoiseModel, t):
    """Excited-state probability under the affine noise model at time ``t``.

    ``t`` may be a scalar, giving a float, or an array of times, giving an
    array of the same shape; every time must be finite.
    """
    if not isinstance(model, NoiseModel):
        raise TypeError("model must be a NoiseModel")
    ts = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(ts)):
        raise ValueError(f"t must be finite, got {t!r}")
    p = model.alpha * (1.0 - np.cos(model.c * ts + model.phi0)) / 2.0 + model.beta
    return float(p) if ts.ndim == 0 else p


def _require_normalized(model: NoiseModel):
    if not model.is_normalized():
        raise ValueError(
            "analytic oracle is only defined for the normalized curve "
            f"(alpha=1, beta=0); got alpha={model.alpha}, beta={model.beta}"
        )


def analytic_half_crossings(model: NoiseModel) -> tuple[float, float]:
    """First two nonnegative times where the normalized curve crosses 1/2.

    Only defined for alpha=1, beta=0.  Their spacing is pi/c, which is what
    the sampled-data pipeline estimates.
    """
    _require_normalized(model)
    t1 = (math.pi / 2 - model.phi0) / model.c
    t2 = (3 * math.pi / 2 - model.phi0) / model.c
    return t1, t2


def analytic_integral_reciprocal_c(model: NoiseModel) -> float:
    """Exact area of (P(t) - 1/2) between the half-crossings: equals 1/c."""
    _require_normalized(model)
    return 1.0 / model.c
