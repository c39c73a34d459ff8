"""Estimate the divergence between score-based priors from corrupted measurements.

The package provides analytic Gaussian-mixture priors (exact scores and
denoisers at every noise level), measurement operators (a sampler's shared
basis plus each operator's boolean support, with measurement noise of std
sigma_z), three score-gap divergence estimators (image domain, measurement
domain, and the invertible case, the measurement one on full-rank data),
each returning its value with the per-node integrand means and standard
errors behind it, a measurement-only adaptation loop, and a config-driven
experiment runner with a CLI front end.
"""

__version__ = "0.1.0"

from .adaptation import AdaptationConfig, AdaptationReport, DivergenceError, adapt
from .estimators import (
    KlEstimate,
    MeasurementDataset,
    kl_image,
    kl_invertible,
    kl_measurement,
)
from .gmm import (
    GaussianMixture,
    convolve,
    denoise,
    exact_kl_oracle,
    log_density,
    posterior,
    responsibilities,
    rotate,
    sample,
    score,
)
from .measurements import (
    BasisMismatch,
    OperatorSampler,
    RankDeficient,
    RightBasis,
    SpanViolation,
    estimate_projection_stats,
    sample_operator,
    to_projected,
)
from .priors import gaussian_pair, triangle_pair
from .quadrature import (
    SigmaGrid,
    cumulative_integral,
    integrate,
    series_csv,
)
from .rng import stream

__all__ = [
    "AdaptationConfig",
    "AdaptationReport",
    "BasisMismatch",
    "DivergenceError",
    "GaussianMixture",
    "KlEstimate",
    "MeasurementDataset",
    "OperatorSampler",
    "RankDeficient",
    "RightBasis",
    "SigmaGrid",
    "SpanViolation",
    "adapt",
    "convolve",
    "cumulative_integral",
    "denoise",
    "estimate_projection_stats",
    "exact_kl_oracle",
    "gaussian_pair",
    "integrate",
    "kl_image",
    "kl_invertible",
    "kl_measurement",
    "log_density",
    "posterior",
    "responsibilities",
    "rotate",
    "sample",
    "sample_operator",
    "score",
    "series_csv",
    "stream",
    "to_projected",
    "triangle_pair",
]
