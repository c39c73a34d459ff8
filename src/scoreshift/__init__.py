"""Estimate the divergence between score-based priors from corrupted measurements.

The package provides analytic Gaussian-mixture priors (exact scores and
denoisers at every noise level), SVD-form measurement operators, three
score-gap divergence estimators (image domain, measurement domain,
invertible-operator case), a measurement-only adaptation loop, and a
config-driven experiment runner with a CLI front end.
"""

__version__ = "0.1.0"

from .adaptation import AdaptationConfig, AdaptationReport, DivergenceError, adapt, denoising_loss
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
    responsibilities,
    rotate,
    sample,
    score,
)
from .measurements import (
    BasisMismatch,
    MeasurementOperator,
    OperatorSampler,
    ProjectionStats,
    RightBasis,
    SpanViolation,
    dense_orthogonal_basis,
    estimate_projection_stats,
    fwht,
    hadamard_basis,
    identity_basis,
    sample_operator,
    to_projected,
)
from .priors import gaussian_pair, triangle_pair
from .quadrature import (
    IntegrandSeries,
    SigmaGrid,
    cumulative_integral,
    integrate,
    make_log_grid,
    series_csv,
)
from .rng import stream

__all__ = [
    "AdaptationConfig",
    "AdaptationReport",
    "BasisMismatch",
    "DivergenceError",
    "GaussianMixture",
    "IntegrandSeries",
    "KlEstimate",
    "MeasurementDataset",
    "MeasurementOperator",
    "OperatorSampler",
    "ProjectionStats",
    "RightBasis",
    "SigmaGrid",
    "SpanViolation",
    "adapt",
    "convolve",
    "cumulative_integral",
    "denoise",
    "denoising_loss",
    "dense_orthogonal_basis",
    "estimate_projection_stats",
    "exact_kl_oracle",
    "fwht",
    "gaussian_pair",
    "hadamard_basis",
    "identity_basis",
    "integrate",
    "kl_image",
    "kl_invertible",
    "kl_measurement",
    "log_density",
    "make_log_grid",
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
