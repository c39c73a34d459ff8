"""Sigma-axis discretization and the weighted outer integral.

The divergence estimators all reduce to an integral of the form
``int f(sigma) * sigma dsigma`` where f is a per-noise-level expectation
estimated by Monte Carlo. This module owns the sigma grid, the trapezoid
rule in sigma, standard-error propagation, and the running partial
integrals used for "divergence accumulated up to noise level sigma" curves.

The formal upper limit of the integral is infinity; the grid truncates it.
For location-shift pairs the integrand decays like sigma^-3, so the default
cap of 1e3 leaves a tail below ||dmu||^2 / (2 (1 + sigma_max^2)). The grid
always reports its sigma_max so callers can bound the tail at their scale.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

DEFAULT_SIGMA_MIN = 1e-2
DEFAULT_SIGMA_MAX = 1e3


@dataclass(frozen=True)
class SigmaGrid:
    """Strictly increasing positive noise levels plus a spacing tag."""

    nodes: np.ndarray
    spacing: str = "explicit"

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        if nodes.ndim != 1 or nodes.size < 2:
            raise ValueError("grid needs at least 2 nodes")
        if nodes[0] <= 0 or np.any(np.diff(nodes) <= 0):
            raise ValueError("grid nodes must be strictly increasing and positive")
        nodes.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)

    def __len__(self) -> int:
        return self.nodes.size

    @property
    def sigma_min(self) -> float:
        return float(self.nodes[0])

    @property
    def sigma_max(self) -> float:
        return float(self.nodes[-1])

    def to_dict(self) -> dict:
        return {
            "sigma_min": self.sigma_min,
            "sigma_max": self.sigma_max,
            "nodes": len(self),
            "spacing": self.spacing,
        }


@dataclass(frozen=True)
class IntegrandSeries:
    """Per-node Monte Carlo summary of the integrand f(sigma).

    Attributes:
        means: (m,) nonnegative per-node means of the squared weighted
            score gap.
        stderrs: (m,) per-node standard errors.
        n_samples: draws behind each node mean.
    """

    means: np.ndarray
    stderrs: np.ndarray
    n_samples: int

    def __post_init__(self):
        means = np.asarray(self.means, dtype=float)
        stderrs = np.asarray(self.stderrs, dtype=float)
        if means.shape != stderrs.shape or means.ndim != 1:
            raise ValueError("means and stderrs must be 1-D arrays of equal length")
        if np.any(means < 0):
            raise ValueError("integrand means must be nonnegative")
        if np.any(stderrs < 0):
            raise ValueError("integrand stderrs must be nonnegative")
        means.setflags(write=False)
        stderrs.setflags(write=False)
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "stderrs", stderrs)


def make_log_grid(sigma_min: float, sigma_max: float, count: int) -> SigmaGrid:
    """Log-uniform grid inclusive of both endpoints."""
    if not (0 < sigma_min < sigma_max):
        raise ValueError(f"need 0 < sigma_min < sigma_max, got [{sigma_min}, {sigma_max}]")
    if count < 2:
        raise ValueError(f"count must be >= 2, got {count}")
    return SigmaGrid(nodes=np.geomspace(sigma_min, sigma_max, count), spacing="log-uniform")


def _check_lengths(grid: SigmaGrid, series: IntegrandSeries) -> None:
    if series.means.size != len(grid):
        raise ValueError(
            f"series has {series.means.size} entries for a grid of {len(grid)} nodes"
        )


def node_weights(grid: SigmaGrid) -> np.ndarray:
    """Trapezoid weight attached to each node's integrand value f(sigma_j).

    The weights already include the sigma factor, so the integral is
    weights @ series.means and the propagated variance is
    sum (weights * stderrs)^2.
    """
    s = grid.nodes
    widths = np.diff(s)
    w = np.zeros_like(s)
    w[:-1] += 0.5 * widths
    w[1:] += 0.5 * widths
    return w * s


def cumulative_integral(grid: SigmaGrid, series: IntegrandSeries) -> np.ndarray:
    """Partial integrals up to each node; entry 0 is 0, the last is the total.

    Nondecreasing whenever the integrand means are nonnegative.
    """
    _check_lengths(grid, series)
    out = np.zeros(len(grid))
    g = series.means * grid.nodes  # integrand including the sigma weight
    out[1:] = np.cumsum(np.diff(grid.nodes) * 0.5 * (g[:-1] + g[1:]))
    return out


def integrate(grid: SigmaGrid, series: IntegrandSeries) -> tuple[float, float]:
    """Quadrature value of int f(sigma) sigma dsigma and its standard error.

    Per-node standard errors combine in quadrature: each node mean comes
    from its own sample slice, so node errors are independent.
    """
    _check_lengths(grid, series)
    value = float(cumulative_integral(grid, series)[-1])
    w = node_weights(grid)
    stderr = float(np.sqrt(np.sum((w * series.stderrs) ** 2)))
    return value, stderr


def series_csv(grid: SigmaGrid, series: IntegrandSeries) -> str:
    """CSV text (sigma, integrand_mean, integrand_stderr, cumulative_kl).

    Numbers carry 17 significant digits so the document round-trips the
    underlying doubles exactly.
    """
    _check_lengths(grid, series)
    cum = cumulative_integral(grid, series)
    buf = io.StringIO()
    buf.write("sigma,integrand_mean,integrand_stderr,cumulative_kl\n")
    for s, m, e, c in zip(grid.nodes, series.means, series.stderrs, cum):
        buf.write(f"{s:.17g},{m:.17g},{e:.17g},{c:.17g}\n")
    return buf.getvalue()
