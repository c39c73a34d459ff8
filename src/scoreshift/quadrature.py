"""Sigma-axis discretization and the weighted outer integral.

The divergence estimators all reduce to an integral of the form
``int f(sigma) * sigma dsigma`` where f is a per-noise-level expectation
estimated by Monte Carlo. This module owns the log-uniform sigma grid,
given by its endpoints and node count as a config's grid block is, the
trapezoid rule in sigma, standard-error propagation, and the running partial
integrals used for "divergence accumulated up to noise level sigma" curves.
The integrand enters as two plain (m,) arrays, its Monte Carlo mean and
standard error at each of the grid's m nodes.

The formal upper limit of the integral is infinity; the grid truncates it.
For location-shift pairs the integrand decays like sigma^-3, so a cap of
1e3 leaves a tail below ||dmu||^2 / (2 (1 + sigma_max^2)). The grid
always reports its sigma_max so callers can bound the tail at their scale.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class SigmaGrid:
    """count log-uniform noise levels from sigma_min to sigma_max, both included.

    A grid is its spec, and to_dict is a config's grid block (count under
    "nodes"). Needs 0 < sigma_min < sigma_max < inf and count >= 2. nodes
    is the read-only np.geomspace array, built on first use, so grids
    compare by spec; its endpoints are sigma_min and sigma_max exactly.
    """

    sigma_min: float
    sigma_max: float
    count: int

    def __post_init__(self):
        if not (0 < self.sigma_min < self.sigma_max < np.inf):
            raise ValueError(
                f"need 0 < sigma_min < sigma_max < inf, got [{self.sigma_min}, {self.sigma_max}]"
            )
        if self.count < 2:
            raise ValueError(f"count must be >= 2, got {self.count}")
        object.__setattr__(self, "sigma_min", float(self.sigma_min))
        object.__setattr__(self, "sigma_max", float(self.sigma_max))

    @cached_property
    def nodes(self) -> np.ndarray:
        nodes = np.geomspace(self.sigma_min, self.sigma_max, self.count)
        nodes.setflags(write=False)
        return nodes

    def __len__(self) -> int:
        return self.count

    def to_dict(self) -> dict:
        return {"sigma_min": self.sigma_min, "sigma_max": self.sigma_max, "nodes": self.count}


def _per_node(grid: SigmaGrid, values, name: str) -> np.ndarray:
    """values as a 1-D float array with one nonnegative entry per grid node."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 or arr.size != len(grid):
        raise ValueError(f"{name} has shape {arr.shape} for a grid of {len(grid)} nodes")
    if np.any(arr < 0):
        raise ValueError(f"integrand {name} must be nonnegative")
    return arr


def node_weights(grid: SigmaGrid) -> np.ndarray:
    """Trapezoid weight attached to each node's integrand value f(sigma_j).

    The weights already include the sigma factor, so the integral is
    weights @ means and the propagated variance is sum (weights * stderrs)^2.
    """
    s = grid.nodes
    widths = np.diff(s)
    w = np.zeros_like(s)
    w[:-1] += 0.5 * widths
    w[1:] += 0.5 * widths
    return w * s


def cumulative_integral(grid: SigmaGrid, means) -> np.ndarray:
    """Partial integrals up to each node; entry 0 is 0, the last is the total.

    Nondecreasing, as the integrand means must be nonnegative.
    """
    out = np.zeros(len(grid))
    g = _per_node(grid, means, "means") * grid.nodes  # integrand including the sigma weight
    out[1:] = np.cumsum(np.diff(grid.nodes) * 0.5 * (g[:-1] + g[1:]))
    return out


def integrate(grid: SigmaGrid, means, stderrs) -> tuple[float, float]:
    """Quadrature value of int f(sigma) sigma dsigma and its standard error.

    means and stderrs hold f's Monte Carlo mean and standard error at each
    node. They combine in quadrature: each node mean comes from its own
    sample slice, so node errors are independent.
    """
    value = float(cumulative_integral(grid, means)[-1])
    w = node_weights(grid)
    stderr = float(np.sqrt(np.sum((w * _per_node(grid, stderrs, "stderrs")) ** 2)))
    return value, stderr


def series_csv(grid: SigmaGrid, means, stderrs) -> str:
    """CSV text (sigma, integrand_mean, integrand_stderr, cumulative_kl).

    Numbers carry 17 significant digits so the document round-trips the
    underlying doubles exactly.
    """
    means = _per_node(grid, means, "means")
    stderrs = _per_node(grid, stderrs, "stderrs")
    cum = cumulative_integral(grid, means)
    buf = io.StringIO()
    buf.write("sigma,integrand_mean,integrand_stderr,cumulative_kl\n")
    for s, m, e, c in zip(grid.nodes, means, stderrs, cum):
        buf.write(f"{s:.17g},{m:.17g},{e:.17g},{c:.17g}\n")
    return buf.getvalue()
