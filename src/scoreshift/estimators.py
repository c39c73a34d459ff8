"""Score-gap KL estimators: image domain, measurement domain, invertible case.

The divergence is the integral over sigma of E||grad log p_sigma -
grad log q_sigma||^2 sigma, and one kernel, _score_gap_kl, evaluates it in
all three settings. Node j of the sigma grid draws eps (N, dim) from the
stream (seed, "sigma-noise", j), masks it to a support, lifts
base + sigma * eps through a basis, takes the two priors' score gap there,
optionally maps the gap back through the basis with a per-coordinate
weight, and averages its squared norm; the node means are then integrated.

  * image domain: base points x ~ p (or one fixed array); nothing else.
  * measurement domain: base ybar from a MeasurementDataset, noise masked
    to each row's support P, points lifted as V ybar_sigma. The gap is the
    noised-measurement marginal score difference P E[P] V^T (grad log p -
    grad log q), weighted by W = E[P]^(-3/2) in the shared projected basis,
    so observed coordinates carry E[P]^(-1/2) in all. That makes a full
    observation reduce exactly to the image-domain estimator.
  * invertible case: full-rank operators make ybar recover V^T x exactly,
    so the image-domain integral applies in the operator's own basis.

A MeasurementDataset holds observations as columns: ybar (N, n), op_index
(N,), sigma_z (N,) and the boolean support (N, n) of each row's P. Since
every estimator draws its noise in the one kernel, full-observation runs on
shared points match the image-domain estimator bit for bit.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .gmm import GaussianMixture, sample, score
from .measurements import (
    BasisMismatch,
    MeasurementOperator,
    OperatorSampler,
    ProjectionStats,
    sample_operator,
    to_projected,
)
from .quadrature import IntegrandSeries, SigmaGrid, integrate
from .rng import stream

_NOISE_TAG = "sigma-noise"
_NODE_X_TAG = "node-x"
_DATA_Z_TAG = "meas-z"


@dataclass(frozen=True)
class KlEstimate:
    """Output of one estimator run.

    value is exactly the quadrature of the recorded series on the recorded
    grid, so reports can be re-derived from the series alone.
    """

    value: float
    stderr: float
    series: IntegrandSeries
    grid: SigmaGrid
    n_samples: int
    mode: str
    rule: str = "trapezoid"

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "value": self.value,
            "stderr": self.stderr,
            "n_samples": self.n_samples,
            "grid": self.grid.to_dict(),
            "rule": self.rule,
        }


@dataclass(frozen=True, eq=False)
class MeasurementDataset:
    """Corrupted observations in columns, plus the sampler of their operators.

    Row i is one observation: ybar[i] (n,) in the sampler's shared projected
    basis, taken through operator op_index[i] at measurement-noise level
    sigma_z[i] (image units, 0 for noiseless data). One sampler means one
    right basis, so every row's projected coordinates are comparable.
    Construction validates the columns and derives support, the boolean
    (N, n) diagonal of each row's projection P, by drawing every distinct
    operator index once. All four arrays are read-only. Datasets compare by
    identity, as array columns have no single truth value.
    """

    sampler: OperatorSampler
    ybar: np.ndarray
    op_index: np.ndarray
    sigma_z: np.ndarray
    provenance: str = "from-p-samples"
    support: np.ndarray = field(init=False, repr=False)
    _operators: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        ybar = np.asarray(self.ybar, dtype=float)
        op_index = np.asarray(self.op_index)
        sigma_z = np.asarray(self.sigma_z, dtype=float)
        if ybar.ndim == 0 or len(ybar) == 0:
            raise ValueError("dataset must contain at least one measurement")
        count = len(ybar)
        if ybar.shape != (count, self.sampler.dim):
            raise ValueError(
                f"ybar must be (N, {self.sampler.dim}) for this sampler, got {ybar.shape}"
            )
        if op_index.shape != (count,) or op_index.dtype.kind not in "iu":
            raise ValueError(f"op_index must be {count} integers")
        if np.any(op_index < 0):
            raise ValueError("op_index entries must be >= 0")
        if sigma_z.shape != (count,) or np.any(sigma_z < 0):
            raise ValueError(f"sigma_z must be {count} values >= 0")
        indices, rows = np.unique(op_index, return_inverse=True)
        drawn = np.stack([sample_operator(self.sampler, int(i)).support for i in indices])
        support = drawn[rows]
        for name, value in (
            ("ybar", ybar), ("op_index", op_index), ("sigma_z", sigma_z), ("support", support)
        ):
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    def __len__(self) -> int:
        return len(self.ybar)

    def operators(self) -> list[MeasurementOperator]:
        """Each row's operator, built from its support once per distinct op_index."""
        cache = self._operators
        fingerprint = self.sampler.fingerprint()
        for i, idx in enumerate(self.op_index.tolist()):
            if idx not in cache:
                cache[idx] = MeasurementOperator(
                    basis=self.sampler.basis,
                    singular_values=np.where(self.support[i], self.sampler.singular_value, 0.0),
                    operator_id=f"{fingerprint}:{idx}",
                )
        return [cache[idx] for idx in self.op_index.tolist()]

    @classmethod
    def from_samples(
        cls,
        sampler: OperatorSampler,
        points: np.ndarray,
        sigma_z: float = 0.0,
        seed: int = 0,
        n_operators: int | None = None,
    ) -> "MeasurementDataset":
        """Acquire one measurement per row of points, an (N, n) array.

        Measurement i uses operator index i (or i mod n_operators when a
        limited pool of operators should be reused) and measurement noise
        from the stream (seed, "meas-z", i), so datasets built at different
        sigma_z from the same seed share their x draws and noise shapes.
        The dataset is built first, on an all-zero placeholder ybar, which
        draws each distinct operator index once; all rows are then acquired
        on its support in one to_projected call and replace the placeholder.
        """
        pts = np.atleast_2d(points)
        count = len(pts)
        op_index = np.arange(count) if n_operators is None else np.arange(count) % n_operators
        placeholder = np.broadcast_to(0.0, (count, sampler.dim))
        data = cls(sampler, placeholder, op_index, np.full(count, sigma_z))
        rngs = (stream(seed, _DATA_Z_TAG, i) for i in range(count)) if sigma_z > 0 else ()
        ybar = to_projected(
            sampler.basis, data.support, pts, sigma_z, rngs, sampler.singular_value
        )
        ybar.setflags(write=False)
        object.__setattr__(data, "ybar", ybar)
        return data

    def to_dict(self) -> dict:
        return {
            "provenance": "external-file",
            "sampler": self.sampler.to_dict(),
            "measurements": [
                {"op_index": idx, "sigma_z": sz, "ybar": row}
                for idx, sz, row in zip(
                    self.op_index.tolist(), self.sigma_z.tolist(), self.ybar.tolist()
                )
            ],
        }

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "MeasurementDataset":
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        records = doc["measurements"]
        return cls(
            sampler=OperatorSampler.from_dict(doc["sampler"]),
            ybar=[rec["ybar"] for rec in records],
            op_index=[int(rec["op_index"]) for rec in records],
            sigma_z=[float(rec.get("sigma_z", 0.0)) for rec in records],
            provenance="external-file",
        )


def _score_gap_kl(
    p: GaussianMixture, q: GaussianMixture, grid: SigmaGrid, base, count: int, seed: int,
    rule: str, workers: int, mode: str, support=None, basis=None, factor=None,
) -> KlEstimate:
    """The one score-gap kernel: per-node squared gaps, node statistics, quadrature.

    Node j draws eps (count, dim) from (seed, "sigma-noise", j), masks it to
    support, evaluates both scores at basis.forward(base(j) + sigma * eps)
    and reduces the squared gap per row, taken back through basis.inverse
    and weighted by factor when a factor is given. A None support, basis or
    factor is the identity and is skipped, not applied.
    """

    def node(j: int, sigma: float) -> tuple[float, float]:
        eps = stream(seed, _NOISE_TAG, j).standard_normal((count, p.dim))
        if support is not None:
            eps *= support
        pts = base(j) + sigma * eps
        if basis is not None:
            pts = basis.forward(pts)
        gap = score(p, pts, sigma) - score(q, pts, sigma)
        if factor is not None:
            gap = basis.inverse(gap) * factor
        vals = np.einsum("ni,ni->n", gap, gap)
        stderr = float(vals.std(ddof=1) / np.sqrt(count)) if count > 1 else 0.0
        return float(vals.mean()), stderr

    nodes = (range(len(grid)), grid.nodes)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            per_node = list(pool.map(node, *nodes))
    else:
        per_node = list(map(node, *nodes))
    means, stderrs = (np.array(column) for column in zip(*per_node))
    series = IntegrandSeries(means=means, stderrs=stderrs, n_samples=count)
    value, stderr = integrate(grid, series, rule)
    return KlEstimate(value, stderr, series, grid, count, mode, rule)


def kl_image(
    p: GaussianMixture,
    q: GaussianMixture,
    grid: SigmaGrid,
    n_samples: int | None = None,
    samples: np.ndarray | None = None,
    seed: int = 0,
    rule: str = "trapezoid",
    workers: int = 1,
) -> KlEstimate:
    """Image-domain divergence: integrated squared score gap at noised draws.

    Args:
        n_samples: draw a fresh batch x ~ p at every sigma node (default
            estimator; node means then have independent errors).
        samples: instead reuse one fixed (N, n) array of points at every
            node (common random numbers; noise is still fresh per node).
            Exactly one of n_samples / samples must be given.
        seed: stream seed; node j uses (seed, "node-x", j) for draws and
            (seed, "sigma-noise", j) for the added noise.
    """
    if p.dim != q.dim:
        raise ValueError(f"dimension mismatch: p dim {p.dim}, q dim {q.dim}")
    if (n_samples is None) == (samples is None):
        raise ValueError("pass exactly one of n_samples or samples")
    if samples is None and n_samples < 2:
        raise ValueError("n_samples must be >= 2")
    fixed = None if samples is None else np.atleast_2d(samples)
    count = n_samples if fixed is None else fixed.shape[0]

    def base(j: int) -> np.ndarray:
        return sample(p, count, stream(seed, _NODE_X_TAG, j)) if fixed is None else fixed

    return _score_gap_kl(p, q, grid, base, count, seed, rule, workers, "image")


def kl_measurement(
    p: GaussianMixture,
    q: GaussianMixture,
    data: MeasurementDataset,
    stats: ProjectionStats,
    grid: SigmaGrid,
    seed: int = 0,
    rule: str = "trapezoid",
    workers: int = 1,
) -> KlEstimate:
    """Measurement-domain divergence from corrupted observations only.

    At each sigma node every measurement is re-noised on its observed
    coordinates, lifted to signal coordinates, and both priors' smoothed
    scores are evaluated there. The score gap is taken back to the shared
    projected basis, masked to the measurement's support, and weighted per
    coordinate by w_diag * ep_diag (the W = E[P]^(-3/2) compensation applied
    to the projected marginal's score difference, which carries P E[P]).
    Measurement noise needs no special handling here: it is already baked
    into ybar when the dataset is created.
    """
    if p.dim != q.dim or p.dim != data.sampler.dim:
        raise ValueError("dimension mismatch between priors and measurements")
    if stats.sampler_id and stats.sampler_id != data.sampler.fingerprint():
        raise BasisMismatch("projection stats come from a different sampler")
    if stats.ep_diag.size != data.sampler.dim:
        raise ValueError("projection stats dim does not match sampler")
    support = data.support
    factor = stats.w_diag * stats.ep_diag * support  # = ep^(-1/2) on observed coordinates
    return _score_gap_kl(
        p, q, grid, lambda j: data.ybar, len(data), seed, rule, workers, "measurement",
        support=support, basis=data.sampler.basis, factor=factor,
    )


def kl_invertible(
    p: GaussianMixture,
    q: GaussianMixture,
    data: MeasurementDataset,
    grid: SigmaGrid,
    seed: int = 0,
    rule: str = "trapezoid",
    workers: int = 1,
) -> KlEstimate:
    """Divergence from measurements under invertible (full-rank) operators.

    With every singular value positive, ybar recovers V^T x exactly, so the
    image-domain integral applies directly to noised measurements: no
    weighting and no operator distribution are involved. With an identity
    operator this follows the image-domain estimator's sample paths
    exactly.
    """
    if p.dim != q.dim or p.dim != data.sampler.dim:
        raise ValueError("dimension mismatch between priors and measurements")
    full = data.support.all(axis=1)
    if not full.all():
        bad = np.unique(data.op_index[~full])[:4].tolist()
        raise ValueError(
            f"kl_invertible requires full-rank operators; rank-deficient op_index: {bad}"
        )
    return _score_gap_kl(
        p, q, grid, lambda j: data.ybar, len(data), seed, rule, workers, "invertible",
        basis=data.sampler.basis,
    )
