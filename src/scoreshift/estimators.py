"""Score-gap KL estimators: image domain, measurement domain, invertible case.

All three estimators share one skeleton: at every node of a sigma grid,
average a squared score-function gap over a Monte Carlo batch, then
integrate the per-node means against the sigma weight. They differ in
where the gap is evaluated and how it is weighted:

  * image domain: points are x + sigma * eps with x drawn from the
    in-distribution prior; the gap is the plain difference of the two
    priors' smoothed scores.
  * measurement domain: points are lifted noised projections V ybar_sigma
    built from corrupted observations only. The gap used is the difference
    of the noised-measurement marginal scores, which in terms of the two
    priors' image-domain scores is P E[P] V^T (grad log p - grad log q)
    evaluated at the lifted point; it is weighted by W = E[P]^(-3/2) in the
    shared projected basis. The combined per-coordinate factor on observed
    coordinates is therefore E[P]^(-1/2), which is what makes a full
    observation reduce exactly to the image-domain estimator.
  * invertible case: full-rank operators make ybar recover V^T x exactly,
    so the image-domain integral applies in the operator's own basis with
    no weighting.

Per-node noise is drawn from the stream (seed, "sigma-noise", node), in
batch shape (N, dim), identically in all estimators; with shared sample
points this makes full-observation runs match the image-domain estimator
bit for bit.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .gmm import GaussianMixture, SampleBatch, sample, score
from .measurements import (
    BasisMismatch,
    MeasurementOperator,
    OperatorSampler,
    ProjectedMeasurement,
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


@dataclass(frozen=True)
class MeasurementDataset:
    """Corrupted observations plus the sampler that resolves their operators.

    Every measurement's operator_id must resolve through the dataset's
    sampler; mixing operators from samplers with different right bases is
    rejected because their projected coordinates are not comparable.
    """

    sampler: OperatorSampler
    measurements: tuple[ProjectedMeasurement, ...]
    provenance: str = "from-p-samples"
    _operators: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        meas = tuple(self.measurements)
        if not meas:
            raise ValueError("dataset must contain at least one measurement")
        fp = self.sampler.fingerprint()
        for m in meas:
            got = m.operator_id.rsplit(":", 1)[0]
            if got != fp:
                raise BasisMismatch(
                    "measurement operator "
                    f"{m.operator_id!r} does not resolve through this sampler "
                    f"(expected fingerprint {fp!r}); datasets must share one "
                    "sampler and right basis"
                )
            if m.ybar.shape != (self.sampler.dim,):
                raise ValueError("measurement dim does not match sampler dim")
        object.__setattr__(self, "measurements", meas)

    def __len__(self) -> int:
        return len(self.measurements)

    def operators(self) -> list[MeasurementOperator]:
        """Each measurement's operator; every distinct op_index is drawn once."""
        cache = self._operators
        for m in self.measurements:
            if m.op_index not in cache:
                cache[m.op_index] = sample_operator(self.sampler, m.op_index)
        return [cache[m.op_index] for m in self.measurements]

    @classmethod
    def from_samples(
        cls,
        sampler: OperatorSampler,
        points: np.ndarray | SampleBatch,
        sigma_z: float = 0.0,
        seed: int = 0,
        n_operators: int | None = None,
    ) -> "MeasurementDataset":
        """Acquire one measurement per sample point.

        Measurement i uses operator index i (or i mod n_operators when a
        limited pool of operators should be reused) and measurement noise
        from the stream (seed, "meas-z", i), so datasets built at different
        sigma_z from the same seed share their x draws and noise shapes.
        Each distinct operator index is drawn once.
        """
        pts = points.points if isinstance(points, SampleBatch) else np.atleast_2d(points)
        ops = {}
        meas = []
        for i, x in enumerate(pts):
            idx = i if n_operators is None else i % n_operators
            if idx not in ops:
                ops[idx] = sample_operator(sampler, idx)
            meas.append(to_projected(ops[idx], x, sigma_z, stream(seed, _DATA_Z_TAG, i)))
        return cls(sampler=sampler, measurements=tuple(meas))

    def to_dict(self) -> dict:
        return {
            "provenance": "external-file",
            "sampler": self.sampler.to_dict(),
            "measurements": [
                {
                    "op_index": m.op_index,
                    "sigma_z": m.sigma_z,
                    "ybar": m.ybar.tolist(),
                }
                for m in self.measurements
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
        sampler = OperatorSampler.from_dict(doc["sampler"])
        fp = sampler.fingerprint()
        meas = tuple(
            ProjectedMeasurement(
                ybar=np.asarray(rec["ybar"], dtype=float),
                operator_id=f"{fp}:{rec['op_index']}",
                op_index=int(rec["op_index"]),
                sigma_z=float(rec.get("sigma_z", 0.0)),
            )
            for rec in doc["measurements"]
        )
        return cls(sampler=sampler, measurements=meas, provenance="external-file")


def _mean_stderr(vals: np.ndarray) -> tuple[float, float]:
    n = vals.size
    mean = float(vals.mean())
    stderr = float(vals.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    return mean, stderr


def _evaluate_nodes(grid: SigmaGrid, node_fn, workers: int) -> IntegrandSeries:
    """Run node_fn(j, sigma) -> per-sample values over all nodes."""
    sigmas = list(enumerate(grid.nodes))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(lambda js: node_fn(*js), sigmas))
    else:
        results = [node_fn(j, s) for j, s in sigmas]
    stats = [_mean_stderr(vals) for vals in results]
    means = np.array([m for m, _ in stats])
    stderrs = np.array([e for _, e in stats])
    n = results[0].size
    return IntegrandSeries(means=means, stderrs=stderrs, n_samples=n)


def _finish(series, grid, n_samples, mode, rule) -> KlEstimate:
    value, stderr = integrate(grid, series, rule)
    return KlEstimate(
        value=value,
        stderr=stderr,
        series=series,
        grid=grid,
        n_samples=n_samples,
        mode=mode,
        rule=rule,
    )


def kl_image(
    p: GaussianMixture,
    q: GaussianMixture,
    grid: SigmaGrid,
    n_samples: int | None = None,
    samples: SampleBatch | np.ndarray | None = None,
    seed: int = 0,
    rule: str = "trapezoid",
    workers: int = 1,
) -> KlEstimate:
    """Image-domain divergence: integrated squared score gap at noised draws.

    Args:
        n_samples: draw a fresh batch x ~ p at every sigma node (default
            estimator; node means then have independent errors).
        samples: instead reuse one fixed batch at every node (common random
            numbers; noise is still fresh per node). Exactly one of
            n_samples / samples must be given.
        seed: stream seed; node j uses (seed, "node-x", j) for draws and
            (seed, "sigma-noise", j) for the added noise.
    """
    if p.dim != q.dim:
        raise ValueError(f"dimension mismatch: p dim {p.dim}, q dim {q.dim}")
    if (n_samples is None) == (samples is None):
        raise ValueError("pass exactly one of n_samples or samples")
    if samples is not None:
        fixed = samples.points if isinstance(samples, SampleBatch) else np.atleast_2d(samples)
        count = fixed.shape[0]
    else:
        if n_samples < 2:
            raise ValueError("n_samples must be >= 2")
        fixed = None
        count = n_samples

    def node(j: int, sigma: float) -> np.ndarray:
        if fixed is None:
            x = sample(p, count, stream(seed, _NODE_X_TAG, j)).points
        else:
            x = fixed
        eps = stream(seed, _NOISE_TAG, j).standard_normal((count, p.dim))
        pts = x + sigma * eps
        gap = score(p, pts, sigma) - score(q, pts, sigma)
        return np.einsum("ni,ni->n", gap, gap)

    series = _evaluate_nodes(grid, node, workers)
    return _finish(series, grid, count, "image", rule)


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
    ops = data.operators()
    ybar = np.stack([m.ybar for m in data.measurements])  # (N, n)
    masks = np.stack([op.projection_diag for op in ops])  # (N, n)
    basis = data.sampler.basis
    factor = stats.w_diag * stats.ep_diag  # = ep^(-1/2) per coordinate
    count = len(data)

    def node(j: int, sigma: float) -> np.ndarray:
        eps = stream(seed, _NOISE_TAG, j).standard_normal((count, p.dim))
        ybar_sigma = ybar + sigma * (eps * masks)
        lifted = basis.forward(ybar_sigma)
        gap = score(p, lifted, sigma) - score(q, lifted, sigma)
        gap_proj = basis.inverse(gap) * (factor[None, :] * masks)
        return np.einsum("ni,ni->n", gap_proj, gap_proj)

    series = _evaluate_nodes(grid, node, workers)
    return _finish(series, grid, count, "measurement", rule)


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
    ops = data.operators()
    bad = [op.operator_id for op in ops if not op.is_full_rank]
    if bad:
        raise ValueError(
            f"kl_invertible requires full-rank operators; rank-deficient: {bad[:4]}"
        )
    ybar = np.stack([m.ybar for m in data.measurements])
    basis = data.sampler.basis
    count = len(data)

    def node(j: int, sigma: float) -> np.ndarray:
        eps = stream(seed, _NOISE_TAG, j).standard_normal((count, p.dim))
        lifted = basis.forward(ybar + sigma * eps)
        gap = score(p, lifted, sigma) - score(q, lifted, sigma)
        return np.einsum("ni,ni->n", gap, gap)

    series = _evaluate_nodes(grid, node, workers)
    return _finish(series, grid, count, "invertible", rule)
