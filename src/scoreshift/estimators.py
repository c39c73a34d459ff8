"""Score-gap KL estimators: image domain, measurement domain, invertible case.

The divergence is the integral over sigma of E||grad log p_sigma -
grad log q_sigma||^2 sigma, and one kernel, _score_gap_kl, evaluates it in
all three settings. Node j of the sigma grid gets its N points from the
estimator one block of rows at a time, into buffers the node reuses, so no
node holds an (N, dim) array: it takes the two priors' score gap on each
block, optionally weights it per coordinate, and keeps each row's squared
norm; the node means are then integrated. The kernel never sees a basis.

  * image domain: fresh points x_sigma ~ p_sigma drawn block by block from
    the stream (seed, "node-x", j) by gmm.sample_blocks, or one fixed array
    noised as base + sigma * eps with eps from (seed, "sigma-noise", j).
  * measurement domain: base ybar from a MeasurementDataset, noised the
    same way with eps masked to each row's support P. The priors are
    first rotated into the sampler's projected basis (means V^T mu_k).
    The components are isotropic and V is orthogonal, so ||V y - mu_k|| =
    ||y - V^T mu_k|| and the rotated scores at ybar_sigma equal
    V^T (grad log p - grad log q) at the lift V ybar_sigma. The gap is the
    noised-measurement marginal score difference P E[P] V^T (grad log p -
    grad log q), weighted by W = E[P]^(-3/2), so observed coordinates
    carry E[P]^(-1/2) in all. E[P] is the dataset's own observation
    frequency, so a full observation reduces exactly to the image-domain
    estimator.
  * invertible case: full-rank operators make ybar recover V^T x exactly,
    so the image-domain integral applies to the rotated priors; with E[P]
    = 1 that is the measurement-domain estimator bit for bit.

kl_image and kl_measurement also take a tuple of qs, scored on one pass
(points drawn and p scored once); each q's estimate is bit for bit its
one-q call's. Adaptation scores its before and after mixtures this way.

A MeasurementDataset holds observations as columns: ybar (N, n), op_index
(N,), sigma_z (N,) and the boolean support (N, n) of each row's P. Since
fixed points and measurements are noised by the one helper, _noised,
full-observation runs on shared points match the image-domain estimator
bit for bit.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

# sample is unused here; it stays bound because benchmarks/layers.py wraps estimators.sample
from .gmm import GaussianMixture, convolve, rotate, sample, sample_blocks, score
from .measurements import (
    OperatorSampler,
    RankDeficient,
    estimate_projection_stats,
    sample_operator,
    to_projected,
)
from .quadrature import SigmaGrid, integrate
from .rng import stream

_NOISE_TAG = "sigma-noise"
_NODE_X_TAG = "node-x"
# Budget for one (K, rows, dim) float64 temporary of score per block: 1 MiB
# leaves room for the block's other temporaries in a 2 MiB L2 cache. It
# bounds a node's points and noise too, which are drawn a block at a time.
_BLOCK_BYTES = 2**20


@dataclass(frozen=True)
class KlEstimate:
    """Output of one estimator run.

    node_means and node_stderrs, read-only (m,) arrays, are the integrand's
    mean and standard error at grid's m nodes; (value, stderr) is exactly
    integrate(grid, node_means, node_stderrs). That stderr treats node errors
    as independent, which only fresh-draw kl_image makes them: the other
    estimators reuse their rows at every node, and their stderr under-covers.
    """

    value: float
    stderr: float
    node_means: np.ndarray
    node_stderrs: np.ndarray
    grid: SigmaGrid
    n_samples: int
    mode: str

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "value": self.value,
            "stderr": self.stderr,
            "n_samples": self.n_samples,
            "grid": self.grid.to_dict(),
            "rule": "trapezoid",
        }


def operator_indices(count: int, n_operators: int | None) -> np.ndarray:
    """Each of count rows' operator index: row i's is i, or i mod n_operators
    when a limited pool of operators is reused, which needs an integer n_operators >= 1."""
    integer = isinstance(n_operators, (int, np.integer)) and not isinstance(n_operators, bool)
    if n_operators is not None and not (integer and n_operators >= 1):
        raise ValueError(f"n_operators must be an integer >= 1, got {n_operators!r}")
    rows = np.arange(count)
    return rows if n_operators is None else rows % n_operators


@dataclass(frozen=True, eq=False)
class MeasurementDataset:
    """Corrupted observations in columns, plus the sampler of their operators.

    Row i is one observation: ybar[i] (n,) in the sampler's shared projected
    basis, taken through operator op_index[i] with noise of std sigma_z[i]
    on each observed coordinate (0 for noiseless data). One sampler means
    one right basis, so every row's projected coordinates are comparable.
    Construction validates the finite columns and derives support, the boolean
    (N, n) diagonal of each row's projection P, by drawing every distinct
    operator index once; ybar must be 0 off each row's support, where no
    operator measures anything. All four arrays are read-only. Datasets
    compare by identity, as array columns have no single truth value.
    """

    sampler: OperatorSampler
    ybar: np.ndarray
    op_index: np.ndarray
    sigma_z: np.ndarray
    support: np.ndarray = field(init=False, repr=False)

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
        if not np.all(np.isfinite(ybar)):
            raise ValueError("ybar entries must be finite")
        if op_index.shape != (count,) or op_index.dtype.kind not in "iu":
            raise ValueError(f"op_index must be {count} integers")
        if np.any(op_index < 0):
            raise ValueError("op_index entries must be >= 0")
        if sigma_z.shape != (count,) or not np.all(np.isfinite(sigma_z) & (sigma_z >= 0)):
            raise ValueError(f"sigma_z must be {count} finite values >= 0")
        indices, rows = np.unique(op_index, return_inverse=True)
        drawn = np.stack([sample_operator(self.sampler, int(i)) for i in indices])
        support = drawn[rows]
        stray = np.argwhere((ybar != 0) & ~support)
        if stray.size:
            i, j = stray[0].tolist()
            raise ValueError(
                f"ybar[{i}][{j}] is {float(ybar[i, j])!r}, but operator {op_index[i]} "
                f"does not observe coordinate {j}: ybar must be 0 there"
            )
        for name, value in (
            ("ybar", ybar), ("op_index", op_index), ("sigma_z", sigma_z), ("support", support)
        ):
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    def __len__(self) -> int:
        return len(self.ybar)

    def operators(self) -> np.ndarray:
        """Each row's singular values, (N, n): one on the support, zero off it.

        With sampler.basis as V, row i is operator op_index[i] in SVD form.
        """
        return np.where(self.support, 1.0, 0.0)

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

        Measurement i uses operator operator_indices(N, n_operators)[i] and
        noise of std sigma_z from the stream (seed, "meas-z", i), so datasets
        built at different sigma_z from the same seed share their x draws and
        noise shapes.
        The dataset is built first, on an all-zero placeholder ybar, which
        draws each distinct operator index once; all rows are then acquired
        on its support in one to_projected call and replace the placeholder,
        checked finite as the constructor checks ybar.
        """
        count = len(points)
        op_index = operator_indices(count, n_operators)
        placeholder = np.broadcast_to(0.0, (count, sampler.dim))
        data = cls(sampler, placeholder, op_index, np.full(count, sigma_z))
        ybar = to_projected(sampler.basis, data.support, points, sigma_z, seed)
        if not np.all(np.isfinite(ybar)):
            raise ValueError("ybar entries must be finite")
        ybar.setflags(write=False)
        object.__setattr__(data, "ybar", ybar)
        return data

    def to_dict(self) -> dict:
        return {
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
        # a bool or a string is no JSON number, and an integer past a float's range
        # fits no float: refuse them before numpy coerces or overflows on them
        for i, rec in enumerate(records):
            fields = [("op_index", rec["op_index"], int)]
            fields.append(("sigma_z", rec.get("sigma_z", 0.0), float))
            fields += [(f"ybar[{j}]", value, float) for j, value in enumerate(rec["ybar"])]
            for name, value, kind in fields:
                if isinstance(value, bool) or not isinstance(value, (int, kind)):
                    what = "an integer" if kind is int else "a number"
                    raise ValueError(f"measurements[{i}].{name} must be {what}, got {value!r}")
                try:
                    kind(value)
                except OverflowError:
                    raise ValueError(f"measurements[{i}].{name} is too large for a float") from None
        return cls(
            sampler=OperatorSampler.from_dict(doc["sampler"]),
            ybar=[rec["ybar"] for rec in records],
            op_index=[rec["op_index"] for rec in records],
            sigma_z=[rec.get("sigma_z", 0.0) for rec in records],
        )


def _noised(base: np.ndarray, seed: int, support=None):
    """Node points base + sigma * (eps * support), eps from (seed, "sigma-noise", j).

    The (N, dim) base is reused at every node; only its noise is fresh. Each
    block's eps is drawn into one buffer the node reuses, then masked, scaled
    and added to the block's base rows in place. numpy fills normals in
    sequence, so the blocks are the one-draw noise bit for bit. A None
    support is the identity and is skipped, not applied.
    """
    count, dim = base.shape

    def points(j: int, sigma: float, rows: int):
        rng = stream(seed, _NOISE_TAG, j)
        buf = np.empty((min(rows, count), dim))
        for start in range(0, count, rows):
            block = slice(start, start + rows)
            pts = rng.standard_normal(out=buf[: len(base[block])])
            if support is not None:
                pts *= support[block]
            pts *= sigma
            pts += base[block]
            yield block, pts

    return points


def _score_gap_kl(
    p: GaussianMixture, qs: tuple[GaussianMixture, ...], grid: SigmaGrid, points, count: int,
    workers: int, mode: str, support=None, weight=None,
) -> tuple[KlEstimate, ...]:
    """The one score-gap kernel: per-node squared gaps, node statistics, quadrature.

    Node j walks its count points in blocks of rows, (block, pts) from
    points(j, sigma, rows), a slice of the count rows and those rows' points:
    p's score, then for each q its score, the gap (masked in place to the
    block's rows of the (count, dim) support, then times the (dim,) weight;
    a None is skipped) and each row's squared norm, into that q's (count,)
    array whose mean and stderr are the node's. Masking first gives the
    bits of gap * (weight * support) without a block-sized temporary, which
    on worker threads would make glibc trim and re-fault the heap each
    block. Each q's estimate is bit for bit that of qs = (q,). A block holds
    max(1, _BLOCK_BYTES // (8 K dim)) rows, K the most components, 170 for
    K = 3 at dim 256, so score's (K, rows, dim) float64 temporaries stay in
    cache (2048 rows would make 12.6 MB ones) and a node's points never take
    more than a block. Blocking is exact: each step computes row i from row
    i alone, in an order that does not depend on the rows beside it. All
    share one coordinate system.
    """
    rows = max(1, _BLOCK_BYTES // (8 * max(m.n_components for m in (p, *qs)) * p.dim))

    def node(j: int, sigma: float) -> list[tuple[float, float]]:
        vals = np.empty((len(qs), count))
        for block, pts in points(j, sigma, rows):
            # Free as `score(p) - score(q)` would: the last q's subtraction drops
            # p's score, a gap goes before the next q. Else glibc trims and
            # re-faults the heap: 1 MiB a block at dim 64 on worker threads.
            sps = [score(p, pts, sigma)] * len(qs)
            for q, v in zip(qs, vals):
                gap = sps.pop() - score(q, pts, sigma)
                if support is not None:
                    gap *= support[block]
                if weight is not None:
                    gap *= weight
                v[block] = np.einsum("ni,ni->n", gap, gap)
                if sps:
                    del gap
        root = np.sqrt(count)
        return [(v.mean(), v.std(ddof=1) / root if count > 1 else 0.0) for v in vals]

    nodes = (range(len(grid)), grid.nodes)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            per_node = list(pool.map(node, *nodes))
    else:
        per_node = list(map(node, *nodes))
    # (q, mean or stderr, node); its views, the node arrays, are read-only too
    stats = np.array(per_node).reshape(len(grid), len(qs), 2).transpose(1, 2, 0)
    stats.setflags(write=False)
    return tuple(
        KlEstimate(*integrate(grid, means, stderrs), means, stderrs, grid, count, mode)
        for means, stderrs in stats
    )


def kl_image(
    p: GaussianMixture,
    q: GaussianMixture | tuple[GaussianMixture, ...],
    grid: SigmaGrid,
    n_samples: int | None = None,
    samples: np.ndarray | None = None,
    seed: int = 0,
    workers: int = 1,
) -> KlEstimate | tuple[KlEstimate, ...]:
    """Image-domain divergence: integrated squared score gap at noised draws.

    A tuple of mixtures for q gives a tuple of estimates (module docstring).

    Args:
        n_samples: draw a fresh batch x_sigma ~ p_sigma at every sigma node
            (default estimator; node means then have independent errors).
            p_sigma = convolve(p, sigma) is again a mixture, so the batch is
            drawn block by block by sample_blocks from the stream (seed,
            "node-x", j): x ~ p plus sigma * eps in distribution, from half
            the normal draws, and bit for bit one sample() call.
        samples: instead reuse one fixed (N, n) array of points at every
            node (common random numbers), noised per node as base +
            sigma * eps with eps from (seed, "sigma-noise", j), the same
            noise the measurement estimators draw, so a full observation
            of these points follows this estimator bit for bit. It needs
            at least one row, all finite, as a MeasurementDataset does.
            Exactly one of n_samples / samples must be given.
    """
    qs = q if isinstance(q, tuple) else (q,)
    if any(m.dim != p.dim for m in qs):
        raise ValueError(f"dimension mismatch: p dim {p.dim}, q dims {[m.dim for m in qs]}")
    if (n_samples is None) == (samples is None):
        raise ValueError("pass exactly one of n_samples or samples")
    if samples is None and n_samples < 2:
        raise ValueError("n_samples must be >= 2")

    def points(j: int, sigma: float, rows: int):
        return sample_blocks(convolve(p, sigma), n_samples, stream(seed, _NODE_X_TAG, j), rows)

    count = n_samples
    if samples is not None:
        fixed = np.asarray(samples, dtype=float)
        if fixed.shape[1:] != (p.dim,):
            raise ValueError(f"samples must be (N, {p.dim}) for these priors, got {fixed.shape}")
        if len(fixed) == 0 or not np.all(np.isfinite(fixed)):
            raise ValueError("samples must hold at least one row, and only finite entries")
        points, count = _noised(fixed, seed), len(fixed)
    estimates = _score_gap_kl(p, qs, grid, points, count, workers, "image")
    return estimates if isinstance(q, tuple) else estimates[0]


def kl_measurement(
    p: GaussianMixture,
    q: GaussianMixture | tuple[GaussianMixture, ...],
    data: MeasurementDataset,
    grid: SigmaGrid,
    seed: int = 0,
    workers: int = 1,
) -> KlEstimate | tuple[KlEstimate, ...]:
    """Measurement-domain divergence from corrupted observations only.

    p and q (or each of a tuple of qs, as for kl_image) are rotated into
    the sampler's projected basis once. At each sigma node every measurement
    is re-noised on its observed coordinates and both rotated priors'
    smoothed scores are evaluated there. The score gap is masked to the
    measurement's support and weighted per coordinate by ep^(-3/2) * ep
    (the W = E[P]^(-3/2) compensation applied to the projected marginal's
    score difference, which carries P E[P]). ep is the data's own
    observation frequency (estimate_projection_stats), so each coordinate
    contributes the mean squared gap over the rows that observed it, and a
    coordinate no row observes raises SpanViolation.
    Measurement noise needs no special handling here: it is already baked
    into ybar when the dataset is created.
    """
    qs = q if isinstance(q, tuple) else (q,)
    if any(m.dim != p.dim for m in qs) or p.dim != data.sampler.dim:
        raise ValueError("dimension mismatch between priors and measurements")
    support = data.support
    ep = estimate_projection_stats(support)
    weight = ep**-1.5 * ep  # = ep^(-1/2), applied on each row's observed coordinates
    to_basis = data.sampler.basis.matrix.T
    estimates = _score_gap_kl(
        rotate(p, to_basis), tuple(rotate(m, to_basis) for m in qs), grid,
        _noised(data.ybar, seed, support), len(data), workers, "measurement", support, weight,
    )
    return estimates if isinstance(q, tuple) else estimates[0]


def check_full_rank(op_index: np.ndarray, support: np.ndarray) -> None:
    """Raise RankDeficient unless every operator is full rank, as kl_invertible needs.

    op_index (N,) and support (N, n) are a dataset's columns, or any operators
    with their supports.
    """
    bad = np.unique(op_index[~support.all(axis=1)])[:4].tolist()
    if bad:
        raise RankDeficient(
            f"kl_invertible requires full-rank operators; rank-deficient op_index: {bad}"
        )


def kl_invertible(
    p: GaussianMixture,
    q: GaussianMixture,
    data: MeasurementDataset,
    grid: SigmaGrid,
    seed: int = 0,
    workers: int = 1,
) -> KlEstimate:
    """Divergence from measurements under invertible (full-rank) operators.

    With every singular value positive, ybar recovers V^T x exactly, so the
    image-domain integral applies directly to noised measurements under the
    priors rotated into the projected basis: no weighting and no operator
    distribution are involved. Full-rank rows have E[P] = 1 and full
    supports, so kl_measurement weights by 1.0 and masks nothing: this is
    it bit for bit, under mode "invertible". With an identity operator it
    follows the image-domain estimator's sample paths exactly.
    """
    check_full_rank(data.op_index, data.support)
    return replace(kl_measurement(p, q, data, grid, seed, workers), mode="invertible")
