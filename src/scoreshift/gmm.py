"""Isotropic Gaussian mixtures with closed-form noisy marginals and scores.

A mixture here plays the role of a prior whose score functions are known
exactly at every noise level: convolving each component with N(0, sigma^2 I)
stays inside the family, so densities, scores and posterior-mean denoisers
are all available in closed form. All component computations run in log
space with log-sum-exp stabilization; responsibilities would otherwise
underflow once the noise level is small compared to component separation.
responsibilities and score are projections of the one posterior. The point
functions take a batch, x of shape (N, n), and only a batch.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass

import numpy as np

_LOG_2PI = float(np.log(2.0 * np.pi))


def _logsumexp(a: np.ndarray, axis: int, keepdims: bool = False) -> np.ndarray:
    """log(sum(exp(a))) along axis, shifted by the max for stability.

    A row whose max is not finite is shifted by 0, so an all -inf row gives
    -inf and -inf entries (zero-weight components) contribute nothing.
    """
    shift = np.max(a, axis=axis, keepdims=True)
    shift[~np.isfinite(shift)] = 0.0
    with np.errstate(divide="ignore"):
        out = np.log(np.sum(np.exp(a - shift), axis=axis, keepdims=True)) + shift
    return out if keepdims else np.squeeze(out, axis=axis)


@dataclass(frozen=True)
class GaussianMixture:
    """Mixture of K isotropic Gaussians on R^n.

    Attributes:
        weights: (K,) mixing probabilities, nonnegative, summing to 1.
        means: (K, n) component means.
        variances: (K,) strictly positive isotropic variances.
    """

    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        m = np.asarray(self.means, dtype=float)
        v = np.asarray(self.variances, dtype=float)
        if w.ndim != 1:
            raise ValueError("weights must be a 1-D probability vector")
        if m.ndim != 2 or m.shape[1] < 1:
            raise ValueError(f"means must be a (K, n) array with n >= 1, got shape {m.shape}")
        if m.shape[0] != w.size or v.shape != w.shape:
            raise ValueError(
                f"component count mismatch: {w.size} weights, "
                f"{m.shape[0]} means, {v.size} variances"
            )
        if np.any(w < 0) or abs(w.sum() - 1.0) > 1e-12:
            raise ValueError("weights must be nonnegative and sum to 1 within 1e-12")
        if np.any(v <= 0):
            raise ValueError("all component variances must be strictly positive")
        for arr in (w, m, v):
            arr.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "means", m)
        object.__setattr__(self, "variances", v)

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    @property
    def n_components(self) -> int:
        return self.weights.size

    def to_dict(self) -> dict:
        return {
            "dim": self.dim,
            "weights": self.weights.tolist(),
            "means": self.means.tolist(),
            "variances": self.variances.tolist(),
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "GaussianMixture":
        """Read a to_dict document, rejecting entries that are no number (a bool
        or a string), non-finite numbers and integers too large for a float (the
        constructor takes non-finite ones: adaptation's runaway iterates must
        reach its divergence guard)."""
        arrays = []
        for key in ("weights", "means", "variances"):
            try:
                arrays.append(np.asarray(doc[key], dtype=float))
            except OverflowError:
                raise ValueError(f"{key} holds a number too large for a float") from None
            # numpy reads true and "0.5" as numbers; the schema and a data file do not
            for value in np.asarray(doc[key], dtype=object).flat:
                if isinstance(value, bool) or not isinstance(value, numbers.Real):
                    raise ValueError(f"{key} entries must be numbers, got {value!r:.80}")
        if not all(np.all(np.isfinite(arr)) for arr in arrays):
            raise ValueError("weights, means and variances must be finite")
        gmm = cls(*arrays)
        dim = doc.get("dim", gmm.dim)
        if isinstance(dim, bool) or not isinstance(dim, (int, np.integer)):
            raise ValueError(f"dim must be an integer, got {dim!r}")
        if dim != gmm.dim:
            raise ValueError(f"declared dim {dim} does not match means of length {gmm.dim}")
        return gmm

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "GaussianMixture":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


def convolve(gmm: GaussianMixture, sigma: float) -> GaussianMixture:
    """Mixture of the sum x + n with n ~ N(0, sigma^2 I).

    Weights and means are unchanged; each component variance gains sigma^2.
    """
    if sigma < 0:
        raise ValueError(f"sigma must be >= 0, got {sigma}")
    if sigma == 0:
        return gmm
    return GaussianMixture(
        weights=gmm.weights,
        means=gmm.means,
        variances=gmm.variances + float(sigma) ** 2,
    )


def _as_points(gmm: GaussianMixture, x) -> np.ndarray:
    """x as a float (N, n) batch of points; any other shape raises ValueError."""
    pts = np.asarray(x, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != gmm.dim:
        raise ValueError(f"points must be (N, dim) = (N, {gmm.dim}), got shape {pts.shape}")
    return pts


def _component_log_densities(gmm: GaussianMixture, pts: np.ndarray, sigma: float):
    """Per-component log w_k + log N(x; mu_k, (var_k + sigma^2) I).

    Returns (comp (N, K), var (K,), diff (K, N, n)) with diff = mu_k - x,
    component-major so each elementwise pass walks K rows of N n values
    rather than N K short rows of n.
    """
    var = gmm.variances + float(sigma) ** 2  # (K,)
    diff = gmm.means[:, None, :] - pts[None, :, :]  # (K, N, n)
    # order="C": a Fortran-ordered sq would carry into comp and the
    # responsibilities, and change the summation order of their reductions
    sq = np.einsum("kni,kni->nk", diff, diff, order="C")  # (N, K)
    log_norm = -0.5 * gmm.dim * (_LOG_2PI + np.log(var))  # (K,)
    with np.errstate(divide="ignore"):
        log_w = np.log(gmm.weights)
    comp = log_w[None, :] + log_norm[None, :] - 0.5 * sq / var[None, :]
    return comp, var, diff


def log_density(gmm: GaussianMixture, x, sigma: float = 0.0) -> np.ndarray:
    """log of the noise-convolved mixture density at each of the (N, n) points x.

    sigma is the noise standard deviation; 0 evaluates the mixture itself.
    Returns an (N,) array.
    """
    comp, _, _ = _component_log_densities(gmm, _as_points(gmm, x), sigma)
    return _logsumexp(comp, axis=1)


def posterior(gmm: GaussianMixture, x, sigma: float = 0.0):
    """Posterior over components at noise level sigma of the (N, n) points x, as
    (r, scaled, score): responsibilities (N, K); the call's own mu_k - x, (K, N, n),
    divided in place by var_k + sigma^2; and log_density's gradient sum_k r_k scaled_k,
    (N, n), so one component gives (mu - x) / (var + sigma^2) with no further rounding."""
    comp, var, diff = _component_log_densities(gmm, _as_points(gmm, x), sigma)
    r = np.exp(comp - _logsumexp(comp, axis=1, keepdims=True))
    diff /= var[:, None, None]
    return r, diff, np.einsum("nk,kni->ni", r, diff)


def responsibilities(gmm: GaussianMixture, x, sigma: float = 0.0) -> np.ndarray:
    """posterior's r: the component probabilities, (N, K)."""
    return posterior(gmm, x, sigma)[0]


def score(gmm: GaussianMixture, x, sigma: float = 0.0) -> np.ndarray:
    """posterior's score, the gradient of log_density, (N, n)."""
    return posterior(gmm, x, sigma)[2]


def denoise(gmm: GaussianMixture, x, sigma: float) -> np.ndarray:
    """Posterior mean E[x0 | x] for x = x0 + sigma * eps, x0 ~ gmm, at the
    (N, n) points x, shape (N, n).

    Computed as x + sigma^2 * score(gmm, x, sigma), which equals the
    responsibility-weighted per-component posterior means. sigma must be
    positive.
    """
    if sigma <= 0:
        raise ValueError(f"denoise needs sigma > 0, got sigma={sigma}")
    return np.asarray(x, dtype=float) + float(sigma) ** 2 * score(gmm, x, sigma)


def sample_blocks(gmm: GaussianMixture, count: int, rng: np.random.Generator, rows: int):
    """Yield (block, pts): count draws of the mixture, rows at a time.

    The one holder of the sampling law: all count component indices are
    drawn from weights first, then each block's normals in order, scaled by
    the components' standard deviations in place and shifted by their means,
    gathered with one take into a second buffer; both buffers are allocated
    once, before the first block. numpy fills normals in sequence, so the blocks
    concatenate to the one-block draw bit for bit. block is the rows' slice
    of the count draws; pts, (len, n), is a view of one buffer that the next
    block overwrites.
    rng is a numpy Generator, in the package always a stream(seed, purpose,
    index); an int seed raises TypeError.
    """
    if not isinstance(rng, np.random.Generator):
        raise TypeError(f"rng must be a Generator from stream(seed, ...), got {rng!r}")
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    idx = rng.choice(gmm.n_components, size=count, p=gmm.weights)
    buf = np.empty((min(rows, count), gmm.dim))
    shift = np.empty_like(buf)
    for start in range(0, count, rows):
        block = slice(start, start + rows)
        k = idx[block]
        pts = rng.standard_normal(out=buf[: len(k)])
        pts *= np.sqrt(gmm.variances[k])[:, None]
        pts += np.take(gmm.means, k, axis=0, out=shift[: len(k)])
        yield block, pts


def sample(gmm: GaussianMixture, count: int, rng: np.random.Generator) -> np.ndarray:
    """Draw count points, sample_blocks' law in one block: a read-only (count, n) array."""
    ((_, pts),) = sample_blocks(gmm, count, rng, count)
    pts.setflags(write=False)
    return pts


def exact_kl_oracle(
    p: GaussianMixture, q: GaussianMixture, count: int, rng
) -> tuple[float, float]:
    """Plain Monte Carlo estimate of KL(p || q) with its standard error.

    Independent of the score-based estimators: draws x ~ p and averages
    log p(x) - log q(x) directly. Serves as the brute-force reference the
    integral estimators are checked against.
    """
    if p.dim != q.dim:
        raise ValueError(f"dimension mismatch: p has dim {p.dim}, q has dim {q.dim}")
    x = sample(p, count, rng)
    vals = log_density(p, x) - log_density(q, x)
    value = float(vals.mean())
    stderr = float(vals.std(ddof=1) / np.sqrt(count)) if count > 1 else 0.0
    return value, stderr


def rotate(gmm: GaussianMixture, matrix: np.ndarray) -> GaussianMixture:
    """Pushforward of the mixture through an orthogonal map x -> M x.

    Isotropic components stay isotropic, so only the means move, and the
    scores of the result at M x are M times the original's at x. Into a
    basis's projected coordinates (x -> V^T x) that is
    rotate(gmm, basis.matrix.T).
    """
    means = gmm.means @ np.asarray(matrix, dtype=float).T
    return GaussianMixture(weights=gmm.weights, means=means, variances=gmm.variances)
