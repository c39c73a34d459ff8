"""Measurement operators in SVD form and projected-coordinate transforms.

An operator is a sampler's shared orthogonal right basis V plus a support,
the boolean diagonal of its projection P; its singular values are one on the
support, so measurement noise is sigma_z alone. The left factor is never
materialized because samplers produce ybar = P V^T x + zbar directly.
A basis is its spec (kind, dim, seed); V is built on first use as an
(n, n) matrix, so moving into the projected coordinates is one product
with it.

Every operator drawn from one sampler shares its basis, so datasets built
from a single sampler satisfy the shared-right-basis requirement by
construction. A sampler is likewise its spec: two samplers draw the same
operators in the same basis exactly when their to_dict agree. E[P] is one
(n,) array taken from the measurements at hand: the fraction of rows that
observe each projected coordinate (estimate_projection_stats); the
estimators derive their weight E[P]^(-3/2) from it where they use it. If
some coordinate is observed by no row, estimation stops with SpanViolation
rather than silently extrapolating.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .rng import stream


class SpanViolation(Exception):
    """Raised when the operator family never observes some coordinate."""


class BasisMismatch(ValueError):
    """Raised when measurements from different right bases are combined."""


class RankDeficient(ValueError):
    """Raised when the invertible estimator meets an operator that is not full rank."""


def _check_integers(spec, names) -> None:
    """Raise ValueError at the first named field of spec that is set but is no integer
    (a bool is none), so a data file's 2.7 or true is refused, not truncated."""
    for name in names:
        value = getattr(spec, name)
        integer = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
        if value is not None and not integer:
            raise ValueError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class RightBasis:
    """Orthogonal matrix V on R^n shared by an operator family.

    A basis is its spec: kind is one of "identity" (V = I), "hadamard" (the
    Sylvester Walsh-Hadamard matrix H_n / sqrt(n) in natural order,
    power-of-two n, so V = V^T) or "dense" (a Haar-ish orthogonal matrix
    from a QR factorization seeded by seed, which only this kind reads).
    V is built on first use of matrix and kept read-only, so bases compare
    by spec and making one costs nothing. forward applies V, inverse
    applies V^T; both accept (..., n) arrays and return a new array,
    leaving the input untouched.
    """

    kind: str
    dim: int
    seed: int = 0

    def __post_init__(self):
        _check_integers(self, ("dim", "seed"))
        if self.kind not in ("identity", "hadamard", "dense"):
            raise ValueError(f"unknown basis kind {self.kind!r}")
        if self.kind == "hadamard" and (self.dim < 1 or self.dim & (self.dim - 1)):
            raise ValueError("hadamard basis requires power-of-two dim")
        if self.seed and self.kind != "dense":
            raise ValueError(f"{self.kind} basis takes no seed, got {self.seed}")

    @cached_property
    def matrix(self) -> np.ndarray:
        """V as a read-only (dim, dim) array, built on first use.

        The dense QR pushes the sign of each diagonal entry of R into Q, so
        V is a deterministic function of (dim, seed).
        """
        if self.kind == "identity":
            m = np.eye(self.dim)
        elif self.kind == "hadamard":
            m = np.ones((1, 1))
            while m.shape[0] < self.dim:
                m = np.block([[m, m], [m, -m]])
            m /= math.sqrt(self.dim)
        else:
            a = stream(self.seed, "dense-basis").standard_normal((self.dim, self.dim))
            q, r = np.linalg.qr(a)
            m = q * np.sign(np.diag(r))[None, :]
        m.setflags(write=False)
        return m

    def forward(self, u: np.ndarray) -> np.ndarray:
        """Apply V (lift from projected coordinates to signal coordinates)."""
        return np.asarray(u, dtype=float) @ self.matrix.T

    def inverse(self, x: np.ndarray) -> np.ndarray:
        """Apply V^T (drop into the shared projected coordinates)."""
        return np.asarray(x, dtype=float) @ self.matrix


# the sampler fields each kind never reads
_UNREAD = {
    "coordinate-mask": ("patch_edge", "low_count", "rand_count"),
    "patch-inpainting": ("low_count", "rand_count"),
    "band-subsample": ("keep_prob", "patch_edge"),
}


@dataclass(frozen=True)
class OperatorSampler:
    """Distribution over measurement operators with one shared right basis.

    kinds:
        "coordinate-mask": keep each coordinate independently; keep_prob is
            a scalar or a per-coordinate vector.
        "patch-inpainting": image coordinates in row-major order over a
            square image; each non-overlapping patch_edge x patch_edge
            patch is kept independently with probability keep_prob.
        "band-subsample": always keep the lowest low_count coordinates and
            a uniform random rand_count-subset of the rest.

    A field its kind never reads is rejected, so two samplers that draw the
    same operators have the same to_dict, which is how samplers compare.
    to_dict is a config's measurement.sampler block.
    """

    kind: str
    dim: int
    basis: RightBasis
    base_seed: int = 0
    keep_prob: float | np.ndarray | None = None
    patch_edge: int | None = None
    low_count: int | None = None
    rand_count: int | None = None

    def __post_init__(self):
        _check_integers(self, ("dim", "base_seed", "patch_edge", "low_count", "rand_count"))
        if self.kind not in ("coordinate-mask", "patch-inpainting", "band-subsample"):
            raise ValueError(f"unknown sampler kind {self.kind!r}")
        if self.basis.dim != self.dim:
            raise ValueError("basis dim does not match sampler dim")
        if self.kind in ("coordinate-mask", "patch-inpainting"):
            if self.keep_prob is None:
                raise ValueError(f"{self.kind} needs keep_prob")
            p = np.asarray(self.keep_prob, dtype=float)
            if not np.all((p >= 0) & (p <= 1)):
                raise ValueError("keep_prob entries must lie in [0, 1]")
            if self.kind == "patch-inpainting":
                if p.ndim != 0:
                    raise ValueError("patch-inpainting takes a scalar keep_prob")
                edge = math.isqrt(self.dim)
                if edge * edge != self.dim:
                    raise ValueError("patch-inpainting needs a square image (dim = edge^2)")
                if not self.patch_edge or edge % self.patch_edge != 0:
                    raise ValueError(
                        f"patch edge {self.patch_edge} must divide image edge {edge}"
                    )
            elif p.shape not in ((), (self.dim,)):
                raise ValueError("per-coordinate keep_prob must have length dim")
        else:
            low = self.low_count or 0
            rand = self.rand_count or 0
            if low < 0 or rand < 0 or low + rand > self.dim or low + rand == 0:
                raise ValueError("band-subsample needs 0 <= low_count + rand_count <= dim, > 0")
        stray = [name for name in _UNREAD[self.kind] if getattr(self, name) is not None]
        if stray:
            raise ValueError(f"{self.kind} sampler does not read {', '.join(stray)}")

    def to_dict(self) -> dict:
        doc = {"kind": self.kind, "dim": self.dim, "base_seed": self.base_seed}
        doc["basis"] = {"kind": self.basis.kind}
        if self.basis.kind == "dense":
            doc["basis"] = {"kind": "dense-orthogonal", "seed": self.basis.seed}
        if self.keep_prob is not None:
            p = np.asarray(self.keep_prob)
            doc["keep_prob"] = p.tolist() if p.ndim else float(p)
        if self.patch_edge is not None:
            doc["patch_edge"] = self.patch_edge
        if self.low_count is not None:
            doc["low_count"] = self.low_count
        if self.rand_count is not None:
            doc["rand_count"] = self.rand_count
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "OperatorSampler":
        """Read a config's sampler block or a to_dict (older ones write "dense");
        a key neither the sampler nor its basis reads, or a doc or basis that is
        not a JSON object, raises ValueError."""
        if not isinstance(doc, dict):
            raise ValueError(f"sampler must be a JSON object, got {doc!r:.80}")
        basis_doc = doc.get("basis", {"kind": "identity"})
        if not isinstance(basis_doc, dict):
            raise ValueError(f"sampler basis must be a JSON object, got {basis_doc!r:.80}")
        unknown = sorted(set(doc) - {f.name for f in fields(cls)})
        unknown += sorted(f"basis.{key}" for key in set(basis_doc) - {"kind", "seed"})
        if unknown:
            raise ValueError(f"unknown sampler key(s): {', '.join(unknown)}")
        dim = doc["dim"]
        bkind = basis_doc.get("kind", "identity")
        basis = RightBasis(
            "dense" if bkind == "dense-orthogonal" else bkind, dim, basis_doc.get("seed", 0)
        )
        keep_prob = doc.get("keep_prob")
        if isinstance(keep_prob, list):
            keep_prob = np.asarray(keep_prob, dtype=float)
        return cls(
            kind=doc["kind"],
            dim=dim,
            basis=basis,
            base_seed=doc.get("base_seed", 0),
            keep_prob=keep_prob,
            patch_edge=doc.get("patch_edge"),
            low_count=doc.get("low_count"),
            rand_count=doc.get("rand_count"),
        )


def sample_operator(sampler: OperatorSampler, index: int) -> np.ndarray:
    """Operator index's support, the (dim,) boolean diagonal of its projection P.

    A pure function of (base_seed, index). With the sampler's basis V and
    singular values of one on the support, this is the whole operator.
    """
    if index < 0:
        raise ValueError(f"index must be >= 0, got {index}")
    gen = stream(sampler.base_seed, "operator", index)
    if sampler.kind == "coordinate-mask":
        return gen.random(sampler.dim) < sampler.keep_prob
    if sampler.kind == "patch-inpainting":
        edge = math.isqrt(sampler.dim)
        pe = sampler.patch_edge
        grid = edge // pe
        keep_patch = gen.random((grid, grid)) < float(sampler.keep_prob)
        pixels = np.repeat(np.repeat(keep_patch, pe, axis=0), pe, axis=1)
        return pixels.reshape(sampler.dim)
    low = sampler.low_count or 0
    rand = sampler.rand_count or 0
    mask = np.zeros(sampler.dim, dtype=bool)
    mask[:low] = True
    if rand:
        rest = np.arange(low, sampler.dim)
        picked = gen.choice(rest, size=rand, replace=False)
        mask[picked] = True
    return mask


def to_projected(
    basis: RightBasis,
    support: np.ndarray,
    x: np.ndarray,
    sigma_z: float = 0.0,
    seed: int = 0,
) -> np.ndarray:
    """Acquire ybar = P V^T x + zbar for a batch of clean signals.

    x holds one signal per row, (N, n), and row i is measured by an operator
    whose projection P_i is support[i], an (N, n) boolean array; other shapes
    raise ValueError. All rows go through one basis.inverse call, and ybar is
    exactly zero off each row's support. Measurement noise zbar of std
    sigma_z lands on row i's observed coordinates, drawn from the stream
    (seed, "meas-z", i) only when sigma_z > 0.
    """
    x = np.asarray(x, dtype=float)
    support = np.asarray(support, dtype=bool)
    if x.ndim != 2 or x.shape[1] != basis.dim or support.shape != x.shape:
        raise ValueError(f"x, support must be shape (N, {basis.dim}): {x.shape}, {support.shape}")
    if sigma_z < 0:
        raise ValueError("sigma_z must be >= 0")
    ybar = basis.inverse(x)  # a new array, masked in place
    ybar[~support] = 0.0
    if sigma_z > 0:
        for i, (y, on) in enumerate(zip(ybar, support)):
            y[on] += stream(seed, "meas-z", i).standard_normal(int(on.sum())) * sigma_z
    return ybar


def estimate_projection_stats(support: np.ndarray) -> np.ndarray:
    """E[P], each coordinate's observation frequency over the (N, n) supports.

    Returns the read-only (n,) array ep. The estimators weight with the
    frequency in the very rows they average, not with the sampler's
    population E[P]: under the weight W = ep^(-3/2), coordinate i's term
    becomes sum_r P_ri g_ri^2 / sum_r P_ri, the mean squared gap over the
    rows that observed it, so the mask-sampling error cancels. That is
    exact when the gap is constant (a Gaussian shift), and with every
    coordinate observed in every row ep = 1.

    Raises:
        SpanViolation: if no row observes some coordinate; the measurements
            then fail to cover the signal space and the measurement-domain
            divergence is undefined for them.
    """
    support = np.asarray(support, dtype=bool)
    ep = support.mean(axis=0)
    dead = np.flatnonzero(ep == 0)
    if dead.size:
        raise SpanViolation(
            f"coordinates never observed in {len(support)} measurements: "
            f"{dead[:8].tolist()}{'...' if dead.size > 8 else ''}"
        )
    ep.setflags(write=False)
    return ep
