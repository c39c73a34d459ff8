"""Measurement-only adaptation of the out-of-distribution prior.

The mismatched prior is adjusted by minimizing the weighted projected
denoising error: its posterior-mean denoiser, evaluated at re-noised
measurements ybar_sigma, should reproduce the clean measurement ybar. The
loss runs in the sampler's projected coordinates on the mixture rotated
there (means V^T mu_k), since an isotropic mixture's denoiser commutes with
the orthogonal V: V^T D_q(V y) = D_{V^T q}(y). Only corrupted observations
of the in-distribution data enter the loss; clean signals are never an
input (the adapt entry point has no signal-typed parameter). Because the
denoiser here is the mixture's exact posterior mean, the adapted object is
the mixture parameterization itself: component means, optionally also the
mixing weights through a softmax reparameterization. Component variances
stay frozen. Parameters, gradient and optimizer state stay in signal
coordinates.

The loss is the ambient denoising objective of Ambient Diffusion (Daras et
al., arXiv 2305.19256). Each step draws its own minibatch, sigma draws and
noise, and takes the exact gradient of the loss on that pack in one pass:
the denoiser is the mixture's closed-form posterior mean (Tweedie's
formula), so the loss and its derivatives in the means and weight logits
follow from gmm's posterior, taken once per sigma draw (see _residual).
fd_gradient, the central finite-difference gradient, is kept as the
reference the tests compare against. The update is Adam on uniform
minibatches, with sigma drawn log-uniformly over the run's grid, sigma_min
to sigma_max. Progress is tracked on a separate frozen evaluation pack,
which makes the plateau rule and the divergence guard deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .estimators import KlEstimate, MeasurementDataset, kl_image, kl_measurement
# score is unused here; it stays bound because benchmarks/layers.py wraps adaptation.score
from .gmm import GaussianMixture, posterior, rotate, score
from .measurements import estimate_projection_stats, plain_fields
from .quadrature import SigmaGrid
from .rng import stream

TRAINABLE = ("means-only", "means-and-weights")
# stopping rules (see AdaptationConfig)
PLATEAU_REL = 0.005
PLATEAU_WINDOW = 10
DIVERGENCE_PATIENCE = 20


class DivergenceError(RuntimeError):
    """Raised when the evaluation loss is not finite or rises for too many steps in a row."""


@dataclass(frozen=True)
class AdaptationConfig:
    """A config's adaptation block, plus the run's seed.

    Every field but seed is a key of that block, so AdaptationConfig(seed=s,
    **config["adaptation"]) builds it. eval_samples is the image-domain
    sample count of the report's before/after kl_image. Its default, 2048,
    holds for API callers and for runs without the image estimator; a run
    with the image estimator defaults it to the run's n_samples, so the
    pair's before is the run's image estimate.

    The stopping rules are module constants, not fields: a run stops at a
    plateau once the best evaluation loss of the last PLATEAU_WINDOW (10)
    steps is within PLATEAU_REL (0.5%) of the best before them, and raises
    DivergenceError at the first non-finite loss or after
    DIVERGENCE_PATIENCE (20) rising steps in a row.
    No config could reach them, so fixing them keeps the config the whole
    description of a run.
    """

    trainable: str = "means-only"
    step_size: float = 0.05
    iterations: int = 200
    batch: int = 32
    sigma_draws: int = 8
    eval_samples: int = 2048
    seed: int = 0

    def __post_init__(self):
        plain_fields(self, integers=("iterations", "batch", "sigma_draws", "eval_samples", "seed"),
                     reals=("step_size",))
        if self.trainable not in TRAINABLE:
            raise ValueError(f"trainable must be one of {TRAINABLE}")
        if self.step_size <= 0:
            raise ValueError("step_size must be > 0")
        if self.iterations < 1:
            raise ValueError("iteration cap must be >= 1")
        if self.batch < 1 or self.sigma_draws < 1:
            raise ValueError("batch and sigma_draws must be >= 1")
        if self.eval_samples < 2:
            raise ValueError("eval_samples must be >= 2")


@dataclass(frozen=True)
class AdaptationReport:
    """Trajectory and before/after divergences of one adaptation run.

    The four divergences are recomputed with the estimators on the same
    dataset, never read back from the optimizer, one pass per estimator for
    both q0 and the adapted mixture; each is bit for bit its one-mixture
    call's. The image-domain pair uses eval_samples fresh draws.
    """

    loss_trajectory: list[float]
    stop_reason: str
    param_delta: dict[str, float]
    kl_measurement_before: KlEstimate
    kl_measurement_after: KlEstimate
    kl_image_before: KlEstimate
    kl_image_after: KlEstimate

    def to_dict(self) -> dict:
        return {
            "loss_trajectory": self.loss_trajectory,
            "stop_reason": self.stop_reason,
            "param_delta": self.param_delta,
            "kl_measurement_before": self.kl_measurement_before.to_dict(),
            "kl_measurement_after": self.kl_measurement_after.to_dict(),
            "kl_image_before": self.kl_image_before.to_dict(),
            "kl_image_after": self.kl_image_after.to_dict(),
        }


def _residual(q: GaussianMixture, ybar, masks, w, sigma, eps_s):
    """q's posterior (r, scaled, score) at ybar_sigma = ybar + sigma * (eps_s * masks),
    w * (ybar - D_q(ybar_sigma)) for D_q = ybar_sigma + sigma^2 score, and its sum of squares."""
    ybar_sigma = ybar + sigma * (eps_s * masks)
    post = posterior(q, ybar_sigma, sigma)
    # D_q, then the residual, overwrite ybar_sigma (post keeps no view of it): one temporary
    ybar_sigma += sigma**2 * post[2]
    resid = np.subtract(ybar, ybar_sigma, out=ybar_sigma)
    resid *= w
    return post, resid, float(np.einsum("bi,bi->b", resid, resid).sum())


def _pack_loss(q: GaussianMixture, ybar, masks, w, sigmas, eps) -> float:
    """Weighted projected denoising error on a fixed (data, sigma, noise) pack:
    the mean over its S x B pairs of || w * (ybar - D_q(ybar_sigma)) ||^2.

    q is already rotated into the projected basis. ybar: (B, n); masks:
    (B, n) boolean supports; sigmas: (S,); eps: (S, B, n)."""
    total = 0.0
    for sigma, eps_s in zip(sigmas, eps):
        # only the float is kept: no posterior or residual outlives its draw
        total += _residual(q, ybar, masks, w, sigma, eps_s)[2]
    return total / (sigmas.size * ybar.shape[0])


def _signal_loss_and_grad(
    q: GaussianMixture, basis, ybar, masks, w, sigmas, eps, train_weights: bool
) -> tuple[float, np.ndarray]:
    """_pack_loss and its exact gradient in the means and weight logits of q,
    which is given in signal coordinates.

    The loss runs on q rotated into the projected basis (means V^T mu_k),
    through _pack_loss's _residual. There D = sum_k r_k m_k, with (r, scaled,
    score) gmm's posterior and m_k = x + sigma^2 scaled_k, so with g = dL/dD:
      dL/dmu_k    = sum_rows r_k sigma^2/var_k g - r_k ((m_k - D).g) scaled_k
      dL/dlogit_k = sum_rows r_k (m_k - D).g
    The softmax's -w_k term drops out of the logit gradient because
    sum_k r_k (m_k - D) = 0. The mean gradient is taken back with one
    basis.forward on (K, n), dL/dmu = V dL/d(V^T mu); the logit gradient does
    not depend on the basis. One pass over the pack replaces the
    2 * params.size loss evaluations of fd_gradient.
    """
    q = rotate(q, basis.matrix.T)
    pairs = sigmas.size * ybar.shape[0]
    scale = -2.0 * w / pairs
    total = 0.0
    grad_means = np.zeros(q.means.shape)
    grad_logits = np.zeros(q.n_components)
    for sigma, eps_s in zip(sigmas, eps):
        (r, scaled, sc), resid, sq = _residual(q, ybar, masks, w, sigma, eps_s)
        total += sq
        g = scale * resid  # dL/dD, (B, n)
        # r_k (m_k - D).g, with m_k - D = sigma^2 (scaled_k - sc)
        proj = np.einsum("kbi,bi->bk", scaled, g) - np.einsum("bi,bi->b", sc, g)[:, None]
        rc = sigma**2 * r * proj
        grad_means += (sigma**2 / (q.variances + float(sigma) ** 2))[:, None] * (r.T @ g)
        grad_means -= np.einsum("bk,kbi->ki", rc, scaled)
        grad_logits += rc.sum(axis=0)
    parts = [basis.forward(grad_means).ravel()]
    if train_weights:
        parts.append(grad_logits)
    return total / pairs, np.concatenate(parts)


def _split_params(
    params: np.ndarray, template: GaussianMixture, train_weights: bool
) -> GaussianMixture:
    k, n = template.means.shape
    means = params[: k * n].reshape(k, n)
    if train_weights:
        logits = params[k * n :]
        shifted = logits - logits.max()
        w = np.exp(shifted)
        w = w / w.sum()
    else:
        w = template.weights
    return GaussianMixture(weights=w, means=means, variances=template.variances)


def _initial_params(q0: GaussianMixture, train_weights: bool) -> np.ndarray:
    parts = [q0.means.ravel()]
    if train_weights:
        parts.append(np.log(q0.weights))
    return np.concatenate(parts)


def fd_gradient(loss_fn, params: np.ndarray, h: float) -> np.ndarray:
    """Central finite-difference gradient of loss_fn at params."""
    grad = np.empty_like(params)
    for i in range(params.size):
        up = params.copy()
        dn = params.copy()
        up[i] += h
        dn[i] -= h
        grad[i] = (loss_fn(up) - loss_fn(dn)) / (2 * h)
    return grad


def adapt(
    q0: GaussianMixture,
    data: MeasurementDataset,
    cfg: AdaptationConfig,
    grid: SigmaGrid,
    ind_model: GaussianMixture,
    workers: int = 1,
) -> tuple[GaussianMixture, AdaptationReport]:
    """Minimize the weighted projected denoising loss over q0's parameters by Adam.

    Args:
        q0: starting out-of-distribution mixture.
        data: corrupted in-distribution measurements; the only
            data-dependent input to the optimization. The loss weights
            E[P]^(-3/2) come from its observation frequency over all rows
            (estimate_projection_stats), so every minibatch is weighted
            alike.
        grid: sigma grid; each step draws sigma log-uniformly between its
            sigma_min and sigma_max, and it is the quadrature for the
            recomputed divergences.
        ind_model: in-distribution prior p. The report carries KL(p || q)
            in the measurement and image domains before and after
            adaptation, the latter from cfg.eval_samples fresh draws
            (purely diagnostic; the optimizer never sees p). experiments.run
            sets eval_samples to the run's n_samples when the run has the
            image estimator and the config gives none.
        workers: threads for those estimators; no number depends on it.

    Returns:
        (adapted mixture, report). The returned mixture is the best
        iterate under the frozen evaluation loss, so its loss never exceeds
        the starting point's.

    Raises:
        DivergenceError: at the first non-finite evaluation loss, or once
            it rises for DIVERGENCE_PATIENCE consecutive steps.
    """
    if q0.dim != data.sampler.dim:
        raise ValueError("mixture dim does not match measurement dim")
    train_weights = cfg.trainable == "means-and-weights"
    basis = data.sampler.basis
    w = estimate_projection_stats(data.support) ** -1.5
    log_lo, log_hi = np.log(grid.sigma_min), np.log(grid.sigma_max)

    ybar_all, masks_all = data.ybar, data.support
    n_data = len(data)

    def draw(sigma_gen, noise_gen, rows: int):
        sigmas = np.exp(sigma_gen.uniform(log_lo, log_hi, size=cfg.sigma_draws))
        return sigmas, noise_gen.standard_normal((cfg.sigma_draws, rows, q0.dim))

    # Frozen evaluation pack: the plateau rule and divergence guard track a
    # deterministic function of the parameters.
    eval_gen = stream(cfg.seed, "adapt-eval")
    eval_sigmas, eval_eps = draw(eval_gen, eval_gen, n_data)

    def eval_loss(params: np.ndarray) -> float:
        q = rotate(_split_params(params, q0, train_weights), basis.matrix.T)
        return _pack_loss(q, ybar_all, masks_all, w, eval_sigmas, eval_eps)

    params = _initial_params(q0, train_weights)
    best_params = params.copy()
    losses = [eval_loss(params)]
    best_loss = losses[0]

    adam_m = np.zeros_like(params)
    adam_v = np.zeros_like(params)
    stop_reason = "cap"
    rising = 0

    for t in range(1, cfg.iterations + 1):
        idx = stream(cfg.seed, "adapt-batch", t).integers(0, n_data, size=min(cfg.batch, n_data))
        ybar = ybar_all[idx]
        masks = masks_all[idx]
        sigmas, eps = draw(
            stream(cfg.seed, "adapt-sigma", t), stream(cfg.seed, "adapt-noise", t), idx.size
        )

        q = _split_params(params, q0, train_weights)
        _, grad = _signal_loss_and_grad(q, basis, ybar, masks, w, sigmas, eps, train_weights)
        adam_m = 0.9 * adam_m + 0.1 * grad
        adam_v = 0.999 * adam_v + 0.001 * grad**2
        mhat = adam_m / (1 - 0.9**t)
        vhat = adam_v / (1 - 0.999**t)
        params = params - cfg.step_size * mhat / (np.sqrt(vhat) + 1e-8)

        current = eval_loss(params)
        # a non-finite iterate never recovers: stop before stepping from it
        if not np.isfinite(current):
            raise DivergenceError(
                f"evaluation loss is not finite at step {t} ({current}); "
                "reduce step_size or check the measurement weights"
            )
        losses.append(current)
        if current < best_loss:
            best_loss = current
            best_params = params.copy()
        rising = rising + 1 if current > losses[-2] else 0
        if rising >= DIVERGENCE_PATIENCE:
            raise DivergenceError(
                f"evaluation loss rose for {rising} consecutive steps "
                f"(last {losses[-1]:.6g}, best {best_loss:.6g}); "
                "reduce step_size or check the measurement weights"
            )
        # a rising streak is never a plateau: let the divergence guard see it
        if rising == 0 and t >= PLATEAU_WINDOW:
            prior_best = min(losses[:-PLATEAU_WINDOW])
            recent_best = min(losses[-PLATEAU_WINDOW:])
            if recent_best > (1 - PLATEAU_REL) * prior_best:
                stop_reason = "plateau"
                break

    adapted = _split_params(best_params, q0, train_weights)
    delta = {
        "means": float(np.linalg.norm(adapted.means - q0.means)),
        "weights": float(np.linalg.norm(adapted.weights - q0.weights)),
    }
    both = (q0, adapted)
    meas = kl_measurement(ind_model, both, data, grid, seed=cfg.seed, workers=workers)
    image = kl_image(
        ind_model, both, grid, n_samples=cfg.eval_samples, seed=cfg.seed, workers=workers
    )
    report = AdaptationReport([float(x) for x in losses], stop_reason, delta, *meas, *image)
    return adapted, report
