"""Projected denoising loss and the measurement-only adaptation loop."""

import numpy as np
import pytest

from scoreshift import (
    AdaptationConfig,
    DivergenceError,
    GaussianMixture,
    MeasurementDataset,
    adapt,
    denoise,
    denoising_loss,
    estimate_projection_stats,
    make_log_grid,
    sample,
)
from scoreshift.adaptation import _initial_params, _pack_loss, _split_params, fd_gradient
from scoreshift.adaptation import _pack_loss_and_grad
from scoreshift.measurements import (
    OperatorSampler,
    dense_orthogonal_basis,
    hadamard_basis,
    identity_basis,
)
from scoreshift.measurements import BasisMismatch, ProjectionStats
from scoreshift.priors import gaussian_pair, triangle_pair
from scoreshift.rng import stream
from tests.conftest import mask_sampler


def full_observation_data(p, count, seed):
    sampler = mask_sampler(dim=p.dim, keep_prob=1.0, base_seed=seed)
    stats = estimate_projection_stats(sampler, 64)
    draws = sample(p, count, stream(seed, "data-x"))
    data = MeasurementDataset.from_samples(sampler, draws, seed=seed)
    return sampler, stats, data


class TestDenoisingLoss:
    def test_point_mass_prior_with_matching_atom(self):
        # nearly deterministic data, and the model has a component on the atom
        atom = np.array([2.0, -1.0, 0.5, 3.0])
        p_atom = GaussianMixture(
            weights=np.array([1.0]), means=atom[None, :], variances=np.array([1e-8])
        )
        far = atom + 40.0
        q = GaussianMixture(
            weights=np.array([0.5, 0.5]),
            means=np.stack([atom, far]),
            variances=np.array([1e-8, 1.0]),
        )
        _, stats, data = full_observation_data(p_atom, 64, seed=31)
        loss = denoising_loss(q, data, stats, [0.05], stream(31, "loss"))
        assert loss < 1e-3

    def test_full_observation_matches_bayes_risk_oracle(self, toy_pair):
        # oracle: direct Monte Carlo of ||x - denoise(x + sigma eps)||^2
        p, _ = toy_pair
        sigma = 0.5
        _, stats, data = full_observation_data(p, 4000, seed=32)
        loss = denoising_loss(p, data, stats, [sigma], stream(32, "loss"))
        gen = stream(33, "bayes-oracle")
        x = sample(p, 4000, gen)
        noised = x + sigma * gen.standard_normal(x.shape)
        resid = x - denoise(p, noised, sigma)
        oracle = float(np.einsum("ni,ni->n", resid, resid).mean())
        assert loss == pytest.approx(oracle, rel=0.05)

    def test_scaling_weights_scales_loss_quadratically(self, toy_pair, toy_masked_data):
        p, q = toy_pair
        _, stats, _, data = toy_masked_data
        scaled = ProjectionStats(
            ep_diag=stats.ep_diag,
            w_diag=stats.w_diag * 2.0,
            draws_used=stats.draws_used,
            sampler_id=stats.sampler_id,
        )
        base = denoising_loss(q, data, stats, [0.3, 0.9], stream(34, "loss"))
        quad = denoising_loss(q, data, scaled, [0.3, 0.9], stream(34, "loss"))
        assert quad == 4.0 * base

    def test_sigma_validation(self, toy_pair, toy_masked_data):
        _, q = toy_pair
        _, stats, _, data = toy_masked_data
        with pytest.raises(ValueError, match="positive"):
            denoising_loss(q, data, stats, [0.5, -0.1], stream(35, "loss"))
        with pytest.raises(ValueError, match="positive"):
            denoising_loss(q, data, stats, [], stream(35, "loss"))

    def test_mismatched_stats_rejected(self, toy_pair, toy_masked_data):
        _, q = toy_pair
        _, _, _, data = toy_masked_data
        other = mask_sampler(dim=10, keep_prob=0.4, base_seed=123)
        other_stats = estimate_projection_stats(other, 128)
        with pytest.raises(BasisMismatch):
            denoising_loss(q, data, other_stats, [0.5], stream(36, "loss"))


class TestFiniteDifferenceGradient:
    def test_matches_four_point_stencil(self, toy_pair, toy_masked_data):
        p, q = toy_pair
        sampler, stats, _, data = toy_masked_data
        ybar = data.ybar[:64]
        masks = data.support[:64]
        sigmas = np.array([0.2, 0.7, 1.5])
        eps = stream(37, "fd").standard_normal((3, 64, 10))

        def loss_at(params):
            mix = _split_params(params, q, False)
            return _pack_loss(mix, ybar, masks, sampler.basis, stats.w_diag, sigmas, eps)

        h = 1e-3
        probe_gen = stream(38, "fd-probe")
        base = _initial_params(q, False)
        for _ in range(20):
            params = base + probe_gen.uniform(-0.5, 0.5, size=base.size)
            central = fd_gradient(loss_at, params, h)
            stencil = np.empty_like(central)
            for i in range(params.size):
                def f(d, i=i):
                    shifted = params.copy()
                    shifted[i] += d
                    return loss_at(shifted)
                stencil[i] = (-f(2 * h) + 8 * f(h) - 8 * f(-h) + f(-2 * h)) / (12 * h)
            rel = np.abs(central - stencil) / np.maximum(np.abs(stencil), 1e-12)
            assert rel.max() < 1e-3


class TestClosedFormGradient:
    @pytest.mark.parametrize("basis_kind", ["identity", "dense", "hadamard"])
    def test_closed_form_gradient_matches_fd(self, basis_kind):
        dim = 8
        p, q3 = triangle_pair(dim)
        q1 = GaussianMixture(weights=np.ones(1), means=q3.means[:1], variances=q3.variances[:1])
        basis = {
            "identity": identity_basis(dim),
            "dense": dense_orthogonal_basis(dim, 4),
            "hadamard": hadamard_basis(dim),
        }[basis_kind]
        sampler = OperatorSampler(
            kind="coordinate-mask", dim=dim, basis=basis, base_seed=5, keep_prob=0.6
        )
        stats = estimate_projection_stats(sampler, 256)
        draws = sample(p, 32, stream(60, "data-x"))
        data = MeasurementDataset.from_samples(sampler, draws, seed=60)
        ybar = data.ybar
        masks = data.support
        sigmas = np.geomspace(1e-2, 1e3, 6)
        eps = stream(61, "grad").standard_normal((sigmas.size,) + ybar.shape)
        for q in (q1, q3):
            for train_weights in (False, True):

                def loss_at(params, q=q, train_weights=train_weights):
                    mix = _split_params(params, q, train_weights)
                    return _pack_loss(mix, ybar, masks, basis, stats.w_diag, sigmas, eps)

                params = _initial_params(q, train_weights)
                loss, grad = _pack_loss_and_grad(
                    q, ybar, masks, basis, stats.w_diag, sigmas, eps, train_weights
                )
                assert loss == pytest.approx(loss_at(params), rel=1e-12)
                reference = fd_gradient(loss_at, params, 1e-3)
                assert grad.shape == reference.shape
                # central differences err by an absolute h^2 * (third
                # derivative) per entry, so the tolerance is taken relative
                # to the gradient's largest entry
                scale = np.abs(reference).max()
                assert np.abs(grad - reference).max() <= 1e-6 * scale


class TestAdaptationConfig:
    def test_field_validation(self):
        with pytest.raises(ValueError):
            AdaptationConfig(trainable="everything")
        with pytest.raises(ValueError):
            AdaptationConfig(step_size=0.0)
        with pytest.raises(ValueError):
            AdaptationConfig(iterations=0)


class TestAdapt:
    def test_already_optimal_start_barely_moves(self, toy_pair, toy_masked_data):
        p, _ = toy_pair
        _, stats, _, data = toy_masked_data
        grid = make_log_grid(0.01, 1.0, 24)
        cfg = AdaptationConfig(
            trainable="means-only",
            optimizer="gradient-descent",
            step_size=0.002,
            iterations=120,
            batch=128,
            sigma_draws=8,
            seed=41,
            sigma_range=(0.05, 3.0),
        )
        adapted, report = adapt(p, data, stats, cfg, grid)
        assert report.param_delta["means"] < 1e-2
        assert report.stop_reason in ("plateau", "cap")

    def test_shifted_gaussian_recovers_target_mean(self):
        p, q0 = gaussian_pair()
        grid = make_log_grid(1e-2, 1e3, 96)
        sampler = mask_sampler(dim=10, keep_prob=0.5, base_seed=21)
        stats = estimate_projection_stats(sampler, 4096)
        draws = sample(p, 512, stream(33, "data-x"))
        data = MeasurementDataset.from_samples(sampler, draws, seed=33)
        cfg = AdaptationConfig(
            trainable="means-only",
            optimizer="adaptive-moments",
            step_size=0.1,
            iterations=600,
            batch=128,
            sigma_draws=8,
            seed=33,
            sigma_range=(0.05, 3.0),
            plateau_rel=0.002,
            plateau_window=15,
        )
        adapted, report = adapt(q0, data, stats, cfg, grid, ind_model=p)
        assert np.max(np.abs(adapted.means[0])) < 0.3
        assert report.kl_measurement_after.value < 1.0
        assert report.kl_measurement_before.value > 10.0

    def test_divergence_guard_triggers(self, toy_pair, toy_masked_data):
        _, q = toy_pair
        _, stats, _, data = toy_masked_data
        grid = make_log_grid(0.01, 1.0, 16)
        cfg = AdaptationConfig(
            trainable="means-only",
            optimizer="gradient-descent",
            step_size=50.0,
            iterations=100,
            batch=32,
            sigma_draws=4,
            seed=42,
            sigma_range=(0.5, 3.0),
        )
        with pytest.raises(DivergenceError, match="consecutive"):
            adapt(q, data, stats, cfg, grid)

    def test_trajectory_bounded_and_best_loss_not_worse(self, toy_pair, toy_masked_data):
        p, q = toy_pair
        _, stats, _, data = toy_masked_data
        grid = make_log_grid(0.01, 1.0, 16)
        cfg = AdaptationConfig(
            trainable="means-only",
            optimizer="adaptive-moments",
            step_size=0.2,
            iterations=25,
            batch=32,
            sigma_draws=4,
            seed=43,
            sigma_range=(0.05, 2.0),
        )
        adapted, report = adapt(q, data, stats, cfg, grid)
        assert len(report.loss_trajectory) <= cfg.iterations + 1
        assert min(report.loss_trajectory) <= report.loss_trajectory[0]
        best_curve = np.minimum.accumulate(report.loss_trajectory)
        assert np.all(np.diff(best_curve) <= 0)

    def test_weights_stay_on_simplex_when_trainable(self, toy_pair, toy_masked_data):
        p, q = toy_pair
        _, stats, _, data = toy_masked_data
        grid = make_log_grid(0.01, 1.0, 16)
        skewed = GaussianMixture(
            weights=np.array([0.6, 0.2, 0.2]), means=q.means, variances=q.variances
        )
        cfg = AdaptationConfig(
            trainable="means-and-weights",
            optimizer="adaptive-moments",
            step_size=0.2,
            iterations=40,
            batch=32,
            sigma_draws=4,
            seed=44,
            sigma_range=(0.05, 2.0),
        )
        adapted, report = adapt(skewed, data, stats, cfg, grid)
        assert adapted.weights.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(adapted.weights >= 0)
        assert report.param_delta["weights"] >= 0.0

    def test_variances_frozen(self, toy_pair, toy_masked_data):
        p, q = toy_pair
        _, stats, _, data = toy_masked_data
        grid = make_log_grid(0.01, 1.0, 16)
        cfg = AdaptationConfig(
            trainable="means-only",
            optimizer="adaptive-moments",
            step_size=0.3,
            iterations=15,
            batch=32,
            sigma_draws=4,
            seed=45,
            sigma_range=(0.05, 2.0),
        )
        adapted, _ = adapt(q, data, stats, cfg, grid)
        np.testing.assert_array_equal(adapted.variances, q.variances)

    def test_shared_mask_batches_smoke(self, toy_pair):
        p, q = toy_pair
        sampler = mask_sampler(dim=10, keep_prob=0.8, base_seed=50)
        stats = estimate_projection_stats(sampler, 512)
        draws = sample(p, 96, stream(50, "data-x"))
        data = MeasurementDataset.from_samples(sampler, draws, seed=50, n_operators=4)
        grid = make_log_grid(0.01, 1.0, 12)
        cfg = AdaptationConfig(
            trainable="means-only",
            optimizer="adaptive-moments",
            step_size=0.2,
            iterations=10,
            batch=16,
            sigma_draws=4,
            seed=51,
            sigma_range=(0.05, 2.0),
            shared_mask_batches=True,
        )
        adapted, report = adapt(q, data, stats, cfg, grid)
        assert len(report.loss_trajectory) >= 2
