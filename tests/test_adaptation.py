"""Projected denoising loss and the measurement-only adaptation loop."""

from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from scoreshift import (
    AdaptationConfig,
    DivergenceError,
    GaussianMixture,
    MeasurementDataset,
    SigmaGrid,
    adapt,
    denoise,
    estimate_projection_stats,
    rotate,
    sample,
)
from scoreshift import adaptation
from scoreshift.adaptation import _initial_params, _pack_loss, _split_params, fd_gradient
from scoreshift.adaptation import _signal_loss_and_grad
from scoreshift.experiments import CONFIG_SCHEMA
from scoreshift.measurements import OperatorSampler, RightBasis
from scoreshift.priors import gaussian_pair, triangle_pair
from scoreshift.rng import stream
from tests.conftest import PROPERTY, mask_sampler, rising_eval_loss


def denoising_loss(q, batch, sigmas, rng):
    """Reference: mean weighted denoising error of q over (measurement x sigma) pairs.

    For each measurement and each sigma, noise is added on the observed
    coordinates, the denoiser of q rotated into the projected basis is
    applied, and the result is compared against the clean measurement
    under the per-coordinate weights E[P]^(-3/2), with E[P] the batch's own
    observation frequency.
    """
    sigmas = np.asarray(sigmas, dtype=float)
    if sigmas.ndim != 1 or sigmas.size == 0 or np.any(sigmas <= 0):
        raise ValueError("sigmas must be a nonempty list of positive values")
    w = estimate_projection_stats(batch.support) ** -1.5
    eps = rng.standard_normal((sigmas.size,) + batch.ybar.shape)
    rotated = rotate(q, batch.sampler.basis.matrix.T)
    return _pack_loss(rotated, batch.ybar, batch.support, w, sigmas, eps)


def full_observation_data(p, count, seed):
    sampler = mask_sampler(dim=p.dim, keep_prob=1.0, base_seed=seed)
    draws = sample(p, count, stream(seed, "data-x"))
    return MeasurementDataset.from_samples(sampler, draws, seed=seed)


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
        data = full_observation_data(p_atom, 64, seed=31)
        loss = denoising_loss(q, data, [0.05], stream(31, "loss"))
        assert loss < 1e-3

    def test_full_observation_matches_bayes_risk_oracle(self, toy_pair):
        # oracle: direct Monte Carlo of ||x - denoise(x + sigma eps)||^2
        p, _ = toy_pair
        sigma = 0.5
        data = full_observation_data(p, 4000, seed=32)
        loss = denoising_loss(p, data, [sigma], stream(32, "loss"))
        gen = stream(33, "bayes-oracle")
        x = sample(p, 4000, gen)
        noised = x + sigma * gen.standard_normal(x.shape)
        resid = x - denoise(p, noised, sigma)
        oracle = float(np.einsum("ni,ni->n", resid, resid).mean())
        assert loss == pytest.approx(oracle, rel=0.05)

    def test_scaling_weights_scales_loss_quadratically(self, toy_pair, toy_masked_data):
        p, q = toy_pair
        sampler, ep, _, data = toy_masked_data
        rotated = rotate(q, sampler.basis.matrix.T)
        sigmas = np.array([0.3, 0.9])
        eps = stream(34, "loss").standard_normal((sigmas.size,) + data.ybar.shape)
        w = ep**-1.5
        base = _pack_loss(rotated, data.ybar, data.support, w, sigmas, eps)
        quad = _pack_loss(rotated, data.ybar, data.support, 2.0 * w, sigmas, eps)
        assert quad == 4.0 * base

    def test_sigma_validation(self, toy_pair, toy_masked_data):
        _, q = toy_pair
        _, _, _, data = toy_masked_data
        with pytest.raises(ValueError, match="positive"):
            denoising_loss(q, data, [0.5, -0.1], stream(35, "loss"))
        with pytest.raises(ValueError, match="positive"):
            denoising_loss(q, data, [], stream(35, "loss"))


class TestFiniteDifferenceGradient:
    def test_matches_four_point_stencil(self, toy_pair, toy_masked_data):
        p, q = toy_pair
        sampler, ep, _, data = toy_masked_data
        ybar = data.ybar[:64]
        masks = data.support[:64]
        sigmas = np.array([0.2, 0.7, 1.5])
        eps = stream(37, "fd").standard_normal((3, 64, 10))

        def loss_at(params):
            mix = rotate(_split_params(params, q, False), sampler.basis.matrix.T)
            return _pack_loss(mix, ybar, masks, ep**-1.5, sigmas, eps)

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


def basis_pack(basis_kind, dim=8):
    """The triangle pair, a keep-0.6 dataset of 32 rows under one basis, sigmas and eps."""
    p, q = triangle_pair(dim)
    basis = RightBasis(basis_kind, dim, 4 if basis_kind == "dense" else 0)
    sampler = OperatorSampler(
        kind="coordinate-mask", dim=dim, basis=basis, base_seed=5, keep_prob=0.6
    )
    draws = sample(p, 32, stream(60, "data-x"))
    data = MeasurementDataset.from_samples(sampler, draws, seed=60)
    sigmas = np.geomspace(1e-2, 1e3, 6)
    eps = stream(61, "grad").standard_normal((sigmas.size,) + data.ybar.shape)
    return q, basis, data, estimate_projection_stats(data.support) ** -1.5, sigmas, eps


class TestProjectedLoss:
    @pytest.mark.parametrize("basis_kind", ["identity", "dense", "hadamard"])
    def test_rotated_loss_matches_lifted_loss(self, basis_kind):
        # the literal form: lift each re-noised row with V, denoise in signal
        # coordinates, take the result back with V^T
        q, basis, data, w, sigmas, eps = basis_pack(basis_kind)
        ybar, masks = data.ybar, data.support
        total = 0.0
        for s, sigma in enumerate(sigmas):
            lifted = basis.forward(ybar + sigma * (eps[s] * masks))
            resid = (ybar - basis.inverse(denoise(q, lifted, sigma))) * w
            total += float(np.einsum("bi,bi->b", resid, resid).sum())
        lifted_loss = total / (sigmas.size * len(data))
        loss = _pack_loss(rotate(q, basis.matrix.T), ybar, masks, w, sigmas, eps)
        if basis_kind == "identity":
            assert loss == lifted_loss
        else:
            assert loss == pytest.approx(lifted_loss, rel=1e-12)


class TestClosedFormGradient:
    @pytest.mark.parametrize("basis_kind", ["identity", "dense", "hadamard"])
    def test_closed_form_gradient_matches_fd(self, basis_kind):
        q3, basis, data, w, sigmas, eps = basis_pack(basis_kind)
        q1 = GaussianMixture(weights=np.ones(1), means=q3.means[:1], variances=q3.variances[:1])
        pack = (data.ybar, data.support, w, sigmas, eps)
        for q in (q1, q3):
            for train_weights in (False, True):
                loss = assert_gradient_matches_fd(q, basis, pack, train_weights, h=1e-3)
                assert loss == _pack_loss(rotate(q, basis.matrix.T), *pack)

    @PROPERTY
    @given(
        k=st.integers(1, 3),
        dim=st.sampled_from([2, 4, 8]),
        basis_kind=st.sampled_from(["identity", "dense", "hadamard"]),
        train_weights=st.booleans(),
        sigmas=st.lists(st.floats(0.05, 5.0), min_size=1, max_size=3),
        seed=st.integers(0, 2**16),
    )
    def test_closed_form_gradient_matches_fd_on_random_packs(
        self, k, dim, basis_kind, train_weights, sigmas, seed
    ):
        gen = stream(seed, "grad-pack")
        basis = RightBasis(basis_kind, dim, seed if basis_kind == "dense" else 0)
        weights = gen.uniform(0.2, 1.0, size=k)
        q = GaussianMixture(
            weights / weights.sum(),
            gen.uniform(-3.0, 3.0, size=(k, dim)),
            gen.uniform(0.5, 2.0, size=k),
        )
        rows = 4
        masks = gen.random((rows, dim)) < 0.6
        ybar = gen.uniform(-3.0, 3.0, size=(rows, dim)) * masks
        w = gen.uniform(0.5, 2.0, size=dim)
        sigmas = np.array(sigmas)
        pack = (ybar, masks, w, sigmas, gen.standard_normal((sigmas.size, rows, dim)))
        # a pack of 4 rows and 1-3 sigmas averages little: at h = 1e-3 the
        # stencil's own h^2 error reaches a few 1e-6 of the largest entry
        assert_gradient_matches_fd(q, basis, pack, train_weights, h=1e-4)


def assert_gradient_matches_fd(q, basis, pack, train_weights, h):
    """_signal_loss_and_grad of q on pack = (ybar, masks, w, sigmas, eps) against
    fd_gradient of _pack_loss at step h; returns the gradient function's loss.

    Both differentiate in signal-coordinate parameters, through the rotation
    into the projected basis.
    """

    def loss_at(params):
        return _pack_loss(rotate(_split_params(params, q, train_weights), basis.matrix.T), *pack)

    loss, grad = _signal_loss_and_grad(q, basis, *pack, train_weights)
    reference = fd_gradient(loss_at, _initial_params(q, train_weights), h)
    assert grad.shape == reference.shape
    # central differences err by an absolute h^2 * (third derivative) per
    # entry, so the tolerance is taken relative to the gradient's largest entry
    scale = np.abs(reference).max()
    assert np.abs(grad - reference).max() <= 1e-6 * scale
    return loss


class TestAdaptationConfig:
    def test_field_validation(self):
        with pytest.raises(ValueError):
            AdaptationConfig(trainable="everything")
        with pytest.raises(ValueError):
            AdaptationConfig(step_size=0.0)
        with pytest.raises(ValueError):
            AdaptationConfig(iterations=0)
        with pytest.raises(ValueError):
            AdaptationConfig(eval_samples=1)
        with pytest.raises(ValueError, match="batch and sigma_draws must be >= 1"):
            AdaptationConfig(batch=0)
        with pytest.raises(ValueError, match="batch and sigma_draws must be >= 1"):
            AdaptationConfig(sigma_draws=0)
        AdaptationConfig(iterations=1, batch=1, sigma_draws=1, eval_samples=2)

    def test_fields_are_the_config_block(self):
        # one knob, one place: every field but the run's seed is a config key
        block = CONFIG_SCHEMA["properties"]["adaptation"]["properties"]
        assert set(block) == {f.name for f in fields(AdaptationConfig)} - {"seed"}


def toy_cfg(**overrides):
    """The small probe setup: batch 32, 4 sigma draws, a cap of 100 steps, and
    64 image draws for the report's before/after kl_image."""
    return AdaptationConfig(
        **{"iterations": 100, "batch": 32, "sigma_draws": 4, "eval_samples": 64, **overrides}
    )


class TestAdapt:
    def test_already_optimal_start_barely_moves(self, toy_pair, toy_masked_data):
        p, _ = toy_pair
        _, _, _, data = toy_masked_data
        grid = SigmaGrid(0.01, 1.0, 24)
        cfg = AdaptationConfig(
            step_size=1e-4, iterations=120, batch=128, sigma_draws=8, eval_samples=64, seed=41
        )
        adapted, report = adapt(p, data, cfg, grid, ind_model=p)
        assert report.param_delta["means"] < 1e-2
        assert report.stop_reason in ("plateau", "cap")

    def test_shifted_gaussian_recovers_target_mean(self):
        p, q0 = gaussian_pair()
        grid = SigmaGrid(1e-2, 1e3, 96)
        sampler = mask_sampler(dim=10, keep_prob=0.5, base_seed=21)
        draws = sample(p, 512, stream(33, "data-x"))
        data = MeasurementDataset.from_samples(sampler, draws, seed=33)
        cfg = AdaptationConfig(step_size=0.1, iterations=600, batch=128, sigma_draws=8, seed=33)
        adapted, report = adapt(q0, data, cfg, grid, ind_model=p)
        assert np.max(np.abs(adapted.means[0])) < 0.3
        assert report.kl_measurement_after.value < 1.0
        assert report.kl_measurement_before.value > 10.0

    def test_mixture_of_another_dim_rejected(self, toy_masked_data):
        _, _, _, data = toy_masked_data
        p3, q3 = gaussian_pair(dim=3)
        with pytest.raises(ValueError, match="mixture dim does not match measurement dim"):
            adapt(q3, data, toy_cfg(), SigmaGrid(0.01, 1.0, 4), ind_model=p3)

    def test_divergence_guard_triggers(self, toy_pair, toy_masked_data):
        # Adam's step is bounded by step_size, so only a step that makes the
        # loss overflow reaches the guard
        p, q = toy_pair
        _, _, _, data = toy_masked_data
        grid = SigmaGrid(0.01, 1.0, 16)
        with np.errstate(all="ignore"), pytest.raises(DivergenceError, match="not finite"):
            adapt(q, data, toy_cfg(step_size=1e300, seed=42), grid, ind_model=p)

    def test_non_finite_loss_stops_at_step_1(self, toy_pair, toy_masked_data, monkeypatch):
        # the first step at 1e300 makes the evaluation loss NaN; a NaN iterate
        # never recovers, so no second gradient step is taken
        p, q = toy_pair
        _, _, _, data = toy_masked_data
        grid = SigmaGrid(0.01, 1.0, 16)
        steps = []

        def counted(*args, **kwargs):
            steps.append(len(steps) + 1)
            return _signal_loss_and_grad(*args, **kwargs)

        monkeypatch.setattr(adaptation, "_signal_loss_and_grad", counted)
        with np.errstate(all="ignore"), pytest.raises(
            DivergenceError, match=r"evaluation loss is not finite at step 1 \("
        ):
            adapt(q, data, toy_cfg(step_size=1e300, seed=42), grid, ind_model=p)
        assert steps == [1]

    def test_rising_streak_stops_at_step_20(self, toy_pair, toy_masked_data, monkeypatch):
        # a finite loss that rises at every step is never a plateau: the guard
        # fires once it has risen DIVERGENCE_PATIENCE (20) times in a row
        p, q = toy_pair
        _, _, _, data = toy_masked_data
        grid = SigmaGrid(0.01, 1.0, 16)
        losses = rising_eval_loss(monkeypatch)
        with pytest.raises(DivergenceError, match="rose for 20 consecutive steps"):
            adapt(q, data, toy_cfg(step_size=0.05, seed=46), grid, ind_model=p)
        assert adaptation.DIVERGENCE_PATIENCE == 20
        assert len(losses) == 21  # the start, then steps 1 to 20

    @pytest.mark.parametrize("seed", [42, 43, 44])
    def test_finite_blow_up_returns_the_start(self, toy_pair, toy_masked_data, seed):
        # every step at 1e3 overshoots to a finite, worse loss: the run stops
        # at a plateau and hands back q0 untouched, the best iterate
        p, q = toy_pair
        _, _, _, data = toy_masked_data
        grid = SigmaGrid(0.01, 1.0, 16)
        adapted, report = adapt(q, data, toy_cfg(step_size=1e3, seed=seed), grid, ind_model=p)
        np.testing.assert_array_equal(adapted.means, q.means)
        assert report.param_delta["means"] == 0.0
        assert report.stop_reason == "plateau"

    def test_trajectory_bounded_and_best_loss_not_worse(self, toy_pair, toy_masked_data):
        p, q = toy_pair
        _, _, _, data = toy_masked_data
        grid = SigmaGrid(0.01, 1.0, 16)
        cfg = toy_cfg(step_size=0.2, iterations=25, seed=43)
        adapted, report = adapt(q, data, cfg, grid, ind_model=p)
        assert len(report.loss_trajectory) <= cfg.iterations + 1
        assert min(report.loss_trajectory) <= report.loss_trajectory[0]
        best_curve = np.minimum.accumulate(report.loss_trajectory)
        assert np.all(np.diff(best_curve) <= 0)

    def test_weights_stay_on_simplex_when_trainable(self, toy_pair, toy_masked_data):
        p, q = toy_pair
        _, _, _, data = toy_masked_data
        grid = SigmaGrid(0.01, 1.0, 16)
        skewed = GaussianMixture(
            weights=np.array([0.6, 0.2, 0.2]), means=q.means, variances=q.variances
        )
        cfg = toy_cfg(trainable="means-and-weights", step_size=0.2, iterations=40, seed=44)
        adapted, report = adapt(skewed, data, cfg, grid, ind_model=p)
        assert adapted.weights.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(adapted.weights >= 0)
        assert report.param_delta["weights"] >= 0.0

    def test_variances_frozen(self, toy_pair, toy_masked_data):
        p, q = toy_pair
        _, _, _, data = toy_masked_data
        grid = SigmaGrid(0.01, 1.0, 16)
        cfg = toy_cfg(step_size=0.3, iterations=15, seed=45)
        adapted, _ = adapt(q, data, cfg, grid, ind_model=p)
        np.testing.assert_array_equal(adapted.variances, q.variances)
