"""Properties over random mixtures, bases and series, checked with hypothesis.

Every test is derandomized and keeps no example database, so the suite
draws the same examples on every run and machine.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from scoreshift import (
    GaussianMixture,
    MeasurementDataset,
    RightBasis,
    SigmaGrid,
    denoise,
    integrate,
    kl_image,
    kl_invertible,
    kl_measurement,
    log_density,
    responsibilities,
    rotate,
    sample,
    score,
)
from scoreshift.quadrature import node_weights
from scoreshift.rng import stream
from tests.conftest import mask_sampler

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=25)
GRID = SigmaGrid(0.05, 5.0, 6)

coords = st.floats(-4.0, 4.0, allow_nan=False)


@st.composite
def mixtures(draw, dim=None):
    """An isotropic mixture of 1-3 components, of the given dim or 1-4."""
    dim = dim or draw(st.integers(1, 4))
    k = draw(st.integers(1, 3))
    weights = np.array(draw(st.lists(st.floats(0.1, 1.0), min_size=k, max_size=k)))
    means = draw(st.lists(st.lists(coords, min_size=dim, max_size=dim), min_size=k, max_size=k))
    variances = draw(st.lists(st.floats(0.3, 3.0), min_size=k, max_size=k))
    return GaussianMixture(weights / weights.sum(), np.array(means), np.array(variances))


@st.composite
def bases(draw):
    kind = draw(st.sampled_from(["identity", "hadamard", "dense"]))
    if kind == "hadamard":
        return RightBasis(kind, 2 ** draw(st.integers(0, 6)))
    dim = draw(st.integers(1, 48))
    return RightBasis(kind, dim, draw(st.integers(0, 2**32)) if kind == "dense" else 0)


@PROPERTY
@given(mixtures(), st.data(), st.floats(0.1, 2.0))
def test_score_is_the_gradient_of_log_density(gmm, data, sigma):
    x = np.array(data.draw(st.lists(coords, min_size=gmm.dim, max_size=gmm.dim)))
    h = 1e-5
    steps = h * np.eye(gmm.dim)
    central = (log_density(gmm, x + steps, sigma) - log_density(gmm, x - steps, sigma)) / (2 * h)
    np.testing.assert_allclose(score(gmm, x[None], sigma)[0], central, rtol=1e-5, atol=1e-5)


@PROPERTY
@given(mixtures(), st.data(), st.floats(0.05, 5.0))
def test_denoise_is_tweedie_the_weighted_posterior_means(gmm, data, sigma):
    # x0 | x, component k: mean mu_k + v_k / (v_k + sigma^2) (x - mu_k)
    rows = st.lists(coords, min_size=gmm.dim, max_size=gmm.dim)
    x = np.array(data.draw(st.lists(rows, min_size=1, max_size=4)))
    shrink = gmm.variances / (gmm.variances + sigma**2)
    posterior = gmm.means + shrink[:, None] * (x[:, None, :] - gmm.means)  # (N, K, n)
    expected = np.einsum("nk,nki->ni", responsibilities(gmm, x, sigma), posterior)
    scale = max(1.0, np.abs(x).max(), np.abs(gmm.means).max())
    np.testing.assert_allclose(denoise(gmm, x, sigma), expected, rtol=1e-10, atol=1e-10 * scale)


@PROPERTY
@given(bases())
def test_every_basis_matrix_is_orthogonal(basis):
    v = basis.matrix
    np.testing.assert_allclose(v @ v.T, np.eye(basis.dim), rtol=0, atol=1e-12)
    np.testing.assert_allclose(v.T @ v, np.eye(basis.dim), rtol=0, atol=1e-12)


@PROPERTY
@given(mixtures(), st.integers(0, 2**16), st.floats(0.3, 1.0))
def test_self_divergence_is_exactly_zero(p, seed, keep):
    assert kl_image(p, p, GRID, n_samples=16, seed=seed).value == 0.0
    sampler = mask_sampler(dim=p.dim, keep_prob=keep, base_seed=seed)
    # at keep >= 0.3, 64 rows leave a coordinate unobserved with odds below 1e-9
    data = MeasurementDataset.from_samples(sampler, sample(p, 64, stream(seed, "x")), seed=seed)
    assert kl_measurement(p, p, data, GRID, seed=seed).value == 0.0


@PROPERTY
@given(st.data(), st.integers(1, 6), st.integers(0, 2**32), st.integers(0, 2**16))
def test_full_observation_under_a_dense_basis_is_the_image_estimator(data, dim, bseed, seed):
    # ybar = V^T x exactly observed: the measurement estimator is the image
    # estimator of the rotated priors on the points ybar
    p, q = data.draw(mixtures(dim)), data.draw(mixtures(dim))
    basis = RightBasis("dense", dim, bseed)
    sampler = mask_sampler(dim=dim, keep_prob=1.0, base_seed=seed, basis=basis)
    draws = sample(p, 24, stream(seed, "x"))
    measured = MeasurementDataset.from_samples(sampler, draws, seed=seed)
    np.testing.assert_allclose(basis.forward(measured.ybar), draws, rtol=0, atol=1e-10)
    to_basis = basis.matrix.T
    image = kl_image(rotate(p, to_basis), rotate(q, to_basis), GRID, samples=measured.ybar,
                     seed=seed)
    for est in (kl_measurement(p, q, measured, GRID, seed=seed),
                kl_invertible(p, q, measured, GRID, seed=seed)):
        np.testing.assert_allclose(est.value, image.value, rtol=1e-10, atol=0)
        np.testing.assert_allclose(est.node_means, image.node_means, rtol=1e-10, atol=0)


@PROPERTY
@given(st.lists(st.floats(0.0, 1e6), min_size=6, max_size=6))
def test_integrate_is_the_node_weights_dot_the_means(means):
    value, stderr = integrate(GRID, means, np.zeros(6))
    np.testing.assert_allclose(value, node_weights(GRID) @ np.array(means), rtol=1e-12, atol=0)
    assert stderr == 0.0
