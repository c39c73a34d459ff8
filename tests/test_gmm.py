"""Mixture densities, scores, denoisers and the Monte Carlo divergence oracle."""

import json
from decimal import Decimal, localcontext

import numpy as np
import pytest

from scoreshift import (
    GaussianMixture,
    convolve,
    denoise,
    exact_kl_oracle,
    log_density,
    responsibilities,
    rotate,
    sample,
    score,
)
from scoreshift.gmm import sample_blocks
from scoreshift.measurements import RightBasis
from scoreshift.priors import gaussian_pair, triangle_pair
from scoreshift.rng import stream


def machin_pi() -> Decimal:
    """pi at the context's precision by Machin's formula, 16 atan(1/5) - 4 atan(1/239),
    each arctangent summed by its series with five guard digits."""

    def atan_inv(n: int) -> Decimal:
        total, power, k = Decimal(0), Decimal(1) / n, 0
        while total + power / (2 * k + 1) != total:
            total += (-1) ** k * power / (2 * k + 1)
            power /= n * n
            k += 1
        return total

    with localcontext() as ctx:
        ctx.prec += 5
        pi = 16 * atan_inv(5) - 4 * atan_inv(239)
    return +pi


def single_gaussian(mean, var=1.0):
    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    return GaussianMixture(
        weights=np.array([1.0]), means=mean[None, :], variances=np.array([var])
    )


class TestGaussianMixtureType:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            GaussianMixture(
                weights=np.array([0.6, 0.5]),
                means=np.zeros((2, 3)),
                variances=np.ones(2),
            )

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            GaussianMixture(
                weights=np.array([1.2, -0.2]),
                means=np.zeros((2, 3)),
                variances=np.ones(2),
            )

    def test_nonpositive_variance_rejected(self):
        with pytest.raises(ValueError, match="strictly positive"):
            GaussianMixture(
                weights=np.array([1.0]), means=np.zeros((1, 2)), variances=np.array([0.0])
            )

    def test_component_count_mismatch(self):
        with pytest.raises(ValueError, match="component count"):
            GaussianMixture(
                weights=np.array([1.0]), means=np.zeros((2, 3)), variances=np.ones(1)
            )

    def test_weights_must_be_1d(self):
        with pytest.raises(ValueError, match="weights must be a 1-D probability vector"):
            GaussianMixture(weights=np.ones((1, 1)), means=np.zeros((1, 3)), variances=np.ones(1))

    @pytest.mark.parametrize("pair", [gaussian_pair, triangle_pair])
    def test_pair_below_dim_two_rejected(self, pair):
        with pytest.raises(ValueError, match=f"{pair.__name__} needs dim >= 2"):
            pair(dim=1)

    @pytest.mark.parametrize("means", [np.zeros(3), np.zeros((1, 1, 3))], ids=["1-d", "3-d"])
    def test_means_must_be_2d(self, means):
        with pytest.raises(ValueError, match=r"means must be a \(K, n\) array"):
            GaussianMixture(weights=np.array([1.0]), means=means, variances=np.ones(1))

    def test_arrays_frozen(self):
        g = single_gaussian(np.zeros(3))
        with pytest.raises(ValueError):
            g.means[0, 0] = 1.0

    def test_toy_pair_matches_declared_geometry(self):
        p, q = triangle_pair()
        assert p.dim == 10 and p.n_components == 3
        np.testing.assert_allclose(p.weights, 1.0 / 3.0)
        np.testing.assert_array_equal(p.means[:, :2], [[0, 0], [5, 5], [10, 0]])
        np.testing.assert_array_equal(q.means[:, :2], [[10, -5], [15, 0], [20, -5]])
        np.testing.assert_array_equal(p.means[:, 2:], np.zeros((3, 8)))
        np.testing.assert_array_equal(p.variances, np.ones(3))


class TestConvolve:
    def test_zero_noise_is_identity(self, toy_pair):
        p, _ = toy_pair
        assert convolve(p, 0.0) is p

    def test_single_component_variance_adds(self):
        g = single_gaussian(np.zeros(4), var=1.0)
        assert convolve(g, 2.0).variances[0] == 5.0

    def test_toy_at_unit_sigma_doubles_unit_variances(self, toy_pair):
        p, _ = toy_pair
        np.testing.assert_array_equal(convolve(p, 1.0).variances, np.full(3, 2.0))

    def test_negative_sigma_rejected(self, toy_pair):
        with pytest.raises(ValueError):
            convolve(toy_pair[0], -0.1)


class TestLogDensity:
    def test_standard_normal_mode(self):
        n = 7
        g = single_gaussian(np.zeros(n))
        assert log_density(g, np.zeros((1, n)), 0.0)[0] == pytest.approx(
            -0.5 * n * np.log(2 * np.pi), abs=1e-14
        )

    def test_matches_extended_precision_summation(self, toy_pair):
        # independent oracle: direct summation at 50 decimal digits
        p, _ = toy_pair
        sigma = 0.5
        x = p.means[0]
        with localcontext() as ctx:
            ctx.prec = 50
            pi = machin_pi()
            total = Decimal(0)
            for w, mu, var in zip(p.weights, p.means, p.variances):
                v = Decimal(float(var)) + Decimal(sigma) ** 2
                sq = sum((Decimal(float(a - b)) ** 2 for a, b in zip(x, mu)), Decimal(0))
                norm = (2 * pi * v) ** (Decimal(-p.dim) / 2)
                total += Decimal(float(w)) * norm * (-sq / (2 * v)).exp()
            expected = float(total.ln())
        assert log_density(p, x[None], sigma)[0] == pytest.approx(expected, rel=1e-13)

    def test_machin_pi_reference(self):
        with localcontext() as ctx:
            ctx.prec = 50
            assert str(machin_pi()) == "3.1415926535897932384626433832795028841971693993751"

    def test_consistent_with_convolve(self, toy_pair):
        p, _ = toy_pair
        rng = stream(0, "ld-probe")
        x = rng.standard_normal((5, p.dim)) * 4
        for sigma in (0.05, 0.7, 3.0):
            direct = log_density(p, x, sigma)
            via_convolve = log_density(convolve(p, sigma), x, 0.0)
            np.testing.assert_allclose(direct, via_convolve, rtol=0, atol=1e-12)

    def test_dimension_mismatch(self, toy_pair):
        with pytest.raises(ValueError, match="dim"):
            log_density(toy_pair[0], np.zeros(4), 0.0)

    @pytest.mark.parametrize("fn", [log_density, responsibilities, score, denoise])
    @pytest.mark.parametrize("shape", [(10,), (2, 4), (1, 2, 10)])
    def test_points_must_be_a_batch(self, toy_pair, fn, shape):
        with pytest.raises(ValueError, match=r"\(N, dim\)"):
            fn(toy_pair[0], np.zeros(shape), 0.5)

    def test_zero_weight_component_and_far_points(self):
        # oracle: numpy's pairwise logaddexp over the per-component terms
        mix = GaussianMixture(
            weights=np.array([0.0, 0.25, 0.75]),
            means=np.array([[0.0, 0.0], [1e3, -1e3], [-2.0, 3.0]]),
            variances=np.array([1.0, 0.5, 2.0]),
        )
        x = np.array([[0.0, 0.0], [1e4, 1e4], [-3e3, 5e2], [1e3, -1e3]])
        r = responsibilities(mix, x, 0.1)
        assert np.all(np.isfinite(r))
        np.testing.assert_allclose(r.sum(axis=1), 1.0, rtol=0, atol=1e-12)
        assert np.all(r[:, 0] == 0.0)
        var = mix.variances + 0.1**2
        sq = ((mix.means[None, :, :] - x[:, None, :]) ** 2).sum(axis=2)
        with np.errstate(divide="ignore"):
            comp = np.log(mix.weights) - np.log(2 * np.pi * var) - 0.5 * sq / var
        expected = np.logaddexp.reduce(comp, axis=1)
        np.testing.assert_allclose(log_density(mix, x, 0.1), expected, rtol=1e-12)


class TestScore:
    def test_single_gaussian_score_is_negative_x(self):
        g = single_gaussian(np.zeros(6))
        x = np.zeros(6)
        x[0] = 1.0
        np.testing.assert_array_equal(score(g, x[None], 0.0)[0], -x)

    def test_single_gaussian_closed_form_any_sigma(self):
        mu = np.array([1.0, -2.0, 0.5])
        g = single_gaussian(mu, var=0.7)
        rng = stream(1, "score-probe")
        for sigma in (0.0, 0.4, 2.5):
            x = rng.standard_normal(3) * 3
            np.testing.assert_array_equal(score(g, x[None], sigma)[0], (mu - x) / (0.7 + sigma**2))

    def test_matches_central_finite_differences(self, toy_pair):
        p, _ = toy_pair
        h = 1e-5
        rng = stream(2, "fd-probe")
        pts = sample(p, 100, rng)
        sigma = 0.3
        worst = 0.0
        for x in pts:
            analytic = score(p, x[None], sigma)[0]
            fd = np.empty_like(x)
            for i in range(x.size):
                up, dn = x.copy(), x.copy()
                up[i] += h
                dn[i] -= h
                diff = log_density(p, up[None], sigma) - log_density(p, dn[None], sigma)
                fd[i] = diff[0] / (2 * h)
            worst = max(
                worst, np.linalg.norm(fd - analytic) / np.linalg.norm(analytic)
            )
        assert worst < 1e-5

    def test_zero_at_center_of_symmetric_pair(self):
        mu = np.zeros((2, 4))
        mu[0, 0], mu[1, 0] = -3.0, 3.0
        g = GaussianMixture(
            weights=np.array([0.5, 0.5]), means=mu, variances=np.ones(2)
        )
        for sigma in (0.0, 0.9, 5.0):
            np.testing.assert_allclose(score(g, np.zeros((1, 4)), sigma), 0.0, atol=1e-14)

    def test_orthogonal_equivariance(self, toy_pair):
        p, _ = toy_pair
        basis = RightBasis("dense", p.dim, seed=3)
        v = basis.matrix
        rotated = rotate(p, v)
        rng = stream(4, "equiv-probe")
        for sigma in (0.1, 1.0):
            x = rng.standard_normal(p.dim) * 5
            lhs = score(rotated, (v @ x)[None], sigma)[0]
            rhs = v @ score(p, x[None], sigma)[0]
            np.testing.assert_allclose(lhs, rhs, atol=1e-10)
            assert abs(np.linalg.norm(lhs) - np.linalg.norm(rhs)) < 1e-10



class TestScoreKernel:
    def test_three_components_match_literal_form_bit_for_bit(self, toy_pair):
        p, _ = toy_pair
        sigma = 0.7
        pts = sample(p, 64, stream(4, "kernel-x"))
        pts = pts + sigma * stream(4, "kernel-eps").standard_normal(pts.shape)
        diff = p.means[None, :, :] - pts[:, None, :]
        var = p.variances + sigma**2
        literal = np.einsum(
            "nk,nki->ni", responsibilities(p, pts, sigma), diff / var[None, :, None]
        )
        np.testing.assert_array_equal(score(p, pts, sigma), literal)

class TestDenoise:
    def test_sigma_zero_rejected_by_default(self, toy_pair):
        with pytest.raises(ValueError, match="sigma=0"):
            denoise(toy_pair[0], np.zeros(10), 0.0)

    def test_point_mass_prior_returns_its_atom(self):
        mu = np.array([2.0, -1.0, 4.0])
        g = single_gaussian(mu, var=1e-8)
        x = np.array([10.0, 10.0, -10.0])
        np.testing.assert_allclose(denoise(g, x[None], 1.0)[0], mu, atol=1e-6)

    def test_large_noise_limit_is_mixture_mean(self, toy_pair):
        p, _ = toy_pair
        x = stream(5, "dn-probe").standard_normal(p.dim)
        np.testing.assert_allclose(denoise(p, x[None], 1e3)[0], p.weights @ p.means, atol=1e-3)

    def test_matches_direct_posterior_mean(self, toy_pair):
        # oracle: responsibility-weighted per-component posterior means
        p, _ = toy_pair
        sigma = 0.5
        pts = sample(p, 32, stream(6, "dn-oracle"))
        r = responsibilities(p, pts, sigma)  # (N, K)
        post = (p.variances[None, :, None] * pts[:, None, :] + sigma**2 * p.means[None, :, :]) / (
            p.variances[None, :, None] + sigma**2
        )
        oracle = np.einsum("nk,nki->ni", r, post)
        np.testing.assert_allclose(denoise(p, pts, sigma), oracle, atol=1e-10)

    def test_tweedie_identity_residual(self, toy_pair):
        p, _ = toy_pair
        pts = sample(p, 64, stream(7, "tw-probe"))
        for sigma in (0.1, 0.5, 2.0):
            resid = denoise(p, pts, sigma) - pts - sigma**2 * score(p, pts, sigma)
            assert np.max(np.abs(resid)) < 1e-12


class TestSample:
    def test_law_of_large_numbers(self):
        g = single_gaussian(np.zeros(10))
        pts = sample(g, 10**5, stream(8, "lln"))
        assert np.max(np.abs(pts.mean(axis=0))) < 4 / np.sqrt(10**5)

    def test_toy_component_frequencies(self, toy_pair):
        p, _ = toy_pair
        pts = sample(p, 3 * 10**5, stream(9, "freq"))
        r = responsibilities(p, pts, 0.0)
        counts = np.bincount(np.argmax(r, axis=1), minlength=3) / pts.shape[0]
        np.testing.assert_allclose(counts, 1.0 / 3.0, atol=0.01)

    def test_fixed_seed_reproduces_batch(self, toy_pair):
        p, _ = toy_pair
        a = sample(p, 100, stream(1234, "probe"))
        b = sample(p, 100, stream(1234, "probe"))
        np.testing.assert_array_equal(a, b)

    def test_int_seed_rejected(self, toy_pair):
        with pytest.raises(TypeError, match="stream"):
            sample(toy_pair[0], 100, 1234)

    def test_count_validation(self, toy_pair):
        with pytest.raises(ValueError):
            sample(toy_pair[0], 0, stream(1, "probe"))

    def test_returns_read_only_points_array(self, toy_pair):
        p, _ = toy_pair
        pts = sample(p, 7, stream(10, "plain"))
        assert type(pts) is np.ndarray
        assert pts.shape == (7, p.dim)
        assert not pts.flags.writeable
        with pytest.raises(ValueError):
            pts[0, 0] = 1.0

    @pytest.mark.parametrize("rows", [1, 7, 40, 41, 42, 1000])
    def test_blocks_concatenate_to_one_draw(self, toy_pair, rows):
        p, _ = toy_pair
        whole = sample(p, 41, stream(11, "blocks"))
        blocks, pieces = [], []
        for block, pts in sample_blocks(p, 41, stream(11, "blocks"), rows):
            blocks.append(block)
            pieces.append(pts.copy())  # the next block overwrites pts
        assert [b.start for b in blocks] == list(range(0, 41, rows))
        assert all(len(piece) == len(range(41)[b]) for b, piece in zip(blocks, pieces))
        np.testing.assert_array_equal(np.concatenate(pieces), whole)


class TestExactKlOracle:
    def test_self_divergence_exactly_zero(self, toy_pair):
        p, _ = toy_pair
        value, stderr = exact_kl_oracle(p, p, 500, stream(10, "self"))
        assert value == 0.0 and stderr == 0.0

    def test_gaussian_closed_form(self):
        p, q = gaussian_pair(dim=10, distance_sq=25.0)
        value, stderr = exact_kl_oracle(p, q, 10**5, stream(11, "gauss"))
        assert abs(value - 12.5) < 3 * stderr

    def test_dimension_mismatch(self, toy_pair):
        p, _ = toy_pair
        other = single_gaussian(np.zeros(3))
        with pytest.raises(ValueError):
            exact_kl_oracle(p, other, 10, stream(12, "dim"))


class TestSerialization:
    def test_round_trip_is_bit_faithful(self, tmp_path):
        g = GaussianMixture(
            weights=np.array([0.1, 0.9]),
            means=np.array([[1 / 3, 0.12345678901234567], [-2.5, 1e-13]]),
            variances=np.array([0.7, 2.0]),
        )
        path = tmp_path / "mixture.json"
        g.save(path)
        loaded = GaussianMixture.load(path)
        assert loaded.weights.tobytes() == g.weights.tobytes()
        assert loaded.means.tobytes() == g.means.tobytes()
        assert loaded.variances.tobytes() == g.variances.tobytes()

    def test_declared_dim_checked(self, tmp_path):
        doc = {"dim": 5, "weights": [1.0], "means": [[0.0, 0.0]], "variances": [1.0]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="dim"):
            GaussianMixture.load(path)

    @pytest.mark.parametrize(
        "dim", [2.0, 2.7, True, "2"], ids=["float", "fractional", "true", "string"]
    )
    def test_declared_dim_that_is_no_integer_rejected(self, dim):
        doc = {"dim": dim, "weights": [1.0], "means": [[0.0, 0.0]], "variances": [1.0]}
        with pytest.raises(ValueError, match="dim must be an integer"):
            GaussianMixture.from_dict(doc)

    @pytest.mark.parametrize("key", ["weights", "means", "variances"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")], ids=["nan", "inf"])
    def test_non_finite_document_rejected(self, key, bad):
        doc = single_gaussian(np.zeros(2)).to_dict()
        doc[key] = np.full(np.shape(doc[key]), bad).tolist()
        with pytest.raises(ValueError, match="must be finite"):
            GaussianMixture.from_dict(doc)

    @pytest.mark.parametrize("key", ["weights", "means", "variances"])
    def test_integer_too_large_for_a_float_rejected(self, key, tmp_path):
        doc = single_gaussian(np.zeros(2)).to_dict()
        doc[key] = np.full(np.shape(doc[key]), 10**400, dtype=object).tolist()
        path = tmp_path / "mixture.json"
        path.write_text(json.dumps(doc))
        message = f"{key} holds a number too large for a float"
        for read in (lambda: GaussianMixture.from_dict(doc), lambda: GaussianMixture.load(path)):
            with pytest.raises(ValueError, match=message):
                read()
