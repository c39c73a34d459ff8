"""The three divergence estimators against closed-form and brute-force oracles."""

import json
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from scoreshift import (
    GaussianMixture,
    MeasurementDataset,
    OperatorSampler,
    RightBasis,
    SigmaGrid,
    convolve,
    estimate_projection_stats,
    exact_kl_oracle,
    integrate,
    kl_image,
    kl_invertible,
    kl_measurement,
    rotate,
    sample,
    score,
)
from scoreshift import estimators
from scoreshift.estimators import KlEstimate
from scoreshift.gmm import sample_blocks
from scoreshift.measurements import SpanViolation, sample_operator
from scoreshift.priors import gaussian_pair, triangle_pair
from scoreshift.rng import stream
from tests.conftest import mask_sampler

# Reference for the triangle pair restricted to sigma in [0.01, 1.0]:
# difference of divergences between the 0.01- and 1.0-convolved pairs,
# computed once by exact_kl_oracle with 10^6 draws each
# (streams (99, "oracle-lo") and (99, "oracle-hi")).
TOY_TRUNCATED_REF = 22.398927652022733
TOY_TRUNCATED_REF_STDERR = 0.029508539083731002


class TestToyTruncatedReference:
    def test_frozen_reference_matches_live_oracle(self, toy_pair):
        p, q = toy_pair
        lo, lo_err = exact_kl_oracle(
            convolve(p, 0.01), convolve(q, 0.01), 2 * 10**5, stream(123, "ref-lo")
        )
        hi, hi_err = exact_kl_oracle(
            convolve(p, 1.0), convolve(q, 1.0), 2 * 10**5, stream(123, "ref-hi")
        )
        live = lo - hi
        err = np.hypot(lo_err, hi_err)
        assert abs(live - TOY_TRUNCATED_REF) < 4 * np.hypot(err, TOY_TRUNCATED_REF_STDERR)


class TestKlImage:
    def test_self_divergence_exactly_zero(self, toy_pair, toy_grid):
        p, _ = toy_pair
        est = kl_image(p, p, toy_grid, n_samples=64, seed=0)
        assert est.value == 0.0 and est.stderr == 0.0
        assert np.all(est.node_means == 0.0)

    def test_gaussian_closed_form(self, gauss_pair, wide_grid):
        p, q = gauss_pair
        est = kl_image(p, q, wide_grid, n_samples=1024, seed=1)
        assert est.value == pytest.approx(12.5, rel=0.05)

    def test_toy_matches_truncated_oracle(self, toy_pair):
        p, q = toy_pair
        grid = SigmaGrid(0.01, 1.0, 100)
        est = kl_image(p, q, grid, n_samples=10**4, seed=2)
        combined = np.hypot(est.stderr, TOY_TRUNCATED_REF_STDERR)
        assert abs(est.value - TOY_TRUNCATED_REF) < 3 * combined

    def test_value_is_quadrature_of_series(self, toy_pair, toy_grid):
        p, q = toy_pair
        est = kl_image(p, q, toy_grid, n_samples=256, seed=3)
        value, stderr = integrate(est.grid, est.node_means, est.node_stderrs)
        assert abs(est.value - value) < 1e-12
        assert est.value >= 0.0
        assert est.n_samples == 256 and est.mode == "image"

    def test_requires_exactly_one_sample_source(self, toy_pair, toy_grid):
        p, q = toy_pair
        with pytest.raises(ValueError, match="exactly one"):
            kl_image(p, q, toy_grid, seed=0)
        with pytest.raises(ValueError, match="exactly one"):
            kl_image(p, q, toy_grid, n_samples=8, samples=np.zeros((4, 10)), seed=0)

    def test_dimension_mismatch(self, toy_pair, toy_grid):
        p, _ = toy_pair
        q3, _ = gaussian_pair(dim=3)
        with pytest.raises(ValueError, match="dimension"):
            kl_image(p, q3, toy_grid, n_samples=8)

    @pytest.mark.parametrize("width", [1, 3])
    def test_sample_width_must_match_priors(self, toy_pair, toy_grid, width):
        p, q = toy_pair
        with pytest.raises(ValueError, match=r"\(N, 10\)"):
            kl_image(p, q, toy_grid, samples=np.zeros((50, width)), seed=0)

    @pytest.mark.parametrize(
        "rows",
        [
            np.zeros((0, 10)),
            np.full((4, 10), np.nan),
            np.full((3, 10), np.inf),
            np.where(np.arange(80).reshape(8, 10) == 52, np.nan, 1.0),
        ],
    )
    def test_samples_must_be_finite_rows(self, toy_pair, toy_grid, rows):
        p, q = toy_pair
        with pytest.raises(ValueError, match="samples must hold at least one row"):
            kl_image(p, q, toy_grid, samples=rows, seed=0)

    @pytest.mark.parametrize("n_samples", [0, 1])
    def test_fewer_than_two_fresh_draws_rejected(self, toy_pair, toy_grid, n_samples):
        p, q = toy_pair
        with pytest.raises(ValueError, match="n_samples must be >= 2"):
            kl_image(p, q, toy_grid, n_samples=n_samples, seed=0)

    def test_workers_do_not_change_values(self, toy_pair, toy_grid):
        p, q = toy_pair
        a = kl_image(p, q, toy_grid, n_samples=128, seed=4, workers=1)
        b = kl_image(p, q, toy_grid, n_samples=128, seed=4, workers=4)
        assert a.value == b.value
        np.testing.assert_array_equal(a.node_means, b.node_means)

    def test_node_arrays_are_read_only(self, toy_pair, toy_grid):
        p, q = toy_pair
        est = kl_image(p, q, toy_grid, n_samples=64, seed=5)
        for arr in (est.node_means, est.node_stderrs):
            assert arr.shape == (len(toy_grid),)
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1.0


class TestKlMeasurement:
    def test_full_observation_reduces_to_image_domain(self, toy_pair, toy_grid):
        p, q = toy_pair
        sampler = mask_sampler(dim=10, keep_prob=1.0, base_seed=2)
        draws = sample(p, 300, stream(20, "data-x"))
        data = MeasurementDataset.from_samples(sampler, draws, seed=20)
        img = kl_image(p, q, toy_grid, samples=draws, seed=6)
        meas = kl_measurement(p, q, data, toy_grid, seed=6)
        assert abs(img.value - meas.value) < 1e-10
        np.testing.assert_allclose(img.node_means, meas.node_means, atol=1e-12)

    def test_gaussian_closed_form_under_masks(self, gauss_pair, wide_grid):
        p, q = gauss_pair
        sampler = mask_sampler(dim=10, keep_prob=0.5, base_seed=3)
        draws = sample(p, 2000, stream(21, "data-x"))
        data = MeasurementDataset.from_samples(sampler, draws, seed=21)
        est = kl_measurement(p, q, data, wide_grid, seed=7)
        assert est.value == pytest.approx(12.5, rel=0.10)

    def test_self_divergence_exactly_zero(self, toy_pair, toy_grid, toy_masked_data):
        p, _ = toy_pair
        _, _, _, data = toy_masked_data
        est = kl_measurement(p, p, data, toy_grid, seed=8)
        assert est.value == 0.0

    def test_measurement_noise_changes_little(self, toy_pair, toy_grid):
        p, q = toy_pair
        sampler = mask_sampler(dim=10, keep_prob=0.8, base_seed=4)
        draws = sample(p, 400, stream(22, "data-x"))
        values = []
        for sigma_z in (0.0, 0.5):
            data = MeasurementDataset.from_samples(sampler, draws, sigma_z=sigma_z, seed=22)
            values.append(kl_measurement(p, q, data, toy_grid, seed=9).value)
        assert abs(values[1] - values[0]) / values[0] < 0.10

    def test_rotation_invariance(self, toy_pair, toy_grid):
        p, q = toy_pair
        basis = RightBasis("dense", 10, seed=77)
        draws = sample(p, 200, stream(23, "data-x"))
        plain_sampler = mask_sampler(dim=10, keep_prob=0.6, base_seed=5)
        rot_sampler = mask_sampler(dim=10, keep_prob=0.6, base_seed=5, basis=basis)
        plain_data = MeasurementDataset.from_samples(plain_sampler, draws, seed=23)
        rot_draws = draws @ basis.matrix.T
        rot_data = MeasurementDataset.from_samples(rot_sampler, rot_draws, seed=23)
        plain = kl_measurement(p, q, plain_data, toy_grid, seed=10)
        rotated = kl_measurement(
            rotate(p, basis.matrix), rotate(q, basis.matrix), rot_data, toy_grid, seed=10
        )
        assert abs(plain.value - rotated.value) < 1e-8

    def test_stderr_scales_like_inverse_root_n(self, toy_pair, toy_grid):
        p, q = toy_pair
        sampler = mask_sampler(dim=10, keep_prob=0.6, base_seed=5)
        draws = sample(p, 4000, stream(24, "data-x"))
        stderrs = {}
        for n in (250, 1000, 4000):
            data = MeasurementDataset.from_samples(sampler, draws[:n], seed=24)
            stderrs[n] = kl_measurement(p, q, data, toy_grid, seed=11).stderr
        for small, big in ((250, 1000), (1000, 4000)):
            ratio = stderrs[small] / stderrs[big]
            assert 1.0 < ratio < 4.0  # within a factor 2 of sqrt(4) = 2

    def test_gaussian_shift_exact_at_any_n(self, gauss_pair, wide_grid):
        # the score gap of a Gaussian shift is constant, so weighting by the
        # data's own E[P] leaves only the quadrature error, at any N
        p, q = gauss_pair
        sampler = mask_sampler(dim=10, keep_prob=0.5, base_seed=8)
        draws = sample(p, 4000, stream(9, "data-x"))
        for n in (250, 4000):
            data = MeasurementDataset.from_samples(sampler, draws[:n], seed=9)
            est = kl_measurement(p, q, data, wide_grid, seed=5)
            assert abs(est.value - 12.5) <= 0.005

    def test_coordinate_no_row_observes_raises_span_violation(self, toy_pair, toy_grid):
        p, q = toy_pair
        sampler = mask_sampler(dim=10, keep_prob=np.r_[0.0, np.full(9, 0.9)])
        data = MeasurementDataset.from_samples(sampler, sample(p, 50, stream(12, "data-x")))
        with pytest.raises(SpanViolation, match=r"never observed in 50 measurements: \[0\]"):
            kl_measurement(p, q, data, toy_grid, seed=12)


def lifted_node_means(p, q, data, grid, seed):
    """kl_measurement's node means the literal way: lift, score, take back, weight."""
    basis = data.sampler.basis
    ep = estimate_projection_stats(data.support)
    factor = ep**-1.5 * ep * data.support
    means = []
    for j, sigma in enumerate(grid.nodes):
        eps = stream(seed, "sigma-noise", j).standard_normal(data.ybar.shape) * data.support
        pts = basis.forward(data.ybar + sigma * eps)
        gap = basis.inverse(score(p, pts, sigma) - score(q, pts, sigma)) * factor
        means.append(np.einsum("ni,ni->n", gap, gap).mean())
    return np.array(means)


class TestProjectedCoordinates:
    @pytest.mark.parametrize("basis_kind", ["identity", "dense", "hadamard"])
    def test_node_means_match_lifted_reference(self, basis_kind):
        dim = 16
        p, q = triangle_pair(dim)
        basis = {
            "identity": RightBasis("identity", dim),
            "dense": RightBasis("dense", dim, seed=3),
            "hadamard": RightBasis("hadamard", dim),
        }[basis_kind]
        sampler = mask_sampler(dim=dim, keep_prob=0.6, base_seed=11, basis=basis)
        draws = sample(p, 200, stream(41, "data-x"))
        data = MeasurementDataset.from_samples(sampler, draws, seed=41)
        grid = SigmaGrid(1e-2, 1e3, 16)
        est = kl_measurement(p, q, data, grid, seed=42)
        reference = lifted_node_means(p, q, data, grid, seed=42)
        if basis_kind == "identity":
            np.testing.assert_array_equal(est.node_means, reference)
        else:
            np.testing.assert_allclose(est.node_means, reference, rtol=1e-11, atol=0)


# At dim 256 the triangle pair's score temporaries fill a block at ROWS rows;
# N = 2 * ROWS + 37 makes the kernel walk two full blocks and a ragged one.
WIDE_DIM = 256
ROWS = estimators._BLOCK_BYTES // (8 * 3 * WIDE_DIM)
WIDE_N = 2 * ROWS + 37


def unblocked_series(p, q, grid, points, factor=None):
    """Node means and stderrs the literal way: one score call per prior on all rows."""
    means, stderrs = [], []
    for j, sigma in enumerate(grid.nodes):
        pts = points(j, sigma)
        gap = score(p, pts, sigma) - score(q, pts, sigma)
        if factor is not None:
            gap = gap * factor
        vals = np.einsum("ni,ni->n", gap, gap)
        means.append(vals.mean())
        stderrs.append(vals.std(ddof=1) / np.sqrt(len(vals)))
    return np.array(means), np.array(stderrs)


def noised(base, seed, support=True):
    """base + sigma * eps with eps from (seed, "sigma-noise", j), masked to support."""
    return lambda j, sigma: base + sigma * (
        stream(seed, "sigma-noise", j).standard_normal(base.shape) * support
    )


@pytest.fixture(scope="module")
def wide():
    p, q = triangle_pair(WIDE_DIM)
    assert 1 < ROWS < WIDE_N // 2
    return p, q, SigmaGrid(1e-2, 1e3, 5), sample(p, WIDE_N, stream(50, "data-x"))


class TestBlockedKernel:
    """The blocked kernel against an unblocked recompute, bit for bit."""

    def assert_same_series(self, est, reference):
        np.testing.assert_array_equal(est.node_means, reference[0])
        np.testing.assert_array_equal(est.node_stderrs, reference[1])

    def test_fixed_sample_image(self, wide):
        p, q, grid, draws = wide
        est = kl_image(p, q, grid, samples=draws, seed=51)
        self.assert_same_series(est, unblocked_series(p, q, grid, noised(draws, 51)))

    @pytest.mark.parametrize("basis_kind", ["identity", "hadamard"])
    def test_measurement(self, wide, basis_kind):
        p, q, grid, draws = wide
        basis = RightBasis(basis_kind, WIDE_DIM)
        sampler = mask_sampler(dim=WIDE_DIM, keep_prob=0.6, base_seed=13, basis=basis)
        data = MeasurementDataset.from_samples(sampler, draws, seed=52)
        est = kl_measurement(p, q, data, grid, seed=53)
        ep = estimate_projection_stats(data.support)
        factor = ep**-1.5 * ep * data.support
        to_basis = basis.matrix.T
        reference = unblocked_series(
            rotate(p, to_basis), rotate(q, to_basis), grid,
            noised(data.ybar, 53, data.support), factor,
        )
        self.assert_same_series(est, reference)

    def test_invertible(self, wide):
        p, q, grid, draws = wide
        sampler = mask_sampler(dim=WIDE_DIM, keep_prob=1.0, base_seed=14)
        data = MeasurementDataset.from_samples(sampler, draws, seed=54)
        est = kl_invertible(p, q, data, grid, seed=55)
        self.assert_same_series(est, unblocked_series(p, q, grid, noised(data.ybar, 55)))

    def test_scores_each_node_in_blocks(self, wide, monkeypatch):
        p, q, grid, draws = wide
        rows_seen = []

        def recording(gmm, x, sigma):
            rows_seen.append(len(x))
            return score(gmm, x, sigma)

        monkeypatch.setattr(estimators, "score", recording)
        kl_image(p, q, grid, samples=draws, seed=56)
        per_node = [ROWS, ROWS, ROWS, ROWS, 37, 37]  # p and q for each block
        assert rows_seen == per_node * len(grid)

    def test_fresh_draws_are_samples_of_the_noised_prior(self, wide):
        p, q, grid, _ = wide
        est = kl_image(p, q, grid, n_samples=WIDE_N, seed=57)

        def fresh(j, sigma):
            return sample(convolve(p, sigma), WIDE_N, stream(57, "node-x", j))

        self.assert_same_series(est, unblocked_series(p, q, grid, fresh))
        threaded = kl_image(p, q, grid, n_samples=WIDE_N, seed=57, workers=4)
        self.assert_same_series(threaded, (est.node_means, est.node_stderrs))
        assert threaded.value == est.value and threaded.stderr == est.stderr


def traced_peak(call) -> int:
    """Peak bytes traced while call() runs, above what was allocated before it."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestNodeMemory:
    """A node draws, noises and scores its points a block at a time, so its memory
    does not grow with N: 16 blocks' rows stay within a few blocks' bytes."""

    def test_peak_is_a_few_blocks_at_sixteen_blocks_of_rows(self):
        p, q = triangle_pair(WIDE_DIM)
        grid, count = SigmaGrid(1e-2, 1e3, 2), 16 * ROWS
        basis = RightBasis("hadamard", WIDE_DIM)
        sampler = mask_sampler(dim=WIDE_DIM, keep_prob=0.6, base_seed=15, basis=basis)
        data = MeasurementDataset.from_samples(
            sampler, sample(p, count, stream(58, "data-x")), seed=59
        )
        budget = 4 * estimators._BLOCK_BYTES
        assert traced_peak(lambda: kl_image(p, q, grid, n_samples=count, seed=60)) < budget
        assert traced_peak(lambda: kl_measurement(p, q, data, grid, seed=61)) < budget


def shifted(q, by=0.5):
    return GaussianMixture(q.weights, q.means + by, q.variances)


class TestSharedPass:
    """A tuple of qs is scored in one pass; each estimate is its one-q call's, bit for bit."""

    @staticmethod
    def estimate(kind, p, q, workers):
        grid = SigmaGrid(1e-2, 1e3, 8)
        if kind == "image-fresh":
            return kl_image(p, q, grid, n_samples=150, seed=70, workers=workers)
        draws = sample(p, 150, stream(71, "data-x"))
        if kind == "image-fixed":
            return kl_image(p, q, grid, samples=draws, seed=72, workers=workers)
        basis = RightBasis(kind.removeprefix("measurement-"), p.dim)
        sampler = mask_sampler(dim=p.dim, keep_prob=0.6, base_seed=9, basis=basis)
        data = MeasurementDataset.from_samples(sampler, draws, sigma_z=0.3, seed=73)
        return kl_measurement(p, q, data, grid, seed=74, workers=workers)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize(
        "kind", ["image-fresh", "image-fixed", "measurement-identity", "measurement-hadamard"]
    )
    def test_each_estimate_is_its_one_q_call(self, kind, workers):
        p, q = triangle_pair(16)
        qs = (q, shifted(q), p)
        shared = self.estimate(kind, p, qs, workers)
        assert isinstance(shared, tuple) and len(shared) == len(qs)
        for est, m in zip(shared, qs):
            one = self.estimate(kind, p, m, workers)
            assert isinstance(one, KlEstimate)
            assert (est.value, est.stderr, est.mode, est.n_samples) == (
                one.value, one.stderr, one.mode, one.n_samples
            )
            np.testing.assert_array_equal(est.node_means, one.node_means)
            np.testing.assert_array_equal(est.node_stderrs, one.node_stderrs)
        assert shared[2].value == 0.0

    def test_scores_p_once_per_block(self, wide, monkeypatch):
        p, q, grid, draws = wide
        other = shifted(q)
        names = {id(p): "p", id(q): "q", id(other): "other"}
        seen = []

        def recording(gmm, x, sigma):
            seen.append((names[id(gmm)], len(x)))
            return score(gmm, x, sigma)

        monkeypatch.setattr(estimators, "score", recording)
        kl_image(p, (q, other), grid, samples=draws, seed=56)
        per_node = [(name, rows) for rows in (ROWS, ROWS, 37) for name in ("p", "q", "other")]
        assert seen == per_node * len(grid)

    @pytest.mark.parametrize("kind", ["image-fresh", "image-fixed", "measurement-identity"])
    def test_draws_each_nodes_points_once(self, kind, monkeypatch):
        p, q = triangle_pair(16)
        draws = sample(p, 150, stream(71, "data-x"))
        sampler = mask_sampler(dim=16, keep_prob=0.6, base_seed=9)
        data = MeasurementDataset.from_samples(sampler, draws, seed=73)
        grid = SigmaGrid(1e-2, 1e3, 8)
        tags, sampled = [], []

        def recording_stream(seed, *key):
            tags.append(key[0])
            return stream(seed, *key)

        def recording_blocks(gmm, count, rng, rows):
            sampled.append(count)
            return sample_blocks(gmm, count, rng, rows)

        monkeypatch.setattr(estimators, "stream", recording_stream)
        monkeypatch.setattr(estimators, "sample_blocks", recording_blocks)
        qs = (q, shifted(q), shifted(q, -1.0))
        if kind == "image-fresh":
            kl_image(p, qs, grid, n_samples=150, seed=70)
            assert tags == ["node-x"] * len(grid) and sampled == [150] * len(grid)
        else:
            if kind == "image-fixed":
                kl_image(p, qs, grid, samples=draws, seed=72)
            else:
                kl_measurement(p, qs, data, grid, seed=74)
            assert tags == ["sigma-noise"] * len(grid) and sampled == []

    def test_a_q_of_another_dim_raises(self, toy_pair, toy_grid, toy_masked_data):
        p, q = toy_pair
        _, _, _, data = toy_masked_data
        q3, _ = gaussian_pair(dim=3)
        with pytest.raises(ValueError, match="dimension"):
            kl_image(p, (q, q3), toy_grid, n_samples=8)
        with pytest.raises(ValueError, match="dimension"):
            kl_image(p, (q3, q), toy_grid, samples=np.zeros((4, p.dim)))
        with pytest.raises(ValueError, match="dimension"):
            kl_measurement(p, (q, q3), data, toy_grid)


class TestKlInvertible:
    def test_identity_operator_matches_image_pathwise(self, toy_pair, toy_grid):
        p, q = toy_pair
        sampler = mask_sampler(dim=10, keep_prob=1.0, base_seed=6)
        draws = sample(p, 250, stream(25, "data-x"))
        data = MeasurementDataset.from_samples(sampler, draws, seed=25)
        img = kl_image(p, q, toy_grid, samples=draws, seed=13)
        inv = kl_invertible(p, q, data, toy_grid, seed=13)
        assert img.value == inv.value
        np.testing.assert_array_equal(img.node_means, inv.node_means)

    def test_dense_orthogonal_matches_image_within_error(self, toy_pair, toy_grid):
        p, q = toy_pair
        basis = RightBasis("dense", 10, seed=31)
        sampler = mask_sampler(dim=10, keep_prob=1.0, base_seed=6, basis=basis)
        draws = sample(p, 600, stream(26, "data-x"))
        data = MeasurementDataset.from_samples(sampler, draws, seed=26)
        img = kl_image(p, q, toy_grid, samples=draws, seed=14)
        inv = kl_invertible(p, q, data, toy_grid, seed=14)
        combined = np.hypot(img.stderr, inv.stderr)
        assert abs(img.value - inv.value) < 2 * combined

    def test_self_divergence_exactly_zero(self, toy_pair, toy_grid):
        p, _ = toy_pair
        sampler = mask_sampler(dim=10, keep_prob=1.0, base_seed=6)
        draws = sample(p, 50, stream(27, "data-x"))
        data = MeasurementDataset.from_samples(sampler, draws, seed=27)
        assert kl_invertible(p, p, data, toy_grid, seed=15).value == 0.0

    def test_rank_deficient_operators_rejected(self, toy_pair, toy_grid, toy_masked_data):
        p, q = toy_pair
        _, _, _, data = toy_masked_data
        with pytest.raises(ValueError, match="full-rank"):
            kl_invertible(p, q, data, toy_grid, seed=16)


class TestInvertibleIsMeasurement:
    """On full-rank data kl_invertible is kl_measurement bit for bit, as mode "invertible"."""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize(
        "basis",
        [RightBasis("identity", 16), RightBasis("hadamard", 16), RightBasis("dense", 16, seed=8)],
        ids=["identity", "hadamard", "dense"],
    )
    def test_same_bits_as_measurement(self, basis, workers):
        p, q = triangle_pair(16)
        sampler = OperatorSampler(
            kind="coordinate-mask", dim=16, basis=basis, base_seed=4, keep_prob=1.0
        )
        draws = sample(p, 150, stream(60, "data-x"))
        data = MeasurementDataset.from_samples(sampler, draws, sigma_z=0.7, seed=60, n_operators=7)
        grid = SigmaGrid(1e-2, 1e3, 12)
        inv = kl_invertible(p, q, data, grid, seed=61, workers=workers)
        meas = kl_measurement(p, q, data, grid, seed=61, workers=workers)
        assert inv.mode == "invertible" and meas.mode == "measurement"
        assert inv.value == meas.value and inv.stderr == meas.stderr
        np.testing.assert_array_equal(inv.node_means, meas.node_means)
        np.testing.assert_array_equal(inv.node_stderrs, meas.node_stderrs)
        assert inv.n_samples == meas.n_samples == 150


class TestMeasurementDataset:
    def test_round_trip_preserves_estimates(self, toy_pair, toy_grid, toy_masked_data, tmp_path):
        p, q = toy_pair
        _, _, _, data = toy_masked_data
        path = tmp_path / "measurements.json"
        data.save(path)
        loaded = MeasurementDataset.load(path)
        a = kl_measurement(p, q, data, toy_grid, seed=17)
        b = kl_measurement(p, q, loaded, toy_grid, seed=17)
        assert a.value == b.value

    def test_operator_reuse_pool(self, toy_pair):
        p, _ = toy_pair
        sampler = mask_sampler(dim=10, keep_prob=0.5, base_seed=7)
        draws = sample(p, 12, stream(28, "data-x"))
        data = MeasurementDataset.from_samples(sampler, draws, seed=28, n_operators=4)
        indices = set(data.op_index.tolist())
        assert indices == {0, 1, 2, 3}

    def test_operators_drawn_once_per_index(self, toy_pair, monkeypatch):
        p, _ = toy_pair
        sampler = mask_sampler(dim=10, keep_prob=0.5, base_seed=7)
        draws = sample(p, 12, stream(29, "data-x"))
        drawn = []

        def counting(s, index):
            drawn.append(index)
            return sample_operator(s, index)

        monkeypatch.setattr(estimators, "sample_operator", counting)
        data = MeasurementDataset.from_samples(sampler, draws, seed=29, n_operators=4)
        first = data.operators()
        second = data.operators()
        assert sorted(drawn) == [0, 1, 2, 3]
        for ops in (first, second):
            assert ops.shape == (len(data), 10)
            for index, row in zip(data.op_index.tolist(), ops):
                fresh = sample_operator(sampler, index)
                np.testing.assert_array_equal(row, np.where(fresh, 1.0, 0.0))

    def test_equality_is_identity(self, toy_pair):
        p, _ = toy_pair
        sampler = mask_sampler(dim=10, keep_prob=0.5, base_seed=7)
        draws = sample(p, 12, stream(31, "data-x"))
        data = MeasurementDataset.from_samples(sampler, draws, seed=31)
        twin = MeasurementDataset.from_samples(sampler, draws, seed=31)
        np.testing.assert_array_equal(data.ybar, twin.ybar)
        assert data == data
        assert (data == twin) is False
        assert data != twin

    def test_empty_rejected(self):
        sampler = mask_sampler(dim=4)
        with pytest.raises(ValueError, match="at least one"):
            MeasurementDataset(
                sampler=sampler,
                ybar=np.zeros((0, 4)),
                op_index=np.zeros(0, dtype=int),
                sigma_z=np.zeros(0),
            )

    @pytest.mark.parametrize("op_index", [np.zeros(3), np.zeros(2, dtype=int)],
                             ids=["float", "short"])
    def test_op_index_that_is_not_an_integer_per_row_rejected(self, op_index):
        with pytest.raises(ValueError, match="op_index must be 3 integers"):
            MeasurementDataset(mask_sampler(dim=4), np.zeros((3, 4)), op_index, np.zeros(3))



class TestFromSamplesOperatorDraws:
    def test_each_operator_index_drawn_once(self, toy_pair, monkeypatch):
        p, _ = toy_pair
        sampler = mask_sampler(dim=10, keep_prob=0.5, base_seed=7)
        draws = sample(p, 12, stream(30, "data-x"))
        drawn = []

        def counting(s, index):
            drawn.append(index)
            return sample_operator(s, index)

        monkeypatch.setattr(estimators, "sample_operator", counting)
        data = MeasurementDataset.from_samples(sampler, draws, seed=30, n_operators=4)
        assert sorted(drawn) == [0, 1, 2, 3]
        assert data.op_index.tolist() == [i % 4 for i in range(12)]

    def test_non_finite_point_rejected_after_one_draw_per_operator(self, toy_pair, monkeypatch):
        # the constructor checks its zero placeholder; the acquired ybar is
        # checked the same way, without drawing the operators again
        p, _ = toy_pair
        sampler = mask_sampler(dim=10, keep_prob=0.5, base_seed=7)
        draws = np.array(sample(p, 12, stream(30, "data-x")))
        draws[5] = np.nan
        drawn = []

        def counting(s, index):
            drawn.append(index)
            return sample_operator(s, index)

        monkeypatch.setattr(estimators, "sample_operator", counting)
        with pytest.raises(ValueError, match="ybar entries must be finite"):
            MeasurementDataset.from_samples(sampler, draws, seed=30, n_operators=4)
        assert sorted(drawn) == [0, 1, 2, 3]


class TestDatasetLoadValidation:
    """A malformed data file fails when it is loaded, not at first use."""

    @pytest.fixture
    def saved_doc(self, toy_masked_data, tmp_path):
        _, _, _, data = toy_masked_data
        path = tmp_path / "measurements.json"
        data.save(path)
        return path, json.loads(path.read_text())

    def test_valid_file_loads(self, saved_doc, toy_masked_data):
        path, _ = saved_doc
        _, _, _, data = toy_masked_data
        loaded = MeasurementDataset.load(path)
        np.testing.assert_array_equal(loaded.ybar, data.ybar)
        np.testing.assert_array_equal(loaded.op_index, data.op_index)
        np.testing.assert_array_equal(loaded.support, data.support)

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            pytest.param(lambda recs: recs[3]["ybar"].pop(), None, id="short-ybar-row"),
            pytest.param(lambda recs: [r["ybar"].pop() for r in recs], None, id="short-ybar"),
            pytest.param(lambda recs: recs[5].update(op_index=-1), None, id="negative-op-index"),
            pytest.param(
                lambda recs: recs[2].update(op_index=4.7), None, id="fractional-op-index"
            ),
            pytest.param(lambda recs: recs[7].update(sigma_z=-0.5), None, id="negative-sigma-z"),
            pytest.param(
                lambda recs: recs[7].update(sigma_z=float("inf")), None, id="infinite-sigma-z"
            ),
            pytest.param(
                lambda recs: recs[2]["ybar"].__setitem__(0, float("nan")), None, id="nan-ybar"
            ),
            pytest.param(lambda recs: recs.clear(), None, id="empty"),
            # JSON values numpy would coerce to numbers: true to 1, "0.5" to 0.5
            pytest.param(
                lambda recs: recs[4].update(op_index=True),
                "measurements[4].op_index must be an integer, got True",
                id="true-op-index",
            ),
            pytest.param(
                lambda recs: recs[7].update(sigma_z=True),
                "measurements[7].sigma_z must be a number, got True",
                id="true-sigma-z",
            ),
            pytest.param(
                lambda recs: recs[7].update(sigma_z="0.5"),
                "measurements[7].sigma_z must be a number, got '0.5'",
                id="string-sigma-z",
            ),
            pytest.param(
                lambda recs: recs[2]["ybar"].__setitem__(1, True),
                "measurements[2].ybar[1] must be a number, got True",
                id="true-ybar",
            ),
            pytest.param(
                lambda recs: recs[2].update(ybar=[str(v) for v in recs[2]["ybar"]]),
                "measurements[2].ybar[0] must be a number, got '",
                id="string-ybar",
            ),
        ],
    )
    def test_malformed_file_rejected(self, saved_doc, corrupt, message):
        path, doc = saved_doc
        corrupt(doc["measurements"])
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=message and re.escape(message)):
            MeasurementDataset.load(path)

    @pytest.mark.parametrize(
        "corrupt, field",
        [
            pytest.param(lambda s: s.update(base_seed=2.7), "base_seed", id="fractional-base-seed"),
            pytest.param(lambda s: s.update(base_seed=True), "base_seed", id="true-base-seed"),
            pytest.param(lambda s: s.update(dim=10.0), "dim", id="float-dim"),
            pytest.param(
                lambda s: s.update(basis={"kind": "dense-orthogonal", "seed": 1.9}),
                "seed",
                id="fractional-basis-seed",
            ),
            pytest.param(
                lambda s: s.update(kind="band-subsample", keep_prob=None, low_count=2.5,
                                   rand_count=3),
                "low_count",
                id="fractional-low-count",
            ),
            pytest.param(
                lambda s: s.update(kind="band-subsample", keep_prob=None, low_count=2,
                                   rand_count=3.0),
                "rand_count",
                id="float-rand-count",
            ),
        ],
    )
    def test_sampler_field_that_is_no_integer_rejected(self, saved_doc, corrupt, field):
        # a truncated 2.7 would draw base seed 2's operators and pass for them
        path, doc = saved_doc
        corrupt(doc["sampler"])
        doc["sampler"] = {key: value for key, value in doc["sampler"].items() if value is not None}
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            MeasurementDataset.load(path)


class TestBatchedAcquisition:
    """from_samples against a literal one-row-at-a-time acquisition.

    A batch and a single row go through different matrix-product kernels,
    so they agree exactly only where V = I makes every product exact.
    """

    @pytest.mark.parametrize(
        "basis, exact",
        [
            (RightBasis("identity", 16), True),
            (RightBasis("hadamard", 16), False),
            (RightBasis("dense", 16, seed=3), False),
        ],
        ids=["identity", "hadamard", "dense"],
    )
    def test_matches_per_row_reference(self, basis, exact):
        sampler = OperatorSampler(
            kind="coordinate-mask",
            dim=16,
            basis=basis,
            base_seed=12,
            keep_prob=0.5,
        )
        x = stream(31, "acq-x").standard_normal((40, 16))
        data = MeasurementDataset.from_samples(sampler, x, sigma_z=0.5, seed=31, n_operators=7)
        reference = np.zeros((40, 16))
        for i, row in enumerate(x):
            on = sample_operator(sampler, i % 7)
            reference[i] = np.where(on, basis.inverse(row), 0.0)
            noise = stream(31, "meas-z", i).standard_normal(int(on.sum()))
            reference[i, on] += noise * 0.5
            np.testing.assert_array_equal(data.support[i], on)
        assert np.all(data.sigma_z == 0.5)
        if exact:
            np.testing.assert_array_equal(data.ybar, reference)
        else:
            np.testing.assert_allclose(data.ybar, reference, rtol=0, atol=1e-12)


class TestKlEstimateRecord:
    def test_to_dict_round_trips_key_fields(self, toy_pair, toy_grid):
        p, q = toy_pair
        est = kl_image(p, q, toy_grid, n_samples=64, seed=18)
        doc = est.to_dict()
        assert doc["mode"] == "image"
        assert doc["value"] == est.value
        assert doc["grid"]["nodes"] == len(toy_grid)
        assert doc["rule"] == "trapezoid"
        assert isinstance(est, KlEstimate)


class TestOneRowInput:
    """One sample row gives a finite value with a zero (not NaN) standard error."""

    def test_kl_image_on_one_fixed_row(self, toy_pair, toy_grid):
        p, q = toy_pair
        row = sample(p, 1, stream(40, "one-row"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = kl_image(p, q, toy_grid, samples=row, seed=40)
        assert np.isfinite(est.value)
        assert est.stderr == 0.0
        assert est.n_samples == 1

    def test_kl_measurement_on_one_row_dataset(self, toy_pair, toy_grid):
        p, q = toy_pair
        row = sample(p, 1, stream(41, "one-row"))
        data = MeasurementDataset.from_samples(mask_sampler(keep_prob=1.0), row, seed=41)
        assert len(data) == 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = kl_measurement(p, q, data, toy_grid, seed=41)
        assert np.isfinite(est.value)
        assert est.stderr == 0.0
        assert est.n_samples == 1

    def test_one_masked_row_leaves_coordinates_unobserved(
        self, toy_pair, toy_grid, toy_masked_data
    ):
        p, q = toy_pair
        sampler, _, draws, _ = toy_masked_data
        data = MeasurementDataset.from_samples(sampler, draws[:1], seed=41)
        assert not data.support.all()
        with pytest.raises(SpanViolation, match="never observed in 1 measurements"):
            kl_measurement(p, q, data, toy_grid, seed=41)
