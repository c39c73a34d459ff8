"""The three divergence estimators against closed-form and brute-force oracles."""

import json
import warnings

import numpy as np
import pytest

from scoreshift import (
    MeasurementDataset,
    OperatorSampler,
    convolve,
    dense_orthogonal_basis,
    estimate_projection_stats,
    exact_kl_oracle,
    hadamard_basis,
    identity_basis,
    integrate,
    kl_image,
    kl_invertible,
    kl_measurement,
    make_log_grid,
    rotate,
    sample,
)
from scoreshift import estimators
from scoreshift.estimators import KlEstimate
from scoreshift.measurements import BasisMismatch, sample_operator
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
        assert np.all(est.series.means == 0.0)

    def test_gaussian_closed_form(self, gauss_pair, wide_grid):
        p, q = gauss_pair
        est = kl_image(p, q, wide_grid, n_samples=1024, seed=1)
        assert est.value == pytest.approx(12.5, rel=0.05)

    def test_toy_matches_truncated_oracle(self, toy_pair):
        p, q = toy_pair
        grid = make_log_grid(0.01, 1.0, 100)
        est = kl_image(p, q, grid, n_samples=10**4, seed=2, rule="left-riemann")
        combined = np.hypot(est.stderr, TOY_TRUNCATED_REF_STDERR)
        assert abs(est.value - TOY_TRUNCATED_REF) < 3 * combined

    def test_value_is_quadrature_of_series(self, toy_pair, toy_grid):
        p, q = toy_pair
        est = kl_image(p, q, toy_grid, n_samples=256, seed=3)
        value, stderr = integrate(est.grid, est.series, est.rule)
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

    def test_workers_do_not_change_values(self, toy_pair, toy_grid):
        p, q = toy_pair
        a = kl_image(p, q, toy_grid, n_samples=128, seed=4, workers=1)
        b = kl_image(p, q, toy_grid, n_samples=128, seed=4, workers=4)
        assert a.value == b.value
        np.testing.assert_array_equal(a.series.means, b.series.means)


class TestKlMeasurement:
    def test_full_observation_reduces_to_image_domain(self, toy_pair, toy_grid):
        p, q = toy_pair
        sampler = mask_sampler(dim=10, keep_prob=1.0, base_seed=2)
        stats = estimate_projection_stats(sampler, 128)
        draws = sample(p, 300, stream(20, "data-x"))
        data = MeasurementDataset.from_samples(sampler, draws, seed=20)
        img = kl_image(p, q, toy_grid, samples=draws, seed=6)
        meas = kl_measurement(p, q, data, stats, toy_grid, seed=6)
        assert abs(img.value - meas.value) < 1e-10
        np.testing.assert_allclose(img.series.means, meas.series.means, atol=1e-12)

    def test_gaussian_closed_form_under_masks(self, gauss_pair, wide_grid):
        p, q = gauss_pair
        sampler = mask_sampler(dim=10, keep_prob=0.5, base_seed=3)
        stats = estimate_projection_stats(sampler, 4096)
        draws = sample(p, 2000, stream(21, "data-x"))
        data = MeasurementDataset.from_samples(sampler, draws, seed=21)
        est = kl_measurement(p, q, data, stats, wide_grid, seed=7)
        assert est.value == pytest.approx(12.5, rel=0.10)

    def test_self_divergence_exactly_zero(self, toy_pair, toy_grid, toy_masked_data):
        p, _ = toy_pair
        _, stats, _, data = toy_masked_data
        est = kl_measurement(p, p, data, stats, toy_grid, seed=8)
        assert est.value == 0.0

    def test_measurement_noise_changes_little(self, toy_pair, toy_grid):
        p, q = toy_pair
        sampler = mask_sampler(dim=10, keep_prob=0.8, base_seed=4)
        stats = estimate_projection_stats(sampler, 2048)
        draws = sample(p, 400, stream(22, "data-x"))
        values = []
        for sigma_z in (0.0, 0.5):
            data = MeasurementDataset.from_samples(sampler, draws, sigma_z=sigma_z, seed=22)
            values.append(kl_measurement(p, q, data, stats, toy_grid, seed=9).value)
        assert abs(values[1] - values[0]) / values[0] < 0.10

    def test_rotation_invariance(self, toy_pair, toy_grid):
        p, q = toy_pair
        basis = dense_orthogonal_basis(10, seed=77)
        draws = sample(p, 200, stream(23, "data-x"))
        plain_sampler = mask_sampler(dim=10, keep_prob=0.6, base_seed=5)
        rot_sampler = mask_sampler(dim=10, keep_prob=0.6, base_seed=5, basis=basis)
        plain_stats = estimate_projection_stats(plain_sampler, 1024)
        rot_stats = estimate_projection_stats(rot_sampler, 1024)
        plain_data = MeasurementDataset.from_samples(plain_sampler, draws, seed=23)
        rot_draws = draws @ basis.matrix.T
        rot_data = MeasurementDataset.from_samples(rot_sampler, rot_draws, seed=23)
        plain = kl_measurement(p, q, plain_data, plain_stats, toy_grid, seed=10)
        rotated = kl_measurement(
            rotate(p, basis.matrix), rotate(q, basis.matrix), rot_data, rot_stats,
            toy_grid, seed=10,
        )
        assert abs(plain.value - rotated.value) < 1e-8

    def test_stderr_scales_like_inverse_root_n(self, toy_pair, toy_grid):
        p, q = toy_pair
        sampler = mask_sampler(dim=10, keep_prob=0.6, base_seed=5)
        stats = estimate_projection_stats(sampler, 2048)
        draws = sample(p, 4000, stream(24, "data-x"))
        stderrs = {}
        for n in (250, 1000, 4000):
            data = MeasurementDataset.from_samples(sampler, draws[:n], seed=24)
            stderrs[n] = kl_measurement(p, q, data, stats, toy_grid, seed=11).stderr
        for small, big in ((250, 1000), (1000, 4000)):
            ratio = stderrs[small] / stderrs[big]
            assert 1.0 < ratio < 4.0  # within a factor 2 of sqrt(4) = 2

    def test_gaussian_error_shrinks_with_more_measurements(self, gauss_pair, wide_grid):
        p, q = gauss_pair
        sampler = mask_sampler(dim=10, keep_prob=0.5, base_seed=8)
        stats = estimate_projection_stats(sampler, 4096)
        draws = sample(p, 4000, stream(9, "data-x"))
        errs = {}
        for n in (250, 4000):
            data = MeasurementDataset.from_samples(sampler, draws[:n], seed=9)
            est = kl_measurement(p, q, data, stats, wide_grid, seed=5)
            errs[n] = abs(est.value - 12.5)
        assert errs[4000] < errs[250]

    def test_stats_from_other_sampler_rejected(self, toy_pair, toy_grid, toy_masked_data):
        p, q = toy_pair
        _, _, _, data = toy_masked_data
        other = mask_sampler(dim=10, keep_prob=0.3, base_seed=99)
        other_stats = estimate_projection_stats(other, 256)
        with pytest.raises(BasisMismatch):
            kl_measurement(p, q, data, other_stats, toy_grid, seed=12)


class TestKlInvertible:
    def test_identity_operator_matches_image_pathwise(self, toy_pair, toy_grid):
        p, q = toy_pair
        sampler = mask_sampler(dim=10, keep_prob=1.0, base_seed=6)
        draws = sample(p, 250, stream(25, "data-x"))
        data = MeasurementDataset.from_samples(sampler, draws, seed=25)
        img = kl_image(p, q, toy_grid, samples=draws, seed=13)
        inv = kl_invertible(p, q, data, toy_grid, seed=13)
        assert img.value == inv.value
        np.testing.assert_array_equal(img.series.means, inv.series.means)

    def test_dense_orthogonal_matches_image_within_error(self, toy_pair, toy_grid):
        p, q = toy_pair
        basis = dense_orthogonal_basis(10, seed=31)
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


class TestMeasurementDataset:
    def test_round_trip_preserves_estimates(self, toy_pair, toy_grid, toy_masked_data, tmp_path):
        p, q = toy_pair
        _, stats, _, data = toy_masked_data
        path = tmp_path / "measurements.json"
        data.save(path)
        loaded = MeasurementDataset.load(path)
        assert loaded.provenance == "external-file"
        a = kl_measurement(p, q, data, stats, toy_grid, seed=17)
        b = kl_measurement(p, q, loaded, stats, toy_grid, seed=17)
        assert a.value == b.value

    def test_from_samples_records_provenance(self, toy_masked_data):
        _, _, _, data = toy_masked_data
        assert data.provenance == "from-p-samples"

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
            assert len(ops) == len(data)
            for index, op in zip(data.op_index.tolist(), ops):
                fresh = sample_operator(sampler, index)
                assert op.operator_id == fresh.operator_id
                np.testing.assert_array_equal(op.singular_values, fresh.singular_values)

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
        "corrupt",
        [
            pytest.param(lambda recs: recs[3]["ybar"].pop(), id="short-ybar-row"),
            pytest.param(lambda recs: [r["ybar"].pop() for r in recs], id="short-ybar"),
            pytest.param(lambda recs: recs[5].update(op_index=-1), id="negative-op-index"),
            pytest.param(lambda recs: recs[7].update(sigma_z=-0.5), id="negative-sigma-z"),
            pytest.param(lambda recs: recs.clear(), id="empty"),
        ],
    )
    def test_malformed_file_rejected(self, saved_doc, corrupt):
        path, doc = saved_doc
        corrupt(doc["measurements"])
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError):
            MeasurementDataset.load(path)


class TestBatchedAcquisition:
    """from_samples against a literal one-row-at-a-time acquisition."""

    @pytest.mark.parametrize(
        "basis, exact",
        [
            (identity_basis(16), True),
            (hadamard_basis(16), True),
            (dense_orthogonal_basis(16, seed=3), False),
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
            singular_value=2.0,
        )
        x = stream(31, "acq-x").standard_normal((40, 16))
        data = MeasurementDataset.from_samples(sampler, x, sigma_z=0.5, seed=31, n_operators=7)
        reference = np.zeros((40, 16))
        for i, row in enumerate(x):
            op = sample_operator(sampler, i % 7)
            on = op.support
            reference[i] = np.where(on, basis.inverse(row), 0.0)
            noise = stream(31, "meas-z", i).standard_normal(int(on.sum()))
            reference[i, on] += noise * (0.5 / op.singular_values[on])
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

    def test_kl_measurement_on_one_row_dataset(self, toy_pair, toy_grid, toy_masked_data):
        p, q = toy_pair
        sampler, stats, draws, _ = toy_masked_data
        data = MeasurementDataset.from_samples(sampler, draws[:1], seed=41)
        assert len(data) == 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = kl_measurement(p, q, data, stats, toy_grid, seed=41)
        assert np.isfinite(est.value)
        assert est.stderr == 0.0
        assert est.n_samples == 1
