"""Operator samplers, projected transforms, noise placement, and E[P] stats."""

import json
import re

import numpy as np
import pytest

from scoreshift import (
    MeasurementDataset,
    OperatorSampler,
    RightBasis,
    SpanViolation,
    estimate_projection_stats,
    sample_operator,
    to_projected,
)
from scoreshift.rng import stream
from tests.conftest import count_qr, mask_sampler


def supports(sampler, count):
    """The (count, n) supports of operators 0..count-1, stacked."""
    return np.stack([sample_operator(sampler, i) for i in range(count)])


ALL_BASES = {
    "identity": RightBasis("identity", 16),
    "hadamard": RightBasis("hadamard", 16),
    "dense": RightBasis("dense", 16, seed=5),
}


class TestWalshHadamard:
    def test_self_inverse_and_orthonormal(self):
        basis = RightBasis("hadamard", 64)
        x = stream(0, "hadamard").standard_normal(64)
        np.testing.assert_allclose(basis.forward(basis.forward(x)), x, atol=1e-12)
        assert np.linalg.norm(basis.inverse(x)) == pytest.approx(np.linalg.norm(x), abs=1e-10)

    def test_first_basis_vector_maps_to_constant(self):
        e0 = np.zeros(16)
        e0[0] = 1.0
        np.testing.assert_allclose(
            RightBasis("hadamard", 16).inverse(e0), np.full(16, 0.25), atol=1e-14
        )

    def test_non_power_of_two_rejected(self):
        for dim in (0, 12):
            with pytest.raises(ValueError, match="power-of-two"):
                RightBasis("hadamard", dim)

    def test_batch_rows_transform_independently(self):
        basis = RightBasis("hadamard", 32)
        batch = stream(1, "hadamard-batch").standard_normal((5, 32))
        together = basis.inverse(batch)
        for i in range(5):
            np.testing.assert_allclose(together[i], basis.inverse(batch[i]), atol=1e-13)


class TestKroneckerWalshHadamard:
    """The Hadamard matrix against np.kron; every basis kind on any batch shape."""

    @pytest.mark.parametrize("n", [2**k for k in range(11)])
    def test_matches_kron_built_sylvester(self, n):
        h = np.ones((1, 1))
        while h.shape[0] < n:
            h = np.kron(np.array([[1.0, 1.0], [1.0, -1.0]]), h)
        v = RightBasis("hadamard", n).matrix
        np.testing.assert_allclose(v, h / np.sqrt(n), rtol=0, atol=1e-14)
        np.testing.assert_array_equal(v, v.T)

    def test_leading_axes_give_the_same_rows(self):
        cube = stream(2, "basis-axes").standard_normal((2, 3, 16))
        for basis in ALL_BASES.values():
            for apply in (basis.forward, basis.inverse):
                flat = apply(cube.reshape(6, 16))
                np.testing.assert_allclose(apply(cube).reshape(6, 16), flat, rtol=0, atol=1e-13)
                for i, row in enumerate(cube.reshape(6, 16)):
                    np.testing.assert_allclose(apply(row), flat[i], rtol=0, atol=1e-13)

    def test_read_only_input_left_unchanged(self):
        x = stream(3, "basis-ro").standard_normal((4, 16))
        x.setflags(write=False)
        before = x.copy()
        for basis in ALL_BASES.values():
            for y in (basis.forward(x), basis.inverse(x)):
                assert y is not x and y.flags.writeable
                np.testing.assert_array_equal(x, before)
            np.testing.assert_allclose(basis.inverse(basis.forward(x)), before, atol=1e-13)


class TestRightBasis:
    def test_identity_round_trip(self):
        b = RightBasis("identity", 8)
        x = np.arange(8.0)
        np.testing.assert_array_equal(b.forward(b.inverse(x)), x)

    def test_dense_round_trip_within_tolerance(self):
        b = RightBasis("dense", 12, seed=4)
        x = stream(2, "basis").standard_normal(12)
        np.testing.assert_allclose(b.forward(b.inverse(x)), x, atol=1e-10)
        assert np.linalg.norm(b.inverse(x)) == pytest.approx(np.linalg.norm(x), abs=1e-10)

    def test_dense_is_deterministic_in_seed(self):
        # a basis is its spec: equal specs are equal bases with equal matrices
        a = RightBasis("dense", 6, seed=9)
        b = RightBasis(kind="dense", dim=6, seed=9)
        assert a == b and hash(a) == hash(b)
        np.testing.assert_array_equal(a.matrix, b.matrix)
        other = RightBasis("dense", 6, seed=10)
        assert other != a and not np.array_equal(other.matrix, a.matrix)

    def test_hadamard_requires_power_of_two(self):
        with pytest.raises(ValueError):
            RightBasis("hadamard", 10)

    @pytest.mark.parametrize("kind", ALL_BASES)
    def test_matrix_is_orthogonal(self, kind):
        v = ALL_BASES[kind].matrix
        np.testing.assert_allclose(v @ v.T, np.eye(16), rtol=0, atol=1e-12)
        assert not v.flags.writeable

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown basis kind"):
            RightBasis(kind="fourier", dim=4)

    @pytest.mark.parametrize("kind", ["identity", "hadamard"])
    def test_seed_for_a_seedless_kind_rejected(self, kind):
        with pytest.raises(ValueError, match="takes no seed"):
            RightBasis(kind=kind, dim=4, seed=3)

    def test_matrix_built_on_first_use_and_kept(self, monkeypatch):
        calls = count_qr(monkeypatch)
        basis = RightBasis("dense", 8, seed=1)
        assert calls == []
        assert basis.matrix is basis.matrix
        assert len(calls) == 1


class TestSampleOperator:
    def test_deterministic_in_seed_and_index(self):
        sampler = mask_sampler(dim=20, keep_prob=0.5, base_seed=3)
        a = sample_operator(sampler, 7)
        b = sample_operator(sampler, 7)
        np.testing.assert_array_equal(a, b)
        c = sample_operator(sampler, 8)
        assert not np.array_equal(a, c)

    def test_support_is_a_boolean_vector(self):
        sampler = mask_sampler(dim=20, keep_prob=0.5, base_seed=3)
        support = sample_operator(sampler, 7)
        assert support.shape == (20,) and support.dtype == bool

    def test_vector_keep_prob_is_compared_coordinatewise(self):
        keep = np.linspace(0.0, 1.0, 20)
        sampler = mask_sampler(dim=20, keep_prob=keep, base_seed=3)
        constant = mask_sampler(dim=20, keep_prob=np.full(20, 0.5), base_seed=3)
        scalar = mask_sampler(dim=20, keep_prob=0.5, base_seed=3)
        for index in range(5):
            draw = stream(3, "operator", index).random(20)
            np.testing.assert_array_equal(sample_operator(sampler, index), draw < keep)
            np.testing.assert_array_equal(sample_operator(constant, index),
                                          sample_operator(scalar, index))

    def test_keep_prob_of_another_shape_raises(self):
        with pytest.raises(ValueError, match="must have length dim"):
            mask_sampler(dim=4, keep_prob=np.full((1, 4), 0.5))

    def test_full_keep_gives_identity_projection(self):
        sampler = mask_sampler(dim=12, keep_prob=1.0)
        np.testing.assert_array_equal(sample_operator(sampler, 0), np.ones(12, dtype=bool))

    def test_patch_masks_keep_whole_patches(self):
        sampler = OperatorSampler(
            kind="patch-inpainting",
            dim=64,
            basis=RightBasis("identity", 64),
            base_seed=11,
            keep_prob=0.5,
            patch_edge=4,
        )
        img = sample_operator(sampler, 3).reshape(8, 8)
        for r in range(0, 8, 4):
            for c in range(0, 8, 4):
                block = img[r : r + 4, c : c + 4]
                assert block.min() == block.max()

    def test_patch_keep_rate_concentrates(self):
        sampler = OperatorSampler(
            kind="patch-inpainting",
            dim=64,
            basis=RightBasis("identity", 64),
            base_seed=11,
            keep_prob=0.5,
            patch_edge=4,
        )
        ep = estimate_projection_stats(supports(sampler, 10**4))
        assert np.max(np.abs(ep - 0.5)) < 0.02

    def test_patch_edge_must_divide_image_edge(self):
        with pytest.raises(ValueError, match="divide"):
            OperatorSampler(
                kind="patch-inpainting",
                dim=64,
                basis=RightBasis("identity", 64),
                keep_prob=0.5,
                patch_edge=3,
            )

    @pytest.mark.parametrize("kind", ["coordinate-mask", "patch-inpainting"])
    def test_mask_kind_without_keep_prob_rejected(self, kind):
        with pytest.raises(ValueError, match=f"{kind} needs keep_prob"):
            OperatorSampler(kind=kind, dim=16, basis=RightBasis("identity", 16), patch_edge=2)

    @pytest.mark.parametrize(
        "kind, keep",
        [
            ("coordinate-mask", float("nan")),
            ("coordinate-mask", np.array([0.5, np.nan, 0.5, 0.5])),
            ("patch-inpainting", float("nan")),
        ],
        ids=["mask-scalar", "mask-vector", "patch"],
    )
    def test_nan_keep_prob_rejected(self, kind, keep):
        with pytest.raises(ValueError, match="keep_prob entries must lie in"):
            OperatorSampler(
                kind=kind, dim=4, basis=RightBasis("identity", 4), keep_prob=keep, patch_edge=2
            )

    @pytest.mark.parametrize(
        "kind, stray",
        [
            ("band-subsample", {"keep_prob": 0.5}),
            ("band-subsample", {"patch_edge": 2}),
            ("coordinate-mask", {"patch_edge": 2}),
            ("coordinate-mask", {"low_count": 1}),
            ("coordinate-mask", {"rand_count": 1}),
            ("patch-inpainting", {"low_count": 1, "rand_count": 1}),
        ],
        ids=["band-keep_prob", "band-patch_edge", "mask-patch_edge", "mask-low_count",
             "mask-rand_count", "patch-counts"],
    )
    def test_field_the_kind_never_reads_rejected(self, kind, stray):
        # without the stray field each of these samplers is valid
        valid = {
            "band-subsample": {"low_count": 2, "rand_count": 2},
            "coordinate-mask": {"keep_prob": 0.5},
            "patch-inpainting": {"keep_prob": 0.5, "patch_edge": 2},
        }[kind]
        OperatorSampler(kind=kind, dim=16, basis=RightBasis("identity", 16), **valid)
        with pytest.raises(ValueError, match=f"{kind} sampler does not read {', '.join(stray)}"):
            OperatorSampler(kind=kind, dim=16, basis=RightBasis("identity", 16), **valid, **stray)

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"kind": "blur"}, "unknown sampler kind 'blur'"),
            ({"basis": RightBasis("identity", 8)}, "basis dim does not match sampler dim"),
            ({"kind": "patch-inpainting", "keep_prob": np.full(16, 0.5), "patch_edge": 2},
             "patch-inpainting takes a scalar keep_prob"),
            ({"kind": "patch-inpainting", "dim": 8, "basis": RightBasis("identity", 8),
              "patch_edge": 2}, "patch-inpainting needs a square image (dim = edge^2)"),
            ({"kind": "band-subsample", "keep_prob": None}, "band-subsample needs"),
            ({"kind": "band-subsample", "keep_prob": None, "low_count": 10, "rand_count": 7},
             "band-subsample needs"),
            ({"kind": "band-subsample", "keep_prob": None, "low_count": -1, "rand_count": 2},
             "band-subsample needs"),
        ],
        ids=["unknown-kind", "basis-dim", "patch-vector-keep", "patch-non-square",
             "band-no-counts", "band-over-dim", "band-negative"],
    )
    def test_sampler_it_cannot_draw_from_rejected(self, fields, message):
        valid = {"kind": "coordinate-mask", "dim": 16, "basis": RightBasis("identity", 16),
                 "keep_prob": 0.5}
        with pytest.raises(ValueError, match=re.escape(message)):
            OperatorSampler(**{**valid, **fields})

    def test_band_subsample_exact_counts(self):
        sampler = OperatorSampler(
            kind="band-subsample",
            dim=320,
            basis=RightBasis("identity", 320),
            base_seed=2,
            low_count=30,
            rand_count=50,
        )
        for idx in range(5):
            support = sample_operator(sampler, idx)
            assert int(support.sum()) == 80
            assert support[:30].all()

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            sample_operator(mask_sampler(), -1)


class TestToProjected:
    def test_identity_operator_passthrough(self):
        sampler = mask_sampler(dim=6, keep_prob=1.0)
        x = np.arange(6.0)
        np.testing.assert_array_equal(
            to_projected(sampler.basis, sample_operator(sampler, 0)[None], x[None])[0], x
        )

    def test_zero_signal_gives_zero(self):
        sampler = mask_sampler(dim=6, keep_prob=0.5)
        np.testing.assert_array_equal(
            to_projected(sampler.basis, sample_operator(sampler, 1)[None], np.zeros((1, 6)))[0],
            np.zeros(6),
        )

    def test_hand_evaluated_mask(self):
        support = np.array([True, False, True, False])
        x = np.array([[1.0, 2.0, 3.0, 4.0]])
        ybar = to_projected(RightBasis("identity", 4), support[None], x)[0]
        np.testing.assert_array_equal(ybar, [1.0, 0.0, 3.0, 0.0])

    def test_measurement_noise_only_on_support(self):
        support = np.array([True, False, True, False])
        basis = RightBasis("identity", 4)
        ybar = to_projected(basis, support[None], np.zeros((1, 4)), 0.3, seed=3)[0]
        assert ybar[1] == 0.0 and ybar[3] == 0.0
        assert ybar[0] != 0.0 and ybar[2] != 0.0

    def test_noise_std_is_sigma_z(self):
        # row i's noise is sigma_z times the draws of the stream (seed, "meas-z", i)
        support = supports(mask_sampler(dim=6, keep_prob=0.5, base_seed=2), 5)
        basis = RightBasis("identity", 6)
        ybar = to_projected(basis, support, np.zeros((5, 6)), 0.7, seed=9)
        for i, (row, on) in enumerate(zip(ybar, support)):
            noise = stream(9, "meas-z", i).standard_normal(int(on.sum())) * 0.7
            np.testing.assert_array_equal(row[on], noise)
            assert np.all(row[~on] == 0.0)
        np.testing.assert_array_equal(
            to_projected(basis, support, np.zeros((5, 6)), 0.0, seed=9), np.zeros((5, 6))
        )

    def test_dimension_mismatch(self):
        sampler = mask_sampler(dim=6)
        with pytest.raises(ValueError, match="shape"):
            to_projected(sampler.basis, sample_operator(sampler, 0), np.zeros(5))

    def test_negative_sigma_z_rejected(self):
        with pytest.raises(ValueError, match="sigma_z must be >= 0"):
            to_projected(RightBasis("identity", 6), np.ones((2, 6), bool), np.zeros((2, 6)), -0.1)

    @pytest.mark.parametrize(
        "support_shape, x_shape", [((6,), (6,)), ((6,), (2, 6)), ((3, 6), (2, 6))]
    )
    def test_points_and_supports_must_be_matching_batches(self, support_shape, x_shape):
        support = np.ones(support_shape, dtype=bool)
        with pytest.raises(ValueError, match=r"shape \(N, 6\)"):
            to_projected(RightBasis("identity", 6), support, np.zeros(x_shape))


class TestProjectionIdempotence:
    def test_masking_twice_equals_once(self):
        support = sample_operator(mask_sampler(dim=16, keep_prob=0.4), 5)
        v = stream(10, "idem").standard_normal(16)
        once = support * v
        np.testing.assert_array_equal(support * once, once)


class TestProjectionStats:
    def test_full_keep_gives_identity_weights(self):
        ep = estimate_projection_stats(supports(mask_sampler(dim=8, keep_prob=1.0), 128))
        np.testing.assert_array_equal(ep, np.ones(8))
        assert not ep.flags.writeable

    def test_bernoulli_quarter_keeps_give_weight_eight(self):
        ep = estimate_projection_stats(supports(mask_sampler(dim=10, keep_prob=0.25), 10**4))
        np.testing.assert_allclose(ep**-1.5, 8.0, rtol=0.05)

    def test_band_low_block_is_deterministic(self):
        sampler = OperatorSampler(
            kind="band-subsample",
            dim=40,
            basis=RightBasis("identity", 40),
            base_seed=6,
            low_count=8,
            rand_count=8,
        )
        ep = estimate_projection_stats(supports(sampler, 256))
        np.testing.assert_array_equal(ep[:8], np.ones(8))

    def test_span_violation_when_coordinate_never_observed(self):
        keep = np.array([0.0, 0.9, 0.9, 0.9])
        sampler = mask_sampler(dim=4, keep_prob=keep)
        with pytest.raises(SpanViolation, match="never observed"):
            estimate_projection_stats(supports(sampler, 200))

    def test_no_rows_observe_no_coordinate(self):
        with pytest.raises(SpanViolation, match=r"in 0 measurements: \[0, 1, 2, 3\]$"):
            estimate_projection_stats(np.zeros((0, 4), dtype=bool))


class TestSamplerSerialization:
    def test_round_trip_preserves_fingerprint(self):
        # a sampler's to_dict reads back as an equal sampler; a basis is its spec
        for sampler in (
            mask_sampler(dim=8, keep_prob=0.3, base_seed=9),
            mask_sampler(dim=8, keep_prob=0.3, basis=RightBasis("dense", 8, seed=2)),
            OperatorSampler(
                kind="band-subsample",
                dim=16,
                basis=RightBasis("hadamard", 16),
                base_seed=4,
                low_count=4,
                rand_count=4,
            ),
        ):
            clone = OperatorSampler.from_dict(sampler.to_dict())
            assert clone.to_dict() == sampler.to_dict()
            assert clone.basis == sampler.basis
            np.testing.assert_array_equal(clone.basis.matrix, sampler.basis.matrix)
            np.testing.assert_array_equal(sample_operator(sampler, 3), sample_operator(clone, 3))

    @pytest.mark.parametrize(
        "keep", [0.3, [0.5, 0.25, 1.0, 0.0, 0.3, 0.3, 0.7, 0.9]], ids=["scalar", "vector"]
    )
    def test_sampler_is_a_value(self, keep):
        sampler = mask_sampler(dim=8, keep_prob=keep, basis=RightBasis("dense", 8, seed=2))
        clone = OperatorSampler.from_dict(json.loads(json.dumps(sampler.to_dict())))
        assert clone == sampler and hash(clone) == hash(sampler)
        as_array = np.array(keep)
        assert mask_sampler(dim=8, keep_prob=as_array) == mask_sampler(dim=8, keep_prob=keep)
        as_array.flat[-1] = np.nextafter(as_array.flat[-1], 0.0)  # one entry, one ulp down
        assert mask_sampler(dim=8, keep_prob=as_array) != mask_sampler(dim=8, keep_prob=keep)

    @pytest.mark.parametrize(
        "keep, message",
        [
            (True, "keep_prob entries must be numbers, got True"),
            ([True] + [0.5] * 7, "keep_prob entries must be numbers, got True"),
            (np.ones(8, dtype=bool), "keep_prob entries must be numbers, got True"),
            ("0.5", "keep_prob entries must be numbers, got '0.5'"),
            (10**400, "keep_prob entries must lie in [0, 1]"),
        ],
        ids=["true", "true-entry", "bool-array", "string", "huge-integer"],
    )
    def test_keep_prob_that_is_no_probability_rejected(self, keep, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            mask_sampler(dim=8, keep_prob=keep)
        doc = {"kind": "coordinate-mask", "dim": 8, "keep_prob": keep}
        with pytest.raises(ValueError, match=re.escape(message)):
            OperatorSampler.from_dict(doc)

    @pytest.mark.parametrize(
        "sampler",
        [
            OperatorSampler("coordinate-mask", np.int64(4), RightBasis("identity", np.int64(4)),
                            base_seed=np.uint32(3), keep_prob=0.5),
            OperatorSampler("patch-inpainting", 16, RightBasis("dense", 16, seed=np.int32(2)),
                            keep_prob=0.5, patch_edge=np.int64(2)),
            OperatorSampler("band-subsample", 8, RightBasis("hadamard", 8),
                            low_count=np.int16(2), rand_count=np.int64(3)),
        ],
        ids=["mask", "patch", "band"],
    )
    def test_numpy_integers_are_written_as_ints(self, sampler, tmp_path):
        doc = json.loads(json.dumps(sampler.to_dict()))
        assert OperatorSampler.from_dict(doc) == sampler
        assert all(type(value) is int for value in (sampler.dim, sampler.basis.dim,
                                                    sampler.base_seed, sampler.basis.seed))
        data = MeasurementDataset(sampler, np.zeros((1, sampler.dim)), [0], [0.0])
        data.save(tmp_path / "data.json")
        assert MeasurementDataset.load(tmp_path / "data.json").sampler == sampler

    def test_dense_basis_written_as_its_config_kind(self):
        sampler = mask_sampler(dim=8, keep_prob=0.3, basis=RightBasis("dense", 8, seed=2))
        doc = sampler.to_dict()
        assert doc["basis"] == {"kind": "dense-orthogonal", "seed": 2}
        older = {**doc, "basis": {"kind": "dense", "seed": 2}}
        assert OperatorSampler.from_dict(older) == OperatorSampler.from_dict(doc) == sampler

    @pytest.mark.parametrize(
        "extra, name",
        [
            ({"singular_value": 2.0}, "singular_value"),
            ({"basis": {"kind": "identity", "dim": 8}}, "basis.dim"),
        ],
        ids=["sampler", "basis"],
    )
    def test_unknown_key_rejected(self, extra, name):
        doc = {**mask_sampler(dim=8, keep_prob=0.3).to_dict(), **extra}
        with pytest.raises(ValueError, match=rf"unknown sampler key\(s\): {name}"):
            OperatorSampler.from_dict(doc)
