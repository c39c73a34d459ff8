"""Sigma grids, the weighted quadrature, and partial-integral curves."""

import numpy as np
import pytest

from scoreshift import SigmaGrid, cumulative_integral, integrate, series_csv


def gaussian_pair_series(grid, dmu_sq=25.0):
    """Analytic integrand of a unit-variance location shift: exact, no noise.

    Returns (means, stderrs), the arguments integrate takes after the grid.
    """
    return dmu_sq / (1 + grid.nodes**2) ** 2, np.zeros(len(grid))


class TestSigmaGrid:
    def test_log_midpoint(self):
        grid = SigmaGrid(0.01, 1.0, 3)
        np.testing.assert_allclose(grid.nodes, [0.01, 0.1, 1.0], rtol=1e-12)

    def test_log_uniform_ratios(self):
        grid = SigmaGrid(1e-2, 1e3, 6)
        ratios = grid.nodes[1:] / grid.nodes[:-1]
        np.testing.assert_allclose(ratios, 10.0, rtol=1e-12)

    def test_reference_range_endpoints(self):
        grid = SigmaGrid(0.01, 1.0, 100)
        assert (grid.nodes[0], grid.nodes[-1]) == (grid.sigma_min, grid.sigma_max) == (0.01, 1.0)
        assert len(grid) == grid.nodes.size == 100

    def test_spec_is_the_config_block(self):
        block = {"sigma_min": 0.01, "sigma_max": 1000, "nodes": 64}
        grid = SigmaGrid(block["sigma_min"], block["sigma_max"], block["nodes"])
        assert grid.to_dict() == block and type(grid.to_dict()["sigma_max"]) is float
        assert grid == SigmaGrid(0.01, 1000.0, 64) != SigmaGrid(0.01, 1000.0, 65)
        assert not grid.nodes.flags.writeable and grid.nodes is grid.nodes

    def test_bad_ordering_rejected(self):
        with pytest.raises(ValueError):
            SigmaGrid(1.0, 0.5, 4)
        with pytest.raises(ValueError):
            SigmaGrid(0.0, 1.0, 4)

    def test_too_few_nodes_rejected(self):
        with pytest.raises(ValueError, match="count must be >= 2, got 1"):
            SigmaGrid(0.1, 1.0, 1)

    def test_non_increasing_nodes_rejected(self):
        # equal endpoints would repeat one node
        with pytest.raises(ValueError, match="sigma_min < sigma_max"):
            SigmaGrid(0.1, 0.1, 3)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_nodes_rejected(self, bad):
        with pytest.raises(ValueError, match="sigma_max < inf"):
            SigmaGrid(0.01, bad, 4)
        with pytest.raises(ValueError, match="sigma_max < inf"):
            SigmaGrid(bad, 1.0, 4)


class TestIntegrate:
    def test_zero_series(self):
        grid = SigmaGrid(0.1, 10.0, 16)
        value, stderr = integrate(grid, np.zeros(16), np.zeros(16))
        assert value == 0.0 and stderr == 0.0

    def test_gaussian_pair_closed_form(self):
        # oracle: int_0^inf sigma/(1+sigma^2)^2 dsigma = 1/2 exactly
        grid = SigmaGrid(1e-2, 1e3, 256)
        value, _ = integrate(grid, *gaussian_pair_series(grid))
        assert value == pytest.approx(12.5, rel=0.005)

    def test_truncation_tail_is_negligible_at_default_cap(self):
        grid = SigmaGrid(1e-2, 1e3, 256)
        tail = 25.0 / (2 * (1 + grid.sigma_max**2))
        assert tail < 1.3e-5

    def test_refinement_changes_little_past_256_nodes(self):
        coarse, fine = SigmaGrid(1e-2, 1e3, 256), SigmaGrid(1e-2, 1e3, 512)
        v256, _ = integrate(coarse, *gaussian_pair_series(coarse))
        v512, _ = integrate(fine, *gaussian_pair_series(fine))
        assert abs(v512 - v256) / v256 < 0.002

    def test_stderr_combines_in_quadrature(self):
        grid = SigmaGrid(1.0, 4.0, 3)
        # trapezoid node weights on g = f * sigma: w = [0.5, 1.5, 1.0] * sigma
        _, stderr = integrate(grid, np.ones(3), [0.1, 0.2, 0.0])
        expected = np.sqrt((0.5 * 1.0 * 0.1) ** 2 + (1.5 * 2.0 * 0.2) ** 2)
        assert stderr == pytest.approx(expected, rel=1e-12)

    def test_length_mismatch(self):
        grid = SigmaGrid(0.1, 1.0, 4)
        with pytest.raises(ValueError, match="grid"):
            integrate(grid, np.zeros(3), np.zeros(3))
        with pytest.raises(ValueError, match="grid"):
            integrate(grid, np.zeros(4), np.zeros(3))
        with pytest.raises(ValueError, match="grid"):
            cumulative_integral(grid, np.zeros((4, 1)))

    def test_negative_means_rejected_by_series(self):
        grid = SigmaGrid(0.1, 1.0, 2)
        with pytest.raises(ValueError, match="nonnegative"):
            integrate(grid, [-1.0, 0.0], np.zeros(2))
        with pytest.raises(ValueError, match="nonnegative"):
            cumulative_integral(grid, [-1.0, 0.0])
        with pytest.raises(ValueError, match="nonnegative"):
            integrate(grid, np.zeros(2), [0.0, -1.0])


class TestCumulative:
    def test_zero_series_gives_zero_curve(self):
        grid = SigmaGrid(0.1, 1.0, 8)
        np.testing.assert_array_equal(
            cumulative_integral(grid, np.zeros(8)),
            np.zeros(8),
        )

    def test_single_bump_gives_step(self):
        grid = SigmaGrid(0.1, 10.0, 9)
        means = np.zeros(9)
        means[4] = 1.0
        curve = cumulative_integral(grid, means)
        assert np.all(curve[:4] == 0.0)
        assert curve[-1] == curve[6] > 0.0  # bump only touches adjacent intervals
        assert np.all(np.diff(curve) >= 0)

    def test_final_entry_equals_integrate(self):
        grid = SigmaGrid(1e-2, 1e3, 128)
        means, stderrs = gaussian_pair_series(grid)
        curve = cumulative_integral(grid, means)
        value, _ = integrate(grid, means, stderrs)
        assert abs(curve[-1] - value) < 1e-12
        assert curve[-1] == pytest.approx(12.5, rel=0.01)

    def test_nondecreasing_for_nonnegative_means(self):
        grid = SigmaGrid(0.05, 5.0, 32)
        means = np.abs(np.sin(np.arange(32)))
        curve = cumulative_integral(grid, means)
        assert np.all(np.diff(curve) >= 0)


class TestSeriesCsv:
    def test_header_and_roundtrip_precision(self):
        grid = SigmaGrid(0.1, 1.0, 4)
        means = np.array([1 / 3, 0.1, 2.0, 0.0])
        text = series_csv(grid, means, [0.01, 0.0, 0.5, 0.0])
        lines = text.strip().split("\n")
        assert lines[0] == "sigma,integrand_mean,integrand_stderr,cumulative_kl"
        assert len(lines) == 5
        parsed = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
        np.testing.assert_array_equal(parsed[:, 0], grid.nodes)
        np.testing.assert_array_equal(parsed[:, 1], means)
        np.testing.assert_array_equal(parsed[:, 2], [0.01, 0.0, 0.5, 0.0])
        np.testing.assert_array_equal(parsed[:, 3], cumulative_integral(grid, means))
