"""Experiment runner: projection stats shared across sweep runs."""

import json

import pytest

from scoreshift import estimate_projection_stats, experiments
from scoreshift.priors import triangle_pair


def small_config():
    p, q = triangle_pair(dim=4)
    return {
        "schema_version": 1,
        "seed": 3,
        "mixtures": {"ind": p.to_dict(), "ood": q.to_dict()},
        "grid": {"sigma_min": 0.1, "sigma_max": 10.0, "nodes": 4},
        "estimators": ["image", "measurement"],
        "n_samples": 16,
        "measurement": {
            "sampler": {"kind": "coordinate-mask", "dim": 4, "keep_prob": 0.6, "base_seed": 2},
            "n_measurements": 16,
            "stats_draws": 64,
        },
    }


def with_value(config, axis, value):
    variant = json.loads(json.dumps(config))
    if axis == "keep_prob":
        variant["measurement"]["sampler"]["keep_prob"] = value
    else:
        variant["measurement"][axis] = value
    return variant


@pytest.fixture
def stats_calls(monkeypatch):
    calls = []

    def counting(sampler, draws):
        calls.append(sampler.fingerprint())
        return estimate_projection_stats(sampler, draws)

    monkeypatch.setattr(experiments, "estimate_projection_stats", counting)
    return calls


class TestSweepProjectionStats:
    @pytest.mark.parametrize(
        "axis, values, estimates",
        [
            ("sigma_z", [0.0, 0.5, 2.0], 1),
            ("n_measurements", [8, 16], 1),
            ("keep_prob", [0.5, 0.7, 0.9], 3),
        ],
    )
    def test_stats_estimated_once_per_sampler(self, axis, values, estimates, stats_calls):
        config = small_config()
        reports, _ = experiments.sweep(config, axis, values)
        assert len(stats_calls) == estimates
        for value, report in zip(values, reports):
            fresh = experiments.run(with_value(config, axis, value))
            assert report.projection_stats.to_dict() == fresh.projection_stats.to_dict()

    def test_stats_with_other_draw_count_re_estimated(self, stats_calls):
        config = small_config()
        stats = experiments.run(config).projection_stats
        assert experiments.run(config, stats=stats).projection_stats is stats
        config["measurement"]["stats_draws"] = 32
        report = experiments.run(config, stats=stats)
        assert report.projection_stats.draws_used == 32
        assert len(stats_calls) == 2
