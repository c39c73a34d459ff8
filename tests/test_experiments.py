"""Experiment runner: projection stats shared across sweep runs, dataset guards."""

import json

import pytest

from scoreshift import (
    BasisMismatch,
    MeasurementDataset,
    OperatorSampler,
    cli,
    estimate_projection_stats,
    experiments,
    sample,
)
from scoreshift.priors import triangle_pair
from scoreshift.rng import stream


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


def acquired(sampler_doc):
    """A dataset of 16 draws from small_config's ind prior under sampler_doc."""
    p, _ = triangle_pair(dim=4)
    sampler = OperatorSampler.from_dict(sampler_doc)
    return MeasurementDataset.from_samples(sampler, sample(p, 16, stream(8, "data-x")), seed=8)


def other_sampler(config):
    return {**config["measurement"]["sampler"], "base_seed": 9}


class TestRunSamplerGuard:
    def test_dataset_from_other_sampler_rejected(self):
        config = small_config()
        with pytest.raises(BasisMismatch):
            experiments.run(config, dataset=acquired(other_sampler(config)))

    def test_data_file_from_other_sampler_exits_3(self, tmp_path):
        config = small_config()
        acquired(other_sampler(config)).save(tmp_path / "data.json")
        config["measurement"]["data_file"] = str(tmp_path / "data.json")
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert cli.main(["run", "--config", str(path)]) == cli.EXIT_ASSUMPTION == 3

    def test_matching_data_file_reproduces_in_memory_run(self, tmp_path):
        config = small_config()
        data = acquired(config["measurement"]["sampler"])
        data.save(tmp_path / "data.json")
        config["measurement"]["data_file"] = str(tmp_path / "data.json")
        from_file = experiments.run(config).to_dict()
        in_memory = experiments.run(config, dataset=data).to_dict()
        for doc in (from_file, in_memory):
            doc.pop("wall_clock_s")
        assert from_file == in_memory
