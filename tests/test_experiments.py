"""Experiment runner: sweep projection stats, dataset guards, exit codes, config hash, workers."""

import json

import pytest

from scoreshift import (
    BasisMismatch,
    MeasurementDataset,
    OperatorSampler,
    cli,
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
        },
    }


def with_value(config, axis, value):
    variant = json.loads(json.dumps(config))
    if axis == "keep_prob":
        variant["measurement"]["sampler"]["keep_prob"] = value
    else:
        variant["measurement"][axis] = value
    return variant


class TestSweepProjectionStats:
    @pytest.mark.parametrize(
        "axis, values",
        [
            ("sigma_z", [0.0, 0.5, 2.0]),
            ("n_measurements", [8, 16]),
            ("keep_prob", [0.5, 0.7, 0.9]),
        ],
    )
    def test_stats_estimated_once_per_sampler(self, axis, values):
        config = small_config()
        reports, _ = experiments.sweep(config, axis, values)
        for value, report in zip(values, reports):
            fresh = experiments.run(with_value(config, axis, value))
            assert report.projection_stats.to_dict() == fresh.projection_stats.to_dict()


def acquired(sampler_doc):
    """A dataset of 16 draws from small_config's ind prior under sampler_doc."""
    p, _ = triangle_pair(dim=4)
    sampler = OperatorSampler.from_dict(sampler_doc)
    return MeasurementDataset.from_samples(sampler, sample(p, 16, stream(8, "data-x")), seed=8)


def other_sampler(config):
    return {**config["measurement"]["sampler"], "base_seed": 9}


def config_file(tmp_path, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return str(path)


class TestRunSamplerGuard:
    def test_dataset_from_other_sampler_rejected(self):
        config = small_config()
        with pytest.raises(BasisMismatch):
            experiments.run(config, dataset=acquired(other_sampler(config)))

    def test_data_file_from_other_sampler_exits_3(self, tmp_path):
        config = small_config()
        acquired(other_sampler(config)).save(tmp_path / "data.json")
        config["measurement"]["data_file"] = str(tmp_path / "data.json")
        assert cli.main(["run", "--config", config_file(tmp_path, config)]) == cli.EXIT_ASSUMPTION == 3

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


class TestRunExitCodes:
    def test_data_file_leaving_a_coordinate_unobserved_exits_3(self, tmp_path, capsys):
        config = small_config()
        config["measurement"]["sampler"]["keep_prob"] = [0.6, 0.0, 0.6, 0.6]
        acquired(config["measurement"]["sampler"]).save(tmp_path / "data.json")
        config["measurement"]["data_file"] = str(tmp_path / "data.json")
        assert cli.main(["run", "--config", config_file(tmp_path, config)]) == cli.EXIT_ASSUMPTION == 3
        assert "never observed in 16 measurements: [1]" in capsys.readouterr().err

    def test_stats_draws_key_rejected_exits_2(self, tmp_path, capsys):
        config = small_config()
        config["measurement"]["stats_draws"] = 64
        assert cli.main(["run", "--config", config_file(tmp_path, config)]) == cli.EXIT_CONFIG == 2
        assert "stats_draws" in capsys.readouterr().err

    def test_inverted_grid_exits_2(self, tmp_path, capsys):
        config = small_config()
        config["grid"].update(sigma_min=10.0, sigma_max=0.1)
        assert cli.main(["run", "--config", config_file(tmp_path, config)]) == cli.EXIT_CONFIG
        assert "grid: need 0 < sigma_min < sigma_max" in capsys.readouterr().err

    def test_missing_data_file_exits_2(self, tmp_path, capsys):
        config = small_config()
        config["measurement"]["data_file"] = str(tmp_path / "absent.json")
        assert cli.main(["run", "--config", config_file(tmp_path, config)]) == cli.EXIT_CONFIG
        assert "measurement.data_file: cannot load" in capsys.readouterr().err

    def test_data_file_that_is_not_a_dataset_exits_2(self, tmp_path, capsys):
        config = small_config()
        (tmp_path / "data.json").write_text("{}")
        config["measurement"]["data_file"] = str(tmp_path / "data.json")
        assert cli.main(["run", "--config", config_file(tmp_path, config)]) == cli.EXIT_CONFIG
        assert "measurement.data_file: cannot load" in capsys.readouterr().err

    def test_diverging_adaptation_exits_4(self, tmp_path, capsys):
        config = small_config()
        config["adaptation"] = {
            "optimizer": "gradient-descent",
            "step_size": 1e4,
            "iterations": 60,
            "batch": 8,
            "sigma_draws": 2,
            "eval_samples": 16,
        }
        assert cli.main(["run", "--config", config_file(tmp_path, config)]) == cli.EXIT_DIVERGENCE
        assert "evaluation loss rose for 20 consecutive steps" in capsys.readouterr().err


def mixture_files_config(tmp_path, name, shift):
    """A config in tmp_path/name whose ind.json has its first mean moved by shift."""
    p, q = triangle_pair(dim=4)
    out = tmp_path / name
    out.mkdir()
    ind = p.to_dict()
    ind["means"][0][0] += shift
    (out / "ind.json").write_text(json.dumps(ind))
    q.save(out / "ood.json")
    config = small_config()
    config["mixtures"] = {"ind": {"file": "ind.json"}, "ood": {"file": "ood.json"}}
    return config_file(out, config)


class TestConfigHash:
    def test_covers_inlined_mixture_files(self, tmp_path):
        hashes = [
            experiments.config_hash(
                experiments.load_config(mixture_files_config(tmp_path, name, shift))
            )
            for name, shift in (("a", 0.0), ("b", 0.0), ("c", 0.5))
        ]
        assert hashes[0] == hashes[1] != hashes[2]


def report_without_clock(config, workers):
    doc = experiments.run(config, workers=workers).to_dict()
    doc.pop("wall_clock_s")
    return doc


def full_observation_config():
    config = small_config()
    config["estimators"] = ["image", "measurement", "invertible"]
    config["measurement"]["sampler"]["keep_prob"] = 1.0
    return config


def masked_adapting_config():
    config = small_config()
    config["adaptation"] = {"iterations": 3, "batch": 8, "sigma_draws": 2, "eval_samples": 16}
    return config


class TestWorkersReproducibility:
    @pytest.mark.parametrize("build", [full_observation_config, masked_adapting_config])
    def test_one_and_four_workers_give_the_same_report(self, build):
        config = build()
        serial = report_without_clock(config, workers=1)
        assert serial == report_without_clock(config, workers=4)
        assert set(serial["estimates"]) == set(config["estimators"])
        assert (serial["adaptation"] is not None) == ("adaptation" in config)
