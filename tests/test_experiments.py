"""Experiment runner: sweep projection stats and semantics, dataset guards, exit codes,
config checks, config hash, workers, the sweep command, and refused runs and sweeps."""

import contextlib
import functools
import io
import json
import operator
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from scoreshift import (
    BasisMismatch,
    GaussianMixture,
    MeasurementDataset,
    OperatorSampler,
    RightBasis,
    SigmaGrid,
    adaptation,
    cli,
    experiments,
    gmm,
    kl_image,
    kl_invertible,
    sample,
    to_projected,
)
from scoreshift.priors import triangle_pair
from scoreshift.rng import stream
from tests.conftest import PROPERTY, count_qr, rising_eval_loss


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
            np.testing.assert_array_equal(report.ep_diag, fresh.ep_diag)


def capture_datasets(monkeypatch):
    """Record the dataset each run's kl_measurement call measures."""
    measured = []
    real = experiments.kl_measurement

    def capturing(p, q, data, *args, **kwargs):
        measured.append(data)
        return real(p, q, data, *args, **kwargs)

    monkeypatch.setattr(experiments, "kl_measurement", capturing)
    return measured


def without_clock(report):
    doc = report.to_dict()
    doc.pop("wall_clock_s")
    return doc


class TestSweepSemantics:
    """A sweep measures the same draws through the same operators; only its axis moves."""

    @pytest.fixture
    def swept(self, monkeypatch):
        """Run a sweep of small_config on a Hadamard basis; return the datasets it measured."""
        measured = capture_datasets(monkeypatch)
        config = small_config()
        config["measurement"]["sampler"]["basis"] = {"kind": "hadamard"}

        def sweep(axis, values):
            experiments.sweep(config, axis, values)
            assert len(measured) == len(values)
            return config, measured

        return sweep

    def test_sigma_z_moves_only_the_noise(self, swept):
        _, (d0, d_half, d1) = swept("sigma_z", [0.0, 0.5, 1.0])
        for data in (d_half, d1):
            np.testing.assert_array_equal(data.op_index, d0.op_index)
            np.testing.assert_array_equal(data.support, d0.support)
        assert [d.sigma_z[0] for d in (d0, d_half, d1)] == [0.0, 0.5, 1.0]
        full, half = d1.ybar - d0.ybar, d_half.ybar - d0.ybar
        np.testing.assert_allclose(full, 2 * half, rtol=0, atol=1e-12)
        assert np.all(full[~d0.support] == 0.0) and np.all(half[~d0.support] == 0.0)
        assert np.all(full[d0.support] != 0.0)

    def test_keep_prob_moves_only_the_masks(self, swept):
        values = [0.5, 0.7, 0.9]
        config, datasets = swept("keep_prob", values)
        p = GaussianMixture.from_dict(config["mixtures"]["ind"])
        draws = sample(p, 16, stream(config["seed"], "data-x"))
        for value, data in zip(values, datasets):
            assert data.sampler.keep_prob == value
            np.testing.assert_array_equal(data.op_index, datasets[0].op_index)
            np.testing.assert_array_equal(
                data.ybar, to_projected(data.sampler.basis, data.support, draws)
            )
        assert not np.array_equal(datasets[0].support, datasets[-1].support)


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


def reading(tmp_path, config, data):
    """config with measurement.data_file naming data, saved under tmp_path."""
    data.save(tmp_path / "data.json")
    config["measurement"]["data_file"] = str(tmp_path / "data.json")
    return config


class TestRunSamplerGuard:
    def test_dataset_from_other_sampler_rejected(self, tmp_path):
        config = small_config()
        with pytest.raises(BasisMismatch):
            experiments.run(reading(tmp_path, config, acquired(other_sampler(config))))

    def test_dataset_from_other_dense_seed_rejected(self, tmp_path):
        config = small_config()
        sampler = config["measurement"]["sampler"]
        sampler["basis"] = {"kind": "dense-orthogonal", "seed": 1}
        experiments.run(reading(tmp_path, config, acquired(sampler)))
        other = {**sampler, "basis": {"kind": "dense", "seed": 2}}
        with pytest.raises(BasisMismatch):
            experiments.run(reading(tmp_path, config, acquired(other)))

    def test_data_file_from_other_sampler_exits_3(self, tmp_path):
        config = small_config()
        acquired(other_sampler(config)).save(tmp_path / "data.json")
        config["measurement"]["data_file"] = str(tmp_path / "data.json")
        assert cli.main(["run", "--config", config_file(tmp_path, config)]) == cli.EXIT_ASSUMPTION == 3

    def test_relative_data_file_resolves_beside_the_config(self, tmp_path, monkeypatch):
        config = small_config()
        data = acquired(config["measurement"]["sampler"])
        (tmp_path / "cfg").mkdir()
        (tmp_path / "elsewhere").mkdir()
        data.save(tmp_path / "cfg" / "data.json")
        config["measurement"]["data_file"] = "data.json"
        path = config_file(tmp_path / "cfg", config)
        monkeypatch.chdir(tmp_path / "elsewhere")
        assert cli.main(["run", "--config", path, "--out", "out"]) == cli.EXIT_OK
        from_cli = json.loads(Path("out", "report.json").read_text())
        # the relative path reads what the absolute one beside the config reads
        config["measurement"]["data_file"] = str(tmp_path / "cfg" / "data.json")
        absolute = json.loads(json.dumps(experiments.run(config).to_dict()))
        for doc in (from_cli, absolute):
            doc.pop("wall_clock_s")
        assert from_cli == absolute

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (lambda doc: doc["sampler"].update(singular_value=2.0),
             "unknown sampler key(s): singular_value"),
            (lambda doc: doc["measurements"][0]["ybar"].__setitem__(1, float("nan")),
             "ybar entries must be finite"),
            (lambda doc: doc["measurements"][2]["ybar"].__setitem__(1, 10**400),
             "measurements[2].ybar[1] is too large for a float"),
            (lambda doc: doc["measurements"][3].update(sigma_z=-(10**400)),
             "measurements[3].sigma_z is too large for a float"),
            # operator 1 does not observe coordinate 2, so no operator produced this value
            (lambda doc: doc["measurements"][1]["ybar"].__setitem__(2, 7.0),
             "ybar[1][2] is 7.0, but operator 1 does not observe coordinate 2"),
        ],
        ids=["singular_value", "nan-ybar", "huge-ybar", "huge-sigma_z", "unobserved-ybar"],
    )
    def test_data_file_the_dataset_cannot_state_exits_2(self, tmp_path, capsys, corrupt, message):
        config = small_config()
        path = tmp_path / "data.json"
        acquired(config["measurement"]["sampler"]).save(path)
        doc = json.loads(path.read_text())
        corrupt(doc)
        path.write_text(json.dumps(doc))
        config["measurement"]["data_file"] = str(path)
        assert cli.main(["run", "--config", config_file(tmp_path, config)]) == cli.EXIT_CONFIG
        assert message in capsys.readouterr().err

    def test_data_file_whose_keep_prob_is_true_exits_2(self, tmp_path, capsys):
        # true is refused as a config's keep_prob, so it is refused as the data's,
        # even where the config's 1.0 would draw the same operators
        config = small_config()
        config["measurement"]["sampler"]["keep_prob"] = 1.0
        path = tmp_path / "data.json"
        acquired(config["measurement"]["sampler"]).save(path)
        doc = json.loads(path.read_text())
        doc["sampler"]["keep_prob"] = True
        path.write_text(json.dumps(doc))
        config["measurement"]["data_file"] = str(path)
        assert cli.main(["run", "--config", config_file(tmp_path, config)]) == cli.EXIT_CONFIG
        assert "keep_prob entries must be numbers, got True" in capsys.readouterr().err

    def test_matching_data_file_reproduces_in_memory_run(self, tmp_path):
        # a data file holding the config's own draw reads as the run that draws it
        config = small_config()
        p = GaussianMixture.from_dict(config["mixtures"]["ind"])
        sampler = OperatorSampler.from_dict(config["measurement"]["sampler"])
        data = MeasurementDataset.from_samples(sampler, sample(p, 16, stream(3, "data-x")), seed=3)
        in_memory = experiments.run(config).to_dict()
        from_file = experiments.run(reading(tmp_path, config, data)).to_dict()
        for doc in (from_file, in_memory):
            for est in (doc, *doc["estimates"].values()):
                est.pop("config_hash")
            doc.pop("wall_clock_s")
        assert from_file == in_memory


class TestBasisBuilds:
    """A dense V is factorized once per sampler that measures with it, never to compare or save."""

    def test_three_value_dense_sweep_does_three_qrs(self, monkeypatch):
        config = small_config()
        config["measurement"]["sampler"] = {
            "kind": "patch-inpainting", "dim": 4, "keep_prob": 0.6, "patch_edge": 1,
            "base_seed": 2, "basis": {"kind": "dense-orthogonal", "seed": 1},
        }
        config["measurement"]["n_operators"] = 8
        calls = count_qr(monkeypatch)
        experiments.sweep(config, "sigma_z", [0.0, 0.5, 2.0], workers=2)
        assert calls == [(4, 4)] * 3

    def test_saving_a_dense_dataset_does_no_qr(self, monkeypatch, tmp_path):
        config = small_config()
        data = acquired({**config["measurement"]["sampler"], "basis": {"kind": "dense", "seed": 1}})
        calls = count_qr(monkeypatch)
        data.save(tmp_path / "data.json")
        assert calls == []


class TestRunExitCodes:
    def test_self_test_passes_exits_0(self, capsys):
        assert cli.main(["self-test"]) == cli.EXIT_OK
        out = capsys.readouterr().out
        assert "[FAIL]" not in out and "all self-test checks passed" in out

    def test_a_slightly_wrong_score_fails_the_tweedie_check_alone(self, monkeypatch):
        # wrong wherever it is bound: a check that computes denoise from score passes it
        real = gmm.score

        def wrong(*args, **kwargs):
            return (1 + 1e-9) * real(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.startswith("scoreshift") and getattr(module, "score", None) is real:
                monkeypatch.setattr(module, "score", wrong)
        failed = [name for name, passed, _ in cli._selftest_checks() if not passed]
        assert failed == ["posterior mean identity residual < 1e-12"]

    def test_a_failing_check_exits_1(self, capsys, monkeypatch):
        checks = [("holds", True, "detail"), ("breaks", False, "detail")]
        monkeypatch.setattr(cli, "_selftest_checks", lambda: iter(checks))
        assert cli.main(["self-test"]) == cli.EXIT_SELFTEST
        out = capsys.readouterr().out.splitlines()
        assert out == ["[PASS] holds (detail)", "[FAIL] breaks (detail)",
                       "1 self-test check(s) failed"]

    # the schema fills the pipe while printing; a run's few lines wait for the final flush
    @pytest.mark.parametrize("command", ["show-config-schema", "run"])
    def test_closed_stdout_exits_141_without_a_traceback(self, tmp_path, command):
        argv = [command]
        if command == "run":
            argv += ["--config", config_file(tmp_path, small_config())]
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run(
                [sys.executable, "-m", "scoreshift.cli", *argv],
                stdout=write_end,
                stderr=subprocess.PIPE,
                text=True,
                env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])},
                timeout=120,
            )
        finally:
            os.close(write_end)
        # no traceback, nor the "Exception ignored" note of a failed flush at exit
        assert (done.returncode, done.stderr) == (cli.EXIT_BROKEN_PIPE, "")

    def test_data_file_leaving_a_coordinate_unobserved_exits_3(self, tmp_path, capsys):
        config = small_config()
        config["measurement"]["sampler"]["keep_prob"] = [0.6, 0.0, 0.6, 0.6]
        acquired(config["measurement"]["sampler"]).save(tmp_path / "data.json")
        config["measurement"]["data_file"] = str(tmp_path / "data.json")
        assert cli.main(["run", "--config", config_file(tmp_path, config)]) == cli.EXIT_ASSUMPTION == 3
        assert "never observed in 16 measurements: [1]" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, value, message",
        [
            (None, [1], "sampler must be a JSON object, got [1]"),
            ("basis", ["identity"], "sampler basis must be a JSON object, got ['identity']"),
        ],
        ids=["sampler-array", "basis-array"],
    )
    def test_data_file_sampler_not_an_object_exits_2(
        self, tmp_path, capsys, field, value, message
    ):
        config = small_config()
        acquired(config["measurement"]["sampler"]).save(tmp_path / "data.json")
        doc = json.loads((tmp_path / "data.json").read_text())
        if field is None:
            doc["sampler"] = value
        else:
            doc["sampler"][field] = value
        (tmp_path / "data.json").write_text(json.dumps(doc))
        config["measurement"]["data_file"] = str(tmp_path / "data.json")
        assert cli.main(["run", "--config", config_file(tmp_path, config)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "sampler",
        [
            {"kind": "coordinate-mask", "dim": 4, "base_seed": 2},
            {"kind": "patch-inpainting", "dim": 4, "base_seed": 2, "patch_edge": 1},
        ],
        ids=["coordinate-mask", "patch-inpainting"],
    )
    def test_mask_sampler_without_keep_prob_exits_2(self, tmp_path, capsys, sampler):
        config = small_config()
        config["measurement"]["sampler"] = sampler
        assert cli.main(["run", "--config", config_file(tmp_path, config)]) == cli.EXIT_CONFIG
        assert f"measurement.sampler: {sampler['kind']} needs keep_prob" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("low_count", 1, "coordinate-mask sampler does not read low_count"),
            ("basis", {"kind": "hadamard", "seed": 3}, "hadamard basis takes no seed, got 3"),
        ],
        ids=["low_count", "hadamard-seed"],
    )
    def test_sampler_field_its_kind_never_reads_exits_2(
        self, tmp_path, capsys, field, value, message
    ):
        config = small_config()
        config["measurement"]["sampler"][field] = value
        assert cli.main(["run", "--config", config_file(tmp_path, config)]) == cli.EXIT_CONFIG
        assert f"measurement.sampler: {message}" in capsys.readouterr().err

    def test_stats_draws_key_rejected_exits_2(self, tmp_path, capsys):
        config = small_config()
        config["measurement"]["stats_draws"] = 64
        assert cli.main(["run", "--config", config_file(tmp_path, config)]) == cli.EXIT_CONFIG == 2
        assert "stats_draws" in capsys.readouterr().err

    @pytest.mark.parametrize("command, workers", [("run", "0"), ("sweep", "-5")])
    def test_workers_below_one_exits_2_writing_nothing(self, tmp_path, capsys, command, workers):
        out = tmp_path / "out"
        argv = [command, "--config", config_file(tmp_path, small_config()),
                "--workers", workers, "--out", str(out)]
        if command == "sweep":
            argv += ["--axis", "sigma_z", "--values", "0,0.5"]
        assert cli.main(argv) == cli.EXIT_CONFIG
        assert f"workers must be >= 1, got {workers}" in capsys.readouterr().err
        assert not out.exists()

    def test_mixture_file_with_nan_exits_2(self, tmp_path, capsys):
        path = mixture_files_config(tmp_path, "nan", float("nan"))
        assert cli.main(["run", "--config", path]) == cli.EXIT_CONFIG
        assert "$.mixtures.ind.means[0][0]: nan is not a finite number" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"dim": 4.7}, "$.mixtures.ind.dim: 4.7 is not of type 'integer'"),
            ({"weights": [True, 0, 0]},
             "$.mixtures.ind.weights[0]: True is not of type 'number'"),
            ({"variances": ["1", 1, 1]},
             "$.mixtures.ind.variances[0]: '1' is not of type 'number'"),
            ({"colour": "red"}, "$.mixtures.ind: unknown key 'colour'"),
            ({"weights": [1.0], "means": [0, 0, 0, 0], "variances": [1.0]},
             "$.mixtures.ind.means[0]: 0 is not of type 'array'"),
        ],
        ids=["fractional-dim", "true-weight", "string-variance", "unknown-key", "flat-means"],
    )
    def test_mixture_file_checked_as_inline_mixture_exits_2(
        self, tmp_path, capsys, fields, message
    ):
        # the file is inlined as read, so the schema sees what an inline mixture shows it
        path = mixture_files_config(tmp_path, "bad", 0.0, **fields)
        assert cli.main(["run", "--config", path]) == cli.EXIT_CONFIG
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("text, message", [(None, "cannot read mixtures.ind file"),
                                               ("{", "mixtures.ind file"),
                                               ("1" * 5000, "cannot read mixtures.ind file")],
                             ids=["missing", "invalid-json", "5000-digit-integer"])
    def test_unreadable_mixture_file_exits_2(self, tmp_path, capsys, text, message):
        path = mixture_files_config(tmp_path, "unreadable", 0.0)
        ind = Path(path).parent / "ind.json"
        ind.unlink()
        if text is not None:
            ind.write_text(text)
        assert cli.main(["run", "--config", path]) == cli.EXIT_CONFIG
        assert message in capsys.readouterr().err

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

    @pytest.mark.parametrize("values", ["0.5,0.5", "0.5,2,0.50"])
    def test_repeated_sweep_value_exits_2_writing_nothing(self, tmp_path, capsys, values):
        # two equal values would write one sigma_z=0.5/ directory twice
        out = tmp_path / "out"
        argv = ["sweep", "--config", config_file(tmp_path, small_config()), "--axis", "sigma_z",
                "--values", values, "--out", str(out)]
        assert cli.main(argv) == cli.EXIT_CONFIG
        assert "sweep axis values repeat" in capsys.readouterr().err
        assert not out.exists()

    def test_diverging_adaptation_exits_4(self, tmp_path, capsys):
        config = diverging_config()
        # Adam's steps are bounded by step_size: only an overflowing loss
        # reaches the guard
        with np.errstate(all="ignore"):
            code = cli.main(["run", "--config", config_file(tmp_path, config)])
        assert code == cli.EXIT_DIVERGENCE
        assert "evaluation loss is not finite at step 1" in capsys.readouterr().err


class TestEntryChecks:
    """Inputs a run cannot use are refused before any adapting, estimating or writing."""

    @pytest.fixture
    def calls(self, monkeypatch):
        """Record each adapt and estimator call a run makes."""
        return record_calls(
            monkeypatch, experiments, ("adapt", "kl_image", "kl_measurement", "kl_invertible")
        )

    @pytest.mark.parametrize("source", ["draws", "data_file", "adapting"])
    def test_invertible_under_masking_exits_3(self, tmp_path, capsys, calls, source):
        config = masked_adapting_config() if source == "adapting" else small_config()
        config["estimators"] = ["image", "measurement", "invertible"]
        if source == "data_file":
            acquired(config["measurement"]["sampler"]).save(tmp_path / "data.json")
            config["measurement"]["data_file"] = str(tmp_path / "data.json")
        out = tmp_path / "out"
        argv = ["run", "--config", config_file(tmp_path, config), "--out", str(out)]
        assert cli.main(argv) == cli.EXIT_ASSUMPTION
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert re.fullmatch(
            r"assumption violation: kl_invertible requires full-rank operators; "
            r"rank-deficient op_index: \[\d+(, \d+){3}\]",
            err[0],
        )
        assert calls == [] and not out.exists()

    def test_invertible_under_masking_in_a_sweep_exits_3(self, tmp_path, capsys, calls):
        config = small_config()
        config["estimators"] = ["image", "measurement", "invertible"]
        out = tmp_path / "out"
        argv = ["sweep", "--config", config_file(tmp_path, config), "--axis", "sigma_z",
                "--values", "0,0.5", "--out", str(out)]
        assert cli.main(argv) == cli.EXIT_ASSUMPTION
        assert "rank-deficient op_index" in capsys.readouterr().err
        assert calls == [] and not out.exists()

    def test_a_later_sweep_value_under_masking_exits_3_before_any_run(
        self, tmp_path, capsys, calls
    ):
        config = small_config()
        config["estimators"] = ["image", "measurement", "invertible"]
        out = tmp_path / "out"
        argv = ["sweep", "--config", config_file(tmp_path, config), "--axis", "keep_prob",
                "--values", "1,0.5", "--out", str(out)]
        assert cli.main(argv) == cli.EXIT_ASSUMPTION
        assert "rank-deficient op_index" in capsys.readouterr().err
        assert calls == [] and not out.exists()

    def test_sweep_with_data_file_exits_2_writing_nothing(self, tmp_path, capsys, calls):
        config = small_config()
        acquired(config["measurement"]["sampler"]).save(tmp_path / "data.json")
        config["measurement"]["data_file"] = str(tmp_path / "data.json")
        out = tmp_path / "out"
        argv = ["sweep", "--config", config_file(tmp_path, config), "--axis", "sigma_z",
                "--values", "0,0.5", "--out", str(out)]
        assert cli.main(argv) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "measurement.data_file: a sweep acquires its own measurements" in err
        assert calls == [] and not out.exists()

    def test_unresolved_mixture_file_ref_raises_config_error(self, tmp_path):
        # load_config inlines file refs; the schema run checks refuses one left in
        config = json.loads(Path(mixture_files_config(tmp_path, "refs", 0.0)).read_text())
        with pytest.raises(experiments.ConfigError,
                           match=r"\$\.mixtures\.ind: 'weights' is a required property"):
            experiments.run(config)

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_out_that_is_a_file_exits_2_before_any_work(self, tmp_path, capsys, calls, command):
        out = tmp_path / "out"
        out.write_text("")
        argv = [command, "--config", config_file(tmp_path, masked_adapting_config()),
                "--out", str(out)]
        if command == "sweep":
            argv += ["--axis", "sigma_z", "--values", "0,0.5"]
        assert cli.main(argv) == cli.EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"config error: cannot create output directory {out}: ")
        assert calls == [] and out.read_text() == ""

    def test_rising_evaluation_loss_exits_4(self, tmp_path, capsys, monkeypatch):
        rising_eval_loss(monkeypatch)
        config = masked_adapting_config()
        config["adaptation"]["iterations"] = 40
        assert cli.main(["run", "--config", config_file(tmp_path, config)]) == cli.EXIT_DIVERGENCE
        assert "evaluation loss rose for 20 consecutive steps" in capsys.readouterr().err


def diverging_config():
    config = small_config()
    config["adaptation"] = {
        "step_size": 1e300,
        "iterations": 60,
        "batch": 8,
        "sigma_draws": 2,
        "eval_samples": 16,
    }
    return config


def set_field(dotted, value):
    """A mutation of small_config that sets the field at a dotted path."""

    def mutate(config):
        *parents, last = dotted.split(".")
        for key in parents:
            config = config[key]
        config[last] = value

    return mutate


def set_ind_mean(value):
    def mutate(config):
        config["mixtures"]["ind"]["means"][0][0] = value

    return mutate


# 10**400 is a JSON number that no float holds
TOO_LARGE = "an integer of 1329 bits is too large for a float"
HUGE_NUMBERS = [
    ("sigma_z-1e400", set_field("measurement.sigma_z", 10**400),
     f"$.measurement.sigma_z: {TOO_LARGE}"),
    ("sigma_max-1e400", set_field("grid.sigma_max", 10**400), f"$.grid.sigma_max: {TOO_LARGE}"),
    ("step_size-1e400", set_field("adaptation", {"step_size": 10**400}),
     f"$.adaptation.step_size: {TOO_LARGE}"),
    ("mean-1e400", set_ind_mean(10**400), f"$.mixtures.ind.means[0][0]: {TOO_LARGE}"),
]

# past 4,300 digits an integer has no repr and no JSON dump, so only the API
# can pass one; the message gives its bit length
TOO_LONG = "an integer of 16610 bits does not fit in 64 bits"
HUGE_INTEGERS = [
    (f"{field}-{name}1e5000", set_field(field, sign * 10**5000), f"$.{field}: {TOO_LONG}")
    for field in ("seed", "n_samples") for name, sign in (("", 1), ("minus-", -1))
]

BAD_CONFIGS = HUGE_NUMBERS + [
    ("unknown-key-output_dir", set_field("output_dir", "runs"), "$: unknown key 'output_dir'"),
    ("missing-required", lambda c: c["grid"].pop("nodes"), "$.grid: 'nodes' is a required"),
    ("wrong-type", set_field("seed", "3"), "$.seed: '3' is not of type 'integer'"),
    ("true-for-integer", set_field("n_samples", True), "$.n_samples: True is not of type"),
    ("nodes-as-float", set_field("grid.nodes", 4.0), "$.grid.nodes: 4.0 is not of type 'integer'"),
    ("n_samples-as-float", set_field("n_samples", 16.0), "$.n_samples: 16.0 is not of type"),
    (
        "n_measurements-as-float",
        set_field("measurement.n_measurements", 16.0),
        "$.measurement.n_measurements: 16.0 is not of type",
    ),
    ("below-minimum", set_field("seed", -1), "$.seed: -1 is out of range: minimum is 0"),
    (
        "above-maximum",
        set_field("measurement.sampler.keep_prob", [0.6, 1.5, 0.6, 0.6]),
        "$.measurement.sampler.keep_prob[1]: 1.5 is out of range: maximum is 1",
    ),
    (
        "scalar-above-maximum",
        set_field("measurement.sampler.keep_prob", 1.5),
        "$.measurement.sampler.keep_prob: 1.5 is out of range: maximum is 1",
    ),
    (
        "at-exclusive-minimum",
        set_field("grid.sigma_min", 0),
        "$.grid.sigma_min: 0 is out of range: exclusiveMinimum is 0",
    ),
    (
        "bad-enum",
        set_field("measurement.sampler.kind", "blur"),
        "$.measurement.sampler.kind: 'blur' is not one of",
    ),
    ("schema-version-2", set_field("schema_version", 2), "$.schema_version: 1 was expected"),
    (
        "schema-version-true",
        set_field("schema_version", True),
        "$.schema_version: 1 was expected, got True",
    ),
    ("empty-estimators", set_field("estimators", []), "$.estimators: [] has fewer than 1 items"),
    (
        "repeated-estimator",
        set_field("estimators", ["image", "image"]),
        "$.estimators: ['image', 'image'] has non-unique elements",
    ),
    (
        "mixture-neither-ref-nor-document",
        set_field("mixtures.ind", {"file": "ind.json", "weights": [1.0]}),
        "$.mixtures.ind: a file ref is {'file': path} alone, got {'file': 'ind.json', 'weights'",
    ),
    (
        "keep_prob-neither-number-nor-array",
        set_field("measurement.sampler.keep_prob", "high"),
        "$.measurement.sampler.keep_prob: 'high' is not of type ['number', 'array']",
    ),
    (
        "partial-inline-mixture",
        set_field("mixtures.ind", {"weights": [1.0]}),
        "$.mixtures.ind: 'means' is a required property",
    ),
    (
        "file-ref-not-a-path",
        set_field("mixtures.ood", {"file": 3}),
        "$.mixtures.ood: a file ref is {'file': path} alone, got {'file': 3}",
    ),
    (
        "adaptation-optimizer",
        set_field("adaptation", {"optimizer": "adaptive-moments"}),
        "$.adaptation: unknown key 'optimizer'",
    ),
    (
        "adaptation-shared_mask_batches",
        set_field("adaptation", {"shared_mask_batches": False}),
        "$.adaptation: unknown key 'shared_mask_batches'",
    ),
    (
        "sampler-singular_value",
        set_field("measurement.sampler.singular_value", 2.0),
        "$.measurement.sampler: unknown key 'singular_value'",
    ),
    (
        "inline-weights-nan",
        set_field("mixtures.ind.weights", [float("nan"), 0.5]),
        "$.mixtures.ind.weights[0]: nan is not a finite number",
    ),
    (
        "sigma_max-infinity",
        set_field("grid.sigma_max", float("inf")),
        "$.grid.sigma_max: inf is not a finite number",
    ),
    (
        "ood-variances-nan",
        set_field("mixtures.ood.variances", [1, float("nan")]),
        "$.mixtures.ood.variances[1]: nan is not a finite number",
    ),
]

# What the checker implements, and the types each keyword's check applies to.
CHECKED_KEYWORDS = {
    "type": None,
    "const": None,
    "enum": None,
    "minimum": ("integer", "number"),
    "maximum": ("integer", "number"),
    "exclusiveMinimum": ("integer", "number"),
    "required": ("object",),
    "properties": ("object",),
    "additionalProperties": ("object",),
    "items": ("array",),
    "minItems": ("array",),
    "uniqueItems": ("array",),
}


def subschemas(schema):
    yield schema
    for sub in schema.get("properties", {}).values():
        yield from subschemas(sub)
    if "items" in schema:
        yield from subschemas(schema["items"])


class TestConfigChecker:
    @pytest.mark.parametrize(
        "mutate, expected", [c[1:] for c in BAD_CONFIGS], ids=[c[0] for c in BAD_CONFIGS]
    )
    def test_bad_config_exits_2_naming_the_field(self, tmp_path, capsys, mutate, expected):
        config = small_config()
        mutate(config)
        assert cli.main(["run", "--config", config_file(tmp_path, config)]) == cli.EXIT_CONFIG
        assert f"config error: config field {expected}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "added, expected, limit",
        [
            ({"extra": 1}, "$.mixtures.ind: unknown key 'extra'", 200),
            (
                {"file": "ind.json"},
                "$.mixtures.ind: a file ref is {'file': path} alone, got {'dim': 256, 'file': ",
                400,
            ),
        ],
        ids=["extra-key", "file-and-document"],
    )
    def test_bad_inline_mixture_error_is_short(self, tmp_path, capsys, added, expected, limit):
        # the message names the key, or shortens the value: it never dumps the
        # (3, 256) means (4 kB)
        config = small_config()
        config["mixtures"]["ind"] = {**triangle_pair(dim=256)[0].to_dict(), **added}
        assert cli.main(["run", "--config", config_file(tmp_path, config)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err.strip()
        assert f"config error: config field {expected}" in err
        assert len(err) < limit, err

    def test_schema_uses_only_checked_keywords(self):
        for schema in subschemas(experiments.CONFIG_SCHEMA):
            for keyword in schema:
                assert keyword in CHECKED_KEYWORDS, f"checker ignores {keyword!r}"
                kinds = schema.get("type")
                kinds = [kinds] if isinstance(kinds, str) else kinds
                if CHECKED_KEYWORDS[keyword]:
                    assert set(kinds) & set(CHECKED_KEYWORDS[keyword]), keyword
            assert schema.get("additionalProperties", False) is False

    def test_show_config_schema_prints_the_schema(self, capsys):
        assert cli.main(["show-config-schema"]) == cli.EXIT_OK
        assert json.loads(capsys.readouterr().out) == experiments.CONFIG_SCHEMA

    def test_loading_a_config_imports_no_jsonschema(self, tmp_path):
        code = (
            "import sys; from scoreshift import experiments; "
            f"experiments.load_config({config_file(tmp_path, small_config())!r}); "
            "print('jsonschema' in sys.modules)"
        )
        src = str(Path(experiments.__file__).parents[1])
        out = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "False"


def mixture_files_config(tmp_path, name, shift, **fields):
    """A config in tmp_path/name whose ind.json has its first mean moved by shift,
    then the given fields set."""
    p, q = triangle_pair(dim=4)
    out = tmp_path / name
    out.mkdir()
    ind = p.to_dict()
    ind["means"][0][0] += shift
    ind.update(fields)
    (out / "ind.json").write_text(json.dumps(ind))
    q.save(out / "ood.json")
    config = small_config()
    config["mixtures"] = {"ind": {"file": "ind.json"}, "ood": {"file": "ood.json"}}
    return config_file(out, config)


class TestSamplerDocIsAConfigBlock:
    @pytest.mark.parametrize("basis", [RightBasis("identity", 4), RightBasis("hadamard", 4),
                                       RightBasis("dense", 4, seed=7)], ids=lambda b: b.kind)
    def test_to_dict_validates_and_rebuilds(self, basis):
        sampler = OperatorSampler(
            kind="coordinate-mask", dim=4, basis=basis, base_seed=2, keep_prob=0.6
        )
        config = small_config()
        config["measurement"]["sampler"] = json.loads(json.dumps(sampler.to_dict()))
        experiments.validate_config(config)
        assert OperatorSampler.from_dict(config["measurement"]["sampler"]) == sampler


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
    return without_clock(experiments.run(config, workers=workers))


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


class TestAdaptingRun:
    """A run adapts first and takes adaptation's "before" as its measurement estimate."""

    def test_measurement_estimate_is_adaptations_before(self):
        adapting = experiments.run(masked_adapting_config())
        plain = experiments.run(small_config())
        est, ref = adapting.estimates["measurement"], plain.estimates["measurement"]
        assert est is adapting.adaptation.kl_measurement_before
        assert (est.value, est.stderr, est.mode) == (ref.value, ref.stderr, ref.mode)
        np.testing.assert_array_equal(est.node_means, ref.node_means)
        np.testing.assert_array_equal(est.node_stderrs, ref.node_stderrs)

    def test_image_estimate_is_adaptations_before(self, monkeypatch):
        config = masked_adapting_config()
        del config["adaptation"]["eval_samples"]
        called = record_calls(monkeypatch, experiments, ["kl_image"])
        report = experiments.run(config)
        p, q = triangle_pair(dim=4)
        grid = SigmaGrid(0.1, 10.0, 4)
        est = report.estimates["image"]
        assert called == [] and est is report.adaptation.kl_image_before
        assert_same_estimate(est, kl_image(p, q, grid, n_samples=16, seed=3))

    def test_eval_samples_other_than_n_samples_keeps_its_own_image_pass(self, monkeypatch):
        config = masked_adapting_config()
        config["adaptation"]["eval_samples"] = 32
        called = record_calls(monkeypatch, experiments, ["kl_image"])
        report = experiments.run(config)
        assert called == ["kl_image"]
        assert report.estimates["image"].n_samples == 16
        assert report.adaptation.kl_image_before.n_samples == 32

    def test_one_and_two_workers_write_the_same_files(self, tmp_path):
        config = masked_adapting_config()
        for workers in (1, 2):
            experiments.run(config, tmp_path / f"w{workers}", workers=workers)
        names = sorted(path.name for path in (tmp_path / "w1").iterdir())
        assert names == sorted(path.name for path in (tmp_path / "w2").iterdir())
        assert "adapted_mixture.json" in names
        for name in names:
            one, two = ((tmp_path / f"w{w}" / name).read_text() for w in (1, 2))
            if name == "report.json":
                one, two = json.loads(one), json.loads(two)
                one.pop("wall_clock_s")
                two.pop("wall_clock_s")
            assert one == two, name

    def test_diverging_config_exits_4_before_any_estimator(self, tmp_path, monkeypatch):
        called = []

        def recorded(name, estimator):
            def wrapper(*args, **kwargs):
                called.append(name)
                return estimator(*args, **kwargs)

            return wrapper

        for module in (experiments, adaptation):
            for name in ("kl_image", "kl_measurement", "kl_invertible"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, recorded(name, getattr(module, name)))
        with np.errstate(all="ignore"):
            code = cli.main(["run", "--config", config_file(tmp_path, diverging_config())])
        assert code == cli.EXIT_DIVERGENCE
        assert called == []


class TestInvertibleRun:
    def test_invertible_estimate_is_the_measurement_one_renamed(self, monkeypatch):
        config = full_observation_config()
        p, q = triangle_pair(dim=4)
        sampler = OperatorSampler.from_dict(config["measurement"]["sampler"])
        data = MeasurementDataset.from_samples(
            sampler, sample(p, 16, stream(3, "data-x")), sigma_z=0.0, seed=3
        )
        called = record_calls(monkeypatch, experiments, ["kl_invertible"])
        report = experiments.run(config)
        assert called == ["kl_invertible"]
        grid = SigmaGrid(0.1, 10.0, 4)
        invertible = report.estimates["invertible"]
        assert_same_estimate(invertible, kl_invertible(p, q, data, grid, seed=3))
        np.testing.assert_array_equal(invertible.node_means,
                                      report.estimates["measurement"].node_means)


class TestImageOnlyRun:
    def test_runs_kl_image_alone(self, tmp_path):
        config = small_config()
        config.pop("measurement")
        config["estimators"] = ["image"]
        report = experiments.run(config, out_dir=tmp_path)
        doc = report.to_dict()
        assert doc["projection_stats"] is None and doc["adaptation"] is None
        assert sorted(path.name for path in tmp_path.iterdir()) == [
            "integrand_image.csv", "report.json"
        ]
        p, q = triangle_pair(dim=4)
        assert list(report.estimates) == ["image"]
        assert_same_estimate(report.estimates["image"],
                             kl_image(p, q, SigmaGrid(0.1, 10.0, 4), n_samples=16, seed=3))


def assert_same_estimate(est, reference):
    """est is reference bit for bit: its reported fields and its node arrays."""
    assert est.to_dict() == reference.to_dict()
    np.testing.assert_array_equal(est.node_means, reference.node_means)
    np.testing.assert_array_equal(est.node_stderrs, reference.node_stderrs)


class TestSweepAtOneSeed:
    """Every value runs at the config's seed, and the image estimate is made once."""

    @pytest.mark.parametrize("build", [small_config, masked_adapting_config])
    @pytest.mark.parametrize(
        "axis, values",
        [
            ("sigma_z", [0.0, 0.5, 2.0]),
            ("keep_prob", [0.5, 0.7, 0.9]),
            ("n_measurements", [8, 12, 16]),
        ],
    )
    def test_each_report_is_the_run_of_its_config(self, build, axis, values):
        config = build()
        reports, _ = experiments.sweep(config, axis, values)
        for value, report in zip(values, reports):
            alone = experiments.run(with_value(config, axis, value))
            assert without_clock(report) == without_clock(alone)

    def test_each_run_draws_its_own_points(self, monkeypatch):
        called = record_calls(monkeypatch, experiments, ["sample", "_run"])
        experiments.sweep(small_config(), "n_measurements", [8, 16])
        assert called == ["_run", "sample", "_run", "sample"]

    @pytest.mark.parametrize(
        "axis, given, plain",
        [
            ("n_measurements", [np.int64(8), 16], [8, 16]),
            ("sigma_z", [0, np.float32(0.5)], [0.0, 0.5]),
            ("keep_prob", [1, np.float64(0.5)], [1.0, 0.5]),
        ],
    )
    def test_exact_values_run_as_their_plain_numbers(self, axis, given, plain):
        reports, rows = experiments.sweep(small_config(), axis, given)
        plain_reports, plain_rows = experiments.sweep(small_config(), axis, plain)
        assert rows == plain_rows
        assert [without_clock(r) for r in reports] == [without_clock(r) for r in plain_reports]

    def test_image_estimated_once(self, monkeypatch):
        called = record_calls(monkeypatch, experiments, ["kl_image"])
        reports, rows = experiments.sweep(small_config(), "sigma_z", [0.0, 0.5, 2.0])
        assert called == ["kl_image"]
        assert all(r.estimates["image"] is reports[0].estimates["image"] for r in reports)
        assert len({ki for _, _, ki, _ in rows}) == 1

    def test_one_and_two_workers_give_the_same_reports(self):
        config = masked_adapting_config()
        one, two = (experiments.sweep(config, "sigma_z", [0.0, 0.5], workers=w)[0] for w in (1, 2))
        assert [without_clock(r) for r in one] == [without_clock(r) for r in two]


def record_calls(monkeypatch, module, names):
    """Replace each named function of module with a wrapper that records its calls."""
    called = []
    for name in names:
        real = getattr(module, name)

        def wrapper(*args, _name=name, _real=real, **kwargs):
            called.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)
    return called


def sweep_argv(tmp_path, config, axis, values):
    return ["sweep", "--config", config_file(tmp_path, config), "--axis", axis,
            "--values", values, "--out", str(tmp_path / "out")]


class TestSweepCli:
    def test_prints_and_writes_the_rows_it_returns(self, tmp_path, capsys, monkeypatch):
        returned = []

        def capturing(*args, **kwargs):
            returned.append(experiments.sweep(*args, **kwargs))
            return returned[-1]

        monkeypatch.setattr(cli, "sweep", capturing)
        argv = sweep_argv(tmp_path, small_config(), "n_measurements", "8,16")
        assert cli.main(argv) == cli.EXIT_OK
        (reports, rows), = returned
        assert [r.estimates["measurement"].n_samples for r in reports] == [8, 16]
        out = capsys.readouterr().out.splitlines()
        assert out == ["axis_value kl_measurement kl_image abs_gap"] + [
            f"{v:g} {km:.6g} {ki:.6g} {gap:.6g}" for v, km, ki, gap in rows
        ]
        lines = (tmp_path / "out" / "summary.csv").read_text().splitlines()
        assert lines[0] == "axis_value,kl_measurement,kl_image,abs_gap"
        assert [tuple(map(float, line.split(","))) for line in lines[1:]] == rows
        assert all((tmp_path / "out" / f"n_measurements={n}" / "report.json").is_file()
                   for n in (8, 16))

    @pytest.mark.parametrize(
        "axis, values, message",
        [
            ("sigma_z", "-1", "$.measurement.sigma_z: -1.0 is out of range: minimum is 0"),
            ("sigma_z", "nan", "$.measurement.sigma_z: nan is not a finite number"),
            ("sigma_z", "0.5,inf", "$.measurement.sigma_z: inf is not a finite number"),
            ("n_measurements", "0", "$.measurement.n_measurements: 0 is out of range: minimum"),
            ("n_measurements", "5,0", "$.measurement.n_measurements: 0 is out of range: minimum"),
            ("keep_prob", "0.5,1.5", "$.measurement.sampler.keep_prob: 1.5 is out of range"),
            ("n_measurements", "1" + "0" * 400,
             "$.measurement.n_measurements: an integer of 1329 bits does not fit in 64 bits"),
        ],
        ids=["sigma_z-negative", "sigma_z-nan", "sigma_z-inf", "n-zero", "n-5-then-0",
             "keep_prob-1.5", "n-401-digits"],
    )
    def test_bad_value_exits_2_naming_the_field_before_any_draw(
        self, tmp_path, capsys, monkeypatch, axis, values, message
    ):
        called = record_calls(monkeypatch, experiments, ["sample", "_run"])
        assert cli.main(sweep_argv(tmp_path, small_config(), axis, values)) == cli.EXIT_CONFIG
        assert f"config error: config field {message}" in capsys.readouterr().err
        assert called == [] and not (tmp_path / "out").exists()

    def test_a_later_value_leaving_a_coordinate_unobserved_exits_3_before_any_draw(
        self, tmp_path, capsys, monkeypatch
    ):
        called = record_calls(monkeypatch, experiments, ["sample", "_run"])
        argv = sweep_argv(tmp_path, small_config(), "keep_prob", "0.9,0.01")
        assert cli.main(argv) == cli.EXIT_ASSUMPTION
        assert "never observed in 16 measurements" in capsys.readouterr().err
        assert called == [] and not (tmp_path / "out").exists()

    def test_inverted_grid_exits_2_before_any_draw(self, tmp_path, capsys, monkeypatch):
        config = small_config()
        config["grid"].update(sigma_min=10.0, sigma_max=0.1)
        called = record_calls(monkeypatch, experiments, ["sample", "_run"])
        assert cli.main(sweep_argv(tmp_path, config, "sigma_z", "0,0.5")) == cli.EXIT_CONFIG
        assert "config error: grid: need 0 < sigma_min < sigma_max" in capsys.readouterr().err
        assert called == [] and not (tmp_path / "out").exists()

    def test_keep_prob_on_a_band_sampler_exits_2(self, tmp_path, capsys, monkeypatch):
        config = small_config()
        config["measurement"]["sampler"] = {"kind": "band-subsample", "dim": 4, "low_count": 2,
                                            "rand_count": 1}
        called = record_calls(monkeypatch, experiments, ["sample", "_run"])
        assert cli.main(sweep_argv(tmp_path, config, "keep_prob", "0.5")) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "measurement.sampler: band-subsample sampler does not read keep_prob" in err
        assert called == [] and not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "axis, values, message",
        [
            ("sigma_z", "", "--values must list at least one number"),
            ("sigma_z", " , ", "--values must list at least one number"),
            ("sigma_z", "0.5,high", "--values: could not convert string to float: 'high'"),
            ("n_measurements", "8,1.5", "--values: invalid literal for int() with base 10: '1.5'"),
        ],
        ids=["empty", "blank", "non-numeric", "fractional-count"],
    )
    def test_unparsable_values_exit_2(self, tmp_path, capsys, axis, values, message):
        assert cli.main(sweep_argv(tmp_path, small_config(), axis, values)) == cli.EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


def without_measurement(config):
    config.pop("measurement")


class TestApiRefusals:
    @pytest.mark.parametrize(
        "mutate, axis, values, message",
        [
            (None, "seed", [1, 2], "sweep axis must be one of ('keep_prob', 'n_measurements',"),
            (without_measurement, "sigma_z", [0.0], "sweep needs a measurement block"),
            (None, "sigma_z", [], "sweep needs at least one axis value"),
            (set_field("estimators", ["measurement"]), "sigma_z", [0.0],
             "sweep requires the 'image' estimator"),
            (set_field("estimators", ["image"]), "sigma_z", [0.0],
             "sweep requires the 'measurement' estimator"),
            (set_field("measurement.sampler.dim", 16), "sigma_z", [0.0],
             "sampler dim 16 != mixture dim 4"),
            (None, "n_measurements", [300.7],
             "$.measurement.n_measurements: 300.7 is not of type 'integer'"),
            (None, "n_measurements", [True, 200],
             "$.measurement.n_measurements: True is not of type 'integer'"),
            (None, "n_measurements", [float("inf")],
             "$.measurement.n_measurements: inf is not of type 'integer'"),
            (None, "keep_prob", [True],
             "$.measurement.sampler.keep_prob: True is not of type ['number', 'array']"),
            (None, "sigma_z", [False, 0.5],
             "$.measurement.sigma_z: False is not of type 'number'"),
            (None, "sigma_z", [float("inf")], "$.measurement.sigma_z: inf is not a finite number"),
            (None, "sigma_z", ["0.5"], "$.measurement.sigma_z: '0.5' is not of type 'number'"),
            (None, "sigma_z", [0.5, 10**400], f"$.measurement.sigma_z: {TOO_LARGE}"),
            (None, "n_measurements", [10**400],
             "$.measurement.n_measurements: an integer of 1329 bits does not fit in 64 bits"),
        ],
        ids=["unknown-axis", "no-measurement-block", "no-values", "no-image", "no-measurement",
             "sampler-dim", "fractional-count", "bool-count", "infinite-count", "bool-keep-prob",
             "bool-sigma-z", "infinite-sigma-z", "string-sigma-z", "huge-sigma-z", "huge-count"],
    )
    def test_sweep_refuses(self, monkeypatch, mutate, axis, values, message):
        config = small_config()
        if mutate:
            mutate(config)
        called = record_calls(monkeypatch, experiments, ["sample", "_run"])
        with pytest.raises(experiments.ConfigError) as err:
            experiments.sweep(config, axis, values)
        assert message in str(err.value) and called == []

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (without_measurement, "measurement block required for measurement/invertible"),
            (set_field("measurement.sampler.dim", 16), "sampler dim 16 != mixture dim 4"),
            (set_field("mixtures.ood", triangle_pair(dim=8)[1].to_dict()),
             "mixtures: ind dim 4 != ood dim 8"),
            *(case[1:] for case in HUGE_NUMBERS + HUGE_INTEGERS),
        ],
        ids=["no-measurement-block", "sampler-dim", "mixture-dims",
             *(case[0] for case in HUGE_NUMBERS + HUGE_INTEGERS)],
    )
    def test_run_refuses(self, mutate, message):
        config = small_config()
        mutate(config)
        with pytest.raises(experiments.ConfigError, match=re.escape(message)):
            experiments.run(config)

    @pytest.mark.parametrize(
        "text, message",
        [
            (None, "cannot read config"),
            ('{"seed": 3,\n', "is not valid JSON: line 2 column 1"),
            ("[]", "config field $: [] is not of type 'object'"),
            ('{"seed": 1' + "0" * 5000 + "}", "cannot read config"),
        ],
        ids=["missing", "invalid-json", "list", "5000-digit-integer"],
    )
    def test_unreadable_config_file_exits_2(self, tmp_path, capsys, text, message):
        # --seed writes into the config, so a config that is no object never reaches it
        path = tmp_path / "config.json"
        if text is not None:
            path.write_text(text)
        assert cli.main(["run", "--config", str(path), "--seed", "1"]) == cli.EXIT_CONFIG
        assert message in capsys.readouterr().err

    def test_seed_override(self, tmp_path):
        config = small_config()
        argv = ["run", "--config", config_file(tmp_path, config), "--seed", "11",
                "--out", str(tmp_path / "out")]
        assert cli.main(argv) == cli.EXIT_OK
        written = json.loads((tmp_path / "out" / "report.json").read_text())
        config["seed"] = 11
        expected = json.loads(json.dumps(experiments.run(config).to_dict()))
        for doc in (written, expected):
            doc.pop("wall_clock_s")
        assert written == expected and written["seed"] == 11
        assert written["config_hash"] == experiments.config_hash(config)


def leaves(doc, path=()):
    """(path, value) for each value in doc that is neither a dict nor a list."""
    for key, value in doc.items() if isinstance(doc, dict) else enumerate(doc):
        if isinstance(value, (dict, list)):
            yield from leaves(value, (*path, key))
        else:
            yield (*path, key), value


@st.composite
def retyped_configs(draw):
    """small_config or an adapting config with one leaf replaced by a value of another type."""
    config = draw(st.sampled_from([small_config, masked_adapting_config]))()
    path, value = draw(st.sampled_from(list(leaves(config))))
    others = [v for v in (None, True, 2.5, 7, "x", [], {}) if type(v) is not type(value)]
    *parents, last = path
    functools.reduce(operator.getitem, parents, config)[last] = draw(st.sampled_from(others))
    return config


class TestCheckerProperties:
    @PROPERTY
    @given(config=retyped_configs())
    def test_a_retyped_leaf_runs_or_exits_2_with_one_line(self, tmp_path_factory, config):
        argv = ["run", "--config", config_file(tmp_path_factory.mktemp("retyped"), config)]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        assert code in (cli.EXIT_OK, cli.EXIT_CONFIG)
        lines = err.getvalue().splitlines()
        if code == cli.EXIT_CONFIG:
            assert len(lines) == 1 and lines[0].startswith("config error: "), lines
