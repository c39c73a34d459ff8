"""Config-driven experiment runs: validation, execution, report emission.

A run is described by a single JSON document with a versioned schema;
unknown keys are rejected so stale configs fail loudly. Every output file
records the hash of the effective config and the seed, which together
pin all randomness: rerunning the same config single-threaded reproduces
every estimate bit for bit (wall-clock time is the one report field
exempt from that guarantee).
"""

from __future__ import annotations

import hashlib
import json
import platform
import time
from dataclasses import dataclass, field
from pathlib import Path

import jsonschema
import numpy as np

from . import __version__
from .adaptation import AdaptationConfig, AdaptationReport, adapt
from .estimators import (
    KlEstimate,
    MeasurementDataset,
    kl_image,
    kl_invertible,
    kl_measurement,
)
from .gmm import GaussianMixture, sample
from .measurements import (
    BasisMismatch,
    OperatorSampler,
    ProjectionStats,
    estimate_projection_stats,
)
from .quadrature import SigmaGrid, make_log_grid, series_csv
from .rng import stream


class ConfigError(ValueError):
    """Invalid experiment configuration, with a field/line diagnostic."""


_GMM_DOC = {
    "type": "object",
    "additionalProperties": False,
    "required": ["weights", "means", "variances"],
    "properties": {
        "dim": {"type": "integer", "minimum": 1},
        "weights": {"type": "array", "items": {"type": "number"}, "minItems": 1},
        "means": {
            "type": "array",
            "items": {"type": "array", "items": {"type": "number"}},
            "minItems": 1,
        },
        "variances": {"type": "array", "items": {"type": "number"}, "minItems": 1},
    },
}

_MIXTURE_REF = {
    "oneOf": [
        {
            "type": "object",
            "additionalProperties": False,
            "required": ["file"],
            "properties": {"file": {"type": "string"}},
        },
        _GMM_DOC,
    ]
}

_SAMPLER = {
    "type": "object",
    "additionalProperties": False,
    "required": ["kind", "dim"],
    "properties": {
        "kind": {"enum": ["coordinate-mask", "patch-inpainting", "band-subsample"]},
        "dim": {"type": "integer", "minimum": 1},
        "base_seed": {"type": "integer", "minimum": 0},
        "keep_prob": {
            "oneOf": [
                {"type": "number", "minimum": 0, "maximum": 1},
                {
                    "type": "array",
                    "items": {"type": "number", "minimum": 0, "maximum": 1},
                },
            ]
        },
        "patch_edge": {"type": "integer", "minimum": 1},
        "low_count": {"type": "integer", "minimum": 0},
        "rand_count": {"type": "integer", "minimum": 0},
        "singular_value": {"type": "number", "exclusiveMinimum": 0},
        "basis": {
            "type": "object",
            "additionalProperties": False,
            "required": ["kind"],
            "properties": {
                "kind": {"enum": ["identity", "dense-orthogonal", "hadamard"]},
                "seed": {"type": "integer", "minimum": 0},
            },
        },
    },
}

CONFIG_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["schema_version", "seed", "mixtures", "grid", "estimators"],
    "properties": {
        "schema_version": {"const": 1},
        "seed": {"type": "integer", "minimum": 0},
        "mixtures": {
            "type": "object",
            "additionalProperties": False,
            "required": ["ind", "ood"],
            "properties": {"ind": _MIXTURE_REF, "ood": _MIXTURE_REF},
        },
        "grid": {
            "type": "object",
            "additionalProperties": False,
            "required": ["sigma_min", "sigma_max", "nodes"],
            "properties": {
                "sigma_min": {"type": "number", "exclusiveMinimum": 0},
                "sigma_max": {"type": "number", "exclusiveMinimum": 0},
                "nodes": {"type": "integer", "minimum": 2},
                "rule": {"enum": ["trapezoid", "left-riemann"]},
            },
        },
        "estimators": {
            "type": "array",
            "items": {"enum": ["image", "measurement", "invertible"]},
            "minItems": 1,
            "uniqueItems": True,
        },
        "n_samples": {"type": "integer", "minimum": 2},
        "measurement": {
            "type": "object",
            "additionalProperties": False,
            "required": ["sampler"],
            "properties": {
                "sampler": _SAMPLER,
                "n_measurements": {"type": "integer", "minimum": 1},
                "sigma_z": {"type": "number", "minimum": 0},
                "stats_draws": {"type": "integer", "minimum": 1},
                "data_file": {"type": "string"},
                "n_operators": {"type": "integer", "minimum": 1},
            },
        },
        "adaptation": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "trainable": {"enum": ["means-only", "means-and-weights"]},
                "optimizer": {"enum": ["gradient-descent", "adaptive-moments"]},
                "step_size": {"type": "number", "exclusiveMinimum": 0},
                "iterations": {"type": "integer", "minimum": 1},
                "batch": {"type": "integer", "minimum": 1},
                "sigma_draws": {"type": "integer", "minimum": 1},
                "shared_mask_batches": {"type": "boolean"},
                "eval_samples": {"type": "integer", "minimum": 2},
            },
        },
        "output_dir": {"type": "string"},
    },
}

DEFAULT_N_SAMPLES = 4096
DEFAULT_N_MEASUREMENTS = 1000
DEFAULT_STATS_DRAWS = 4096


def config_hash(config: dict) -> str:
    """sha256 of the canonical JSON encoding of the effective config."""
    blob = json.dumps(config, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def validate_config(config: dict) -> None:
    """Schema-check a config dict; raises ConfigError naming the bad field."""
    try:
        jsonschema.validate(config, CONFIG_SCHEMA)
    except jsonschema.ValidationError as err:
        raise ConfigError(f"config field {err.json_path}: {err.message}") from err


def load_config(path) -> dict:
    """Read, parse and validate a config file; resolves mixture file refs.

    File references inside mixtures are resolved relative to the config
    file's directory and inlined, so the returned dict is self-contained
    and its hash covers the actual mixtures used.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    try:
        config = json.loads(text)
    except json.JSONDecodeError as err:
        raise ConfigError(
            f"config {path} is not valid JSON: line {err.lineno} column {err.colno}: {err.msg}"
        ) from err
    validate_config(config)
    for side in ("ind", "ood"):
        ref = config["mixtures"][side]
        if "file" in ref:
            gmm_path = (path.parent / ref["file"]).resolve()
            try:
                config["mixtures"][side] = GaussianMixture.load(gmm_path).to_dict()
            except (OSError, ValueError, KeyError) as err:
                raise ConfigError(f"mixtures.{side}: cannot load {gmm_path}: {err}") from err
    return config


def _build_grid(config: dict) -> tuple[SigmaGrid, str]:
    g = config["grid"]
    grid = make_log_grid(g["sigma_min"], g["sigma_max"], g["nodes"])
    return grid, g.get("rule", "trapezoid")


def _build_mixtures(config: dict) -> tuple[GaussianMixture, GaussianMixture]:
    try:
        p = GaussianMixture.from_dict(config["mixtures"]["ind"])
        q = GaussianMixture.from_dict(config["mixtures"]["ood"])
    except ValueError as err:
        raise ConfigError(f"mixtures: {err}") from err
    if p.dim != q.dim:
        raise ConfigError(f"mixtures: ind dim {p.dim} != ood dim {q.dim}")
    return p, q


def _build_sampler(doc: dict) -> OperatorSampler:
    try:
        return OperatorSampler.from_dict(doc)
    except ValueError as err:
        raise ConfigError(f"measurement.sampler: {err}") from err


@dataclass
class RunReport:
    """Everything one run produced, ready for JSON emission."""

    config_hash: str
    seed: int
    estimates: dict[str, KlEstimate] = field(default_factory=dict)
    projection_stats: ProjectionStats | None = None
    adaptation: AdaptationReport | None = None
    adapted_mixture: GaussianMixture | None = None
    wall_clock_s: float = 0.0
    versions: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        doc = {
            "config_hash": self.config_hash,
            "seed": self.seed,
            "versions": self.versions,
            "wall_clock_s": self.wall_clock_s,
            "estimates": {
                mode: {**est.to_dict(), "config_hash": self.config_hash, "seed": self.seed}
                for mode, est in self.estimates.items()
            },
            "projection_stats": self.projection_stats.to_dict()
            if self.projection_stats
            else None,
            "adaptation": self.adaptation.to_dict() if self.adaptation else None,
        }
        return doc


def _versions() -> dict:
    return {
        "scoreshift": __version__,
        "numpy": np.__version__,
        "python": platform.python_version(),
    }


def run(
    config: dict, out_dir=None, workers: int = 1, dataset=None, stats=None
) -> RunReport:
    """Execute one validated config; optionally write report and CSV files.

    Outputs (when out_dir is given): report.json, one integrand_<mode>.csv
    per estimator, and adapted_mixture.json when adaptation ran.

    Args:
        dataset: pre-acquired MeasurementDataset to use instead of drawing
            one from the config (its sampler must match the config's);
            sweep uses this to measure the same draws across runs.
        stats: ProjectionStats from an earlier run, reused when they were
            estimated for this config's sampler with its stats_draws and
            re-estimated otherwise; sweep passes each run's stats on to
            the next, so axes that keep the sampler estimate E[P] once.
    """
    validate_config(config)
    started = time.perf_counter()
    seed = int(config["seed"])
    p, q = _build_mixtures(config)
    grid, rule = _build_grid(config)
    wanted = list(config["estimators"])

    report = RunReport(config_hash=config_hash(config), seed=seed, versions=_versions())

    data = None
    meas_cfg = config.get("measurement")
    needs_data = "measurement" in wanted or "invertible" in wanted or "adaptation" in config
    if needs_data and not meas_cfg:
        raise ConfigError(
            "measurement block required for measurement/invertible estimators or adaptation"
        )
    if needs_data:
        sampler = _build_sampler(meas_cfg["sampler"])
        if sampler.dim != p.dim:
            raise ConfigError(f"sampler dim {sampler.dim} != mixture dim {p.dim}")
        stats_draws = meas_cfg.get("stats_draws", DEFAULT_STATS_DRAWS)
        if (
            stats is None
            or stats.sampler_id != sampler.fingerprint()
            or stats.draws_used != stats_draws
        ):
            stats = estimate_projection_stats(sampler, stats_draws)
        report.projection_stats = stats
        if dataset is not None:
            if dataset.sampler.fingerprint() != sampler.fingerprint():
                raise BasisMismatch("provided dataset was acquired under a different sampler")
            data = dataset
        elif "data_file" in meas_cfg:
            data = MeasurementDataset.load(meas_cfg["data_file"])
            if data.sampler.fingerprint() != sampler.fingerprint():
                raise BasisMismatch(
                    "measurement.data_file was acquired under a different sampler"
                )
        else:
            n_meas = meas_cfg.get("n_measurements", DEFAULT_N_MEASUREMENTS)
            draws = sample(p, n_meas, stream(seed, "data-x"))
            data = MeasurementDataset.from_samples(
                sampler,
                draws,
                sigma_z=meas_cfg.get("sigma_z", 0.0),
                seed=seed,
                n_operators=meas_cfg.get("n_operators"),
            )

    if "image" in wanted:
        report.estimates["image"] = kl_image(
            p,
            q,
            grid,
            n_samples=config.get("n_samples", DEFAULT_N_SAMPLES),
            seed=seed,
            rule=rule,
            workers=workers,
        )
    if "measurement" in wanted:
        report.estimates["measurement"] = kl_measurement(
            p, q, data, stats, grid, seed=seed, rule=rule, workers=workers
        )
    if "invertible" in wanted:
        report.estimates["invertible"] = kl_invertible(
            p, q, data, grid, seed=seed, rule=rule, workers=workers
        )

    if "adaptation" in config:
        acfg_doc = dict(config["adaptation"])
        eval_samples = acfg_doc.pop("eval_samples", 2048)
        acfg = AdaptationConfig(seed=seed, **acfg_doc)
        adapted, adaptation = adapt(
            q, data, stats, acfg, grid, ind_model=p, n_image_samples=eval_samples
        )
        report.adaptation = adaptation
        report.adapted_mixture = adapted

    report.wall_clock_s = time.perf_counter() - started

    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "report.json", "w", encoding="utf-8") as fh:
            json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        for mode, est in report.estimates.items():
            (out / f"integrand_{mode}.csv").write_text(
                series_csv(est.grid, est.series, est.rule), encoding="utf-8"
            )
        if report.adapted_mixture is not None:
            report.adapted_mixture.save(out / "adapted_mixture.json")
    return report


SWEEP_AXES = ("keep_prob", "n_measurements", "sigma_z")


def sweep(config: dict, axis: str, values, out_dir=None, workers: int = 1):
    """One run per axis value; same data draws, estimator seeds offset by index.

    The clean draws behind the measurements come from the base seed for
    every run, so the axis isolates what it varies: keep_prob changes only
    the masks, sigma_z only the measurement noise, n_measurements only how
    many of the shared draws are used. The per-run seed (recorded in each
    report) is base seed + index. E[P] is estimated once per distinct
    sampler: the sigma_z and n_measurements axes share one estimate.

    Returns (reports, summary_rows) where each summary row is
    (axis_value, kl_measurement, kl_image, abs_gap).
    """
    validate_config(config)
    if axis not in SWEEP_AXES:
        raise ConfigError(f"sweep axis must be one of {SWEEP_AXES}, got {axis!r}")
    if "measurement" not in config:
        raise ConfigError("sweep needs a measurement block")
    if not values:
        raise ConfigError("sweep needs at least one axis value")
    for mode in ("image", "measurement"):
        if mode not in config["estimators"]:
            raise ConfigError(f"sweep requires the {mode!r} estimator")

    base_seed = int(config["seed"])
    p, _ = _build_mixtures(config)
    base_n = config["measurement"].get("n_measurements", DEFAULT_N_MEASUREMENTS)
    max_n = base_n
    if axis == "n_measurements":
        max_n = max(int(v) for v in values)
    shared_draws = sample(p, max_n, stream(base_seed, "data-x"))

    reports = []
    rows = []
    stats = None
    for i, value in enumerate(values):
        variant = json.loads(json.dumps(config))
        n_meas = base_n
        if axis == "keep_prob":
            if variant["measurement"]["sampler"].get("kind") not in (
                "coordinate-mask",
                "patch-inpainting",
            ):
                raise ConfigError("keep_prob sweep needs a mask sampler")
            variant["measurement"]["sampler"]["keep_prob"] = float(value)
        elif axis == "n_measurements":
            n_meas = int(value)
            variant["measurement"]["n_measurements"] = n_meas
        else:
            variant["measurement"]["sigma_z"] = float(value)
        variant["seed"] = base_seed + i
        data = MeasurementDataset.from_samples(
            _build_sampler(variant["measurement"]["sampler"]),
            shared_draws[:n_meas],
            sigma_z=variant["measurement"].get("sigma_z", 0.0),
            seed=base_seed,
            n_operators=variant["measurement"].get("n_operators"),
        )
        sub = Path(out_dir) / f"{axis}={value}" if out_dir is not None else None
        report = run(variant, sub, workers, dataset=data, stats=stats)
        stats = report.projection_stats
        reports.append(report)
        km = report.estimates["measurement"].value
        ki = report.estimates["image"].value
        rows.append((float(value), km, ki, abs(km - ki)))

    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        lines = ["axis_value,kl_measurement,kl_image,abs_gap"]
        lines += [f"{a:.17g},{b:.17g},{c:.17g},{d:.17g}" for a, b, c, d in rows]
        (out / "summary.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return reports, rows
