"""Config-driven experiment runs: validation, execution, report emission.

A run is one JSON document with a versioned schema, checked against the subset
of JSON Schema it uses (integers must be JSON integers, numbers finite);
unknown keys are rejected so stale configs fail loudly. Every output file
records the hash of the effective config and the seed, which pin all randomness:
rerunning the same config single-threaded reproduces every estimate bit for
bit (wall-clock time is the one report field exempt from that guarantee).
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import platform
import reprlib
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .adaptation import AdaptationConfig, AdaptationReport, adapt
from .estimators import (
    KlEstimate,
    MeasurementDataset,
    check_full_rank,
    kl_image,
    kl_invertible,
    kl_measurement,
)
from .gmm import GaussianMixture, sample
from .measurements import (
    BasisMismatch,
    OperatorSampler,
    estimate_projection_stats,
    sample_operator,
)
from .quadrature import SigmaGrid, series_csv
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
                "data_file": {"type": "string"},
                "n_operators": {"type": "integer", "minimum": 1},
            },
        },
        "adaptation": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "trainable": {"enum": ["means-only", "means-and-weights"]},
                "step_size": {"type": "number", "exclusiveMinimum": 0},
                "iterations": {"type": "integer", "minimum": 1},
                "batch": {"type": "integer", "minimum": 1},
                "sigma_draws": {"type": "integer", "minimum": 1},
                "eval_samples": {"type": "integer", "minimum": 2},
            },
        },
    },
}

DEFAULT_N_SAMPLES = 4096
DEFAULT_N_MEASUREMENTS = 1000


def config_hash(config: dict) -> str:
    """sha256 of the canonical JSON encoding of the effective config."""
    blob = json.dumps(config, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


_TYPES = dict(object=dict, array=list, string=str, boolean=bool, integer=int, number=(int, float))


def _same(a, b) -> bool:
    """JSON equality: 1 equals 1.0, and True equals neither."""
    return a == b and isinstance(a, bool) == isinstance(b, bool)


def _one_of_error(value, forms: list, errors: list, path: str) -> tuple[str, str]:
    """The (json path, message) to report for a value valid under no form or several.

    When every form fails and exactly one form fits value (value has its
    type, all its required keys and no key that only another form knows),
    that form's error is the one that names the bad field. Otherwise the
    failure that got deepest into value, if one got past path, or a summary
    with value shortened, so a large inline mixture is not dumped whole.
    """
    keys = set(value) if isinstance(value, dict) else set()
    known = [set(form.get("properties", ())) for form in forms]
    fitting = [
        err for err, form, own in zip(errors, forms, known)
        if isinstance(value, _TYPES[form["type"]])
        and set(form.get("required", ())) <= keys and not (keys & set().union(*known)) - own
    ]
    if None not in errors and len(fitting) == 1:
        return fitting[0]
    unfit = (path, f"{reprlib.repr(value)} is not valid under exactly one of the allowed forms")
    return max([unfit, *filter(None, errors)], key=lambda err: len(err[0]))


def _schema_errors(value, schema: dict, path: str):
    """Yield (json path, message) for each way value breaks schema, for the keywords
    CONFIG_SCHEMA uses. Callers take the first, so a check may assume earlier ones held."""
    if "oneOf" in schema:
        errors = [next(_schema_errors(value, alt, path), None) for alt in schema["oneOf"]]
        if errors.count(None) != 1:
            yield _one_of_error(value, schema["oneOf"], errors, path)
    kind = schema.get("type")
    if kind and (not isinstance(value, _TYPES[kind])
                 or isinstance(value, bool) != (kind == "boolean")):
        yield path, f"{value!r} is not of type {kind!r}"
    if kind == "number" and isinstance(value, float) and not math.isfinite(value):
        yield path, f"{value!r} is not a finite number"
    if "const" in schema and not _same(value, schema["const"]):
        yield path, f"{schema['const']!r} was expected, got {value!r}"
    if "enum" in schema and not any(_same(value, v) for v in schema["enum"]):
        yield path, f"{value!r} is not one of {schema['enum']!r}"
    for key, holds in (("minimum", lambda bound: value >= bound),
                       ("maximum", lambda bound: value <= bound),
                       ("exclusiveMinimum", lambda bound: value > bound)):
        if key in schema and not holds(schema[key]):
            yield path, f"{value!r} is out of range: {key} is {schema[key]!r}"
    for key in schema.get("required", ()):
        if key not in value:
            yield path, f"{key!r} is a required property"
    if schema.get("additionalProperties") is False:
        for key in [k for k in value if k not in schema["properties"]]:
            yield path, f"unknown key {key!r}"
    for key, sub in schema.get("properties", {}).items():
        if key in value:
            yield from _schema_errors(value[key], sub, f"{path}.{key}")
    for i, item in enumerate(value if "items" in schema else ()):
        yield from _schema_errors(item, schema["items"], f"{path}[{i}]")
    if "minItems" in schema and len(value) < schema["minItems"]:
        yield path, f"{value!r} has fewer than {schema['minItems']} items"
    if schema.get("uniqueItems"):
        if any(_same(a, b) for i, a in enumerate(value) for b in value[:i]):
            yield path, f"{value!r} has non-unique elements"


def validate_config(config: dict) -> None:
    """Check config against CONFIG_SCHEMA (a JSON Schema subset; integers must be
    JSON integers, not 4.0, and numbers finite); raises ConfigError naming the bad field."""
    for path, message in _schema_errors(config, CONFIG_SCHEMA, "$"):
        raise ConfigError(f"config field {path}: {message}")


def load_config(path) -> dict:
    """Read, parse and validate a config file; resolves file refs.

    Mixture file refs and measurement.data_file resolve against the config
    file's directory. Mixtures are inlined, so the hash covers the actual
    mixtures used; data_file becomes an absolute path.
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
    meas = config.get("measurement", {})
    if "data_file" in meas:
        meas["data_file"] = str((path.parent / meas["data_file"]).resolve())
    return config


def _build_grid(config: dict) -> SigmaGrid:
    g = config["grid"]
    try:
        return SigmaGrid(g["sigma_min"], g["sigma_max"], g["nodes"])
    except ValueError as err:
        raise ConfigError(f"grid: {err}") from err


def _build_mixtures(config: dict) -> tuple[GaussianMixture, GaussianMixture]:
    for side in ("ind", "ood"):
        if "file" in config["mixtures"][side]:
            raise ConfigError(f"mixtures.{side}: a file ref; load_config resolves file refs")
    try:
        p = GaussianMixture.from_dict(config["mixtures"]["ind"])
        q = GaussianMixture.from_dict(config["mixtures"]["ood"])
    except ValueError as err:
        raise ConfigError(f"mixtures: {err}") from err
    if p.dim != q.dim:
        raise ConfigError(f"mixtures: ind dim {p.dim} != ood dim {q.dim}")
    return p, q


def _build_sampler(meas: dict, dim: int) -> OperatorSampler:
    try:
        sampler = OperatorSampler.from_dict(meas["sampler"])
    except ValueError as err:
        raise ConfigError(f"measurement.sampler: {err}") from err
    if sampler.dim != dim:
        raise ConfigError(f"sampler dim {sampler.dim} != mixture dim {dim}")
    return sampler


def _n_measurements(meas: dict) -> int:
    return meas.get("n_measurements", DEFAULT_N_MEASUREMENTS)


def _acquire(sampler: OperatorSampler, meas: dict, draws, seed: int) -> MeasurementDataset:
    """The dataset meas describes: its first n_measurements draws measured by sampler."""
    return MeasurementDataset.from_samples(
        sampler,
        draws[: _n_measurements(meas)],
        sigma_z=meas.get("sigma_z", 0.0),
        seed=seed,
        n_operators=meas.get("n_operators"),
    )


@dataclass
class RunReport:
    """Everything one run produced, ready for JSON emission."""

    config_hash: str
    seed: int
    estimates: dict[str, KlEstimate] = field(default_factory=dict)
    ep_diag: np.ndarray | None = None
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
            "projection_stats": {"ep_diag": self.ep_diag.tolist()}
            if self.ep_diag is not None
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


def run(config: dict, out_dir=None, workers: int = 1, dataset=None) -> RunReport:
    """Execute one validated config; optionally write report and CSV files.

    Outputs (when out_dir is given): report.json, one integrand_<mode>.csv
    per estimator, and adapted_mixture.json when adaptation ran. The
    report's projection_stats holds ep_diag, E[P] of the run's dataset,
    the frequency the estimators weight with. Adaptation runs first, so a
    diverging one stops the run before any estimator; its
    kl_measurement_before (same p, q, data, grid, seed) is the run's.

    Args:
        dataset: pre-acquired MeasurementDataset to use instead of drawing
            one from the config (its sampler must match the config's);
            sweep uses this to measure the same draws across runs.
    """
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    validate_config(config)
    started = time.perf_counter()
    seed = int(config["seed"])
    p, q = _build_mixtures(config)
    grid = _build_grid(config)
    wanted = list(config["estimators"])

    report = RunReport(config_hash=config_hash(config), seed=seed, versions=_versions())

    data = dataset
    meas_cfg = config.get("measurement")
    needs_data = "measurement" in wanted or "invertible" in wanted or "adaptation" in config
    if needs_data and not meas_cfg:
        raise ConfigError(
            "measurement block required for measurement/invertible estimators or adaptation"
        )
    if needs_data:
        sampler = _build_sampler(meas_cfg, p.dim)
        if data is None and "data_file" in meas_cfg:
            try:
                data = MeasurementDataset.load(meas_cfg["data_file"])
            except (OSError, ValueError, KeyError, TypeError) as err:
                raise ConfigError(
                    f"measurement.data_file: cannot load {meas_cfg['data_file']}: "
                    f"{type(err).__name__}: {err}"
                ) from err
        if data is None:
            # not bound to a name, so the draws are freed once measured
            data = _acquire(
                sampler, meas_cfg, sample(p, _n_measurements(meas_cfg), stream(seed, "data-x")),
                seed,
            )
        elif data.sampler.to_dict() != sampler.to_dict():
            raise BasisMismatch("the data's sampler differs from measurement.sampler")
        report.ep_diag = estimate_projection_stats(data.support)
        if "invertible" in wanted:
            check_full_rank(data.op_index, data.support)

    if "adaptation" in config:
        acfg = AdaptationConfig(seed=seed, **config["adaptation"])
        report.adapted_mixture, report.adaptation = adapt(
            q, data, acfg, grid, ind_model=p, workers=workers
        )

    if "image" in wanted:
        n_samples = config.get("n_samples", DEFAULT_N_SAMPLES)
        report.estimates["image"] = kl_image(
            p, q, grid, n_samples=n_samples, seed=seed, workers=workers
        )
    if "measurement" in wanted:
        report.estimates["measurement"] = (
            report.adaptation.kl_measurement_before
            if report.adaptation is not None
            else kl_measurement(p, q, data, grid, seed=seed, workers=workers)
        )
    if "invertible" in wanted:
        report.estimates["invertible"] = kl_invertible(
            p, q, data, grid, seed=seed, workers=workers
        )

    report.wall_clock_s = time.perf_counter() - started

    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "report.json", "w", encoding="utf-8") as fh:
            json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        for mode, est in report.estimates.items():
            (out / f"integrand_{mode}.csv").write_text(
                series_csv(est.grid, est.node_means, est.node_stderrs), encoding="utf-8"
            )
        if report.adapted_mixture is not None:
            report.adapted_mixture.save(out / "adapted_mixture.json")
    return report


# each axis a sweep can vary: the type of its values and its place in a config
SWEEP_AXES = {
    "keep_prob": (float, ("measurement", "sampler", "keep_prob")),
    "n_measurements": (int, ("measurement", "n_measurements")),
    "sigma_z": (float, ("measurement", "sigma_z")),
}


def sweep(config: dict, axis: str, values, out_dir=None, workers: int = 1):
    """One run per axis value; same data draws, estimator seeds offset by index.

    Run i's config is config with the axis set to values[i] and the seed
    base seed + i. Every run's config and sampler are checked before any
    draw, so a bad value raises ConfigError naming the field and nothing is
    written; so are, for the invertible estimator, the ranks of the
    operators each run will measure with (RankDeficient). The clean draws
    come from the base seed for every run, so the axis isolates what it
    varies: keep_prob changes only the masks, sigma_z only the measurement
    noise, n_measurements only how many of the shared draws are used. Each
    run takes E[P] from its own dataset, as a run of that config alone
    would, and writes to out_dir/<axis>=<value>, so values equal as floats
    raise ConfigError before any run.

    Returns (reports, summary_rows) where each summary row is
    (axis_value, kl_measurement, kl_image, abs_gap).
    """
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    validate_config(config)
    if axis not in SWEEP_AXES:
        raise ConfigError(f"sweep axis must be one of {tuple(SWEEP_AXES)}, got {axis!r}")
    if "measurement" not in config:
        raise ConfigError("sweep needs a measurement block")
    if "data_file" in config["measurement"]:
        raise ConfigError("measurement.data_file: a sweep acquires its own measurements")
    if not values:
        raise ConfigError("sweep needs at least one axis value")
    if len({float(v) for v in values}) < len(values):
        raise ConfigError(f"sweep axis values repeat; a run would overwrite another: {values}")
    for mode in ("image", "measurement"):
        if mode not in config["estimators"]:
            raise ConfigError(f"sweep requires the {mode!r} estimator")

    base_seed = int(config["seed"])
    p, _ = _build_mixtures(config)
    kind, (*parents, key) = SWEEP_AXES[axis]
    variants = []
    for i, value in enumerate(values):
        variant = json.loads(json.dumps(config))
        functools.reduce(dict.__getitem__, parents, variant)[key] = kind(value)
        variant["seed"] = base_seed + i
        validate_config(variant)
        meas = variant["measurement"]
        sampler = _build_sampler(meas, p.dim)
        if "invertible" in variant["estimators"]:
            count = _n_measurements(meas)
            ops = range(min(count, meas.get("n_operators", count)))
            check_full_rank(np.array(ops), np.array([sample_operator(sampler, i) for i in ops]))
        variants.append((variant, sampler))
    most = max(_n_measurements(variant["measurement"]) for variant, _ in variants)
    shared_draws = sample(p, most, stream(base_seed, "data-x"))

    reports, rows = [], []
    for value, (variant, sampler) in zip(values, variants):
        data = _acquire(sampler, variant["measurement"], shared_draws, base_seed)
        sub = Path(out_dir) / f"{axis}={value}" if out_dir is not None else None
        reports.append(run(variant, sub, workers, dataset=data))
        km, ki = (reports[-1].estimates[mode].value for mode in ("measurement", "image"))
        rows.append((float(value), km, ki, abs(km - ki)))

    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        lines = ["axis_value,kl_measurement,kl_image,abs_gap"]
        lines += [f"{a:.17g},{b:.17g},{c:.17g},{d:.17g}" for a, b, c, d in rows]
        (out / "summary.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return reports, rows
