"""Config-driven experiment runs: validation, execution, report emission.

A run is one JSON document with a versioned schema, checked against the subset
of JSON Schema it uses (integers must be JSON integers of at most 64 bits,
numbers finite); unknown keys are rejected so stale configs fail loudly. Every
output file records the hash of the effective config and the seed, which pin
all randomness: rerunning the same config single-threaded reproduces every
estimate bit for bit (wall-clock time is the one report field exempt from that
guarantee).
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import math
import numbers
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
from .measurements import BasisMismatch, OperatorSampler, estimate_projection_stats
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

_SAMPLER = {
    "type": "object",
    "additionalProperties": False,
    "required": ["kind", "dim"],
    "properties": {
        "kind": {"enum": ["coordinate-mask", "patch-inpainting", "band-subsample"]},
        "dim": {"type": "integer", "minimum": 1},
        "base_seed": {"type": "integer", "minimum": 0},
        "keep_prob": {
            "type": ["number", "array"],
            "minimum": 0,
            "maximum": 1,
            "items": {"type": "number", "minimum": 0, "maximum": 1},
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

# the config run reads and hashes; in a config file a mixture may instead be
# {"file": path}, which load_config inlines
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
            "properties": {"ind": _GMM_DOC, "ood": _GMM_DOC},
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


def _is(value, kind: str) -> bool:
    """Whether value is a JSON value of kind: a bool is only a boolean, 4.0 is no integer."""
    return isinstance(value, _TYPES[kind]) and isinstance(value, bool) == (kind == "boolean")


def _finite(value) -> bool:
    """Whether a JSON number is a finite float, which an integer too large for one is not."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _shown(value) -> str:
    """repr(value), but an integer past 64 bits by its bit length: its digits
    are no use in a message, and past 4,300 of them repr raises ValueError."""
    if _is(value, "integer") and value.bit_length() > 64:
        return f"an integer of {value.bit_length()} bits"
    return repr(value)


def _schema_errors(value, schema: dict, path: str):
    """Yield (json path, message) for each way value breaks schema, for the keywords
    CONFIG_SCHEMA uses. As in JSON Schema, a value not of its type gets no other
    check, and the numeric, object and array keywords apply only to values of theirs.
    Beyond JSON Schema, an integer field holds 64 bits (seeds, counts and sizes
    go to numpy) and a number field a float."""
    kind = schema.get("type")
    kinds = [kind] if isinstance(kind, str) else kind or []
    if kinds and not any(_is(value, k) for k in kinds):
        yield path, f"{_shown(value)} is not of type {kind!r}"
        return
    if "integer" in kinds and _is(value, "integer") and value.bit_length() > 64:
        yield path, f"{_shown(value)} does not fit in 64 bits"
        return
    if "number" in kinds and _is(value, "number") and not _finite(value):
        yield path, (f"{value!r} is not a finite number" if isinstance(value, float)
                     else f"{_shown(value)} is too large for a float")
        return
    if "const" in schema and not _same(value, schema["const"]):
        yield path, f"{schema['const']!r} was expected, got {_shown(value)}"
    if "enum" in schema and not any(_same(value, v) for v in schema["enum"]):
        yield path, f"{_shown(value)} is not one of {schema['enum']!r}"
    if _is(value, "number"):
        for key, holds in (("minimum", lambda bound: value >= bound),
                           ("maximum", lambda bound: value <= bound),
                           ("exclusiveMinimum", lambda bound: value > bound)):
            if key in schema and not holds(schema[key]):
                yield path, f"{_shown(value)} is out of range: {key} is {schema[key]!r}"
    if isinstance(value, dict):
        for key in schema.get("required", ()):
            if key not in value:
                yield path, f"{key!r} is a required property"
        if schema.get("additionalProperties") is False:
            for key in [k for k in value if k not in schema["properties"]]:
                yield path, f"unknown key {key!r}"
        for key, sub in schema.get("properties", {}).items():
            if key in value:
                yield from _schema_errors(value[key], sub, f"{path}.{key}")
    if isinstance(value, list):
        for i, item in enumerate(value if "items" in schema else ()):
            yield from _schema_errors(item, schema["items"], f"{path}[{i}]")
        if "minItems" in schema and len(value) < schema["minItems"]:
            yield path, f"{value!r} has fewer than {schema['minItems']} items"
        if schema.get("uniqueItems"):
            if any(_same(a, b) for i, a in enumerate(value) for b in value[:i]):
                yield path, f"{value!r} has non-unique elements"


def validate_config(config: dict) -> None:
    """Check config against CONFIG_SCHEMA (a JSON Schema subset; integers must be
    JSON integers of at most 64 bits, not 4.0, and numbers finite); raises ConfigError
    naming the bad field."""
    for path, message in _schema_errors(config, CONFIG_SCHEMA, "$"):
        raise ConfigError(f"config field {path}: {message}")


def _read_json(path: Path, what: str):
    """The JSON document in the file at path, as read; a file that cannot be read
    or is not JSON raises a ConfigError that names it as what."""
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as err:
        raise ConfigError(
            f"{what} {path} is not valid JSON: line {err.lineno} column {err.colno}: {err.msg}"
        ) from err
    except (OSError, ValueError) as err:  # ValueError: bad UTF-8, or an over-long integer
        raise ConfigError(f"cannot read {what} {path}: {err}") from err


def load_config(path) -> dict:
    """Read and parse a config file, resolving what it names relative to itself.

    A mixture given as {"file": path} is inlined from that file as read, so the
    hash covers the mixtures used and the schema checks them as it checks an
    inline one. A string measurement.data_file becomes an absolute path. Both
    resolve against the config file's directory. Nothing else is checked here:
    run and sweep check the config they are given.
    """
    path = Path(path)
    config = _read_json(path, "config")
    if not isinstance(config, dict):
        raise ConfigError(f"config field $: {reprlib.repr(config)} is not of type 'object'")
    mixtures = config.get("mixtures")
    for side in ("ind", "ood") if isinstance(mixtures, dict) else ():
        ref = mixtures.get(side)
        if not (isinstance(ref, dict) and "file" in ref):
            continue
        if set(ref) != {"file"} or not isinstance(ref["file"], str):
            raise ConfigError(
                f"config field $.mixtures.{side}: a file ref is {{'file': path}} alone, "
                f"got {reprlib.repr(ref)}"
            )
        mixtures[side] = _read_json((path.parent / ref["file"]).resolve(), f"mixtures.{side} file")
    meas = config.get("measurement")
    if isinstance(meas, dict) and isinstance(meas.get("data_file"), str):
        meas["data_file"] = str((path.parent / meas["data_file"]).resolve())
    return config


def _checked(config: dict, workers: int):
    """(p, q, grid, sampler) of a config that passes every check needing no draw,
    made once per config and handed to _prepared; sampler is None when no
    estimator and no adaptation reads measurements."""
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    validate_config(config)
    try:
        p, q = (GaussianMixture.from_dict(config["mixtures"][side]) for side in ("ind", "ood"))
    except ValueError as err:
        raise ConfigError(f"mixtures: {err}") from err
    if p.dim != q.dim:
        raise ConfigError(f"mixtures: ind dim {p.dim} != ood dim {q.dim}")
    g = config["grid"]
    try:
        grid = SigmaGrid(g["sigma_min"], g["sigma_max"], g["nodes"])
    except ValueError as err:
        raise ConfigError(f"grid: {err}") from err
    wanted = config["estimators"]
    if not ("measurement" in wanted or "invertible" in wanted or "adaptation" in config):
        return p, q, grid, None
    if "measurement" not in config:
        raise ConfigError(
            "measurement block required for measurement/invertible estimators or adaptation"
        )
    try:
        sampler = OperatorSampler.from_dict(config["measurement"]["sampler"])
    except ValueError as err:
        raise ConfigError(f"measurement.sampler: {err}") from err
    if sampler.dim != p.dim:
        raise ConfigError(f"sampler dim {sampler.dim} != mixture dim {p.dim}")
    return p, q, grid, sampler


def _made(out_dir) -> Path | None:
    """out_dir as a created directory, or None; one that cannot be made is a ConfigError."""
    if out_dir is None:
        return None
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise ConfigError(f"cannot create output directory {out}: {err}") from err
    return out


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
    data_sha256: str | None = None  # of the data file's bytes, when the run read one

    def to_dict(self) -> dict:
        return {
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
            **({"data_sha256": self.data_sha256} if self.data_sha256 else {}),
        }


def _versions() -> dict:
    return {
        "scoreshift": __version__,
        "numpy": np.__version__,
        "python": platform.python_version(),
    }


def run(config: dict, out_dir=None, workers: int = 1) -> RunReport:
    """Execute one validated config; optionally write report and CSV files.

    The run reads nothing but config: its measurements are the data_file's,
    or else its own n_measurements draws from p at the config's seed.
    Outputs (when out_dir is given): report.json, one integrand_<mode>.csv
    per estimator, and adapted_mixture.json when adaptation ran. The
    report's projection_stats holds ep_diag, E[P] of the run's dataset,
    the frequency the estimators weight with. Each step runs once: _checked
    checks the config, _prepared builds and checks its dataset, and only then
    is out_dir made and _run executes; wall_clock_s times the last two. Adaptation
    runs first, so a diverging one stops the run before any estimator. Its
    kl_measurement_before (same p, q, data, grid, seed) is the run's
    measurement estimate, and its kl_image_before the run's image one: with
    the image estimator, adaptation's before/after pair is drawn at the run's
    n_samples unless adaptation.eval_samples says otherwise.
    """
    return _run(config, _prepared(config, _checked(config, workers)), out_dir, workers)


def _prepared(config: dict, checked):
    """(p, q, grid, data, ep_diag, digest, seconds) of a config from its _checked
    value, once its dataset's checks have passed (SpanViolation; for the
    invertible estimator, RankDeficient); it checks no config. data is None when
    nothing reads measurements; digest is the sha256 of the data file's bytes,
    or None with no data file; seconds, the dataset build's, counts in
    wall_clock_s."""
    started = time.perf_counter()
    p, q, grid, sampler = checked
    data = ep_diag = digest = None
    if sampler is not None:
        meas_cfg = config["measurement"]
        seed = config["seed"]
        if "data_file" in meas_cfg:
            try:
                data = MeasurementDataset.load(meas_cfg["data_file"])
                digest = hashlib.sha256(Path(meas_cfg["data_file"]).read_bytes()).hexdigest()
            except (OSError, ValueError, KeyError, TypeError) as err:
                raise ConfigError(
                    f"measurement.data_file: cannot load {meas_cfg['data_file']}: "
                    f"{type(err).__name__}: {err}"
                ) from err
            if data.sampler != sampler:
                raise BasisMismatch("the data's sampler differs from measurement.sampler")
        else:
            # the draws are not bound to a name, so they are freed once measured
            data = MeasurementDataset.from_samples(
                sampler,
                sample(p, meas_cfg.get("n_measurements", DEFAULT_N_MEASUREMENTS),
                       stream(seed, "data-x")),
                sigma_z=meas_cfg.get("sigma_z", 0.0),
                seed=seed,
                n_operators=meas_cfg.get("n_operators"),
            )
        ep_diag = estimate_projection_stats(data.support)
        if "invertible" in config["estimators"]:
            check_full_rank(data.op_index, data.support)
    return p, q, grid, data, ep_diag, digest, time.perf_counter() - started


def _run(config: dict, prepared, out_dir, workers: int, image: KlEstimate | None = None):
    """run of config from its _prepared value, taking image as the image
    estimate when given. sweep passes the one its first run made, which
    reads nothing a sweep axis sets; that saves sweep64-dense two of its
    three image passes. Else an adapting run takes adaptation's
    kl_image_before when it was drawn at the run's n_samples, which is
    kl_image(p, q, grid, n_samples, seed) bit for bit."""
    started = time.perf_counter()
    p, q, grid, data, ep_diag, digest, seconds = prepared
    seed = config["seed"]
    wanted = config["estimators"]
    report = RunReport(config_hash=config_hash(config), seed=seed, ep_diag=ep_diag,
                       versions=_versions(), data_sha256=digest)
    out = _made(out_dir)

    n_samples = config.get("n_samples", DEFAULT_N_SAMPLES)
    if "adaptation" in config:
        # toy-adapt pays for reusing adaptation's before-estimates as the run's own
        given = {"eval_samples": n_samples} if "image" in wanted else {}
        acfg = AdaptationConfig(seed=seed, **{**given, **config["adaptation"]})
        report.adapted_mixture, report.adaptation = adapt(
            q, data, acfg, grid, ind_model=p, workers=workers
        )
        if report.adaptation.kl_image_before.n_samples == n_samples:
            image = image or report.adaptation.kl_image_before

    if "image" in wanted:
        report.estimates["image"] = image or kl_image(
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

    report.wall_clock_s = seconds + time.perf_counter() - started

    if out is not None:
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
    """One run per axis value, every one at the config's seed; only the axis moves.

    Run i's config is config with the axis set to values[i] (values is any
    sequence, a numpy array too), converted only when exact: an integer
    (numpy's too) to int for n_measurements, a real number to float for
    sigma_z and keep_prob, never a bool. Any other value,
    and an integer too large for a float, goes to the schema as given, which
    refuses it as it would in a file; a value the schema takes that is no
    number (a keep_prob vector) is refused after it. Every run's config is
    checked once, before any draw, and values equal as floats are refused then
    too, as each run writes to out_dir/<axis>=<value>. Then every run is
    prepared from that check before any executes, so a value whose dataset a
    run refuses (SpanViolation, RankDeficient) stops the sweep before any
    estimate or output. Each report is run(its config), apart from
    wall_clock_s, its dataset build plus its execution, and each value's
    operators are drawn once, for its own dataset. Sharing the seed,
    sigma_z and keep_prob values measure the same clean draws with the same
    noise streams (common random numbers), so keep_prob changes only the masks
    and sigma_z only the noise's scale; an n_measurements value draws its own
    rows. The image estimate reads p, q, the grid, n_samples and the seed, none
    of which an axis sets, so the first run makes it and every report carries
    that one estimate.

    Returns (reports, summary_rows) where each summary row is
    (axis_value, kl_measurement, kl_image, abs_gap).
    """
    validate_config(config)
    if axis not in SWEEP_AXES:
        raise ConfigError(f"sweep axis must be one of {tuple(SWEEP_AXES)}, got {axis!r}")
    if "measurement" not in config:
        raise ConfigError("sweep needs a measurement block")
    if "data_file" in config["measurement"]:
        raise ConfigError("measurement.data_file: a sweep acquires its own measurements")
    kind, (*parents, key) = SWEEP_AXES[axis]
    exact = numbers.Integral if kind is int else numbers.Real

    def plain(v):
        if isinstance(v, exact) and not isinstance(v, bool):
            with contextlib.suppress(OverflowError):  # an integer too large for a float
                return kind(v)
        return v

    values = [plain(v) for v in values]
    if not values:
        raise ConfigError("sweep needs at least one axis value")
    for mode in ("image", "measurement"):
        if mode not in config["estimators"]:
            raise ConfigError(f"sweep requires the {mode!r} estimator")

    checked = []
    for value in values:
        variant = json.loads(json.dumps(config))
        functools.reduce(dict.__getitem__, parents, variant)[key] = value
        checked.append((variant, _checked(variant, workers)))
        if not isinstance(value, numbers.Real):  # a keep_prob vector passes the schema
            raise ConfigError(f"sweep axis values must be numbers, got {_shown(value)}")
    if len({float(v) for v in values}) < len(values):
        raise ConfigError(f"sweep axis values repeat; a run would overwrite another: {values}")
    runs = [(variant, _prepared(variant, checks)) for variant, checks in checked]
    out = _made(out_dir)

    reports, rows, image = [], [], None
    for value, (variant, prepared) in zip(values, runs):
        sub = out / f"{axis}={value}" if out is not None else None
        reports.append(_run(variant, prepared, sub, workers, image))
        image = reports[-1].estimates["image"]
        km, ki = (reports[-1].estimates[mode].value for mode in ("measurement", "image"))
        rows.append((float(value), km, ki, abs(km - ki)))

    if out is not None:
        lines = ["axis_value,kl_measurement,kl_image,abs_gap"]
        lines += [f"{a:.17g},{b:.17g},{c:.17g},{d:.17g}" for a, b, c, d in rows]
        (out / "summary.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return reports, rows
