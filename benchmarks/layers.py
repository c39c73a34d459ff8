"""Where the traced run wraps the package, and the per-layer metrics it derives.

Modules bind the names they import, so each function is wrapped in every
module that looks it up (``estimators.score`` and ``adaptation.score`` as
well as ``gmm.score``); all bindings of one function share a span name.
"""

from __future__ import annotations

import importlib

from tracer import Tracer


def _rows(x) -> int:
    shape = getattr(x, "shape", ())
    return int(shape[0]) if len(shape) == 2 else 1


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _score_count(args, kwargs) -> dict:
    gmm = _arg(args, kwargs, 0, "gmm")
    rows = _rows(_arg(args, kwargs, 1, "x"))
    return {"gmm.score.elems": rows * gmm.n_components * gmm.dim}


def _basis_count(direction: str):
    def count(args, kwargs) -> dict:
        return {f"measurements.basis.{direction}.rows": _rows(args[1])}

    return count


def _from_samples_count(args, kwargs) -> dict:
    # classmethod body: (cls, sampler, points, ...)
    return {"estimators.dataset.measurements": len(_arg(args, kwargs, 2, "points"))}


# (module, attribute, span name, counter hook); a dotted attribute names a
# method as Class.method.
PATCHES = [
    ("gmm", "score", "gmm.score", _score_count),
    ("estimators", "score", "gmm.score", _score_count),
    ("adaptation", "score", "gmm.score", _score_count),
    ("gmm", "sample", "gmm.sample", None),
    ("estimators", "sample", "gmm.sample", None),
    ("experiments", "sample", "gmm.sample", None),
    ("measurements", "RightBasis.forward", "measurements.basis.forward", _basis_count("forward")),
    ("measurements", "RightBasis.inverse", "measurements.basis.inverse", _basis_count("inverse")),
    ("measurements", "sample_operator", "measurements.sample_operator", None),
    ("estimators", "sample_operator", "measurements.sample_operator", None),
    ("estimators", "to_projected", "measurements.to_projected", None),
    ("experiments", "estimate_projection_stats", "measurements.estimate_projection_stats", None),
    ("rng", "stream", "rng.stream", None),
    ("measurements", "stream", "rng.stream", None),
    ("estimators", "stream", "rng.stream", None),
    ("adaptation", "stream", "rng.stream", None),
    ("experiments", "stream", "rng.stream", None),
    ("estimators", "MeasurementDataset.operators", "estimators.dataset.operators", None),
    (
        "estimators",
        "MeasurementDataset.from_samples",
        "estimators.dataset.from_samples",
        _from_samples_count,
    ),
    ("experiments", "kl_image", "estimators.kl_image", None),
    ("experiments", "kl_measurement", "estimators.kl_measurement", None),
    ("experiments", "kl_invertible", "estimators.kl_invertible", None),
    ("adaptation", "kl_image", "estimators.kl_image", None),
    ("adaptation", "kl_measurement", "estimators.kl_measurement", None),
    ("estimators", "integrate", "quadrature.integrate", None),
    ("adaptation", "fd_gradient", "adaptation.fd_gradient", None),
    ("experiments", "adapt", "adaptation.adapt", None),
    ("experiments", "load_config", "experiments.load_config", None),
    ("experiments", "validate_config", "experiments.validate_config", None),
    ("experiments", "run", "experiments.run", None),
    ("experiments", "sweep", "experiments.sweep", None),
]

_ESTIMATOR_SPANS = ("estimators.kl_image", "estimators.kl_measurement", "estimators.kl_invertible")

PER_LAYER = {
    "gmm.score.calls": "count",
    "gmm.score.s": "s",
    "gmm.score.us_per_call": "us",
    "gmm.score.ns_per_elem": "ns",
    "gmm.sample.s": "s",
    "adaptation.adapt.s": "s",
    "adaptation.adapt.self_s": "s",
    "adaptation.steps": "count",
    "adaptation.fd_gradient.s": "s",
    "adaptation.score_calls_per_step": "count",
    "adaptation.eval.s": "s",
    "measurements.basis.forward.s": "s",
    "measurements.basis.forward.calls": "count",
    "measurements.basis.forward.rows": "count",
    "measurements.basis.inverse.s": "s",
    "measurements.basis.inverse.calls": "count",
    "measurements.basis.inverse.rows": "count",
    "measurements.sample_operator.calls": "count",
    "measurements.sample_operator.s": "s",
    "measurements.operator_draws_per_measurement": "count",
    "measurements.estimate_projection_stats.s": "s",
    "measurements.to_projected.s": "s",
    "rng.stream.calls": "count",
    "rng.stream.s": "s",
    "estimators.kl_image.s": "s",
    "estimators.kl_measurement.s": "s",
    "estimators.dataset.from_samples.s": "s",
    "estimators.dataset.operators.calls": "count",
    "quadrature.integrate.s": "s",
    "experiments.load_config.s": "s",
    "experiments.validate_config.calls": "count",
    "experiments.validate_config.s": "s",
    "experiments.run.self_s": "s",
    "setup.import_s": "s",
    "trace.overhead_frac": "ratio",
    "image.kl_err": "stderr",
    "measurement.kl_err": "stderr",
    "error_rate": "ratio",
}

# Per-layer metrics that must repeat exactly across traced runs of one seed.
COUNTS = tuple(name for name, unit in PER_LAYER.items() if unit == "count")


def _resolve(module: str, attr: str):
    owner = importlib.import_module(f"scoreshift.{module}")
    *classes, name = attr.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    return owner, name


def install(tracer: Tracer) -> None:
    """Wrap every entry of PATCHES, plus the estimators' thread pool."""
    for module, attr, span, count in PATCHES:
        owner, name = _resolve(module, attr)
        tracer.patch(owner, name, span, count)
    estimators = importlib.import_module("scoreshift.estimators")
    tracer.replace(
        estimators,
        "ThreadPoolExecutor",
        tracer.propagating_executor(estimators.ThreadPoolExecutor),
    )


def layer_metrics(tracer: Tracer, steps: int) -> dict[str, float]:
    """Per-layer figures of one traced call, from its spans and counters.

    steps is the number of adaptation steps the call's reports record.
    Metrics of layers the call never entered read 0.
    """
    summary = tracer.summary()
    counters = tracer.counters

    def calls(name):
        return summary.get(name, {}).get("calls", 0)

    def secs(name):
        return summary.get(name, {}).get("s", 0.0)

    def self_secs(name):
        return summary.get(name, {}).get("self_s", 0.0)

    ancestors = tracer.ancestors()
    adapt_score_calls = 0
    eval_s = 0.0
    for span in tracer.spans:
        above = ancestors[span.span_id]
        if span.name == "gmm.score" and "adaptation.adapt" in above:
            if not any(name in _ESTIMATOR_SPANS for name in above):
                adapt_score_calls += 1
        if span.name in _ESTIMATOR_SPANS and above and above[0] == "adaptation.adapt":
            eval_s += span.duration

    score_calls = calls("gmm.score")
    elems = counters.get("gmm.score.elems", 0)
    measured = counters.get("estimators.dataset.measurements", 0)
    out = {
        "gmm.score.calls": score_calls,
        "gmm.score.s": secs("gmm.score"),
        "gmm.score.us_per_call": secs("gmm.score") / score_calls * 1e6 if score_calls else 0.0,
        "gmm.score.ns_per_elem": secs("gmm.score") / elems * 1e9 if elems else 0.0,
        "gmm.sample.s": secs("gmm.sample"),
        "adaptation.adapt.s": secs("adaptation.adapt"),
        "adaptation.adapt.self_s": self_secs("adaptation.adapt"),
        "adaptation.steps": steps,
        "adaptation.fd_gradient.s": secs("adaptation.fd_gradient"),
        "adaptation.score_calls_per_step": adapt_score_calls / steps if steps else 0.0,
        "adaptation.eval.s": eval_s,
        "measurements.sample_operator.calls": calls("measurements.sample_operator"),
        "measurements.sample_operator.s": secs("measurements.sample_operator"),
        "measurements.operator_draws_per_measurement": (
            calls("measurements.sample_operator") / measured if measured else 0.0
        ),
        "measurements.estimate_projection_stats.s": secs("measurements.estimate_projection_stats"),
        "measurements.to_projected.s": secs("measurements.to_projected"),
        "rng.stream.calls": calls("rng.stream"),
        "rng.stream.s": secs("rng.stream"),
        "estimators.kl_image.s": secs("estimators.kl_image"),
        "estimators.kl_measurement.s": secs("estimators.kl_measurement"),
        "estimators.dataset.from_samples.s": secs("estimators.dataset.from_samples"),
        "estimators.dataset.operators.calls": calls("estimators.dataset.operators"),
        "quadrature.integrate.s": secs("quadrature.integrate"),
        "experiments.load_config.s": secs("experiments.load_config"),
        "experiments.validate_config.calls": calls("experiments.validate_config"),
        "experiments.validate_config.s": secs("experiments.validate_config"),
        "experiments.run.self_s": self_secs("experiments.run"),
    }
    for direction in ("forward", "inverse"):
        span = f"measurements.basis.{direction}"
        out[f"{span}.s"] = secs(span)
        out[f"{span}.calls"] = calls(span)
        out[f"{span}.rows"] = counters.get(f"{span}.rows", 0)
    return out
