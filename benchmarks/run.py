"""End-to-end benchmark of scoreshift: timed runs, checked estimates, traced layers.

Usage (from the repository root):

    python3 benchmarks/run.py --workload toy-adapt --seed 1 --seconds 30 --trace 0

The workload's config is generated from --seed under .bench_work/, then
``experiments.run`` (``experiments.sweep`` for sweep workloads) is called
on it again and again for --seconds. With --trace 0 the last line of
output is a JSON object with the end-to-end metrics; with --trace 1 the
calls alternate between untraced and traced (every layer of the package
wrapped by ``layers.install``) and the JSON holds the per-layer metrics.
Every call's estimates are checked: finite, a positive standard error, and
bit-identical to the first call's. Lines before the JSON describe the run
and its environment.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

# One BLAS thread per process: the workloads bring their own thread pool
# and the benchmark must not oversubscribe the cores. Set before numpy loads.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import FULL, Workload, oracle, smoke, write_config  # noqa: E402

END_TO_END = {
    "run_s": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "image.stderr": "nats",
    "measurement.stderr": "nats",
    "adapt.kl_image_after": "nats",
}
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60


@dataclass
class Call:
    """What one call of the workload produced."""

    seconds: float
    traced: bool
    estimates: dict[str, list[tuple[float, float]]] = field(default_factory=dict)
    kl_image_after: float = math.nan
    fingerprint: tuple = ()
    layers: dict | None = None
    problems: list[str] = field(default_factory=list)


def _reports(workload: Workload, result) -> list:
    return result[0] if workload.sweep_axis else [result]


def invoke(workload: Workload, experiments, config: dict):
    if workload.sweep_axis:
        return experiments.sweep(
            config, workload.sweep_axis, list(workload.sweep_values), workers=workload.workers
        )
    return experiments.run(config, workers=workload.workers)


def examine(workload: Workload, result, seconds: float, traced: bool) -> Call:
    """Collect a call's estimates and check each is finite with stderr > 0."""
    call = Call(seconds=seconds, traced=traced)
    checked = []
    after = []
    for report in _reports(workload, result):
        for mode, est in sorted(report.estimates.items()):
            call.estimates.setdefault(mode, []).append((est.value, est.stderr))
            checked.append((mode, est))
        if report.adaptation is not None:
            a = report.adaptation
            for tag in ("kl_measurement_before", "kl_measurement_after", "kl_image_before",
                        "kl_image_after"):
                checked.append((f"adaptation.{tag}", getattr(a, tag)))
            after.append(a.kl_image_after.value)
    # Without adaptation the prior the run ends with is the one it started with.
    call.kl_image_after = max(after) if after else max(v for v, _ in call.estimates["image"])
    for name, est in checked:
        if not (math.isfinite(est.value) and math.isfinite(est.stderr) and est.stderr > 0):
            call.problems.append(f"{name}: value={est.value!r} stderr={est.stderr!r}")
    call.fingerprint = tuple(
        (name, est.value.hex(), est.stderr.hex()) for name, est in checked
    )
    return call


def adaptation_steps(workload: Workload, result) -> int:
    return sum(
        len(r.adaptation.loss_trajectory) - 1
        for r in _reports(workload, result)
        if r.adaptation is not None
    )


def one_call(workload: Workload, config_path: Path, traced: bool) -> Call:
    from scoreshift import experiments

    with Tracer() as tracer:
        if traced:
            layers.install(tracer)
        config = experiments.load_config(config_path)
        start = time.perf_counter()
        result = invoke(workload, experiments, config)
        seconds = time.perf_counter() - start
    call = examine(workload, result, seconds, traced)
    if traced:
        call.layers = layers.layer_metrics(tracer, adaptation_steps(workload, result))
    return call


def probe_setup(config_path: Path) -> dict:
    """Cold-start timings from one fresh interpreter."""
    done = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), str(SRC), str(config_path)],
        capture_output=True,
        text=True,
        timeout=PROBE_TIMEOUT_S,
        check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def kl_err(estimates: list[tuple[float, float]], truth: tuple[float, float]) -> float:
    """Worst |estimate - oracle| in units of the combined standard error."""
    value, stderr = truth
    return max(abs(v - value) / math.hypot(se, stderr) for v, se in estimates)


def measure(
    workload: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    work_dir: Path,
    probes: int = SETUP_PROBES,
) -> dict:
    """Run one workload for `seconds` and return the benchmark's result object."""
    from scoreshift import experiments

    config_path = write_config(workload, seed, work_dir / "config")
    warm_path = write_config(smoke(workload), seed, work_dir / "warm")
    # Lazy set-up inside the package (schema checkers, first BLAS calls) is
    # paid once per process, so it is done before the clock starts.
    invoke(workload, experiments, experiments.load_config(warm_path))

    calls: list[Call] = []
    setups: list[dict] = []
    failures: list[str] = []
    # (untraced s, traced s) of back-to-back calls: machine load drifts over
    # tens of seconds, so the tracing overhead is taken pair by pair.
    pairs: list[tuple[float, float]] = []
    last_ok = None
    attempted = 0
    started = time.perf_counter()
    while True:
        traced = trace and attempted % 2 == 1
        attempted += 1
        call = None
        try:
            call = one_call(workload, config_path, traced)
        except Exception:  # a failed call is counted, reported and skipped
            failures.append(traceback.format_exc())
        else:
            reference = calls[0] if calls else call
            if call.fingerprint != reference.fingerprint:
                call.problems.append("estimates differ from the first call with this seed")
            if traced:
                first = next((c for c in calls if c.traced), call)
                for name in layers.COUNTS:
                    if call.layers[name] != first.layers[name]:
                        call.problems.append(f"{name} differs between traced calls")
            if call.problems:
                failures.append("; ".join(call.problems))
                call = None
            else:
                calls.append(call)
        if traced and call is not None and last_ok is not None:
            pairs.append((last_ok.seconds, call.seconds))
        last_ok = call
        # Cold starts are spread over the run so that they see the same
        # machine load as the timed calls.
        if len(setups) < probes:
            setups.append(probe_setup(config_path))
        if time.perf_counter() - started >= seconds and (not trace or pairs or attempted >= 4):
            break
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setups += [probe_setup(config_path) for _ in range(probes - len(setups))]

    for text in failures:
        print(f"failed call: {text.strip()}", file=sys.stderr)
    untraced = [c for c in calls if not c.traced]
    traced_calls = [c for c in calls if c.traced]
    if not untraced or (trace and not pairs):
        raise RuntimeError(f"{workload.name}: no successful call out of {attempted}")

    truth = oracle(seed)
    first = untraced[0]
    errors = {mode: kl_err(first.estimates[mode], truth) for mode in ("image", "measurement")}
    run_times = [c.seconds for c in untraced]
    print(f"workload {workload.name} seed {seed}: {attempted} calls, {len(failures)} failed")
    print(
        f"run_s median {statistics.median(run_times):.4f} over {len(run_times)} untraced calls: "
        + " ".join(f"{t:.4f}" for t in run_times)
    )
    print(f"oracle KL {truth[0]:.4f} +- {truth[1]:.4f} nats")
    for mode, values in first.estimates.items():
        shown = ", ".join(f"{v:.4f} +- {se:.4f}" for v, se in values)
        print(f"{mode}: {shown} (kl_err {errors[mode]:.2f} stderr)")

    if trace:
        metrics = {
            name: statistics.median(c.layers[name] for c in traced_calls)
            for name in traced_calls[0].layers
        }
        metrics["setup.import_s"] = statistics.median(s["import_s"] for s in setups)
        metrics["trace.overhead_frac"] = statistics.median(t / u for u, t in pairs) - 1.0
        metrics["image.kl_err"] = errors["image"]
        metrics["measurement.kl_err"] = errors["measurement"]
        metrics["error_rate"] = len(failures) / attempted
        units = layers.PER_LAYER
    else:
        metrics = {
            "run_s": statistics.median(run_times),
            "setup_s": statistics.median(s["setup_s"] for s in setups),
            "peak_rss_mib": peak_rss_mib,
            "image.stderr": max(se for _, se in first.estimates["image"]),
            "measurement.stderr": max(se for _, se in first.estimates["measurement"]),
            "adapt.kl_image_after": first.kl_image_after,
        }
        units = END_TO_END
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(FULL))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "scoreshift" / "__init__.py").is_file():
        print(f"error: no scoreshift package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    work_dir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}"
    result = measure(FULL[args.workload], args.seed, args.seconds, bool(args.trace), work_dir)
    print("env " + json.dumps(environment(), sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
