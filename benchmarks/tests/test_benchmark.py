"""The benchmark's own checks: metric names, tracer hygiene, smoke-size runs.

Run from the repository root with ``python3 -m pytest benchmarks/tests -q``.
"""

import importlib
import json
import math
import shutil
import subprocess
import sys
import threading
import time
import types
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import layers  # noqa: E402
import run  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import FULL, smoke  # noqa: E402


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_metric_names_and_units_match_benchmark_json():
    spec = _spec()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(FULL)
    assert spec["paths"] == [BENCH.name]


def _bindings():
    """Every attribute the tracer may patch, as (owner, name) -> object."""
    out = {}
    for module, attr, _, _ in layers.PATCHES:
        owner, name = layers._resolve(module, attr)
        out[(id(owner), name)] = vars(owner)[name]
    estimators = importlib.import_module("scoreshift.estimators")
    out[(id(estimators), "ThreadPoolExecutor")] = estimators.ThreadPoolExecutor
    return out


def _check_restored(before):
    after = _bindings()
    assert after.keys() == before.keys()
    for key, original in before.items():
        assert after[key] is original, key


def test_tracer_restores_every_patched_attribute():
    before = _bindings()
    with Tracer() as tracer:
        layers.install(tracer)
        patched = _bindings()
        assert all(patched[key] is not before[key] for key in before)
    _check_restored(before)


def test_tracer_restores_after_an_exception():
    before = _bindings()
    with pytest.raises(RuntimeError):
        with Tracer() as tracer:
            layers.install(tracer)
            raise RuntimeError("boom")
    _check_restored(before)


def _toy_module():
    mod = types.ModuleType("toy")

    def leaf(delay):
        time.sleep(delay)
        return delay

    def fan_out(delay):
        with mod.Pool(max_workers=2) as pool:
            return list(pool.map(mod.leaf, [delay, delay]))

    mod.leaf = leaf
    mod.fan_out = fan_out
    mod.Pool = ThreadPoolExecutor
    return mod


def test_worker_spans_inherit_parent_and_self_time_counts_overlap_once():
    mod = _toy_module()
    with Tracer() as tracer:
        tracer.patch(mod, "leaf", "leaf", lambda args, kwargs: {"leaf.delay": args[0]})
        tracer.patch(mod, "fan_out", "fan_out")
        tracer.replace(mod, "Pool", tracer.propagating_executor(ThreadPoolExecutor))
        mod.fan_out(0.05)
    (outer,) = [s for s in tracer.spans if s.name == "fan_out"]
    leaves = [s for s in tracer.spans if s.name == "leaf"]
    assert len(leaves) == 2
    assert all(s.parent == outer.span_id for s in leaves)
    summary = tracer.summary()
    # the two leaves run side by side: self time excludes their union once
    covered = max(s.end for s in leaves) - min(s.start for s in leaves)
    assert summary["fan_out"]["self_s"] == pytest.approx(outer.duration - covered, abs=1e-9)
    assert summary["fan_out"]["self_s"] > 0
    assert tracer.counters["leaf.delay"] == pytest.approx(0.1)
    assert mod.Pool is ThreadPoolExecutor


def test_recording_from_many_threads_loses_nothing():
    mod = _toy_module()
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with Tracer() as tracer:
            tracer.patch(mod, "leaf", "leaf", lambda args, kwargs: {"n": 1})
            threads = [
                threading.Thread(target=lambda: [mod.leaf(0) for _ in range(200)])
                for _ in range(8)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(switch)
    assert len(tracer.spans) == 1600
    assert len({s.span_id for s in tracer.spans}) == 1600
    assert tracer.counters["n"] == 1600


@pytest.mark.parametrize("name", list(FULL))
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run_reports_every_metric(name, trace, tmp_path):
    result = run.measure(smoke(FULL[name]), 3, 0.0, trace, tmp_path, probes=1)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == (2 if trace else 1)
    expected = layers.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_counts_repeat_and_estimates_match_untraced(tmp_path):
    from workloads import write_config

    workload = smoke(FULL["toy-adapt"])
    path = write_config(workload, 5, tmp_path)
    plain = run.one_call(workload, path, traced=False)
    first = run.one_call(workload, path, traced=True)
    second = run.one_call(workload, path, traced=True)
    assert first.fingerprint == plain.fingerprint == second.fingerprint
    assert {k: first.layers[k] for k in layers.COUNTS} == {
        k: second.layers[k] for k in layers.COUNTS
    }
    assert first.layers["adaptation.steps"] == 2
    assert first.layers["gmm.score.calls"] > 0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "toy-adapt", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
