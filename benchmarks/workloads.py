"""Benchmark workloads: seeded experiment configs built on the triangle pair.

Each workload turns a seed into a self-contained config directory (the
config plus the two mixture files it references). The program under test
sees only that directory; how it was generated stays here.

The pair from ``priors.triangle_pair(dim)`` differs only in the first two
coordinates and is a standard normal in every other one, so its KL
divergence equals that of the 2-D marginal pair, about 43.9 nats at every
dim. ``oracle`` uses that to get a precise reference cheaply.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

GRID = {"sigma_min": 1e-2, "sigma_max": 1e3, "nodes": 64}
ESTIMATORS = ("image", "measurement")
ORACLE_DRAWS = 1_000_000
ORACLE_CHUNK = 100_000


@dataclass(frozen=True)
class Workload:
    """One named workload and how it calls the program.

    With a sweep_axis it is one ``experiments.sweep`` over sweep_values,
    otherwise one ``experiments.run``.
    """

    name: str
    dim: int
    workers: int
    n_samples: int
    n_measurements: int
    sampler: dict
    adaptation: dict | None = None
    n_operators: int | None = None
    sweep_axis: str | None = None
    sweep_values: tuple[float, ...] = field(default_factory=tuple)


FULL = {
    "toy-adapt": Workload(
        name="toy-adapt",
        dim=10,
        workers=1,
        n_samples=1000,
        n_measurements=1000,
        sampler={"kind": "coordinate-mask", "keep_prob": 0.6, "basis": {"kind": "identity"}},
        adaptation={"trainable": "means-only", "iterations": 20},
    ),
    "masked256-hadamard": Workload(
        name="masked256-hadamard",
        dim=256,
        workers=1,
        n_samples=2048,
        n_measurements=1000,
        sampler={"kind": "coordinate-mask", "keep_prob": 0.6, "basis": {"kind": "hadamard"}},
    ),
    "sweep64-dense": Workload(
        name="sweep64-dense",
        dim=64,
        workers=2,
        n_samples=1000,
        n_measurements=1000,
        sampler={
            "kind": "patch-inpainting",
            "keep_prob": 0.6,
            "patch_edge": 2,
            "basis": {"kind": "dense-orthogonal"},
        },
        n_operators=64,
        sweep_axis="sigma_z",
        sweep_values=(0.0, 0.5, 2.0),
    ),
}


def smoke(workload: Workload) -> Workload:
    """A seconds-long version of a workload with the same code paths."""
    adaptation = None
    if workload.adaptation is not None:
        adaptation = {**workload.adaptation, "iterations": 2, "eval_samples": 64}
    return Workload(
        name=workload.name,
        dim=workload.dim,
        workers=workload.workers,
        n_samples=64,
        n_measurements=48,
        sampler=workload.sampler,
        adaptation=adaptation,
        n_operators=workload.n_operators and 8,
        sweep_axis=workload.sweep_axis,
        sweep_values=workload.sweep_values,
    )


def derived_seeds(seed: int, name: str) -> dict:
    """Config seed, operator seed and basis seed, all fixed by (seed, name)."""
    key = [seed] + list(name.encode("utf-8"))
    config_seed, base_seed, basis_seed = np.random.SeedSequence(key).generate_state(3)
    return {
        "config": int(config_seed),
        "operators": int(base_seed),
        "basis": int(basis_seed),
    }


def write_config(workload: Workload, seed: int, out_dir) -> Path:
    """Write config.json plus ind.json/ood.json; return the config path."""
    from scoreshift.priors import triangle_pair

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    seeds = derived_seeds(seed, workload.name)
    p, q = triangle_pair(workload.dim)
    p.save(out / "ind.json")
    q.save(out / "ood.json")

    sampler = {**workload.sampler, "dim": workload.dim, "base_seed": seeds["operators"]}
    if sampler["basis"]["kind"] == "dense-orthogonal":
        sampler["basis"] = {**sampler["basis"], "seed": seeds["basis"]}
    measurement = {"sampler": sampler, "n_measurements": workload.n_measurements}
    if workload.n_operators is not None:
        measurement["n_operators"] = workload.n_operators
    config = {
        "schema_version": 1,
        "seed": seeds["config"],
        "mixtures": {"ind": {"file": "ind.json"}, "ood": {"file": "ood.json"}},
        "grid": dict(GRID),
        "estimators": list(ESTIMATORS),
        "n_samples": workload.n_samples,
        "measurement": measurement,
    }
    if workload.adaptation is not None:
        config["adaptation"] = dict(workload.adaptation)
    path = out / "config.json"
    path.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


def oracle(seed: int) -> tuple[float, float]:
    """KL(p || q) of the triangle pair by plain Monte Carlo on its 2-D marginal.

    Uses ``exact_kl_oracle`` on ORACLE_DRAWS draws, chunk by chunk, and pools
    the chunks, so memory stays small.
    """
    from scoreshift.gmm import exact_kl_oracle
    from scoreshift.priors import triangle_pair
    from scoreshift.rng import stream

    p, q = triangle_pair(2)
    means, variances = [], []
    for i in range(ORACLE_DRAWS // ORACLE_CHUNK):
        mean, stderr = exact_kl_oracle(p, q, ORACLE_CHUNK, stream(seed, "bench-oracle", i))
        means.append(mean)
        variances.append(stderr**2)
    k = len(means)
    return float(np.mean(means)), float(np.sqrt(np.sum(variances)) / k)
