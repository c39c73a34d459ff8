"""Command-line front end: seeded experiment runs, sweeps, and self checks.

Exit codes: 0 success, 1 self-test failure, 2 config error (including an
--out directory that cannot be made), 3 assumption violation (the
measurements leave a coordinate unobserved, mix operator bases, or are not
full rank for the invertible estimator), 4 numerical divergence during
adaptation, 141 (128 + SIGPIPE, as a shell reports a process SIGPIPE
ended) when the reader of stdout closed it before the output was written.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import __version__
from .adaptation import DivergenceError
from .estimators import MeasurementDataset, kl_image, kl_invertible, kl_measurement
from .experiments import CONFIG_SCHEMA, SWEEP_AXES, ConfigError, load_config, run, sweep
from .gmm import denoise, responsibilities, sample
from .measurements import BasisMismatch, OperatorSampler, RankDeficient, RightBasis, SpanViolation
from .priors import gaussian_pair, triangle_pair
from .quadrature import SigmaGrid, integrate
from .rng import stream

EXIT_OK = 0
EXIT_SELFTEST = 1
EXIT_CONFIG = 2
EXIT_ASSUMPTION = 3
EXIT_DIVERGENCE = 4
EXIT_BROKEN_PIPE = 141


def _add_common(sub):
    sub.add_argument("--config", required=True, help="path to the experiment JSON")
    sub.add_argument("--seed", type=int, default=None, help="override the config seed")
    sub.add_argument("--workers", type=int, default=1, help="worker threads (default 1)")
    sub.add_argument("--out", default=None, help="output directory for report + CSVs")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scoreshift",
        description="Divergence between score-based priors from corrupted measurements",
    )
    parser.add_argument("--version", action="version", version=f"scoreshift {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    run_p = subs.add_parser("run", help="execute one experiment config")
    _add_common(run_p)

    sweep_p = subs.add_parser("sweep", help="repeat a config along one axis")
    _add_common(sweep_p)
    sweep_p.add_argument(
        "--axis",
        required=True,
        choices=SWEEP_AXES,
        help="the config field to vary; every run's config is checked before any run starts",
    )
    sweep_p.add_argument(
        "--values",
        required=True,
        help="comma-separated axis values, e.g. 0.2,0.4,0.8",
    )

    subs.add_parser("self-test", help="run built-in numerical sanity checks")
    subs.add_parser(
        "show-config-schema",
        help='print the config JSON schema; in a config file a mixture may instead be '
        '{"file": path}, relative to the file',
    )
    return parser


def _apply_overrides(config: dict, args) -> dict:
    if args.seed is not None:
        config["seed"] = int(args.seed)
    return config


def _cmd_run(args) -> int:
    config = _apply_overrides(load_config(args.config), args)
    report = run(config, out_dir=args.out, workers=args.workers)
    for mode, est in sorted(report.estimates.items()):
        print(f"{mode}: value={est.value:.6g} stderr={est.stderr:.3g}")
    if report.adaptation is not None:
        before = report.adaptation.kl_measurement_before
        after = report.adaptation.kl_measurement_after
        print(
            f"adaptation: {before.value:.6g} -> {after.value:.6g} "
            f"({report.adaptation.stop_reason})"
        )
    if args.out:
        print(f"report written to {args.out}")
    return EXIT_OK


def _parse_values(text: str, axis: str):
    vals = [v for v in text.split(",") if v.strip()]
    if not vals:
        raise ConfigError("--values must list at least one number")
    kind, _ = SWEEP_AXES[axis]
    try:
        return [kind(v) for v in vals]
    except ValueError as err:
        raise ConfigError(f"--values: {err}") from err


def _cmd_sweep(args) -> int:
    config = _apply_overrides(load_config(args.config), args)
    values = _parse_values(args.values, args.axis)
    _, rows = sweep(config, args.axis, values, out_dir=args.out, workers=args.workers)
    print("axis_value kl_measurement kl_image abs_gap")
    for value, km, ki, gap in rows:
        print(f"{value:g} {km:.6g} {ki:.6g} {gap:.6g}")
    return EXIT_OK


def _selftest_checks():
    """Yield (name, passed, detail) for each built-in check."""
    p, _ = triangle_pair()
    grid = SigmaGrid(0.01, 1.0, 32)

    est = kl_image(p, p, grid, n_samples=128, seed=1)
    yield ("image self-divergence is exactly zero", est.value == 0.0, f"value={est.value}")

    # fully observed at dim 256 with 400 rows: the score-gap kernel walks
    # three blocks of rows at every node
    wp, wq = triangle_pair(256)
    sampler = OperatorSampler(
        kind="coordinate-mask", dim=wp.dim, basis=RightBasis("identity", wp.dim), base_seed=7,
        keep_prob=1.0,
    )
    draws = sample(wp, 400, stream(11, "data-x"))
    data = MeasurementDataset.from_samples(sampler, draws, seed=11)
    m_same = kl_measurement(wp, wp, data, grid, seed=3)
    yield (
        "measurement self-divergence is exactly zero",
        m_same.value == 0.0,
        f"value={m_same.value}",
    )

    i_est = kl_image(wp, wq, grid, samples=draws, seed=3)
    m_est = kl_measurement(wp, wq, data, grid, seed=3)
    v_est = kl_invertible(wp, wq, data, grid, seed=3)
    yield (
        "full observation reduces to the image-domain estimator bit for bit",
        all(
            est.value == i_est.value and np.array_equal(est.node_means, i_est.node_means)
            for est in (m_est, v_est)
        ),
        f"image={i_est.value!r} measurement={m_est.value!r} invertible={v_est.value!r}",
    )

    # Tweedie: denoise, x + sigma^2 score, is the responsibility-weighted mean of
    # the components' posterior means (v_k x + sigma^2 mu_k) / (v_k + sigma^2)
    x = sample(p, 16, stream(5, "probe"))
    v = p.variances[None, :, None]
    means = (v * x[:, None, :] + 0.25 * p.means[None]) / (v + 0.25)
    resid = denoise(p, x, 0.5) - np.einsum("nk,nki->ni", responsibilities(p, x, 0.5), means)
    tweedie = float(np.max(np.abs(resid)))
    yield ("posterior mean identity residual < 1e-12", tweedie < 1e-12, f"max={tweedie:.3g}")

    gp, gq = gaussian_pair()
    dmu_sq = float(np.sum((gq.means[0] - gp.means[0]) ** 2))
    qgrid = SigmaGrid(1e-2, 1e3, 256)
    half_masked = OperatorSampler(
        kind="coordinate-mask", dim=gp.dim, basis=RightBasis("identity", gp.dim), base_seed=7,
        keep_prob=0.5,
    )
    gdata = MeasurementDataset.from_samples(half_masked, sample(gp, 250, stream(13, "data-x")))
    g_est = kl_measurement(gp, gq, gdata, qgrid, seed=3)
    gap = abs(g_est.value - dmu_sq / 2)
    yield (
        "masked Gaussian shift reads |dmu|^2/2 within 0.005",
        gap <= 0.005,
        f"value={g_est.value:.6g} |err|={gap:.2e}",
    )

    value, _ = integrate(qgrid, dmu_sq / (1 + qgrid.nodes**2) ** 2, np.zeros(len(qgrid)))
    err = abs(value - dmu_sq / 2) / (dmu_sq / 2)
    yield (
        "quadrature recovers the closed-form location-shift divergence",
        err < 0.005,
        f"value={value:.6g} rel_err={err:.2e}",
    )


def _cmd_selftest() -> int:
    failed = 0
    for name, passed, detail in _selftest_checks():
        tag = "PASS" if passed else "FAIL"
        print(f"[{tag}] {name} ({detail})")
        failed += 0 if passed else 1
    if failed:
        print(f"{failed} self-test check(s) failed")
        return EXIT_SELFTEST
    print("all self-test checks passed")
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            code = _cmd_run(args)
        elif args.command == "sweep":
            code = _cmd_sweep(args)
        elif args.command == "self-test":
            code = _cmd_selftest()
        elif args.command == "show-config-schema":
            print(json.dumps(CONFIG_SCHEMA, indent=2))
            code = EXIT_OK
        else:
            raise AssertionError(f"unhandled command {args.command}")
        # a reader that closed stdout early shows here, not in the flush at exit
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # send what is still buffered, and the flush at exit, to devnull
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except (SpanViolation, BasisMismatch, RankDeficient) as err:
        print(f"assumption violation: {err}", file=sys.stderr)
        return EXIT_ASSUMPTION
    except DivergenceError as err:
        print(f"numerical divergence: {err}", file=sys.stderr)
        return EXIT_DIVERGENCE


if __name__ == "__main__":
    sys.exit(main())
