"""Command-line interface: single-trial simulation, Monte-Carlo sweeps and
complexity reports.

Exit codes: 0 success, 1 runtime/IO failure, 2 usage or precondition error.
Every command is deterministic given its full argument list.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .config import ScenarioConfig, load_config, parse_overrides
from .estimation import AlsSettings
from .exceptions import DivergenceError, EmptyCellError, IdentifiabilityError
from .experiment import (
    PARAMETERS,
    ExperimentSpec,
    complexity_estimate,
    run_sweep,
    run_trial,
    trial_seed_sequence,
    write_manifest,
    write_results,
)

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2


def _build_config(args) -> ScenarioConfig:
    if getattr(args, "config", None):
        return load_config(args.config, overrides=args.set or None)
    if args.set:
        return ScenarioConfig(**parse_overrides(args.set))
    return ScenarioConfig()


def _als_settings(args) -> AlsSettings:
    return AlsSettings(max_iters=args.max_iters, tol=args.tol)


def _parse_values(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(",") if v.strip())


def _parse_snr_grid(text: str) -> tuple[float, ...]:
    """Either a comma list ('0,10,20') or an inclusive range 'start:step:stop'."""
    if ":" in text:
        start, step, stop = (float(v) for v in text.split(":"))
        if step <= 0:
            raise ValueError("snr range step must be > 0")
        count = int(round((stop - start) / step))
        return tuple(start + step * i for i in range(count + 1) if start + step * i <= stop + 1e-9)
    return tuple(float(v) for v in text.split(",") if v.strip())


def cmd_simulate(args) -> int:
    cfg = _build_config(args)
    settings = _als_settings(args)
    seed = trial_seed_sequence(args.seed, 0, 0, 0)
    estimate, diag = run_trial(cfg, settings, args.snr_db, seed)
    target = diag["target"]

    print(f"scenario: L={cfg.L} N={cfg.N} ({cfg.N_y}x{cfg.N_z}) Q={cfg.Q} M={cfg.M} "
          f"K={cfg.K} codebook={cfg.codebook}")
    print(f"snr: {args.snr_db:g} dB   seed: {args.seed}")
    print(f"stage 1: iterations={diag['stage1_iters']} converged={diag['stage1_converged']}")
    print(f"stage 2: iterations={diag['stage2_iters']} converged={diag['stage2_converged']}")
    truths = {"tau": target.tau, "nu": target.nu, "mu_D": target.mu_d, "psi_D": target.psi_d}
    estimates = {"tau": estimate.tau_hat, "nu": estimate.nu_hat,
                 "mu_D": estimate.mu_d_hat, "psi_D": estimate.psi_d_hat}
    errors = {"tau": estimate.rel_errors["tau"], "nu": estimate.rel_errors["nu"],
              "mu_D": estimate.rel_errors["mu_d"], "psi_D": estimate.rel_errors["psi_d"]}
    print(f"{'parameter':<10} {'truth':>24} {'estimate':>24} {'rel_error':>12}")
    for name in PARAMETERS:
        print(f"{name:<10} {truths[name]:>24.15e} {estimates[name]:>24.15e} "
              f"{errors[name]:>12.3e}")
    if estimate.angles_valid:
        print(f"mapped angles: elevation={estimate.elevation_hat:.6f} rad "
              f"azimuth={estimate.azimuth_hat:.6f} rad")
    else:
        print("mapped angles: undefined (arcsin/arccos argument out of range)")
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = _build_config(args)
    values = _parse_values(args.values) if args.values else ()
    spec = ExperimentSpec(
        base=cfg,
        sweep_variable=args.var,
        sweep_values=values,
        snr_grid_db=_parse_snr_grid(args.snr),
        trials=args.trials,
        master_seed=args.seed,
        als=_als_settings(args),
        n_sweep_tracks_blocks=args.k_tracks_n,
    )
    if spec.trials < 1:
        raise ValueError("--trials must be >= 1")
    records = run_sweep(spec, jobs=args.jobs)
    csv_path = args.out + ".csv"
    manifest_path = args.out + ".manifest.json"
    write_results(records, csv_path)
    write_manifest(spec, csv_path, manifest_path)
    print(f"wrote {len(records)} records to {csv_path}")
    print(f"wrote manifest to {manifest_path}")
    return EXIT_OK


def cmd_complexity(args) -> int:
    cfg = _build_config(args)
    var, _, values_text = args.grid.partition("=")
    var = var.strip()
    if var not in ("N", "L", "M", "Q", "K"):
        raise ValueError(f"--grid variable must be one of N,L,M,Q,K, got {var!r}")
    values = _parse_values(values_text)
    if not values:
        raise ValueError("--grid needs at least one value, e.g. N=4,8,16")
    for value in values:
        if value < 1:
            raise ValueError(f"--grid values must be >= 1, got {var}={value}")
    print("variable,value,stage1_ops,stage2_ops")
    for value in values:
        if var == "N":
            side_a = max(d for d in range(1, int(np.sqrt(value)) + 1) if value % d == 0)
            point = cfg.replace(N_y=side_a, N_z=value // side_a)
        else:
            point = cfg.replace(**{var: value})
        report = complexity_estimate(point, args.iters1, args.iters2)
        print(f"{var},{value},{report.stage1_ops},{report.stage2_ops}")
    return EXIT_OK


def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ristensor",
        description="RIS-assisted monostatic sensing simulator and estimator",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_common(p):
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override a config field (repeatable)")
        p.add_argument("--max-iters", type=int, default=200, help="ALS iteration cap")
        p.add_argument("--tol", type=float, default=1e-8,
                       help="relative ALS convergence threshold")

    sim = sub.add_parser("simulate", help="run one seeded trial and print truth vs estimate")
    add_common(sim)
    sim.add_argument("--snr-db", type=float, default=20.0)
    sim.add_argument("--seed", type=int, default=0)
    sim.set_defaults(func=cmd_simulate)

    swe = sub.add_parser("sweep", help="Monte-Carlo RMSE sweep, writes CSV + manifest")
    add_common(swe)
    swe.add_argument("--var", choices=("Q", "K", "N", "none"), default="none")
    swe.add_argument("--values", default="", help="comma list of sweep values")
    swe.add_argument("--snr", default="-10:5:30", help="'a:step:b' inclusive or comma list")
    swe.add_argument("--trials", type=int, default=200)
    swe.add_argument("--seed", type=int, default=0)
    swe.add_argument("--out", default="sweep_results", help="output path prefix")
    swe.add_argument("--jobs", type=int, default=1, help="worker threads (output identical)")
    swe.add_argument("--k-tracks-n", action="store_true",
                     help="N sweep: set K = N^2 per point instead of keeping K pinned")
    swe.set_defaults(func=cmd_sweep)

    com = sub.add_parser("complexity", help="closed-form operation counts over a grid")
    add_common(com)
    com.add_argument("--grid", default="N=4,8,16", metavar="VAR=V1,V2,...")
    com.add_argument("--iters1", type=int, default=1)
    com.add_argument("--iters2", type=int, default=1)
    com.set_defaults(func=cmd_complexity)
    return parser


def main(argv=None) -> int:
    parser = _make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (IdentifiabilityError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DivergenceError as exc:
        print(f"diverged: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except (OSError, EmptyCellError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
