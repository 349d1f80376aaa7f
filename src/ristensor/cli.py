"""Command-line interface: single-trial simulation, Monte-Carlo sweeps and
complexity reports.

Exit codes: 0 success, 1 runtime/IO failure, 2 usage or precondition error.
Every command is deterministic given its full argument list.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .config import ScenarioConfig, load_config, parse_overrides, vary
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
from .signal_model import snr_in_range

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2
#: the most points a 'start:step:stop' SNR range may expand to; every point
#: is a full cell of trials, so a finer step is a typo, and one like 1e-300
#: would build a tuple of 1e300 points that never returns
MAX_SNR_POINTS = 10_000


def _build_config(args) -> ScenarioConfig:
    if getattr(args, "config", None):
        return load_config(args.config, overrides=args.set or None)
    if args.set:
        return ScenarioConfig(**parse_overrides(args.set))
    return ScenarioConfig()


def _als_settings(args) -> AlsSettings:
    return AlsSettings(max_iters=args.max_iters, tol=args.tol)


def _parse_values(text: str, flag: str) -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in text.split(",") if v.strip())
    except ValueError:
        raise ValueError(f"{flag} takes a comma list of integers, got {text!r}") from None


def _parse_snr_grid(text: str) -> tuple[float, ...]:
    """Either a comma list ('0,10,20') or an inclusive range 'start:step:stop'."""
    try:
        if ":" not in text:
            return tuple(float(v) for v in text.split(",") if v.strip())
        start, step, stop = (float(v) for v in text.split(":"))
    except ValueError:
        raise ValueError(f"--snr takes a comma list of numbers or a range "
                         f"'start:step:stop', got {text!r}") from None
    if not np.all(np.isfinite((start, step, stop))) or step <= 0:
        raise ValueError(f"snr range must be finite with step > 0, got {text!r}")
    count = np.round((stop - start) / step)  # inf once the ratio overflows
    if count + 1 > MAX_SNR_POINTS:
        raise ValueError(f"snr range {text!r} has more than {MAX_SNR_POINTS} points")
    return tuple(
        start + step * i for i in range(int(count) + 1) if start + step * i <= stop + 1e-9
    )


def cmd_simulate(args) -> int:
    if args.seed < 0:  # SeedSequence takes only non-negative entropy
        raise ValueError(f"--seed must be an integer >= 0, got {args.seed}")
    if not snr_in_range(args.snr_db):
        raise ValueError(f"--snr-db must give a finite positive power ratio "
                         f"10^(snr/10), got {args.snr_db}")
    cfg = _build_config(args)
    settings = _als_settings(args)
    seed = trial_seed_sequence(args.seed, 0, 0, 0)
    estimate, diag = run_trial(cfg, settings, args.snr_db, seed)
    target = diag["target"]

    print(f"scenario: L={cfg.L} N={cfg.N} ({cfg.N_y}x{cfg.N_z}) Q={cfg.Q} M={cfg.M} K={cfg.K}")
    print(f"snr: {args.snr_db:g} dB   seed: {args.seed}")
    print(f"stage 1: iterations={diag['stage1_iters']} converged={diag['stage1_converged']}")
    print(f"stage 2: iterations={diag['stage2_iters']} converged={diag['stage2_converged']}")
    print(f"{'parameter':<10} {'truth':>24} {'estimate':>24} {'rel_error':>12}")
    for name in PARAMETERS:
        key = name.lower()
        print(f"{name:<10} {getattr(target, key):>24.15e} "
              f"{getattr(estimate, key):>24.15e} {estimate.rel_errors[key]:>12.3e}")
    angles = estimate.angles()
    if angles is None:
        print("mapped angles: undefined (arcsin/arccos argument out of range)")
    else:
        print(f"mapped angles: elevation={angles[0]:.6f} rad azimuth={angles[1]:.6f} rad")
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = _build_config(args)
    values = _parse_values(args.values, "--values") if args.values else ()
    spec = ExperimentSpec(
        base=cfg,
        sweep_variable=args.var,
        sweep_values=values,
        snr_grid_db=_parse_snr_grid(args.snr),
        trials=args.trials,
        master_seed=args.seed,
        als=_als_settings(args),
    )
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
    values = _parse_values(values_text, "--grid")
    if not values:
        raise ValueError("--grid needs at least one value, e.g. N=4,8,16")
    # Every report is computed before the header is printed, so a rejected
    # value or setting (say N=0 or --iters1 0) leaves stdout empty.
    rows = []
    for value in values:
        report = complexity_estimate(vary(cfg, var, value), args.iters1, args.iters2)
        rows.append(f"{var},{value},{report.stage1_ops},{report.stage2_ops}")
    print("variable,value,stage1_ops,stage2_ops")
    print("\n".join(rows))
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

    def add_als(p):
        defaults = AlsSettings()
        p.add_argument("--max-iters", type=int, default=defaults.max_iters,
                       help="ALS iteration cap")
        p.add_argument("--tol", type=float, default=defaults.tol,
                       help="relative ALS convergence threshold")

    sim = sub.add_parser("simulate", help="run one seeded trial and print truth vs estimate")
    add_common(sim)
    add_als(sim)
    sim.add_argument("--snr-db", type=float, default=20.0)
    sim.add_argument("--seed", type=int, default=0)
    sim.set_defaults(func=cmd_simulate)

    swe = sub.add_parser("sweep", help="Monte-Carlo RMSE sweep, writes CSV + manifest")
    add_common(swe)
    add_als(swe)
    swe.add_argument("--var", default="none", help="scenario count to sweep, as complexity --grid takes, or none")
    swe.add_argument("--values", default="", help="comma list of sweep values")
    swe.add_argument("--snr", default="-10:5:30", help="'a:step:b' inclusive or comma list")
    swe.add_argument("--trials", type=int, default=200)
    swe.add_argument("--seed", type=int, default=0)
    swe.add_argument("--out", default="sweep_results", help="output path prefix")
    swe.add_argument("--jobs", type=int, default=1, help="worker threads (output identical)")
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
