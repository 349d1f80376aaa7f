"""One-command benchmark of the ristensor pipeline.

    python3 bench/run.py --workload {sweep_small,trial_ris9,trial_converge} \\
        --seed N [--seconds 30] [--trace 0|1]

Runs one workload (see ``workloads.py``) as a closed loop through the public
entry points ``experiment.run_trial`` and ``experiment.run_sweep``, in this
process, with BLAS pinned to one thread.  Before timing, a noiseless trial
per scenario must recover every parameter to 1e-6 (acceptance criterion 01);
if it does not, or any output later is wrong, the run exits 1 and prints no
metrics.  Latencies and trials/s count only the fastest run of each unit
(see ``workloads.run_loop``).

With ``--trace 0`` the last stdout line is a JSON object whose metrics are
the ``end_to_end`` ones of ``BENCHMARK.json``; with ``--trace 1`` they are
the ``per_layer`` ones, from a run whose first half is untraced and second
half traced (same trial seeds), so the tracing overhead is their difference
in trials/s.  The traced run writes its spans and one record per trial to
``.bench_out/<workload>-seed<N>-{spans,trials}.jsonl``.  The line before
the result holds the environment, the seed, sample counts, failure reasons,
``failed_frac`` and the pooled RMSEs.  A readable summary goes to stderr.

Seeds 1-20 were used while the benchmark was tuned; a claimed gain must also
hold on the held-out seed ``HELD_OUT_SEED``.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
if not (ROOT / "src" / "ristensor" / "__init__.py").is_file():
    sys.exit(f"run.py: no ristensor sources under {ROOT / 'src'}")

import workloads  # noqa: E402  (first: pins the BLAS threads before numpy loads)
import numpy as np  # noqa: E402
import tracing  # noqa: E402

OUT_DIR = ROOT / ".bench_out"
HELD_OUT_SEED = 104729
#: fresh interpreters that repeat the set-up, half before the timed loop and
#: half after it, so that the median (of these and this process's own set-up)
#: samples the host over the whole run rather than over its first seconds
SETUP_PROBES = 8


def probe_setup(workload: str, seed: int, count: int) -> list[float]:
    """Set-up seconds of ``count`` fresh interpreters, one after another."""
    samples = []
    for _ in range(count):
        probe = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), workload, str(seed)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(probe.stdout))
    return samples


def accuracy(wl, loop, trials) -> dict:
    """Pooled RMSEs over the trials of the first ``min_units`` units.

    Every run completes those units, so for a fixed seed this repeats exactly.
    """
    first = [t for unit in loop.units(trials)[: wl.min_units] for t in unit]
    return {"rmse_trials": len(first), "rmse": workloads.pooled_rmse(first)}


def trials_per_s(loop, trials) -> float:
    """Successful trials per second of the fastest repeat of each unit."""
    ok = sum(t["failure"] is None for unit in loop.units(trials) for t in unit)
    return ok / loop.best_wall_s


def untraced(wl, args):
    with tracing.Tracer(layers=False) as clock:
        loop = workloads.run_loop(wl, args.seed, args.seconds, clock.trials)
    workloads.check_trials(clock.trials)
    ok = [t for unit in loop.units(clock.trials) for t in unit if t["failure"] is None]
    ms = [1e3 * t["wall_s"] for t in ok]
    # A sweep's trials come in two cost classes, half and half (Q=8 and
    # Q=32), so a median over all of them would fall in the gap between the
    # classes and jump with single trials.  The p50 is therefore the mean of
    # each Q's median trial latency (on the trial_* workloads, the median).
    by_q: dict[int, list] = {}
    for t, t_ms in zip(ok, ms):
        by_q.setdefault(t["Q"], []).append(t_ms)
    values = {
        "trial_ms_p50": statistics.fmean(statistics.median(v) for v in by_q.values()),
        "trial_ms_tail": float(np.percentile(ms, wl.tail_pct)),
        "trials_per_s": trials_per_s(loop, clock.trials),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    info = {"latency_samples": len(ms), "tail_pct": wl.tail_pct,
            **accuracy(wl, loop, clock.trials)}
    return values, info, [loop], clock.trials


def traced(wl, args):
    half = args.seconds / 2
    with tracing.Tracer(layers=False) as clock:
        plain = workloads.run_loop(wl, args.seed, half, clock.trials)
    with tracing.Tracer(layers=True) as tracer:
        loop = workloads.run_loop(wl, args.seed, half, tracer.trials)
    workloads.check_trials(clock.trials + tracer.trials)
    values = tracing.layer_metrics(tracer, loop.wall_s)
    plain_tps = trials_per_s(plain, clock.trials)
    traced_tps = trials_per_s(loop, tracer.trials)
    values["trace.overhead_pct"] = 100.0 * (plain_tps - traced_tps) / plain_tps
    info = {"untraced_trials_per_s": plain_tps, "traced_trials_per_s": traced_tps,
            **accuracy(wl, loop, tracer.trials)}
    values.update({f"esprit.rmse_{p}": v for p, v in info["rmse"].items()})
    OUT_DIR.mkdir(exist_ok=True)
    prefix = OUT_DIR / f"{wl.name}-seed{args.seed}"
    tracer.write(prefix)
    info["trace_files"] = str(prefix.relative_to(ROOT)) + "-{spans,trials}.jsonl"
    return values, info, [plain, loop], clock.trials + tracer.trials


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description="ristensor benchmark")
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    wl = workloads.WORKLOADS[args.workload]
    try:
        workloads.gate(wl, args.seed)
        setup = [time.perf_counter() - T0] + probe_setup(wl.name, args.seed, SETUP_PROBES // 2)
        run = traced if args.trace else untraced
        values, info, loops, trials = run(wl, args)
        setup += probe_setup(wl.name, args.seed, SETUP_PROBES - SETUP_PROBES // 2)
    except workloads.CorrectnessError as exc:
        print(f"run.py: incorrect output, no metrics reported: {exc}", file=sys.stderr)
        return 1

    attempted = sum(loop.attempted for loop in loops)
    failed = sum(loop.failed for loop in loops)
    if not args.trace:
        values["setup_s"] = statistics.median(setup)
    info = {
        "workload": wl.name, "seed": args.seed, "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds, "trace": args.trace, "env": workloads.environment(),
        "setup_samples_s": setup, "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted,
        "failures": ([t["failure"] for t in trials if t["failure"]]
                     + [f for loop in loops for f in loop.failures])[:20],
        **info,
    }
    kind = "per_layer" if args.trace else "end_to_end"
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[kind]}

    print(f"{wl.name} seed={args.seed} trace={args.trace}: {attempted} trials attempted, "
          f"{failed} failed (failed_frac {failed / attempted:g})", file=sys.stderr)
    for name, metric in metrics.items():
        print(f"  {name:44s} {metric['value']:12.6g} {metric['unit']}", file=sys.stderr)
    if not args.trace:
        print(f"  (trial_ms_tail is p{wl.tail_pct:g} of {info['latency_samples']} trials)",
              file=sys.stderr)
        for p, v in info["rmse"].items():
            print(f"  {'rmse_' + p:44s} {v:12.6g} rel (first {info['rmse_trials']} trials)",
                  file=sys.stderr)

    print(json.dumps({"info": info}))
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
