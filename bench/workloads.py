"""Benchmark workloads: their scenarios, the correctness gate and the closed loops.

Each workload is a closed loop with one client: the next trial (or sweep)
starts only when the previous one has returned.  Every input is derived from
the workload seed, so one seed always gives the same trials.

Importing this module pins the BLAS and OpenMP pools to one thread and puts
the checkout's ``src`` first on ``sys.path``; both must happen before numpy
and ristensor are first imported, so every entry point imports this module
before anything that loads numpy.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

# Parallelism comes only from run_sweep(jobs=2); BLAS threads on top of that
# oversubscribe the 2 cores.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"
ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import math  # noqa: E402
import platform  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402

import numpy as np  # noqa: E402

from ristensor import experiment  # noqa: E402
from ristensor.config import ScenarioConfig, small_config  # noqa: E402
from ristensor.estimation import AlsSettings  # noqa: E402

PARAMETERS = ("tau", "nu", "mu_d", "psi_d")

#: the gate repeats acceptance criterion 01: a noiseless trial, fitted to
#: convergence, must recover every parameter to this relative error
GATE_SNR_DB = 300.0
GATE_TOL = 1e-6
GATE_ALS = AlsSettings(max_iters=400, tol=1e-16)
#: trial index of the gate trial, outside the range any loop reaches
GATE_INDEX = 2**31 - 1

SWEEP_JOBS = 2
SWEEP_Q = (8, 32)


class CorrectnessError(RuntimeError):
    """The program produced a wrong or non-finite output."""


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``min_units`` trials (or sweeps) always run, however short ``--seconds``
    is; the RMSEs pool exactly the trials of those units, so for a fixed seed
    they repeat exactly on any machine.  ``tail_pct`` is fixed per workload,
    so that it means the same on a faster commit.  A 30 s run on 2 cores
    times about 50, 20 and 4 trials on sweep_small, trial_converge and
    trial_ris9, so no percentile above the median has ten samples beyond it;
    p90, p70 and p75 (the second slowest of four) are used, because the
    maximum of trial_ris9 swung by 18% (quartile spread over ten seeds).

    Each unit (a trial, or a sweep) runs ``repeats`` times on the same inputs
    and only its fastest run is timed (see ``run_loop``).  On a shared host
    interference only ever adds time: the same sweep took 4.3 to 6.7 s within
    a minute, and a run's plain mean moved by up to 20% with it, against
    about half that for the fastest of the repeats.  ``trial_ris9`` runs each
    trial once: its 6-9 s trials leave too few units in a run to repeat them,
    and it stayed within its bounds without repeats.
    """

    name: str
    scenarios: tuple[ScenarioConfig, ...]
    als: AlsSettings
    snr_db: tuple[float, ...]
    min_units: int
    tail_pct: float
    repeats: int
    sweep_trials: int = 0  # trials per (Q, SNR) cell; 0 runs run_trial in sequence


WORKLOADS = {
    w.name: w
    for w in (
        # Acceptance and sweep traffic: many small dense kernels on 2 worker
        # threads; the only workload that uses the runner's parallelism.
        Workload(
            name="sweep_small",
            scenarios=tuple(small_config(Q=q) for q in SWEEP_Q),
            als=AlsSettings(max_iters=30, tol=1e-8),
            snr_db=(0.0, 20.0),
            min_units=2,
            tail_pct=90.0,
            repeats=3,
            sweep_trials=4,
        ),
        # The stage-1 core pseudoinverse dominates (about 94% of a trial):
        # where a structured stage 1 must show its gain.  Largest working set.
        Workload(
            name="trial_ris9",
            scenarios=(small_config(N_y=3, N_z=3, K=81),),
            als=AlsSettings(max_iters=30, tol=1e-8),
            snr_db=(20.0,),
            min_units=4,
            tail_pct=75.0,
            repeats=1,
        ),
        # The CLI default iteration cap: stage-1 iteration counts vary from
        # trial to trial, so convergence work moves latency here.
        Workload(
            name="trial_converge",
            scenarios=(small_config(),),
            als=AlsSettings(max_iters=200, tol=1e-8),
            snr_db=(0.0, 20.0),
            min_units=10,
            tail_pct=70.0,
            repeats=2,
        ),
    )
}


def gate(workload: Workload, seed: int) -> None:
    """Run one noiseless trial per scenario; raise unless every error < GATE_TOL."""
    for cfg in workload.scenarios:
        estimate, _ = experiment.run_trial(
            cfg, GATE_ALS, GATE_SNR_DB, np.random.SeedSequence((seed, GATE_INDEX))
        )
        worst = max(estimate.rel_errors.values())
        if not worst < GATE_TOL:
            raise CorrectnessError(
                f"gate: noiseless trial at N={cfg.N}, Q={cfg.Q}, K={cfg.K} has worst "
                f"relative error {worst:.3e}, need < {GATE_TOL:g}"
            )


def sweep_spec(workload: Workload, seed: int, index: int) -> experiment.ExperimentSpec:
    """The ``index``-th sweep of a sweep workload; its master seed mixes both."""
    master = int(np.random.SeedSequence((seed, index)).generate_state(1)[0])
    return experiment.ExperimentSpec(
        base=workload.scenarios[0],
        sweep_variable="Q",
        sweep_values=SWEEP_Q,
        snr_grid_db=workload.snr_db,
        trials=workload.sweep_trials,
        master_seed=master,
        als=workload.als,
    )


@dataclass
class LoopResult:
    attempted: int  # trials, every repeat counted
    failed: int
    wall_s: float  # time spent inside the program's entry points, every repeat
    best_wall_s: float  # the same, counting only the fastest repeat of each unit
    kept: list  # (start, end) trial-record indices of each unit's fastest repeat
    failures: list  # sweeps that raised; a failed trial's reason is in its record

    def units(self, trials: list) -> list:
        """The trial records of each unit's fastest repeat, in order."""
        return [trials[a:b] for a, b in self.kept]


def run_loop(workload: Workload, seed: int, seconds: float, trials: list) -> LoopResult:
    """Drive the workload for about ``seconds`` (and at least ``min_units`` units).

    A unit is one trial or one sweep.  The first pass runs new units for
    ``seconds / repeats``; each further pass runs the same units again, on
    the same inputs, and each unit keeps its fastest run.  The repeats of a
    unit are thus a pass apart, so a slow spell of the host shorter than a
    pass cannot slow all of them.  Calls go through ``experiment.run_trial`` /
    ``experiment.run_sweep`` by attribute, so a tracer that rebinds them sees
    every trial.  ``trials`` is the tracer's list of finished trial records,
    which the loop splits into units.
    """
    run_unit = _sweep_unit if workload.sweep_trials else _trial_unit
    runs, failures = [], []  # (attempted, failed, seconds) of every unit run

    def timed(index):
        first = len(trials)
        runs.append(run_unit(workload, seed, index, trials, failures))
        return runs[-1][2], (first, len(trials))

    best = []  # (seconds, trial-record slice) of each unit's fastest run
    start = time.perf_counter()
    while len(best) < workload.min_units or time.perf_counter() - start < seconds / workload.repeats:
        best.append(timed(len(best)))
    for _ in range(workload.repeats - 1):
        best = [min(fastest, timed(index)) for index, fastest in enumerate(best)]
    return LoopResult(
        attempted=sum(r[0] for r in runs),
        failed=sum(r[1] for r in runs),
        wall_s=sum(r[2] for r in runs),
        best_wall_s=sum(b[0] for b in best),
        kept=[b[1] for b in best],
        failures=failures,
    )


def _trial_unit(workload, seed, index, trials, failures):
    snr_db = workload.snr_db[index % len(workload.snr_db)]
    trial_seed = np.random.SeedSequence((seed, index))
    t0 = time.perf_counter()
    try:
        experiment.run_trial(workload.scenarios[0], workload.als, snr_db, trial_seed)
        bad = 0
    except Exception:  # one bad trial must not stop the loop; its record keeps the reason
        bad = 1
    return 1, bad, time.perf_counter() - t0


def _sweep_unit(workload, seed, index, trials, failures):
    per_sweep = len(SWEEP_Q) * len(workload.snr_db) * workload.sweep_trials
    spec = sweep_spec(workload, seed, index)
    first = len(trials)
    t0 = time.perf_counter()
    try:
        records = experiment.run_sweep(spec, jobs=SWEEP_JOBS)
    except Exception as exc:  # count the whole sweep as failed, keep going
        failures.append(f"sweep {index}: {type(exc).__name__}: {exc}")
        return per_sweep, per_sweep, time.perf_counter() - t0
    took = time.perf_counter() - t0
    return per_sweep, per_sweep - check_sweep(spec, records, trials[first:]), took


def check_sweep(spec, records, trials) -> int:
    """Check a sweep's RMSE records against its own trials; return trials used.

    Every cell's RMSE must equal the one recomputed from the relative errors
    of the cell's successful trials, as seen by the tracer.
    """
    cells: dict[tuple[int, int], list] = {}
    for trial in trials:
        if trial.get("failure") is None:
            _, si, ni, _ = trial["seed"]
            cells.setdefault((si, ni), []).append(trial["rel_errors"])
    by_name = {"mu_D": "mu_d", "psi_D": "psi_d"}
    for rec in records:
        si = spec.sweep_values.index(int(rec.sweep_value))
        ni = spec.snr_grid_db.index(rec.snr_db)
        errors = [e[by_name.get(rec.parameter, rec.parameter)] for e in cells.get((si, ni), [])]
        expected = math.sqrt(math.fsum(e * e for e in errors) / len(errors)) if errors else math.nan
        if rec.trials_used != len(errors) or not math.isclose(rec.rmse, expected, rel_tol=1e-12):
            raise CorrectnessError(
                f"sweep cell Q={rec.sweep_value}, snr={rec.snr_db}: rmse {rec.rmse!r} over "
                f"{rec.trials_used} trials, recomputed {expected!r} over {len(errors)}"
            )
    return sum(len(v) for v in cells.values())


def check_trials(trials: list) -> None:
    """Every finished trial must report finite relative errors."""
    for trial in trials:
        if trial.get("failure") is None and not all(
            math.isfinite(trial["rel_errors"][p]) for p in PARAMETERS
        ):
            raise CorrectnessError(f"trial {trial['seed']}: non-finite error {trial['rel_errors']}")


def pooled_rmse(trials: list) -> dict:
    """Relative-error RMSE per parameter over the successful trials given.

    ``math.fsum`` makes the result independent of the order in which
    parallel trials finished.
    """
    ok = [t["rel_errors"] for t in trials if t.get("failure") is None]
    return {
        p: math.sqrt(math.fsum(e[p] ** 2 for e in ok) / len(ok)) if ok else math.nan
        for p in PARAMETERS
    }


def environment() -> dict:
    """Thread settings and versions recorded in every result."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        openblas = "unknown"
    return {
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "OMP_NUM_THREADS": os.environ["OMP_NUM_THREADS"],
        "sweep_jobs": SWEEP_JOBS,
        "nproc": len(os.sched_getaffinity(0)),
        "numpy": np.__version__,
        "blas": openblas,
        "python": platform.python_version(),
    }
