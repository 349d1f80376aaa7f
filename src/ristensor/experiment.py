"""Monte-Carlo RMSE experiments, the complexity model, and result persistence.

A sweep is a grid over one scenario dimension (Q, K, N or none) and an SNR
list.  Every (sweep value, SNR, trial) cell derives its own seed from the
master seed by counter mixing, so the whole sweep output is a pure function
of the spec and is identical for any trial scheduling or worker count.
"""

from __future__ import annotations

import csv
import io
import json
import math
import platform
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .config import ScenarioConfig, default_delay
from .esprit import SensingEstimate, extract_parameters
from .estimation import (
    AlsSettings,
    als_stage1,
    als_stage2,
    remove_core_scaling,
    tensorize_factor,
)
from .exceptions import DivergenceError, EmptyCellError, IdentifiabilityError
from .signal_model import (
    TargetParameters,
    add_noise_at_snr,
    build_bs_ris_channel,
    build_codebook,
    draw_path_gain,
    generate_echo_tensor,
    generate_pilots,
    pilot_matrix,
)

PARAMETERS = ("tau", "nu", "mu_D", "psi_D")
_PARAM_KEYS = {"tau": "tau", "nu": "nu", "mu_D": "mu_d", "psi_D": "psi_d"}

#: truth draws stay this far away from the {0, pi/2} angle edges so the
#: relative-error denominators |mu_D| and |psi_D| are bounded below
ANGLE_MARGIN = 0.1
#: Doppler magnitude range as a fraction of 1/T_s (sign drawn at random)
DOPPLER_RANGE = (0.05, 0.45)


@dataclass
class ExperimentSpec:
    """Full description of one Monte-Carlo sweep."""

    base: ScenarioConfig = field(default_factory=ScenarioConfig)
    sweep_variable: str = "none"  # one of Q, K, N, none
    sweep_values: tuple = ()
    snr_grid_db: tuple = (-10.0, -5.0, 0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0)
    trials: int = 200
    master_seed: int = 0
    als: AlsSettings = field(default_factory=AlsSettings)
    n_sweep_tracks_blocks: bool = False  # N sweep: keep K pinned, or K = N^2

    def __post_init__(self):
        if self.sweep_variable not in ("Q", "K", "N", "none"):
            raise ValueError(f"unsupported sweep variable {self.sweep_variable!r}")
        if self.sweep_variable == "none" and not self.sweep_values:
            self.sweep_values = (None,)
        self.sweep_values = tuple(self.sweep_values)
        self.snr_grid_db = tuple(float(s) for s in self.snr_grid_db)

    def validate(self) -> None:
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not self.sweep_values:
            raise ValueError("sweep_values must be nonempty")
        if not self.snr_grid_db:
            raise ValueError("snr_grid_db must be nonempty")
        for value in self.sweep_values:
            cfg = self.config_for(value)
            if cfg.K < cfg.N**2 or cfg.M * cfg.Q < cfg.L:
                raise IdentifiabilityError(
                    f"sweep cell {self.sweep_variable}={value} violates the bounds "
                    f"K >= N^2 and M*Q >= L (K={cfg.K}, N={cfg.N}, M*Q={cfg.M * cfg.Q},"
                    f" L={cfg.L})"
                )

    def config_for(self, value) -> ScenarioConfig:
        """Scenario for one sweep value."""
        if self.sweep_variable == "none" or value is None:
            return self.base
        value = int(value)
        if self.sweep_variable == "Q":
            return self.base.replace(Q=value)
        if self.sweep_variable == "K":
            return self.base.replace(K=value)
        side = math.isqrt(value)
        if side * side != value:
            raise ValueError(f"N sweep values must be perfect squares, got {value}")
        blocks = value**2 if self.n_sweep_tracks_blocks else self.base.K
        return self.base.replace(N_y=side, N_z=side, K=blocks)


@dataclass
class RmseRecord:
    """RMSE of one parameter in one (sweep value, SNR) cell."""

    sweep_var: str
    sweep_value: float | None
    snr_db: float
    parameter: str
    rmse: float
    trials_used: int
    mean_stage1_iters: float
    mean_stage2_iters: float


@dataclass
class ComplexityReport:
    """Closed-form operation counts of the two fitting stages."""

    dims: dict
    stage1_ops: int
    stage2_ops: int
    wall_time_s: float | None = None


def draw_target(cfg: ScenarioConfig, rng: np.random.Generator) -> TargetParameters:
    """Draw one target/geometry realization.

    Elevations and azimuths are uniform on the first quadrant, kept
    ``ANGLE_MARGIN`` away from the edges; the Doppler magnitude is uniform
    over ``DOPPLER_RANGE`` (in units of 1/T_s) with a random sign; the delay
    is the fixed round-trip over the configured geometry.
    """
    low, high = ANGLE_MARGIN, np.pi / 2 - ANGLE_MARGIN
    kappa, elev_a, azim_a, elev_d, azim_d = rng.uniform(low, high, size=5)
    nu_mag = rng.uniform(*DOPPLER_RANGE) / cfg.T_s
    sign = 1.0 if rng.random() < 0.5 else -1.0
    return TargetParameters(
        tau=default_delay(cfg),
        nu=sign * nu_mag,
        mu_d=float(np.pi * np.sin(elev_d) * np.sin(azim_d)),
        psi_d=float(np.pi * np.cos(elev_d)),
        mu_a=float(np.pi * np.sin(elev_a) * np.sin(azim_a)),
        psi_a=float(np.pi * np.cos(elev_a)),
        eta=float(np.pi * np.cos(kappa)),
    )


def run_trial(
    cfg: ScenarioConfig,
    als: AlsSettings,
    snr_db: float,
    trial_seed,
) -> tuple[SensingEstimate, dict]:
    """One end-to-end Monte-Carlo trial.

    Draws the scene, synthesizes and perturbs the echo, runs both fitting
    stages, removes the core scaling with the known channel/pilots, and
    extracts the parameters.  ``trial_seed`` may be an int or a
    ``numpy.random.SeedSequence``; everything downstream is derived from it
    deterministically.  A :class:`DivergenceError` from either stage
    propagates to the caller, which records the trial as failed.
    """
    root = (
        trial_seed
        if isinstance(trial_seed, np.random.SeedSequence)
        else np.random.SeedSequence(trial_seed)
    )
    s_target, s_pilot, s_code, s_alpha, s_noise, s_als1, s_als2 = root.spawn(7)
    target = draw_target(cfg, np.random.default_rng(s_target))
    target.validate(cfg)
    pilots = generate_pilots(cfg, np.random.default_rng(s_pilot))
    codebook = build_codebook(cfg, np.random.default_rng(s_code))
    alpha = draw_path_gain(cfg, np.random.default_rng(s_alpha))

    clean = generate_echo_tensor(cfg, target, codebook, pilots, alpha)
    echo = add_noise_at_snr(clean, snr_db, np.random.default_rng(s_noise))

    stage1 = als_stage1(echo.y_noisy, codebook, replace(als, seed=s_als1))
    channel = build_bs_ris_channel(target.eta, target.mu_a, target.psi_a, cfg)
    core_fixed = remove_core_scaling(stage1, channel, pilot_matrix(pilots))
    # Stage 2 refits the delay/Doppler vectors from random draws but carries
    # the stage-1 channel estimate forward as its starting point, which
    # avoids the occasional swamp of a fully random restart.
    stage2 = als_stage2(
        tensorize_factor(stage1.dd_factor_hat, cfg.M, cfg.Q),
        pilots,
        replace(als, seed=s_als2),
        channel_init=stage1.channel_hat,
    )
    estimate = extract_parameters(
        stage2.doppler_hat, stage2.delay_hat, core_fixed, cfg, truth=target
    )
    diagnostics = {
        "stage1_iters": stage1.iterations,
        "stage2_iters": stage2.iterations,
        "stage1_converged": stage1.converged,
        "stage2_converged": stage2.converged,
        "realized_snr": echo.realized_snr,
        "target": target,
    }
    return estimate, diagnostics


def trial_seed_sequence(
    master_seed: int, sweep_index: int, snr_index: int, trial_index: int
) -> np.random.SeedSequence:
    """Counter-mixed per-trial seed; independent of execution order."""
    return np.random.SeedSequence((master_seed, sweep_index, snr_index, trial_index))


def _run_cell_trial(spec: ExperimentSpec, cfg, si, ni, vi, snr_db):
    seed = trial_seed_sequence(spec.master_seed, si, ni, vi)
    try:
        return run_trial(cfg, spec.als, snr_db, seed)
    except DivergenceError:
        return None


def run_sweep(spec: ExperimentSpec, jobs: int = 1) -> list[RmseRecord]:
    """Run the full sweep and aggregate per-parameter RMSEs.

    RMSE(x) = sqrt(mean over used trials of |x - x_hat|^2 / |x|^2).  Trials
    that diverge are excluded and counted; a cell with no usable trial at
    all raises :class:`EmptyCellError`.  Trials run on ``jobs`` worker
    threads; output is deterministic for a fixed spec, regardless of ``jobs``.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    spec.validate()
    tasks = []
    for si, value in enumerate(spec.sweep_values):
        cfg = spec.config_for(value)
        for ni, snr_db in enumerate(spec.snr_grid_db):
            for vi in range(spec.trials):
                tasks.append((si, ni, vi, cfg, snr_db))

    with ThreadPoolExecutor(max_workers=jobs) as pool:
        outcomes = list(
            pool.map(
                lambda t: _run_cell_trial(spec, t[3], t[0], t[1], t[2], t[4]),
                tasks,
            )
        )

    by_cell: dict[tuple[int, int], list] = {}
    for (si, ni, vi, _, _), outcome in zip(tasks, outcomes):
        by_cell.setdefault((si, ni), []).append(outcome)

    records: list[RmseRecord] = []
    for si, value in enumerate(spec.sweep_values):
        for ni, snr_db in enumerate(spec.snr_grid_db):
            cell = by_cell[(si, ni)]
            used = [out for out in cell if out is not None]
            if not used:
                raise EmptyCellError(
                    f"all {spec.trials} trials failed in cell "
                    f"({spec.sweep_variable}={value}, snr={snr_db} dB)"
                )
            iters1 = float(np.mean([d["stage1_iters"] for _, d in used]))
            iters2 = float(np.mean([d["stage2_iters"] for _, d in used]))
            for parameter in PARAMETERS:
                key = _PARAM_KEYS[parameter]
                errors = np.array([est.rel_errors[key] for est, _ in used])
                records.append(
                    RmseRecord(
                        sweep_var=spec.sweep_variable,
                        sweep_value=None if value is None else float(value),
                        snr_db=float(snr_db),
                        parameter=parameter,
                        rmse=float(np.sqrt(np.mean(errors**2))),
                        trials_used=len(used),
                        mean_stage1_iters=iters1,
                        mean_stage2_iters=iters2,
                    )
                )
    return records


def complexity_estimate(
    cfg: ScenarioConfig, iters1: int, iters2: int, wall_time_s: float | None = None
) -> ComplexityReport:
    """Evaluate the closed-form per-stage operation counts.

    Stage 1 is dominated by the pseudoinverse of the Khatri-Rao system of
    width N^2; stage 2 by the two structured vector solves.
    """
    n, l, m, q, k = cfg.N, cfg.L, cfg.M, cfg.Q, cfg.K
    if iters1 < 1 or iters2 < 1:
        raise ValueError("iteration counts must be >= 1")
    stage1 = iters1 * (n**2 * k * (m * q * (1 + l * n**2) + l))
    stage2 = iters2 * (n * (m * q * (m**2 + q**2) + l**2))
    return ComplexityReport(
        dims={"L": l, "N": n, "M": m, "Q": q, "K": k,
              "iters1": iters1, "iters2": iters2},
        stage1_ops=int(stage1),
        stage2_ops=int(stage2),
        wall_time_s=wall_time_s,
    )


_CSV_HEADER = [
    "sweep_var", "sweep_value", "snr_db", "parameter",
    "rmse", "trials_used", "stage1_iters", "stage2_iters",
]


def _sort_key(record: RmseRecord):
    value = -math.inf if record.sweep_value is None else record.sweep_value
    return (value, record.snr_db, PARAMETERS.index(record.parameter))


def write_results(records: list[RmseRecord], path: str) -> None:
    """Write records as CSV: full float precision, deterministic row order."""
    if not records:
        raise ValueError("write_results: no records to write")
    rows = sorted(records, key=_sort_key)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(_CSV_HEADER)
    for rec in rows:
        writer.writerow([
            rec.sweep_var,
            "" if rec.sweep_value is None else repr(rec.sweep_value),
            repr(rec.snr_db),
            rec.parameter,
            repr(rec.rmse),
            rec.trials_used,
            repr(rec.mean_stage1_iters),
            repr(rec.mean_stage2_iters),
        ])
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(buffer.getvalue())


def read_results(path: str) -> list[RmseRecord]:
    """Read back a CSV produced by :func:`write_results`."""
    records = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != _CSV_HEADER:
            raise ValueError(f"unexpected CSV header {header}")
        for row in reader:
            records.append(
                RmseRecord(
                    sweep_var=row[0],
                    sweep_value=None if row[1] == "" else float(row[1]),
                    snr_db=float(row[2]),
                    parameter=row[3],
                    rmse=float(row[4]),
                    trials_used=int(row[5]),
                    mean_stage1_iters=float(row[6]),
                    mean_stage2_iters=float(row[7]),
                )
            )
    return records


def write_manifest(spec: ExperimentSpec, csv_path: str, manifest_path: str) -> None:
    """JSON run manifest: spec echo, seed scheme, versions.  Deterministic."""
    from . import __version__

    manifest = {
        "spec": asdict(spec),
        "csv": csv_path,
        "parameters": list(PARAMETERS),
        "seed_scheme": "SeedSequence((master_seed, sweep_index, snr_index, trial_index))",
        "versions": {
            "ristensor": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
    }
    with open(manifest_path, "w", encoding="utf-8", newline="") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
