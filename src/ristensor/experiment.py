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
from dataclasses import asdict, dataclass, field

import numpy as np

from .config import ScenarioConfig, default_delay
from .esprit import SensingEstimate, extract_parameters
from .estimation import (
    AlsSettings,
    als_stage1,
    als_stage2,
    remove_core_scaling,
)
from .exceptions import DivergenceError, EmptyCellError, IdentifiabilityError
from .signal_model import (
    TargetParameters,
    add_noise_at_snr,
    build_bs_ris_channel,
    build_random_codebook,
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
        self.sweep_values = tuple(self.sweep_values)
        if self.sweep_variable == "none":
            if self.sweep_values not in ((), (None,)):
                raise ValueError(
                    f"sweep_variable 'none' takes no sweep values, got {self.sweep_values}"
                )
            self.sweep_values = (None,)
        self.snr_grid_db = tuple(float(s) for s in self.snr_grid_db)

    def validate(self) -> None:
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not self.sweep_values:
            raise ValueError("sweep_values must be nonempty")
        if not self.snr_grid_db or not np.all(np.isfinite(self.snr_grid_db)):
            raise ValueError(f"snr_grid_db must be nonempty and finite, got {self.snr_grid_db}")
        for value in self.sweep_values:
            _require_estimable(self.config_for(value))

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


def _require_estimable(cfg: ScenarioConfig) -> None:
    """Reject a scenario the pipeline cannot estimate, before any work.

    Doppler and delay are read off phase steps, which take two samples
    (``M, Q >= 2``, else ValueError); the stage-1 fit is unique only when
    ``K >= N^2`` and ``M*Q >= L`` (else :class:`IdentifiabilityError`).
    """
    if cfg.M < 2 or cfg.Q < 2:
        raise ValueError(f"Doppler and delay extraction need M >= 2 and Q >= 2, "
                         f"got M={cfg.M}, Q={cfg.Q}")
    if cfg.K < cfg.N**2 or cfg.M * cfg.Q < cfg.L:
        raise IdentifiabilityError(
            f"the bounds K >= N^2 and M*Q >= L do not hold (K={cfg.K}, N={cfg.N}, "
            f"M*Q={cfg.M * cfg.Q}, L={cfg.L})"
        )


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

    Checks that ``cfg`` is estimable (ValueError or
    :class:`IdentifiabilityError` before anything is drawn), then draws the
    scene, synthesizes and perturbs the echo, runs both fitting stages,
    removes the core scaling with the known channel/pilots, and extracts
    the parameters.  ``trial_seed`` may be an int or a
    ``numpy.random.SeedSequence``; every draw, the two ALS starting points
    included, comes from a child of it, so the trial is deterministic given
    it.  A :class:`DivergenceError` from either stage or the de-scaling
    propagates to the caller, which records the trial as failed; so does a
    degenerate estimate that parameter extraction rejects, turned into a
    :class:`DivergenceError` that keeps the reason.
    """
    _require_estimable(cfg)
    root = (
        trial_seed
        if isinstance(trial_seed, np.random.SeedSequence)
        else np.random.SeedSequence(trial_seed)
    )
    s_target, s_pilot, s_code, s_alpha, s_noise, s_als1, s_als2 = root.spawn(7)
    target = draw_target(cfg, np.random.default_rng(s_target))
    target.validate(cfg)
    pilots = generate_pilots(cfg, np.random.default_rng(s_pilot))
    codebook = build_random_codebook(cfg.N, cfg.K, np.random.default_rng(s_code))
    alpha = draw_path_gain(cfg, np.random.default_rng(s_alpha))

    clean = generate_echo_tensor(cfg, target, codebook, pilots, alpha)
    echo = add_noise_at_snr(clean, snr_db, np.random.default_rng(s_noise))

    stage1 = als_stage1(echo, codebook, als, seed=s_als1)
    channel = build_bs_ris_channel(target.eta, target.mu_a, target.psi_a, cfg)
    core_fixed = remove_core_scaling(stage1, channel, pilot_matrix(pilots))
    # Stage 2 refits the delay/Doppler vectors from random draws but carries
    # the stage-1 channel estimate forward as its starting point, which
    # avoids the occasional swamp of a fully random restart.
    stage2 = als_stage2(stage1.dd_factor_hat, pilots, stage1.channel_hat, als, seed=s_als2)
    try:
        estimate = extract_parameters(
            stage2.doppler_hat, stage2.delay_hat, core_fixed, cfg, truth=target
        )
    except ValueError as exc:
        # Its inputs are this trial's own estimates, so a rejected one (an
        # all-zero delay or Doppler vector, say) is a failed fit.
        raise DivergenceError(f"parameter extraction failed: {exc}") from exc
    diagnostics = {
        "stage1_iters": stage1.iterations,
        "stage2_iters": stage2.iterations,
        "stage1_converged": stage1.converged,
        "stage2_converged": stage2.converged,
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


def complexity_estimate(cfg: ScenarioConfig, iters1: int, iters2: int) -> ComplexityReport:
    """Evaluate the closed-form per-stage operation counts.

    A pseudoinverse or least-squares solve of an ``r x c`` system counts
    ``r * c * min(r, c)`` (``n^3`` for a square one), and a product of an
    ``r x s`` by an ``s x c`` matrix ``r * s * c``.  Stage 1 first projects
    the ``K`` blocks onto ``r_W = min(K, N(N+1)/2)`` basis vectors: a thin
    QR of the ``K x r_W`` distinct columns of ``(W kr W)^T`` (``K*r_W^2``),
    the projection of the echo plus its rebuild for the out-of-span energy
    (``2*L*M*Q*K*r_W``), and the ``N^2 x N^2`` Gram of the projected
    ``(W kr W)^T`` (``r_W*N^4``), once per call.  The Gram ``F^H F`` of
    the ``M*Q x N`` factor (``M*Q*N^2``) and the projection ``echo x2 F^H``
    (``N*M*Q*L*r_W``) run once before the first sweep and once in every
    sweep.  A sweep solves the ``N x N`` normal equations of the channel and
    delay/Doppler updates (``N^3`` each).  The channel Gram is the sandwich
    ``sum_j W_j^T conj(F^H F) conj(W_j)`` over the ``r_W`` slices
    (``2*r_W*N^3``), and its right-hand side multiplies the ``N x r_W*N``
    slices into the ``r_W*N x L`` projected echo (``N^2*r_W*L``).  The
    factor Gram comes from the ``N x r_W*L`` factor system (``N^2*r_W*L``),
    and its right-hand side multiplies that system into the ``r_W*L x M*Q``
    echo unfolding (``N*r_W*L*M*Q``).  The fit error multiplies the
    ``M*Q x N`` factor into the factor system, ``M*Q*N*L*r_W`` more.  The
    core update solves its ``N^2 x N^2`` normal equations (``N^6``), built
    from ``H^H H`` (``N^2*L``), the Kronecker product of the factor Grams
    times the block Gram (``N^4``) and a right-hand side of one mode product
    of the ``L x N x r_W`` projected echo (``N^2*r_W*L``) contracted with
    the block factor (``r_W*N^2``).  Once ``K`` exceeds ``N(N+1)/2`` only
    the one-time terms grow with K.
    Stage 2 counts two ``N*L*M*Q`` products, an ``L x M*Q`` pseudoinverse
    and the ``2*N*M*Q`` sums of the scalar Doppler and delay fits per sweep.
    """
    n, l, m, q, k = cfg.N, cfg.L, cfg.M, cfg.Q, cfg.K
    if iters1 < 1 or iters2 < 1:
        raise ValueError("iteration counts must be >= 1")
    r_w = min(k, n * (n + 1) // 2)
    f_terms = m * q * n * (n + l * r_w)  # F^H F and echo x2 F^H
    core = n**6 + n**4 + n**2 * l + n * r_w * (l * n + n)
    stage1 = k * r_w * (2 * l * m * q + r_w) + r_w * n**4 + f_terms + iters1 * (
        2 * n * r_w * (n**2 + l * (n + m * q)) + 2 * n**3 + f_terms + core
    )
    stage2 = iters2 * (m * q * (2 * n * l + l * min(l, m * q) + 2 * n))
    return ComplexityReport(
        dims={"L": l, "N": n, "M": m, "Q": q, "K": k,
              "iters1": iters1, "iters2": iters2},
        stage1_ops=int(stage1),
        stage2_ops=int(stage2),
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
