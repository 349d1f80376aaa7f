"""Monte-Carlo RMSE experiments, the complexity model, and result persistence.

A sweep is a grid over one scenario count (any that
:func:`~ristensor.config.vary` sets, or none) and an SNR list.  Every
(sweep value, SNR, trial) cell derives its own seed from the master seed by
counter mixing, so the whole sweep output is a pure function of the spec
and is identical for any trial order.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import platform
from dataclasses import asdict, astuple, dataclass, field, fields

import numpy as np

from .config import ScenarioConfig, default_delay, is_integer, vary
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
    relative_errors,
    snr_in_range,
)

#: CSV names of the estimated parameters.  Lower-cased, each name is also
#: the ``TargetParameters`` field and the ``relative_errors`` key.
PARAMETERS = ("tau", "nu", "mu_D", "psi_D")

#: truth draws stay this far away from the {0, pi/2} angle edges so the
#: relative-error denominators |mu_D| and |psi_D| are bounded below
ANGLE_MARGIN = 0.1
#: Doppler magnitude range as a fraction of 1/T_s (sign drawn at random)
DOPPLER_RANGE = (0.05, 0.45)


@dataclass
class ExperimentSpec:
    """Full description of one Monte-Carlo sweep."""

    base: ScenarioConfig = field(default_factory=ScenarioConfig)
    sweep_variable: str = "none"  # a count that config.vary sets, or none
    sweep_values: tuple = ()
    snr_grid_db: tuple = (-10.0, -5.0, 0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0)
    trials: int = 200
    master_seed: int = 0
    als: AlsSettings = field(default_factory=AlsSettings)

    def __post_init__(self):
        self.sweep_values = tuple(self.sweep_values)
        if self.sweep_variable == "none":
            if self.sweep_values not in ((), (None,)):
                raise ValueError(
                    f"sweep_variable 'none' takes no sweep values, got {self.sweep_values}"
                )
            self.sweep_values = (None,)
        self.snr_grid_db = tuple(float(s) for s in self.snr_grid_db)

    def validate(self) -> None:
        if not is_integer(self.trials) or self.trials < 1:
            raise ValueError(f"trials must be an integer >= 1, got {self.trials!r}")
        # SeedSequence takes only non-negative integer entropy
        if not is_integer(self.master_seed) or self.master_seed < 0:
            raise ValueError(f"master_seed must be an integer >= 0, got {self.master_seed!r}")
        self.als.validate()
        if not self.sweep_values:
            raise ValueError("sweep_values must be nonempty")
        if not self.snr_grid_db or not all(map(snr_in_range, self.snr_grid_db)):
            raise ValueError(f"snr_grid_db must be nonempty, each with a finite positive "
                             f"power ratio 10^(snr/10), got {self.snr_grid_db}")
        # (sweep value, SNR) keys the result rows, so each must name one cell
        for name, values in (("sweep_values", self.sweep_values),
                             ("snr_grid_db", self.snr_grid_db)):
            if len(set(values)) < len(values):
                raise ValueError(f"{name} must not repeat a value, got {values}")
        for value in self.sweep_values:
            _require_estimable(self.config_for(value))

    def config_for(self, value) -> ScenarioConfig:
        """Scenario for one sweep value, by :func:`~ristensor.config.vary`,
        which rejects an unknown sweep variable; an N sweep also raises K to
        ``max(K, N^2)``."""
        if value is None:
            return self.base
        cfg = vary(self.base, self.sweep_variable, value)
        return cfg.replace(K=max(cfg.K, cfg.N**2)) if self.sweep_variable == "N" else cfg


@dataclass
class RmseRecord:
    """RMSE of one parameter in one (sweep value, SNR) cell.

    The fields, in order, are the CSV columns of :func:`write_results`;
    ``stage1_iters`` and ``stage2_iters`` are means over the used trials.
    """

    sweep_var: str
    sweep_value: float | None
    snr_db: float
    parameter: str
    rmse: float
    trials_used: int
    stage1_iters: float
    stage2_iters: float


@dataclass
class ComplexityReport:
    """Closed-form operation counts of the two fitting stages."""

    stage1_ops: int
    stage2_ops: int


def _require_estimable(cfg: ScenarioConfig) -> None:
    """Reject a scenario the pipeline cannot estimate, before any work.

    Doppler, delay and the two angles are read off phase steps, which take
    two samples (``M, Q >= 2`` and ``N_y, N_z >= 2``), and the delay
    :func:`~ristensor.config.default_delay` only inside ``[0, 1/delta_f)``
    (else ValueError); the stage-1 fit is unique only when ``K >= N^2`` and
    ``M*Q >= L`` (else :class:`IdentifiabilityError`).
    """
    if cfg.M < 2 or cfg.Q < 2:
        raise ValueError(f"Doppler and delay extraction need M >= 2 and Q >= 2, "
                         f"got M={cfg.M}, Q={cfg.Q}")
    if cfg.N_y < 2 or cfg.N_z < 2:
        raise ValueError(f"angle extraction needs a RIS of N_y >= 2 by N_z >= 2, "
                         f"got N_y={cfg.N_y}, N_z={cfg.N_z}")
    if not 0 <= cfg.delta_f * default_delay(cfg) < 1:
        raise ValueError(f"the delay 2(d1 + d2)/c = {default_delay(cfg):g} s is outside the "
                         f"unambiguous range [0, 1/delta_f) = [0, {cfg.T_s:g}) s")
    if cfg.K < cfg.N**2 or cfg.M * cfg.Q < cfg.L:
        raise IdentifiabilityError(
            f"the bounds K >= N^2 and M*Q >= L do not hold (K={cfg.K}, N={cfg.N}, "
            f"M*Q={cfg.M * cfg.Q}, L={cfg.L})"
        )


def draw_target(
    cfg: ScenarioConfig, rng: np.random.Generator
) -> tuple[TargetParameters, np.ndarray]:
    """Draw one target and the BS-RIS channel ``H`` of its scene.

    Elevations and azimuths are uniform on the first quadrant, kept
    ``ANGLE_MARGIN`` away from the edges; the Doppler magnitude is uniform
    over ``DOPPLER_RANGE`` (in units of 1/T_s) with a random sign; the delay
    is the fixed round-trip over the configured geometry.  The BS-RIS
    angles and the BS array angle only build ``H``, which the receiver
    knows.
    """
    low, high = ANGLE_MARGIN, np.pi / 2 - ANGLE_MARGIN
    kappa, elev_a, azim_a, elev_d, azim_d = rng.uniform(low, high, size=5)
    nu_mag = rng.uniform(*DOPPLER_RANGE) / cfg.T_s
    sign = 1.0 if rng.random() < 0.5 else -1.0
    target = TargetParameters(
        tau=default_delay(cfg),
        nu=sign * nu_mag,
        mu_d=float(np.pi * np.sin(elev_d) * np.sin(azim_d)),
        psi_d=float(np.pi * np.cos(elev_d)),
    )
    channel = build_bs_ris_channel(
        eta=float(np.pi * np.cos(kappa)),
        mu_a=float(np.pi * np.sin(elev_a) * np.sin(azim_a)),
        psi_a=float(np.pi * np.cos(elev_a)),
        cfg=cfg,
    )
    return target, channel


def run_trial(
    cfg: ScenarioConfig,
    als: AlsSettings,
    snr_db: float,
    trial_seed,
) -> tuple[SensingEstimate, dict]:
    """One end-to-end Monte-Carlo trial.

    Checks that ``cfg`` is estimable (ValueError or
    :class:`IdentifiabilityError` before anything is drawn), then draws the
    scene, synthesizes and perturbs the echo, runs stage 1 and then stage 2
    on its delay/Doppler factor, removes the core scaling by projecting both
    stages' channel estimates onto the known BS-RIS channel, extracts the
    parameters and scores them against the drawn truth
    (:func:`~ristensor.signal_model.relative_errors`, into the estimate's
    ``rel_errors``).  ``trial_seed`` may be an int or a
    ``numpy.random.SeedSequence``; every draw, the stage-1 starting point
    included, comes from a child of it, so the trial is deterministic given
    it.  A :class:`DivergenceError` from either stage propagates to the
    caller, which records the trial as failed; so does a degenerate estimate
    that parameter extraction rejects, turned into a
    :class:`DivergenceError` that keeps the reason.

    The diagnostics hold each stage's iteration count, its ``converged``
    flag and its final relative fit error (``stage1_rel_fit``,
    ``stage2_rel_fit``: the last fit error over the squared norm of the
    data that stage fits), plus the drawn ``target``.  Stage 1 computes its
    error from its normal equations, so on a noiseless echo it reads at the
    rounding level, about ``1e-16``, and may be slightly negative.
    """
    _require_estimable(cfg)
    root = (
        trial_seed
        if isinstance(trial_seed, np.random.SeedSequence)
        else np.random.SeedSequence(trial_seed)
    )
    s_target, s_pilot, s_code, s_alpha, s_noise, s_als1 = root.spawn(6)
    target, channel = draw_target(cfg, np.random.default_rng(s_target))
    target.validate(cfg)
    pilots = generate_pilots(cfg, np.random.default_rng(s_pilot))
    codebook = build_random_codebook(cfg.N, cfg.K, np.random.default_rng(s_code))
    alpha = draw_path_gain(cfg, np.random.default_rng(s_alpha))

    clean = generate_echo_tensor(cfg, target, channel, codebook, pilots, alpha)
    echo = add_noise_at_snr(clean, snr_db, np.random.default_rng(s_noise))

    stage1 = als_stage1(echo, codebook, als, seed=s_als1)
    stage2 = als_stage2(stage1.dd_factor_hat, pilots, stage1.channel_hat, als)
    core_fixed = remove_core_scaling(stage1, stage2, channel)
    try:
        estimate = extract_parameters(stage2.doppler_hat, stage2.delay_hat, core_fixed, cfg)
    except ValueError as exc:
        # Its inputs are this trial's own estimates, so a rejected one (an
        # all-zero delay or Doppler vector, say) is a failed fit.
        raise DivergenceError(f"parameter extraction failed: {exc}") from exc
    estimate.rel_errors = relative_errors(target, estimate, cfg)
    diagnostics = {
        "stage1_iters": stage1.iterations,
        "stage2_iters": stage2.iterations,
        "stage1_converged": stage1.converged,
        "stage2_converged": stage2.converged,
        "stage1_rel_fit": float(stage1.error_history[-1] / stage1.data_norm_sq),
        "stage2_rel_fit": float(stage2.error_history[-1] / stage2.data_norm_sq),
        "target": target,
    }
    return estimate, diagnostics


def trial_seed_sequence(
    master_seed: int, sweep_index: int, snr_index: int, trial_index: int
) -> np.random.SeedSequence:
    """Counter-mixed per-trial seed; independent of execution order."""
    return np.random.SeedSequence((master_seed, sweep_index, snr_index, trial_index))


def run_sweep(spec: ExperimentSpec, jobs: int = 1) -> list[RmseRecord]:
    """Run the full sweep and aggregate per-parameter RMSEs.

    RMSE(x) = sqrt(mean over used trials of the squared relative error of
    x, as :func:`~ristensor.signal_model.relative_errors` wraps it).  Trials
    that diverge are excluded and counted; a cell with no usable trial at
    all raises :class:`EmptyCellError`.  Trials run in the calling thread
    in one ordered pass over (cell, trial), cells in (sweep value, SNR)
    order, so cell ``c`` owns the contiguous slice
    ``outcomes[c*trials:(c+1)*trials]`` in trial order; output is
    deterministic for a fixed spec.

    ``jobs`` is accepted, validated as an integer >= 1, and has no effect:
    a desk-scale trial spends most of its time in numpy call overhead that
    holds the GIL, so worker threads only slowed sweeps down.  It goes once
    the benchmark's ``sweep_small`` workload stops passing it.
    """
    if not is_integer(jobs) or jobs < 1:
        raise ValueError(f"jobs must be an integer >= 1, got {jobs!r}")
    spec.validate()
    configs = [spec.config_for(value) for value in spec.sweep_values]
    cells = list(itertools.product(range(len(configs)), range(len(spec.snr_grid_db))))

    def trial(task):
        (si, ni), vi = task
        seed = trial_seed_sequence(spec.master_seed, si, ni, vi)
        try:
            return run_trial(configs[si], spec.als, spec.snr_grid_db[ni], seed)
        except DivergenceError:
            return None

    outcomes = list(map(trial, itertools.product(cells, range(spec.trials))))

    records: list[RmseRecord] = []
    for c, (si, ni) in enumerate(cells):
        value, snr_db = spec.sweep_values[si], spec.snr_grid_db[ni]
        cell = outcomes[c * spec.trials:(c + 1) * spec.trials]
        used = [out for out in cell if out is not None]
        if not used:
            raise EmptyCellError(
                f"all {spec.trials} trials failed in cell "
                f"({spec.sweep_variable}={value}, snr={snr_db} dB)"
            )
        iters1 = float(np.mean([d["stage1_iters"] for _, d in used]))
        iters2 = float(np.mean([d["stage2_iters"] for _, d in used]))
        for parameter in PARAMETERS:
            errors = np.array([est.rel_errors[parameter.lower()] for est, _ in used])
            records.append(
                RmseRecord(
                    sweep_var=spec.sweep_variable,
                    sweep_value=None if value is None else float(value),
                    snr_db=float(snr_db),
                    parameter=parameter,
                    rmse=float(np.sqrt(np.mean(errors**2))),
                    trials_used=len(used),
                    stage1_iters=iters1,
                    stage2_iters=iters2,
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
    the projection of the echo (``L*M*Q*K*r_W``), and the ``N^2 x N^2``
    Gram of the projected ``(W kr W)^T`` (``r_W*N^4``).  A thin QR
    ``U R`` of the ``M*Q x r_W*L`` mode-2 unfolding of the projected echo
    (``M*Q*r_W*L*r_F``, ``r_F = min(M*Q, r_W*L)``) lets the sweeps fit the
    ``r_F x N`` coordinates ``C = U^H F`` against ``R``.  Also once per
    call: the Gram of the random start ``F`` (``M*Q*N^2``), its coordinates
    and the final ``F = U C`` (``M*Q*r_F*N`` each), and the start's
    ``echo x2 F^H = C^H R`` (``N*r_F*r_W*L``).  Each sweep forms
    ``C^H C`` and ``C^H R`` (``r_F*N*(N + r_W*L)``) and solves the
    ``N x N`` normal equations of the channel and delay/Doppler updates
    (``N^3`` each).  The channel Gram is the sandwich
    ``sum_j W_j^T conj(F^H F) conj(W_j)`` over the ``r_W`` slices
    (``2*r_W*N^3``), and its right-hand side multiplies the ``N x r_W*N``
    slices into the ``r_W*N x L`` projected echo (``N^2*r_W*L``).  The
    factor Gram comes from the ``N x r_W*L`` factor system (``N^2*r_W*L``),
    and its right-hand side multiplies that system into ``R^H``
    (``N*r_W*L*r_F``).  The core update solves its ``N^2 x N^2`` normal
    equations (``N^6``), built from ``H^H H`` (``N^2*L``), the Kronecker
    product of the factor Grams times the block Gram (``N^4``) and a
    right-hand side of one mode product of the ``L x N x r_W`` projected
    echo (``N^2*r_W*L``) contracted with the block factor (``r_W*N^2``).
    The fit error reads those normal equations, ``<core, G core>``
    (``N^4``).  Once ``K`` exceeds ``N(N+1)/2`` only the one-time terms
    grow with K, and once ``M*Q`` exceeds ``r_W*L`` so do M and Q.
    Stage 2 counts the SVD of its ``Q x M`` start once (``Q*M*min(Q, M)``),
    and per sweep two ``N*L*M*Q`` products, an ``L x M*Q`` pseudoinverse
    and the ``2*N*M*Q`` sums of the scalar Doppler and delay fits.
    The counts leave out the certificate factorizations: the shifted
    Cholesky of each square Gram (:func:`~ristensor.tensorops.certified`),
    stacked after stage 1's sweeps for the ``N x N`` Grams and for core
    Grams small enough that two share a 128 KiB stack (``N <= 8``), per
    solve for larger core Grams, and the re-run of stage 1's sweeps that a
    failed stacked check costs.
    """
    n, l, m, q, k = cfg.N, cfg.L, cfg.M, cfg.Q, cfg.K
    if iters1 < 1 or iters2 < 1:
        raise ValueError("iteration counts must be >= 1")
    r_w = min(k, n * (n + 1) // 2)
    r_f = min(m * q, r_w * l)
    f_terms = r_f * n * (n + l * r_w)  # C^H C and C^H R
    core = n**6 + n**4 + n**2 * l + n * r_w * (l * n + n)
    once = (k * r_w * (l * m * q + r_w) + r_w * n**4 + m * q * r_w * l * r_f
            + m * q * n * (n + 2 * r_f) + r_f * n * l * r_w)
    stage1 = once + iters1 * (
        2 * n * r_w * (n**2 + l * n) + n * r_w * l * r_f + n**4 + 2 * n**3 + f_terms + core
    )
    stage2 = q * m * min(q, m) + iters2 * (m * q * (2 * n * l + l * min(l, m * q) + 2 * n))
    return ComplexityReport(stage1_ops=int(stage1), stage2_ops=int(stage2))


def _sort_key(record: RmseRecord):
    value = -math.inf if record.sweep_value is None else record.sweep_value
    return (value, record.snr_db, PARAMETERS.index(record.parameter))


def _parse_cell(text: str):
    """A CSV cell as written by :mod:`csv`: empty is None, else an int, a
    float or the string itself."""
    if text == "":
        return None
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def write_results(records: list[RmseRecord], path: str) -> None:
    """Write records as CSV, one :class:`RmseRecord` field per column and
    deterministic row order; :mod:`csv` writes a float by ``repr`` (full
    precision) and ``None`` as an empty cell."""
    if not records:
        raise ValueError("write_results: no records to write")
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(f.name for f in fields(RmseRecord))
    writer.writerows(astuple(rec) for rec in sorted(records, key=_sort_key))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(buffer.getvalue())


def read_results(path: str) -> list[RmseRecord]:
    """Read back a CSV produced by :func:`write_results`."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != [f.name for f in fields(RmseRecord)]:
            raise ValueError(f"unexpected CSV header {header}")
        return [RmseRecord(*map(_parse_cell, row)) for row in reader]


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
