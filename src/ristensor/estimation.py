"""Two-stage alternating-least-squares fit of the echo tensor.

Stage 1 fits the Tucker-3 model of the noisy echo ``Y`` (shape
``(L, M*Q, K)``) with the known RIS factor held fixed: it alternates exact
LS updates of the BS-RIS channel ``H`` (L x N), the delay/Doppler factor
``F`` (M*Q x N) and the length-N^2 diagonal of the core's mode-3 unfolding.
Stage 2 re-tensorizes the estimated ``F`` into an (N, M, Q) Tucker model
whose core is the known pilot tensor, and alternates LS updates of the
Doppler vector, the delay vector and the channel.

Both stages identify their factors only up to diagonal/scalar scalings;
:func:`remove_core_scaling` strips the stage-1 scalings off the core using
quantities known at the receiver (the fixed BS-RIS channel and the pilots),
which is what makes the final angle extraction well posed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import DivergenceError, IdentifiabilityError
from .signal_model import complex_normal, echo_mode3
from .tensorops import (
    fold,
    khatri_rao,
    kronecker,
    mode_product,
    pseudoinverse,
    unfold,
    unvec,
    vec,
)


@dataclass
class AlsSettings:
    """Iteration controls for both ALS stages.

    ``tol`` is a relative threshold: iteration stops once the fit error
    changes by less than ``tol * ||data||_F^2`` between sweeps.
    """

    max_iters: int = 200
    tol: float = 1e-8
    seed: object = None

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if not self.tol > 0:
            raise ValueError("tol must be > 0")


@dataclass
class Stage1Estimate:
    """Stage-1 factors plus the fit-error trajectory.

    ``core_hat`` is the length-N^2 diagonal of the core's mode-3 unfolding,
    i.e. the estimate of the vectorized (gain-scaled) target dyad.
    """

    channel_hat: np.ndarray
    dd_factor_hat: np.ndarray
    core_hat: np.ndarray
    error_history: np.ndarray
    iterations: int
    converged: bool
    data_norm_sq: float


@dataclass
class Stage2Estimate:
    """Stage-2 factors plus the fit-error trajectory."""

    doppler_hat: np.ndarray
    delay_hat: np.ndarray
    channel_hat: np.ndarray
    error_history: np.ndarray
    iterations: int
    converged: bool
    data_norm_sq: float


def _unit_columns(matrix: np.ndarray) -> np.ndarray:
    """Scale each column to unit norm; zero columns are left untouched."""
    norms = np.linalg.norm(matrix, axis=0)
    return matrix / np.where(norms == 0, 1.0, norms)[None, :]


def als_stage1(
    echo: np.ndarray, codebook: np.ndarray, settings: AlsSettings | None = None
) -> Stage1Estimate:
    """Fit the Tucker-3 echo model by alternating exact LS updates.

    Update order per sweep: channel from the mode-1 unfolding, delay/Doppler
    factor from the mode-2 unfolding, core diagonal from the vectorized
    mode-3 unfolding (a Khatri-Rao structured system of width N^2).  The fit
    error after each sweep is recorded in ``error_history`` and can never
    increase, since every block update is an exact least-squares minimizer.

    Raises :class:`IdentifiabilityError` when ``K < N^2`` or ``M*Q < L``,
    and :class:`DivergenceError` if an iterate turns non-finite.
    """
    settings = settings or AlsSettings()
    echo = np.asarray(echo)
    if echo.ndim != 3:
        raise ValueError("echo must be a third-order tensor (L, M*Q, K)")
    n_rx, n_fast, n_blocks = echo.shape
    n_ris = codebook.shape[0]
    if codebook.shape[1] != n_blocks:
        raise ValueError(
            f"codebook has {codebook.shape[1]} columns but the echo has {n_blocks} blocks"
        )
    if n_blocks < n_ris**2:
        raise IdentifiabilityError(
            f"need K >= N^2 blocks for a unique fit: K={n_blocks}, N^2={n_ris**2}"
        )
    if n_fast < n_rx:
        raise IdentifiabilityError(
            f"need M*Q >= L for a unique fit: M*Q={n_fast}, L={n_rx}"
        )

    rng = np.random.default_rng(settings.seed)
    # Algorithm order draws the channel first even though the first sweep
    # overwrites it; keeps the random stream layout stable.
    channel = complex_normal(rng, (n_rx, n_ris))
    dd_factor = complex_normal(rng, (n_fast, n_ris))
    core = complex_normal(rng, n_ris**2)

    y1 = unfold(echo, 1)
    y2 = unfold(echo, 2)
    y3 = unfold(echo, 3)
    vec_y3 = vec(y3)
    wkr_t = khatri_rao(codebook, codebook).T  # (K, N^2)
    norm_sq = float(np.linalg.norm(echo) ** 2)
    core_dims = (n_ris, n_ris, n_ris**2)

    errors: list[float] = []
    converged = False
    try:
        for _ in range(settings.max_iters):
            core_tensor = fold(np.diag(core), 3, core_dims)
            g1 = unfold(mode_product(mode_product(core_tensor, dd_factor, 2), wkr_t, 3), 1)
            channel = y1 @ pseudoinverse(g1)
            g2 = unfold(mode_product(mode_product(core_tensor, channel, 1), wkr_t, 3), 2)
            dd_factor = y2 @ pseudoinverse(g2)
            # Rebalance the factor columns before the core solve.  The factors
            # are only identified up to per-column scalings, which the core
            # absorbs; pinning them to unit norm is gauge-equivariant but stops
            # the scalings from drifting to extremes under noise (the later
            # de-scaling divides by first-row entries).
            channel = _unit_columns(channel)
            dd_factor = _unit_columns(dd_factor)
            design = khatri_rao(kronecker(dd_factor, channel), wkr_t)
            core = pseudoinverse(design) @ vec_y3
            # Bound to a name, so the buffer lives until the next sweep: freeing
            # it inside the expression measured ~15% slower at small_config.
            y3_hat = echo_mode3(wkr_t, core, dd_factor, channel)
            err = float(np.linalg.norm(y3 - y3_hat) ** 2)
            if not np.isfinite(err):
                raise DivergenceError("stage-1 ALS produced a non-finite fit error")
            errors.append(err)
            if len(errors) >= 2 and abs(errors[-1] - errors[-2]) < settings.tol * norm_sq:
                converged = True
                break
    except np.linalg.LinAlgError as exc:
        raise DivergenceError(f"stage-1 ALS hit a non-finite solve: {exc}") from exc

    return Stage1Estimate(
        channel_hat=channel,
        dd_factor_hat=dd_factor,
        core_hat=core,
        error_history=np.asarray(errors),
        iterations=len(errors),
        converged=converged,
        data_norm_sq=norm_sq,
    )


def tensorize_factor(dd_factor: np.ndarray, n_symbols: int, n_subcarriers: int) -> np.ndarray:
    """Reshape the (M*Q, N) delay/Doppler factor into an (N, M, Q) tensor.

    Row ``(q-1)*M + m`` of the factor becomes entry ``[:, m, q]``; when the
    factor is exact this tensor follows a Tucker model whose core is the
    pilot tensor.
    """
    dd_factor = np.asarray(dd_factor)
    if dd_factor.ndim != 2 or dd_factor.shape[0] != n_symbols * n_subcarriers:
        raise ValueError(
            f"factor must have M*Q = {n_symbols * n_subcarriers} rows, got {dd_factor.shape}"
        )
    return fold(dd_factor.T, 1, (dd_factor.shape[1], n_symbols, n_subcarriers))


def als_stage2(
    f_tensor: np.ndarray,
    pilots: np.ndarray,
    settings: AlsSettings | None = None,
    channel_init: np.ndarray | None = None,
) -> Stage2Estimate:
    """Fit the tensorized delay/Doppler factor against the known pilots.

    Update order per sweep: Doppler vector, delay vector, channel.  The
    Doppler and delay systems are Khatri-Rao products with an identity
    block, solved by pseudoinverse; the channel update is a plain matrix LS.
    All three factors start from seeded random draws unless a channel warm
    start is supplied.
    """
    settings = settings or AlsSettings()
    f_tensor = np.asarray(f_tensor)
    pilots = np.asarray(pilots)
    n_ris, n_sym, n_sub = f_tensor.shape
    n_rx = pilots.shape[0]
    if pilots.shape[1:] != (n_sym, n_sub):
        raise ValueError(
            f"pilot tensor shape {pilots.shape} does not match factor dims "
            f"(M={n_sym}, Q={n_sub})"
        )

    rng = np.random.default_rng(settings.seed)
    doppler = complex_normal(rng, n_sym)
    delay = complex_normal(rng, n_sub)
    channel = (
        np.asarray(channel_init)
        if channel_init is not None
        else complex_normal(rng, (n_rx, n_ris))
    )

    x1 = unfold(pilots, 1)
    x2 = unfold(pilots, 2)
    x3 = unfold(pilots, 3)
    f1 = unfold(f_tensor, 1)
    vec_f2 = vec(unfold(f_tensor, 2))
    vec_f3 = vec(unfold(f_tensor, 3))
    norm_sq = float(np.linalg.norm(f_tensor) ** 2)
    eye_m = np.eye(n_sym)
    eye_q = np.eye(n_sub)

    errors: list[float] = []
    converged = False
    try:
        for _ in range(settings.max_iters):
            b_dop = x2 @ kronecker(np.diag(delay), channel.T).T  # (M, Q*N)
            doppler = pseudoinverse(khatri_rao(b_dop.T, eye_m)) @ vec_f2
            b_del = x3 @ kronecker(np.diag(doppler), channel.T).T  # (Q, M*N)
            delay = pseudoinverse(khatri_rao(b_del.T, eye_q)) @ vec_f3
            cd = kronecker(delay, doppler)
            channel = (f1 @ pseudoinverse(x1 * cd[None, :])).T
            f1_hat = (channel.T @ x1) * cd[None, :]
            err = float(np.linalg.norm(f1 - f1_hat) ** 2)
            if not np.isfinite(err):
                raise DivergenceError("stage-2 ALS produced a non-finite fit error")
            errors.append(err)
            if len(errors) >= 2 and abs(errors[-1] - errors[-2]) < settings.tol * norm_sq:
                converged = True
                break
    except np.linalg.LinAlgError as exc:
        raise DivergenceError(f"stage-2 ALS hit a non-finite solve: {exc}") from exc

    return Stage2Estimate(
        doppler_hat=doppler,
        delay_hat=delay,
        channel_hat=channel,
        error_history=np.asarray(errors),
        iterations=len(errors),
        converged=converged,
        data_norm_sq=norm_sq,
    )


def remove_core_scaling(
    stage1: Stage1Estimate,
    channel: np.ndarray,
    pilot_mat: np.ndarray,
) -> np.ndarray:
    """Strip the stage-1 diagonal scalings off the core using known quantities.

    Both diagonal indeterminacies are observable at the receiver.  The
    channel gauge comes from a per-column least-squares match of the channel
    estimate against the (known, geometry-fixed) BS-RIS channel.  The factor
    gauge comes from fitting the estimated delay/Doppler factor as
    ``diag(g) @ (pilot_mat.T @ channel) @ diag(m)`` with ``g`` the unknown
    delay-Doppler phase profile and ``m`` the inverse gauge: both steering
    vectors start at 1, so the first row pins the initialization and three
    alternating LS sweeps average the estimate over all rows.  In the
    noiseless limit both gauges are exact.

    After rescaling, the core matrix is projected onto its symmetric part:
    RIS phase vectors only ever probe the symmetric subspace (any
    ``w kron w`` is the vec of a symmetric dyad), so the antisymmetric
    component of the raw estimate is pure fit slack, while the target dyad
    itself is symmetric.

    Returns the corrected length-N^2 core vector, ready for angle extraction.
    """
    n_ris = channel.shape[1]
    chan_hat = stage1.channel_hat
    dd_hat = stage1.dd_factor_hat
    chan_energy = np.sum(chan_hat.conj() * chan_hat, axis=0).real
    if np.any(chan_energy == 0) or np.any(dd_hat[0, :] == 0):
        raise ValueError("degenerate normalization: estimated factor has a zero column")
    # channel gauge: H = H_hat diag(lam_h), solved column by column
    lam_h = np.sum(chan_hat.conj() * channel, axis=0) / chan_energy

    # factor gauge: F_hat ~ diag(g) S diag(m) with S known, m = 1/lam_f
    s_mat = pilot_mat.T @ channel
    if np.any(s_mat[0, :] == 0):
        raise ValueError("degenerate normalization: pilot/channel product has a zero first-row entry")
    m = dd_hat[0, :] / s_mat[0, :]
    for _ in range(3):
        sm = s_mat * m[None, :]
        g = np.sum(sm.conj() * dd_hat, axis=1) / np.sum(sm.conj() * sm, axis=1)
        gs = g[:, None] * s_mat
        m = np.sum(gs.conj() * dd_hat, axis=0) / np.sum(gs.conj() * gs, axis=0)

    core = unvec(stage1.core_hat, n_ris, n_ris)
    descaled = (core / lam_h[:, None]) * m[None, :]
    return vec((descaled + descaled.T) / 2.0)
