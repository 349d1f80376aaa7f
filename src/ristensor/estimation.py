"""Two-stage alternating-least-squares fit of the echo tensor.

Stage 1 fits the Tucker-3 model of the noisy echo ``Y`` (shape
``(L, M*Q, K)``) with the known RIS factor held fixed: it alternates exact
LS updates of the BS-RIS channel ``H`` (L x N), the delay/Doppler factor
``F`` (M*Q x N) and the length-N^2 diagonal of the core's mode-3 unfolding.
Block k of the echo is ``Y_k = H D(w_k) G D(w_k) F^T`` (``G``: the core as
an N x N matrix), so the model sees block k only through ``w_k kron w_k``,
whose entries ``(a, b)`` and ``(b, a)`` coincide: along the block axis every
model slice lies in the ``N(N+1)/2``-dimensional span of those distinct
columns.  Stage 1 projects the echo onto an orthonormal basis of that span
once and fits there.  Every update solves normal equations through
:func:`~ristensor.tensorops.least_squares`, so each solve sees the square of
its system's condition number: the channel and ``F`` updates ``N x N`` ones
built from the projected slices, the core its ``N^2 x N^2`` ones, whose Gram
is the Hadamard product of the factor Grams.  The channel and core updates
see ``F`` only through ``F^H F`` and ``echo x2 F^H``.  No dense core tensor,
``(K*L*M*Q) x N^2`` Khatri-Rao design or mode-3 model rebuild is formed.
Stage 2 reads the estimated ``F`` as an (N, M, Q) Tucker model whose core is
the known pilot tensor (row ``(q-1)*M + m`` holds entries ``[:, m, q]``),
and alternates scalar LS updates of each Doppler and delay entry with a
matrix LS update of the channel.

Both stages identify their factors only up to diagonal/scalar scalings;
:func:`remove_core_scaling` strips the stage-1 scalings off the core using
quantities known at the receiver (the fixed BS-RIS channel and the pilots),
which is what makes the final angle extraction well posed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import DivergenceError, IdentifiabilityError
from .signal_model import complex_normal
from .tensorops import (
    khatri_rao,
    kronecker,
    least_squares,
    mode_product,
    pseudoinverse,
    unfold,
    unvec,
    vec,
)


@dataclass
class AlsSettings:
    """Iteration controls for both ALS stages.

    ``tol`` is a finite, positive relative threshold: iteration stops once
    the fit error changes by less than ``tol * ||data||_F^2`` between
    sweeps.  The random starting points are not settings: each stage takes
    its own ``seed`` argument.
    """

    max_iters: int = 200
    tol: float = 1e-8

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if not 0 < self.tol < np.inf:
            raise ValueError(f"tol must be finite and > 0, got {self.tol}")


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


def _f_system(weighted: np.ndarray, channel: np.ndarray) -> np.ndarray:
    """The ``N x K*L`` system of the model ``unfold(echo, 2) = F @ system``,
    from the ``(K, N, N)`` core slices ``D(w_k) G D(w_k)`` and ``H``."""
    return (weighted @ channel.T).transpose(1, 0, 2).reshape(weighted.shape[1], -1)


def _core_normal_equations(
    echo_f: np.ndarray,
    f_gram: np.ndarray,
    channel: np.ndarray,
    wkr_t: np.ndarray,
    w_gram: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """The ``N^2 x N^2`` normal equations of the core update, in closed form.

    The core design ``khatri_rao(kron(F, H), wkr_t)`` is a Khatri-Rao
    product, so its Gram is the Hadamard product
    ``kron(F^H F, H^H H) * w_gram`` (``f_gram = F^H F``,
    ``w_gram = wkr_t^H wkr_t``), and its adjoint applied to the mode-3
    unfolding of the echo is
    ``rhs[a*N + b] = sum_k conj(wkr_t[k, a*N + b]) T[b, a, k]`` with
    ``T = echo_f x1 H^H`` and ``echo_f = echo x2 F^H``; the design itself
    is never formed.
    """
    n_ris = channel.shape[1]
    gram = kronecker(f_gram, channel.conj().T @ channel) * w_gram
    # The mode-1 product as a plain matmul: [l, a, k] to [b, a, k].
    t = (channel.conj().T @ echo_f.reshape(echo_f.shape[0], -1)).reshape(n_ris, n_ris, -1)
    rhs = np.sum(wkr_t.conj() * t.transpose(2, 1, 0).reshape(-1, n_ris**2), axis=0)
    return gram, rhs


def als_stage1(
    echo: np.ndarray, codebook: np.ndarray, settings: AlsSettings | None = None, seed=None
) -> Stage1Estimate:
    """Fit the Tucker-3 echo model by alternating exact LS updates.

    Update order per sweep: channel, delay/Doppler factor, core diagonal.
    Before the first sweep the block mode is projected onto ``Q_W``, the
    thin-QR basis of the ``r_W = N(N+1)/2`` distinct columns of
    ``(W kr W)^T`` (``a <= b``): ``echo x3 Q_W^H`` and ``Q_W^H (W kr W)^T``
    replace the echo and ``(W kr W)^T``.  As ``Q_W`` has orthonormal columns
    and spans every model slice, ``pinv(Q_W A) = pinv(A) Q_W^H`` leaves each
    solve the same least-squares problem with ``r_W`` block rows in place of
    ``K``, also when ``(W kr W)^T`` is rank-deficient.  In that space the
    channel (``N x r_W*M*Q``) and factor (``N x r_W*L``) systems stack the
    slices ``W_j`` of ``Q_W^H (W kr W)^T D(core)`` times ``F^T`` and ``H^T``.
    Both updates solve the ``N x N`` normal equations of their system: with
    ``S`` the system and ``Y`` its data, ``Y pinv(S) = (pinv(S S^H) S Y^H)^H``.
    The channel's Gram is ``sum_j W_j^T conj(F^H F) conj(W_j)`` and its
    ``S Y^H`` reads the echo as ``echo_f = echo x2 F^H``, so its system is
    never formed.  The core update solves the ``N^2 x N^2`` normal equations
    of the design ``khatri_rao(kron(F, H), Q_W^H (W kr W)^T)``, built in
    closed form by :func:`_core_normal_equations` from ``F^H F`` and
    ``echo_f`` (the Gram of the block factor once per call, the rest per
    sweep).  :func:`least_squares` takes an LU solve when it can certify that
    no singular value of the Gram falls under the cutoff (on fixed seeds,
    every solve up to 60 dB SNR), and the truncated SVD solve otherwise.
    Each solve equals the dense one in exact arithmetic, the minimum-norm
    solution included, as ``pinv(A^H A) A^H = pinv(A)``.  Normal equations
    square their system's condition number: the ``1e-12`` cutoff on a Gram's
    singular values is a ``1e-6`` cutoff on the system's, and at very high
    SNR, where the core design is nearly singular, the estimates move by
    more than rounding against a solve on the design itself (about 1e-7 in
    the relative parameter errors at 120 dB).  The fit error after each
    sweep is ``||unfold(echo, 2) - F @ system||^2`` in the projected space,
    with the factor system rebuilt from the new core and the rebalanced
    channel (one ``M*Q x N`` by ``N x r_W*L`` product), plus the echo energy
    outside the span, ``||Y - Y x3 Q_W Q_W^H||^2``, computed once; it is the
    full residual, recorded in ``error_history``, and can never increase,
    since every block update is an exact least-squares minimizer.

    The random start of all three factors is drawn from ``seed`` (anything
    ``numpy.random.default_rng`` accepts), so the fit is deterministic given
    it.  Raises :class:`IdentifiabilityError` when ``K < N^2`` or
    ``M*Q < L``, and :class:`DivergenceError` if an iterate turns non-finite.
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

    rng = np.random.default_rng(seed)
    # Algorithm order draws the channel first even though the first sweep
    # overwrites it; keeps the random stream layout stable.
    channel = complex_normal(rng, (n_rx, n_ris))
    dd_factor = complex_normal(rng, (n_fast, n_ris))
    core = complex_normal(rng, n_ris**2)

    norm_sq = float(np.linalg.norm(echo) ** 2)
    wkr_t = khatri_rao(codebook, codebook).T  # (K, N^2)
    # Columns a*N + b and b*N + a of wkr_t are the same products w[a] w[b].
    rows, cols = np.triu_indices(n_ris)
    q_w = np.linalg.qr(wkr_t[:, rows * n_ris + cols])[0]  # (K, r_W)
    wkr_t = q_w.conj().T @ wkr_t  # (r_W, N^2)
    # The core design's block factor: its Gram is that of the unprojected
    # (W kr W)^T, whose columns lie in the span of Q_W.
    w_gram = wkr_t.conj().T @ wkr_t  # (N^2, N^2)
    r_w = q_w.shape[1]
    projected = mode_product(echo, q_w.conj().T, 3)  # (L, M*Q, r_W)
    # The echo energy outside the span, which no model can fit.
    outside_sq = float(np.linalg.norm(echo - mode_product(projected, q_w, 3)) ** 2)
    echo = projected
    y2 = unfold(echo, 2)
    # Each sweep's channel solve uses the F of the previous core step: its
    # Gram and the echo projected onto it carry over, and so do the core
    # slices, which the fit error builds.
    f_gram = dd_factor.conj().T @ dd_factor
    echo_f = mode_product(echo, dd_factor.conj().T, 2)  # (L, N, r_W)
    # Projected slices Q_W^H (D(w_k) G D(w_k))_k: [j, a, b] sums
    # conj(Q_W[k, j]) w_k[a] w_k[b] G[b, a] over k, a indexing F.
    weighted = (wkr_t * core).reshape(r_w, n_ris, n_ris)

    errors: list[float] = []
    converged = False
    try:
        for _ in range(settings.max_iters):
            # The channel system's normal equations: [b, j, a] holds W_j^T.
            w_t = weighted.transpose(2, 0, 1)
            gram = (w_t @ f_gram.conj()).reshape(n_ris, -1) @ weighted.conj().reshape(-1, n_ris)
            rhs = w_t.reshape(n_ris, -1) @ unfold(echo_f, 1).conj().T
            channel = least_squares(gram, rhs).conj().T
            system = _f_system(weighted, channel)
            dd_factor = least_squares(system @ system.conj().T, system @ y2.conj().T).conj().T
            # Rebalance the factor columns before the core solve.  The factors
            # are only identified up to per-column scalings, which the core
            # absorbs; pinning them to unit norm is gauge-equivariant but stops
            # the scalings from drifting to extremes under noise (the later
            # de-scaling divides by first-row entries).
            channel = _unit_columns(channel)
            dd_factor = _unit_columns(dd_factor)
            f_gram = dd_factor.conj().T @ dd_factor
            echo_f = mode_product(echo, dd_factor.conj().T, 2)
            core = least_squares(*_core_normal_equations(echo_f, f_gram, channel, wkr_t, w_gram))
            weighted = (wkr_t * core).reshape(r_w, n_ris, n_ris)
            err = outside_sq + float(
                np.linalg.norm(y2 - dd_factor @ _f_system(weighted, channel)) ** 2
            )
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


def als_stage2(
    dd_factor: np.ndarray,
    pilots: np.ndarray,
    channel_init: np.ndarray,
    settings: AlsSettings | None = None,
    seed=None,
) -> Stage2Estimate:
    """Fit the (M*Q, N) delay/Doppler factor against the known pilots.

    Entry ``[(q-1)*M + m, n]`` of the factor is ``(H^T X)[n, m, q] d_m c_q``:
    the transpose of the mode-1 unfolding of an (N, M, Q) Tucker model whose
    core is the pilot tensor.  Update order per sweep: Doppler vector, delay vector, channel.
    Each Doppler entry is a scalar LS fit over (n, q) and each delay entry
    one over (n, m); the channel update is a plain matrix LS.  The Doppler
    and delay vectors start from random draws from ``seed``, the channel
    from ``channel_init`` of shape (L, N), in practice the stage-1 estimate.
    """
    settings = settings or AlsSettings()
    dd_factor = np.asarray(dd_factor)
    pilots = np.asarray(pilots)
    n_rx, n_sym, n_sub = pilots.shape
    if dd_factor.ndim != 2 or dd_factor.shape[0] != n_sym * n_sub:
        raise ValueError(
            f"factor shape {dd_factor.shape} does not have the M*Q = {n_sym * n_sub} "
            f"rows of the pilot tensor {pilots.shape}"
        )
    n_ris = dd_factor.shape[1]
    if np.shape(channel_init) != (n_rx, n_ris):
        raise ValueError(f"channel_init shape {np.shape(channel_init)} does not "
                         f"match (L, N) = {(n_rx, n_ris)}")
    rng = np.random.default_rng(seed)
    doppler = complex_normal(rng, n_sym)
    delay = complex_normal(rng, n_sub)
    channel = np.asarray(channel_init)

    x1 = unfold(pilots, 1)
    f1 = dd_factor.T
    norm_sq = float(np.linalg.norm(dd_factor) ** 2)
    # (H^T X)_(1), which each sweep's fit error recomputes for the next
    mixed = channel.T @ x1

    errors: list[float] = []
    converged = False
    try:
        for _ in range(settings.max_iters):
            # Sums over n, [q, m]-indexed; a zero divisor makes the fit error non-finite.
            cross = np.sum(mixed.conj() * f1, axis=0).reshape(n_sub, n_sym)
            power = np.sum(np.abs(mixed) ** 2, axis=0).reshape(n_sub, n_sym)
            doppler = (delay.conj() @ cross) / (np.abs(delay) ** 2 @ power)
            delay = (cross @ doppler.conj()) / (power @ np.abs(doppler) ** 2)
            cd = kronecker(delay, doppler)
            channel = (f1 @ pseudoinverse(x1 * cd[None, :])).T
            mixed = channel.T @ x1
            f1_hat = mixed * cd[None, :]
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
    Raises :class:`DivergenceError` when a gauge divisor is zero (a zero
    factor column or first-row entry), so a sweep counts the trial as failed.
    """
    n_ris = channel.shape[1]
    chan_hat = stage1.channel_hat
    dd_hat = stage1.dd_factor_hat
    chan_energy = np.sum(chan_hat.conj() * chan_hat, axis=0).real
    if np.any(chan_energy == 0) or np.any(dd_hat[0, :] == 0):
        raise DivergenceError("degenerate normalization: estimated factor has a zero column")
    # channel gauge: H = H_hat diag(lam_h), solved column by column
    lam_h = np.sum(chan_hat.conj() * channel, axis=0) / chan_energy

    # factor gauge: F_hat ~ diag(g) S diag(m) with S known, m = 1/lam_f
    s_mat = pilot_mat.T @ channel
    if np.any(s_mat[0, :] == 0):
        raise DivergenceError(
            "degenerate normalization: pilot/channel product has a zero first-row entry"
        )
    m = dd_hat[0, :] / s_mat[0, :]
    for _ in range(3):
        sm = s_mat * m[None, :]
        g = np.sum(sm.conj() * dd_hat, axis=1) / np.sum(sm.conj() * sm, axis=1)
        gs = g[:, None] * s_mat
        m = np.sum(gs.conj() * dd_hat, axis=0) / np.sum(gs.conj() * gs, axis=0)

    core = unvec(stage1.core_hat, n_ris, n_ris)
    descaled = (core / lam_h[:, None]) * m[None, :]
    return vec((descaled + descaled.T) / 2.0)
