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
once and fits there.  Every update solves normal equations, so each solve
sees the square of its system's condition number: the channel and ``F``
updates ``N x N`` ones built from the projected slices, the core its
``N^2 x N^2`` ones, whose Gram is the Hadamard product of the factor Grams.
Every solve is certified by a shifted Cholesky factorization
(:func:`~ristensor.tensorops.certified`), not an explicit inverse, in
stacks of Grams after the sweeps or when a stack fills; a core Gram too
large for two to share a 128 KiB stack (``N >= 9``) is certified in
:func:`~ristensor.tensorops.least_squares` at each solve.  Every ``F``
update lies in the column space of the projected echo's mode-2 unfolding,
so one thin QR ``U R`` of it lets the sweeps fit ``C = U^H F`` against the
``min(M*Q, r_W*L)``-row ``R``; the channel and core updates see ``F`` only
through ``F^H F = C^H C`` and ``echo x2 F^H``, one product ``C^H R`` per
sweep, and ``F = U C`` is formed once at the end.  The fit error is read
off the core's normal equations.  No dense core tensor, ``(K*L*M*Q) x N^2``
Khatri-Rao design or model rebuild is formed.
Stage 2 reads the estimated ``F`` as an (N, M, Q) Tucker model whose core is
the known pilot tensor (row ``(q-1)*M + m`` holds entries ``[:, m, q]``),
and alternates scalar LS updates of each Doppler and delay entry, from a
closed-form nearest-Kronecker start, with a matrix LS update of the channel.

Both stages identify their factors only up to diagonal/scalar scalings.
Stage 2's channel carries the stage-1 factor's column scaling, so
:func:`remove_core_scaling` reads both stage-1 scalings off the two channel
estimates by LS projections onto the fixed BS-RIS channel, known at the
receiver, and strips them off the core; that is what makes the final angle
extraction well posed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import is_integer
from .exceptions import DivergenceError, IdentifiabilityError
from .signal_model import complex_normal
from .tensorops import (
    certified,
    dominant_rank1,
    khatri_rao,
    kronecker,
    least_squares,
    lu_solve,
    mode_product,
    pseudoinverse,
    unfold,
    unvec,
    vec,
)


#: stage 1 certifies its deferred N x N Grams in stacks of at most this many
#: (256 sweeps).  Not 128 KiB as for the core: at N=9 a 400-sweep fit's
#: stack of 512 (663 kB) is mmapped, and freeing it likely raises glibc's
#: trim threshold; capped at 101 Grams (128 KiB), later N=3x3 trials
#: page-faulted about 2,700 times each, and took 26% longer
_GRAM_BATCH = 512
#: and its N^2 x N^2 core Grams in stacks of at most this many bytes,
#: glibc's default mmap threshold: 32 Grams at N=4 and 2 at N=8; from N=9,
#: where fewer than two fit, each core Gram is certified at its solve
_STACK_BYTES = 128 * 1024


@dataclass
class AlsSettings:
    """Iteration controls for both ALS stages.

    ``max_iters`` is an integer >= 1, not a ``bool``.  ``tol`` is a finite,
    positive relative threshold: iteration stops once the fit error changes
    by less than ``tol * ||data||_F^2`` between sweeps.  The random stage-1
    start is not a setting: it is :func:`als_stage1`'s ``seed`` argument.
    """

    max_iters: int = 200
    tol: float = 1e-8

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        if not is_integer(self.max_iters) or self.max_iters < 1:
            raise ValueError(f"max_iters must be an integer >= 1, got {self.max_iters!r}")
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
    norms = np.sqrt(np.add.reduce((matrix.conj() * matrix).real, axis=0))
    return matrix / (norms if norms.all() else np.where(norms == 0, 1.0, norms))


def _conj_fresh(matrix: np.ndarray) -> np.ndarray:
    """Conjugate ``matrix`` in place and return it; only for a fresh array,
    such as a solve's answer, that nothing else holds."""
    return np.conjugate(matrix, out=matrix)


def _f_system(weighted: np.ndarray, channel: np.ndarray) -> np.ndarray:
    """The ``N x K*L`` system of the model ``unfold(echo, 2) = F @ system``,
    from the ``(K, N, N)`` core slices ``D(w_k) G D(w_k)`` and ``H``."""
    return (weighted @ channel.T).transpose(1, 0, 2).reshape(weighted.shape[1], -1)


def _core_normal_equations(
    echo_f: np.ndarray,
    f_gram: np.ndarray,
    channel: np.ndarray,
    wkr_conj: np.ndarray,
    w_gram: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """The ``N^2 x N^2`` normal equations of the core update, in closed form.

    The core design ``khatri_rao(kron(F, H), wkr_t)`` is a Khatri-Rao
    product, so its Gram is the Hadamard product
    ``kron(F^H F, H^H H) * w_gram`` (``f_gram = F^H F``,
    ``w_gram = wkr_t^H wkr_t``), and its adjoint applied to the mode-3
    unfolding of the echo is
    ``rhs[a*N + b] = sum_k wkr_conj[k, a*N + b] T[b, a, k]`` with
    ``wkr_conj = conj(wkr_t)`` and ``T = echo_f x3 H^H``, where
    ``echo_f[a, k, l] = (echo x2 F^H)[l, a, k]`` is
    ``(F^H @ unfold(echo, 2)).reshape(N, K, L)``; the design itself is
    never formed.
    """
    n_ris = channel.shape[1]
    channel_h = channel.conj().T
    gram = kronecker(f_gram, channel_h @ channel)
    gram *= w_gram
    # The mode-3 product as a plain matmul: [a, k, l] to [b, a, k].
    t = (channel_h @ echo_f.reshape(-1, echo_f.shape[2]).T).reshape(n_ris, n_ris, -1)
    rhs = np.add.reduce(wkr_conj * t.transpose(2, 1, 0).reshape(-1, n_ris**2), axis=0)
    return gram, rhs


def _deferred_solver(n: int, size: int):
    """A solver of ``n x n`` normal equations that defers their certificates.

    Returns ``(solve, check)``.  ``solve(gram, rhs)`` takes an LU solve
    (:func:`lu_solve`: a singular ``gram`` raises ``FloatingPointError``
    under ``np.errstate(invalid="raise")``) and copies ``gram`` into a
    stack of ``size`` Grams; when the stack is full, the next call
    certifies it in one :func:`certified` call and raises ``LinAlgError``
    if it fails.  ``check()`` certifies what the stack
    holds.  With ``size`` 0 every solve goes to :func:`least_squares`,
    which certifies it at once, and ``check()`` sees an empty stack.  The
    Grams are copied, not listed: a list of them left the core solve's
    temporaries at the top of the heap, about 1,700 page faults per N=3x3
    K=81 trial against none with the buffer.
    """
    grams = np.empty((size, n, n), dtype=complex)
    kept = 0

    def solve(gram, rhs):
        nonlocal kept
        if not len(grams):
            return least_squares(gram, rhs)
        if kept == len(grams):
            if not certified(grams):
                raise np.linalg.LinAlgError(f"a {n} x {n} Gram failed its certificate")
            kept = 0
        grams[kept] = gram
        kept += 1
        return lu_solve(gram, rhs)

    return solve, lambda: certified(grams[:kept])


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
    ``K``, also when ``(W kr W)^T`` is rank-deficient.  The projected echo's
    mode-2 unfolding ``y2`` (``M*Q x r_W*L``) is then factored once as
    ``y2 = U R``, a thin QR with ``r_F = min(M*Q, r_W*L)`` orthonormal
    columns in ``U``.  Each ``F`` update is ``y2`` times a matrix from the
    right, so it lies in ``span(U)``: the sweeps carry ``C = U^H F``
    (``r_F x N``), with ``F^H F = C^H C`` and ``F^H y2 = C^H R``, and the
    factor ``U C`` is formed once after the last sweep.  In that space the
    channel (``N x r_W*M*Q``) and factor (``N x r_W*L``) systems stack the
    slices ``W_j`` of ``Q_W^H (W kr W)^T D(core)`` times ``F^T`` and ``H^T``.
    Both updates solve the ``N x N`` normal equations of their system: with
    ``S`` the system and ``Y`` its data, ``Y pinv(S) = (pinv(S S^H) S Y^H)^H``,
    where the factor update's ``S y2^H = S R^H U^H`` makes ``C`` the solve
    against ``S R^H``.  The channel's Gram is
    ``sum_j W_j^T conj(F^H F) conj(W_j)`` and its ``S Y^H`` reads the echo
    as ``echo_f = echo x2 F^H``, so its system is never formed.
    ``echo_f`` is one GEMM per sweep, ``C^H @ R`` held as its
    ``(N, r_W, L)`` reshape.  At the start, ``F^H F`` comes from the drawn
    ``F`` and ``echo_f`` from ``(U^H F)^H R``.
    The core update solves the ``N^2 x N^2`` normal equations ``G c = b`` of
    the design ``D = khatri_rao(kron(F, H), Q_W^H (W kr W)^T)``, built in
    closed form by :func:`_core_normal_equations` from ``F^H F`` and
    ``echo_f`` (the Gram of the block factor once per call, the rest per
    sweep).  All three updates solve by LU, through :func:`lu_solve`, the
    LAPACK gufunc of ``np.linalg.solve`` without its wrapper (a third of
    the cost of a 4 x 4 solve, the same answer bitwise), and keep their
    Grams; one stacked Cholesky call (:func:`certified`, no singular value
    under the cutoff) checks each stack of them after the last sweep, or
    when it fills: a stack holds at most 512 ``N x N`` Grams
    (:data:`_GRAM_BATCH`), or 128 KiB of core Grams (:data:`_STACK_BYTES`),
    32 at ``N = 4``.
    Where fewer than two core Grams fit (``N >= 9``), each core solve goes
    to :func:`least_squares`, which certifies its Gram at once and takes the
    LU solve (on fixed seeds, every solve up to 60 dB SNR) or else the
    truncated SVD solve; at that size the Cholesky is arithmetic, not call
    overhead, and batching it saves nothing.  If every Gram passes, each LU
    answer is the one :func:`least_squares` returns, so the fit is the
    per-solve fit bitwise.  If any fails, or the sweeps hit a floating-point
    fault, a singular LU or a :class:`DivergenceError`, they re-run from the
    same start with :func:`least_squares` on every solve, and that run's
    result or exception is returned.  The deferred pass runs under
    ``np.errstate(divide/over/invalid="raise")``, so a singular LU surfaces
    there as ``FloatingPointError``, not ``LinAlgError``, and is caught
    like any other floating-point fault.  A failed stacked check costs one
    re-run of the sweeps up to that check, not one Cholesky attempt.  On
    fixed seeds from -10 to 300 dB SNR and on noiseless echoes, every
    ``N x N`` Gram passed; from about 80 dB, and on a noiseless echo, the
    nearly singular core Gram fails, so such an ``N = 4`` fit runs its
    sweeps twice (2-3 sweeps each on those seeds).
    Each solve equals the dense one in exact arithmetic, the minimum-norm
    solution included, as ``pinv(A^H A) A^H = pinv(A)``.  Normal equations
    square their system's condition number: the ``1e-12`` cutoff on a Gram's
    singular values is a ``1e-6`` cutoff on the system's, and at very high
    SNR, where the core design is nearly singular, the estimates move by
    more than rounding against a solve on the design itself (about 1e-7 in
    the relative parameter errors at 120 dB).  The fit error after each
    sweep is read off the core step's own normal equations: with ``c`` the
    new core, ``||Y||^2 - 2 Re<c, b> + <c, G c>``.  The model ``D c`` lies
    in the block span, so this is the full residual ``||Y - model||^2``; it
    is recorded in ``error_history`` and can never increase, since every
    block update is an exact least-squares minimizer.  The form cancels
    where the residual is tiny: its rounding floor is about
    ``eps * ||Y||^2``, so a noiseless echo's error reads at that level and
    may be slightly negative.

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
    # The projected echo's mode-2 unfolding (M*Q, r_W*L), column j*L + l,
    # as its thin QR U R; every F update lies in span(U), so the sweeps fit
    # C = U^H F against R, and F^H F = C^H C, F^H y2 = C^H R.
    basis, r_echo = np.linalg.qr(unfold(mode_product(echo, q_w.conj().T, 3), 2))
    # Each sweep's channel solve uses the F of the previous core step: its
    # Gram and the echo projected onto it carry over.  echo x2 F^H is held
    # as (C^H @ R) reshaped to [a, j, l]; the start's Gram is that of the
    # drawn F itself.
    f_gram = dd_factor.conj().T @ dd_factor
    coords = basis.conj().T @ dd_factor  # C = U^H F
    echo_f = (coords.conj().T @ r_echo).reshape(n_ris, r_w, n_rx)
    # Projected slices Q_W^H (D(w_k) G D(w_k))_k: [j, a, b] sums
    # conj(Q_W[k, j]) w_k[a] w_k[b] G[b, a] over k, a indexing F.
    start = (f_gram, echo_f, (wkr_t * core).reshape(r_w, n_ris, n_ris))

    def sweeps(solve_nn, solve_core):
        """The ALS sweeps from the start above, with ``solve_nn`` solving the
        channel and factor updates' ``N x N`` normal equations and
        ``solve_core`` the core's ``N^2 x N^2`` ones."""
        f_gram, echo_f, weighted = start
        errors: list[float] = []
        for _ in range(settings.max_iters):
            # The channel system's normal equations: [b, j, a] holds W_j^T.
            w_t = weighted.transpose(2, 0, 1)
            gram = (w_t @ f_gram.conj()).reshape(n_ris, -1) @ weighted.conj().reshape(-1, n_ris)
            # echo_f [a, j, l] conjugated straight into a C-ordered [j, a, l]
            # copy, so the reshape below is a view
            rhs = w_t.reshape(n_ris, -1) @ np.conjugate(
                echo_f.transpose(1, 0, 2), order="C").reshape(-1, n_rx)
            channel = _conj_fresh(solve_nn(gram, rhs)).T
            system = _f_system(weighted, channel)
            # R^H is formed per sweep on purpose: held across the loop, like
            # conj(wkr_t) below, it made the heap trim and re-fault each sweep.
            coords = _conj_fresh(solve_nn(system @ system.conj().T, system @ r_echo.conj().T)).T
            # Rebalance the factor columns before the core solve.  The factors
            # are only identified up to per-column scalings, which the core
            # absorbs; pinning them to unit norm is gauge-equivariant but stops
            # the scalings from drifting to extremes under noise.  U is
            # orthonormal, so the columns of C have the norms of those of F.
            channel = _unit_columns(channel)
            coords = _unit_columns(coords)
            coords_h = coords.conj().T
            f_gram = coords_h @ coords
            echo_f = (coords_h @ r_echo).reshape(n_ris, r_w, n_rx)
            # conj(wkr_t) is rebuilt per sweep on purpose: held across the
            # loop, it left the core solve's N^2 x N^2 temporaries at the top
            # of the glibc heap, which was trimmed and re-faulted each sweep
            # (about 2,300 page faults per N=3x3 K=81 trial, against 300).
            gram, rhs = _core_normal_equations(echo_f, f_gram, channel, wkr_t.conj(), w_gram)
            core = solve_core(gram, rhs)
            weighted = (wkr_t * core).reshape(r_w, n_ris, n_ris)
            # The model D core lies in the block span, so with (G, b) =
            # (D^H D, D^H y) its residual against the whole echo is
            # ||Y||^2 - 2 Re<core, b> + <core, G core>.
            err = norm_sq + float(np.vdot(core, gram @ core - 2 * rhs).real)
            if not math.isfinite(err):
                raise DivergenceError("stage-1 ALS produced a non-finite fit error")
            errors.append(err)
            if len(errors) >= 2 and abs(errors[-1] - errors[-2]) < settings.tol * norm_sq:
                return channel, coords, core, errors, True
        return channel, coords, core, errors, False

    # The deferred pass: plain LU solves, their Grams certified in stacks
    # (see _deferred_solver).  A failed check, floating-point fault (a
    # singular LU among them) or divergence sends the fit to the per-solve
    # pass, whose result or exception is the caller's.
    solve_nn, check_nn = _deferred_solver(n_ris, min(2 * settings.max_iters, _GRAM_BATCH))
    fits = _STACK_BYTES // (n_ris**4 * np.dtype(complex).itemsize)
    solve_core, check_core = _deferred_solver(
        n_ris**2, min(settings.max_iters, fits) if fits >= 2 else 0
    )
    try:
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            result = sweeps(solve_nn, solve_core)
        deferred = check_nn() and check_core()
    except (np.linalg.LinAlgError, FloatingPointError, DivergenceError):
        deferred = False
    if not deferred:
        try:
            result = sweeps(least_squares, least_squares)
        except np.linalg.LinAlgError as exc:
            raise DivergenceError(f"stage-1 ALS hit a non-finite solve: {exc}") from exc
    channel, coords, core, errors, converged = result

    return Stage1Estimate(
        channel_hat=channel,
        dd_factor_hat=basis @ coords,
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
) -> Stage2Estimate:
    """Fit the (M*Q, N) delay/Doppler factor against the known pilots.

    Entry ``[(q-1)*M + m, n]`` of the factor is ``(H^T X)[n, m, q] d_m c_q``:
    the transpose of the mode-1 unfolding of an (N, M, Q) Tucker model whose
    core is the pilot tensor.  Update order per sweep: Doppler vector, delay vector, channel.
    Each Doppler entry is a scalar LS fit over (n, q) and each delay entry
    one over (n, m); the channel update is a plain matrix LS.  The channel
    starts from ``channel_init`` of shape (L, N), in practice the stage-1
    estimate, and the delay vector from the dominant left singular vector of
    ``cross / power``, the LS fit of ``c kron d`` at that channel as a ``Q x M``
    matrix, rank 1 in the model: its nearest Kronecker product (Van Loan &
    Pitsianis 1993).  A start that zeroes the factor or any entry of
    ``power`` (the pilot energy the channel passes, a zero channel included)
    raises :class:`DivergenceError`.
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
            # Sums over n, [q, m]-indexed; every LS fit below divides by power.
            cross = np.sum(mixed.conj() * f1, axis=0).reshape(n_sub, n_sym)
            power = np.sum(np.abs(mixed) ** 2, axis=0).reshape(n_sub, n_sym)
            if not np.all(power > 0):
                raise DivergenceError("stage-2 ALS: a pilot entry gets no channel energy")
            if not errors:  # the nearest-Kronecker start
                delay = dominant_rank1(cross / power)[0]
            doppler = (delay.conj() @ cross) / (np.abs(delay) ** 2 @ power)
            delay = (cross @ doppler.conj()) / (power @ np.abs(doppler) ** 2)
            cd = kronecker(delay, doppler)
            channel = (f1 @ pseudoinverse(x1 * cd[None, :])).T
            mixed = channel.T @ x1
            f1_hat = mixed * cd[None, :]
            err = float(np.linalg.norm(f1 - f1_hat) ** 2)
            if not math.isfinite(err):
                raise DivergenceError("stage-2 ALS produced a non-finite fit error")
            errors.append(err)
            if len(errors) >= 2 and abs(errors[-1] - errors[-2]) < settings.tol * norm_sq:
                converged = True
                break
    except (np.linalg.LinAlgError, ValueError) as exc:  # ValueError: an all-zero factor
        raise DivergenceError(f"stage-2 ALS hit a degenerate solve: {exc}") from exc

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
    stage2: Stage2Estimate,
    channel: np.ndarray,
) -> np.ndarray:
    """Strip the stage-1 diagonal scalings off the core using the known channel.

    Stage 1 returns ``H diag(a)`` and ``F diag(phi)``.  Stage 2 fits that
    factor as ``D(c kron d) X^T H_2``, so its channel is
    ``H diag(phi) / (c_0 d_0)``, and both steering vectors start at 1.  Each
    gauge is therefore a per-column LS projection of a channel estimate onto
    the known BS-RIS channel ``H``: ``a`` from the stage-1 channel, ``phi``
    from the stage-2 channel times ``c_0 d_0``.  Nothing divides by an
    estimate, and in the noiseless limit both gauges are exact.

    After rescaling, the core matrix is projected onto its symmetric part:
    RIS phase vectors only ever probe the symmetric subspace (any
    ``w kron w`` is the vec of a symmetric dyad), so the antisymmetric
    component of the raw estimate is pure fit slack, while the target dyad
    itself is symmetric.

    Returns the corrected length-N^2 core vector, ready for angle extraction.
    """
    n_ris = channel.shape[1]
    energy = np.sum(np.abs(channel) ** 2, axis=0)
    row = np.sum(channel.conj() * stage1.channel_hat, axis=0) / energy
    col = np.sum(channel.conj() * stage2.channel_hat, axis=0) / energy
    col = col * (stage2.delay_hat[0] * stage2.doppler_hat[0])
    core = unvec(stage1.core_hat, n_ris, n_ris) * row[:, None] * col[None, :]
    return vec((core + core.T) / 2.0)
