"""Shift-invariance frequency extraction and the map back to physical
target parameters.

The single-snapshot 1D estimator Hankel-smooths the input vector before the
usual subspace step, which restores the rank needed when only one vector
(not a data matrix) is available.  The 2D estimator factorizes the
vectorized target dyad, whose Kronecker structure separates the horizontal
and vertical spatial frequencies exactly for a single target.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import ScenarioConfig
from .signal_model import TargetParameters
from .tensorops import dominant_rank1, unvec


@dataclass
class SensingEstimate(TargetParameters):
    """Target parameters read off a fit, in their principal ranges.

    ``rel_errors`` holds each parameter's relative error against the drawn
    truth (:func:`~ristensor.signal_model.relative_errors`), which
    :func:`~ristensor.experiment.run_trial` fills in; the estimator itself
    never sees the truth.
    """

    rel_errors: dict[str, float] = field(default_factory=dict)


def esprit_1d(x: np.ndarray) -> float:
    """Frequency of a single complex exponential ``x[p] ~ s * exp(1j*w*p)``.

    Builds the Hankel matrix with pencil parameter ``P//2 + 1``, takes its
    dominant left singular vector and solves the one-step shift invariance
    in the least-squares sense; at length 2 the Hankel matrix is the 2 x 1
    column ``x``, so this reads the phase of ``x[1] / x[0]``.  Invariant to
    global complex scaling of the input; exact for noiseless exponentials.
    An input with no phase step to read (all zero, or a singular vector
    whose shifted halves give a zero power or cross term, as for
    ``[0, 0, 1]`` or ``[0, 1j]``) raises ValueError.
    """
    x = np.asarray(x).ravel()
    n = x.size
    if n < 2:
        raise ValueError(f"esprit_1d needs at least 2 samples, got {n}")
    if not np.any(x):
        raise ValueError("esprit_1d: input vector is identically zero")
    pencil = n // 2 + 1
    rows = np.arange(pencil)[:, None]
    cols = np.arange(n - pencil + 1)[None, :]
    hankel = x[rows + cols]
    u, _, _ = np.linalg.svd(hankel, full_matrices=False)
    lead = u[:, 0]
    head = lead[:-1]
    power, cross = np.vdot(head, head), np.vdot(head, lead[1:])
    if power == 0 or cross == 0:
        raise ValueError("esprit_1d: degenerate input with no shift to read")
    return float(np.angle(cross / power))


def esprit_2d(core_vec: np.ndarray, n_y: int, n_z: int) -> tuple[float, float]:
    """Horizontal/vertical spatial frequencies from the vectorized dyad.

    The length-N^2 input is reshaped to an N x N matrix whose dominant
    rank-1 left factor is the planar-array steering vector (up to a
    unit-modulus scalar that cancels in phase ratios).  That factor is laid
    out on the (N_z, N_y) grid and each axis profile, taken from the grid's
    dominant singular vectors, yields one frequency.  An axis of length 1
    has no phase progression to read, so its frequency is returned as NaN.
    """
    n = n_y * n_z
    core_vec = np.asarray(core_vec).ravel()
    if core_vec.size != n * n:
        raise ValueError(f"expected a length-{n * n} vector, got {core_vec.size}")
    steer, _, _ = dominant_rank1(unvec(core_vec, n, n))
    grid = steer.reshape((n_z, n_y), order="F")
    z_profile, _, y_profile = dominant_rank1(grid)
    # steering phases decay as exp(-1j*freq*index), hence the sign flips;
    # the right singular vector carries a conjugate.
    mu = -esprit_1d(np.conj(y_profile)) if n_y >= 2 else float("nan")
    psi = -esprit_1d(z_profile) if n_z >= 2 else float("nan")
    return mu, psi


def extract_parameters(
    doppler_hat: np.ndarray,
    delay_hat: np.ndarray,
    core_vec: np.ndarray,
    cfg: ScenarioConfig,
) -> SensingEstimate:
    """Map the fitted steering vectors and core back to physical parameters.

    The delay vector carries negative phase increments and the Doppler
    vector positive ones, so the two extractions differ in sign.  The delay
    is folded into [0, 1/delta_f); the Doppler lands in its principal range
    automatically.  :meth:`~ristensor.signal_model.TargetParameters.angles`
    maps the spatial frequencies to elevation/azimuth where that is defined.
    """
    omega_d = esprit_1d(doppler_hat)
    omega_c = esprit_1d(delay_hat)
    mu_hat, psi_hat = esprit_2d(core_vec, cfg.N_y, cfg.N_z)
    return SensingEstimate(
        tau=float((-omega_c % (2.0 * np.pi)) / (2.0 * np.pi * cfg.delta_f)),
        nu=float(omega_d / (2.0 * np.pi * cfg.T_s)),
        mu_d=float(mu_hat),
        psi_d=float(psi_hat),
    )
