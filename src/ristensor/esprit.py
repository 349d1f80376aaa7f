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
class SensingEstimate:
    """Final target-parameter estimates.

    Frequencies are reported in their principal ranges; the mapped
    elevation/azimuth angles are only populated when the inverse
    trigonometric maps are defined (``angles_valid``).  ``rel_errors`` holds
    per-parameter relative errors when a ground truth was supplied.
    """

    tau_hat: float
    nu_hat: float
    mu_d_hat: float
    psi_d_hat: float
    elevation_hat: float | None = None
    azimuth_hat: float | None = None
    angles_valid: bool = False
    rel_errors: dict = field(default_factory=dict)


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


def _wrap_delay(omega: float, delta_f: float) -> float:
    """Delay in [0, 1/delta_f) from the per-subcarrier phase increment."""
    return float((-omega % (2.0 * np.pi)) / (2.0 * np.pi * delta_f))


def _relative_error(truth: float, estimate: float, period: float) -> float:
    """Relative error with the difference wrapped to half a period.

    Every parameter here enters the signal model through a periodic phase,
    so truth and estimate are only comparable on the circle; without the
    wrap, a truth sitting next to a range boundary would register an O(1)
    error for an estimate just across it.
    """
    if truth == 0.0:
        return 0.0 if estimate == truth else float("inf")
    diff = estimate - truth
    if np.isfinite(diff):
        diff = (diff + period / 2.0) % period - period / 2.0
    return abs(diff) / abs(truth)


def extract_parameters(
    doppler_hat: np.ndarray,
    delay_hat: np.ndarray,
    core_vec: np.ndarray,
    cfg: ScenarioConfig,
    truth: TargetParameters | None = None,
) -> SensingEstimate:
    """Map the fitted steering vectors and core back to physical parameters.

    The delay vector carries negative phase increments and the Doppler
    vector positive ones, so the two extractions differ in sign.  The delay
    is folded into [0, 1/delta_f); the Doppler lands in its principal range
    automatically.  Elevation/azimuth are filled in when the arccos/arcsin
    arguments are in range, otherwise only the spatial frequencies are
    reported.
    """
    omega_d = esprit_1d(doppler_hat)
    nu_hat = omega_d / (2.0 * np.pi * cfg.T_s)
    omega_c = esprit_1d(delay_hat)
    tau_hat = _wrap_delay(omega_c, cfg.delta_f)
    mu_hat, psi_hat = esprit_2d(core_vec, cfg.N_y, cfg.N_z)

    elevation = azimuth = None
    angles_valid = False
    cos_elev = psi_hat / np.pi
    if np.isfinite(cos_elev) and abs(cos_elev) <= 1.0:
        elevation = float(np.arccos(cos_elev))
        sin_elev = np.sin(elevation)
        if np.isfinite(mu_hat) and sin_elev > 0.0:
            sin_azim = mu_hat / (np.pi * sin_elev)
            if abs(sin_azim) <= 1.0:
                azimuth = float(np.arcsin(sin_azim))
                angles_valid = True

    rel_errors = {}
    if truth is not None:
        two_pi = 2.0 * np.pi
        rel_errors = {
            "tau": _relative_error(truth.tau, tau_hat, 1.0 / cfg.delta_f),
            "nu": _relative_error(truth.nu, nu_hat, 1.0 / cfg.T_s),
            "mu_d": _relative_error(truth.mu_d, mu_hat, two_pi),
            "psi_d": _relative_error(truth.psi_d, psi_hat, two_pi),
        }

    return SensingEstimate(
        tau_hat=tau_hat,
        nu_hat=float(nu_hat),
        mu_d_hat=float(mu_hat),
        psi_d_hat=float(psi_hat),
        elevation_hat=elevation,
        azimuth_hat=azimuth,
        angles_valid=angles_valid,
        rel_errors=rel_errors,
    )
