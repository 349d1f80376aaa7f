"""Physical signal model: steering vectors, channels, RIS codebooks, pilots,
and synthesis of the OFDM echo tensor.

The noiseless echo collected over K RIS blocks is a third-order tensor
``Y`` of shape ``(L, M*Q, K)``.  With a single target, block k is the
rank-1 matrix

    Y_k = alpha (H D(w_k) p) (F D(w_k) p)^T

with ``H`` the rank-1 BS-RIS channel, ``F = D(c kron d) X^T H`` the
delay/Doppler-bearing factor, ``p`` the RIS-target steering vector and
``w_k`` column k of the RIS phase-shift matrix ``W``.  The same tensor is
the Tucker-3 model whose mode-3 unfolding is
``(W kr W)^T D(g) (F kron H)^T``, ``g = alpha * (p kron p)`` and ``kr``
the column-wise Kronecker product, which is the form the estimator fits.
The flat (subcarrier, symbol) axis of size ``M*Q`` is ordered with the
symbol index fastest: pair ``(q, m)`` sits at ``(q-1)*M + m``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ScenarioConfig
from .tensorops import kronecker, unfold

#: carrier wavelength of the reference scenario (28 GHz), in metres
WAVELENGTH = 1.07e-2
#: RIS element spacing along both axes; the steering vectors assume half a
#: wavelength, which maps a spatial frequency to pi times a direction cosine
ELEMENT_SPACING = WAVELENGTH / 2.0
#: target radar cross section, in m^2
SIGMA_RCS = 2.0


@dataclass
class TargetParameters:
    """The propagation parameters of a single target that the receiver
    estimates.

    ``tau`` is the round-trip delay (s), ``nu`` the Doppler shift (Hz), and
    ``mu_d`` / ``psi_d`` the horizontal/vertical spatial frequencies of the
    RIS-target direction, in (-pi, pi].  The BS-RIS geometry is fixed and
    known at the receiver, so it is not a target parameter: it enters the
    echo as the channel ``H`` (:func:`build_bs_ris_channel`).
    """

    tau: float
    nu: float
    mu_d: float
    psi_d: float

    def validate(self, cfg: ScenarioConfig) -> None:
        for name in ("mu_d", "psi_d"):
            val = getattr(self, name)
            if not (-np.pi < val <= np.pi):
                raise ValueError(f"{name}={val} outside the principal range (-pi, pi]")
        if not (0.0 <= cfg.delta_f * self.tau < 1.0):
            raise ValueError("delay outside the unambiguous range [0, 1/delta_f)")
        if not (cfg.T_s * abs(self.nu) < 0.5):
            raise ValueError("Doppler outside the unambiguous range |nu| < 1/(2 T_s)")

    def angles(self) -> tuple[float, float] | None:
        """Elevation and azimuth (rad) of the RIS-target direction.

        Inverts ``psi_d = pi cos(el)`` and ``mu_d = pi sin(el) sin(az)``;
        None where the arccos or arcsin argument is out of range (or NaN),
        as it is for spatial frequencies no direction produces.
        """
        cos_elev = self.psi_d / np.pi
        if not abs(cos_elev) <= 1.0:
            return None
        elevation = float(np.arccos(cos_elev))
        sin_elev = np.sin(elevation)
        if not sin_elev > 0.0:  # at elevation 0 no azimuth moves mu_d
            return None
        sin_azim = self.mu_d / (np.pi * sin_elev)
        if not abs(sin_azim) <= 1.0:
            return None
        return elevation, float(np.arcsin(sin_azim))


def relative_errors(
    truth: TargetParameters, estimate: TargetParameters, cfg: ScenarioConfig
) -> dict[str, float]:
    """Relative error of each estimated parameter, keyed by field name.

    Every parameter enters the echo through a periodic phase (period
    ``1/delta_f``, ``1/T_s``, ``2 pi``, ``2 pi``), so the difference is
    wrapped to half a period: a truth next to a range boundary must not
    register an O(1) error for an estimate just across it.  A zero truth
    gives 0.0 for an equal estimate and ``inf`` otherwise.
    """
    two_pi = 2.0 * np.pi
    periods = {"tau": 1.0 / cfg.delta_f, "nu": 1.0 / cfg.T_s,
               "mu_d": two_pi, "psi_d": two_pi}
    errors = {}
    for name, period in periods.items():
        true, est = getattr(truth, name), getattr(estimate, name)
        if true == 0.0:
            errors[name] = 0.0 if est == true else float("inf")
            continue
        diff = est - true
        if np.isfinite(diff):
            diff = (diff + period / 2.0) % period - period / 2.0
        errors[name] = abs(diff) / abs(true)
    return errors


def ula_steering(eta: float, num_elements: int) -> np.ndarray:
    """Uniform-linear-array response: element l is ``exp(-1j*(l-1)*eta)``."""
    if num_elements < 1:
        raise ValueError("num_elements must be >= 1")
    return np.exp(-1j * eta * np.arange(num_elements))


def upa_steering(mu: float, psi: float, n_y: int, n_z: int) -> np.ndarray:
    """Uniform-planar-array response as the Kronecker product of the
    horizontal (``mu``) and vertical (``psi``) linear responses.

    Element ``(n_y, n_z)`` of the grid sits at flat index
    ``(n_y-1)*N_z + n_z``.
    """
    return kronecker(ula_steering(mu, n_y), ula_steering(psi, n_z))


def delay_steering(tau: float, num_subcarriers: int, delta_f: float) -> np.ndarray:
    """Frequency-domain response of a delay: ``exp(-2j*pi*(q-1)*delta_f*tau)``."""
    if num_subcarriers < 1:
        raise ValueError("num_subcarriers must be >= 1")
    return np.exp(-2j * np.pi * delta_f * tau * np.arange(num_subcarriers))


def doppler_steering(nu: float, num_symbols: int, symbol_duration: float) -> np.ndarray:
    """Time-domain response of a Doppler shift; note the positive phase sign,
    opposite to :func:`delay_steering`."""
    if num_symbols < 1:
        raise ValueError("num_symbols must be >= 1")
    return np.exp(2j * np.pi * symbol_duration * nu * np.arange(num_symbols))


def path_gain_magnitude(cfg: ScenarioConfig) -> float:
    """Magnitude of the complex two-hop path gain (radar-equation form).

    The radar equation of the reference scenario: unit transmit power,
    antenna gains and RIS power patterns, elements ``ELEMENT_SPACING``
    apart, carrier ``WAVELENGTH`` and cross section ``SIGMA_RCS``, over the
    distances ``cfg.d1`` and ``cfg.d2``.  A trial adds its noise at an exact
    SNR relative to the echo, so this magnitude cancels out of every
    estimate up to rounding; :func:`generate_echo_tensor` takes any gain as
    its ``alpha``.
    """
    num = ELEMENT_SPACING**2 * ELEMENT_SPACING**2 * WAVELENGTH**2 * SIGMA_RCS
    den = (4.0 * np.pi) ** 5 * cfg.d1**4 * cfg.d2**4
    return float(np.sqrt(num / den))


def draw_path_gain(cfg: ScenarioConfig, rng: np.random.Generator) -> complex:
    """Complex path gain: reference magnitude with a uniform random phase."""
    return path_gain_magnitude(cfg) * np.exp(2j * np.pi * rng.random())


def build_dft_codebook(n_elements: int, n_blocks: int) -> np.ndarray:
    """Truncated DFT phase-shift matrix: ``W[n, k] = exp(-2j*pi*n*k/D)`` with
    DFT size ``D = max(N, K)`` so all K columns are distinct.

    Every entry is unit modulus.  Caveat: the column-wise self Khatri-Rao
    ``W kr W`` of any Vandermonde design has rank at most ``2N - 1`` (its
    rows depend only on the index sum), which leaves the angular core of the
    echo model underdetermined for N >= 3.  Use the random design when the
    target direction must be estimated.
    """
    if n_elements < 1 or n_blocks < 1:
        raise ValueError("codebook dimensions must be >= 1")
    size = max(n_elements, n_blocks)
    n = np.arange(n_elements)[:, None]
    k = np.arange(n_blocks)[None, :]
    return np.exp(-2j * np.pi * n * k / size)


def build_random_codebook(
    n_elements: int, n_blocks: int, rng: np.random.Generator
) -> np.ndarray:
    """Unit-modulus phase-shift matrix with i.i.d. uniform random phases.

    Generic phases make ``W kr W`` reach its maximal rank ``N*(N+1)/2``
    (the symmetric subspace), the best any phase-only design can do.
    """
    if n_elements < 1 or n_blocks < 1:
        raise ValueError("codebook dimensions must be >= 1")
    return np.exp(2j * np.pi * rng.random((n_elements, n_blocks)))


def build_bs_ris_channel(
    eta: float, mu_a: float, psi_a: float, cfg: ScenarioConfig
) -> np.ndarray:
    """Rank-1 BS-RIS channel ``H = a(eta) b(mu_a, psi_a)^T`` of shape (L, N)."""
    a = ula_steering(eta, cfg.L)
    b = upa_steering(mu_a, psi_a, cfg.N_y, cfg.N_z)
    return np.outer(a, b)


def complex_normal(rng: np.random.Generator, shape) -> np.ndarray:
    """I.i.d. circular complex Gaussian entries with unit variance."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def generate_pilots(cfg: ScenarioConfig, seed) -> np.ndarray:
    """Pilot tensor of shape ``(L, M, Q)`` with i.i.d. unit-variance circular
    complex Gaussian entries, deterministic given ``seed``."""
    return complex_normal(np.random.default_rng(seed), (cfg.L, cfg.M, cfg.Q))


def generate_echo_tensor(
    cfg: ScenarioConfig,
    target: TargetParameters,
    channel: np.ndarray,
    codebook: np.ndarray,
    pilots: np.ndarray,
    alpha: complex,
) -> np.ndarray:
    """Synthesize the noiseless echo tensor ``(L, M*Q, K)`` for one target.

    Shapes: ``channel`` (L, N), ``codebook`` (N, K), ``pilots`` (L, M, Q);
    a wrong one raises ValueError naming the argument.  With ``p`` the
    RIS-target steering vector and ``c``, ``d`` the delay and Doppler
    responses, block k is ``alpha * u_k v_k^T`` with ``u_k = H D(w_k) p``
    and ``v_k = F D(w_k) p``, ``F = D(c kron d) X^T H``, exact for any
    channel: :func:`build_bs_ris_channel` gives the rank-1 one.  ``X`` is
    the pilots' mode-1 unfolding, whose column for subcarrier q and symbol m
    sits at flat index ``(q-1)*M + m``.

    Any dimensions synthesize; whether the estimator can fit them
    (``K >= N^2``, ``M*Q >= L``) is checked by the estimator and by
    :func:`~ristensor.experiment.run_trial` before it synthesizes.
    """
    for name, array, shape in (("channel", channel, (cfg.L, cfg.N)),
                               ("codebook", codebook, (cfg.N, cfg.K)),
                               ("pilots", pilots, (cfg.L, cfg.M, cfg.Q))):
        if array.shape != shape:
            raise ValueError(f"{name} must have shape {shape}, got {array.shape}")
    p = upa_steering(target.mu_d, target.psi_d, cfg.N_y, cfg.N_z)
    c = delay_steering(target.tau, cfg.Q, cfg.delta_f)
    d = doppler_steering(target.nu, cfg.M, cfg.T_s)
    u = channel @ (codebook * p[:, None])  # (L, K)
    v = kronecker(c, d)[:, None] * (unfold(pilots, 1).T @ u)  # (M*Q, K)
    return alpha * u[:, None, :] * v[None, :, :]


def snr_in_range(snr_db: float) -> bool:
    """Whether ``10^(snr_db/10)`` is a finite positive float: about -3233 to 3082 dB."""
    try:
        return 0.0 < 10.0 ** (float(snr_db) / 10.0) < np.inf
    except OverflowError:
        return False


def add_noise_at_snr(y_clean: np.ndarray, snr_db: float, seed) -> np.ndarray:
    """Return ``Y + Z`` with circular complex Gaussian noise ``Z`` scaled so
    that the realized ratio ``||Y||_F^2 / ||Z||_F^2`` equals
    ``10^(snr_db/10)`` exactly (up to rounding)."""
    y_clean = np.asarray(y_clean)
    if not snr_in_range(snr_db):
        raise ValueError(f"add_noise_at_snr: snr_db must give a finite positive "
                         f"power ratio 10^(snr_db/10), got {snr_db}")
    signal_power = float(np.linalg.norm(y_clean) ** 2)
    if signal_power == 0.0:
        raise ValueError("add_noise_at_snr: signal tensor is identically zero")
    noise = complex_normal(np.random.default_rng(seed), y_clean.shape)
    scale = np.sqrt(signal_power / (10.0 ** (snr_db / 10.0))) / np.linalg.norm(noise)
    return y_clean + scale * noise
