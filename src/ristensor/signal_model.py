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


@dataclass
class TargetParameters:
    """Ground-truth propagation parameters of a single target plus the fixed
    BS-RIS geometry.

    ``tau`` is the round-trip delay (s), ``nu`` the Doppler shift (Hz),
    ``mu_d`` / ``psi_d`` the horizontal/vertical spatial frequencies of the
    RIS-target direction, ``mu_a`` / ``psi_a`` those of the BS-RIS direction,
    and ``eta`` the BS array spatial frequency.  Spatial frequencies live in
    (-pi, pi].
    """

    tau: float
    nu: float
    mu_d: float
    psi_d: float
    mu_a: float = 0.0
    psi_a: float = 0.0
    eta: float = 0.0

    def validate(self, cfg: ScenarioConfig) -> None:
        for name in ("mu_d", "psi_d", "mu_a", "psi_a", "eta"):
            val = getattr(self, name)
            if not (-np.pi < val <= np.pi):
                raise ValueError(f"{name}={val} outside the principal range (-pi, pi]")
        if not (0.0 <= cfg.delta_f * self.tau < 1.0):
            raise ValueError("delay outside the unambiguous range [0, 1/delta_f)")
        if not (cfg.T_s * abs(self.nu) < 0.5):
            raise ValueError("Doppler outside the unambiguous range |nu| < 1/(2 T_s)")


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

    ``F1sq`` and ``F2sq`` already are the *power* radiation pattern values,
    so they enter the quotient once.
    """
    cfg.validate()
    num = (
        cfg.P_t
        * cfg.G1**2
        * cfg.G2**2
        * cfg.F1sq
        * cfg.F2sq
        * cfg.d_x**2
        * cfg.d_y**2
        * cfg.wavelength**2
        * cfg.sigma_rcs
    )
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


def pilot_matrix(pilots: np.ndarray) -> np.ndarray:
    """Flatten the pilot tensor to the ``(L, M*Q)`` matrix whose column for
    subcarrier q and symbol m sits at flat index ``(q-1)*M + m``."""
    return unfold(pilots, 1)


def echo_from_components(
    channel: np.ndarray,
    target_steering: np.ndarray,
    delay_vec: np.ndarray,
    doppler_vec: np.ndarray,
    pilot_mat: np.ndarray,
    codebook: np.ndarray,
    alpha: complex,
) -> np.ndarray:
    """Assemble the noiseless echo tensor block by block.

    Shapes: ``channel`` (L, N), ``target_steering`` (N,), ``delay_vec`` (Q,),
    ``doppler_vec`` (M,), ``pilot_mat`` (L, M*Q), ``codebook`` (N, K).
    Block k is ``alpha * u_k v_k^T`` with ``u_k = H D(w_k) p`` and
    ``v_k = F D(w_k) p``, exact for any channel.  Returns the
    ``(L, M*Q, K)`` tensor.
    """
    u = channel @ (codebook * target_steering[:, None])  # (L, K)
    v = kronecker(delay_vec, doppler_vec)[:, None] * (pilot_mat.T @ u)  # (M*Q, K)
    return alpha * u[:, None, :] * v[None, :, :]


def generate_echo_tensor(
    cfg: ScenarioConfig,
    target: TargetParameters,
    codebook: np.ndarray,
    pilots: np.ndarray,
    alpha: complex,
) -> np.ndarray:
    """Synthesize the noiseless echo tensor ``(L, M*Q, K)`` for one target.

    Any dimensions synthesize; whether the estimator can fit them
    (``K >= N^2``, ``M*Q >= L``) is checked by the estimator and by
    :func:`~ristensor.experiment.run_trial` before it synthesizes.
    """
    n = cfg.N
    if codebook.shape != (n, cfg.K):
        raise ValueError(f"codebook must have shape {(n, cfg.K)}, got {codebook.shape}")
    channel = build_bs_ris_channel(target.eta, target.mu_a, target.psi_a, cfg)
    p = upa_steering(target.mu_d, target.psi_d, cfg.N_y, cfg.N_z)
    c = delay_steering(target.tau, cfg.Q, cfg.delta_f)
    d = doppler_steering(target.nu, cfg.M, cfg.T_s)
    return echo_from_components(channel, p, c, d, pilot_matrix(pilots), codebook, alpha)


def add_noise_at_snr(y_clean: np.ndarray, snr_db: float, seed) -> np.ndarray:
    """Return ``Y + Z`` with circular complex Gaussian noise ``Z`` scaled so
    that the realized ratio ``||Y||_F^2 / ||Z||_F^2`` equals
    ``10^(snr_db/10)`` exactly (up to rounding)."""
    y_clean = np.asarray(y_clean)
    if not np.isfinite(snr_db):
        raise ValueError(f"add_noise_at_snr: snr_db must be finite, got {snr_db}")
    signal_power = float(np.linalg.norm(y_clean) ** 2)
    if signal_power == 0.0:
        raise ValueError("add_noise_at_snr: signal tensor is identically zero")
    noise = complex_normal(np.random.default_rng(seed), y_clean.shape)
    scale = np.sqrt(signal_power / (10.0 ** (snr_db / 10.0))) / np.linalg.norm(noise)
    return y_clean + scale * noise
