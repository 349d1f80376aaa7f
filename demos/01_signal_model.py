"""Walk through the physical signal model.

Builds the desk-scale scenario, inspects the steering vectors and the
two-hop channel, synthesizes the echo tensor, and verifies two structural
facts worth knowing before trusting any estimator on this data:

* the per-block propagation matrix is symmetric (monostatic reciprocity);
* a phase-only RIS codebook can never excite more than the symmetric
  subspace of the angular core, and a Fourier (Vandermonde) codebook is
  stuck even lower, at rank 2N-1.
"""

import numpy as np

from ristensor import (
    add_noise_at_snr,
    build_bs_ris_channel,
    build_dft_codebook,
    build_random_codebook,
    default_delay,
    delay_steering,
    doppler_steering,
    generate_echo_tensor,
    generate_pilots,
    khatri_rao,
    small_config,
    TargetParameters,
    ula_steering,
    upa_steering,
)

cfg = small_config()
print("scenario:", cfg, "\n")

target = TargetParameters(
    tau=default_delay(cfg),      # 15 m round trip -> 100 ns
    nu=0.2 / cfg.T_s,            # well inside the unambiguous Doppler range
    mu_d=0.9, psi_d=-1.3,        # target departure spatial frequencies
)
print("target:", target, "\n")

# The BS-RIS geometry is fixed infrastructure, known at the BS: it is not
# estimated, and enters the echo only through the channel H.
eta = 0.7                        # BS array frequency
mu_a, psi_a = 0.5, 1.1           # BS-RIS arrival spatial frequencies at the RIS
a = ula_steering(eta, cfg.L)
b = upa_steering(mu_a, psi_a, cfg.N_y, cfg.N_z)
p = upa_steering(target.mu_d, target.psi_d, cfg.N_y, cfg.N_z)
print("steering vectors are unit-modulus Vandermonde sequences, e.g. a(eta):")
print(np.round(a, 4))
print("element-wise ratio (constant):", np.round(a[1:] / a[:-1], 6), "\n")

channel = build_bs_ris_channel(eta, mu_a, psi_a, cfg)
print(f"BS-RIS channel is rank-1: singular values = "
      f"{np.round(np.linalg.svd(channel, compute_uv=False), 6)}\n")

rng = np.random.default_rng(1)
codebook = build_random_codebook(cfg.N, cfg.K, rng)
pilots = generate_pilots(cfg, rng)
alpha = 3e-13 * np.exp(1j * 0.4)
echo = generate_echo_tensor(cfg, target, channel, codebook, pilots, alpha)
print(f"noiseless echo tensor: shape {echo.shape}, Frobenius norm "
      f"{np.linalg.norm(echo):.3e}")

# reciprocity of each block's two-hop propagation matrix
w0 = codebook[:, 0]
g0 = channel @ np.diag(w0) @ np.outer(p, p) @ np.diag(w0) @ channel.T
print(f"block reciprocity ||G - G^T|| / ||G|| = "
      f"{np.linalg.norm(g0 - g0.T) / np.linalg.norm(g0):.2e}\n")

# what the RIS can and cannot probe in the angular core
n = cfg.N
rank_random = np.linalg.matrix_rank(khatri_rao(codebook, codebook))
dft = build_dft_codebook(n, cfg.K)
rank_dft = np.linalg.matrix_rank(khatri_rao(dft, dft))
print(f"rank of W kr W: random phases = {rank_random} "
      f"(symmetric cap N(N+1)/2 = {n * (n + 1) // 2}), "
      f"Fourier design = {rank_dft} (2N-1 = {2 * n - 1})")
print("-> the Fourier design cannot identify the angular core for N >= 3, "
      "which is why the simulator defaults to random phases.\n")

echo_noisy = add_noise_at_snr(echo, 20.0, rng)
ratio = np.linalg.norm(echo) ** 2 / np.linalg.norm(echo_noisy - echo) ** 2
print(f"added noise at 20 dB: realized signal/noise power ratio = "
      f"{ratio:.6f} (exact by construction)")

c = delay_steering(target.tau, cfg.Q, cfg.delta_f)
d = doppler_steering(target.nu, cfg.M, cfg.T_s)
print(f"delay phase increment per subcarrier: {np.angle(c[1]):+.4f} rad; "
      f"Doppler increment per symbol: {np.angle(d[1]):+.4f} rad (opposite signs)")
