"""Walk through the two-stage fit on one noisy realization.

Shows the pieces the CLI wires together: stage-1 Tucker fit of the echo,
the stage-2 refit of the delay/Doppler vectors, the scaling correction
that reads both stage-1 gauges off the two channel estimates and makes the
angular core usable, and the final frequency extraction.
"""

import numpy as np

from ristensor import (
    AlsSettings,
    add_noise_at_snr,
    als_stage1,
    als_stage2,
    build_bs_ris_channel,
    build_random_codebook,
    default_delay,
    extract_parameters,
    generate_echo_tensor,
    generate_pilots,
    relative_errors,
    remove_core_scaling,
    small_config,
    TargetParameters,
    unvec,
)

cfg = small_config()
target = TargetParameters(
    tau=default_delay(cfg), nu=0.17 / cfg.T_s,
    mu_d=1.2, psi_d=0.8,
)
# The BS-RIS channel is known at the receiver: it synthesizes the echo here
# and removes the core scaling after the fit.
channel = build_bs_ris_channel(eta=0.9, mu_a=-0.4, psi_a=1.6, cfg=cfg)
rng = np.random.default_rng(3)
codebook = build_random_codebook(cfg.N, cfg.K, rng)
pilots = generate_pilots(cfg, rng)
clean = generate_echo_tensor(cfg, target, channel, codebook, pilots, 3e-13 * np.exp(0.9j))
echo = add_noise_at_snr(clean, 25.0, rng)

print("=== stage 1: Tucker fit of the echo tensor ===")
stage1 = als_stage1(echo, codebook, AlsSettings(max_iters=30, tol=1e-8), seed=0)
rel = stage1.error_history / stage1.data_norm_sq
print(f"iterations: {stage1.iterations}, converged: {stage1.converged}")
print("relative fit error per sweep (first 8):", np.round(rel[:8], 6))
print("note: each sweep is an exact LS update, so the error never rises\n")

print("=== stage 2: refit of the delay/Doppler factor against the pilots ===")
# The stage-1 channel estimate is the channel's starting point, and the
# delay and Doppler vectors start from a closed-form fit against it.
stage2 = als_stage2(
    stage1.dd_factor_hat,
    pilots,
    stage1.channel_hat,
    AlsSettings(max_iters=30, tol=1e-8),
)
rel2 = stage2.error_history / stage2.data_norm_sq
print(f"iterations: {stage2.iterations}, converged: {stage2.converged}")
print("relative fit error per sweep (first 8):", np.round(rel2[:8], 6), "\n")

print("=== the scaling ambiguity, and why it must be removed ===")
raw = unvec(stage1.core_hat, cfg.N, cfg.N)
print(f"raw core asymmetry ||P - P^T|| / ||P|| = "
      f"{np.linalg.norm(raw - raw.T) / np.linalg.norm(raw):.3f}  (O(1): unusable as-is)")
# Stage 1's channel carries its channel gauge and stage 2's channel the
# delay/Doppler factor's; each is read off by an LS projection onto the
# known BS-RIS channel.
core = remove_core_scaling(stage1, stage2, channel)
fixed = unvec(core, cfg.N, cfg.N)
u, s, vh = np.linalg.svd(fixed)
print(f"after correction: symmetric by construction, near rank-1 "
      f"(sigma_2/sigma_1 = {s[1] / s[0]:.2e})\n")

print("=== frequency extraction ===")
# The estimate is a TargetParameters, scored against the truth afterwards.
est = extract_parameters(stage2.doppler_hat, stage2.delay_hat, core, cfg)
errors = relative_errors(target, est, cfg)
rows = [("tau [s]", "tau"), ("nu [Hz]", "nu"), ("mu_D [rad]", "mu_d"), ("psi_D [rad]", "psi_d")]
print(f"{'parameter':<12} {'truth':>14} {'estimate':>14} {'rel err':>10}")
for label, key in rows:
    print(f"{label:<12} {getattr(target, key):>14.6e} "
          f"{getattr(est, key):>14.6e} {errors[key]:>10.2e}")
angles = est.angles()
if angles is not None:
    print(f"\nmapped to angles: elevation {angles[0]:.4f} rad, azimuth {angles[1]:.4f} rad")
