"""Closed-form operation counts of the two fitting stages.

Evaluates the per-stage cost model over RIS sizes, subcarrier counts, and
symbol counts, and compares the model against measured wall time on a small
problem.  The RIS size dominates: stage 1 first projects the K blocks onto
the r_W = N(N+1)/2 dimensions that phase-only probing reaches, and the core
update then solves N^2 x N^2 normal equations, N^6 operations per sweep
whatever L, M, Q and K, so its cost explodes with N.  Blocks beyond
N(N+1)/2 cost only the one-time projection.  Once M*Q exceeds N, Q and M
enter the per-sweep count through terms linear in M*Q: the Gram of the
delay/Doppler factor, the projection of the echo onto it, the right-hand
side of its update and the fit error -- the reason adding
subcarriers is an attractive way to buy delay accuracy.
"""

import time

import numpy as np

from ristensor import (
    AlsSettings,
    add_noise_at_snr,
    als_stage1,
    build_random_codebook,
    complexity_estimate,
    default_delay,
    generate_echo_tensor,
    generate_pilots,
    small_config,
    TargetParameters,
)

print("stage counts vs RIS elements (K = N^2, Q = M = 8, L = 2):")
print(f"{'N':>4} {'stage1_ops':>14} {'stage2_ops':>12}")
for n_y, n_z in ((2, 2), (2, 4), (4, 4)):
    n = n_y * n_z
    cfg = small_config(N_y=n_y, N_z=n_z, K=n * n)
    rep = complexity_estimate(cfg, iters1=1, iters2=1)
    print(f"{n:>4} {rep.stage1_ops:>14} {rep.stage2_ops:>12}")

print("\nstage counts vs subcarriers (N = 4, K = 16):")
print(f"{'Q':>4} {'stage1_ops':>14} {'stage2_ops':>12}")
for q in (8, 16, 32, 64):
    rep = complexity_estimate(small_config(Q=q), iters1=1, iters2=1)
    print(f"{q:>4} {rep.stage1_ops:>14} {rep.stage2_ops:>12}")

print("\nstage counts vs symbols (N = 4, K = 16):")
print(f"{'M':>4} {'stage1_ops':>14} {'stage2_ops':>12}")
for m in (8, 16, 32, 64):
    rep = complexity_estimate(small_config(M=m), iters1=1, iters2=1)
    print(f"{m:>4} {rep.stage1_ops:>14} {rep.stage2_ops:>12}")

print("\nmodel vs measured stage-1 wall time (10 sweeps each):")
rng = np.random.default_rng(0)
rows = []
for n_y, n_z, k in ((2, 2, 16), (2, 4, 64)):
    cfg = small_config(N_y=n_y, N_z=n_z, K=k)
    target = TargetParameters(tau=default_delay(cfg), nu=0.1 / cfg.T_s,
                              mu_d=0.7, psi_d=0.5, mu_a=0.2, psi_a=0.9, eta=0.4)
    codebook = build_random_codebook(cfg.N, k, rng)
    pilots = generate_pilots(cfg, rng)
    echo = add_noise_at_snr(
        generate_echo_tensor(cfg, target, codebook, pilots, 1e-12), 20.0, rng
    )
    start = time.perf_counter()
    est = als_stage1(echo, codebook, AlsSettings(max_iters=10, tol=1e-14), seed=0)
    wall = time.perf_counter() - start
    rep = complexity_estimate(cfg, iters1=est.iterations, iters2=1)
    rows.append((cfg.N, k, rep.stage1_ops, wall))
    print(f"  N={cfg.N:>2} K={k:>3}: model {rep.stage1_ops:>12} ops, "
          f"measured {wall * 1e3:7.1f} ms")
ratio = (rows[1][2] / rows[0][2], rows[1][3] / rows[0][3])
print(f"model ratio {ratio[0]:.1f}x vs measured ratio {ratio[1]:.1f}x "
      "(the op counts leave out per-call overhead, which is most of the N=4 time)")
