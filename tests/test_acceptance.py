"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  The Monte-Carlo criteria (6-8) dominate the
runtime; the whole suite stays well inside its budgets on a laptop-class
machine.
"""

import time

import numpy as np
import pytest

from ristensor import (
    AlsSettings,
    ExperimentSpec,
    IdentifiabilityError,
    add_noise_at_snr,
    als_stage1,
    als_stage2,
    complexity_estimate,
    khatri_rao,
    run_sweep,
    run_trial,
    small_config,
    upa_steering,
    write_results,
)
from ristensor.esprit import esprit_1d, esprit_2d
from ristensor.experiment import PARAMETERS, trial_seed_sequence
from ristensor.tensorops import fold, kronecker, mode_product, unfold, vec
from conftest import crandn, make_scene
from test_signal_model import echo_oracle

SWEEP_ALS = AlsSettings(max_iters=30, tol=1e-8)
TRIALS = 200


def report(number: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[{status}] criterion {number:2d}: {label}{suffix}")
    assert ok, f"criterion {number} failed: {label} {suffix}"


def rmse_by_param(records, **match):
    out = {}
    for rec in records:
        if all(getattr(rec, k) == v for k, v in match.items()):
            out[rec.parameter] = rec.rmse
    return out


def test_criterion_01_noiseless_exact_recovery():
    start = time.monotonic()
    cfg = small_config(L=2, N_y=2, N_z=2, Q=8, M=8, K=16)
    est, diag = run_trial(
        cfg, AlsSettings(max_iters=400, tol=1e-16), 300.0, trial_seed_sequence(7, 0, 0, 0)
    )
    elapsed = time.monotonic() - start
    worst = max(est.rel_errors.values())
    assert abs(diag["target"].tau - 1e-7) < 1e-22
    report(
        1, "noiseless end-to-end recovery < 1e-6",
        worst < 1e-6 and elapsed < 10.0,
        f"worst rel error {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_02_als_monotonicity():
    worst_violation = 0.0
    for run in range(50):
        scene = make_scene(seed=run + 1)
        echo = add_noise_at_snr(scene.echo, 10.0, 1000 + run)
        stage1 = als_stage1(echo, scene.codebook,
                            AlsSettings(max_iters=40, tol=1e-10), seed=run)
        stage2 = als_stage2(
            stage1.dd_factor_hat,
            scene.pilots,
            stage1.channel_hat,
            AlsSettings(max_iters=40, tol=1e-10),
            seed=run + 500,
        )
        for est in (stage1, stage2):
            if len(est.error_history) > 1:
                rise = float(np.max(np.diff(est.error_history)) / est.data_norm_sq)
                worst_violation = max(worst_violation, rise)
    report(
        2, "fit-error histories non-increasing over 50 noisy runs",
        worst_violation <= 1e-12,
        f"worst relative rise {worst_violation:.2e}",
    )


def test_criterion_03_tensor_identity_suite():
    start = time.monotonic()
    rng = np.random.default_rng(42)
    ok = True

    for _ in range(100):
        dims = tuple(rng.integers(1, 7, size=3))
        t = crandn(rng, *dims)
        for mode in (1, 2, 3):
            ok &= bool(np.array_equal(fold(unfold(t, mode), mode, dims), t))

    for _ in range(100):
        n, l, mq, k = 2, 3, 4, 6
        h, f = crandn(rng, l, n), crandn(rng, mq, n)
        w = np.exp(2j * np.pi * rng.random((n, k)))
        wkr_t = khatri_rao(w, w).T
        core_vec = crandn(rng, n * n)
        core = fold(np.diag(core_vec), 3, (n, n, n * n))
        tensor = mode_product(mode_product(mode_product(core, h, 1), f, 2), wkr_t, 3)
        y1 = h @ unfold(core, 1) @ kronecker(wkr_t, f).T
        y2 = f @ unfold(core, 2) @ kronecker(wkr_t, h).T
        y3 = wkr_t @ np.diag(core_vec) @ kronecker(f, h).T
        for mode, ref in ((1, y1), (2, y2), (3, y3)):
            err = np.linalg.norm(unfold(tensor, mode) - ref)
            ok &= bool(err <= 1e-12 * np.linalg.norm(ref))

    for _ in range(100):
        a, b, c = crandn(rng, 3, 4), crandn(rng, 4, 3), crandn(rng, 3, 5)
        lhs = vec(a @ b @ c)
        ok &= bool(np.linalg.norm(lhs - kronecker(c.T, a) @ vec(b))
                   <= 1e-12 * np.linalg.norm(lhs))
        d = crandn(rng, 4)
        cc = crandn(rng, 4, 5)
        lhs = vec(a @ np.diag(d) @ cc)
        ok &= bool(np.linalg.norm(lhs - khatri_rao(cc.T, a) @ d)
                   <= 1e-12 * np.linalg.norm(lhs))
        row = crandn(rng, 4)
        bb = crandn(rng, 5, 4)
        ok &= bool(np.linalg.norm(khatri_rao(row[None, :], bb) - bb @ np.diag(row))
                   <= 1e-12 * np.linalg.norm(bb))

    elapsed = time.monotonic() - start
    report(3, "tensor identities on 100+ random instances", ok and elapsed < 5.0,
           f"{elapsed:.2f}s")


def test_criterion_04_echo_model_oracle():
    scene = make_scene(Q=3, M=3, K=16)  # (L, N, Q, M, K) = (2, 4, 3, 3, 16)
    ref = echo_oracle(scene.cfg, scene.target, scene.codebook, scene.pilots, scene.alpha)
    err = np.linalg.norm(scene.echo - ref) / np.linalg.norm(ref)
    report(4, "echo synthesis matches scalar-loop evaluation", err < 1e-12,
           f"rel err {err:.2e}")


def test_criterion_05_esprit_exactness():
    grid = np.linspace(-np.pi, np.pi, 66)[1:-1]
    worst_1d = 0.0
    for length in (4, 8, 16, 64):
        for omega in grid:
            got = esprit_1d(np.exp(1j * omega * np.arange(length)))
            err = abs((got - omega + np.pi) % (2 * np.pi) - np.pi)
            worst_1d = max(worst_1d, err)
    rng = np.random.default_rng(3)
    worst_2d = 0.0
    for _ in range(50):
        mu0, psi0 = rng.uniform(-np.pi, np.pi, size=2)
        p = upa_steering(mu0, psi0, 4, 4)
        mu, psi = esprit_2d(np.kron(p, p), 4, 4)
        for got, truth in ((mu, mu0), (psi, psi0)):
            err = abs((got - truth + np.pi) % (2 * np.pi) - np.pi)
            worst_2d = max(worst_2d, err)
    report(5, "1D/2D shift-invariance exactness",
           worst_1d < 1e-10 and worst_2d < 1e-10,
           f"worst 1D {worst_1d:.2e}, worst 2D {worst_2d:.2e}")


def test_criterion_06_rmse_improves_with_subcarriers():
    start = time.monotonic()
    spec = ExperimentSpec(
        base=small_config(),
        sweep_variable="Q",
        sweep_values=(8, 32),
        snr_grid_db=(20.0,),
        trials=TRIALS,
        master_seed=601,
        als=SWEEP_ALS,
    )
    records = run_sweep(spec, jobs=2)
    tau_8 = rmse_by_param(records, sweep_value=8.0)["tau"]
    tau_32 = rmse_by_param(records, sweep_value=32.0)["tau"]
    elapsed = time.monotonic() - start
    report(6, "delay RMSE strictly decreases from Q=8 to Q=32",
           tau_32 < tau_8 and elapsed < 600.0,
           f"{tau_8:.3e} -> {tau_32:.3e}, {elapsed:.0f}s")


def test_criterion_07_rmse_improves_with_blocks():
    spec = ExperimentSpec(
        base=small_config(),
        sweep_variable="K",
        sweep_values=(16, 64),  # N^2 and 4 N^2 for N = 4
        snr_grid_db=(20.0,),
        trials=TRIALS,
        master_seed=701,
        als=SWEEP_ALS,
    )
    records = run_sweep(spec, jobs=2)
    low = rmse_by_param(records, sweep_value=16.0)
    high = rmse_by_param(records, sweep_value=64.0)
    ok = all(high[p] < low[p] for p in PARAMETERS)
    detail = ", ".join(f"{p}: {low[p]:.2e}->{high[p]:.2e}" for p in PARAMETERS)
    report(7, "all RMSEs decrease from K=N^2 to K=4N^2", ok, detail)


def test_criterion_08_snr_monotonicity():
    spec = ExperimentSpec(
        base=small_config(),
        sweep_variable="none",
        snr_grid_db=(0.0, 30.0),
        trials=TRIALS,
        master_seed=801,
        als=SWEEP_ALS,
    )
    records = run_sweep(spec, jobs=2)
    low = rmse_by_param(records, snr_db=0.0)
    high = rmse_by_param(records, snr_db=30.0)
    ok = all(high[p] < low[p] for p in PARAMETERS)
    detail = ", ".join(f"{p}: {low[p]:.2e}->{high[p]:.2e}" for p in PARAMETERS)
    report(8, "all RMSEs at 30 dB below 0 dB", ok, detail)


def test_criterion_09_identifiability_guards():
    scene = make_scene()
    n_sq = scene.cfg.N ** 2

    poisoned = np.full((scene.cfg.L, scene.cfg.M * scene.cfg.Q, n_sq - 1), np.nan,
                       dtype=complex)
    blocks_rejected = False
    try:
        als_stage1(poisoned, scene.codebook[:, : n_sq - 1], SWEEP_ALS)
    except IdentifiabilityError:
        blocks_rejected = True  # guard fired before touching the NaNs

    thin = make_scene(M=1, Q=1, K=16)  # M*Q = 1 = L - 1
    snapshots_rejected = False
    try:
        als_stage1(np.full_like(thin.echo, np.nan), thin.codebook, SWEEP_ALS)
    except IdentifiabilityError:
        snapshots_rejected = True

    report(9, "K = N^2-1 and M*Q = L-1 rejected before iterating",
           blocks_rejected and snapshots_rejected)


def test_criterion_10_complexity_formulas():
    counts1, counts2 = [], []
    ok = True
    for n in (4, 8, 16):
        n_y = 2 if n <= 4 else (2 if n == 8 else 4)
        n_z = n // n_y
        cfg = small_config(N_y=n_y, N_z=n_z, K=n * n, Q=8, M=8, L=2)
        rep = complexity_estimate(cfg, 3, 2)
        # the K = n^2 blocks project onto r_W = n(n+1)/2 basis vectors, F^H F
        # and echo x2 F^H run before the loop and in each sweep, the channel
        # and factor updates solve n x n and the core update n^2 x n^2
        # normal equations
        r_w = n * (n + 1) // 2
        f_terms = 8 * 8 * n * (n + 2 * r_w)
        expect1 = n * n * r_w * (2 * 2 * 8 * 8 + r_w) + r_w * n**4 + f_terms + 3 * (
            2 * n * r_w * (n * n + 2 * (n + 8 * 8)) + 2 * n**3 + f_terms
            + n**6 + n**4 + n**2 * 2 + n * r_w * (2 * n + n))
        expect2 = 2 * (8 * 8 * (2 * n * 2 + 2**2 + 2 * n))
        ok &= rep.stage1_ops == expect1 and rep.stage2_ops == expect2
        counts1.append(rep.stage1_ops)
        counts2.append(rep.stage2_ops)
    ok &= counts1 == sorted(counts1) and counts1[0] < counts1[1] < counts1[2]
    ok &= counts2 == sorted(counts2) and counts2[0] < counts2[1] < counts2[2]
    report(10, "complexity counts exact and monotone over N in {4,8,16}", ok,
           f"stage1 {counts1}")


def test_criterion_11_sweep_determinism(tmp_path):
    spec = ExperimentSpec(
        base=small_config(),
        sweep_variable="Q",
        sweep_values=(4, 8),
        snr_grid_db=(10.0, 20.0),
        trials=5,
        master_seed=1101,
        als=AlsSettings(max_iters=15, tol=1e-8),
    )
    paths = []
    for jobs in (1, 4):
        records = run_sweep(spec, jobs=jobs)
        path = tmp_path / f"jobs{jobs}.csv"
        write_results(records, str(path))
        paths.append(path)
    identical = paths[0].read_bytes() == paths[1].read_bytes()
    report(11, "byte-identical CSV across worker counts", identical)
