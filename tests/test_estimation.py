"""Two-stage ALS tests: noiseless consistency, scaling-ambiguity structure,
monotonicity, and the identifiability guards."""

from dataclasses import dataclass

import numpy as np
import pytest

from ristensor import (
    AlsSettings,
    DivergenceError,
    IdentifiabilityError,
    add_noise_at_snr,
    als_stage1,
    als_stage2,
    khatri_rao,
    remove_core_scaling,
    tensorize_factor,
    unvec,
)
from ristensor.estimation import Stage1Estimate, Stage2Estimate
from ristensor.signal_model import echo_mode3
from ristensor.tensorops import kronecker, unfold
from conftest import crandn, make_scene

# near the float floor: the second stage converges linearly, so driving the
# parameter error to ~1e-9 needs the change threshold pushed this far down
EXACT = AlsSettings(max_iters=400, tol=1e-24, seed=11)


@dataclass
class GroundTruth:
    """Reference factors for the truth-based scaling diagnostics."""

    channel: np.ndarray
    dd_factor: np.ndarray
    core: np.ndarray
    doppler_vec: np.ndarray
    delay_vec: np.ndarray


def resolve_scaling(
    stage1: Stage1Estimate, stage2: Stage2Estimate, reference: GroundTruth
) -> dict:
    """Truth-based diagnostics of the scaling-ambiguity structure.

    Computes the diagonal scalings from first rows/entries, applies them and
    returns the relative residuals of all five factor relations.
    """
    for arr, label in (
        (stage1.channel_hat[0, :], "stage-1 channel"),
        (stage1.dd_factor_hat[0, :], "stage-1 delay/Doppler factor"),
        (stage2.doppler_hat[:1], "stage-2 Doppler vector"),
        (stage2.delay_hat[:1], "stage-2 delay vector"),
    ):
        if np.any(arr == 0):
            raise ValueError(f"degenerate normalization: {label} has a zero leading entry")

    lam_h = reference.channel[0, :] / stage1.channel_hat[0, :]
    lam_f = reference.dd_factor[0, :] / stage1.dd_factor_hat[0, :]
    lam_nu = complex(reference.doppler_vec[0] / stage2.doppler_hat[0])
    lam_tau = complex(reference.delay_vec[0] / stage2.delay_hat[0])

    def rel(err, ref):
        return float(np.linalg.norm(err) / np.linalg.norm(ref))

    n_ris = reference.channel.shape[1]
    core_fixed = unvec(stage1.core_hat, n_ris, n_ris) / np.outer(lam_h, lam_f)
    core_fixed = (core_fixed + core_fixed.T) / 2.0
    core_ref = unvec(reference.core, n_ris, n_ris)

    return {
        "lam_h": lam_h,
        "lam_f": lam_f,
        "lam_nu": lam_nu,
        "lam_tau": lam_tau,
        "channel_residual": rel(stage1.channel_hat * lam_h[None, :] - reference.channel,
                                reference.channel),
        "dd_factor_residual": rel(stage1.dd_factor_hat * lam_f[None, :] - reference.dd_factor,
                                  reference.dd_factor),
        "core_residual": rel(core_fixed - core_ref, core_ref),
        "doppler_residual": rel(lam_nu * stage2.doppler_hat - reference.doppler_vec,
                                reference.doppler_vec),
        "delay_residual": rel(lam_tau * stage2.delay_hat - reference.delay_vec,
                              reference.delay_vec),
    }


def scene_truth(scene) -> GroundTruth:
    return GroundTruth(
        channel=scene.channel,
        dd_factor=scene.dd_factor,
        core=scene.core,
        doppler_vec=scene.doppler_vec,
        delay_vec=scene.delay_vec,
    )


@pytest.fixture(scope="module")
def exact_fit():
    scene = make_scene(Q=4, M=4)
    stage1 = als_stage1(scene.echo, scene.codebook, EXACT)
    return scene, stage1


class TestStage1:
    def test_noiseless_fit_error(self, exact_fit):
        scene, stage1 = exact_fit
        assert stage1.error_history[-1] < 1e-10 * stage1.data_norm_sq

    def test_deterministic_history(self, exact_fit):
        scene, stage1 = exact_fit
        again = als_stage1(scene.echo, scene.codebook, EXACT)
        assert np.array_equal(stage1.error_history, again.error_history)

    def test_channel_scaling_relation(self, exact_fit):
        # the true channel equals the estimate times the first-row diagonal
        scene, stage1 = exact_fit
        lam_h = scene.channel[0, :] / stage1.channel_hat[0, :]
        rebuilt = stage1.channel_hat * lam_h[None, :]
        assert np.linalg.norm(rebuilt - scene.channel) < 1e-8 * np.linalg.norm(scene.channel)

    def test_rejects_too_few_blocks(self):
        scene = make_scene()
        short = scene.echo[:, :, : scene.cfg.N**2 - 1]
        with pytest.raises(IdentifiabilityError):
            als_stage1(short, scene.codebook[:, : scene.cfg.N**2 - 1], EXACT)

    @pytest.mark.filterwarnings("ignore:dimensions .* violate:UserWarning")
    def test_rejects_too_few_snapshots(self):
        scene = make_scene(L=2, M=1, Q=1, K=16)  # M*Q = 1 < L
        with pytest.raises(IdentifiabilityError):
            als_stage1(scene.echo, scene.codebook, EXACT)

    def test_guard_fires_before_iterating(self):
        scene = make_scene()
        bad = np.full_like(scene.echo[:, :, :15], np.nan)
        # K=15 < 16: the guard must fire before any NaN arithmetic happens
        with pytest.raises(IdentifiabilityError):
            als_stage1(bad, scene.codebook[:, :15], EXACT)

    def test_divergence_guard(self):
        scene = make_scene()
        poisoned = scene.echo.copy()
        poisoned[0, 0, 0] = np.nan
        with pytest.raises(DivergenceError):
            als_stage1(poisoned, scene.codebook, EXACT)

    def test_monotone_on_noisy_input(self):
        scene = make_scene()
        echo = add_noise_at_snr(scene.echo, 10.0, 77)
        est = als_stage1(echo.y_noisy, scene.codebook, AlsSettings(max_iters=60, seed=1))
        slack = 1e-12 * est.data_norm_sq
        assert np.all(np.diff(est.error_history) <= slack)


class TestTensorize:
    def test_mode1_unfolding_formula(self, scene):
        tens = tensorize_factor(scene.dd_factor, scene.cfg.M, scene.cfg.Q)
        cd = kronecker(scene.delay_vec, scene.doppler_vec)
        ref = scene.channel.T @ scene.pilot_mat * cd[None, :]
        got = unfold(tens, 1)
        assert np.linalg.norm(got - ref) < 1e-12 * np.linalg.norm(ref)

    def test_mode2_rows_scale_with_doppler(self, scene):
        # zeroing one Doppler entry must zero the matching mode-2 row
        cfg = scene.cfg
        dop = scene.doppler_vec.copy()
        dop[3] = 0.0
        factor = kronecker(scene.delay_vec, dop)[:, None] * (
            scene.pilot_mat.T @ scene.channel
        )
        tens = tensorize_factor(factor, cfg.M, cfg.Q)
        mode2 = unfold(tens, 2)
        assert np.abs(mode2[3, :]).max() == 0.0
        assert np.abs(mode2).max() > 0.0

    def test_roundtrip(self, scene):
        tens = tensorize_factor(scene.dd_factor, scene.cfg.M, scene.cfg.Q)
        assert np.array_equal(unfold(tens, 1).T, scene.dd_factor)

    def test_row_count_check(self):
        with pytest.raises(ValueError):
            tensorize_factor(np.zeros((7, 4)), 2, 4)


class TestStage2:
    def test_noiseless_recovery_up_to_scalar(self, scene):
        tens = tensorize_factor(scene.dd_factor, scene.cfg.M, scene.cfg.Q)
        est = als_stage2(tens, scene.pilots, EXACT)
        assert est.error_history[-1] < 1e-10 * est.data_norm_sq
        d_ratio = est.doppler_hat / est.doppler_hat[0]
        d_ref = scene.doppler_vec / scene.doppler_vec[0]
        assert np.abs(d_ratio - d_ref).max() < 1e-8
        c_ratio = est.delay_hat / est.delay_hat[0]
        c_ref = scene.delay_vec / scene.delay_vec[0]
        assert np.abs(c_ratio - c_ref).max() < 1e-8

    def test_monotone_on_noisy_input(self):
        scene = make_scene()
        echo = add_noise_at_snr(scene.echo, 10.0, 31)
        stage1 = als_stage1(echo.y_noisy, scene.codebook, AlsSettings(max_iters=30, seed=2))
        tens = tensorize_factor(stage1.dd_factor_hat, scene.cfg.M, scene.cfg.Q)
        est = als_stage2(tens, scene.pilots, AlsSettings(max_iters=60, seed=3),
                         channel_init=stage1.channel_hat)
        slack = 1e-12 * est.data_norm_sq
        assert np.all(np.diff(est.error_history) <= slack)

    def test_pilot_shape_check(self, scene):
        tens = tensorize_factor(scene.dd_factor, scene.cfg.M, scene.cfg.Q)
        with pytest.raises(ValueError):
            als_stage2(tens, scene.pilots[:, :, :-1], EXACT)


class TestGaugeStructure:
    def test_reconstruction_gauge_invariance(self, exact_fit, rng):
        # rescaling the factors with compensated core leaves the tensor fixed
        scene, stage1 = exact_fit
        n = scene.cfg.N
        lam = np.exp(crandn(rng, n))
        lam_p = np.exp(crandn(rng, n))
        wkr_t = khatri_rao(scene.codebook, scene.codebook).T
        base = echo_mode3(wkr_t, stage1.core_hat, stage1.dd_factor_hat, stage1.channel_hat)
        moved = echo_mode3(
            wkr_t,
            stage1.core_hat / kronecker(lam_p, lam),
            stage1.dd_factor_hat * lam_p[None, :],
            stage1.channel_hat * lam[None, :],
        )
        assert np.linalg.norm(moved - base) < 1e-12 * np.linalg.norm(base)

    def test_corrected_core_matches_truth(self, exact_fit):
        scene, stage1 = exact_fit
        core = remove_core_scaling(stage1, scene.channel, scene.pilot_mat)
        assert np.linalg.norm(core - scene.core) < 1e-8 * np.linalg.norm(scene.core)

    def test_corrected_core_is_symmetric(self, exact_fit):
        scene, stage1 = exact_fit
        n = scene.cfg.N
        mat = unvec(remove_core_scaling(stage1, scene.channel, scene.pilot_mat), n, n)
        assert np.linalg.norm(mat - mat.T) < 1e-8 * np.linalg.norm(mat)

    def test_raw_core_needs_the_correction(self, exact_fit):
        # the uncorrected core is a poor estimate of the dyad even noiselessly:
        # the fit only pins it up to diagonal scalings and a null component
        scene, stage1 = exact_fit
        raw = stage1.core_hat / stage1.core_hat[0] * scene.core[0]
        assert np.linalg.norm(raw - scene.core) > 1e-3 * np.linalg.norm(scene.core)


class TestResolveScaling:
    def test_noiseless_residuals(self):
        scene = make_scene(Q=4, M=4)
        stage1 = als_stage1(scene.echo, scene.codebook, EXACT)
        tens = tensorize_factor(stage1.dd_factor_hat, scene.cfg.M, scene.cfg.Q)
        stage2 = als_stage2(tens, scene.pilots, EXACT, channel_init=stage1.channel_hat)
        diag = resolve_scaling(stage1, stage2, scene_truth(scene))
        for key in ("channel_residual", "dd_factor_residual", "core_residual",
                    "doppler_residual", "delay_residual"):
            assert diag[key] < 1e-8, (key, diag[key])

    def test_identity_when_estimate_is_truth(self, scene):
        stage1 = Stage1Estimate(
            channel_hat=scene.channel,
            dd_factor_hat=scene.dd_factor,
            core_hat=scene.core,
            error_history=np.array([0.0]),
            iterations=1,
            converged=True,
            data_norm_sq=1.0,
        )
        stage2 = Stage2Estimate(
            doppler_hat=scene.doppler_vec,
            delay_hat=scene.delay_vec,
            channel_hat=scene.channel,
            error_history=np.array([0.0]),
            iterations=1,
            converged=True,
            data_norm_sq=1.0,
        )
        diag = resolve_scaling(stage1, stage2, scene_truth(scene))
        assert np.allclose(diag["lam_h"], 1.0, atol=1e-12)
        assert np.allclose(diag["lam_f"], 1.0, atol=1e-12)
        assert abs(diag["lam_nu"] - 1.0) < 1e-12
        assert abs(diag["lam_tau"] - 1.0) < 1e-12
        assert diag["core_residual"] < 1e-12

    def test_gauge_rotation_of_doppler(self):
        scene = make_scene(Q=4, M=4)
        stage1 = als_stage1(scene.echo, scene.codebook, EXACT)
        tens = tensorize_factor(stage1.dd_factor_hat, scene.cfg.M, scene.cfg.Q)
        stage2 = als_stage2(tens, scene.pilots, EXACT, channel_init=stage1.channel_hat)
        base = resolve_scaling(stage1, stage2, scene_truth(scene))
        phase = np.exp(1j * np.pi / 3)
        stage2.doppler_hat = stage2.doppler_hat * phase
        moved = resolve_scaling(stage1, stage2, scene_truth(scene))
        assert abs(moved["lam_nu"] - base["lam_nu"] / phase) < 1e-10 * abs(base["lam_nu"])
        assert abs(moved["doppler_residual"] - base["doppler_residual"]) < 1e-10

    def test_degenerate_normalization_error(self, scene):
        stage1 = Stage1Estimate(
            channel_hat=scene.channel.copy(),
            dd_factor_hat=scene.dd_factor,
            core_hat=scene.core,
            error_history=np.array([0.0]),
            iterations=1,
            converged=True,
            data_norm_sq=1.0,
        )
        stage1.channel_hat[0, 0] = 0.0
        stage2 = Stage2Estimate(
            doppler_hat=scene.doppler_vec,
            delay_hat=scene.delay_vec,
            channel_hat=scene.channel,
            error_history=np.array([0.0]),
            iterations=1,
            converged=True,
            data_norm_sq=1.0,
        )
        with pytest.raises(ValueError, match="degenerate"):
            resolve_scaling(stage1, stage2, scene_truth(scene))
