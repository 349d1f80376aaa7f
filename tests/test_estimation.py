"""Two-stage ALS tests: noiseless consistency, scaling-ambiguity structure,
monotonicity, and the identifiability guards."""

from dataclasses import dataclass, fields

import numpy as np
import pytest

from ristensor import (
    AlsSettings,
    DivergenceError,
    IdentifiabilityError,
    ScenarioConfig,
    TargetParameters,
    add_noise_at_snr,
    als_stage1,
    als_stage2,
    build_dft_codebook,
    default_delay,
    khatri_rao,
    remove_core_scaling,
    unvec,
)
from ristensor.estimation import Stage1Estimate, Stage2Estimate, _core_normal_equations
from ristensor.signal_model import complex_normal
from ristensor.tensorops import fold, kronecker, mode_product, pseudoinverse, unfold, vec
from conftest import Scene, crandn, make_scene

# near the float floor: the second stage converges linearly, so driving the
# parameter error to ~1e-9 needs the change threshold pushed this far down
EXACT = AlsSettings(max_iters=400, tol=1e-24)


def echo_mode3(wkr_t, core, dd_factor, channel):
    """Tucker-model oracle: the mode-3 unfolding ``(W kr W)^T D(core) (F kron H)^T``
    of the echo, ``wkr_t`` being ``(W kr W)^T``; shape ``(K, L*M*Q)``."""
    return wkr_t @ (core[:, None] * kronecker(dd_factor, channel).T)


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
    stage1 = als_stage1(scene.echo, scene.codebook, EXACT, seed=11)
    return scene, stage1


class TestAlsSettings:
    @pytest.mark.parametrize("tol", [0.0, -1e-8, float("inf"), float("nan")])
    def test_tol_must_be_finite_positive(self, tol):
        with pytest.raises(ValueError, match="tol must be finite"):
            AlsSettings(tol=tol)

    def test_iteration_controls_only(self):
        assert [f.name for f in fields(AlsSettings)] == ["max_iters", "tol"]


class TestStage1:
    def test_noiseless_fit_error(self, exact_fit):
        scene, stage1 = exact_fit
        assert stage1.error_history[-1] < 1e-10 * stage1.data_norm_sq

    def test_deterministic_history(self, exact_fit):
        scene, stage1 = exact_fit
        again = als_stage1(scene.echo, scene.codebook, EXACT, seed=11)
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
        # the NaN spreads through the iterates, and stage 1 must stop cleanly
        for dims, entry in [({}, (0, 0, 0)), (dict(N_y=3, N_z=3, K=81), (1, 5, 40))]:
            scene = make_scene(**dims)
            poisoned = scene.echo.copy()
            poisoned[entry] = np.nan
            with pytest.raises(DivergenceError, match="non-finite"):
                als_stage1(poisoned, scene.codebook, EXACT, seed=11)

    def test_monotone_on_noisy_input(self):
        scene = make_scene()
        echo = add_noise_at_snr(scene.echo, 10.0, 77)
        est = als_stage1(echo, scene.codebook, AlsSettings(max_iters=60), seed=1)
        slack = 1e-12 * est.data_norm_sq
        assert np.all(np.diff(est.error_history) <= slack)

    @pytest.mark.parametrize("dims", [{}, dict(N_y=3, N_z=3, K=81), dict(K=64)])
    def test_fit_error_matches_mode3_rebuild(self, dims):
        # the mode-2 fit error is the mode-3 model residual, rebuilt in full
        scene = make_scene(**dims)
        echo = add_noise_at_snr(scene.echo, 10.0, 5)
        est = als_stage1(echo, scene.codebook, AlsSettings(max_iters=8), seed=3)
        wkr_t = khatri_rao(scene.codebook, scene.codebook).T
        model = echo_mode3(wkr_t, est.core_hat, est.dd_factor_hat, est.channel_hat)
        ref = np.linalg.norm(unfold(echo, 3) - model) ** 2
        assert abs(est.error_history[-1] - ref) <= 1e-12 * est.data_norm_sq


def _unit(matrix):
    return matrix / np.linalg.norm(matrix, axis=0)[None, :]


class TestCompressedSolves:
    """Stage 1 solves the normal equations of block-projected slice systems;
    the dense solves, built from the ``(N, N, N^2)`` core tensor, are the
    oracle.

    Sweep 1's channel solve starts from the seeded initial draws, sweep 2's
    from the sweep-1 factors; each factor solve uses the channel solved
    before its rebalance, and each core solve the factors returned with it.
    Every case has ``L < N``; the second and fourth have ``M*Q < N``; the
    third, fourth and the DFT case have ``K = N^2``, and the fifth
    ``K = 64``, far above the ``N(N+1)/2 = 10`` block rows stage 1 keeps.
    The fourth, with ``L = M*Q = 1``, leaves the core design rank-deficient
    (minimum-norm solve).  The DFT codebook's ``W kr W`` has rank
    ``2N - 1 = 7`` below ``N(N+1)/2``, so the block basis spans more than
    the probing reaches.  The noiseless case fits a rank-1 echo, so the
    fitted factors are rank-1 and the core design is numerically singular
    (its Gram's condition number squares that of the design).
    """

    @pytest.mark.parametrize("L,N_y,N_z,M,Q,K", [
        (2, 2, 2, 2, 4, 20),
        (2, 2, 3, 1, 3, 40),
        (3, 2, 2, 2, 4, 16),
        (1, 3, 3, 1, 1, 81),
        (2, 2, 2, 2, 4, 64),
    ])
    def test_match_dense_oracle(self, L, N_y, N_z, M, Q, K):
        self.check(L, N_y, N_z, M, Q, K, dft=False)

    def test_dft_codebook_matches_dense_oracle(self):
        self.check(2, 2, 2, 2, 4, 16, dft=True)

    def test_noiseless_echo_matches_dense_oracle(self):
        self.check(2, 3, 3, 8, 8, 81, dft=False, noiseless=True)

    @staticmethod
    def check(L, N_y, N_z, M, Q, K, dft, noiseless=False):
        n, seed = N_y * N_z, 3
        if noiseless:
            scene = make_scene(L=L, N_y=N_y, N_z=N_z, M=M, Q=Q, K=K)
            echo, codebook = scene.echo, scene.codebook
        else:
            gen = np.random.default_rng(K)
            echo = crandn(gen, L, M * Q, K)
            codebook = (build_dft_codebook(n, K) if dft
                        else np.exp(2j * np.pi * gen.random((n, K))))
        wkr_t = khatri_rao(codebook, codebook).T
        y1, y2, y3 = unfold(echo, 1), unfold(echo, 2), unfold(echo, 3)

        def dense_core(dd_factor, channel):
            design = khatri_rao(kronecker(dd_factor, channel), wkr_t)
            return pseudoinverse(design) @ vec(y3), np.linalg.matrix_rank(design)

        def dense_channel_and_factor(core, dd_factor):
            core_tensor = fold(np.diag(core), 3, (n, n, n * n))
            g1 = unfold(mode_product(mode_product(core_tensor, dd_factor, 2), wkr_t, 3), 1)
            channel = y1 @ pseudoinverse(g1)
            g2 = unfold(mode_product(mode_product(core_tensor, channel, 1), wkr_t, 3), 2)
            return _unit(channel), _unit(y2 @ pseudoinverse(g2))

        init = np.random.default_rng(seed)
        complex_normal(init, (L, n))
        dd_init = complex_normal(init, (M * Q, n))
        core_init = complex_normal(init, n * n)
        one = als_stage1(echo, codebook, AlsSettings(max_iters=1), seed=seed)
        two = als_stage1(echo, codebook, AlsSettings(max_iters=2), seed=seed)

        def rel(got, ref):
            return np.linalg.norm(got - ref) / np.linalg.norm(ref)

        for est, start in ((one, (core_init, dd_init)), (two, (one.core_hat, one.dd_factor_hat))):
            channel, dd_factor = dense_channel_and_factor(*start)
            assert rel(est.channel_hat, channel) <= 1e-12
            assert rel(est.dd_factor_hat, dd_factor) <= 1e-12
        for est in (one, two):
            core, rank = dense_core(est.dd_factor_hat, est.channel_hat)
            assert rel(est.core_hat, core) <= 1e-12
        assert (rank < n * n) == (L * M * Q == 1 or noiseless)
        assert np.linalg.matrix_rank(wkr_t) == (2 * n - 1 if dft else n * (n + 1) // 2)

    def test_paper_default_sweep(self):
        # the dense core design of this scenario is 524288 x 256 (2.1 GB)
        cfg = ScenarioConfig()
        scene = Scene(cfg, TargetParameters(
            tau=default_delay(cfg), nu=0.21 / cfg.T_s, mu_d=0.9, psi_d=-1.3,
            mu_a=0.5, psi_a=1.1, eta=0.7))
        echo = add_noise_at_snr(scene.echo, 20.0, 5)
        est = als_stage1(echo, scene.codebook, AlsSettings(max_iters=1), seed=0)
        assert est.iterations == 1
        assert np.isfinite(est.error_history[-1])
        assert est.error_history[-1] <= est.data_norm_sq


class TestCoreNormalEquations:
    """The closed-form core normal equations equal those of the dense
    Khatri-Rao design, built as :class:`TestCompressedSolves` builds it, for
    data given in stage 1's form: ``echo x3 Q_W^H x2 F^H`` and ``F^H F``.  Cases:
    ``L < N``; ``M*Q < N``; ``K = 64`` above ``N(N+1)/2 = 10``; the DFT
    codebook, whose ``W kr W`` has rank ``2N - 1``."""

    @pytest.mark.parametrize("L,N_y,N_z,M,Q,K,dft", [
        (2, 2, 2, 2, 4, 20, False),
        (3, 2, 3, 1, 3, 40, False),
        (2, 2, 2, 2, 4, 64, False),
        (2, 2, 2, 2, 4, 16, True),
    ])
    def test_match_design(self, L, N_y, N_z, M, Q, K, dft):
        n = N_y * N_z
        gen = np.random.default_rng(K)
        echo = crandn(gen, L, M * Q, K)
        codebook = (build_dft_codebook(n, K) if dft
                    else np.exp(2j * np.pi * gen.random((n, K))))
        dd_factor, channel = crandn(gen, M * Q, n), crandn(gen, L, n)
        wkr_t = khatri_rao(codebook, codebook).T
        design = khatri_rao(kronecker(dd_factor, channel), wkr_t)
        ref_gram = design.conj().T @ design
        ref_rhs = design.conj().T @ vec(unfold(echo, 3))

        rows, cols = np.triu_indices(n)
        q_w = np.linalg.qr(wkr_t[:, rows * n + cols])[0]
        wkr_p = q_w.conj().T @ wkr_t
        echo_f = mode_product(mode_product(echo, q_w.conj().T, 3), dd_factor.conj().T, 2)
        gram, rhs = _core_normal_equations(echo_f, dd_factor.conj().T @ dd_factor, channel,
                                           wkr_p, wkr_p.conj().T @ wkr_p)
        for got, ref in ((gram, ref_gram), (rhs, ref_rhs)):
            assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)


class TestTensorize:
    """Row ``(q-1)*M + m`` of the (M*Q, N) factor holds the entries ``[:, m, q]``
    of its (N, M, Q) Tucker model with the pilot tensor as core."""

    def test_mode1_unfolding_formula(self, scene):
        cfg = scene.cfg
        ref = np.einsum("ln,lmq,m,q->qmn", scene.channel, scene.pilots,
                        scene.doppler_vec, scene.delay_vec)
        got = scene.dd_factor.reshape(cfg.Q, cfg.M, cfg.N)
        assert np.linalg.norm(got - ref) < 1e-12 * np.linalg.norm(ref)

    def test_mode2_rows_scale_with_doppler(self, scene):
        # zeroing one Doppler entry must zero the matching mode-2 row
        cfg = scene.cfg
        dop = scene.doppler_vec.copy()
        dop[3] = 0.0
        factor = kronecker(scene.delay_vec, dop)[:, None] * (
            scene.pilot_mat.T @ scene.channel
        )
        rows = factor.reshape(cfg.Q, cfg.M, cfg.N)
        assert np.abs(rows[:, 3, :]).max() == 0.0
        assert np.abs(rows).max() > 0.0

    def test_row_count_check(self, scene):
        with pytest.raises(ValueError, match="M\\*Q = 64"):
            als_stage2(np.zeros((7, 4)), scene.pilots, scene.channel, EXACT)


class TestStage2:
    def test_noiseless_recovery_up_to_scalar(self, scene):
        init = complex_normal(np.random.default_rng(1), scene.channel.shape)
        est = als_stage2(scene.dd_factor, scene.pilots, init, EXACT, seed=11)
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
        stage1 = als_stage1(echo, scene.codebook, AlsSettings(max_iters=30), seed=2)
        est = als_stage2(stage1.dd_factor_hat, scene.pilots, stage1.channel_hat,
                         AlsSettings(max_iters=60), seed=3)
        slack = 1e-12 * est.data_norm_sq
        assert np.all(np.diff(est.error_history) <= slack)

    def test_pilot_shape_check(self, scene):
        with pytest.raises(ValueError):
            als_stage2(scene.dd_factor, scene.pilots[:, :, :-1], scene.channel, EXACT)

    def test_channel_init_shape_check(self, scene):
        # an (L, 1) channel would otherwise broadcast through the scalar LS sums
        cfg = scene.cfg
        for shape in ((cfg.N, cfg.L), (cfg.L, 1)):
            with pytest.raises(ValueError) as info:
                als_stage2(scene.dd_factor, scene.pilots, np.ones(shape, complex), EXACT)
            assert str(shape) in str(info.value) and str((cfg.L, cfg.N)) in str(info.value)

    @pytest.mark.parametrize("L,N,M,Q", [(2, 4, 3, 5), (3, 2, 6, 2)])
    def test_scalar_updates_match_dense_oracle(self, L, N, M, Q):
        # the dense oracle solves the Khatri-Rao systems with an identity block
        gen = np.random.default_rng(M * Q)
        f_tensor, pilots, channel = crandn(gen, N, M, Q), crandn(gen, L, M, Q), crandn(gen, L, N)
        init = np.random.default_rng(5)
        doppler, delay = complex_normal(init, M), complex_normal(init, Q)
        b_dop = unfold(pilots, 2) @ kronecker(np.diag(delay), channel.T).T
        doppler = pseudoinverse(khatri_rao(b_dop.T, np.eye(M))) @ vec(unfold(f_tensor, 2))
        b_del = unfold(pilots, 3) @ kronecker(np.diag(doppler), channel.T).T
        delay = pseudoinverse(khatri_rao(b_del.T, np.eye(Q))) @ vec(unfold(f_tensor, 3))
        # the factor whose rows (q-1)*M + m hold the tensor's entries [:, m, q]
        est = als_stage2(unfold(f_tensor, 1).T, pilots, channel, AlsSettings(max_iters=1), seed=5)
        for got, ref in ((est.doppler_hat, doppler), (est.delay_hat, delay)):
            assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)


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
        stage1 = als_stage1(scene.echo, scene.codebook, EXACT, seed=11)
        stage2 = als_stage2(stage1.dd_factor_hat, scene.pilots, stage1.channel_hat, EXACT, seed=11)
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
        stage1 = als_stage1(scene.echo, scene.codebook, EXACT, seed=11)
        stage2 = als_stage2(stage1.dd_factor_hat, scene.pilots, stage1.channel_hat, EXACT, seed=11)
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
        # the library de-scaling reports it as a failed fit
        stage1.dd_factor_hat = scene.dd_factor.copy()
        stage1.dd_factor_hat[0, 0] = 0.0
        with pytest.raises(DivergenceError, match="degenerate"):
            remove_core_scaling(stage1, scene.channel, scene.pilot_mat)
        stage1.dd_factor_hat = scene.dd_factor
        stage1.channel_hat[:, 0] = 0.0
        with pytest.raises(DivergenceError, match="degenerate"):
            remove_core_scaling(stage1, scene.channel, scene.pilot_mat)
