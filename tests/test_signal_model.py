"""Signal-model tests.  The echo synthesizer is checked against a direct
per-element evaluation of the physical model (the most important oracle in
the suite)."""

import warnings

import numpy as np
import pytest

from ristensor import (
    ScenarioConfig,
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
    pilot_matrix,
    small_config,
    ula_steering,
    upa_steering,
)
from ristensor.signal_model import echo_from_components, path_gain_magnitude
from ristensor.tensorops import fold, kronecker, mode_product
from conftest import crandn, make_scene


def tucker_echo(scene, channel):
    """The echo as the Tucker-3 model: the diagonal (N, N, N^2) core times
    ``H``, ``F = D(c kron d) X^T H`` and ``(W kr W)^T`` along modes 1-3."""
    n = scene.cfg.N
    dd_factor = kronecker(scene.delay_vec, scene.doppler_vec)[:, None] * (
        scene.pilot_mat.T @ channel
    )
    core = fold(np.diag(scene.core), 3, (n, n, n * n))
    wkr_t = khatri_rao(scene.codebook, scene.codebook).T
    return mode_product(mode_product(mode_product(core, channel, 1), dd_factor, 2), wkr_t, 3)


def echo_oracle(cfg, target, codebook, pilots, alpha):
    """Element-by-element synthesis of the two-hop echo, one (q, m, k) at a
    time, straight from the scalar signal equation."""
    a = ula_steering(target.eta, cfg.L)
    b = upa_steering(target.mu_a, target.psi_a, cfg.N_y, cfg.N_z)
    p = upa_steering(target.mu_d, target.psi_d, cfg.N_y, cfg.N_z)
    c = delay_steering(target.tau, cfg.Q, cfg.delta_f)
    d = doppler_steering(target.nu, cfg.M, cfg.T_s)
    out = np.zeros((cfg.L, cfg.M * cfg.Q, cfg.K), dtype=complex)
    for k in range(cfg.K):
        w = codebook[:, k]
        ris_gain = np.sum(b * w * p)  # b^T D(w) p, also equals p^T D(w) b
        for q in range(cfg.Q):
            for m in range(cfg.M):
                x = pilots[:, m, q]
                excite = np.sum(a * x)  # a^T x
                out[:, q * cfg.M + m, k] = (
                    alpha * a * ris_gain * ris_gain * excite * c[q] * d[m]
                )
    return out


class TestSteeringVectors:
    def test_ula_zero_frequency(self):
        assert np.allclose(ula_steering(0.0, 4), np.ones(4), atol=1e-15)

    def test_ula_pi(self):
        assert np.allclose(ula_steering(np.pi, 2), [1.0, -1.0], atol=1e-12)

    def test_ula_half_pi(self):
        assert np.allclose(ula_steering(np.pi / 2, 3), [1.0, -1j, -1.0], atol=1e-12)

    def test_upa_zero(self):
        assert np.allclose(upa_steering(0.0, 0.0, 3, 2), np.ones(6), atol=1e-15)

    def test_upa_direct_expansion(self):
        got = upa_steering(np.pi, np.pi / 2, 2, 2)
        assert np.allclose(got, [1.0, -1j, -1.0, 1j], atol=1e-12)

    def test_upa_kron_factorization(self, rng):
        for _ in range(10):
            mu, psi = rng.uniform(-np.pi, np.pi, size=2)
            got = upa_steering(mu, psi, 3, 4)
            ref = kronecker(ula_steering(mu, 3), ula_steering(psi, 4))
            assert np.array_equal(got, ref)

    def test_delay_zero(self):
        assert np.allclose(delay_steering(0.0, 5, 120e3), np.ones(5), atol=1e-15)

    def test_delay_quarter_cycle(self):
        df = 120e3
        got = delay_steering(1.0 / (4 * df), 2, df)
        assert np.allclose(got, [1.0, -1j], atol=1e-12)

    def test_delay_table_geometry(self):
        # 15 m round trip at 3e8 m/s -> 100 ns; phase increment 2*pi*df*tau
        cfg = ScenarioConfig()
        tau = default_delay(cfg)
        assert abs(tau - 1e-7) < 1e-22
        got = delay_steering(tau, cfg.Q, cfg.delta_f)
        inc = -2 * np.pi * cfg.delta_f * tau
        ref = np.exp(1j * inc * np.arange(cfg.Q))
        assert np.allclose(got, ref, atol=1e-13)

    def test_doppler_zero(self):
        assert np.allclose(doppler_steering(0.0, 4, 1e-5), np.ones(4), atol=1e-15)

    def test_doppler_quarter_cycle(self):
        ts = 1.0 / 120e3
        got = doppler_steering(120e3 / 4, 2, ts)
        assert np.allclose(got, [1.0, 1j], atol=1e-12)

    def test_doppler_sign_convention(self, rng):
        # conjugated Doppler vector equals a delay-type vector with the
        # matching phase product
        nu = rng.uniform(-4e4, 4e4)
        ts = 1.0 / 120e3
        got = np.conj(doppler_steering(nu, 6, ts))
        ref = delay_steering(nu * ts, 6, 1.0)
        assert np.allclose(got, ref, atol=1e-12)

    def test_vandermonde_ratio_property(self, rng):
        vecs = [
            ula_steering(rng.uniform(-3, 3), 6),
            delay_steering(rng.uniform(0, 8e-6), 7, 120e3),
            doppler_steering(rng.uniform(-5e4, 5e4), 8, 1 / 120e3),
        ]
        for v in vecs:
            ratios = v[1:] / v[:-1]
            assert np.allclose(ratios, ratios[0], atol=1e-12)


class TestPathGain:
    def test_doubling_d1_quarters_magnitude(self):
        cfg = small_config()
        assert np.isclose(
            path_gain_magnitude(cfg.replace(d1=2 * cfg.d1)),
            path_gain_magnitude(cfg) / 4.0,
            rtol=1e-12,
        )

    def test_quadrupling_power_doubles_magnitude(self):
        cfg = small_config()
        assert np.isclose(
            path_gain_magnitude(cfg.replace(P_t=4 * cfg.P_t)),
            2.0 * path_gain_magnitude(cfg),
            rtol=1e-12,
        )

    def test_frozen_reference_value(self):
        # independent closed-form evaluation with the reference parameters
        cfg = ScenarioConfig(wavelength=1.07e-2, sigma_rcs=2.0, d1=10.0, d2=5.0)
        assert np.isclose(path_gain_magnitude(cfg), 3.0948647239844635e-13, rtol=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            small_config(d1=-1.0)


class TestCodebooks:
    def test_dft_single_element(self):
        assert np.allclose(build_dft_codebook(1, 5), np.ones((1, 5)), atol=1e-15)

    def test_dft_two_point(self):
        assert np.allclose(build_dft_codebook(2, 2), [[1, 1], [1, -1]], atol=1e-12)

    def test_dft_truncated_16(self):
        w = build_dft_codebook(4, 16)
        n, k = np.arange(4)[:, None], np.arange(16)[None, :]
        ref = np.exp(-2j * np.pi * n * k / 16)
        assert np.allclose(w, ref, atol=1e-13)
        # all columns distinct
        for i in range(16):
            for j in range(i + 1, 16):
                assert np.linalg.norm(w[:, i] - w[:, j]) > 1e-6

    def test_unit_modulus(self, rng):
        for w in (build_dft_codebook(4, 16), build_random_codebook(4, 16, rng)):
            assert np.allclose(np.abs(w), 1.0, atol=1e-12)

    def test_random_codebook_deterministic(self):
        w1 = build_random_codebook(3, 9, np.random.default_rng(4))
        w2 = build_random_codebook(3, 9, np.random.default_rng(4))
        assert np.array_equal(w1, w2)

    def test_self_khatri_rao_ranks(self, rng):
        # generic phases reach the symmetric-subspace cap N(N+1)/2;
        # any Vandermonde design is stuck at 2N-1
        n, k = 4, 20
        wr = build_random_codebook(n, k, rng)
        wd = build_dft_codebook(n, k)
        assert np.linalg.matrix_rank(khatri_rao(wr, wr)) == n * (n + 1) // 2
        assert np.linalg.matrix_rank(khatri_rao(wd, wd)) == 2 * n - 1


class TestChannel:
    def test_all_zero_frequencies(self):
        cfg = small_config()
        h = build_bs_ris_channel(0.0, 0.0, 0.0, cfg)
        assert np.allclose(h, np.ones((cfg.L, cfg.N)), atol=1e-15)

    def test_rank_one(self, rng):
        cfg = small_config(L=4)
        h = build_bs_ris_channel(0.7, -0.3, 1.9, cfg)
        s = np.linalg.svd(h, compute_uv=False)
        assert s[1] < 1e-12 * s[0]

    def test_outer_product_oracle(self, rng):
        cfg = small_config(L=3)
        eta, mu, psi = rng.uniform(-3, 3, size=3)
        h = build_bs_ris_channel(eta, mu, psi, cfg)
        a = ula_steering(eta, cfg.L)
        b = upa_steering(mu, psi, cfg.N_y, cfg.N_z)
        for l in range(cfg.L):
            for n in range(cfg.N):
                assert abs(h[l, n] - a[l] * b[n]) < 1e-14


class TestPilots:
    def test_deterministic(self):
        cfg = small_config()
        assert np.array_equal(generate_pilots(cfg, 3), generate_pilots(cfg, 3))

    def test_unit_variance(self):
        cfg = small_config(L=8, M=40, Q=32)
        x = generate_pilots(cfg, 0)
        assert x.size >= 10_000
        assert abs(np.mean(np.abs(x) ** 2) - 1.0) < 0.05

    def test_matrix_column_contract(self):
        cfg = small_config()
        x = generate_pilots(cfg, 1)
        mat = pilot_matrix(x)
        for q in range(cfg.Q):
            for m in range(cfg.M):
                assert np.array_equal(mat[:, q * cfg.M + m], x[:, m, q])


class TestEchoTensor:
    def test_zero_gain(self, scene):
        y = generate_echo_tensor(scene.cfg, scene.target, scene.codebook, scene.pilots, 0.0)
        assert not y.any()

    def test_single_block_scalar_oracle(self):
        scene = make_scene(K=16)
        cfg1 = scene.cfg.replace(K=1)
        w1 = scene.codebook[:, :1]
        got = generate_echo_tensor(cfg1, scene.target, w1, scene.pilots, scene.alpha)
        ref = echo_oracle(cfg1, scene.target, w1, scene.pilots, scene.alpha)
        assert np.linalg.norm(got - ref) < 1e-12 * np.linalg.norm(ref)

    def test_full_scalar_loop_oracle(self):
        # acceptance-size oracle: N=4, Q=3, M=3, K=16
        scene = make_scene(Q=3, M=3, K=16)
        got = scene.echo
        ref = echo_oracle(scene.cfg, scene.target, scene.codebook, scene.pilots, scene.alpha)
        assert np.linalg.norm(got - ref) < 1e-12 * np.linalg.norm(ref)

    def test_mode_product_assembly_equivalence(self, scene):
        ref = tucker_echo(scene, scene.channel)
        assert np.linalg.norm(scene.echo - ref) < 1e-12 * np.linalg.norm(ref)

    def test_full_rank_channel_matches_tucker_model(self, rng):
        # the block-by-block synthesis does not rely on a rank-1 channel
        scene = make_scene(L=5)
        channel = crandn(rng, scene.cfg.L, scene.cfg.N)
        assert np.linalg.matrix_rank(channel) == scene.cfg.N
        got = echo_from_components(
            channel, scene.steering, scene.delay_vec, scene.doppler_vec,
            scene.pilot_mat, scene.codebook, scene.alpha,
        )
        ref = tucker_echo(scene, channel)
        assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_trilinear_in_gain(self, scene):
        y2 = generate_echo_tensor(
            scene.cfg, scene.target, scene.codebook, scene.pilots, 2.0 * scene.alpha
        )
        assert np.linalg.norm(y2 - 2.0 * scene.echo) < 1e-12 * np.linalg.norm(scene.echo)

    def test_quadratic_in_channel(self, scene):
        beta = 1.7
        y2 = echo_from_components(
            beta * scene.channel, scene.steering, scene.delay_vec, scene.doppler_vec,
            scene.pilot_mat, scene.codebook, scene.alpha,
        )
        assert np.linalg.norm(y2 - beta**2 * scene.echo) < 1e-12 * np.linalg.norm(scene.echo)

    def test_single_block_reciprocity(self, scene):
        # the two-hop propagation matrix is symmetric for every block
        for k in (0, 3):
            w = scene.codebook[:, k]
            g = scene.channel @ np.diag(w) @ np.outer(scene.steering, scene.steering) \
                @ np.diag(w) @ scene.channel.T
            assert np.linalg.norm(g - g.T) < 1e-12 * np.linalg.norm(g)

    def test_under_identified_synthesis_without_warning(self):
        # synthesis has no identifiability bound; the estimator checks its own
        scene = make_scene()
        bad = scene.cfg.replace(K=8)  # K < N^2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            y = generate_echo_tensor(
                bad, scene.target, scene.codebook[:, :8], scene.pilots, scene.alpha
            )
        assert y.shape == (bad.L, bad.M * bad.Q, 8)


class TestNoise:
    def test_extreme_snr_is_negligible(self, scene):
        echo = add_noise_at_snr(scene.echo, 300.0, 0)
        rel = np.linalg.norm(echo - scene.echo) / np.linalg.norm(scene.echo)
        assert rel < 1e-14

    def test_realized_ratio_exact(self, scene):
        echo = add_noise_at_snr(scene.echo, 10.0, 0)
        num = np.linalg.norm(scene.echo) ** 2
        den = np.linalg.norm(echo - scene.echo) ** 2
        assert abs(num / den - 10.0) < 1e-9 * 10.0

    def test_seeds_differ_norm_matches(self, scene):
        e1 = add_noise_at_snr(scene.echo, 5.0, 1)
        e2 = add_noise_at_snr(scene.echo, 5.0, 2)
        z1 = e1 - scene.echo
        z2 = e2 - scene.echo
        assert np.linalg.norm(z1 - z2) > 1e-3 * np.linalg.norm(z1)
        assert np.isclose(np.linalg.norm(z1), np.linalg.norm(z2), rtol=1e-12)

    def test_rejects_zero_signal(self):
        with pytest.raises(ValueError):
            add_noise_at_snr(np.zeros((2, 3, 4)), 10.0, 0)


class TestConfig:
    def test_table_defaults(self):
        cfg = ScenarioConfig()
        assert (cfg.N_y, cfg.N_z, cfg.Q, cfg.M) == (4, 4, 16, 64)
        assert cfg.wavelength == 1.07e-2
        assert cfg.d_x == cfg.d_y == cfg.wavelength / 2
        assert cfg.delta_f == 120e3 and cfg.T_s == 1 / 120e3
        assert (cfg.d1, cfg.d2, cfg.sigma_rcs) == (10.0, 5.0, 2.0)
        assert cfg.K >= cfg.N**2 and cfg.M * cfg.Q >= cfg.L

    def test_ts_consistency_enforced(self, tmp_path):
        # T_s is derived from delta_f, so it cannot be set anywhere
        from ristensor.config import load_config, parse_overrides

        with pytest.raises(TypeError):
            ScenarioConfig(T_s=1.0)
        with pytest.raises(ValueError, match="unknown config key 'T_s'"):
            parse_overrides(["T_s=1e-5"])
        path = tmp_path / "scenario.cfg"
        path.write_text("T_s = 1e-5\n")
        with pytest.raises(ValueError, match=r"scenario\.cfg:1: unknown config key 'T_s'"):
            load_config(str(path))

    @pytest.mark.parametrize("name", ["delta_f", "wavelength", "d1", "d2", "P_t", "G1", "G2",
                                      "F1sq", "F2sq", "d_x", "d_y", "sigma_rcs"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_float_rejected_by_name(self, name, bad):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            ScenarioConfig(**{name: bad})

    def test_replace_delta_f_rederives_ts(self):
        cfg = ScenarioConfig().replace(delta_f=240e3)
        assert cfg.T_s == 1 / 240e3

    def test_config_file_roundtrip(self, tmp_path):
        path = tmp_path / "scenario.cfg"
        path.write_text(
            "# desk scenario\nL = 2\nN_y = 2\nN_z = 2\nQ = 8\nM = 8\nK = 16\n"
            "delta_f = 240e3\n"
        )
        from ristensor.config import load_config

        cfg = load_config(str(path))
        assert cfg.Q == 8 and cfg.delta_f == 240e3
        assert cfg.T_s == 1 / 240e3

    def test_config_file_unicode_aliases(self, tmp_path):
        path = tmp_path / "scenario.cfg"
        path.write_text("Δf = 60e3\nλ = 2.14e-2\n", encoding="utf-8")
        from ristensor.config import load_config

        cfg = load_config(str(path))
        assert cfg.delta_f == 60e3 and cfg.wavelength == 2.14e-2

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "scenario.cfg"
        path.write_text("bogus = 3\n")
        from ristensor.config import load_config

        with pytest.raises(ValueError, match=r"scenario\.cfg:1: unknown config key 'bogus'"):
            load_config(str(path))

    def test_override_unknown_key_rejected(self):
        from ristensor.config import parse_overrides

        with pytest.raises(ValueError, match="unknown"):
            parse_overrides(["nope=1"])
