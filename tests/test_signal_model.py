"""Signal-model tests.  The echo synthesizer is checked against a direct
per-element evaluation of the physical model (the most important oracle in
the suite)."""

import warnings

import numpy as np
import pytest

from ristensor import (
    ScenarioConfig,
    TargetParameters,
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
    relative_errors,
    small_config,
    ula_steering,
    upa_steering,
)
from ristensor.experiment import ANGLE_MARGIN
from ristensor.signal_model import path_gain_magnitude
from ristensor.tensorops import fold, kronecker, mode_product, unfold
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


def echo_oracle(cfg, scene, codebook):
    """Element-by-element synthesis of the two-hop echo, one (q, m, k) at a
    time, straight from the scalar signal equation.  The steering vectors
    come from the scene's angles, not from its channel."""
    target, pilots, alpha = scene.target, scene.pilots, scene.alpha
    a = ula_steering(scene.eta, cfg.L)
    b = upa_steering(scene.mu_a, scene.psi_a, cfg.N_y, cfg.N_z)
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

    def test_frozen_reference_value(self):
        # independent closed-form evaluation with the reference parameters
        assert np.isclose(path_gain_magnitude(ScenarioConfig()), 3.0948647239844635e-13,
                          rtol=1e-12)

    def test_matches_full_radar_equation_bitwise(self):
        # the nine-factor radar equation at the reference scenario's unit
        # power, gains and patterns, 1.07e-2 m carrier, half-wavelength
        # elements and 2 m^2 cross section; the unit factors are exact
        p_t = g1 = g2 = f1sq = f2sq = 1.0
        wavelength, sigma_rcs = 1.07e-2, 2.0
        d_x = d_y = wavelength / 2.0
        for d1 in (0.5, 1.0, 3.7, 10.0, 25.0, 1e3):
            for d2 in (0.25, 2.0, 5.0, 7.3, 40.0):
                num = (p_t * g1**2 * g2**2 * f1sq * f2sq
                       * d_x**2 * d_y**2 * wavelength**2 * sigma_rcs)
                ref = float(np.sqrt(num / ((4.0 * np.pi) ** 5 * d1**4 * d2**4)))
                assert path_gain_magnitude(ScenarioConfig(d1=d1, d2=d2)) == ref, (d1, d2)

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
        # the echo reads the pilots through their mode-1 unfolding
        cfg = small_config()
        x = generate_pilots(cfg, 1)
        mat = unfold(x, 1)
        for q in range(cfg.Q):
            for m in range(cfg.M):
                assert np.array_equal(mat[:, q * cfg.M + m], x[:, m, q])


class TestEchoTensor:
    def test_zero_gain(self, scene):
        y = generate_echo_tensor(
            scene.cfg, scene.target, scene.channel, scene.codebook, scene.pilots, 0.0
        )
        assert not y.any()

    def test_single_block_scalar_oracle(self):
        scene = make_scene(K=16)
        cfg1 = scene.cfg.replace(K=1)
        w1 = scene.codebook[:, :1]
        got = generate_echo_tensor(cfg1, scene.target, scene.channel, w1, scene.pilots,
                                   scene.alpha)
        ref = echo_oracle(cfg1, scene, w1)
        assert np.linalg.norm(got - ref) < 1e-12 * np.linalg.norm(ref)

    def test_full_scalar_loop_oracle(self):
        # acceptance-size oracle: N=4, Q=3, M=3, K=16
        scene = make_scene(Q=3, M=3, K=16)
        got = scene.echo
        ref = echo_oracle(scene.cfg, scene, scene.codebook)
        assert np.linalg.norm(got - ref) < 1e-12 * np.linalg.norm(ref)

    def test_mode_product_assembly_equivalence(self, scene):
        ref = tucker_echo(scene, scene.channel)
        assert np.linalg.norm(scene.echo - ref) < 1e-12 * np.linalg.norm(ref)

    def test_full_rank_channel_matches_tucker_model(self, rng):
        # the block-by-block synthesis does not rely on a rank-1 channel
        scene = make_scene(L=5)
        channel = crandn(rng, scene.cfg.L, scene.cfg.N)
        assert np.linalg.matrix_rank(channel) == scene.cfg.N
        got = generate_echo_tensor(
            scene.cfg, scene.target, channel, scene.codebook, scene.pilots, scene.alpha
        )
        ref = tucker_echo(scene, channel)
        assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)

    @pytest.mark.parametrize("name", ["channel", "codebook", "pilots"])
    def test_misshaped_argument_rejected(self, name):
        # (L, Q, M) pilots with M != Q, or a transposed channel, would
        # otherwise synthesize a wrong echo without complaint
        scene = make_scene(M=8, Q=4)
        args = dict(channel=scene.channel, codebook=scene.codebook, pilots=scene.pilots)
        args[name] = np.swapaxes(args[name], -1, -2)
        with pytest.raises(ValueError, match=f"^{name} must have shape"):
            generate_echo_tensor(scene.cfg, scene.target, alpha=scene.alpha, **args)

    def test_trilinear_in_gain(self, scene):
        y2 = generate_echo_tensor(
            scene.cfg, scene.target, scene.channel, scene.codebook, scene.pilots,
            2.0 * scene.alpha,
        )
        assert np.linalg.norm(y2 - 2.0 * scene.echo) < 1e-12 * np.linalg.norm(scene.echo)

    def test_quadratic_in_channel(self, scene):
        beta = 1.7
        y2 = generate_echo_tensor(
            scene.cfg, scene.target, beta * scene.channel, scene.codebook, scene.pilots,
            scene.alpha,
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
                bad, scene.target, scene.channel, scene.codebook[:, :8], scene.pilots,
                scene.alpha,
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

    # 10^(snr/10) must be a finite positive float: 4000 dB overflows it and
    # -4000 dB rounds it to 0
    @pytest.mark.parametrize("snr_db", [4000.0, -4000.0, float("nan"), float("inf")])
    def test_rejects_snr_outside_float_range(self, scene, snr_db):
        with pytest.raises(ValueError, match="snr_db must give a finite positive"):
            add_noise_at_snr(scene.echo, snr_db, 0)

    @pytest.mark.parametrize("snr_db", [-3233.0, 3082.0])
    def test_snr_range_edges_accepted(self, scene, snr_db):
        assert np.all(np.isfinite(add_noise_at_snr(scene.echo, snr_db, 0)))


class TestTargetParameters:
    FIELDS = ["tau", "nu", "mu_d", "psi_d"]

    def test_angles_invert_the_drawn_direction(self):
        # draw_target's forward map over its whole angle range
        grid = np.linspace(ANGLE_MARGIN, np.pi / 2 - ANGLE_MARGIN, 9)
        for elevation in grid:
            for azimuth in grid:
                target = TargetParameters(
                    tau=0.0, nu=0.0,
                    mu_d=float(np.pi * np.sin(elevation) * np.sin(azimuth)),
                    psi_d=float(np.pi * np.cos(elevation)),
                )
                got_elevation, got_azimuth = target.angles()
                assert abs(got_elevation - elevation) < 1e-12
                assert abs(got_azimuth - azimuth) < 1e-12

    @pytest.mark.parametrize("mu_d,psi_d", [(0.5, 3.2), (0.1, np.pi), (3.0, 1.5),
                                            (0.5, np.nan), (np.nan, 0.5)],
                             ids=["psi_d>pi", "elevation_0", "mu_d>pi_sin_el",
                                  "psi_d_nan", "mu_d_nan"])
    def test_angles_undefined_without_warning(self, mu_d, psi_d):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert TargetParameters(0.0, 0.0, mu_d, psi_d).angles() is None

    def test_relative_errors_wrap_each_period(self):
        cfg = small_config()
        truth = TargetParameters(tau=0.3 / cfg.delta_f, nu=0.2 / cfg.T_s, mu_d=0.5, psi_d=-1.0)
        shifted = TargetParameters(tau=truth.tau + 1.0 / cfg.delta_f, nu=truth.nu - 1.0 / cfg.T_s,
                                   mu_d=truth.mu_d + 2 * np.pi, psi_d=truth.psi_d - 2 * np.pi)
        errors = relative_errors(truth, shifted, cfg)
        assert list(errors) == self.FIELDS and max(errors.values()) < 1e-12

    def test_relative_errors_of_a_zero_truth(self):
        cfg = small_config()
        zero = TargetParameters(tau=0.0, nu=0.0, mu_d=0.0, psi_d=0.0)
        moved = TargetParameters(tau=1e-9, nu=-1.0, mu_d=0.1, psi_d=-0.1)
        assert relative_errors(zero, zero, cfg) == dict.fromkeys(self.FIELDS, 0.0)
        assert relative_errors(zero, moved, cfg) == dict.fromkeys(self.FIELDS, np.inf)


class TestConfig:
    def test_table_defaults(self):
        cfg = ScenarioConfig()
        assert (cfg.N_y, cfg.N_z, cfg.Q, cfg.M) == (4, 4, 16, 64)
        assert cfg.delta_f == 120e3 and cfg.T_s == 1 / 120e3
        assert (cfg.d1, cfg.d2) == (10.0, 5.0)
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

    @pytest.mark.parametrize("name", ["delta_f", "d1", "d2"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_float_rejected_by_name(self, name, bad):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            ScenarioConfig(**{name: bad})

    @pytest.mark.parametrize("name,bad", [("M", 8.5), ("K", 16.0), ("L", np.float64(2.0)),
                                          ("Q", "8"), ("N_y", 0), ("N_z", -2), ("L", True)])
    def test_non_integer_count_rejected_by_name(self, name, bad):
        # a float count used to pass here and fail every trial inside numpy
        with pytest.raises(ValueError, match=f"^{name} must be an integer >= 1"):
            small_config(**{name: bad})

    def test_numpy_integer_count_accepted(self):
        assert small_config(K=np.int64(25)).K == 25

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

    def test_removed_keys_and_aliases_rejected(self, tmp_path):
        # the fields that only scaled the path gain, and the symbol spellings
        # that once stood for config keys, are no config keys
        from ristensor.config import load_config, parse_overrides

        path = tmp_path / "scenario.cfg"
        for key in ("wavelength", "d_x", "d_y", "P_t", "G1", "G2", "F1sq", "F2sq",
                    "sigma_rcs", "Δf", "λ", "σ_RCS"):
            with pytest.raises(TypeError):
                ScenarioConfig(**{key: 1.0})
            with pytest.raises(ValueError, match=f"^unknown config key '{key}'$"):
                parse_overrides([f"{key}=1"])
            path.write_text(f"Q = 8\n{key} = 1\n", encoding="utf-8")
            with pytest.raises(ValueError,
                               match=f"scenario\\.cfg:2: unknown config key '{key}'$"):
                load_config(str(path))

    def test_colon_line_rejected(self, tmp_path):
        # one line form: 'key = value'
        path = tmp_path / "scenario.cfg"
        path.write_text("Q: 8\n")
        from ristensor.config import load_config

        with pytest.raises(ValueError, match=r"scenario\.cfg:1: expected 'key=value', got 'Q: 8'"):
            load_config(str(path))

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "scenario.cfg"
        path.write_text("bogus = 3\n")
        from ristensor.config import load_config

        with pytest.raises(ValueError, match=r"scenario\.cfg:1: unknown config key 'bogus'"):
            load_config(str(path))

    @pytest.mark.parametrize("name,value,dims", [
        ("N", 12, (3, 4)), ("N", 16, (4, 4)), ("N", 7, (1, 7)), ("N", 8.0, (2, 4)),
        ("Q", 32, None), ("K", 5, None),
    ])
    def test_vary_sets_one_count(self, name, value, dims):
        from ristensor.config import vary

        cfg = vary(small_config(), name, value)
        if name == "N":
            assert (cfg.N_y, cfg.N_z, cfg.N) == (*dims, value)
        else:
            assert getattr(cfg, name) == value
            assert cfg.replace(**{name: getattr(small_config(), name)}) == small_config()

    @pytest.mark.parametrize("name,value,match", [
        ("N", 0, "got N=0"), ("Q", 8.5, "got Q=8.5"), ("K", float("nan"), "integers"),
        ("M", float("inf"), "integers"), ("N_y", 2, "grid variable"), ("N", True, "got N=True"),
    ])
    def test_vary_rejects_bad_points(self, name, value, match):
        from ristensor.config import vary

        with pytest.raises(ValueError, match=match):
            vary(small_config(), name, value)

    def test_override_unknown_key_rejected(self):
        from ristensor.config import parse_overrides

        with pytest.raises(ValueError, match="unknown"):
            parse_overrides(["nope=1"])
