"""Shift-invariance extraction tests: exactness sweeps, gauge invariance,
and the parameter back-mapping."""

import numpy as np
import pytest

from ristensor import (
    AlsSettings,
    als_stage1,
    als_stage2,
    extract_parameters,
    remove_core_scaling,
    small_config,
    ula_steering,
    upa_steering,
)
from ristensor.esprit import esprit_1d, esprit_2d
from ristensor.signal_model import TargetParameters, relative_errors
from conftest import make_scene


def wrapped(a, b):
    return abs((a - b + np.pi) % (2 * np.pi) - np.pi)


class TestEsprit1d:
    def test_quarter_cycle(self):
        assert abs(esprit_1d(np.array([1, -1j, -1, 1j])) - (-np.pi / 2)) < 1e-12

    def test_dc(self):
        assert abs(esprit_1d(np.ones(5))) < 1e-12

    def test_random_scaled_exponentials(self, rng):
        for _ in range(100):
            scale = (rng.standard_normal() + 1j * rng.standard_normal()) or 1.0
            omega = rng.uniform(-np.pi, np.pi)
            x = scale * np.exp(1j * omega * np.arange(16))
            assert wrapped(esprit_1d(x), omega) < 1e-10

    def test_grid_and_lengths_exactness(self):
        freqs = np.linspace(-np.pi, np.pi, 66)[1:-1]
        for length in (2, 4, 8, 16, 64):
            for omega in freqs:
                x = np.exp(1j * omega * np.arange(length))
                assert wrapped(esprit_1d(x), omega) < 1e-10

    def test_scale_gauge(self, rng):
        for _ in range(20):
            x = np.exp(1j * rng.uniform(-np.pi, np.pi) * np.arange(12))
            lam = (rng.standard_normal() + 1j * rng.standard_normal()) or 1.0
            assert abs(esprit_1d(lam * x) - esprit_1d(x)) < 1e-12

    def test_conjugation_negates(self, rng):
        for _ in range(10):
            omega = rng.uniform(-np.pi, np.pi)
            x = np.exp(1j * omega * np.arange(9))
            assert abs(esprit_1d(np.conj(x)) + esprit_1d(x)) < 1e-12

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            esprit_1d(np.zeros(8, dtype=complex))
        # zero power terms, then zero cross terms
        for x in ([0.0, 1j], [0.0, 0.0, 1.0], [1.0, 0.0], [1.0, 0.0, 0.0]):
            with pytest.raises(ValueError, match="degenerate"):
                esprit_1d(np.array(x, dtype=complex))

    def test_short_vector_rejected(self):
        with pytest.raises(ValueError, match="2"):
            esprit_1d(np.array([1j]))


class TestEsprit2d:
    def test_dc_pair(self):
        p = upa_steering(0.0, 0.0, 4, 4)
        mu, psi = esprit_2d(np.kron(p, p), 4, 4)
        assert abs(mu) < 1e-12 and abs(psi) < 1e-12

    def test_random_pairs_4x4(self, rng):
        for _ in range(50):
            mu0, psi0 = rng.uniform(-np.pi, np.pi, size=2)
            p = upa_steering(mu0, psi0, 4, 4)
            mu, psi = esprit_2d(np.kron(p, p), 4, 4)
            assert wrapped(mu, mu0) < 1e-10 and wrapped(psi, psi0) < 1e-10

    def test_random_pairs_2x2(self, rng):
        # the acceptance geometry: axis profiles of length 2
        for _ in range(50):
            mu0, psi0 = rng.uniform(-np.pi, np.pi, size=2)
            p = upa_steering(mu0, psi0, 2, 2)
            mu, psi = esprit_2d(np.kron(p, p), 2, 2)
            assert wrapped(mu, mu0) < 1e-10 and wrapped(psi, psi0) < 1e-10

    def test_rectangular_grid(self, rng):
        mu0, psi0 = 1.1, -0.4
        p = upa_steering(mu0, psi0, 2, 5)
        mu, psi = esprit_2d(np.kron(p, p), 2, 5)
        assert wrapped(mu, mu0) < 1e-10 and wrapped(psi, psi0) < 1e-10

    def test_complex_scaling_invariance(self, rng):
        p = upa_steering(0.9, -2.2, 4, 4)
        v = np.kron(p, p)
        lam = 3.7 * np.exp(1j * 1.9)
        base = esprit_2d(v, 4, 4)
        moved = esprit_2d(lam * v, 4, 4)
        assert abs(moved[0] - base[0]) < 1e-12 and abs(moved[1] - base[1]) < 1e-12

    def test_consistency_with_1d(self):
        mu0, psi0 = 2 * np.pi / 6, 2 * np.pi / 10
        p = upa_steering(mu0, psi0, 4, 4)
        mu, psi = esprit_2d(np.kron(p, p), 4, 4)
        mu_1d = -esprit_1d(ula_steering(mu0, 4))
        psi_1d = -esprit_1d(ula_steering(psi0, 4))
        assert wrapped(mu, mu_1d) < 1e-10 and wrapped(psi, psi_1d) < 1e-10

    def test_singleton_axis_unidentifiable(self):
        p = upa_steering(0.0, 0.8, 1, 4)
        mu, psi = esprit_2d(np.kron(p, p), 1, 4)
        assert np.isnan(mu) and wrapped(psi, 0.8) < 1e-10
        p = upa_steering(0.8, 0.0, 4, 1)
        mu, psi = esprit_2d(np.kron(p, p), 4, 1)
        assert wrapped(mu, 0.8) < 1e-10 and np.isnan(psi)

    def test_length_check(self):
        with pytest.raises(ValueError):
            esprit_2d(np.ones(10), 2, 2)


class TestExtractParameters:
    def pipeline(self, scene, settings=None):
        settings = settings or AlsSettings(max_iters=400, tol=1e-24)
        stage1 = als_stage1(scene.echo, scene.codebook, settings, seed=9)
        stage2 = als_stage2(
            stage1.dd_factor_hat, scene.pilots, stage1.channel_hat, settings
        )
        core = remove_core_scaling(stage1, stage2, scene.channel)
        return extract_parameters(stage2.doppler_hat, stage2.delay_hat, core, scene.cfg)

    def test_noiseless_end_to_end(self):
        scene = make_scene()
        est = self.pipeline(scene)
        assert max(relative_errors(scene.target, est, scene.cfg).values()) < 1e-6
        assert est.angles() is not None

    def test_dc_truth_gives_zero_estimates(self):
        cfg = small_config()
        p = upa_steering(0.0, 0.0, cfg.N_y, cfg.N_z)
        est = extract_parameters(
            np.ones(cfg.M), np.ones(cfg.Q), np.kron(p, p), cfg
        )
        assert est.tau == 0.0 and est.nu == 0.0
        assert est.mu_d == 0.0 and est.psi_d == 0.0

    def test_elevation_boundary(self):
        # psi = 0 maps to a 90-degree elevation, azimuth = arcsin(mu/pi)
        cfg = small_config()
        mu0 = 0.77
        p = upa_steering(mu0, 0.0, cfg.N_y, cfg.N_z)
        d = np.exp(1j * 0.3 * np.arange(cfg.M))
        c = np.exp(-1j * 0.2 * np.arange(cfg.Q))
        elevation, azimuth = extract_parameters(d, c, np.kron(p, p), cfg).angles()
        assert abs(elevation - np.pi / 2) < 1e-10
        assert abs(azimuth - np.arcsin(mu0 / np.pi)) < 1e-10

    def test_angle_mapping_flag_when_undefined(self):
        # |psi| > pi is not reachable by a physical elevation: no angles
        cfg = small_config()
        psi_alias = 2.8
        mu0 = 3.1  # |mu| > pi*sin(elev) for the recovered elevation
        p = upa_steering(mu0, psi_alias, cfg.N_y, cfg.N_z)
        d = np.exp(1j * 0.3 * np.arange(cfg.M))
        c = np.exp(-1j * 0.2 * np.arange(cfg.Q))
        est = extract_parameters(d, c, np.kron(p, p), cfg)
        assert est.angles() is None

    def test_delay_folding(self):
        cfg = small_config()
        tau0 = 0.87 / cfg.delta_f  # deep into the unambiguous range
        c = np.exp(-2j * np.pi * cfg.delta_f * tau0 * np.arange(cfg.Q))
        p = upa_steering(0.4, 0.5, cfg.N_y, cfg.N_z)
        est = extract_parameters(np.ones(cfg.M), c, np.kron(p, p), cfg)
        assert 0.0 <= est.tau < 1.0 / cfg.delta_f
        assert abs(est.tau - tau0) < 1e-12 / cfg.delta_f

    def test_doppler_principal_range(self):
        cfg = small_config()
        nu0 = -0.4 / cfg.T_s
        d = np.exp(2j * np.pi * cfg.T_s * nu0 * np.arange(cfg.M))
        p = upa_steering(0.4, 0.5, cfg.N_y, cfg.N_z)
        est = extract_parameters(d, np.ones(cfg.Q), np.kron(p, p), cfg)
        assert abs(est.nu - nu0) < 1e-9
        assert -0.5 / cfg.T_s < est.nu <= 0.5 / cfg.T_s

    def test_wrapped_relative_error(self):
        # a truth next to the principal-range boundary must not register an
        # O(1) error for an estimate just across it
        cfg = small_config()
        truth = TargetParameters(tau=1e-7, nu=1000.0, mu_d=0.5, psi_d=np.pi - 0.01)
        p = upa_steering(truth.mu_d, -np.pi + 0.01, cfg.N_y, cfg.N_z)
        d = np.exp(2j * np.pi * cfg.T_s * truth.nu * np.arange(cfg.M))
        c = np.exp(-2j * np.pi * cfg.delta_f * truth.tau * np.arange(cfg.Q))
        est = extract_parameters(d, c, np.kron(p, p), cfg)
        assert relative_errors(truth, est, cfg)["psi_d"] < 0.02 / (np.pi - 0.01) + 1e-9
