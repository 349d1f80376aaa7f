import numpy as np
import pytest

from ristensor import (
    ScenarioConfig,
    TargetParameters,
    build_bs_ris_channel,
    build_random_codebook,
    default_delay,
    delay_steering,
    doppler_steering,
    generate_echo_tensor,
    generate_pilots,
    small_config,
    upa_steering,
)
from ristensor.tensorops import unfold


def crandn(rng, *shape):
    """Unit-variance circular complex Gaussian array."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


class Scene:
    """A fully-specified noiseless scenario with every model component exposed.

    The BS-RIS geometry (``eta``, ``mu_a``, ``psi_a``) belongs to the scene,
    not to the target: it builds the known channel ``H``.
    """

    def __init__(self, cfg: ScenarioConfig, target: TargetParameters, seed: int = 5,
                 eta: float = 0.7, mu_a: float = 0.5, psi_a: float = 1.1):
        gen = np.random.default_rng(seed)
        self.cfg = cfg
        self.target = target
        self.eta, self.mu_a, self.psi_a = eta, mu_a, psi_a
        self.codebook = build_random_codebook(cfg.N, cfg.K, gen)
        self.pilots = generate_pilots(cfg, gen)
        self.pilot_mat = unfold(self.pilots, 1)
        self.alpha = 2.4e-13 * np.exp(1j * 1.1)
        self.channel = build_bs_ris_channel(eta, mu_a, psi_a, cfg)
        self.steering = upa_steering(target.mu_d, target.psi_d, cfg.N_y, cfg.N_z)
        self.delay_vec = delay_steering(target.tau, cfg.Q, cfg.delta_f)
        self.doppler_vec = doppler_steering(target.nu, cfg.M, cfg.T_s)
        self.dd_factor = (
            np.kron(self.delay_vec, self.doppler_vec)[:, None]
            * (self.pilot_mat.T @ self.channel)
        )
        self.core = self.alpha * np.kron(self.steering, self.steering)
        self.echo = generate_echo_tensor(
            cfg, target, self.channel, self.codebook, self.pilots, self.alpha
        )


def make_scene(seed: int = 5, **cfg_overrides) -> Scene:
    cfg = small_config(**cfg_overrides)
    target = TargetParameters(
        tau=default_delay(cfg),
        nu=0.21 / cfg.T_s,
        mu_d=0.9,
        psi_d=-1.3,
    )
    return Scene(cfg, target, seed=seed)


@pytest.fixture
def scene():
    return make_scene()
