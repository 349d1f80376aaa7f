"""Metamorphic tests: ``run_trial`` on an echo and on a transformed copy of it.

Four transformations leave the estimation problem unchanged:

* permuting the RIS blocks, ``echo[:, :, perm]`` with ``codebook[:, perm]``:
  stage 1 reads the blocks only through the span they probe;
* scaling the echo by a complex constant: every least-squares update is
  linear in the data, the stopping rule is relative to ``||Y||^2``, and the
  angles, delay and Doppler are read off phase steps that a common factor
  does not move;
* a unit-modulus phase per block, ``w_k -> e^{i phi_k} w_k`` with echo
  block ``k`` scaled by ``e^{2i phi_k}``: block ``k`` is quadratic in
  ``w_k`` (``Y_k = H D(w_k) G D(w_k) F^T``), so the pair is the same model;
* the pilots times a unit-modulus constant ``c`` and the echo times ``c``:
  the echo is linear in the pilots through the delay/Doppler factor.

A correct pipeline therefore reproduces the iteration counts exactly and
the relative parameter errors up to rounding, at any SNR and with nothing
recorded.  The transformed arrays are fed to the stage they belong to
(the echo and codebook to stage 1, the pilots to stage 2); every other step
of the trial runs as it is.
"""

import numpy as np
import pytest

import ristensor.experiment as exp
from ristensor import AlsSettings, run_trial, small_config

SCENARIOS = {
    "small": small_config(),
    "q32": small_config(Q=32),
    "ris9": small_config(N_y=3, N_z=3, K=81),
}
ALS = AlsSettings(max_iters=30)
#: 288 transformed trials (8 seeds per cell, all four relations) kept every
#: iteration count and moved the relative errors by at most 8.4e-13
BOUND = 1e-11


def feed(monkeypatch, stage, transform):
    """Pass the first two arguments of ``experiment.<stage>`` through
    ``transform``: (echo, codebook) for stage 1, (factor, pilots) for stage 2."""
    original = getattr(exp, stage)
    monkeypatch.setattr(exp, stage, lambda first, second, *args, **kwargs:
                        original(*transform(first, second), *args, **kwargs))


def permute_blocks(monkeypatch):
    def move(echo, codebook):
        perm = np.random.default_rng(1).permutation(echo.shape[2])
        return echo[:, :, perm], codebook[:, perm]
    feed(monkeypatch, "als_stage1", move)


def scale_echo(monkeypatch):
    feed(monkeypatch, "als_stage1",
         lambda echo, codebook: ((3.7 * np.exp(0.9j)) * echo, codebook))


def phase_blocks(monkeypatch):
    def move(echo, codebook):
        phase = np.exp(2j * np.pi * np.random.default_rng(2).random(echo.shape[2]))
        return echo * phase**2, codebook * phase
    feed(monkeypatch, "als_stage1", move)


def rotate_pilots(monkeypatch):
    c = np.exp(0.7j)
    feed(monkeypatch, "als_stage1", lambda echo, codebook: (c * echo, codebook))
    feed(monkeypatch, "als_stage2", lambda factor, pilots: (factor, c * pilots))


def trial(cfg, snr_db, seed, monkeypatch, relation=None):
    if relation is not None:
        relation(monkeypatch)
    estimate, diag = run_trial(cfg, ALS, snr_db, seed)
    monkeypatch.undo()
    return estimate, diag


def check_invariant(cfg, snr_db, relations, monkeypatch):
    base, base_diag = trial(cfg, snr_db, 7000, monkeypatch)
    for relation in relations:
        moved, diag = trial(cfg, snr_db, 7000, monkeypatch, relation)
        assert (diag["stage1_iters"], diag["stage2_iters"]) == \
            (base_diag["stage1_iters"], base_diag["stage2_iters"]), relation.__name__
        for key, value in base.rel_errors.items():
            assert abs(moved.rel_errors[key] - value) <= BOUND, (relation.__name__, key)


@pytest.mark.parametrize("snr_db", [0.0, 20.0, 40.0])
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_invariant_under_block_permutation_and_scaling(name, snr_db, monkeypatch):
    check_invariant(SCENARIOS[name], snr_db, (permute_blocks, scale_echo), monkeypatch)


@pytest.mark.parametrize("snr_db", [0.0, 20.0, 40.0])
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_invariant_under_block_phases_and_pilot_rotation(name, snr_db, monkeypatch):
    check_invariant(SCENARIOS[name], snr_db, (phase_blocks, rotate_pilots), monkeypatch)
