"""Metamorphic tests: ``run_trial`` on an echo and on a transformed copy of it.

Two transformations leave the estimation problem unchanged:

* permuting the RIS blocks, ``echo[:, :, perm]`` with ``codebook[:, perm]``:
  stage 1 reads the blocks only through the span they probe;
* scaling the echo by a complex constant: every least-squares update is
  linear in the data, the stopping rule is relative to ``||Y||^2``, and the
  angles, delay and Doppler are read off phase steps that a common factor
  does not move.

A correct pipeline therefore reproduces the iteration counts exactly and
the relative parameter errors up to rounding, at any SNR and with nothing
recorded.  The transformed echo is fed to stage 1 only; every other step of
the trial runs as it is.
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
#: 144 transformed trials (8 seeds per cell, both relations) moved the
#: relative errors by at most 5.8e-13
BOUND = 1e-11


def permute_blocks(echo, codebook):
    perm = np.random.default_rng(1).permutation(echo.shape[2])
    return echo[:, :, perm], codebook[:, perm]


def scale_echo(echo, codebook):
    return (3.7 * np.exp(0.9j)) * echo, codebook


def trial(cfg, snr_db, seed, monkeypatch, transform=None):
    if transform is not None:
        stage1 = exp.als_stage1
        monkeypatch.setattr(exp, "als_stage1",
                            lambda echo, codebook, *args, **kwargs:
                            stage1(*transform(echo, codebook), *args, **kwargs))
    estimate, diag = run_trial(cfg, ALS, snr_db, seed)
    monkeypatch.undo()
    return estimate, diag


@pytest.mark.parametrize("snr_db", [0.0, 20.0, 40.0])
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_invariant_under_block_permutation_and_scaling(name, snr_db, monkeypatch):
    cfg = SCENARIOS[name]
    base, base_diag = trial(cfg, snr_db, 7000, monkeypatch)
    for transform in (permute_blocks, scale_echo):
        moved, diag = trial(cfg, snr_db, 7000, monkeypatch, transform)
        assert (diag["stage1_iters"], diag["stage2_iters"]) == \
            (base_diag["stage1_iters"], base_diag["stage2_iters"]), transform.__name__
        for key, value in base.rel_errors.items():
            assert abs(moved.rel_errors[key] - value) <= BOUND, (transform.__name__, key)
