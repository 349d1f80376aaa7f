"""Fixed-seed regression: iteration counts and per-parameter relative errors
of ``run_trial``, with at most 30 sweeps per stage.

A numerical rewrite of the pipeline must reproduce them: iteration counts
exactly and relative errors within ``1e-11`` absolute.  The rows were
recorded in two rounds:

* ``small_config`` at 0 and 20 dB on seeds 7000-7004 and ``N = 3x3, K = 81``
  at 10 dB on seeds 7000-7001, while stage 1 solved its core update by
  least squares on the Khatri-Rao design itself rather than its normal
  equations;
* ``small_config(Q=32)`` and ``small_config(K=64)`` at 20 dB and
  ``small_config`` and ``N = 3x3, K = 81`` at 40 dB, on seeds 7000-7001,
  while stage 1 solved the core's normal equations with ``lstsq`` and the
  channel and factor updates with SVD pseudoinverses of their systems;
* ``small_config`` and ``N = 3x3, K = 81`` at 80 dB on seeds 7000-7001,
  while stage 1 fed its channel and core updates the echo projected onto
  the thin-QR basis of ``F``.  The ``ris9`` rows reach the ``lstsq``
  fallback of :func:`~ristensor.tensorops.least_squares` (three solves on
  seed 7000, one on 7001), which no other row does.
"""

import pytest

from ristensor import AlsSettings, run_trial, small_config

SCENARIOS = {
    "small": small_config(),
    "ris9": small_config(N_y=3, N_z=3, K=81),
    "q32": small_config(Q=32),
    "k64": small_config(K=64),
}

# (scenario, SNR dB, seed, stage-1 iterations, stage-2 iterations,
#  relative errors of (tau, nu, mu_D, psi_D))
PINNED = [
    ("small", 0.0, 7000, 30, 12, (0.32142929708683093, 0.0018518027422896848, 0.0036180213136609136, 0.0030627644266757975)),
    ("small", 0.0, 7001, 30, 10, (0.10338904823005396, 0.008279570990427913, 0.033471503506344556, 0.008067474980743576)),
    ("small", 0.0, 7002, 30, 13, (0.1744564291960102, 0.010672733568113503, 0.004205577653661355, 0.007216161676898157)),
    ("small", 0.0, 7003, 30, 11, (0.11782712904839143, 0.03687368229137281, 0.01082216313945414, 0.013748768267912846)),
    ("small", 0.0, 7004, 30, 12, (0.026029532169850673, 0.014653954867328994, 0.02309536520844079, 0.009960800486334295)),
    ("small", 20.0, 7000, 30, 11, (0.04157006425994889, 0.0002544276758433557, 0.001646491263549332, 0.000187705938144195)),
    ("small", 20.0, 7001, 30, 10, (0.00715783885340037, 0.0005409065171102347, 0.0024704765140256832, 0.001669281818367448)),
    ("small", 20.0, 7002, 30, 10, (0.014731882793366924, 0.000664367940535757, 0.0021389136911315544, 0.0003410871991190714)),
    ("small", 20.0, 7003, 30, 10, (0.007795379912740281, 0.0036262091416203435, 0.0017546933446854166, 0.00064538086823756)),
    ("small", 20.0, 7004, 30, 10, (0.014602910947837921, 0.0012660017288643808, 0.00099353008627994, 0.00012909176095132695)),
    ("ris9", 10.0, 7000, 30, 10, (0.009308445446582127, 0.00026491402005147447, 0.0006104046484592113, 0.0012127182724391526)),
    ("ris9", 10.0, 7001, 30, 9, (0.03117161579168005, 0.00353146651581104, 0.0007504523582394141, 0.000830096486603)),
    ("q32", 20.0, 7000, 30, 8, (0.00198862443030329, 0.0002752764584063811, 0.0006236835176386741, 0.0013224381759868598)),
    ("q32", 20.0, 7001, 30, 7, (0.0011842603978761074, 0.0008621596616511278, 0.0008539037053573494, 0.0020669327033912602)),
    ("k64", 20.0, 7000, 30, 11, (0.002852339176178211, 0.0002447624910653166, 8.681672463008513e-05, 0.0022900409431529985)),
    ("k64", 20.0, 7001, 30, 10, (0.017037718277262505, 0.0009617201041247304, 0.0012301397235431508, 0.0005392632330014169)),
    ("small", 40.0, 7000, 30, 11, (0.004151256230034771, 2.333918333181724e-05, 0.00018608689245025543, 2.753150415086484e-05)),
    ("small", 40.0, 7001, 30, 10, (0.0007571358854188904, 0.00011070572433136251, 0.0002455613383087349, 0.00015447506285784697)),
    ("ris9", 40.0, 7000, 25, 11, (0.0007204011984374208, 1.6747915127500392e-06, 2.045261635148042e-05, 4.706530464808517e-05)),
    ("ris9", 40.0, 7001, 21, 10, (0.000927598658869466, 0.0001791568978435608, 2.4386327758927973e-05, 2.7998055500047204e-05)),
    ("small", 80.0, 7000, 2, 11, (4.96561709241813e-05, 4.763653252337537e-07, 1.8826447731006903e-06, 2.808322782428924e-07)),
    ("small", 80.0, 7001, 2, 10, (3.8697038161458665e-07, 3.767429112400276e-06, 2.4525507705078424e-06, 1.5275807339638162e-06)),
    ("ris9", 80.0, 7000, 3, 11, (3.09817774394954e-05, 1.629885624343604e-07, 2.0495974844670362e-07, 4.722832816963728e-07)),
    ("ris9", 80.0, 7001, 2, 10, (2.5889169009540164e-07, 5.743156679946384e-06, 2.452610178589458e-07, 2.8079705815695404e-07)),
]


@pytest.mark.parametrize("scenario,snr_db,seed,iters1,iters2,errors", PINNED)
def test_fixed_seed_outputs(scenario, snr_db, seed, iters1, iters2, errors):
    est, diag = run_trial(SCENARIOS[scenario], AlsSettings(max_iters=30), snr_db, seed)
    assert (diag["stage1_iters"], diag["stage2_iters"]) == (iters1, iters2)
    got = [est.rel_errors[key] for key in ("tau", "nu", "mu_d", "psi_d")]
    assert got == pytest.approx(list(errors), rel=0, abs=1e-11)
