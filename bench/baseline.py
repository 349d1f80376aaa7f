"""Regenerate the ROADMAP baseline table: ``run_trial`` ms at ``max_iters=30``.

    python3 bench/baseline.py [--seed N]

Runs each scenario of the table in sequence at 20 dB, after one untimed
warm-up trial, with BLAS pinned to one thread like the benchmark, and prints
the median ms per trial as a markdown table, preceded by the environment.
"""

import argparse
import json
import statistics
import time

import workloads  # first, so the BLAS threads are pinned before numpy loads
import numpy as np
from ristensor import experiment
from ristensor.config import small_config
from ristensor.estimation import AlsSettings

ALS = AlsSettings(max_iters=30, tol=1e-8)
SNR_DB = 20.0
#: (label, scenario, timed trials)
SCENARIOS = (
    ("`small_config()`", small_config(), 10),
    ("`Q=32`", small_config(Q=32), 10),
    ("`K=64`", small_config(K=64), 10),
    ("`N=3x3`, `K=81`", small_config(N_y=3, N_z=3, K=81), 3),
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    seed = parser.parse_args().seed
    print(json.dumps(workloads.environment()))
    print("| scenario | ms/trial | trials |\n|---|---|---|")
    for row, (label, cfg, trials) in enumerate(SCENARIOS):
        experiment.run_trial(cfg, ALS, SNR_DB, np.random.SeedSequence((seed, row, trials)))
        ms = []
        for index in range(trials):
            start = time.perf_counter()
            experiment.run_trial(cfg, ALS, SNR_DB, np.random.SeedSequence((seed, row, index)))
            ms.append(1e3 * (time.perf_counter() - start))
        print(f"| {label} | {statistics.median(ms):.0f} | {trials} |", flush=True)


if __name__ == "__main__":
    main()
