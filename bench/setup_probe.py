"""Time one benchmark set-up in a fresh interpreter and print it in seconds.

Set-up is importing ristensor (and numpy) plus the correctness gate, which
is also the warm-up.  ``run.py`` starts this several times and reports the
median.

    python3 bench/setup_probe.py <workload> <seed>
"""

import time

T0 = time.perf_counter()

import sys  # noqa: E402

import workloads  # noqa: E402  (pins the BLAS threads before numpy loads)

workloads.gate(workloads.WORKLOADS[sys.argv[1]], int(sys.argv[2]))
print(time.perf_counter() - T0)
