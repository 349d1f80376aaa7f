"""Small Monte-Carlo RMSE sweeps.

Reproduces the qualitative experiment trends at desk scale: accuracy
improves with the SNR, with the number of subcarriers, and with the number
of RIS blocks.  Writes the records as CSV next to this script and, when
matplotlib is available, an RMSE-vs-SNR plot.

Runtime is a few seconds with the default 40 trials per cell (2-3 s on
one core); raise TRIALS for smoother curves.
"""

import os

from ristensor import (
    AlsSettings,
    ExperimentSpec,
    run_sweep,
    small_config,
    write_manifest,
    write_results,
)
from ristensor.experiment import PARAMETERS

TRIALS = 40
HERE = os.path.dirname(os.path.abspath(__file__))

spec = ExperimentSpec(
    base=small_config(),
    sweep_variable="none",
    snr_grid_db=(0.0, 10.0, 20.0, 30.0),
    trials=TRIALS,
    master_seed=2024,
    als=AlsSettings(max_iters=25, tol=1e-8),
)
records = run_sweep(spec)
csv_path = os.path.join(HERE, "rmse_vs_snr.csv")
write_results(records, csv_path)
write_manifest(spec, csv_path, csv_path.replace(".csv", ".manifest.json"))
print(f"wrote {csv_path}")

print(f"\nRMSE vs SNR ({TRIALS} trials/cell):")
print(f"{'snr_db':>7} " + " ".join(f"{p:>10}" for p in PARAMETERS))
for snr in spec.snr_grid_db:
    row = {r.parameter: r.rmse for r in records if r.snr_db == snr}
    print(f"{snr:>7.1f} " + " ".join(f"{row[p]:>10.3e}" for p in PARAMETERS))

# subcarrier sweep at one SNR: the delay axis gains resolution with Q
q_spec = ExperimentSpec(
    base=small_config(),
    sweep_variable="Q",
    sweep_values=(8, 16, 32),
    snr_grid_db=(20.0,),
    trials=TRIALS,
    master_seed=2025,
    als=AlsSettings(max_iters=25, tol=1e-8),
)
q_records = run_sweep(q_spec)
print("\ndelay RMSE vs number of subcarriers (20 dB):")
for value in q_spec.sweep_values:
    rec = next(r for r in q_records
               if r.sweep_value == float(value) and r.parameter == "tau")
    print(f"  Q={value:>3}: {rec.rmse:.3e}")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    print("\nmatplotlib not installed; skipping the plot")
else:
    fig, ax = plt.subplots(figsize=(6, 4))
    for p in PARAMETERS:
        ys = [r.rmse for r in sorted(records, key=lambda r: r.snr_db)
              if r.parameter == p]
        ax.semilogy(spec.snr_grid_db, ys, marker="o", label=p)
    ax.set_xlabel("SNR [dB]")
    ax.set_ylabel("relative RMSE")
    ax.grid(True, which="both", alpha=0.3)
    ax.legend()
    fig.tight_layout()
    png_path = os.path.join(HERE, "rmse_vs_snr.png")
    fig.savefig(png_path, dpi=120)
    print(f"\nwrote {png_path}")
